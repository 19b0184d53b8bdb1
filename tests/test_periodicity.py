import itertools
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gtmseq import (
    BudgetExceededError,
    KappaSpec,
    PeriodicSpecError,
    a_values,
    build_witness,
    periodic_series_value,
    periodicity,
)
from gtmseq.cli import main
from gtmseq.periodicity import (
    NON_PERIODIC,
    PERIODIC,
    UNKNOWN,
    aenp_scan,
    brute_force_period,
    classify,
)
from conftest import (
    alternating_spec,
    classify_constant,
    constant_spec,
    make_spec,
    periodic_constructed_spec,
    power_residue_cycle,
    random_spec,
    run_child,
    zero_spec,
)


class TestPowerResidueCycle:
    def test_examples(self):
        # 2**y mod 4: 1, 2, 0, 0, ...
        assert power_residue_cycle(2, 4) == (2, 1)
        # 2**y mod 3: 1, 2, 1, 2, ...
        assert power_residue_cycle(2, 3) == (0, 2)
        # 3**y mod 2: 1, 1, ...
        assert power_residue_cycle(3, 2) == (0, 1)

    def test_matches_direct_iteration(self):
        for k in range(2, 8):
            for L in range(2, 13):
                pre, cyc = power_residue_cycle(k, L)
                stream = [pow(k, y, L) for y in range(pre + 3 * cyc)]
                for y in range(pre, pre + 2 * cyc):
                    assert stream[y] == stream[y + cyc]
                if pre > 0:
                    assert stream[pre - 1] not in stream[pre:pre + cyc] or cyc == 1


def lcm_horizon_classify(spec):
    """(status, shift, period, refutations) by the criterion read literally.

    Reads the declared table directly and checks each shift A up to
    max(preperiod - A, pre) + lcm(period, cyc), where (pre, cyc) is the
    walk of k**y mod L: both sides of the congruence are periodic from
    there on.
    """
    L, k, y0, p = spec.L, spec.k, spec.preperiod, spec.period

    def kappa(s, y):
        return spec.table[s - 1][y if y < y0 else y0 + (y - y0) % p]

    pre, cyc = power_residue_cycle(k, L)
    refutations = []
    for A in range(y0 + p):
        c = kappa(1, A)
        failure = next(
            (
                (s, y)
                for y in range(max(y0 - A, pre) + lcm(p, cyc))
                for s in range(1, k)
                if kappa(s, A + y) != c * s * pow(k, y, L) % L
            ),
            None,
        )
        if failure is None:
            return PERIODIC, A, L * k**A, ()
        refutations.append((A, *failure))
    return NON_PERIODIC, None, None, tuple(refutations)


def redeclared(spec, extra_preperiod, factor):
    """The same column stream declared with a longer preperiod and period."""
    y0 = spec.preperiod + extra_preperiod
    p = spec.period * factor
    columns = [spec.column(y) for y in range(y0 + p)]
    return make_spec(spec.L, spec.k, y0, p, columns)


def late_failure_spec(y0, p):
    """k = 2, L = 3 table that is zero except at column y0 - 1.

    Periodic at A = y0; every earlier shift A is refuted at
    y = y0 - 1 - A, late in its orbit.
    """
    columns = [(0,)] * (y0 + p)
    columns[y0 - 1] = (1,)
    return make_spec(3, 2, y0, p, columns)


class TestClassify:
    def test_thue_morse_non_periodic(self, tm):
        verdict = classify(tm)
        assert verdict.status == NON_PERIODIC
        assert verdict.refutations  # refutation data recorded per shift

    def test_zero_map_periodic(self):
        for L, k in [(2, 2), (3, 4), (5, 3)]:
            verdict = classify(zero_spec(L, k))
            assert verdict.status == PERIODIC
            assert verdict.shift == 0
            assert verdict.period == L

    def test_base3_constant_periodic(self):
        spec = constant_spec(2, 3, (1, 0))
        verdict = classify(spec)
        assert verdict.status == PERIODIC
        assert verdict.shift == 0
        assert verdict.period == 2
        # generated sequence alternates 0, 1
        assert list(a_values(spec, 0, 1, 12)) == [n % 2 for n in range(12)]

    def test_alternating_non_periodic(self):
        assert classify(alternating_spec()).status == NON_PERIODIC

    def test_finite_window_unknown(self):
        spec = KappaSpec(L=2, k=2, preperiod=0, period=None, table=((1, 1, 1),), window=3)
        verdict = classify(spec)
        assert verdict.status == UNKNOWN
        assert verdict.bound == 3

    def test_constructed_periodic_cases(self, rng):
        for _ in range(25):
            spec, built_A = periodic_constructed_spec(rng)
            verdict = classify(spec)
            assert verdict.status == PERIODIC
            assert verdict.shift <= built_A

    def test_unrolling_invariance(self, rng):
        for _ in range(15):
            spec = random_spec(rng, k_max=4)
            unrolled = KappaSpec(
                L=spec.L,
                k=spec.k,
                preperiod=spec.preperiod,
                period=2 * spec.period,
                table=tuple(row + row[spec.preperiod:] for row in spec.table),
            )
            v1, v2 = classify(spec), classify(unrolled)
            assert v1.status == v2.status
            if v1.status == PERIODIC:
                assert v1.shift == v2.shift

    def test_matches_power_cycle_horizon(self, rng):
        specs = [random_spec(rng, L_max=L_max) for L_max in (6, 40) for _ in range(500)]
        specs += [periodic_constructed_spec(rng)[0] for _ in range(500)]
        specs += [
            redeclared(spec, rng.randint(0, 2), rng.randint(1, 3))
            for spec in specs[::3]
        ]
        specs += [late_failure_spec(y0, p) for y0 in (1, 2, 5, 50, 200) for p in (1, 3)]
        # every table over L in {2, 3, 4, 6}, k <= 4, preperiod <= 2,
        # period <= 3 that has at most 5 entries
        for L, k, y0, p in itertools.product((2, 3, 4, 6), (2, 3, 4), (0, 1, 2), (1, 2, 3)):
            if (k - 1) * (y0 + p) > 5:
                continue
            for flat in itertools.product(range(L), repeat=(k - 1) * (y0 + p)):
                columns = [flat[y * (k - 1):(y + 1) * (k - 1)] for y in range(y0 + p)]
                specs.append(make_spec(L, k, y0, p, columns))
        for spec in specs:
            verdict = classify(spec)
            got = (verdict.status, verdict.shift, verdict.period, verdict.refutations)
            assert got == lcm_horizon_classify(spec)
            if verdict.is_periodic:
                A = verdict.shift
                y0, p = spec.normal_form
                assert verdict.checked_window == A + max(y0 - A, 0) + p + 1

    def test_reads_each_column_pair_once(self, monkeypatch):
        y0, p = 2000, 1
        spec = late_failure_spec(y0, p)
        reads = []
        column = KappaSpec.column

        def counting_column(self, y):
            reads.append(y)
            return column(self, y)

        monkeypatch.setattr(KappaSpec, "column", counting_column)
        verdict = classify(spec)
        assert (verdict.status, verdict.shift) == (PERIODIC, y0)
        assert len(reads) <= 2 * (y0 + 2 * p) + spec.preperiod + spec.period


class TestVerdictKept:
    """classify decides once per spec object, for every reader of the verdict."""

    @pytest.fixture
    def decided(self, monkeypatch):
        specs = []
        decide = periodicity._decide

        def counting(spec):
            specs.append(spec)
            return decide(spec)

        monkeypatch.setattr(periodicity, "_decide", counting)
        return specs

    @pytest.mark.parametrize("make", [alternating_spec, lambda: constant_spec(2, 3, (1, 0))],
                             ids=["NonPeriodic", "Periodic"])
    def test_one_decision_for_every_reader(self, decided, make):
        spec = make()
        if classify(spec).is_non_periodic:
            assert build_witness(spec, 0, 1, 3).m == 3
            with pytest.raises(ValueError, match="found the spec NonPeriodic"):
                periodic_series_value(spec, 0, 1, 3)
        else:
            # the refusal reads the kept verdict
            with pytest.raises(PeriodicSpecError, match="classify said Periodic"):
                build_witness(spec, 0, 1, 6)
            assert periodic_series_value(spec, 0, 1, 3) == Fraction(1, 8)  # 0, 1, 0, 1, ...
        assert len(decided) == 1 and decided[0] is spec

    def test_same_object_each_call(self, decided, tm):
        assert classify(tm) is classify(tm)
        assert decided == [tm]

    def test_equal_specs_decided_apart(self, decided):
        first, second = alternating_spec(), alternating_spec()
        assert first == second and first is not second
        assert classify(first) == classify(second) == classify(first)
        assert len(decided) == 2
        assert decided[0] is first and decided[1] is second

    def test_cli_calls_share_one_decision(self, decided, tmp_path, capsys):
        # parse_spec interns the spec by its text, so the verdict goes with it
        path = tmp_path / "alternating.spec"
        path.write_text(f"name = {tmp_path.name}\nL = 2\nk = 2\npreperiod = 0\n"
                        "period = 2\nkappa =\n0 1\n")
        assert main(["classify", str(path)]) == 0
        assert main(["stammer", str(path), "0", "1", "4"]) == 0
        assert main(["classify", str(path)]) == 0
        assert len(decided) == 1
        assert '"status": "NonPeriodic"' in capsys.readouterr().out


class TestClassifyConstant:
    def test_thue_morse_vector(self):
        assert classify_constant(2, 2, (1,)).status == NON_PERIODIC

    def test_periodic_vector(self):
        verdict = classify_constant(2, 3, (1, 0))
        assert verdict.status == PERIODIC
        assert verdict.period == 2

    def test_zero_vector(self):
        for L, k in [(2, 2), (4, 4), (6, 3)]:
            assert classify_constant(L, k, (0,) * (k - 1)).status == PERIODIC

    def test_validation(self):
        with pytest.raises(ValueError):
            classify_constant(2, 3, (1,))
        with pytest.raises(ValueError):
            classify_constant(2, 2, (2,))

    def test_agrees_with_classify_small(self):
        for L, k in itertools.product((2, 3), (2, 3)):
            for kvec in itertools.product(range(L), repeat=k - 1):
                expected = classify(constant_spec(L, k, kvec)).status
                assert classify_constant(L, k, kvec).status == expected


class TestBruteForcePeriod:
    def test_alternating_word(self):
        assert brute_force_period([0, 1] * 20, 4, 8) == (0, 2)

    def test_constant_word(self):
        assert brute_force_period([3] * 30, 4, 8) == (0, 1)

    def test_preperiod(self):
        word = [9, 9, 7] + [1, 2] * 20
        assert brute_force_period(word, 4, 8) == (3, 2)

    def test_thue_morse_has_no_short_period(self, tm):
        word = a_values(tm, 0, 1, 2**14)
        assert brute_force_period(word, 2**12, 2**12) is None

    def test_insufficient_length(self):
        with pytest.raises(ValueError):
            brute_force_period([0, 1, 0], 2, 4)


class TestAenpScan:
    def test_thue_morse_empty_report(self, tm):
        assert aenp_scan(tm, 4, 4, 1024) == []

    def test_periodic_spec_all_flagged(self):
        spec = constant_spec(2, 3, (1, 0))
        report = aenp_scan(spec, 2, 3, 256)
        assert len(report) == 3 * 3  # every (N, l) window flagged
        assert [(r["l"], r["N"]) for r in report] == sorted(
            (r["l"], r["N"]) for r in report
        )

    def test_zero_spec_constant_windows(self):
        report = aenp_scan(zero_spec(2, 2), 2, 2, 128)
        assert all(r["period"] == 1 for r in report)
        assert len(report) == 3 * 2


def reference_period(values, max_preperiod, max_period):
    """brute_force_period by its definition: for l ascending, one pass finds
    the last mismatch of values with its shift by l, hence the least N."""
    for l in range(1, max_period + 1):
        mismatch = np.flatnonzero(values[l:] != values[:-l])
        start = int(mismatch[-1]) + 1 if mismatch.size else 0
        if start <= max(max_preperiod, 0):
            return start, l
    return None


def per_window_scan(spec, max_start, max_stride, horizon, max_preperiod, max_period):
    """aenp_scan with one a_values call and one reference_period per window."""
    hits = []
    for stride in range(1, max_stride + 1):
        for start in range(max_start + 1):
            window = a_values(spec, start, stride, horizon)
            found = reference_period(window, max_preperiod, max_period)
            if found is not None:
                hits.append({"N": start, "l": stride, "preperiod": found[0], "period": found[1]})
    return hits


def scan_cases(rng):
    """Random and constructed-periodic specs with small scan grids."""
    for trial in range(16):
        if trial % 2:
            spec, _ = periodic_constructed_spec(rng, L_max=4, k_max=4)
        else:
            spec = random_spec(rng, L_max=3, k_max=3, y0_max=1, p_max=2)
        horizon = rng.choice([8, 40, 128, 256])
        yield spec, rng.randint(0, 5), rng.randint(1, 5), horizon
    # 602 windows of 256 values: several batches under any budget.
    yield periodic_constructed_spec(rng, L_max=4, k_max=4)[0], 300, 2, 256


def assert_scan_cases_match(rng, monkeypatch, rows):
    # A budget of one window (or of three, plus one value) still admits
    # the scan, which then runs in batches of that many windows.
    for spec, max_start, max_stride, horizon in scan_cases(rng):
        if rows:
            monkeypatch.setenv("GTMSEQ_BUDGET", str(rows * horizon + rows - 1))
        want = per_window_scan(spec, max_start, max_stride, horizon,
                               horizon // 4, horizon // 4)
        assert aenp_scan(spec, max_start, max_stride, horizon) == want


class TestAenpScanBatches:
    @pytest.mark.parametrize("rows", [None, 1, 3])
    def test_matches_per_window_loop(self, rng, monkeypatch, rows):
        assert_scan_cases_match(rng, monkeypatch, rows)

    def test_window_past_budget_refused(self, tm, monkeypatch):
        monkeypatch.setenv("GTMSEQ_BUDGET", "127")
        with pytest.raises(BudgetExceededError):
            aenp_scan(tm, 2, 2, 128)

    @pytest.mark.parametrize("max_start,max_stride", [(-1, 3), (2, 0)])
    def test_invalid_grid_refused(self, tm, max_start, max_stride):
        # an empty answer would read as "no window looked periodic"
        with pytest.raises(ValueError, match="need start >= 0, stride >= 1"):
            aenp_scan(tm, max_start, max_stride, 8)

    def test_index_reaching_2_63_refused(self, tm):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            aenp_scan(tm, 0, 2**62, 3)

    def test_peak_memory(self):
        # 32,000 windows in batches of 2**16 // 256 = 256: the indices,
        # the prefix sums and the candidate matrix of a batch stay small.
        code = (
            "from gtmseq import KappaSpec, aenp_scan\n"
            "tm = KappaSpec(L=2, k=2, preperiod=0, period=1, table=((1,),))\n"
            "print(len(aenp_scan(tm, 999, 32, 256)))\n"
        )
        (hits,), peak_mb = run_child(code, GTMSEQ_BUDGET="8000000")
        assert hits == "0"
        assert peak_mb <= 60


def literal_period(values, max_preperiod, max_period):
    """The docstring's definition of brute_force_period, read literally."""
    n = len(values)
    if n < max_preperiod + 2 * max_period:
        raise ValueError("too short")
    for l in range(1, max_period + 1):
        for N in range(max(max_preperiod, 0) + 1):
            if all(values[i] == values[i + l] for i in range(N, n - l)):
                return N, l
    return None


@st.composite
def period_cases(draw):
    """Short, constant and eventually periodic words with bounds around them."""
    kind = draw(st.sampled_from(["random", "constant", "eventual"]))
    size = draw(st.integers(0, 40))
    if kind == "random":
        values = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    elif kind == "constant":
        values = [draw(st.integers(0, 3))] * size
    else:
        head = draw(st.lists(st.integers(0, 2), max_size=6))
        block = draw(st.lists(st.integers(0, 2), min_size=1, max_size=6))
        values = (head + block * size)[:size]
    max_preperiod = draw(st.integers(-3, 12))
    max_period = draw(st.integers(-2, 14))
    return values, max_preperiod, max_period


def assert_matches_literal_definition(case):
    values, max_preperiod, max_period = case
    try:
        want = literal_period(values, max_preperiod, max_period)
    except ValueError:
        with pytest.raises(ValueError):
            brute_force_period(values, max_preperiod, max_period)
        return
    assert brute_force_period(values, max_preperiod, max_period) == want
    assert brute_force_period(np.array(values, dtype=np.int64),
                              max_preperiod, max_period) == want


def assert_every_short_binary_word():
    # exhaustive over words of length <= 10, with suffixes shorter than
    # twice the period bound and bounds past the suffix
    for n in range(11):
        for word in itertools.product((0, 1), repeat=n):
            for max_preperiod, max_period in (
                (-1, (n + 1) // 2), (0, n // 2), (2, (n - 2) // 2), (1, (n - 1) // 3)
            ):
                assert brute_force_period(word, max_preperiod, max_period) == (
                    literal_period(word, max_preperiod, max_period)
                ), (word, max_preperiod, max_period)


class TestBruteForcePeriodDefinition:
    @settings(max_examples=400, deadline=None)
    @given(period_cases())
    def test_matches_literal_definition(self, case):
        assert_matches_literal_definition(case)

    def test_every_short_binary_word(self):
        assert_every_short_binary_word()

    def test_edge_bounds(self):
        word = [0, 1, 1] + [2, 0] * 10
        assert brute_force_period(word, 4, 0) is None
        assert brute_force_period(word, 4, -1) is None
        assert brute_force_period(word, -1, 5) is None
        # a negative preperiod bound admits N = 0 only
        assert brute_force_period([2, 0] * 10, -1, 5) == (0, 2)
        assert brute_force_period([], -4, 1) == (0, 1)
        with pytest.raises(ValueError):
            brute_force_period(word, 20, 2)

    def test_letters_congruent_mod_hash_modulus(self):
        # Letters that differ by a multiple of 2**31 - 1 hash alike, so
        # l = 1 passes the filter and the exact comparison refutes it.
        for low in (0, 2**57 - 5):
            assert brute_force_period([low, low + 2**31 - 1] * 20, 4, 8) == (0, 2)
        word = [7] + [2**57 - 5, 2**57 - 1, 2**57 - 3] * 13
        assert brute_force_period(word, 4, 8) == (1, 3)
        assert brute_force_period(word, 0, 8) is None


@pytest.fixture
def forced_collisions(monkeypatch):
    """Hash modulus 1: every l passes the filter, so verification decides."""
    monkeypatch.setattr(periodicity, "_MODULUS", 1)


class TestForcedCollisions:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(period_cases())
    def test_matches_literal_definition(self, forced_collisions, case):
        assert_matches_literal_definition(case)

    def test_every_short_binary_word(self, forced_collisions):
        assert_every_short_binary_word()

    @pytest.mark.parametrize("rows", [None, 3])
    def test_scan_matches_per_window_loop(self, forced_collisions, rng, monkeypatch, rows):
        assert_scan_cases_match(rng, monkeypatch, rows)
