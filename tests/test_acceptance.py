"""Acceptance suite: one test per criterion, each printing a PASS line.

Every test prints ``[ACCEPTANCE] criterion N: PASS`` on success (visible
even under pytest's capture); a failing assertion leaves no PASS line.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from gtmseq import (
    a_of_n,
    a_values,
    build_witness,
    classify,
    equally_spaced,
    eval_cf,
    eval_series,
    expand,
    gap_multiple,
    generate_prefix_morphic,
    kernel_brute_force,
    kernel_explore,
    min_legal_m,
    periodic_series_value,
    verify_witness,
)
from gtmseq.periodicity import NON_PERIODIC, PERIODIC, aenp_scan, brute_force_period
from conftest import (
    classify_constant,
    constant_spec,
    literal_product,
    periodic_constructed_spec,
    random_spec,
    tm_spec,
    zero_spec,
)

CORPUS_SEED = 3
CORPUS_SIZE = 50


def corpus():
    rng = random.Random(CORPUS_SEED)
    return [random_spec(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture
def report(request, capsys):
    def _report(criterion, detail=""):
        tail = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"[ACCEPTANCE] criterion {criterion}: PASS{tail}")

    return _report


def test_criterion_01_thue_morse_fixture(report):
    spec = tm_spec()
    best = min(
        _timed(lambda: generate_prefix_morphic(spec, 3))[1] for _ in range(5)
    )
    word = generate_prefix_morphic(spec, 3)
    assert "".join(map(str, word)) == "01101001"
    assert best < 0.001
    report(1, f"A_3 exact, best of 5 runs {best * 1000:.3f} ms")


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_criterion_02_definition_equivalence(report):
    start = time.perf_counter()
    for spec in corpus():
        count = spec.k**8
        digit = a_values(spec, 0, 1, count)
        m = 8
        morphic = generate_prefix_morphic(spec, m)
        assert len(morphic) == count
        assert np.array_equal(digit, np.asarray(morphic))
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    report(2, f"{CORPUS_SIZE} specs, all n < k^8, {elapsed:.1f} s")


def test_criterion_03_generating_function_identity(report):
    for spec in corpus():
        coefficients = literal_product(spec, 5)
        assert sorted(coefficients) == list(range(spec.k**6))
        exponents = [coefficients[n] for n in range(spec.k**6)]
        assert exponents == generate_prefix_morphic(spec, 6).tolist()
        assert exponents == a_values(spec, 0, 1, spec.k**6).tolist()
    report(3, f"{CORPUS_SIZE} specs, all n < k^6, literal product = both routes")


def test_criterion_04_periodic_side(report):
    rng = random.Random(CORPUS_SEED + 4)
    checked = 0
    while checked < 20:
        spec, built_A = periodic_constructed_spec(rng)
        verdict = classify(spec)
        assert verdict.status == PERIODIC
        assert verdict.shift is not None and verdict.shift <= built_A
        bound = spec.L * spec.k**built_A
        values = a_values(spec, 0, 1, 4 * bound)
        found = brute_force_period(values, 2 * bound, bound)
        assert found is not None
        _, l = found
        assert bound % l == 0
        checked += 1
    report(4, "20 constructed Periodic specs, brute-force period divides L*k^A")


def test_criterion_05_non_periodic_side(report):
    start = time.perf_counter()
    checked = 0
    for spec in corpus():
        if classify(spec).status != NON_PERIODIC:
            continue
        checked += 1
        window = a_values(spec, 0, 1, 3 * 2048 + 2048)
        assert brute_force_period(window, 2048, 2048) is None
        assert aenp_scan(spec, 8, 8, 4096, max_preperiod=256, max_period=256) == []
    elapsed = time.perf_counter() - start
    assert checked > 0
    assert elapsed < 120
    report(5, f"{checked} NonPeriodic specs, no window period found, {elapsed:.1f} s")


def test_criterion_06_constant_kappa_exhaustive(report):
    cases = 0
    for L, k in itertools.product((2, 3, 4), (2, 3, 4)):
        for kvec in itertools.product(range(L), repeat=k - 1):
            spec = constant_spec(L, k, kvec)
            fast = classify_constant(L, k, kvec)
            full = classify(spec)
            assert fast.status == full.status
            values = a_values(spec, 0, 1, 4096)
            found = brute_force_period(values, 256, 64)
            if full.status == PERIODIC:
                assert found is not None
                assert L % found[1] == 0
            else:
                assert found is None
            cases += 1
    report(6, f"{cases} constant-kappa specs, fast/full/brute-force verdicts agree")


def test_criterion_07_gap_multiple(report):
    cases = 0
    for k in (2, 3, 4, 6):
        for l in range(1, 25):
            for t in range(5):
                result = gap_multiple(l, k, t)
                exp = expand(result.x * l, k)
                assert exp.terms == result.expansion.terms
                s0, w0 = exp.terms[0]
                assert s0 == 1
                assert w0 == result.leading_exponent
                assert len(exp.terms) > 1  # the gap is finite: a second term exists
                assert exp.terms[1][1] - w0 > t
                deeper = gap_multiple(l, k, t + 3)
                assert deeper.leading_exponent == result.leading_exponent
                cases += 1
    report(7, f"{cases} (l, k, t) triples verified by independent re-expansion")


def test_criterion_08_stammering(report):
    start = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 8)
    specs = [tm_spec()]
    while len(specs) < 6:
        cand = random_spec(rng, L_max=4, k_max=4, y0_max=2, p_max=3)
        if classify(cand).status == NON_PERIODIC:
            specs.append(cand)
    witnesses = 0
    for spec in specs:
        for N, l in itertools.product((0, 1, 2), (1, 2, 3)):
            m0 = min_legal_m(N, l, spec.k)
            for m in range(m0, m0 + 3):
                witness = build_witness(spec, N, l, m)
                block = spec.k**m
                bound = 2 * spec.L * l + 3
                assert witness.w == Fraction(bound + 1, bound)
                assert witness.w > 1
                assert Fraction(len(witness.U), len(witness.V)) <= bound
                assert witness.w2_len >= (block - 1 - N) // l + 1 - 1
                assert len(witness.V) * (witness.w - 1) <= witness.w2_len
                need = len(witness.prefix_word())
                window = equally_spaced(spec, N, l, need)
                ok, diag = verify_witness(window, witness)
                assert ok, diag
                witnesses += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report(8, f"{witnesses} witnesses over 6 specs verified, {elapsed:.1f} s")


def test_criterion_09_series_evaluation(report):
    tm = tm_spec()
    lo, hi = eval_series(tm, 0, 1, 2, 12)
    assert hi - lo < Fraction(1, 10**12)
    # doubled-T oracle: independent term-by-term accumulation
    doubled_terms = 2 * (12 * 4 + 2)
    oracle = sum(
        Fraction(a_of_n(tm, n), 2 ** (n + 1)) for n in range(doubled_terms)
    )
    assert lo <= oracle <= hi
    assert (lo.numerator * 10**12) // lo.denominator == 412454033640

    rng = random.Random(CORPUS_SEED + 9)
    for _ in range(10):
        spec, _ = periodic_constructed_spec(rng)
        verdict = classify(spec)
        assert verdict.status == PERIODIC
        beta = spec.L + rng.randint(0, 2)
        for N, l in [(0, 1), (1, 2)]:
            plo, phi = eval_series(spec, N, l, beta, 10)
            exact = periodic_series_value(spec, N, l, beta)
            assert plo <= exact <= phi
    report(9, "TM interval width < 1e-12 contains oracle; closed forms contained")


def test_criterion_10_continued_fractions(report):
    specs = [tm_spec(), zero_spec(2, 2), constant_spec(3, 2, (1,)),
             constant_spec(2, 3, (1, 1))]
    for spec in specs:
        conv = eval_cf(spec, 0, 1, 100)
        cs = conv.convergents
        for n in range(1, len(cs)):
            p, q = cs[n]
            p0, q0 = cs[n - 1]
            assert p * q0 - p0 * q == (-1) ** (n + 1)
        reference = eval_cf(spec, 0, 1, 200).value()
        for n in range(1, len(cs) - 1):
            p, q = cs[n]
            _, q_next = cs[n + 1]
            assert abs(reference - Fraction(p, q)) < Fraction(1, q * q_next)
    report(10, f"{len(specs)} specs, determinant identity and convergent quality")


def test_criterion_11_kernel(report, monkeypatch):
    monkeypatch.setenv("GTMSEQ_BUDGET", "20000000")
    tm = tm_spec()
    tm_result = kernel_explore(tm)
    assert tm_result.complete and len(tm_result) == 2

    checked = 0
    for spec in corpus():
        if spec.is_finite_window:
            continue
        result = kernel_explore(spec)
        assert result.complete
        assert len(result) <= (spec.preperiod + spec.period) * spec.L
        reachable = {0}
        for _ in range(5):
            reachable |= {
                result.transitions[s][d] for s in reachable for d in range(spec.k)
            }
        groups = kernel_brute_force(spec, 5, 2**12)
        assert len(groups) == len(reachable)
        checked += 1
    report(11, f"TM has 2 states; {checked} specs match brute-force group counts")
