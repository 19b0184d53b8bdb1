import re
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtmseq import (
    BudgetExceededError,
    GtmseqError,
    KappaSpec,
    WindowExceededError,
    a_of_n,
    a_values,
    equally_spaced,
    expand,
    generate_prefix_morphic,
    kernel_brute_force,
    periodic_series_value,
)
from gtmseq.kappa import _chunk_tables, _reduce_mod
from conftest import (alternating_spec, constant_spec, generate_prefix_morphic_literal,
                      random_spec, zero_spec)

# Each pair ends one unsigned dtype of generate_prefix_morphic's word and
# starts the next: the word holds sums up to 2L - 2, so L = 129, 32769 and
# 2**31 + 1 need a wider dtype than the one holding their letters.
DTYPE_SWITCHES = [128, 129, 32768, 32769, 2**31, 2**31 + 1]


class TestAOfN:
    def test_thue_morse_prefix(self, tm):
        assert [a_of_n(tm, n) for n in range(8)] == [0, 1, 1, 0, 1, 0, 0, 1]

    def test_zero_map(self):
        spec = zero_spec(3, 4)
        assert all(a_of_n(spec, n) == 0 for n in range(200))

    def test_digit_sum_mod_three(self):
        spec = constant_spec(3, 3, (1, 2))
        for n in range(500):
            total = 0
            v = n
            while v:
                v, d = divmod(v, 3)
                total += d
            assert a_of_n(spec, n) == total % 3

    def test_a_zero_is_zero(self, rng):
        for _ in range(20):
            assert a_of_n(random_spec(rng), 0) == 0

    def test_value_at_single_term(self, rng):
        # a(s * k**y) = kappa(s, y)
        for _ in range(20):
            spec = random_spec(rng)
            for s in range(1, spec.k):
                for y in range(spec.preperiod + 2 * spec.period + 1):
                    assert a_of_n(spec, s * spec.k**y) == spec.kappa(s, y)

    def test_disjoint_support_additivity(self, rng):
        for _ in range(10):
            spec = random_spec(rng)
            for _ in range(40):
                # m gets random digits only at the positions where n has zeros
                n = rng.randrange(10**6)
                m = sum(
                    rng.randrange(spec.k) * spec.k**y
                    for y in range(len(np.base_repr(10**6, spec.k)))
                    if n // spec.k**y % spec.k == 0
                )
                n_exps = {w for _, w in expand(n, spec.k).terms}
                m_exps = {w for _, w in expand(m, spec.k).terms}
                assert not n_exps & m_exps
                assert a_of_n(spec, n + m) == (a_of_n(spec, n) + a_of_n(spec, m)) % spec.L


@st.composite
def morphic_cases(draw):
    """(spec, m): k <= 6, L at the int64 edges, at the kernel's dtype
    switches or random, periodic or finite-window.

    m runs to one past the largest m with k**m <= 4096, so for k <= 5 it
    can pass every finite window (at most 5 columns).
    """
    edges = [2, 3, 255, 2**57 - 1, 2**57] + DTYPE_SWITCHES
    L = draw(st.one_of(st.sampled_from(edges), st.integers(2, 2**57)))
    k = draw(st.integers(2, 6))
    if draw(st.booleans()):
        y0, p, cols = 0, None, draw(st.integers(1, 5))
    else:
        y0, p = draw(st.integers(0, 3)), draw(st.integers(1, 4))
        cols = y0 + p
    letters = st.one_of(st.sampled_from([0, L - 1]), st.integers(0, L - 1))
    table = tuple(
        tuple(draw(st.lists(letters, min_size=cols, max_size=cols))) for _ in range(k - 1)
    )
    spec = KappaSpec(L=L, k=k, preperiod=y0, period=p, table=table,
                     window=None if p else cols)
    m_max = next(m for m in range(13) if k ** (m + 1) > 4096)
    return spec, draw(st.integers(0, m_max + 1))


def morphic_outcome(kernel, spec, m):
    """The word as (dtype, letters), or the error as (type, message)."""
    try:
        word = kernel(spec, m)
    except (ValueError, GtmseqError) as exc:
        return type(exc), str(exc)
    return word.dtype, word.tolist()


class TestMorphic:
    def test_thue_morse_words(self, tm):
        assert generate_prefix_morphic(tm, 2).tolist() == [0, 1, 1, 0]
        assert generate_prefix_morphic(tm, 3).tolist() == [0, 1, 1, 0, 1, 0, 0, 1]

    def test_zero_map_word(self):
        spec = zero_spec(2, 3)
        assert generate_prefix_morphic(spec, 4).tolist() == [0] * 3**4

    @settings(max_examples=100, deadline=None)
    @given(morphic_cases())
    def test_agrees_with_digit_counting(self, case):
        spec, m = case
        indices = np.arange(spec.k**m, dtype=np.int64)
        if spec.is_finite_window and m > spec.window:
            with pytest.raises(WindowExceededError):
                generate_prefix_morphic(spec, m)
            with pytest.raises(WindowExceededError):
                a_values(spec, indices)
            return
        word = generate_prefix_morphic(spec, m)
        assert word.dtype == np.int64
        assert word.tolist() == a_values(spec, indices).tolist()

    @settings(max_examples=100, deadline=None)
    @given(morphic_cases())
    def test_matches_literal_kernel(self, case):
        # m = 6 reads past every finite window of morphic_cases.
        spec, _ = case
        for m in range(-1, 7):
            assert morphic_outcome(generate_prefix_morphic, spec, m) == \
                morphic_outcome(generate_prefix_morphic_literal, spec, m)

    @pytest.mark.parametrize("L", DTYPE_SWITCHES)
    def test_dtype_switches(self, L):
        # Every letter is L - 1, so each step reaches the largest sum 2L - 2.
        spec = constant_spec(L, 3, (L - 1, L - 1))
        for m in range(7):
            word = generate_prefix_morphic(spec, m)
            assert word.tolist() == generate_prefix_morphic_literal(spec, m).tolist()
        assert word.max() == L - 1

    def test_errors_match_literal_kernel(self, monkeypatch):
        # The window is read before the budget: m = 3 reads past the
        # 2-column window, and m = 2 fits it but not the budget of 3 values.
        monkeypatch.setenv("GTMSEQ_BUDGET", "3")
        window = KappaSpec(L=2**31 + 1, k=3, preperiod=0, period=None,
                           table=((2**31, 1), (0, 2**31)), window=2)
        for m in (-1, 0, 1, 2, 3):
            outcome = morphic_outcome(generate_prefix_morphic, window, m)
            assert outcome == morphic_outcome(generate_prefix_morphic_literal, window, m)
        assert morphic_outcome(generate_prefix_morphic, window, 2)[0] is BudgetExceededError
        assert morphic_outcome(generate_prefix_morphic, window, 3)[0] is WindowExceededError

    def test_letters_are_int64(self, rng):
        for _ in range(4):
            word = generate_prefix_morphic(random_spec(rng), 3)
            assert isinstance(word, np.ndarray) and word.dtype == np.int64

    def test_prefix_stability(self, rng):
        for _ in range(8):
            spec = random_spec(rng, k_max=3)
            prev = generate_prefix_morphic(spec, 0).tolist()
            for m in range(1, 7):
                cur = generate_prefix_morphic(spec, m).tolist()
                assert cur[: len(prev)] == prev
                prev = cur


class TestVectorized:
    def test_matches_scalar(self, rng):
        for _ in range(10):
            spec = random_spec(rng)
            idx = [rng.randrange(10**7) for _ in range(100)]
            vec = a_values(spec, idx)
            assert list(vec) == [a_of_n(spec, n) for n in idx]

    def test_empty(self, tm):
        assert len(a_values(tm, [])) == 0

    def test_rejects_negative(self, tm):
        with pytest.raises(ValueError):
            a_values(tm, [3, -1])


def per_digit_values(spec, indices):
    """a_values one base-k digit per numpy pass: the literal reference."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return np.zeros(0, dtype=np.int64)
    if idx.min() < 0:
        raise ValueError("indices must be >= 0")
    top = int(idx.max())
    k, L = spec.k, spec.L
    rem = idx.copy()
    digit = np.empty_like(rem)
    acc = np.zeros(idx.shape, dtype=np.int64)
    col = np.zeros(k, dtype=np.int64)
    y = 0
    while top:
        col[1:] = spec.column(y)
        np.divmod(rem, k, out=(rem, digit))
        acc += col[digit]
        top //= k
        y += 1
    return acc % L


@st.composite
def digit_route_cases(draw, window=False):
    """A spec with k in [2, 7] and L up to 2**57, and an index array.

    The array size is small, or within one of 32 * k**c, a multiple of a
    chunk-table size k**c <= 4096; the largest index is anywhere up to
    2**63 - 1, and is sometimes present.
    """
    k = draw(st.integers(2, 7))
    L = draw(st.one_of(st.integers(2, 12), st.integers(2, 2**57)))
    if window:
        y0, p, cols = 0, None, draw(st.integers(1, 12))
    else:
        y0, p = draw(st.integers(0, 3)), draw(st.integers(1, 3))
        cols = y0 + p
    table = tuple(
        tuple(draw(st.lists(st.integers(0, L - 1), min_size=cols, max_size=cols)))
        for _ in range(k - 1)
    )
    spec = KappaSpec(L=L, k=k, preperiod=y0, period=p, table=table,
                     window=cols if window else None)
    steps = [32 * k**c for c in range(1, 13) if k**c <= 4096]
    size = draw(st.one_of(
        st.integers(0, 80),
        st.sampled_from(steps).flatmap(lambda n: st.integers(n - 1, n + 1)),
    ))
    top = draw(st.one_of(st.integers(0, 2**16), st.integers(0, 2**63 - 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    idx = np.random.default_rng(seed).integers(0, top, size=size, endpoint=True)
    if size and draw(st.booleans()):
        idx[draw(st.integers(0, size - 1))] = top
    return spec, idx


class TestChunkTables:
    @settings(max_examples=100, deadline=None)
    @given(digit_route_cases())
    def test_matches_per_digit_loop_and_a_of_n(self, case):
        spec, idx = case
        got = a_values(spec, idx)
        assert got.dtype == np.int64 and got.shape == idx.shape
        assert np.array_equal(got, per_digit_values(spec, idx))
        for i in range(0, idx.size, max(idx.size // 40, 1)):
            assert int(got[i]) == a_of_n(spec, int(idx[i]))

    @settings(max_examples=100, deadline=None)
    @given(digit_route_cases(window=True))
    def test_finite_window_raises_where_per_digit_loop_does(self, case):
        spec, idx = case
        try:
            want = per_digit_values(spec, idx)
        except WindowExceededError:
            with pytest.raises(WindowExceededError):
                a_values(spec, idx)
        else:
            assert np.array_equal(a_values(spec, idx), want)

    def test_slab_boundary(self, rng):
        spec = random_spec(rng, L_max=7, k_max=7)
        for size in (2**14 + 3, 2**20 + 3):
            idx = np.random.default_rng(7).integers(0, 2**63 - 1, size=size, endpoint=True)
            assert np.array_equal(a_values(spec, idx), per_digit_values(spec, idx))

    def test_matrix_shape_kept(self, tm):
        idx = np.arange(12).reshape(3, 4)
        assert np.array_equal(a_values(tm, idx), per_digit_values(tm, idx))


def digit_count(n, k):
    return len(np.base_repr(n, k)) if n else 0


@st.composite
def call_sequences(draw):
    """A spec of ``digit_route_cases``, periodic or finite-window, and one
    to six index arrays, each with a drawn digit count of its largest index."""
    spec, _ = draw(digit_route_cases(window=draw(st.booleans())))
    most = digit_count(2**63 - 1, spec.k)
    calls = []
    for _ in range(draw(st.integers(1, 6))):
        digits = draw(st.one_of(st.integers(0, min(most, (spec.window or 0) + 2)),
                                st.integers(0, most)))
        top = min(spec.k**digits - 1, 2**63 - 1)
        seed = draw(st.integers(0, 2**32 - 1))
        idx = np.random.default_rng(seed).integers(0, top, size=draw(st.integers(1, 40)),
                                                   endpoint=True)
        idx[-1] = top
        calls.append(idx)
    return spec, calls


def values_or_error(spec, idx):
    try:
        return a_values(spec, idx).tolist()
    except WindowExceededError:
        return WindowExceededError


class TestCachedTables:
    """``a_values`` keeps its chunk tables on the spec and extends them."""

    @settings(max_examples=100, deadline=None)
    @given(call_sequences())
    def test_call_sequence_matches_fresh_spec(self, case):
        spec, calls = case
        for idx in calls:
            got = values_or_error(spec, idx)
            assert got == values_or_error(replace(spec), idx)
            past = spec.is_finite_window and digit_count(int(idx[-1]), spec.k) > spec.window
            assert (got is WindowExceededError) == past
            if not past:
                assert got == [a_of_n(spec, int(n)) for n in idx]

    @pytest.mark.parametrize("past_first", [True, False], ids=["past-first", "inside-first"])
    def test_window_either_order(self, past_first):
        spec = KappaSpec(L=5, k=3, preperiod=0, period=None,
                         table=((1, 2, 3, 4), (4, 0, 2, 1)), window=4)
        inside, past, small = np.arange(3**4), np.array([5, 3**4]), np.array([7, 2])
        for idx in [past, inside, small] if past_first else [inside, past, small, past]:
            if idx is past:
                with pytest.raises(WindowExceededError, match="y=4 but window bound is 4"):
                    a_values(spec, idx)
            else:
                assert a_values(spec, idx).tolist() == [a_of_n(spec, int(n)) for n in idx]

    def test_tables_reused_and_read_only(self, tm):
        a_values(tm, [2**40])
        tables = _chunk_tables(tm, 41)
        assert [t.size for t in tables] == [4096, 4096, 4096, 2**5]
        # A call reads only the blocks its digit count needs.
        small = _chunk_tables(tm, 3)
        assert len(small) == 1 and small[0] is tables[0]
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1
        assert a_values(tm, [2**40 - 1, 7]).tolist() == [0, 1]

    def test_threads_share_one_spec(self, rng):
        # Eight threads extend and read one fresh spec's tables at once, each
        # with ascending digit counts, with a thread switch every
        # microsecond; a half-extended table list would give wrong values.
        spec = random_spec(rng, L_max=7, k_max=3)
        draw = np.random.default_rng(11)
        tops = [min(spec.k**d - 1, 2**63 - 1) for d in range(digit_count(2**63 - 1, spec.k) + 1)]
        calls = [np.append(draw.integers(0, top, size=15, endpoint=True), top) for top in tops]
        want = [values_or_error(spec, idx) for idx in calls]

        def work(shared, offset, got):
            for i in range(offset, len(calls)):
                got[i] = values_or_error(shared, calls[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                shared, results = replace(spec), [[None] * len(calls) for _ in range(8)]
                threads = [threading.Thread(target=work, args=(shared, t, results[t]))
                           for t in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                for t, got in enumerate(results):
                    assert got[t:] == want[t:]
        finally:
            sys.setswitchinterval(interval)


class TestEquallySpaced:
    def test_thue_morse_window(self, tm):
        assert equally_spaced(tm, 0, 1, 8).values == (0, 1, 1, 0, 1, 0, 0, 1)

    def test_empty_window(self, tm):
        assert equally_spaced(tm, 5, 3, 0).values == ()

    def test_odd_stride(self, tm):
        # a(1), a(3), a(5), a(7), a(9)
        assert equally_spaced(tm, 1, 2, 5).values == (1, 0, 0, 1, 0)

    def test_matches_a_of_n(self, rng):
        spec = random_spec(rng)
        win = equally_spaced(spec, 7, 3, 50)
        assert win.values == tuple(a_of_n(spec, 7 + 3 * n) for n in range(50))


class TestFiniteWindow:
    def window_spec(self):
        return KappaSpec(L=2, k=2, preperiod=0, period=None,
                         table=((1, 0, 1, 1),), window=4)

    def test_within_window(self):
        spec = self.window_spec()
        assert a_of_n(spec, 2**3) == 1
        assert [a_of_n(spec, n) for n in range(16)] == [
            a_of_n(spec, n) for n in range(16)
        ]

    def test_beyond_window_is_hard_error(self):
        spec = self.window_spec()
        with pytest.raises(WindowExceededError):
            a_of_n(spec, 2**4)
        with pytest.raises(WindowExceededError):
            a_values(spec, np.arange(20))
        with pytest.raises(WindowExceededError):
            spec.kappa(1, 4)

    def test_morphic_window_bound(self):
        spec = self.window_spec()
        assert len(generate_prefix_morphic(spec, 4)) == 16
        with pytest.raises(WindowExceededError):
            generate_prefix_morphic(spec, 5)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KappaSpec(L=2, k=2, preperiod=0, period=None, table=((1,),))
        with pytest.raises(ValueError):
            KappaSpec(L=2, k=2, preperiod=0, period=1, table=((2,),))
        with pytest.raises(ValueError):
            KappaSpec(L=1, k=2, preperiod=0, period=1, table=((0,),))

    @pytest.mark.parametrize("preperiod", [5, 1, -4])
    def test_window_takes_preperiod_zero(self, preperiod):
        # spec_to_text writes no preperiod for a window, so none may be kept
        with pytest.raises(ValueError, match="finite-window spec takes preperiod 0"):
            KappaSpec(L=2, k=2, preperiod=preperiod, period=None,
                      table=((1, 1, 1),), window=3)


def test_budget_enforced(tm, monkeypatch):
    monkeypatch.setenv("GTMSEQ_BUDGET", "100")
    with pytest.raises(BudgetExceededError):
        generate_prefix_morphic(tm, 10)


class TestNormalForm:
    """The minimal (preperiod, period) of the column stream: ``normal_form``."""

    def test_thue_morse(self, tm):
        assert tm.normal_form == (0, 1)

    def test_reduces_declared_period(self):
        spec = KappaSpec(L=2, k=2, preperiod=0, period=4, table=((0, 1, 0, 1),))
        assert spec.normal_form == (0, 2)

    def test_finite_window_absent(self):
        spec = KappaSpec(L=2, k=2, preperiod=0, period=None, table=((1,),), window=1)
        assert spec.normal_form is None

    def test_nontrivial_preperiod(self):
        spec = KappaSpec(L=3, k=2, preperiod=2, period=2, table=((2, 0, 1, 1),))
        assert spec.normal_form == (2, 1)

    def test_reduces_declared_preperiod(self):
        spec = KappaSpec(L=2, k=2, preperiod=2, period=1, table=((1, 1, 1),))
        assert spec.normal_form == (0, 1)

    def test_reduces_preperiod_into_rotated_period(self):
        # 1, 0, 1, 0, ...: the declared preperiod column starts the cycle
        spec = KappaSpec(L=2, k=2, preperiod=1, period=2, table=((1, 0, 1),))
        assert spec.normal_form == (0, 2)

    def test_reduces_both_partially(self):
        # 2, 0, 1, 0, 1, ...: one column of preperiod is genuine
        spec = KappaSpec(L=3, k=2, preperiod=3, period=4, table=((2, 0, 1, 0, 1, 0, 1),))
        assert spec.normal_form == (1, 2)

    def test_multirow_columns_compared_whole(self):
        # row 1 alone would reduce to (0, 1); row 2 keeps the preperiod
        spec = KappaSpec(L=2, k=3, preperiod=1, period=1, table=((1, 1), (0, 1)))
        assert spec.normal_form == (1, 1)


@pytest.mark.parametrize("call", [
    lambda tm: kernel_brute_force(tm, 10**5, 1),
    lambda tm: generate_prefix_morphic(tm, 20000),
    # classify: shift 19,999, so one period is 2**20000 terms
    lambda tm: periodic_series_value(KappaSpec(
        L=2, k=2, preperiod=20000, period=1, table=((1,) * 20000 + (0,),)), 0, 1, 2),
], ids=["kernel_brute_force", "generate_prefix_morphic", "periodic_series_value"])
def test_budget_refuses_counts_past_str_digit_cap(tm, call):
    # these counts have over 4,300 decimal digits, which str() refuses by default
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(BudgetExceededError, match=r"^2\*\*\d+ or more values exceed budget"):
            call(tm)
    finally:
        sys.set_int_max_str_digits(cap)


@pytest.mark.parametrize("call, message", [
    (lambda tm: KappaSpec(L=2, k=1, preperiod=0, period=1, table=()),
     "k must be >= 2, got 1"),
    (lambda tm: KappaSpec(L=2, k=2, preperiod=0, period=1, table=((1,),), window=1),
     "give either period or window, not both"),
    (lambda tm: KappaSpec(L=2, k=2, preperiod=0, period=0, table=((),)),
     "need preperiod >= 0 and period >= 1"),
    (lambda tm: KappaSpec(L=2, k=2, preperiod=1, period=1, table=((1,),)),
     "each table row must have 2 columns"),
    (lambda tm: tm.column(-1), "y must be >= 0, got -1"),
    (lambda tm: tm.kappa(2, 0), "s must lie in [1, 1], got 2"),
    (lambda tm: a_of_n(tm, -1), "n must be >= 0, got -1"),
    (lambda tm: generate_prefix_morphic(tm, -1), "m must be >= 0, got -1"),
], ids=["k", "period-and-window", "period", "row-width", "column-y", "kappa-s",
        "a_of_n-n", "generate_prefix_morphic-m"])
def test_argument_checks(tm, call, message):
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        call(tm)
    assert info.type is ValueError


def test_eventual_period_lookup():
    spec = alternating_spec()
    for y in range(20):
        assert spec.kappa(1, y) == y % 2
    spec2 = KappaSpec(L=3, k=2, preperiod=2, period=3, table=((0, 1, 2, 0, 1),))
    for y in range(2, 30):
        assert spec2.kappa(1, y) == spec2.kappa(1, 2 + (y - 2) % 3)


class TestModulusBound:
    # The digit route adds up to 63 letters below L in int64.
    def test_rejects_L_above_2_57(self):
        L = 2**57 + 1
        with pytest.raises(ValueError, match="2\\*\\*57"):
            KappaSpec(L=L, k=2, preperiod=0, period=1, table=((L - 1,),))

    def test_digit_route_exact_at_bound(self):
        L = 2**57
        spec = KappaSpec(L=L, k=2, preperiod=0, period=1, table=((L - 1,),))
        n = 2**63 - 1
        assert int(a_values(spec, [n])[0]) == a_of_n(spec, n) == (63 * (L - 1)) % L
        assert generate_prefix_morphic(spec, 3).tolist() == [a_of_n(spec, i) for i in range(8)]

    @pytest.mark.parametrize("m, values", [
        # a_values: slab sums of up to 63 letters below L = 2**57
        (2**57, [0, 1, 2**57 - 1, 2**57, 63 * (2**57 - 1) - 1, 63 * (2**57 - 1)]),
        # the window hash: differences down to -(2**62 + 2**47) mod P
        (2**31 - 1, [-(2**62 + 2**47), -(2**62 + 2**47) + 1, -(2**31 - 1), -1, 0,
                     2**31 - 2, 2**31 - 1, 2**62 - 1]),
        (1, [-(2**62), -1, 0, 1, 2**62]),
    ])
    def test_reduce_mod_matches_remainder_at_edges(self, m, values):
        x = np.array(values, dtype=np.int64)
        want = np.remainder(x, m)
        got = _reduce_mod(x, m)
        assert got is x and got.dtype == np.int64
        assert got.tolist() == want.tolist() == [v % m for v in values]
