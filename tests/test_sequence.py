import re
import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

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
from gtmseq.kappa import _reduce_mod
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

    def test_value_at_sparse_terms(self, rng):
        # a(sum s_i * k**w_i) = sum kappa(s_i, w_i) mod L over distinct w_i,
        # the closed form over disjoint digits, at positions up to 100,000
        started = time.process_time()
        for _ in range(10):
            spec = random_spec(rng)
            terms = [(rng.randrange(1, spec.k), w)
                     for w in rng.sample(range(100_001), rng.randint(1, 6))]
            n = sum(s * spec.k**w for s, w in terms)
            assert a_of_n(spec, n) == sum(spec.kappa(s, w) for s, w in terms) % spec.L
        assert time.process_time() - started < 2.0

    def test_huge_n_within_a_second(self, tm):
        # 150,000 one digits, an even count; a divmod per digit takes about 3 s of CPU
        started = time.process_time()
        assert a_of_n(tm, 2**150_000 - 1) == 0
        assert time.process_time() - started < 1.0

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
        if spec.is_finite_window and m > spec.window:
            with pytest.raises(WindowExceededError):
                generate_prefix_morphic(spec, m)
            with pytest.raises(WindowExceededError):
                a_values(spec, 0, 1, spec.k**m)
            return
        word = generate_prefix_morphic(spec, m)
        assert word.dtype == np.int64
        assert word.tolist() == a_values(spec, 0, 1, spec.k**m).tolist()

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
            N, l = rng.randrange(10**7), rng.randrange(1, 10**5)
            vec = a_values(spec, N, l, 100)
            assert list(vec) == [a_of_n(spec, N + n * l) for n in range(100)]

    def test_empty(self, tm):
        assert a_values(tm, 5, 3, 0).shape == (0,)
        assert a_values(tm, np.zeros(0, dtype=np.int64), np.ones(0, dtype=np.int64), 4).shape \
            == (0, 4)

    def test_rejects_negative(self, tm):
        one, two = np.array([3]), np.array([3, 1])
        for window in [(-1, 1, 3), (0, 0, 3), (0, 1, -1), (np.array([3, -1]), two, 2),
                       (two, np.array([1, 0]), 2), (one, one, -1)]:
            with pytest.raises(ValueError, match="need start >= 0, stride >= 1, count >= 0"):
                a_values(tm, *window)

    def test_array_window_past_int64_refused(self, tm):
        # row 0 ends at 2**62 + 2 * 2**61 = 2**63; int windows of any size answer
        with pytest.raises(ValueError, match=f"index {2**63} reaches 2\\*\\*63"):
            a_values(tm, np.array([2**62, 0]), np.array([2**61, 1]), 3)
        assert a_values(tm, 2**62, 2**61, 3).tolist() == [1, 0, 1]


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


def window_indices(start, stride, count):
    """The int64 indices start + n * stride, n < count, of a window below 2**63."""
    return start + stride * np.arange(count, dtype=np.int64)


@st.composite
def windows_ending_at(draw, top, count):
    """(start, stride, count) of a window whose indices lie in [0, top],
    with the last at top half the time."""
    stride = draw(st.integers(1, max(top // max(count - 1, 1), 1)))
    last = stride * max(count - 1, 0)
    start = max(top - last, 0) if draw(st.booleans()) else draw(st.integers(0, max(top - last, 0)))
    return start, stride, count


@st.composite
def digit_route_cases(draw, window=False):
    """A spec with k in [2, 7] and L up to 2**57, and a window.

    The count is small, or within one of 32 * k**c, a multiple of a
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
    count = draw(st.one_of(
        st.integers(0, 80),
        st.sampled_from(steps).flatmap(lambda n: st.integers(n - 1, n + 1)),
    ))
    top = draw(st.one_of(st.integers(0, 2**16), st.integers(0, 2**63 - 1)))
    return spec, draw(windows_ending_at(top, count))


class TestChunkTables:
    @settings(max_examples=100, deadline=None)
    @given(digit_route_cases())
    def test_matches_per_digit_loop_and_a_of_n(self, case):
        spec, (start, stride, count) = case
        idx = window_indices(start, stride, count)
        got = a_values(spec, start, stride, count)
        assert got.dtype == np.int64 and got.shape == idx.shape
        assert np.array_equal(got, per_digit_values(spec, idx))
        for i in range(0, idx.size, max(idx.size // 40, 1)):
            assert int(got[i]) == a_of_n(spec, int(idx[i]))

    @settings(max_examples=100, deadline=None)
    @given(digit_route_cases(window=True))
    def test_finite_window_raises_where_per_digit_loop_does(self, case):
        spec, window = case
        try:
            want = per_digit_values(spec, window_indices(*window))
        except WindowExceededError:
            with pytest.raises(WindowExceededError):
                a_values(spec, *window)
        else:
            assert np.array_equal(a_values(spec, *window), want)

    def test_slab_boundary(self, rng):
        spec = random_spec(rng, L_max=7, k_max=7)
        for count in (2**14 + 3, 2**20 + 3):
            stride = (2**63 - 1) // count
            idx = window_indices(5, stride, count)
            assert np.array_equal(a_values(spec, 5, stride, count), per_digit_values(spec, idx))
        # Array windows take slabs of 2**14 // rows columns.
        starts, strides = np.array([0, 7, 2**40]), np.array([1, 2**30, 3])
        idx = starts[:, None] + strides[:, None] * np.arange(2**14 + 5)
        assert np.array_equal(a_values(spec, starts, strides, 2**14 + 5),
                              per_digit_values(spec, idx))

    def test_matrix_shape_kept(self, tm):
        got = a_values(tm, np.array([0, 4, 8]), np.ones(3, dtype=np.int64), 4)
        assert np.array_equal(got, per_digit_values(tm, np.arange(12).reshape(3, 4)))


def digit_count(n, k):
    return len(np.base_repr(n, k)) if n else 0


@st.composite
def call_sequences(draw):
    """A spec of ``digit_route_cases``, periodic or finite-window, and one
    to six windows, each ending at an index of a drawn digit count."""
    spec, _ = draw(digit_route_cases(window=draw(st.booleans())))
    most = digit_count(2**63 - 1, spec.k)
    calls = []
    for _ in range(draw(st.integers(1, 6))):
        digits = draw(st.one_of(st.integers(0, min(most, (spec.window or 0) + 2)),
                                st.integers(0, most)))
        top = min(spec.k**digits - 1, 2**63 - 1)
        count = draw(st.integers(1, 40))
        stride = draw(st.integers(1, max(top // max(count - 1, 1), 1)))
        calls.append((max(top - stride * (count - 1), 0), stride, count))
    return spec, calls


def values_or_error(spec, window):
    try:
        return a_values(spec, *window).tolist()
    except WindowExceededError:
        return WindowExceededError


class TestCachedTables:
    """``a_values`` keeps its chunk tables on the spec, one per canonical column."""

    @settings(max_examples=100, deadline=None)
    @given(call_sequences())
    def test_call_sequence_matches_fresh_spec(self, case):
        spec, calls = case
        for window in calls:
            idx = window_indices(*window)
            got = values_or_error(spec, window)
            assert got == values_or_error(replace(spec), window)
            past = spec.is_finite_window and digit_count(int(idx[-1]), spec.k) > spec.window
            assert (got is WindowExceededError) == past
            if not past:
                assert got == [a_of_n(spec, int(n)) for n in idx]

    @pytest.mark.parametrize("past_first", [True, False], ids=["past-first", "inside-first"])
    def test_window_either_order(self, past_first):
        spec = KappaSpec(L=5, k=3, preperiod=0, period=None,
                         table=((1, 2, 3, 4), (4, 0, 2, 1)), window=4)
        inside, past, small = (0, 1, 3**4), (5, 3**4 - 5, 2), (2, 5, 2)
        for window in [past, inside, small] if past_first else [inside, past, small, past]:
            if window is past:
                with pytest.raises(WindowExceededError, match="y=4 but window bound is 4"):
                    a_values(spec, *window)
            else:
                assert a_values(spec, *window).tolist() == \
                    [a_of_n(spec, int(n)) for n in window_indices(*window)]

    def test_tables_reused_and_read_only(self, tm):
        # Thue-Morse has one column stream, so one table serves every limb.
        a_values(tm, 2**40, 1, 1)
        tables = tm.__dict__["_chunk_tables"]
        assert list(tables) == [0] and tables[0].size == 4096
        first = tables[0]
        for table in tables.values():
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1
        assert a_values(tm, np.array([2**40 - 1, 7]), np.ones(2, dtype=np.int64), 1).tolist() \
            == [[0], [1]]
        assert a_values(tm, 10**4000, 10**3999, 3).tolist() == \
            [a_of_n(tm, 10**4000 + n * 10**3999) for n in range(3)]
        assert list(tables) == [0] and tables[0] is first

    def test_chunk_width_is_largest_with_k_power_in_4096(self):
        for k in range(2, 5001):
            width = 1
            while k ** (width + 1) <= 4096:
                width += 1
            assert KappaSpec._chunk.func(SimpleNamespace(k=k)) == (width, k**width), k

    def test_threads_share_one_spec(self, rng):
        # Eight threads build and read one fresh spec's tables at once, each
        # with ascending digit counts, with a thread switch every
        # microsecond; a half-built table would give wrong values.
        spec = random_spec(rng, L_max=7, k_max=3)
        tops = [min(spec.k**d - 1, 2**63 - 1) for d in range(digit_count(2**63 - 1, spec.k) + 1)]
        calls = [(top // 2, max(top // 2 // 15, 1), 16) for top in tops]
        want = [values_or_error(spec, window) for window in calls]

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


# Index sizes for windows past int64: near 2**64, up to 10**1000, and at
# the command line's cap of 4,300 decimal digits.
BIG_INDICES = st.one_of(st.integers(0, 2**70), st.integers(0, 10**1000),
                        st.integers(10**4299, 10**4300 - 1))


@st.composite
def distinct_column_specs(draw, k_max=7):
    """A periodic spec, L up to 2**57, whose y0 + p columns are pairwise
    distinct, so a table built from the wrong columns or in the wrong
    digit order gives wrong values."""
    k = draw(st.integers(2, k_max))
    L = draw(st.one_of(st.integers(2, 12), st.integers(2, 2**57)))
    y0, p = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    cols = draw(st.lists(st.tuples(*[st.integers(0, L - 1)] * (k - 1)),
                         min_size=y0 + p, max_size=y0 + p, unique=True))
    return KappaSpec(L=L, k=k, preperiod=y0, period=p, table=tuple(zip(*cols)))


class TestBigWindows:
    """Windows of any size against ``a_of_n``, one index at a time."""

    @settings(max_examples=40, deadline=None)
    @given(distinct_column_specs(), BIG_INDICES, BIG_INDICES, st.integers(0, 4))
    def test_matches_a_of_n(self, spec, start, stride, count):
        stride += 1
        got = a_values(spec, start, stride, count)
        assert got.dtype == np.int64 and got.shape == (count,)
        assert got.tolist() == [a_of_n(spec, start + n * stride) for n in range(count)]
        # The tables are kept by canonical column: at most y0 + p of them.
        assert len(spec.__dict__["_chunk_tables"]) <= sum(spec.normal_form)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_finite_window_raises_where_a_of_n_does(self, data):
        # The largest index has about as many digits as the window, which
        # may pass 2**63.
        k, window = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 70))
        L = data.draw(st.integers(2, 2**57))
        table = tuple(tuple(data.draw(st.lists(st.integers(0, L - 1), min_size=window,
                                               max_size=window)))
                      for _ in range(k - 1))
        spec = KappaSpec(L=L, k=k, preperiod=0, period=None, table=table, window=window)
        digits = data.draw(st.integers(max(window - 2, 0), window + 2))
        count = data.draw(st.integers(1, 12))
        start, stride, count = data.draw(windows_ending_at(k**digits - 1, count))
        try:
            want = [a_of_n(spec, start + n * stride) for n in range(count)]
        except WindowExceededError:
            with pytest.raises(WindowExceededError):
                a_values(spec, start, stride, count)
        else:
            assert a_values(spec, start, stride, count).tolist() == want

    @settings(max_examples=40, deadline=None)
    @given(distinct_column_specs(), st.lists(st.tuples(st.integers(0, 2**40),
                                                       st.integers(1, 2**20)), max_size=6),
           st.integers(0, 30))
    def test_rows_match_one_call_per_window(self, spec, windows, count):
        starts, strides = [w[0] for w in windows], [w[1] for w in windows]
        got = a_values(spec, np.array(starts, dtype=np.int64), strides, count)
        assert got.shape == (len(windows), count)
        for row, (start, stride) in zip(got.tolist(), windows):
            assert row == a_values(spec, start, stride, count).tolist()

    @pytest.mark.parametrize("L", [2**57, 2**57 - 1], ids=["L2**57", "L2**57-1"])
    @pytest.mark.parametrize("k", [2, 100], ids=["k2-c12", "k100-c1"])
    def test_no_wraparound_past_63_limbs(self, k, L):
        # Every letter is L - 1: 200 digits of k - 1 sum to 200 * (L - 1),
        # past 2**63, and for k = 100 one limb is one digit, so the sum spans
        # four reductions of 63 limbs.  A sum wrapped mod 2**64 keeps its
        # residue mod 2**57, but not mod the odd 2**57 - 1.
        spec = KappaSpec(L=L, k=k, preperiod=0, period=1, table=((L - 1,),) * (k - 1))
        n = k**200 - 1
        got = a_values(spec, n, k**199, 2).tolist()
        assert got == [200 * (L - 1) % L, a_of_n(spec, n + k**199)]
        assert a_of_n(spec, n) == 200 * (L - 1) % L

    def test_tables_bounded_after_huge_read(self):
        # y0 + p = 5 distinct column streams; a read at about 10**4000
        # spans 1,108 limbs of 12 binary digits.
        spec = KappaSpec(L=7, k=2, preperiod=2, period=3, table=((1, 2, 3, 4, 5),))
        N = 10**4000 + 12345
        assert a_values(spec, N, 3, 4).tolist() == [a_of_n(spec, N + 3 * n) for n in range(4)]
        assert 0 < len(spec.__dict__["_chunk_tables"]) <= 5


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
            a_values(spec, 0, 1, 20)
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
        assert int(a_values(spec, n, 1, 1)[0]) == a_of_n(spec, n) == (63 * (L - 1)) % L
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
