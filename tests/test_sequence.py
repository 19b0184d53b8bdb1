import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtmseq import (
    KappaSpec,
    WindowExceededError,
    a_of_n,
    a_values,
    equally_spaced,
    expand,
    generate_prefix_morphic,
)
from conftest import alternating_spec, constant_spec, random_spec, zero_spec


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


class TestMorphic:
    def test_thue_morse_words(self, tm):
        assert generate_prefix_morphic(tm, 2) == [0, 1, 1, 0]
        assert generate_prefix_morphic(tm, 3) == [0, 1, 1, 0, 1, 0, 0, 1]

    def test_zero_map_word(self):
        spec = zero_spec(2, 3)
        assert generate_prefix_morphic(spec, 4) == [0] * 3**4

    def test_agrees_with_digit_counting(self, rng):
        for _ in range(12):
            spec = random_spec(rng, k_max=4)
            m = 6 if spec.k == 2 else 4
            word = generate_prefix_morphic(spec, m)
            assert word == [a_of_n(spec, n) for n in range(spec.k**m)]

    def test_letters_are_python_ints(self, rng):
        for _ in range(4):
            word = generate_prefix_morphic(random_spec(rng), 3)
            assert {type(c) for c in word} == {int}

    def test_prefix_stability(self, rng):
        for _ in range(8):
            spec = random_spec(rng, k_max=3)
            prev = generate_prefix_morphic(spec, 0)
            for m in range(1, 7):
                cur = generate_prefix_morphic(spec, m)
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

    The array size sits at, just below or just above a step of the chunk
    width (size // 32 == k**c for some k**c <= 4096), or is small; the
    largest index is anywhere up to 2**63 - 1, and is sometimes present.
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
        idx = np.random.default_rng(7).integers(0, 2**63 - 1, size=2**20 + 3, endpoint=True)
        assert np.array_equal(a_values(spec, idx), per_digit_values(spec, idx))

    def test_matrix_shape_kept(self, tm):
        idx = np.arange(12).reshape(3, 4)
        assert np.array_equal(a_values(tm, idx), per_digit_values(tm, idx))


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


def test_budget_enforced(tm, monkeypatch):
    monkeypatch.setenv("GTMSEQ_BUDGET", "100")
    from gtmseq.errors import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        generate_prefix_morphic(tm, 10)


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
        assert generate_prefix_morphic(spec, 3) == [a_of_n(spec, i) for i in range(8)]
