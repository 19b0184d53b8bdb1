import time
from dataclasses import replace
from fractions import Fraction
from math import ceil, floor, log

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gtmseq import (
    KappaSpec,
    MTooSmallError,
    PeriodicSpecError,
    a_of_n,
    build_witness,
    classify,
    equally_spaced,
    min_legal_m,
    verify_witness,
)
from gtmseq.kappa import _numeral_length
from conftest import alternating_spec, constant_spec, random_spec, tail_rounding_spec


class TestMinLegalM:
    def test_values(self):
        assert min_legal_m(0, 1, 2) == 3   # 2**2 > 4
        assert min_legal_m(1, 2, 2) == 4   # 2**3 > 6
        assert min_legal_m(0, 1, 3) == 2   # 3**1 > 4

    @pytest.mark.parametrize("N, l, k, message", [
        (0, 1, 1, "base k must be >= 2, got 1"),
        (0, -3, 2, "n must be >= 0, got -6"),
        (-5, 1, 3, "n must be >= 0, got -8"),
    ], ids=["k-1", "l-negative", "N-negative"])
    def test_bad_base_or_negative_n_raises_at_once(self, N, l, k, message):
        # a base of 1, or a negative n under floor division, would never
        # end a digit-counting loop
        with pytest.raises(ValueError, match=f"^{message}$"):
            min_legal_m(N, l, k)

    def test_huge_n_within_half_a_second(self):
        # A division by k per digit takes about 7 s of CPU on this N.
        N = 2**300_000
        started = time.process_time()
        m = min_legal_m(N, 1, 3)
        assert time.process_time() - started < 0.5
        # Oracle: the least M with 3**M > 2(N+1), from a float estimate of log_3
        n = 2 * (N + 1)
        M = int((n.bit_length() - 1) * log(2) / log(3))
        while 3**M <= n:
            M += 1
        while 3 ** (M - 1) > n:
            M -= 1
        assert m == M + 1 == _numeral_length(n, 3) + 1


class TestBuildWitness:
    def test_thue_morse_basic(self, tm):
        witness = build_witness(tm, 0, 1, 4)
        window = equally_spaced(tm, 0, 1, 2**7)
        ok, diag = verify_witness(window, witness)
        assert ok, diag
        # direct prefix comparison against generated terms
        pattern = witness.prefix_word()
        assert pattern == window.values[: len(pattern)]

    def test_periodic_spec_refused(self):
        spec = constant_spec(2, 3, (1, 0))
        with pytest.raises(PeriodicSpecError):
            build_witness(spec, 0, 1, 6)

    def test_m_too_small(self, tm):
        with pytest.raises(MTooSmallError):
            build_witness(tm, 0, 1, min_legal_m(0, 1, 2) - 1)

    def test_bounds_smallest_legal(self, tm):
        N, l = 1, 2
        m = min_legal_m(N, l, tm.k)
        witness = build_witness(tm, N, l, m)
        bound = 2 * tm.L * l + 3
        assert bound == 11
        assert Fraction(len(witness.U), len(witness.V)) <= bound
        frac = witness.w - floor(witness.w)
        assert ceil(frac * len(witness.V)) < witness.w2_len

    def test_size_conditions_sampled(self, rng):
        built = 0
        while built < 8:
            spec = random_spec(rng, L_max=4, k_max=4, y0_max=2, p_max=3)
            if not classify(spec).is_non_periodic:
                continue
            N, l = rng.randint(0, 2), rng.randint(1, 3)
            m = min_legal_m(N, l, spec.k) + rng.randint(0, 1)
            witness = build_witness(spec, N, l, m)
            built += 1
            block = spec.k**witness.m
            outer = Fraction((spec.L * l + 1) * block - N, l) + 1
            assert len(witness.U) <= outer
            assert witness.w2_len >= Fraction(block - N, l) - 1
            assert len(witness.V) <= outer
            assert (witness.w - 1) * len(witness.V) <= Fraction(block, 2 * l)
            need = len(witness.prefix_word())
            window = equally_spaced(spec, N, l, need + 5)
            ok, diag = verify_witness(window, witness)
            assert ok, diag

    def test_large_modulus(self):
        # L + 1 = 10**6 + 1 block shifts a(16 t) = popcount(t); t = 1, 2 collide
        spec = constant_spec(10**6, 2, (1,))
        witness = build_witness(spec, 0, 1, 4)
        assert (witness.t, witness.t_prime) == (1, 2)
        window = equally_spaced(spec, 0, 1, len(witness.prefix_word()))
        ok, diag = verify_witness(window, witness)
        assert ok, diag

    def test_shift_consistency(self, tm, rng):
        # a(n + k**m * t * l) == a(n) + a(k**m * t * l) for n < k**m
        m, l = 5, 3
        block = tm.k**m
        for t in range(tm.L + 1):
            shift = a_of_n(tm, block * t * l)
            for _ in range(25):
                n = rng.randrange(block)
                assert a_of_n(tm, n + block * t * l) == (a_of_n(tm, n) + shift) % tm.L


@st.composite
def non_periodic_specs(draw):
    """Small random specs that ``classify`` calls NonPeriodic."""
    L, k = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    y0, p = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    row = st.lists(st.integers(0, L - 1), min_size=y0 + p, max_size=y0 + p)
    spec = KappaSpec(L=L, k=k, preperiod=y0, period=p,
                     table=tuple(tuple(draw(row)) for _ in range(k - 1)))
    assume(classify(spec).is_non_periodic)
    return spec


class TestWitnessProperty:
    @settings(max_examples=100, deadline=None)
    @given(non_periodic_specs(), st.integers(0, 8), st.integers(1, 8), st.integers(0, 2))
    @example(tail_rounding_spec(), 0, 7, 0)
    def test_verifies_against_digit_route(self, spec, N, l, extra):
        witness = build_witness(spec, N, l, min_legal_m(N, l, spec.k) + extra)
        window = equally_spaced(spec, N, l, len(witness.prefix_word()))
        ok, diag = verify_witness(window, witness)
        assert ok, diag


def pigeonhole_oracle(spec, l, m):
    """Literal double loop: the colliding (t, t') with least t' - t, then t."""
    block = spec.k**m
    shifts = [a_of_n(spec, t * l * block) for t in range(spec.L + 1)]
    best = None
    for t in range(spec.L + 1):
        for tp in range(t + 1, spec.L + 1):
            if shifts[t] == shifts[tp] and (
                best is None or (tp - t, t) < (best[1] - best[0], best[0])
            ):
                best = (t, tp)
    return best


class TestPigeonhole:
    def test_matches_double_loop(self, rng):
        from gtmseq import classify

        built = 0
        while built < 40:
            spec = random_spec(rng, L_max=16, k_max=4, y0_max=2, p_max=3)
            if not classify(spec).is_non_periodic:
                continue
            N, l = rng.randint(0, 3), rng.randint(1, 4)
            m = min_legal_m(N, l, spec.k) + rng.randint(0, 1)
            witness = build_witness(spec, N, l, m)
            assert (witness.t, witness.t_prime) == pigeonhole_oracle(spec, l, m)
            built += 1


class TestVerifyWitness:
    def test_negative_control(self, tm):
        witness = build_witness(tm, 0, 1, 4)
        window = equally_spaced(tm, 0, 1, 2**7)
        complement = tuple((v + 1) % tm.L for v in witness.V)
        tampered = witness.__class__(**{**witness.__dict__, "V": complement})
        ok, diag = verify_witness(window, tampered)
        assert not ok
        i = diag["mismatch_index"]
        assert i == len(witness.U)  # the first letter of the complemented V
        assert diag["expected"] == tampered.prefix_word()[i] == complement[0]
        assert diag["actual"] == window.values[i] == witness.V[0]

    def test_w_must_exceed_one(self, tm):
        witness = build_witness(tm, 0, 1, 4)
        window = equally_spaced(tm, 0, 1, 2**7)
        degenerate = witness.__class__(**{**witness.__dict__, "w": Fraction(1)})
        ok, diag = verify_witness(window, degenerate)
        assert not ok
        assert "w" in diag["reason"]

    def test_window_too_short(self, tm):
        witness = build_witness(tm, 0, 1, 4)
        window = equally_spaced(tm, 0, 1, 5)
        with pytest.raises(ValueError):
            verify_witness(window, witness)

    def test_window_mismatch(self, tm):
        witness = build_witness(tm, 0, 1, 4)
        window = equally_spaced(tm, 1, 1, 2**7)
        ok, diag = verify_witness(window, witness)
        assert not ok


@pytest.mark.parametrize("N, l", [(-1, 1), (0, 0)], ids=["N", "l"])
def test_build_witness_argument_check(tm, N, l):
    with pytest.raises(ValueError, match="need N >= 0 and l >= 1") as info:
        build_witness(tm, N, l, 4)
    assert info.type is ValueError


@pytest.mark.parametrize("malform, reason", [
    (lambda w: replace(w, V=()), "V must be nonempty"),
    (lambda w: replace(w, U=(0,) * (w.ratio_bound * len(w.V) + 1)),
     "|U|/|V| exceeds recorded bound"),
], ids=["empty-V", "ratio"])
def test_malformed_witness_rejected(tm, malform, reason):
    window = equally_spaced(tm, 0, 1, 2**7)
    assert verify_witness(window, malform(build_witness(tm, 0, 1, 4))) == (
        False, {"reason": reason})


class TestWitnessFamily:
    """|V_m| -> infinity along build_witness(spec, N, l, m), as [ABL] needs."""

    def test_thue_morse_growing_blocks(self, tm):
        family = [build_witness(tm, 0, 1, m) for m in range(4, 10)]
        lengths = [len(w.V) for w in family]
        assert lengths == sorted(set(lengths))
        for witness in family:
            window = equally_spaced(tm, 0, 1, len(witness.prefix_word()) + 1)
            ok, _ = verify_witness(window, witness)
            assert ok

    def test_constant_base_two_family(self):
        spec = constant_spec(3, 2, (1,))
        m0 = min_legal_m(0, 1, spec.k)
        family = [build_witness(spec, 0, 1, m) for m in range(m0, m0 + 4)]
        assert all(
            len(b.V) > len(a.V) for a, b in zip(family, family[1:])
        )

    def test_alternating_family_stable_parity(self):
        # The colliding block pair of this spec depends on the parity of m,
        # so a strictly growing family is taken along a fixed parity.
        spec = alternating_spec()
        m0 = min_legal_m(0, 1, spec.k)
        family = [build_witness(spec, 0, 1, m) for m in range(m0, m0 + 7, 2)]
        assert all(
            len(b.V) > len(a.V) for a, b in zip(family, family[1:])
        )

    def test_alternating_consecutive_m_need_not_grow(self):
        spec = alternating_spec()
        lengths = [len(build_witness(spec, 0, 1, m).V) for m in range(3, 10)]
        assert lengths == [16, 16, 64, 64, 256, 256, 1024]

    @settings(max_examples=50, deadline=None)
    @given(non_periodic_specs(), st.integers(0, 8), st.integers(1, 8), st.integers(0, 2))
    def test_grows_within_j_steps(self, spec, N, l, extra):
        # |V_m| = (t' - t) k**m with 1 <= t' - t <= L, so k**j > L makes
        # |V_(m+j)| >= k**(m+j) > L k**m >= |V_m|.
        j = next(j for j in range(1, spec.L + 1) if spec.k**j > spec.L)
        m = min_legal_m(N, l, spec.k) + extra
        assert len(build_witness(spec, N, l, m + j).V) > len(build_witness(spec, N, l, m).V)
