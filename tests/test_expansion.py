import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gtmseq.expansion import expand, gap_multiple
from gtmseq.kappa import _digit_words, _numeral_length


def per_digit_terms(n, k):
    """Expansion terms by one divmod per base-k digit, lowest digit first."""
    terms = []
    w = 0
    while n:
        n, s = divmod(n, k)
        if s:
            terms.append((s, w))
        w += 1
    return tuple(terms)


def numeral_length(n, k):
    """Least m with k**m > n."""
    m = 0
    while k**m <= n:
        m += 1
    return m


class TestExpand:
    def test_zero_is_empty(self):
        assert expand(0, 2).terms == ()

    def test_four_base_three(self):
        assert expand(4, 3).terms == ((1, 0), (1, 1))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            expand(5, 1)
        with pytest.raises(ValueError):
            expand(-1, 2)

    @given(st.integers(0, 10**6), st.integers(2, 7))
    def test_roundtrip(self, n, k):
        exp = expand(n, k)
        assert exp.value() == n
        # strictly increasing exponents, coefficients in range
        ws = [w for _, w in exp.terms]
        assert ws == sorted(set(ws))
        assert all(1 <= s <= k - 1 for s, _ in exp.terms)

    @given(st.integers(0, 10**6), st.integers(2, 7))
    def test_expand_is_injective_on_values(self, n, k):
        exp = expand(n, k)
        rebuilt = expand(exp.value(), k)
        assert rebuilt == exp

    @given(st.integers(0, 2**4000), st.integers(2, 10**6))
    def test_matches_per_digit_loop(self, n, k):
        exp = expand(n, k)
        assert exp.terms == per_digit_terms(n, k)
        assert _numeral_length(n, k) == numeral_length(n, k)

    @pytest.mark.parametrize("k", [2, 3, 5, 10, 997, 4096, 4097, 10**6, 2**61 - 1, 2**64 + 13])
    def test_powers_of_k_and_neighbours(self, k):
        # Every split level boundary: k**e has e + 1 digits, k**e - 1 has e
        # (n = 0 has length 0); e reaches past 2**63 for every k.
        for e in range(70):
            for n in (k**e - 1, k**e, k**e + 1):
                exp = expand(n, k)
                assert exp.terms == per_digit_terms(n, k), (n, k)
                assert _numeral_length(n, k) == numeral_length(n, k), (n, k)

    def test_digit_words(self):
        # one 64-bit word per started 64 bits of the base
        for bits, words in [(1, 1), (64, 1), (65, 2), (4001, 63)]:
            assert _digit_words(2 ** (bits - 1)) == _digit_words(2**bits - 1) == words

    def test_nonzero_digit_total(self):
        for n in (0, 1, 17, 255, 3**9 + 5):
            for k in (2, 3, 5):
                numeral = np.base_repr(n, k)
                assert len(expand(n, k).terms) == len(numeral) - numeral.count("0")


def trial_division_gap_x(l, k, t):
    """The gap-multiple x as first built: factor k by trial division, strip
    its primes p (multiplicity e_p) from l, leaving G and the exponents
    x_p, and shift by k**f / prod p**x_p with f = max ceil(x_p / e_p)."""
    k_primes = {}
    n, d = k, 2
    while d * d <= n:
        while n % d == 0:
            k_primes[d] = k_primes.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        k_primes[n] = k_primes.get(n, 0) + 1
    G, mults = l, {}
    for p in k_primes:
        while G % p == 0:
            mults[p] = mults.get(p, 0) + 1
            G //= p
    f = max((-(-x // k_primes[p]) for p, x in mults.items()), default=0)
    shifted = k**f
    for p, x in mults.items():
        shifted //= p**x
    modulus = k ** (t + 1)
    D = pow(G, -1, modulus)
    if D * G == 1:
        return (1 + modulus) * shifted
    return D * D * G * shifted


def brute_force_minimal_gap_multiple(l, k, t, limit=10**6):
    """Smallest x <= limit whose multiple has leading digit 1 and gap > t."""
    for x in range(1, limit + 1):
        exp = expand(x * l, k)
        if exp.terms[0][0] != 1:
            continue
        if len(exp.terms) == 1 or exp.terms[1][1] - exp.terms[0][1] > t:
            return x
    return None


class TestGapMultiple:
    def test_unit_l(self):
        res = gap_multiple(1, 2, 2)
        assert res.x == 9  # 9 = 1 + 2**3
        assert res.expansion.terms[0] == (1, 0)
        assert res.gap > 2

    def test_l_three_base_two(self):
        res = gap_multiple(3, 2, 2)
        assert res.expansion.terms[0][0] == 1
        assert res.gap > 2
        # Minimal witness exists and is small; constructive may differ.
        assert brute_force_minimal_gap_multiple(3, 2, 2) == 3

    def test_power_of_k(self):
        for k, a, t in [(2, 3, 1), (3, 2, 2), (6, 1, 0)]:
            res = gap_multiple(k**a, k, t)
            assert res.x == 1 + k ** (t + 1)
            assert res.leading_exponent == a
            assert res.gap == t + 1

    @pytest.mark.parametrize("k", [2, 3, 4, 6, 10, 12])
    def test_postcondition_grid(self, k):
        for l in range(1, 30):
            for t in range(0, 4):
                res = gap_multiple(l, k, t)
                assert res.expansion.value() == res.x * l
                assert res.expansion.terms[0] == (1, res.leading_exponent)
                assert res.gap > t

    def test_deep_witness_within_cpu_bound(self):
        # one divmod per digit takes about 11 s of CPU on a 2-vCPU host, splitting
        # by k**(2**i) about 0.2 s
        started = time.process_time()
        res = gap_multiple(2, 5, 100_000)
        assert time.process_time() - started < 3.0
        assert res.expansion.terms[0] == (1, res.leading_exponent)
        assert res.gap > 100_000
        assert res.expansion.value() == 2 * res.x

    def test_pair_leading_exponents_match(self):
        # the leading exponent of gap_multiple does not depend on t
        for l, k, t, t2 in [(3, 2, 1, 4), (1, 3, 0, 0), (12, 6, 2, 5), (35, 2, 3, 0)]:
            first, second = gap_multiple(l, k, t), gap_multiple(l, k, t2)
            assert first.leading_exponent == second.leading_exponent
            assert first.gap > t
            assert second.gap > t2

    def test_degenerate_pair_same_witness(self):
        assert gap_multiple(1, 3, 0) == gap_multiple(1, 3, 0)

    def test_gcd_split_matches_trial_division(self):
        for k in range(2, 31):
            for l in range(1, 200):
                for t in range(5):
                    assert gap_multiple(l, k, t).x == trial_division_gap_x(l, k, t), (l, k, t)

    @pytest.mark.parametrize("l, k, t, message", [
        (0, 2, 1, "l must be >= 1, got 0"),
        (1, 1, 1, "k must be >= 2, got 1"),
        (1, 2, -1, "t must be >= 0, got -1"),
    ], ids=["l", "k", "t"])
    def test_argument_checks(self, l, k, t, message):
        with pytest.raises(ValueError, match=message) as info:
            gap_multiple(l, k, t)
        assert info.type is ValueError

    def test_large_prime_factors_get_witnesses(self):
        # no factorization of k is needed, however large its primes
        for k in (10007 * 10009, (10**6 + 3) * (10**6 + 33), 2**61 - 1):
            for l in (1, 2, 35, k, 2 * k):
                for t in range(10):
                    res = gap_multiple(l, k, t)
                    assert expand(res.x * l, k) == res.expansion
                    assert res.expansion.terms[0] == (1, res.leading_exponent)
                    assert res.gap > t
