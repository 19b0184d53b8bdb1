import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gtmseq import (
    BudgetExceededError,
    KappaSpec,
    a_of_n,
    a_values,
    classify,
    eval_cf,
    eval_series,
    generate_prefix_morphic,
    periodic_series_value,
)
from gtmseq.analytic import _horner_numerator
from conftest import (
    constant_spec,
    horner_literal,
    literal_product,
    periodic_constructed_spec,
    random_spec,
    zero_spec,
)


def direct_partial_sum(spec, N, l, beta, terms):
    """Independent term-by-term Fraction accumulation."""
    total = Fraction(0)
    for n in range(terms):
        total += Fraction(a_of_n(spec, N + n * l), beta ** (n + 1))
    return total


def irrationality_estimate(conv):
    """Empirical lower-bound indicator for the irrationality exponent.

    ESTIMATE only: max of log q_{n+1} / log q_n + 1 over the deeper half
    of the available convergents (early tiny denominators would pin the
    max at an artifact of the first few quotients).  Says nothing about
    finiteness or upper bounds.
    """
    if len(conv.convergents) < 3:
        raise ValueError("need at least 3 convergents")
    qs = [q for _, q in conv.convergents]
    start = max(len(qs) // 2, next(i for i, q in enumerate(qs) if q >= 2))
    best = None
    for q_n, q_next in zip(qs[start:], qs[start + 1 :]):
        ratio = math.log(q_next) / math.log(q_n) + 1.0
        if best is None or ratio > best:
            best = ratio
    if best is None:
        raise ValueError("denominators too small for an estimate")
    return best


class TestProductCoefficients:
    """The truncated product, expanded literally, against both generation routes."""

    def test_thue_morse(self, tm):
        coefficients = literal_product(tm, 2)
        assert [coefficients[n] for n in range(8)] == [0, 1, 1, 0, 1, 0, 0, 1]

    def test_zero_map_geometric(self):
        assert literal_product(zero_spec(2, 3), 3) == dict.fromkeys(range(3**4), 0)

    def test_agrees_with_digit_counting(self, rng):
        for _ in range(8):
            spec = random_spec(rng, k_max=4)
            coefficients = literal_product(spec, 5)
            assert sorted(coefficients) == list(range(spec.k**6))
            exponents = [coefficients[n] for n in range(spec.k**6)]
            assert exponents == generate_prefix_morphic(spec, 6).tolist()
            assert exponents == a_values(spec, 0, 1, spec.k**6).tolist()


class TestEvalSeries:
    def test_zero_spec(self):
        lo, hi = eval_series(zero_spec(2, 2), 0, 1, 2, 8)
        assert lo == 0
        assert 0 < hi < Fraction(1, 10**8)

    def test_thue_morse_reference(self, tm):
        lo, hi = eval_series(tm, 0, 1, 2, 12)
        assert hi - lo < Fraction(1, 10**12)
        oracle = direct_partial_sum(tm, 0, 1, 2, 120)  # doubled depth
        assert lo <= oracle <= hi
        # 12 truncated digits of the reference value
        scaled = (lo.numerator * 10**12) // lo.denominator
        assert scaled == 412454033640

    def test_interval_nesting(self, tm):
        lo1, hi1 = eval_series(tm, 3, 2, 2, 4)
        lo2, hi2 = eval_series(tm, 3, 2, 2, 12)
        assert lo1 <= lo2 and hi2 <= hi1

    def test_periodic_closed_form(self):
        spec = constant_spec(2, 3, (1, 0))
        assert classify(spec).is_periodic
        for N, l in [(0, 1), (2, 3), (1, 2)]:
            lo, hi = eval_series(spec, N, l, 3, 10)
            exact = periodic_series_value(spec, N, l, 3)
            assert lo <= exact <= hi

    def test_zero_spec_closed_form(self):
        exact = periodic_series_value(zero_spec(2, 2), 0, 1, 2)
        assert exact == 0

    @pytest.mark.parametrize("N", [0, 3])
    def test_non_periodic_spec_rejected(self, tm, N):
        # Thue-Morse is not periodic: its series has no closed form from any N
        with pytest.raises(ValueError, match="NonPeriodic, so it gives no period"):
            periodic_series_value(tm, N, 1, 2)

    def test_finite_window_spec_rejected(self):
        # UnknownUpToBound: the window decides nothing, so no period is claimed
        spec = KappaSpec(L=2, k=2, preperiod=0, period=None, window=4, table=((0, 0, 0, 0),))
        with pytest.raises(ValueError, match="UnknownUpToBound, so it gives no period"):
            periodic_series_value(spec, 0, 1, 2)

    def test_shift_below_criterion_rejected(self, rng):
        # The sum runs over one period L * k**shift at classify's least shift;
        # a period k times longer telescopes to the same value.
        checked = 0
        while checked < 5:
            spec, _ = periodic_constructed_spec(rng, A_max=3)
            shift = classify(spec).shift
            if shift == 0:
                continue
            checked += 1
            value = periodic_series_value(spec, 1, 2, spec.L)
            lo, hi = eval_series(spec, 1, 2, spec.L, 8)
            assert lo <= value <= hi
            P = spec.L * spec.k ** (shift + 1)
            numerator = horner_literal([a_of_n(spec, 1 + 2 * n) for n in range(P)], spec.L)
            assert value == Fraction(numerator, spec.L**P - 1)

    def test_big_base_numerator_budgeted(self, monkeypatch):
        # one period of the zero spec is 2 terms of 4,001 bits: 2 * 63 words
        monkeypatch.setenv("GTMSEQ_BUDGET", "125")
        with pytest.raises(BudgetExceededError, match="126 values exceed budget 125"):
            periodic_series_value(zero_spec(2, 2), 0, 1, 2**4000)
        monkeypatch.setenv("GTMSEQ_BUDGET", "126")
        assert periodic_series_value(zero_spec(2, 2), 0, 1, 2**4000) == 0

    @pytest.mark.parametrize("series, spec, extra", [
        (eval_series, constant_spec(4, 2, (3,)), (6,)),
        (periodic_series_value, zero_spec(4, 2), ()),
    ], ids=["eval_series", "periodic_series_value"])
    def test_beta_below_L_rejected(self, series, spec, extra):
        with pytest.raises(ValueError, match="beta must be >= L = 4, got 3"):
            series(spec, 0, 1, 3, *extra)


# The bases of the join property: both ends of the small ones, a decimal
# base, one of a few words and one wider than a Horner run.
BASES = ["L", "L+1", 10, 2**70, 2**4000]


def draw_base(choice, L):
    return {"L": L, "L+1": L + 1}.get(choice, choice)


def run_width(beta):
    """Terms per Horner run: the digits of beta that stay below 4,096 bits."""
    return max(1, 4096 // beta.bit_length())


class TestHornerNumerator:
    """``_horner_numerator`` joins Horner runs by halves; the literal loop is the oracle."""

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(BASES),
           st.sampled_from([(1, -1), (1, 0), (1, 1), (2, 0), (3, 0), (4, 1), (7, -1)]),
           st.integers(0, 50), st.integers(1, 9))
    def test_matches_literal_loop(self, rng, base, runs, N, l):
        # count = width * runs + extra: one run's width - 1, width and
        # width + 1, and a few multiples, odd ones leaving a top run over.
        spec = random_spec(rng)
        beta = draw_base(base, spec.L)
        count = max(0, run_width(beta) * runs[0] + runs[1])
        values = a_values(spec, N, l, count).tolist()
        assert _horner_numerator(spec, N, l, beta, count) == horner_literal(values, beta)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(BASES),
           st.integers(0, 50), st.integers(1, 9))
    def test_periodic_value_matches_literal_loop(self, rng, base, N, l):
        # The constructed period L * k**A is longer than one run (L = 2 has
        # the widest), so the closed form's numerator joins two runs or more.
        min_period = run_width(draw_base(base, 2)) + 1
        spec, _ = periodic_constructed_spec(rng, A_max=1, min_period=min_period)
        beta = draw_base(base, spec.L)
        P = classify(spec).period
        values = a_values(spec, N, l, P).tolist()
        exact = Fraction(horner_literal(values, beta), beta**P - 1)
        assert periodic_series_value(spec, N, l, beta) == exact

    def test_long_numerator_is_fast(self, tm):
        # 320,002 terms in base 2: a Horner loop took 4.6-5.8 s of CPU on a
        # shared 2-vCPU host, the join under 0.1 s.  int(bits, 2) is the oracle.
        started = time.process_time()
        numerator = _horner_numerator(tm, 0, 1, 2, 320_002)
        assert time.process_time() - started < 1.0
        bits = "".join(map(str, a_values(tm, 0, 1, 320_002).tolist()))
        assert numerator == int(bits, 2)


class TestEvalCf:
    def test_fibonacci_from_zero_map(self):
        conv = eval_cf(zero_spec(2, 2), 0, 1, 12)
        # all quotients after a_0 = 0 are 1: convergents are Fibonacci ratios
        fib = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233]
        qs = [q for _, q in conv.convergents]
        ps = [p for p, _ in conv.convergents]
        assert ps == fib[:13]
        assert qs == fib[1:14]

    def test_determinant_identity(self, tm):
        conv = eval_cf(tm, 0, 1, 40)
        for n in range(1, len(conv.convergents)):
            p, q = conv.convergents[n]
            p0, q0 = conv.convergents[n - 1]
            assert p * q0 - p0 * q == (-1) ** (n + 1)

    def test_convergent_quality(self, tm):
        shallow = eval_cf(tm, 0, 1, 20)
        deep = eval_cf(tm, 0, 1, 40)
        x = deep.value()
        for n in range(1, len(shallow.convergents) - 1):
            p, q = shallow.convergents[n]
            _, q_next = shallow.convergents[n + 1]
            assert abs(x - Fraction(p, q)) < Fraction(1, q * q_next)

    def test_denominator_growth(self, tm):
        conv = eval_cf(tm, 1, 3, 30)
        qs = [q for _, q in conv.convergents]
        for n in range(2, len(qs)):
            assert qs[n] >= qs[n - 1] + qs[n - 2]
            assert qs[n] > qs[n - 1]

    def test_default_map_builds_no_residue_table(self, monkeypatch):
        # L = 10**6 residues; the 5 quotients need only 5 values
        spec = constant_spec(10**6, 2, (1,))
        monkeypatch.setenv("GTMSEQ_BUDGET", "1000")
        tracemalloc.start()
        try:
            conv = eval_cf(spec, 0, 1, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a(0..4) = popcount = 0, 1, 1, 2, 1
        assert conv.quotients == (0, 1, 2, 2, 3, 2)
        assert peak < 2**20


@pytest.mark.parametrize("call, message", [
    (lambda tm: eval_series(tm, 0, 1, 2, 0), "digits must be >= 1, got 0"),
    (lambda tm: eval_cf(tm, 0, 1, 0), "depth must be >= 1, got 0"),
], ids=["eval_series-digits", "eval_cf-depth"])
def test_argument_checks(tm, call, message):
    with pytest.raises(ValueError, match=message) as info:
        call(tm)
    assert info.type is ValueError


class TestIrrationalityEstimate:
    def test_golden_ratio_limit(self):
        conv = eval_cf(zero_spec(2, 2), 0, 1, 80)
        mu = irrationality_estimate(conv)
        assert abs(mu - 2.0) < 0.05

    def test_lower_bound_two(self, tm, rng):
        for spec in [tm, constant_spec(3, 2, (1,))]:
            conv = eval_cf(spec, 0, 1, 60)
            assert irrationality_estimate(conv) >= 2.0 - 1e-9

    def test_depth_extension_reported(self, tm):
        mu_50 = irrationality_estimate(eval_cf(tm, 0, 1, 50))
        mu_100 = irrationality_estimate(eval_cf(tm, 0, 1, 100))
        assert mu_50 > 1 and mu_100 > 1  # both finite estimates

    def test_insufficient_depth(self, tm):
        with pytest.raises(ValueError):
            irrationality_estimate(eval_cf(tm, 0, 1, 1))
