"""Exact analytic side: series intervals, closed forms and continued
fractions of the subsequence a(N + n*l).

Rationals are ``fractions.Fraction`` throughout; series values are
returned as exact enclosing intervals, never rounded decimals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expansion import _join
from .kappa import KappaSpec, _digit_words, _numeral_length, _window_end, a_values, check_budget
from .periodicity import classify

__all__ = [
    "ConvergentList",
    "eval_series",
    "periodic_series_value",
    "eval_cf",
]


@dataclass(frozen=True)
class ConvergentList:
    """Partial quotients with their convergents p_n/q_n.

    quotients[0] is always 0; convergents follow the standard recurrence
    and satisfy p_n*q_{n-1} - p_{n-1}*q_n = (-1)^(n+1) at every index.
    """

    quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]

    def value(self) -> Fraction:
        p, q = self.convergents[-1]
        return Fraction(p, q)


def _horner_numerator(spec: KappaSpec, N: int, l: int, beta: int, count: int) -> int:
    """sum_{n<count} a(N + n*l) * beta**(count-1-n), by ``expansion._join``."""
    _window_end(N, l, count)  # the window's own checks come before its words' budget
    check_budget(count * _digit_words(beta))
    return _join(a_values(spec, N, l, count)[::-1].tolist(), beta, beta.bit_length())


def eval_series(
    spec: KappaSpec, N: int, l: int, beta: int, digits: int
) -> tuple[Fraction, Fraction]:
    """Exact interval around sum_n a(N + n*l) / beta**(n+1).

    lo is the partial sum of the first T terms; hi adds the geometric
    tail bound beta**-T from a(.) <= beta - 1.  The interval has width
    below 10**-digits and contains the true value.
    """
    if beta < spec.L:
        raise ValueError(f"beta must be >= L = {spec.L}, got {beta}")
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    # beta**c >= 10 for c, the base-beta length of 9, so beta**-T < 10**-digits.
    T = digits * _numeral_length(9, beta) + 2
    num, den = _horner_numerator(spec, N, l, beta, T), beta**T
    return Fraction(num, den), Fraction(num + 1, den)


def periodic_series_value(spec: KappaSpec, N: int, l: int, beta: int) -> Fraction:
    """Closed-form rational value of the series of a periodic spec.

    ``classify`` finds the least shift A at which the criterion holds,
    and then P = L * k**A is a period.  The subsequence a(N + n*l)
    inherits it, so the series telescopes to (sum over one period) /
    (beta**P - 1); any multiple of P would give the same Fraction.
    Raises ValueError unless the spec is Periodic.
    """
    if beta < spec.L:
        raise ValueError(f"beta must be >= L = {spec.L}, got {beta}")
    verdict = classify(spec)
    if not verdict.is_periodic:
        raise ValueError(f"classify found the spec {verdict.status}, so it gives no period")
    P = verdict.period
    return Fraction(_horner_numerator(spec, N, l, beta, P), beta**P - 1)


def eval_cf(spec: KappaSpec, N: int, l: int, depth: int) -> ConvergentList:
    """Continued fraction [0: a(N) + 1, a(N+l) + 1, ...] to ``depth`` quotients."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    quotients = [0] + (a_values(spec, N, l, depth) + 1).tolist()
    # p_n, q_n have <= n * bit_length(max quotient) bits: count 64-bit limbs.
    check_budget(depth * depth * max(quotients).bit_length() // 64)

    p_prev, q_prev = 1, 0
    p, q = quotients[0], 1  # p_0 = a_0 = 0, q_0 = 1
    convergents = [(p, q)]
    append = convergents.append
    sign = -1  # the determinant (-1)^(n+1) at n = 0
    for a in quotients[1:]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        append((p, q))
        sign = -sign
        assert p * q_prev - p_prev * q == sign, (
            f"determinant identity broken at n={len(convergents) - 1}")
    return ConvergentList(quotients=tuple(quotients), convergents=tuple(convergents))
