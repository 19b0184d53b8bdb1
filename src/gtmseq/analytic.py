"""Exact analytic side: product expansion, series intervals, continued
fractions, and irrationality-exponent estimation.

Rationals are ``fractions.Fraction`` throughout; series values are
returned as exact enclosing intervals, never rounded decimals.  The
truncated generating-function product keeps root-of-unity coefficients
as exponents mod L, read off the substitution word, and checks that the
blocks its factors fill tile the index range once (uniqueness of the
base-k expansion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .expansion import expand
from .kappa import KappaSpec, a_values, check_budget, generate_prefix_morphic, spaced_indices
from .periodicity import classify

__all__ = [
    "TruncatedProductSeries",
    "ConvergentList",
    "product_coefficients",
    "eval_series",
    "periodic_series_value",
    "eval_cf",
    "irrationality_estimate",
]


@dataclass(frozen=True)
class TruncatedProductSeries:
    """Coefficients of prod_{y<=Y} (1 + sum_s zeta^kappa(s,y) z^(s*k^y)).

    Entry n is the exponent c meaning exp(2*pi*i*c/L); every coefficient
    below k**(Y+1) is a single root of unity.
    """

    L: int
    k: int
    Y: int
    exponents: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.exponents)


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

    def __len__(self) -> int:
        return len(self.quotients)


def product_coefficients(spec: KappaSpec, Y: int) -> TruncatedProductSeries:
    """Expand the truncated infinite product symbolically over exponents.

    The coefficients are the word ``generate_prefix_morphic(spec, Y + 1)``:
    factor y fills the blocks s*k**y + [0, k**y), s = 1..k-1, which with
    {0} tile [0, k**(Y+1)) once each, so no coefficient gets two
    contributions exactly when the word has k**(Y+1) letters.
    """
    if Y < 0:
        raise ValueError(f"Y must be >= 0, got {Y}")
    word = generate_prefix_morphic(spec, Y + 1)
    if len(word) != spec.k ** (Y + 1):
        raise AssertionError(f"{len(word)} coefficients do not tile [0, k**{Y + 1})")
    return TruncatedProductSeries(L=spec.L, k=spec.k, Y=Y, exponents=tuple(word))


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
    T = digits * expand(9, beta).length + 2
    numerator = 0
    for v in a_values(spec, spaced_indices(N, l, T)).tolist():
        numerator = numerator * beta + v
    lo = Fraction(numerator, beta**T)
    hi = lo + Fraction(1, beta**T)
    return lo, hi


def periodic_series_value(spec: KappaSpec, N: int, l: int, beta: int, A: int) -> Fraction:
    """Closed-form rational value when the sequence has period L * k**A.

    The subsequence a(N + n*l) inherits the period P = L * k**A, so the
    series telescopes to (sum over one period) / (beta**P - 1).  Raises
    ValueError unless ``classify`` finds the spec Periodic at a shift at
    most A: the criterion at shift A0 holds at every A >= A0, and only
    then is L * k**A a period.
    """
    if A < 0:
        raise ValueError("A must be >= 0")
    if beta < spec.L:
        raise ValueError(f"beta must be >= L = {spec.L}, got {beta}")
    verdict = classify(spec)
    if not (verdict.is_periodic and verdict.shift <= A):
        raise ValueError(f"criterion fails at shift A = {A}: L * k**A is no period")
    P = spec.L * spec.k**A
    numerator = 0
    for v in a_values(spec, spaced_indices(N, l, P)).tolist():
        numerator = numerator * beta + v
    return Fraction(numerator, beta**P - 1)


def eval_cf(spec: KappaSpec, N: int, l: int, depth: int, value_map=None) -> ConvergentList:
    """Continued fraction [0: r(a(N)), r(a(N+l)), ...] to ``depth`` quotients.

    ``value_map`` sends residues to positive partial quotients and must
    be injective on [0, L-1]; default is j -> j + 1.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    L = spec.L
    images = range(1, L + 1)
    if value_map is not None:
        # Only a custom map is tabulated, over all L residues.
        check_budget(L)
        images = [value_map(j) for j in range(L)]
        if any(not isinstance(v, int) or v < 1 for v in images):
            raise ValueError(f"value_map must send residues to positive integers: {images}")
        if len(set(images)) != L:
            raise ValueError(f"value_map must be injective on [0, {L - 1}]: {images}")

    vals = a_values(spec, spaced_indices(N, l, depth)).tolist()
    quotients = [0] + [images[v] for v in vals]
    # p_n, q_n have <= n * bit_length(max quotient) bits: count 64-bit limbs.
    check_budget(depth * depth * max(quotients).bit_length() // 64)

    convergents = []
    p_prev, q_prev = 1, 0
    p, q = quotients[0], 1  # p_0 = a_0 = 0, q_0 = 1
    convergents.append((p, q))
    for i, a in enumerate(quotients[1:], start=1):
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        convergents.append((p, q))
        det = p * q_prev - p_prev * q
        assert det == (-1) ** (i + 1), f"determinant identity broken at n={i}"
    return ConvergentList(quotients=tuple(quotients), convergents=tuple(convergents))


def irrationality_estimate(conv: ConvergentList) -> float:
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
