"""Base-k digit machinery.

Every natural number n has a unique representation

    n = sum_q s_q * k**w_q,    1 <= s_q <= k-1,  w_{q+1} > w_q >= 0,

i.e. the list of (nonzero digit, position) pairs of the ordinary base-k
numeral.  This module provides that expansion, digit counting on it, and
the "gap multiple" construction: for any l >= 1 and threshold t, a
multiple x*l whose expansion has leading coefficient 1 followed by a gap
of more than t empty positions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FactorizationError
from .kappa import check_budget

__all__ = [
    "DigitExpansion",
    "GapMultipleResult",
    "expand",
    "digit_indicator",
    "digit_count",
    "digit_count_mod",
    "gap_multiple",
    "gap_multiple_pair",
]


@dataclass(frozen=True)
class DigitExpansion:
    """Unique base-k expansion of a non-negative integer.

    ``terms`` lists (coefficient, exponent) pairs with coefficients in
    [1, base-1] and strictly increasing exponents.  The empty tuple
    represents zero.
    """

    base: int
    terms: tuple[tuple[int, int], ...]

    def value(self) -> int:
        return sum(s * self.base**w for s, w in self.terms)

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class GapMultipleResult:
    """Witness multiple x*l with leading digit 1 and a gap above it.

    ``gap`` is the distance between the two lowest occupied positions;
    ``None`` stands for +infinity (single-term expansion).
    """

    x: int
    expansion: DigitExpansion
    leading_exponent: int
    gap: int | None

    def gap_exceeds(self, t: int) -> bool:
        return self.gap is None or self.gap > t


def expand(n: int, k: int) -> DigitExpansion:
    """Base-k expansion of n as (coefficient, exponent) terms."""
    if k < 2:
        raise ValueError(f"base k must be >= 2, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    terms = []
    w = 0
    while n:
        n, s = divmod(n, k)
        if s:
            terms.append((s, w))
        w += 1
    return DigitExpansion(base=k, terms=tuple(terms))


def _check_digit(s: int, k: int) -> None:
    if not 1 <= s <= k - 1:
        raise ValueError(f"digit s must lie in [1, {k - 1}], got {s}")


def digit_indicator(n: int, s: int, y: int, k: int) -> int:
    """1 if the expansion of n contains the term s*k**y, else 0."""
    _check_digit(s, k)
    if y < 0:
        raise ValueError(f"exponent y must be >= 0, got {y}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return 1 if (n // k**y) % k == s else 0


def digit_count(n: int, s: int, k: int) -> int:
    """Number of positions at which digit s occurs in base-k numeral of n."""
    _check_digit(s, k)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    count = 0
    while n:
        n, d = divmod(n, k)
        if d == s:
            count += 1
    return count


def digit_count_mod(n: int, s: int, k: int, L: int) -> int:
    """digit_count reduced into [0, L-1]."""
    if L < 2:
        raise ValueError(f"modulus L must be >= 2, got {L}")
    return digit_count(n, s, k) % L


def _factor(n: int, bound: int) -> dict[int, int]:
    """Prime factorization by trial division up to ``bound``."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if d > bound:
            raise FactorizationError(
                f"trial division bound {bound} exceeded while factoring {n}"
            )
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def gap_multiple(l: int, k: int, t: int, factor_bound: int = 10**6) -> GapMultipleResult:
    """Multiple x*l whose base-k expansion is k**w1 * (1 + higher terms),
    with all higher terms more than t positions above w1.

    Constructive: split l = G * prod(p**x_p) over the primes p of k with
    G coprime to k, invert G modulo k**(t+1), and return the multiple
    k**f * D**2 * G**2 (or k**f * (1 + k**(t+1)) when G = 1), where f is
    the least exponent making k**f / prod(p**x_p) an integer.  f does
    not depend on t, so paired calls share one leading exponent.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    # x*l = k**f * (D*G)**2 with D < k**(t+1): D*D alone has 2*(t+1) base-k digits
    check_budget(2 * (t + 1))

    k_primes = _factor(k, factor_bound)
    # Strip k's primes from l; the cofactor G is automatically coprime to k.
    G = l
    mults: dict[int, int] = {}
    for p in k_primes:
        while G % p == 0:
            mults[p] = mults.get(p, 0) + 1
            G //= p

    if mults:
        # Least f with k**f / prod(p**x_p) an integer; keeps the witness small.
        f = max(-(-x // k_primes[p]) for p, x in mults.items())
        shifted = k**f
        for p, x in mults.items():
            shifted //= p**x  # exact: k**f dominates every p**x
    else:
        # l coprime to k: no shift needed at all.
        shifted = 1

    modulus = k ** (t + 1)
    D = pow(G, -1, modulus)
    if D * G == 1:
        # E*(k**(t+1)*E - 2) = 0 branch; here G = 1 necessarily.
        x = (1 + modulus) * shifted
    else:
        x = D * D * G * shifted

    exp = expand(x * l, k)
    lead_s, lead_w = exp.terms[0]
    assert lead_s == 1, "constructive witness must have leading coefficient 1"
    gap = exp.terms[1][1] - lead_w if len(exp.terms) > 1 else None
    result = GapMultipleResult(x=x, expansion=exp, leading_exponent=lead_w, gap=gap)
    assert result.gap_exceeds(t)
    return result


def gap_multiple_pair(
    l: int, k: int, t: int, t2: int, factor_bound: int = 10**6
) -> tuple[GapMultipleResult, GapMultipleResult]:
    """Two gap multiples for thresholds t and t2 sharing one leading exponent."""
    first = gap_multiple(l, k, t, factor_bound)
    second = gap_multiple(l, k, t2, factor_bound)
    assert first.leading_exponent == second.leading_exponent
    return first, second
