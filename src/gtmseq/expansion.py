"""Base-k digit machinery.

Every natural number n has a unique representation

    n = sum_q s_q * k**w_q,    1 <= s_q <= k-1,  w_{q+1} > w_q >= 0,

i.e. the list of (nonzero digit, position) pairs of the ordinary base-k
numeral.  This module provides that expansion, its inverse ``_join`` (for
the series numerator and every long printed int), and the "gap multiple":
for any l >= 1 and threshold t, a multiple x*l whose expansion has
leading coefficient 1 followed by a gap of more than t empty positions.
"""

from __future__ import annotations

import decimal
import operator
from dataclasses import dataclass
from math import gcd

from .kappa import _digit_words, _digits, check_budget

__all__ = [
    "DigitExpansion",
    "GapMultipleResult",
    "expand",
    "gap_multiple",
]

_SPLIT_BITS = 4096  # Horner runs stay below this many bits, and so do ints printed by str()
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])


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


@dataclass(frozen=True)
class GapMultipleResult:
    """Witness multiple x*l with leading digit 1 and a gap above it.

    ``gap`` is the distance between the two lowest occupied positions.
    """

    x: int
    expansion: DigitExpansion
    leading_exponent: int
    gap: int


def expand(n: int, k: int) -> DigitExpansion:
    """Base-k expansion of n as (coefficient, exponent) terms, read by ``kappa._digits``."""
    terms = tuple((s, w) for w, s in enumerate(_digits(n, k)) if s)
    return DigitExpansion(base=operator.index(k), terms=terms)


def gap_multiple(l: int, k: int, t: int) -> GapMultipleResult:
    """Multiple x*l whose base-k expansion is k**w1 * (1 + higher terms),
    with all higher terms more than t positions above w1.

    Constructive for every l >= 1 and k >= 2, with no factorization:
    split l = G * H by repeated gcd with k, so that G is coprime to k and
    H divides a power of k, invert G to D modulo k**(t+1), and return
    the multiple x*l = k**f * (D*G)**2 (or k**f * (1 + k**(t+1)) when
    G = 1), where f is the least exponent with H | k**f.  f does not
    depend on t, so calls that differ only in t share one leading exponent.
    A second term always exists: 1 + k**(t+1) has it at t + 1, and else
    D*G = 1 + c * k**(t+1) with c >= 1, so (D*G)**2 - 1 is a positive
    multiple of k**(t+1).
    """
    l, k, t = operator.index(l), operator.index(k), operator.index(t)
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    check_budget(2 * (t + 1) * _digit_words(k))  # D*D < k**(2*(t+1)): 2*(t+1) digits

    # Strip from G every prime it shares with k; H = l // G is built from k's primes.
    G = l
    g = gcd(G, k)
    while g > 1:
        G //= g
        g = gcd(G, k)
    H = l // G
    # Least f with H | k**f keeps the witness small; f = 0 when l is coprime to k.
    f = 0
    while pow(k, f, H):
        f += 1
    shifted = k**f // H

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
    gap = exp.terms[1][1] - lead_w
    result = GapMultipleResult(x=x, expansion=exp, leading_exponent=lead_w, gap=gap)
    assert result.gap > t
    return result


def _join(digits, base, base_bits):
    """The number with base-``base`` digits ``digits``, least significant first.

    Horner's rule sums runs below 2**_SPLIT_BITS, then level i joins them by
    halves as lo + hi * base**(width * 2**i) (Brent & Zimmermann, *Modern
    Computer Arithmetic*, 1.7), on ints or on integral Decimals in ``_EXACT``.
    Peak (tracemalloc): 5-7 times the words ``analytic`` charges for base
    2**57 to 2**4000 + 1, under 0.2 for base <= 3; a Horner loop's, 3.
    """
    width = max(1, _SPLIT_BITS // base_bits)
    values = []
    for start in range(0, len(digits), width):
        value = 0
        for digit in reversed(digits[start : start + width]):
            value = value * base + digit
        values.append(value)
    power = None
    while len(values) > 1:
        power = base**width if power is None else power * power
        pairs = [lo + hi * power for lo, hi in zip(values[::2], values[1::2])]
        values = pairs + values[2 * len(pairs) :]  # an odd top run moves up a level
    return values[0] if values else 0


def _decimal_str(n: int) -> str:
    """``str(n)``, subquadratic past _SPLIT_BITS bits (Python 3.11's is not):
    ``_join`` joins |n|'s limbs of that size as exact Decimals.
    """
    if n.bit_length() < _SPLIT_BITS:
        return str(n)
    if n < 0:
        return "-" + _decimal_str(-n)
    raw = n.to_bytes(-(-n.bit_length() // 8), "little")
    size = _SPLIT_BITS // 8
    with decimal.localcontext(_EXACT):
        limbs = [decimal.Decimal(int.from_bytes(raw[i : i + size], "little"))
                 for i in range(0, len(raw), size)]
        return str(_join(limbs, decimal.Decimal(1 << _SPLIT_BITS), _SPLIT_BITS + 1))
