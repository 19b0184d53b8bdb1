"""Stammering witnesses for equally spaced subsequences.

For a non-periodic spec, the prefix of the underlying sequence splits
into length-k**m blocks that are all residue shifts of the first one:
a(j*k**m + n) = a(j*k**m) + a(n) mod L for n < k**m, because the two
summands occupy disjoint digit positions.  Among the L+1 block shifts
a(t*l*k**m) for t = 0..L two must collide; the colliding super-blocks
give a repeated factor in the subsequence a(N + n*l), which yields a
prefix of the shape U V^w with fixed exponent w = 1 + 1/(2Ll+3) > 1.
All size bounds are asserted in exact rational arithmetic before a
witness is returned.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .errors import BudgetExceededError, MTooSmallError, PeriodicSpecError
from .kappa import KappaSpec, SequenceWindow, _numeral_length, a_values, word_budget
from .periodicity import classify

__all__ = [
    "StammerWitness",
    "build_witness",
    "verify_witness",
    "min_legal_m",
]


@dataclass(frozen=True)
class StammerWitness:
    """Certificate that U * V**w prefixes the subsequence a(N + n*l).

    V splits as the repeated block of length ``w2_len`` followed by the
    spacer of length ``w3_len``; ``t`` and ``t_prime`` are the colliding
    super-block indices the construction used.
    """

    U: tuple[int, ...]
    V: tuple[int, ...]
    w: Fraction
    m: int
    N: int
    l: int
    L: int
    w2_len: int
    w3_len: int
    t: int
    t_prime: int

    @property
    def ratio_bound(self) -> int:
        return 2 * self.L * self.l + 3

    def fractional_tail_length(self) -> int:
        """Length of the partial repetition of V demanded by the exponent w."""
        frac = self.w - floor(self.w)
        return ceil(frac * len(self.V))

    def prefix_word(self) -> tuple[int, ...]:
        """The word U V^w with the floor/ceil fractional-power convention."""
        whole = floor(self.w)
        return self.U + self.V * whole + self.V[: self.fractional_tail_length()]


def min_legal_m(N: int, l: int, k: int) -> int:
    """Smallest admissible construction index: M+1, M the least with k**M > 2(N+l)."""
    N, l, k = operator.index(N), operator.index(l), operator.index(k)
    return _numeral_length(2 * (N + l), k) + 1


def build_witness(spec: KappaSpec, N: int, l: int, m: int) -> StammerWitness:
    """Construct a stammering witness for the subsequence a(N + n*l)."""
    N, l, m = operator.index(N), operator.index(l), operator.index(m)
    if N < 0 or l < 1:
        raise ValueError("need N >= 0 and l >= 1")
    verdict = classify(spec)
    if not verdict.is_non_periodic:
        raise PeriodicSpecError(
            f"stammering witnesses need a NonPeriodic spec, classify said {verdict.status}"
        )
    k, L = spec.k, spec.L
    legal = min_legal_m(N, l, k)
    if m < legal:
        raise MTooSmallError(f"m={m} below minimum {legal} for N={N}, l={l}, k={k}")

    budget = word_budget()
    if m >= _numeral_length(budget, k):
        raise BudgetExceededError(f"a witness reads over {k}**{m} values, past budget {budget}")
    block = k**m
    shifts = a_values(spec, 0, l * block, L + 1).tolist()
    # Deterministic pigeonhole: among collisions take smallest t'-t, then t.
    # A least gap lies between consecutive equal shifts, so one pass that
    # remembers the last t of each residue sees every candidate.
    last: dict[int, int] = {}
    best = None
    for tp, shift in enumerate(shifts):
        if shift in last and (best is None or tp - last[shift] < best[1] - best[0]):
            best = (last[shift], tp)
        last[shift] = tp
    assert best is not None, "L+1 residues mod L must collide"
    t, tp = best

    # Subsequence entries n = t*k**m + j read offsets N + j*l inside the
    # t-th super-block; they stay inside while N + j*l < k**m.
    repeat_len = (block - 1 - N) // l + 1
    n1 = t * block
    n2 = tp * block
    total = n2 + repeat_len
    vals = tuple(a_values(spec, N, l, total).tolist())

    U = vals[:n1]
    V = vals[n1:n2]
    w = Fraction(2 * L * l + 4, 2 * L * l + 3)
    witness = StammerWitness(
        U=U,
        V=V,
        w=w,
        m=m,
        N=N,
        l=l,
        L=L,
        w2_len=repeat_len,
        w3_len=len(V) - repeat_len,
        t=t,
        t_prime=tp,
    )

    # Size conditions, exactly, before handing the witness out.
    outer = Fraction((L * l + 1) * block - N, l) + 1
    assert len(U) <= outer
    assert witness.w2_len >= Fraction(block - N, l) - 1
    assert witness.w2_len + witness.w3_len <= outer
    # (w - 1)|V| <= L k**m / (2Ll + 3) < k**m / (2l), as |V| <= L k**m.
    assert (w - floor(w)) * len(V) <= Fraction(block, 2 * l)
    assert witness.fractional_tail_length() < witness.w2_len
    assert Fraction(len(U), len(V)) <= witness.ratio_bound
    # The repeated block really repeats.
    assert vals[n1 : n1 + repeat_len] == vals[n2 : n2 + repeat_len]
    return witness


def verify_witness(window: SequenceWindow, witness: StammerWitness):
    """Check the prefix-power property of a witness against real values.

    Returns (ok, diagnostics); on failure diagnostics carry the first
    mismatching index or the reason the witness is malformed.
    """
    if witness.w <= 1:
        return False, {"reason": "exponent w must exceed 1"}
    if not witness.V:
        return False, {"reason": "V must be nonempty"}
    if window.start != witness.N or window.stride != witness.l:
        return False, {"reason": "window does not match witness (N, l)"}
    if len(witness.U) > witness.ratio_bound * len(witness.V):
        return False, {"reason": "|U|/|V| exceeds recorded bound"}
    pattern = witness.prefix_word()
    if len(window.values) < len(pattern):
        raise ValueError(
            f"window of length {len(window.values)} too short for prefix of "
            f"length {len(pattern)}"
        )
    values = window.values[: len(pattern)]
    if values == pattern:
        return True, {"prefix_length": len(pattern)}
    i = next(i for i, (got, want) in enumerate(zip(values, pattern)) if got != want)
    return False, {"mismatch_index": i, "expected": pattern[i], "actual": values[i]}
