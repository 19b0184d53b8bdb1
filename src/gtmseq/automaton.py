"""k-kernel computation as a DFAO closure.

Every kernel subsequence a(k**e * n + j) decomposes, by disjoint digit
support, into a column shift plus a constant:

    a(k**e * n + j) = a_shift_e(n) + a(j)  (mod L),

where a_shift_e sums kappa(s, w + e) over the expansion terms (s, w) of
n.  States are therefore (shift, offset) pairs; reading a low-order
digit j refines (e, c) to (e + 1, c + kappa(j, e)) with kappa(0, .) = 0.
For an eventually periodic spec the shift canonicalizes into
[0, y0 + p) of the spec's normal form (minimal preperiod y0 and period
p), so the closure is finite with at most (y0 + p) * L states.

The closure is already the minimal DFAO.  Two distinct states (c, o)
and (c', o') differ at n = 0 if o != o'; otherwise c != c', their
column streams differ at some w < y0 + p (see ``canonical_column``),
and the states differ at n = s * k**w for an s with kappa(s, w + c) !=
kappa(s, w + c').  Digits are read least significant first and a
trailing 0 digit never changes the output, so Moore equivalence is
equality of the functions, and a complete closure has exactly as many
states as the k-kernel has elements.

``kernel_brute_force`` is an independent lower-bound oracle: it groups
equal subsequences up to a horizon from digit-route values alone and
never reads the (shift, offset) states.  Subsequence (e, j) is the tail
row a(k**e * n) plus the head a(j) mod L, and its value at n = 0 is the
head, so it is keyed by (tail row e, head a(j)); only the heads, the
e_max + 1 tail rows and one prefix per group are materialized.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import WindowExceededError
from .kappa import KappaSpec, a_values, check_budget, word_budget

__all__ = [
    "KernelState",
    "KernelResult",
    "kernel_explore",
    "kernel_brute_force",
]

# Resident words per (e, j) member of a kernel_brute_force result (its docstring).
_MEMBER_WORDS = 17


class KernelState(NamedTuple):
    """Denotes the function n -> a_shift(n) + offset mod L."""

    shift: int
    offset: int


@dataclass(frozen=True)
class KernelResult:
    """Kernel closure: states, per-digit transitions, and the output map.

    ``outputs[i]`` is the state's value at remaining index 0, which is
    just its offset.  When ``complete``, ``len`` is the exact k-kernel
    size (the closure is minimal).  ``complete`` is False when
    exploration stopped at max_states or at a finite window; that is
    evidence, never proof, of non-automaticity.
    """

    states: tuple[KernelState, ...]
    transitions: tuple[tuple[int, ...], ...]
    outputs: tuple[int, ...]
    complete: bool

    def __len__(self) -> int:
        return len(self.states)


def kernel_explore(spec: KappaSpec, max_states: int = 4096) -> KernelResult:
    """Close the kernel under the k digit-refinement maps from (0, 0).

    Shifts are kept as ``spec.canonical_column`` representatives, so two
    states denote the same function exactly when they are equal.  The
    closure stops, incomplete, when a row's new states would pass
    ``max_states`` or a state's column lies past a finite window.  It
    then drops that row with the states it added, so every state but the
    root is the target of a recorded transition.  A closure that grows
    past ``word_budget()`` states within ``max_states`` fails
    ``check_budget``; a ``max_states`` below 1 is a ValueError.

    Cost: one column read per canonical shift and one dict lookup per
    transition.  Each shift's move, the digit steps kappa(., shift) with
    kappa(0, .) = 0, the next canonical shift and that shift's
    {offset: state index} dict, is built on first use, so a child is the
    int (offset + step) % L looked up in one dict, and a ``KernelState``
    is built only for a new state.
    """
    if max_states < 1:
        raise ValueError(f"max_states must be >= 1, got {max_states}")
    L = spec.L
    root = spec.canonical_column(0)
    states = [KernelState(shift=root, offset=0)]
    index = {root: {0: 0}}  # {shift: {offset: state index}}
    moves: dict[int, tuple[tuple[int, ...], int, dict[int, int]]] = {}
    transitions: list[tuple[int, ...]] = []
    complete = True
    budget = word_budget()
    for shift, offset in states:  # grows while iterated, so the order is breadth-first
        move = moves.get(shift)
        if move is None:
            try:
                steps = (0,) + spec.column(shift)
            except WindowExceededError:
                # Finite-window spec ran out of columns: inconclusive.
                complete = False
                break
            child_shift = spec.canonical_column(shift + 1)
            move = moves[shift] = (steps, child_shift, index.setdefault(child_shift, {}))
        steps, child_shift, children = move
        finished = len(states)
        row = []
        for step in steps:
            child = (offset + step) % L
            child_idx = children.get(child)
            if child_idx is None:
                child_idx = children[child] = len(states)
                states.append(KernelState(shift=child_shift, offset=child))
            row.append(child_idx)
        if len(states) > max(finished, max_states):
            # The row added states past the cap (a row that adds none never
            # stops the closure): drop them with the row.
            del states[finished:]
            complete = False
            break
        if len(states) > budget:
            check_budget(len(states))
        transitions.append(tuple(row))
    return KernelResult(
        states=tuple(states),
        transitions=tuple(transitions),
        outputs=tuple(s.offset for s in states),
        complete=complete,
    )


def kernel_brute_force(spec: KappaSpec, e_max: int, horizon: int) -> dict:
    """Group the kernel subsequences a(k**e * n + j) by their first horizon values.

    The group count is a lower bound on the kernel size.  Returns
    {prefix: [(e, j), ...]} over e <= e_max and j < k**e, with prefixes as
    tuples of ints, groups in first-seen order (e, then j) and members in
    that order too.

    For j < k**e the digits of j and of k**e * n lie at disjoint
    positions, so subsequence (e, j) is the tail row a(k**e * n), n <
    horizon, plus the head a(j), mod L.  Its value at n = 0 is the head,
    as a(0) = 0, so two subsequences are equal exactly when their heads
    are equal and their tail rows are equal: the group of (e, j) is keyed
    by (bytes of tail row e, head a(j)).  One digit-route call reads the
    k**e_max heads and the e_max + 1 tail rows, about k**e_max + (e_max +
    1) * horizon values in place of k**e_max * horizon; the heads are
    sorted into classes of equal value, level e takes the js below k**e of
    each class, and one prefix row is built per group at the end.  The
    call reads the digit positions of k**e_max * horizon - 1, the largest
    index of the subsequences, so a finite window fails exactly when that
    index has more digits than it.

    The budget is charged the k**e_max * horizon values the subsequences
    stand for plus ``_MEMBER_WORDS`` = 17 words for each of the (k**(e_max
    + 1) - 1) / (k - 1) ``(e, j)`` members of the result.  A member's
    tuple, list slot and int, with its share of the heads, peaked at
    105-132 bytes of resident memory (ru_maxrss over 0.1-1.1M members,
    k = 2..10, horizon 1), below 17 words of 8 bytes.
    """
    if e_max < 0 or horizon < 1:
        raise ValueError("need e_max >= 0 and horizon >= 1")
    k, L = spec.k, spec.L
    check_budget(k**e_max * horizon + _MEMBER_WORDS * ((k ** (e_max + 1) - 1) // (k - 1)))
    top = k**e_max
    powers = k ** np.arange(e_max + 1, dtype=np.int64)
    tail_indices = np.multiply.outer(powers, np.arange(horizon, dtype=np.int64))
    indices = np.concatenate((np.arange(top, dtype=np.int64), tail_indices.ravel()))
    # Every value lies in [0, L): the narrowest unsigned dtype holding L - 1
    # keeps each one, gives equal rows equal bytes and sorts by radix.
    values = a_values(spec, indices).astype(np.min_scalar_type(L - 1))
    heads, tails = values[:top], values[top:].reshape(e_max + 1, horizon)
    # Each tail row is named by the first level that has it.
    seen: dict[bytes, int] = {}
    tail_ids = [seen.setdefault(row.tobytes(), e) for e, row in enumerate(tails)]
    # Head classes: the js of one head value, ascending (the sort is
    # stable), and the classes in the order of their first j.
    order = np.argsort(heads, kind="stable")
    ranked = heads[order]
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    by_first = np.argsort(order[starts])
    js, bounds = order.tolist(), np.append(starts, top).tolist()
    classes = [js[bounds[r] : bounds[r + 1]] for r in by_first.tolist()]
    first_js = [cls[0] for cls in classes]
    class_heads = ranked[starts[by_first]]
    # Level e holds the js below k**e of each class that has started.
    members: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for e, tail in enumerate(tail_ids):
        limit = k**e
        for c in range(bisect_left(first_js, limit)):
            cls = classes[c]
            members.setdefault((tail, c), []).extend(zip(repeat(e, bisect_left(cls, limit)), cls))
    # One prefix per group.  Sums lie in [0, 2L - 2]; in an unsigned dtype
    # holding 2L - 2, x - L wraps above x when x < L, so min(x, x - L) is
    # x mod L.
    wide = np.min_scalar_type(2 * L - 2)
    keys = np.array(list(members))
    prefixes = tails[keys[:, 0]].astype(wide)
    prefixes += class_heads[keys[:, 1], None]
    np.minimum(prefixes, prefixes - L, out=prefixes)
    return {tuple(prefix): group for prefix, group in zip(prefixes.tolist(), members.values())}
