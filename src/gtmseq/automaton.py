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
states as the k-kernel has elements.  The literal subsequence
materialization stays available as an independent lower-bound oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, WindowExceededError
from .kappa import KappaSpec, a_values, check_budget, word_budget

__all__ = [
    "KernelState",
    "KernelResult",
    "kernel_explore",
    "kernel_brute_force",
]


@dataclass(frozen=True)
class KernelState:
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

    def to_record(self) -> dict:
        return {
            "states": [{"shift": s.shift, "offset": s.offset} for s in self.states],
            "transitions": [list(row) for row in self.transitions],
            "outputs": list(self.outputs),
            "complete": self.complete,
        }


def kernel_explore(spec: KappaSpec, max_states: int = 4096) -> KernelResult:
    """Close the kernel under the k digit-refinement maps from (0, 0).

    Shifts are kept as ``spec.canonical_column`` representatives, so two
    states denote the same function exactly when they are equal.  The
    closure stops, incomplete, when a row's new states would pass
    ``max_states`` or a state's column lies past a finite window.  It
    then drops that row with the states it added, so every state but the
    root is the target of a recorded transition.  A closure that grows
    past ``word_budget()`` states within ``max_states`` raises
    BudgetExceededError.
    """
    budget = word_budget()
    states = [KernelState(shift=spec.canonical_column(0), offset=0)]
    index = {states[0]: 0}
    transitions: list[tuple[int, ...]] = []
    complete = True
    for state in states:  # grows while iterated, so the order is breadth-first
        try:
            steps = (0,) + spec.column(state.shift)
        except WindowExceededError:
            # Finite-window spec ran out of columns: inconclusive.
            complete = False
            break
        shift = spec.canonical_column(state.shift + 1)
        finished = len(states)
        row = []
        for step in steps:
            child = KernelState(shift=shift, offset=(state.offset + step) % spec.L)
            child_idx = index.setdefault(child, len(states))
            if child_idx == len(states):
                states.append(child)
            row.append(child_idx)
        if len(states) > max(finished, max_states):
            # The row added states past the cap (a row that adds none never
            # stops the closure): drop them with the row.
            del states[finished:]
            complete = False
            break
        if len(states) > budget:
            raise BudgetExceededError(f"{len(states)} kernel states exceed budget {budget}")
        transitions.append(tuple(row))
    return KernelResult(
        states=tuple(states),
        transitions=tuple(transitions),
        outputs=tuple(s.offset for s in states),
        complete=complete,
    )


def kernel_brute_force(spec: KappaSpec, e_max: int, horizon: int) -> dict:
    """Materialize all kernel subsequences a(k**e * n + j) to length horizon.

    Groups them by exact prefix equality; the group count is a lower
    bound on the kernel size.  Returns {prefix: [(e, j), ...]} with
    prefixes as tuples of ints, in first-seen order (e, then j).

    One digit-route word a(0 .. k**e_max * horizon - 1) holds them all:
    for n < horizon and j < k**e the index k**e * n + j runs over the
    first k**e * horizon indices in row-major order, so column j of that
    prefix read as a (horizon, k**e) matrix is the subsequence (e, j).
    """
    if e_max < 0 or horizon < 1:
        raise ValueError("need e_max >= 0 and horizon >= 1")
    size = spec.k**e_max * horizon
    check_budget(size)
    word = a_values(spec, np.arange(size, dtype=np.int64))
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    # Equal int64 columns have equal bytes: one tuple per distinct column.
    members: dict[bytes, list[tuple[int, int]]] = {}
    for e in range(e_max + 1):
        scale = spec.k**e
        columns = np.ascontiguousarray(word[: scale * horizon].reshape(horizon, scale).T)
        for j, column in enumerate(columns):
            key = column.tobytes()
            group = members.get(key)
            if group is None:
                group = members[key] = groups[tuple(column.tolist())] = []
            group.append((e, j))
    return groups
