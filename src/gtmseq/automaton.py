"""k-kernel and subsequence automata as one DFAO closure.

A subsequence b(n) = a(N + l*n) is read, low digit first, by the DFAO
of ``subsequence_kernel``, whose states are (shift, carry, offset)
triples; shifts are ``canonical_column`` representatives in [0, y0 + p)
of the spec's normal form (minimal preperiod y0 and period p).

The k-kernel is the closure at (N, l) = (0, 1), ``kernel_explore``,
where every carry is 0: by disjoint digit support a(k**e * n + j) =
a_shift_e(n) + a(j) (mod L), so its at most (y0 + p) * L states are
(shift, 0, offset), and it is already the minimal DFAO.  Two distinct
states (c, o) and (c', o') differ at n = 0 if o != o'; otherwise c !=
c', their column streams differ at some w < y0 + p (see
``canonical_column``), and the states differ at n = s * k**w for an s
with kappa(s, w + c) != kappa(s, w + c').  Digits are read least
significant first and a trailing 0 digit never changes the output, so
Moore equivalence is equality of the functions, and a complete closure
has exactly as many states as the k-kernel has elements.  Minimality
is claimed at (0, 1) only.

``kernel_brute_force`` is an independent lower-bound oracle: it groups
equal subsequences up to a horizon from digit-route values alone and
never reads the closure's states.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import WindowExceededError
from .kappa import KappaSpec, _letter_sum, a_values, check_budget, word_budget

__all__ = [
    "KernelState",
    "KernelResult",
    "subsequence_kernel",
    "kernel_explore",
    "kernel_brute_force",
]

# Resident words per kernel_brute_force member, and per subsequence_kernel
# state, key with a carry and run of its move (their docstrings).
_MEMBER_WORDS = 17
_STATE_WORDS = 40
_KEY_WORDS = 64
_RUN_WORDS = 20


class KernelState(NamedTuple):
    """Denotes the function n -> offset + a_shift(carry + l*n) mod L for the closure's l."""

    shift: int
    offset: int
    carry: int = 0


@dataclass(frozen=True)
class KernelResult:
    """Kernel closure: states, per-digit transitions, and the output map.

    ``outputs[i]`` is the state's value at remaining index 0, its offset
    plus a_shift(carry).  When ``complete`` at (N, l) = (0, 1), ``len`` is
    the exact k-kernel size (the closure is minimal).  ``complete`` is
    False when exploration stopped at max_states or at a finite window;
    that is evidence, never proof, of non-automaticity.
    """

    states: tuple[KernelState, ...]
    transitions: tuple[tuple[int, ...], ...]
    outputs: tuple[int, ...]
    complete: bool

    def __len__(self) -> int:
        return len(self.states)


def subsequence_kernel(spec: KappaSpec, N: int, l: int, max_states: int = 4096) -> KernelResult:
    """Close b(n) = a(N + l*n) under the k digit-reading maps.

    State (c, r, o) denotes n -> o + a_c(r + l*n) mod L, where a_c sums
    kappa(s, w + c) over the terms s * k**w of its argument.  Reading
    digit j of n, it goes to (canonical_column(c + 1), v // k, o +
    kappa(v mod k, c)), v = r + l*j, kappa(0, .) = 0, as r + l*(j + k*n)
    = v mod k + k * (v // k + l*n).  The root is (canonical_column(0), N,
    0); a state's output, its value at n = 0, is o + a_c(r), computed
    once per (c, r) key, after its digit-0 child key: a_c(r) = kappa(r
    mod k, c) + a_c'(r // k), c' = canonical_column(c + 1), a_c(0) = 0.
    The closure is minimal at (0, 1) only (module docstring); elsewhere
    no state is merged.

    At most (len_k(N) + y0 + p) * (l + 1) * L states arise, with len_k(N)
    = ``_numeral_length(N, k)`` (y0 + p = window + 1 for a finite window).
    By induction on d, the state reached by the d digits of m < k**d has
    column canonical_column(d) and carry floor((N + l*m) / k**d), in
    [floor(N / k**d), floor(N / k**d) + l]: l + 1 carries and L offsets.
    That bounds each of the len_k(N) depths below len_k(N); from there on
    the carry lies in [0, l] and the column among y0 + p representatives.

    The closure stops, incomplete, when a row's new states would pass
    ``max_states`` or a state's column lies past a finite window.  It then
    drops that row with the states it added, so every state but the root
    is the target of a recorded transition.  At (0, 1) no output reads a
    column; elsewhere an output that needs a column past a finite window
    raises WindowExceededError.  N < 0, l < 1 and a ``max_states`` below
    1 are ValueErrors; numpy integers are read as Python ints.

    Each state is charged ``_STATE_WORDS`` + k = 40 + k words, each key
    (c, r) with r > 0 ``_KEY_WORDS`` = 64 plus bits(r) // 60 (an int holds
    30 bits per 4 bytes), and its move 2k plus ``_RUN_WORDS`` = 20 per run
    of digits; a closure past ``word_budget()`` fails ``check_budget``.
    Closures stopped by the default budget or complete just below it
    peaked at 0.78-0.95 of those words at (0, 1) (VmHWM above the import,
    k = 2..50, 88k-190k states), and at 0.35-0.92 with carries (k =
    2..50, N = 10**100 and 10**4000, l up to 10**30).
    """
    N, l, max_states = operator.index(N), operator.index(l), operator.index(max_states)
    if max_states < 1:
        raise ValueError(f"max_states must be >= 1, got {max_states}")
    if N < 0 or l < 1:
        raise ValueError(f"need N >= 0 and l >= 1, got N={N}, l={l}")
    k, L = spec.k, spec.L
    root = spec.canonical_column(0), N
    states = [KernelState(root[0], 0, N)]
    index = {root: (root, {0: 0})}  # {(shift, carry): (that key, {offset: state index})}
    moves: dict[tuple[int, int], list] = {}  # {(shift, carry): [(child key, its dict, steps)]}
    transitions: list[tuple[int, ...]] = []
    complete = True
    state_words, budget = _STATE_WORDS + k, word_budget()
    charged = _KEY_WORDS + N.bit_length() // 60 if N else 0  # keys with a carry, their moves
    admitted = (budget - charged) // state_words
    for shift, offset, carry in states:  # grows while iterated, so the order is breadth-first
        move = moves.get((shift, carry))
        if move is None:
            try:
                column = (0,) + spec.column(shift)
            except WindowExceededError:
                # Finite-window spec ran out of columns: inconclusive.
                complete = False
                break
            child_shift = spec.canonical_column(shift + 1)
            move = moves[shift, carry] = []
            j = 0  # digit j reads v = carry + l*j: child carry v // k, step kappa(v % k, shift)
            while j < k:  # v // k never decreases in j; the run of digits sharing it steps by l
                child_carry, digit = divmod(carry + l * j, k)
                key, steps = (child_shift, child_carry), column[digit::l][: k - j]
                if child_carry and key not in index:
                    charged += _KEY_WORDS + child_carry.bit_length() // 60
                move.append(index.setdefault(key, (key, {})) + (steps,))
                j += len(steps)
            if carry:
                charged += 2 * k + _RUN_WORDS * len(move)
            admitted = (budget - charged) // state_words
        finished = len(states)
        row = []
        for (child_shift, child_carry), children, steps in move:
            for step in steps:
                child = (offset + step) % L
                child_idx = children.get(child)
                if child_idx is None:
                    child_idx = children[child] = len(states)
                    states.append(KernelState(child_shift, child, child_carry))
                row.append(child_idx)
        if len(states) > max(finished, max_states):
            # The row added states past the cap (a row that adds none never
            # stops the closure): drop them with the row.
            del states[finished:]
            complete = False
            break
        if len(states) > admitted:
            check_budget(len(states) * state_words + charged)
        transitions.append(tuple(row))
    outputs = [s.offset for s in states]
    heads: dict[tuple[int, int], int] = {}  # {(shift, carry): a_shift(carry)}
    for key, children in index.values():
        kept = [(offset, i) for offset, i in children.items() if i < len(states)] if key[1] else ()
        if not kept:
            continue
        chain = []  # the keys down to one already summed, their columns read low first
        while key[1] and key not in heads:
            shift, carry = key
            carry, digit = divmod(carry, k)
            chain.append((key, spec.column(shift)[digit - 1] if digit else 0))
            child = spec.canonical_column(shift + 1), carry
            key = index.get(child, (child,))[0]  # the index's own key: no carry is copied
        head = heads.get(key, 0)
        for key, step in reversed(chain):
            head = heads[key] = (head + step) % L
        for offset, i in kept:
            outputs[i] = (offset + head) % L
    return KernelResult(
        states=tuple(states),
        transitions=tuple(transitions),
        outputs=tuple(outputs),
        complete=complete,
    )


def kernel_explore(spec: KappaSpec, max_states: int = 4096) -> KernelResult:
    """The k-kernel of a: the minimal DFAO, ``subsequence_kernel`` at (N, l) = (0, 1)."""
    return subsequence_kernel(spec, 0, 1, max_states)


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
    tail rows e = e_max .. 0 and then the k**e_max heads in rows of
    horizon values, tail row 0 their first, about k**e_max + e_max *
    horizon values in place of k**e_max * horizon, and the digit positions
    of k**e_max * horizon - 1, the largest index of the subsequences, so a
    finite window fails exactly when that index has more digits than it.

    The budget is charged the k**e_max * horizon values the subsequences
    stand for plus ``_MEMBER_WORDS`` = 17 words for each of the (k**(e_max
    + 1) - 1) / (k - 1) ``(e, j)`` members of the result.  A member's
    tuple, list slot and int, with its share of the heads, peaked at
    105-132 bytes of resident memory (ru_maxrss over 0.1-1.1M members,
    k = 2..10, horizon 1), below 17 words of 8 bytes.
    """
    e_max, horizon = operator.index(e_max), operator.index(horizon)
    if e_max < 0 or horizon < 1:
        raise ValueError("need e_max >= 0 and horizon >= 1")
    k, L = spec.k, spec.L
    check_budget(k**e_max * horizon + _MEMBER_WORDS * ((k ** (e_max + 1) - 1) // (k - 1)))
    top = k**e_max
    starts = [0] * e_max + list(range(0, top, horizon))
    strides = [k**e for e in range(e_max, 0, -1)] + [1] * (len(starts) - e_max)
    # Every value lies in [0, L): the narrowest unsigned dtype holding L - 1
    # keeps each one, gives equal rows equal bytes and sorts by radix.
    values = a_values(spec, starts, strides, horizon).astype(np.min_scalar_type(L - 1))
    heads, tails = values[e_max:].ravel()[:top], values[e_max::-1]
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
    keys = np.array(list(members))
    prefixes = _letter_sum(tails[keys[:, 0]], class_heads[keys[:, 1], None], L)
    return {tuple(prefix): group for prefix, group in zip(prefixes.tolist(), members.values())}
