"""Seeded input generation and reference answers, independent of gtmseq.

Nothing here imports the library: specs are generated as plain tables,
written to spec files by this module's own writer, and every answer a
correctness check needs (sequence values, periodicity verdicts, minimal
stammering index, automaton evaluation) is recomputed from the
definitions in the package README, not from the library's code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class Table:
    """A weight table kappa(s, y): k-1 rows, one column per stored y.

    Eventually periodic when ``window`` is None (preperiod y0, period p),
    otherwise defined only for y < window.
    """

    L: int
    k: int
    y0: int
    p: int | None
    rows: tuple[tuple[int, ...], ...]
    window: int | None = None

    def col_index(self, y: int) -> int:
        if self.window is not None:
            if y >= self.window:
                raise IndexError(y)
            return y
        return y if y < self.y0 else self.y0 + (y - self.y0) % self.p

    def column_count(self) -> int:
        return self.window if self.window is not None else self.y0 + self.p

    def kappa(self, s: int, y: int) -> int:
        return self.rows[s - 1][self.col_index(y)]

    def text(self, name: str) -> str:
        lines = [f"name = {name}", f"L = {self.L}", f"k = {self.k}"]
        if self.window is not None:
            lines.append(f"window = {self.window}")
        else:
            lines += [f"preperiod = {self.y0}", f"period = {self.p}"]
        lines.append("kappa =")
        lines += [" ".join(map(str, row)) for row in self.rows]
        return "\n".join(lines) + "\n"

    def spec_kwargs(self) -> dict:
        """Keyword arguments for the library's KappaSpec constructor."""
        return {"L": self.L, "k": self.k, "preperiod": self.y0, "period": self.p,
                "table": self.rows, "window": self.window}


# -- generators ----------------------------------------------------------

def random_table(rng: random.Random, L_max=6, k_max=5, y0_max=3, p_max=4, k=None) -> Table:
    L = rng.randint(2, L_max)
    k = rng.randint(2, k_max) if k is None else k
    y0 = rng.randint(0, y0_max)
    p = rng.randint(1, p_max)
    return shaped_table(rng, L, k, y0, p)


def shaped_table(rng: random.Random, L: int, k: int, y0: int, p: int) -> Table:
    """Random entries for a table of the given shape."""
    return Table(L, k, y0, p, tuple(tuple(rng.randrange(L) for _ in range(y0 + p))
                                    for _ in range(k - 1)))


def power_residue_cycle(k: int, L: int) -> tuple[int, int]:
    """(preperiod, cycle length) of k**y mod L."""
    seen: dict[int, int] = {}
    v, y = 1 % L, 0
    while v not in seen:
        seen[v] = y
        v, y = (v * k) % L, y + 1
    return seen[v], y - seen[v]


def periodic_table(rng: random.Random, L_max=6, k_max=5, A_max=2) -> Table:
    """Table built to meet the periodicity criterion at a shift A <= A_max."""
    L, k, A = rng.randint(2, L_max), rng.randint(2, k_max), rng.randint(0, A_max)
    c = rng.randrange(L)
    pre, cyc = power_residue_cycle(k, L)
    y0, p = A + pre, cyc
    columns = []
    for y in range(y0 + p):
        if y < A:
            columns.append([rng.randrange(L) for _ in range(1, k)])
        else:
            ky = pow(k, y - A, L)
            columns.append([(c * s * ky) % L for s in range(1, k)])
    rows = tuple(tuple(columns[y][s - 1] for y in range(y0 + p)) for s in range(1, k))
    return Table(L, k, y0, p, rows)


def window_table(rng: random.Random, max_index: int) -> Table:
    """Finite-window table whose window covers only indices below max_index."""
    L, k = rng.randint(2, 6), rng.randint(2, 6)
    W = 1
    while k ** (W + 1) <= max_index:
        W += 1
    W = rng.randint(1, W)
    rows = tuple(tuple(rng.randrange(L) for _ in range(W)) for _ in range(k - 1))
    return Table(L, k, 0, None, rows, window=W)


# -- reference answers ---------------------------------------------------

def values(t: Table, idx) -> np.ndarray:
    """a(n) for an array of indices, by summing kappa over base-k digits."""
    rem = np.array(idx, dtype=np.int64)
    acc = np.zeros(rem.shape, dtype=np.int64)
    y = 0
    while rem.any():
        column = np.array([0] + [t.kappa(s, y) for s in range(1, t.k)], dtype=np.int64)
        acc += column[rem % t.k]
        rem //= t.k
        y += 1
    return acc % t.L


def value(t: Table, n: int) -> int:
    """a(n) for one Python-int index."""
    total, y = 0, 0
    while n:
        n, d = divmod(n, t.k)
        if d:
            total += t.kappa(d, y)
        y += 1
    return total % t.L


def periodic_shift(t: Table) -> int | None:
    """Least shift A meeting kappa(s, A+y) == kappa(1, A)*s*k**y (mod L), or None.

    Both sides are eventually periodic in y (preperiods below y0 and L,
    periods p and at most L), so y < y0 + L + p*L decides every y.  A
    shift that works has a smaller twin below y0 + p, so the search over
    A stops there.
    """
    if t.window is not None:
        return None
    horizon = t.y0 + t.L + t.p * t.L
    for A in range(t.y0 + t.p):
        c = t.kappa(1, A)
        if all(t.kappa(s, A + y) == (c * s * pow(t.k, y, t.L)) % t.L
               for y in range(horizon) for s in range(1, t.k)):
            return A
    return None


def status(t: Table) -> str:
    if t.window is not None:
        return "UnknownUpToBound"
    return "NonPeriodic" if periodic_shift(t) is None else "Periodic"


def min_legal_m(N: int, l: int, k: int) -> int:
    """M + 1 for the least M with k**M > 2(N + l)."""
    M = 0
    while k**M <= 2 * (N + l):
        M += 1
    return M + 1


def word_str(vals) -> str:
    """The CLI's word format: digits run together, or space separated if any exceeds 9."""
    vals = [int(v) for v in vals]
    if all(v < 10 for v in vals):
        return "".join(map(str, vals))
    return " ".join(map(str, vals))


def horner(vals, beta: int) -> int:
    numerator = 0
    for v in vals:
        numerator = numerator * beta + int(v)
    return numerator


def series_brackets(t: Table, N: int, l: int, beta: int, digits: int,
                    lo: Fraction, hi: Fraction) -> bool:
    """[lo, hi] has width below 10**-digits and holds the partial sum of 2T terms.

    T is read off the interval itself: hi - lo must be exactly beta**-T.
    """
    width = hi - lo
    if width.numerator != 1 or not width < Fraction(1, 10**digits):
        return False
    T = 0
    while beta**T < width.denominator:
        T += 1
    if beta**T != width.denominator:
        return False
    vals = values(t, N + l * np.arange(2 * T, dtype=np.int64))
    partial = Fraction(horner(vals, beta), beta ** (2 * T))
    return lo <= partial <= hi


def dfao_prefixes(transitions, outputs, k: int, states, length: int) -> np.ndarray:
    """Output of each given state on n = 0..length-1, digits read least significant first."""
    trans = np.asarray(transitions, dtype=np.int64)
    out = np.asarray(outputs, dtype=np.int64)
    n = np.arange(length, dtype=np.int64)
    cur = np.repeat(np.asarray(states, dtype=np.int64)[:, None], length, axis=1)
    rem = np.broadcast_to(n, cur.shape).copy()
    while rem.any():
        cur = trans[cur, rem % k]
        rem //= k
    return out[cur]


def dfao_value(transitions, outputs, k: int, n: int) -> int:
    """Output of the automaton from state 0 on one Python-int n."""
    state = 0
    while n:
        n, d = divmod(n, k)
        state = transitions[state][d]
    return outputs[state]


def reachable(transitions, k: int, steps: int) -> set[int]:
    """States reachable from state 0 in at most ``steps`` digit reads."""
    seen = {0}
    for _ in range(steps):
        seen |= {transitions[s][d] for s in seen for d in range(k)}
    return seen


def window_periods(vals: np.ndarray, max_preperiod: int, max_period: int):
    """Least (period l, then preperiod) with vals[n] == vals[n+l] from the preperiod on."""
    for l in range(1, max_period + 1):
        mismatch = np.flatnonzero(vals[l:] != vals[:-l])
        start = 0 if mismatch.size == 0 else int(mismatch[-1]) + 1
        if start <= max_preperiod:
            return start, l
    return None


def expansion(n: int, k: int) -> list[tuple[int, int]]:
    terms, w = [], 0
    while n:
        n, s = divmod(n, k)
        if s:
            terms.append((s, w))
        w += 1
    return terms
