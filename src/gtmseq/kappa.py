"""Sequence definitions over a finite description of the digit-weight map.

A ``KappaSpec`` describes a map kappa(s, y) -> Z_L on digit values
s in [1, k-1] and digit positions y >= 0, either as an eventually
periodic table (preperiod y0, period p) or as a finite window that hard
errors beyond its bound.  The sequence it induces is

    a(n) = sum over expansion terms (s, y) of n of kappa(s, y)  (mod L),

which this module evaluates pointwise, in vectorized batches, and by the
equivalent word substitution (prefix doubling by factor k per step).
Letters are residue indices 0..L-1; the corresponding complex roots of
unity are never materialized.

``a_values`` reads c digit positions per pass through chunk tables:
entry t of a block's table sums kappa over the base-k digits of t at the
block's positions, so a block costs one floor division by k**c and one
gather (the last gathers by the quotient).  numpy floors by a scalar
divisor with libdivide but runs ``%`` and ``divmod`` element by element,
so the digit is taken as ``rem - quot * k**c`` and every reduction mod L
as ``x - x // L * L`` (``_reduce_mod``).  Slabs of 2**14 indices bound
its working memory beyond the input and output and keep it in cache.  It
shares no code with ``generate_prefix_morphic``, the independent oracle.

A spec's chunk tables are built once and kept on the spec: a call that
needs more digit positions than earlier calls extends them, and every
other call only reads them.  Indices lie below 2**63, so a spec holds at
most 6 * max(k, 4096) int64 entries, 192 KiB for k <= 4096; for k > 4096
a block is one digit position and each table has k entries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetExceededError, WindowExceededError

__all__ = [
    "KappaSpec",
    "SequenceWindow",
    "a_of_n",
    "a_values",
    "check_budget",
    "equally_spaced",
    "generate_prefix_morphic",
    "spaced_indices",
    "word_budget",
]

_DEFAULT_BUDGET = 8_000_000
_SLAB = 2**14


def word_budget() -> int:
    """Maximum in-memory word/array length, from GTMSEQ_BUDGET if set.

    Raises ValueError unless the variable is an integer of at least 1: a
    budget that admits nothing is bad usage, not an exceeded budget.
    """
    raw = os.environ.get("GTMSEQ_BUDGET", _DEFAULT_BUDGET)
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"GTMSEQ_BUDGET must be an integer, got {raw!r}") from None
    if budget < 1:
        raise ValueError(f"GTMSEQ_BUDGET must be at least 1, got {raw!r}")
    return budget


def check_budget(count: int) -> None:
    """Raise BudgetExceededError if materializing ``count`` values exceeds word_budget()."""
    budget = word_budget()
    if count > budget:
        # Python refuses str() of an int past 4,300 digits, so a huge count is given by size.
        bits = int(count).bit_length()
        shown = count if bits <= 64 else f"2**{bits - 1} or more"
        raise BudgetExceededError(f"{shown} values exceed budget {budget}")


def spaced_indices(start: int, stride: int, count: int) -> np.ndarray:
    """int64 array of start + n*stride for n = 0..count-1, budget-checked.

    Raises ValueError unless start >= 0, stride >= 1 and count >= 0, and
    when an index would reach 2**63, which int64 cannot hold, instead of
    letting it wrap around.  With count <= 1 the stride reaches no index,
    so any stride is accepted.
    """
    if start < 0 or stride < 1 or count < 0:
        raise ValueError("need start >= 0, stride >= 1, count >= 0")
    check_budget(count)
    if count <= 1:
        stride = 0
    last = start + stride * (count - 1)
    if last >= 2**63:
        raise ValueError(f"index {last} reaches 2**63, beyond int64 indices")
    return start + stride * np.arange(count, dtype=np.int64)


@dataclass(frozen=True)
class KappaSpec:
    """Finite description of kappa: {1..k-1} x N -> Z_L, 2 <= L <= 2**57.

    ``table`` has k-1 rows (s = 1..k-1) and ``preperiod + period``
    columns; column y for y >= preperiod is read from
    ``preperiod + (y - preperiod) % period``.  A finite-window spec has
    ``period=None``, preperiod 0 and exactly ``window`` columns; queries at
    y >= window raise WindowExceededError, never extend silently.

    The declared (preperiod, period) need not be minimal; columns are
    looked up through ``normal_form``, the minimal pair, and
    ``canonical_column``, so equal column streams share one index.
    ``column`` is the one reader of the table, and so the one place
    that checks the window.
    """

    L: int
    k: int
    preperiod: int
    period: int | None
    table: tuple[tuple[int, ...], ...]
    window: int | None = None
    name: str | None = None

    def __post_init__(self):
        # a_values sums up to 63 letters below L in int64: 63*(L-1) < 2**63
        if not 2 <= self.L <= 2**57:
            raise ValueError(f"L must lie in [2, 2**57], got {self.L}")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if len(self.table) != self.k - 1:
            raise ValueError(
                f"table must have {self.k - 1} rows (s = 1..k-1), got {len(self.table)}"
            )
        if self.period is None:
            if self.window is None or self.window < 1:
                raise ValueError("finite-window spec needs window >= 1")
            if self.preperiod:
                raise ValueError("finite-window spec takes preperiod 0")
            cols = self.window
        else:
            if self.window is not None:
                raise ValueError("give either period or window, not both")
            if self.preperiod < 0 or self.period < 1:
                raise ValueError("need preperiod >= 0 and period >= 1")
            cols = self.preperiod + self.period
        for row in self.table:
            if len(row) != cols:
                raise ValueError(f"each table row must have {cols} columns")
            for v in row:
                if not 0 <= v < self.L:
                    raise ValueError(f"table entry {v} outside [0, {self.L - 1}]")

    @property
    def is_finite_window(self) -> bool:
        return self.period is None

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.table))

    @cached_property
    def normal_form(self) -> tuple[int, int] | None:
        """Minimal (preperiod, period) of the column stream kappa(., y).

        None for a finite-window spec, which claims no eventual period.
        The minimal period divides the declared one; the preperiod then
        shrinks while the column just before it repeats one period on.
        """
        if self.is_finite_window:
            return None
        cols = self._columns
        pre, p = self.preperiod, self.period
        period = next(
            d for d in range(1, p + 1)
            if p % d == 0 and all(cols[pre + i] == cols[pre + i % d] for i in range(p))
        )
        while pre and cols[pre - 1] == cols[pre - 1 + period]:
            pre -= 1
        return pre, period

    def canonical_column(self, y: int) -> int:
        """Representative of column y in [0, y0 + p) of the normal form (y0, p).

        The column streams kappa(., y + t) and kappa(., canonical + t),
        t >= 0, are equal, and two distinct representatives always have
        distinct streams: if the streams from e1 < e2 agreed, the stream
        would be purely periodic from e1 with period e2 - e1, so e1 >= y0
        and p would divide e2 - e1 < p.  A finite-window spec has no
        period, so every y represents itself.
        """
        form = self.normal_form
        if form is None or y < form[0]:
            return y
        return form[0] + (y - form[0]) % form[1]

    def column(self, y: int) -> tuple[int, ...]:
        """kappa(., y) as a tuple over s = 1..k-1."""
        if y < 0:
            raise ValueError(f"y must be >= 0, got {y}")
        if self.is_finite_window and y >= self.window:
            raise WindowExceededError(
                f"kappa queried at y={y} but window bound is {self.window}"
            )
        return self._columns[self.canonical_column(y)]

    def kappa(self, s: int, y: int) -> int:
        if not 1 <= s <= self.k - 1:
            raise ValueError(f"s must lie in [1, {self.k - 1}], got {s}")
        return self.column(y)[s - 1]


@dataclass(frozen=True)
class SequenceWindow:
    """Equally spaced slice values[n] = a(start + n*stride) of some spec's sequence."""

    start: int
    stride: int
    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)


def _reduce_mod(x: np.ndarray, m: int) -> np.ndarray:
    """Reduce the int64 array x mod m >= 1 in place, as x - x // m * m; return x.

    Precondition: every entry is >= m - 2**63.  Then x // m * m, which
    lies in (x - m, x], cannot wrap, and the result is np.remainder(x, m),
    without its per-element division (module docstring).  Entries near
    -2**63 need np.remainder.
    """
    x -= x // m * m
    return x


def a_of_n(spec: KappaSpec, n: int) -> int:
    """Digit-counting value: sum of kappa over the expansion terms of n, mod L."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    k = spec.k
    total = 0
    y = 0
    while n:
        n, d = divmod(n, k)
        if d:
            total += spec.column(y)[d - 1]
        y += 1
    return total % spec.L


def _chunk_tables(spec: KappaSpec, digits: int) -> tuple[np.ndarray, ...]:
    """The chunk tables that cover digit positions below ``digits``.

    Built once per spec: the tables and the count of positions they
    cover are kept on the spec as one ``(tables, positions)`` value, and
    a call past that count goes on from where the last one stopped, in a
    new list, and publishes the result with one assignment, so another
    thread sees the old tables or the new ones, never a half-extended
    list.  The arrays are read-only.  Every column below ``digits`` is
    read here or was read by an earlier call, so a finite window fails
    exactly when ``digits`` passes it, and a failed call keeps the old
    value.  Returns the first ceil(digits / c) tables.
    """
    k = spec.k
    width = 1
    while k ** (width + 1) <= 4096:
        width += 1
    tables, positions = spec.__dict__.get("_chunk_tables", ((), 0))
    if positions < digits:
        grown = list(tables)
        for y in range(positions, digits):
            column = np.array((0,) + spec.column(y), dtype=np.int64)
            if y % width:
                # Entry d * old size + r: digit d at position y, entry r below.
                grown[-1] = np.add.outer(column, grown[-1]).ravel()
            else:
                grown.append(column)
        for table in grown[positions // width :]:
            table.setflags(write=False)
        tables = tuple(grown)
        spec.__dict__["_chunk_tables"] = (tables, digits)
    return tables[: -(-digits // width)]


def a_values(spec: KappaSpec, indices) -> np.ndarray:
    """Vectorized a_of_n over an array of non-negative indices.

    Chunk tables (module docstring) of k**c <= 4096 entries, kept on the
    spec (``_chunk_tables``); a call reads the tables up to its largest
    index's digit count, so small indices gather from few tables.  A
    slab sums at most 63 entries below L <= 2**57 before its one
    reduction mod L, so the sum stays below 2**63.
    """
    idx = np.asarray(indices, dtype=np.int64)
    out = np.zeros(idx.size, dtype=np.int64)
    if idx.size and idx.min() < 0:
        raise ValueError("indices must be >= 0")
    k = spec.k
    top, digits = int(idx.max(initial=0)), 0
    while top:
        top, digits = top // k, digits + 1
    tables = _chunk_tables(spec, digits)
    flat = idx.ravel()
    for lo in range(0, idx.size if tables else 0, _SLAB):
        acc, rem = out[lo : lo + _SLAB], flat[lo : lo + _SLAB]
        for table in tables[:-1]:
            quot = rem // table.size
            acc += table[rem - quot * table.size]
            rem = quot
        acc += tables[-1][rem]
        _reduce_mod(acc, spec.L)
    return out.reshape(idx.shape)


def generate_prefix_morphic(spec: KappaSpec, m: int) -> np.ndarray:
    """Prefix of length k**m by word substitution, as an int64 array.

    Starts from [0]; step y replaces the word w by the k blocks
    w + kappa(s, y) mod L, s = 0..k-1 with kappa(0, y) = 0.  The one
    substitution kernel; the word lists the root-of-unity exponents of the
    coefficients of prod_{y<m} (1 + sum_s zeta**kappa(s,y) * z**(s*k**y)).

    The word is built in the narrowest unsigned dtype that holds a sum
    2L - 2 of two letters.  There x - L wraps above x when x < L, so
    min(x, x - L) is x mod L, without numpy's per-element remainder.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m:
        spec.column(m - 1)  # a finite window fails here, before the budget
    check_budget(spec.k**m)
    dtype = np.min_scalar_type(2 * spec.L - 2)
    L = dtype.type(spec.L)
    word = np.zeros(1, dtype=dtype)
    for y in range(m):
        word = np.add.outer(np.array((0,) + spec.column(y), dtype=dtype), word).ravel()
        np.minimum(word, word - L, out=word)
    return word.astype(np.int64)


def equally_spaced(spec: KappaSpec, start: int, stride: int, count: int) -> SequenceWindow:
    """Window of a(start + n*stride) for n = 0..count-1."""
    vals = a_values(spec, spaced_indices(start, stride, count))
    return SequenceWindow(start=start, stride=stride, values=tuple(vals.tolist()))
