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

``a_values`` reads windows a(start + n*stride) as base-D limbs, D =
k**c <= max(k, 4096): limb i of an index looks up the chunk table of
digit positions i*c .. i*c + c - 1, whose entry t sums kappa over the
base-k digits of t there, mod L.  numpy floors by a scalar divisor with
libdivide but runs ``%`` and ``divmod`` element by element, so a limb
is split off as ``x - x // D * D`` and every reduction mod L is
``_reduce_mod``.  Slabs of 2**14 values bound its working memory beyond
the output and keep it in cache.  It shares no code with
``generate_prefix_morphic``, the independent oracle.

A spec keeps its chunk tables by the canonical column they start at: at
most y0 + p of them (ceil(window / c) for a finite window) of D int64
entries, 32 KiB each for k <= 4096, however long the index.
"""

from __future__ import annotations

import itertools
import operator
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
        # a_values sums 63 letters and a residue below L in int64: 64*(L-1) < 2**63
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
    def _chunk(self) -> tuple[int, int]:
        """(c, k**c): a_values' limb width c >= 1, the most with k**c <= 4096."""
        c = max(1, _numeral_length(4096, self.k) - 1)
        return c, self.k**c

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


def _letter_sum(x: np.ndarray, y: np.ndarray, L: int) -> np.ndarray:
    """(x + y) mod L for arrays of letters in [0, L), broadcast together, in
    the narrowest unsigned dtype that holds 2L - 2: there x - L wraps above
    x when x < L, so min(x, x - L) is x mod L, without a per-element ``%``.
    """
    dtype = np.min_scalar_type(2 * L - 2)
    total = np.add(x.astype(dtype, copy=False), y.astype(dtype, copy=False))
    np.minimum(total, total - dtype.type(L), out=total)
    return total


def _ladder(n: int, k: int) -> list[int]:
    """[k, k**2, k**4, ...] up to the first power above n: the one reader of base-k numerals."""
    if k < 2:
        raise ValueError(f"base k must be >= 2, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    powers = [k]
    while powers[-1] <= n:
        powers.append(powers[-1] ** 2)
    return powers


def _digits(n: int, k: int) -> list[int]:
    """The base-k digits of n, least significant first, zero-padded to 2**i:
    n split by the ladder's powers, largest first (Brent & Zimmermann, 1.7)."""
    digits = [n]
    for p in reversed(_ladder(n, k)[:-1]):
        digits = [part for x in digits for part in divmod(x, p)[::-1]]
    return digits


def _numeral_length(n: int, k: int) -> int:
    """Least m with k**m > n, the base-k digit count of n (0 for n = 0): k**m
    takes each power down the ladder that keeps it at most n, with no division."""
    powers = _ladder(n, k)
    m, power = 0, 1
    for i in reversed(range(len(powers) - 1)):
        step = power * powers[i]
        if step <= n:
            m, power = m + (1 << i), step
    return m + (power <= n)


def _digit_words(base: int) -> int:
    """The 64-bit words one base-``base`` digit costs: ceil(bits / 64)."""
    return -(-base.bit_length() // 64)


def _shifted_sum(spec: KappaSpec, n: int, shift: int) -> int:
    """a_shift(n): the sum of kappa(s, y + shift) over the terms s * k**y of
    n's base-k expansion, mod L.  A zero digit reads no column."""
    terms = enumerate(_digits(n, spec.k), shift)  # (position + shift, digit)
    return sum(spec.column(y)[s - 1] for y, s in terms if s) % spec.L


def a_of_n(spec: KappaSpec, n: int) -> int:
    """a(n): the sum of kappa(s, y) over the terms s * k**y of n's base-k expansion, mod L."""
    return _shifted_sum(spec, n, 0)


def _chunk_table(spec: KappaSpec, y: int) -> np.ndarray:
    """The read-only chunk table of digit positions y .. y + c - 1 (module
    docstring), cut at a finite window.  It depends on the column stream
    from y alone, so it is kept on the spec under ``canonical_column(y)``,
    stored whole in one assignment: threads never see half a table."""
    y = spec.canonical_column(y)
    tables = spec.__dict__.setdefault("_chunk_tables", {})
    if y not in tables:
        table = np.zeros(1, dtype=np.int64)
        for z in range(y, min(y + spec._chunk[0], spec.window or y + spec._chunk[0])):
            # Entry d * old size + r: digit d at position z, entry r below.
            table = np.add.outer(np.array((0,) + spec.column(z), dtype=np.int64), table).ravel()
        _reduce_mod(table, spec.L).setflags(write=False)
        tables[y] = table
    return tables[y]


def _window_end(start: int, stride: int, count: int) -> int:
    """The last index start + (count - 1) * stride of a window (0 if empty), after its
    checks: ValueError unless start, stride - 1 and count are >= 0, then the budget."""
    if start < 0 or stride < 1 or count < 0:
        raise ValueError("need start >= 0, stride >= 1, count >= 0")
    check_budget(count)
    return start + stride * (count - 1) if count else 0


def a_values(spec: KappaSpec, start, stride, count: int) -> np.ndarray:
    """a(start + n*stride) for n < count, as an int64 array.

    ``start`` and ``stride`` are Python ints of any size, for one window of
    ``count`` values charged to the budget, or sequences of ints, for one
    row of ``count`` values per entry, which their caller budgets.  Raises
    ValueError unless every start >= 0, every stride >= 1 and count >= 0,
    or when an index of a row reaches 2**63, past int64.  A finite window
    fails exactly when the largest index has more digits than it.
    """
    if isinstance(start, int) and isinstance(stride, int):
        end, rows = _window_end(start, stride, count), 1
        # no index is read from an empty window, nor the stride of one value
        start, stride = start if count else 0, stride if count > 1 else 0
    else:
        # Rows are checked in Python ints, which cannot wrap around.
        starts, strides = (x.tolist() if isinstance(x, np.ndarray) else x for x in (start, stride))
        if count < 0 or min(starts, default=0) < 0 or min(strides, default=1) < 1:
            raise ValueError("need start >= 0, stride >= 1, count >= 0")
        last = [d * (count - 1) for d in strides] if count else []
        end = max(map(operator.add, starts, last), default=0)
        if end >= 2**63:
            raise ValueError(f"index {end} reaches 2**63, beyond int64 indices")
        start, stride = (np.asarray(x, dtype=np.int64)[:, None] for x in (start, stride))
        rows = max(start.size, stride.size)
    c, D = spec._chunk
    digits = max(_numeral_length(end, spec.k), 1)
    spec.column(digits - 1)  # a finite window fails here
    tables = [_chunk_table(spec, y) for y in range(0, digits, c)]
    # Limb i of start + n*stride is start_i + stride_i * n plus the carry out
    # of limb i - 1 (Knuth 4.3.1, Algorithms A and M), and the top limb is
    # below D.  Below 2**63 limb 0 takes all of start and stride.
    limbs = [(start, stride)] if end < 2**63 else list(
        itertools.zip_longest(_digits(start, D), _digits(stride, D), fillvalue=0))
    width = max(_SLAB // max(rows, 1), 1)
    slabs = []
    for lo in range(0, max(count, 1), width):
        n = np.arange(lo, min(lo + width, count), dtype=np.int64)
        carry = limbs[0][1] * n + limbs[0][0]
        for i, (table, (s, d)) in enumerate(zip(tables, limbs + [(0, 0)] * len(tables))):
            limb = carry + d * n + s if i and (d or s) else carry
            if i < len(tables) - 1:
                carry = limb // D
                limb -= carry * D
            acc = np.add(acc, table[limb], out=acc) if i else table[limb]
            if i % 63 == 62:
                _reduce_mod(acc, spec.L)
        slabs.append(_reduce_mod(acc, spec.L) if len(tables) > 1 else acc)
    return slabs[0] if len(slabs) == 1 else np.concatenate(slabs, axis=-1)


def generate_prefix_morphic(spec: KappaSpec, m: int) -> np.ndarray:
    """Prefix of length k**m by word substitution, as an int64 array.

    Starts from [0]; step y replaces the word w by the k blocks
    w + kappa(s, y) mod L, s = 0..k-1 with kappa(0, y) = 0.  The one
    substitution kernel; the word lists the root-of-unity exponents of the
    coefficients of prod_{y<m} (1 + sum_s zeta**kappa(s,y) * z**(s*k**y)).
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m:
        spec.column(m - 1)  # a finite window fails here, before the budget
    check_budget(spec.k**m)
    word = np.zeros(1, dtype=np.int64)
    for y in range(m):
        word = _letter_sum(np.array((0,) + spec.column(y))[:, None], word, spec.L).ravel()
    return word.astype(np.int64)


def equally_spaced(spec: KappaSpec, start: int, stride: int, count: int) -> SequenceWindow:
    """Window of a(start + n*stride) for n = 0..count-1."""
    vals = a_values(spec, start, stride, count)
    return SequenceWindow(start=start, stride=stride, values=tuple(vals.tolist()))
