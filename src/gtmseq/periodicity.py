"""Deciding ultimate periodicity.

The sequence of a ``KappaSpec`` is ultimately periodic iff there is a
shift A with

    kappa(s, A + y) == kappa(1, A) * s * k**y  (mod L)

for every digit s and every y >= 0, in which case L * k**A is a period.
The right side at y + 1 is k times the right side at y, so once the
congruence holds at y - 1 for every s, it holds at y exactly when column
A + y steps from column A + y - 1 by the factor k mod L.  A shift A is
therefore refuted either at y = 0 (column A is not s * kappa(1, A)) or
at the first column y' >= A whose next column is not k times it, and
then at y = y' + 1 - A.  In the normal form (y0, p) A's orbit through
the canonical columns closes after n = max(y0 - A, 0) + p steps, every
later step is one already seen, so a step failing past y = n fails
earlier too and checking y = 0 .. n decides A, whatever L and the
order of k mod L.
A itself only needs to range over [0, y0 + p): for A >= y0 the left
side depends on A through (A - y0) mod p alone, and so does kappa(1, A).

The module also carries the window-scan oracles: a batched least-period
search over finite words and the grid scan over equally spaced
subsequences.  With S_j = sum over i < j of u[i] * B**i for the suffix u
of a word, m = len(u) and the prime P = 2**31 - 1, u has period l only if
S_m - S_l == B**l * S_{m-l} (mod P).  Each word's least such l is then
checked exactly, which gives the least N or rejects a hash collision.
(Wrap-around mod 2**64 is avoided: Thue-Morse blocks collide there.)
Letters outside [0, P) are first reduced with ``np.remainder``, since
they may lie near -2**63.  The other reductions mod P (of the terms
u[i] * B**i, of S_{m-l}, and the test of the difference) take
``kappa._reduce_mod``: their operands lie in [0, 2**62), in [0, m * P)
and above -(2**62 + m * P), far from -2**63 for any m that fits in
memory.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .kappa import KappaSpec, _reduce_mod, _window_end, a_values, word_budget

__all__ = [
    "PeriodicityVerdict",
    "classify",
    "brute_force_period",
    "aenp_scan",
]

PERIODIC = "Periodic"
NON_PERIODIC = "NonPeriodic"
UNKNOWN = "UnknownUpToBound"

_MODULUS = 2**31 - 1  # P and B of the module docstring
_BASE = 1_000_003


@dataclass(frozen=True)
class PeriodicityVerdict:
    """Outcome of the periodicity criterion.

    Periodic carries the shift A and the (not necessarily minimal)
    period L * k**A, plus ``checked_window``: the congruence was
    verified for every column index A + y below it, that is up to
    A + max(y0 - A, 0) + p for the normal form (y0, p), which decides it
    for all y.  NonPeriodic carries, per candidate shift A, the first
    (s, y) refuting it.  UnknownUpToBound is the honest answer for
    finite-window specs.
    """

    status: str
    shift: int | None = None
    period: int | None = None
    checked_window: int | None = None
    refutations: tuple[tuple[int, int, int], ...] = ()
    bound: int | None = None

    @property
    def is_periodic(self) -> bool:
        return self.status == PERIODIC

    @property
    def is_non_periodic(self) -> bool:
        return self.status == NON_PERIODIC


def classify(spec: KappaSpec) -> PeriodicityVerdict:
    """Decide ultimate periodicity of the spec's sequence.

    One backward pass over the normal-form columns y < y0 + 2p finds,
    for each y, the first step at or after it that fails (module
    docstring); each declared shift A then reads its verdict from column
    A and that table, so the cost is linear in the column counts and
    does not depend on L.

    Finite-window specs cannot be decided (the criterion quantifies over
    all y); they yield UnknownUpToBound with the window as bound, and no
    column is read.  The verdict is kept on the spec, as
    ``kappa._chunk_table`` keeps its tables, so it is decided once per spec.
    """
    verdict = spec.__dict__.get("_verdict")
    if verdict is None:
        verdict = spec.__dict__["_verdict"] = _decide(spec)
    return verdict


def _decide(spec: KappaSpec) -> PeriodicityVerdict:
    """``classify``'s verdict, worked out afresh."""
    if spec.is_finite_window:
        return PeriodicityVerdict(status=UNKNOWN, bound=spec.window)
    L, k = spec.L, spec.k
    y0, p = spec.normal_form
    # failing[y]: the least y' >= y with kappa(s, y' + 1) != k * kappa(s, y')
    # mod L, as (y', least such s); None when no such y' < y0 + 2p - 1.
    cols = [spec.column(y) for y in range(y0 + 2 * p)]
    failing = [None] * len(cols)
    for y in range(len(cols) - 2, -1, -1):
        pairs = enumerate(zip(cols[y], cols[y + 1]), 1)
        s = next((s for s, (u, v) in pairs if v != k * u % L), None)
        failing[y] = failing[y + 1] if s is None else (y, s)
    refutations = []
    for A in range(spec.preperiod + spec.period):
        col = spec.column(A)
        s = next((s for s, v in enumerate(col, 1) if v != col[0] * s % L), None)
        a = spec.canonical_column(A)
        if s is not None:
            refutations.append((A, s, 0))
        elif failing[a]:
            # Steps repeat with period p from y0 on, so this first failing
            # step lies inside a's orbit: y < a + max(y0 - a, 0) + p.
            y, s = failing[a]
            refutations.append((A, s, y + 1 - a))
        else:
            return PeriodicityVerdict(
                status=PERIODIC,
                shift=A,
                period=L * k**A,
                checked_window=A + max(y0 - A, 0) + p + 1,
            )
    return PeriodicityVerdict(status=NON_PERIODIC, refutations=tuple(refutations))


@functools.lru_cache(maxsize=8)
def _powers(size: int, modulus: int) -> np.ndarray:
    """_BASE**i mod modulus for i < size, read-only as windows share it."""
    powers = np.array([1 % modulus], dtype=np.int64)
    while powers.size < size:
        powers = np.concatenate((powers, powers * pow(_BASE, powers.size, modulus) % modulus))
    powers = powers[:size].copy()
    powers.flags.writeable = False
    return powers


def _window_periods(windows: np.ndarray, max_preperiod: int, max_period: int) -> list:
    """brute_force_period of each row of a 2-D int64 array, in one pass.

    The hash filter and exact check of the module docstring; Python loops
    only over the rows that verify and over collisions.
    """
    rows, n = windows.shape
    if n < max_preperiod + 2 * max_period:
        raise ValueError(
            f"need at least max_preperiod + 2*max_period = "
            f"{max_preperiod + 2 * max_period} values, got {n}"
        )
    first = max(max_preperiod, 0)
    m, P = max(n - first, 0), _MODULUS
    # Every l >= m is a period of u, so the least one is at most max(m, 1).
    ls = np.arange(1, min(max_period, max(m, 1)) + 1)
    powers = _powers(max(m, ls.size) + 1, P)
    u = windows[:, first:]
    if u.min(initial=0) < 0 or u.max(initial=0) >= P:
        u = u % P
    sums = np.zeros((rows, m + 1), dtype=np.int64)
    np.cumsum(_reduce_mod(u * powers[:m], P), axis=1, out=sums[:, 1:])
    clipped = np.minimum(ls, m)
    gap = sums[:, m:] - sums[:, clipped] - powers[ls] * _reduce_mod(sums[:, m - clipped], P)
    candidates = _reduce_mod(gap, P) == 0
    positions, found = np.arange(n), [None] * rows
    pending = np.flatnonzero(candidates.any(axis=1))
    while pending.size:
        l = candidates[pending].argmax(axis=1) + 1
        word = windows[pending]
        shifted = np.take_along_axis(word, np.minimum(positions + l[:, None], n - 1), axis=1)
        mismatch = (shifted != word) & (positions < n - l[:, None])
        start = (mismatch * (positions + 1)).max(axis=1, initial=0)
        ok = start <= first
        for row, N, period in zip(pending[ok].tolist(), start[ok].tolist(), l[ok].tolist()):
            found[row] = (N, period)
        candidates[pending, l - 1] = False
        pending = pending[~ok & candidates[pending].any(axis=1)]
    return found


def brute_force_period(values, max_preperiod: int, max_period: int):
    """Least (l, then N) with values[n] == values[n+l] for all N <= n < len-l.

    Only 1 <= l <= max_period and 0 <= N <= max(max_preperiod, 0) count.
    An l qualifies exactly when the suffix u from max(max_preperiod, 0)
    has period l.  The hash filter (module docstring) drops only l that
    are not periods; the least remaining l is checked against all of
    values, which gives N or exposes a collision, and so on.

    A window verdict only: ``None`` means no period up to the bounds, not
    a proof of aperiodicity.
    """
    windows = np.asarray(values, dtype=np.int64).reshape(1, -1)
    return _window_periods(windows, max_preperiod, max_period)[0]


def aenp_scan(
    spec: KappaSpec,
    max_start: int,
    max_stride: int,
    horizon: int,
    max_preperiod: int | None = None,
    max_period: int | None = None,
) -> list[dict]:
    """Scan equally spaced subsequences for window periodicity.

    Finds brute_force_period of the length-``horizon`` window of
    a(N + n*l) for every N <= max_start, 1 <= l <= max_stride.  Returns
    the (l, N)-ordered list of windows found periodic; empty means no
    equally spaced subsequence looked periodic at this scale.  Windows
    share one ``a_values`` call and one batched period search per batch
    of max(min(budget, 2**16) // horizon, 1).
    """
    if max_preperiod is None:
        max_preperiod = horizon // 4
    if max_period is None:
        max_period = horizon // 4
    _window_end(max_start, max_stride, horizon)  # one window's checks and budget
    last = max_start + max_stride * max(horizon - 1, 0)
    if last >= 2**63:
        raise ValueError(f"index {last} reaches 2**63, beyond int64 indices")
    rows = max(min(word_budget(), 2**16) // max(horizon, 1), 1)
    grid = itertools.product(range(1, max_stride + 1), range(max_start + 1))
    hits = []
    while batch := list(itertools.islice(grid, rows)):
        strides, starts = zip(*batch)
        windows = a_values(spec, starts, strides, horizon)
        periods = _window_periods(windows, max_preperiod, max_period)
        hits += [
            {"N": start, "l": stride, "preperiod": found[0], "period": found[1]}
            for (stride, start), found in zip(batch, periods)
            if found is not None
        ]
    return hits
