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

The module also carries the window-scan oracles: a least-period search
on a finite word (one Knuth-Morris-Pratt border pass) and the grid scan
over equally spaced subsequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kappa import KappaSpec, a_values, spaced_indices

__all__ = [
    "PeriodicityVerdict",
    "classify",
    "classify_constant",
    "brute_force_period",
    "aenp_scan",
]

PERIODIC = "Periodic"
NON_PERIODIC = "NonPeriodic"
UNKNOWN = "UnknownUpToBound"


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

    def to_record(self) -> dict:
        """JSON-ready record for the CLI."""
        rec: dict = {"status": self.status}
        if self.status == PERIODIC:
            rec["A"] = self.shift
            rec["period"] = self.period
            rec["checked_window"] = self.checked_window
        elif self.status == NON_PERIODIC:
            rec["refutations"] = [list(r) for r in self.refutations]
        else:
            rec["bound"] = self.bound
        return rec


def classify(spec: KappaSpec) -> PeriodicityVerdict:
    """Decide ultimate periodicity of the spec's sequence.

    One backward pass over the normal-form columns y < y0 + 2p finds,
    for each y, the first step at or after it that fails (module
    docstring); each declared shift A then reads its verdict from column
    A and that table, so the cost is linear in the column counts and
    does not depend on L.

    Finite-window specs cannot be decided (the criterion quantifies over
    all y); they yield UnknownUpToBound with the window as bound, and no
    column is read.
    """
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


def classify_constant(L: int, k: int, kvec) -> PeriodicityVerdict:
    """Periodicity of the y-independent sequence given by kvec = kappa(1..k-1).

    Independent route: periodic iff s*kappa(1) == kappa(s) mod L for all
    s and kappa(k-1) == 0 mod L.
    """
    kvec = tuple(kvec)
    if len(kvec) != k - 1:
        raise ValueError(f"kvec must have {k - 1} entries, got {len(kvec)}")
    for v in kvec:
        if not 0 <= v < L:
            raise ValueError(f"kvec entry {v} outside [0, {L - 1}]")
    for s in range(1, k):
        if (s * kvec[0]) % L != kvec[s - 1]:
            return PeriodicityVerdict(status=NON_PERIODIC, refutations=((0, s, 0),))
    if kvec[k - 2] % L != 0:
        # kappa(k-1) != 0: the y=1 congruence for s=1 fails at every shift.
        return PeriodicityVerdict(status=NON_PERIODIC, refutations=((0, 1, 1),))
    return PeriodicityVerdict(status=PERIODIC, shift=0, period=L, checked_window=1)


def _least_period(word: list) -> int:
    """Least p >= 1 with word[i] == word[i + p] wherever both exist.

    That is len(word) minus its longest proper border, read off the
    Knuth-Morris-Pratt failure function.
    """
    fail = [0] * len(word)
    border = 0
    for i in range(1, len(word)):
        c = word[i]
        while border and word[border] != c:
            border = fail[border - 1]
        if word[border] == c:
            border += 1
        fail[i] = border
    return max(len(word) - border, 1)


def brute_force_period(values, max_preperiod: int, max_period: int):
    """Least (l, then N) with values[n] == values[n+l] for all N <= n < len-l.

    Only 1 <= l <= max_period and 0 <= N <= max(max_preperiod, 0) count.
    An l qualifies exactly when the suffix u from max(max_preperiod, 0)
    has period l, so the answer's l is u's least period.  If that is at
    most max_period, it is also the least period of u's first
    2*max_period values (by Fine and Wilf, two periods p <= q of that
    prefix have gcd(p, q) as a period, which then divides q), so it is
    found there and confirmed on all of values with the pass that gives N.

    A window verdict only: ``None`` means no period up to the bounds, not
    a proof of aperiodicity.
    """
    arr = np.asarray(values, dtype=np.int64)
    n = len(arr)
    if n < max_preperiod + 2 * max_period:
        raise ValueError(
            f"need at least max_preperiod + 2*max_period = "
            f"{max_preperiod + 2 * max_period} values, got {n}"
        )
    first = max(max_preperiod, 0)
    l = _least_period(arr[first : first + 2 * max_period].tolist())
    if l > max_period:
        return None
    mismatches = np.nonzero(arr[l:] != arr[:-l])[0]
    start = int(mismatches[-1]) + 1 if mismatches.size else 0
    return (start, l) if start <= first else None


def aenp_scan(
    spec: KappaSpec,
    max_start: int,
    max_stride: int,
    horizon: int,
    max_preperiod: int | None = None,
    max_period: int | None = None,
) -> list[dict]:
    """Scan equally spaced subsequences for window periodicity.

    Runs brute_force_period on the length-``horizon`` window of
    a(N + n*l) for every N <= max_start, 1 <= l <= max_stride.  Returns
    the (l, N)-ordered list of windows found periodic; empty means no
    equally spaced subsequence looked periodic at this scale.
    """
    if max_preperiod is None:
        max_preperiod = horizon // 4
    if max_period is None:
        max_period = horizon // 4
    hits = []
    for stride in range(1, max_stride + 1):
        for start in range(max_start + 1):
            window = a_values(spec, spaced_indices(start, stride, horizon))
            found = brute_force_period(window, max_preperiod, max_period)
            if found is not None:
                hits.append(
                    {"N": start, "l": stride, "preperiod": found[0], "period": found[1]}
                )
    return hits
