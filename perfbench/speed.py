"""The host's current speed, from a fixed reference loop.

On a shared host the CPU time of the same work drifts by 15-80% from one
minute to the next (neighbours on sibling hyperthreads and shared caches),
which no statistic over one run can remove.  The runner therefore times
this loop, which never changes, after every op, and scales the op's CPU
time by ``NOMINAL_S`` over the faster of the loop times on either side of
the op: the op's cost on a host where the loop takes ``NOMINAL_S``.

The loop does what the library's hot paths do most: many numpy calls on
short arrays, a Python generator over numpy scalars, and tuples grouped
in a dict (``kernel_brute_force`` and ``a_values`` in miniature, written
out here so that no change to the library changes the reference).  That
kind of work is what slows down most when neighbours are busy; a loop of
plain interpreted arithmetic and long-array numpy slowed down by less
than half as much, and left a 10-30% drift in the scaled times.
"""

from __future__ import annotations

import time

import numpy as np

# The loop's median CPU time on the host the baseline in README.md was
# measured on (a shared 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4).
# Reported times are in ms of that host; changing this constant rescales
# every reported time, so it stays fixed.
NOMINAL_S = 0.0025

_BASE = np.arange(48, dtype=np.int64)
_COLUMN = np.array([0, 1, 3], dtype=np.int64)


def _reference_work() -> int:
    groups: dict[tuple[int, ...], list[int]] = {}
    for j in range(40):
        rem = _BASE * 3 + j
        acc = np.zeros(rem.shape, dtype=np.int64)
        while rem.any():
            acc += _COLUMN[rem % 3]
            rem //= 3
        groups.setdefault(tuple(int(v) for v in acc % 5), []).append(j)
    return len(groups)


def reference_s(clock=time.process_time) -> float:
    """CPU time of one pass of the reference loop."""
    t0 = clock()
    _reference_work()
    return clock() - t0


def scale(before_s: float, after_s: float) -> float:
    """Factor from CPU time now to CPU time on the nominal host.

    The faster of the two loop times: a slow one may have been hit by a
    passing burst that the op between them missed."""
    return NOMINAL_S / min(before_s, after_s)
