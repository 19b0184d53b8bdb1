"""Span tracing of the gtmseq layers, applied from outside the library.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper, both where the function is defined and under every name
another gtmseq module (or the package itself) imports it by.  A call made
while the tracer is active records one span: name, start, end and the
span that was open when it began.  Nested calls therefore become child
spans, and a span's self time is its duration minus the time its child
spans cover.  Spans are kept in flat in-memory arrays and written out
once, when the run ends.

Besides time, each span feeds per-function counters of the work it did
(values materialized, automaton states, groups, ...), computed from the
call's arguments and result after the span has closed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = (
    "specfile", "cli", "kappa", "expansion",
    "periodicity", "stammer", "analytic", "automaton",
)


def _witness_values(args, kwargs, result):
    # U, V and the repeated block: every subsequence value build_witness read.
    return {"values": len(result.U) + len(result.V) + result.w2_len}


def _verify_symbols(args, kwargs, result):
    _, diag = result
    return {"symbols": diag.get("prefix_length", diag.get("mismatch_index", -1) + 1)}


def _brute_force_counts(args, kwargs, result):
    subsequences = sum(len(members) for members in result.values())
    return {"subsequences": subsequences, "groups": len(result)}


def _aenp_counts(sig):
    def count(args, kwargs, result):
        a = sig.bind(*args, **kwargs).arguments
        return {"windows": (a["max_start"] + 1) * a["max_stride"], "hits": len(result)}
    return count


# Work counters per traced function, from (args, kwargs, result).
# ``bytes_computed`` is dtype size times length of the returned array:
# computed, not a measured memory transfer.
def _counters(name, fn):
    if name == "kappa.a_values":
        return lambda a, kw, r: {"values": r.size, "bytes_computed": r.nbytes}
    if name in ("kappa.generate_prefix_morphic", "analytic.product_coefficients",
                "kappa.equally_spaced"):
        return lambda a, kw, r: {"values": len(r)}
    if name == "stammer.build_witness":
        return _witness_values
    if name == "stammer.verify_witness":
        return _verify_symbols
    if name == "analytic.eval_cf":
        return lambda a, kw, r: {"quotients": len(r.quotients) - 1}
    if name == "automaton.kernel_explore":
        return lambda a, kw, r: {"states": len(r)}
    if name == "automaton.kernel_brute_force":
        return _brute_force_counts
    if name == "periodicity.aenp_scan":
        return _aenp_counts(inspect.signature(fn))
    return None


class Tracer:
    """Wraps the public functions of the gtmseq modules and records spans."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.calls: list[int] = []
        self.failed: list[int] = []
        self.counts: list[dict[str, int]] = []
        self._starts = array("d")
        self._ends = array("d")
        self._name_of = array("q")
        self._parent = array("q")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self, package) -> None:
        """Wrap every public function of TRACED_MODULES in ``package``."""
        prefix = package.__name__ + "."
        originals: dict[int, object] = {}
        for short in TRACED_MODULES:
            module = sys.modules[prefix + short]
            for attr, value in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__ or id(value) in originals):
                    continue
                originals[id(value)] = self._wrap(f"{short}.{value.__name__}", value)
        namespaces = [package] + [m for n, m in list(sys.modules.items())
                                  if n.startswith(prefix) and m is not None]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._restore.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._restore):
            setattr(namespace, attr, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.failed.append(0)
        self.counts.append({})
        counter = _counters(name, fn)
        starts, ends, name_of, parent, stack = (
            self._starts, self._ends, self._name_of, self._parent, self._stack)
        counts = self.counts[fid]
        clock = time.process_time  # the clock the runner times ops with

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(starts)
            name_of.append(fid)
            parent.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            self.calls[fid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[fid] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + int(value)
            return result

        return wrapper

    # -- results --------------------------------------------------------
    @property
    def span_count(self) -> int:
        return len(self._starts)

    def self_seconds(self) -> dict[str, float]:
        """Self time per function: span duration minus its children's."""
        n = len(self._starts)
        if n == 0:
            return {name: 0.0 for name in self.names}
        start = np.frombuffer(self._starts, dtype=np.float64)
        end = np.frombuffer(self._ends, dtype=np.float64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        name_of = np.frombuffer(self._name_of, dtype=np.int64)
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=n)
        own = np.bincount(name_of, weights=duration - covered, minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write all spans (name, start, end, parent) as one .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name_of, dtype=np.int64),
            start=np.frombuffer(self._starts, dtype=np.float64),
            end=np.frombuffer(self._ends, dtype=np.float64),
            parent=np.frombuffer(self._parent, dtype=np.int64),
        )
