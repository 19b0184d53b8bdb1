"""Benchmark runner for gtmseq.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload corpus_pipeline --seed 1 --seconds 20 --trace 0

Imports ``gtmseq`` from ``src/`` next to this directory, builds the
workload's inputs from the seed, times ops in a closed loop (one client,
one thread) for the given number of seconds, checks every op's output,
and prints the metrics.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A traced run spends half its time untraced and half with every public
function of the traced modules wrapped, and writes its spans to
``perfbench/out/``.
"""

import time

# Every time the benchmark reports is CPU time of this process (user plus
# system, all threads).  The library is single-threaded and CPU-bound, so
# on an idle machine this equals wall time; on a shared host it leaves out
# the time the process waited for a core, which would otherwise measure
# the neighbours instead of the program.  The times are then scaled to a
# host of fixed speed (see speed.py).
CLOCK = time.process_time

import os  # noqa: E402

# Pin native thread pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
import speed  # noqa: E402
from layertrace import TRACED_MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

SETUP_ROUNDS = 7
MIN_OPS = 100
MAX_MEASURE_S = 140.0

# Functions whose layer metrics are reported, with their extra work counters.
LAYERS = {
    "automaton.kernel_explore": ("states",),
    "automaton.kernel_brute_force": ("subsequences", "groups"),
    "kappa.a_values": ("values", "bytes_computed"),
    "kappa.generate_prefix_morphic": ("values",),
    "stammer.build_witness": ("values",),
    "kappa.equally_spaced": ("values",),
    "analytic.eval_cf": ("quotients",),
    "analytic.eval_series": (),
    "periodicity.classify": (),
    "periodicity.aenp_scan": ("windows", "hits"),
    "periodicity.brute_force_period": (),
    "cli.main": (),
    "cli.build_parser": (),
    "specfile.parse_spec": (),
    "expansion.gap_multiple": (),
}
def fresh_import():
    """Import gtmseq from this checkout's src/, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "gtmseq" or n.startswith("gtmseq.")]:
        del sys.modules[name]
    g = importlib.import_module("gtmseq")
    for module in TRACED_MODULES:
        importlib.import_module(f"gtmseq.{module}")
    if Path(g.__file__).resolve().parent != (SRC / "gtmseq").resolve():
        raise ImportError(f"gtmseq imported from {g.__file__}, not from {SRC}")
    return g


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref_line = head.read_text().strip()
    if not ref_line.startswith("ref: "):
        return ref_line
    ref_name = ref_line[5:]
    loose = ROOT / ".git" / ref_name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    return "unknown"


def startup_s() -> float:
    """Median CPU time of a fresh interpreter that imports numpy.

    This is the part of set-up a run does before it can time anything, so
    it is measured in child processes, SETUP_ROUNDS times.  It is not
    scaled: it is mostly file reads and page faults, which the reference
    loop does not track."""
    spent = []
    for _ in range(SETUP_ROUNDS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, cwd=ROOT)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        spent.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return statistics.median(spent)


def setup(workload_cls, seed: int, workdir: Path):
    """Interpreter start-up and numpy import (``startup_s``), plus the median
    over SETUP_ROUNDS of a fresh gtmseq import, input generation and one
    warm-up op, each round scaled to the nominal host."""
    startup = startup_s()
    rounds = []
    for _ in range(SETUP_ROUNDS):
        before = speed.reference_s(CLOCK)
        started = CLOCK()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        g = fresh_import()
        workload = workload_cls(g, seed, workdir)
        try:
            workload.op(0)
        except Exception:  # op 0 runs again, timed and counted, in the loop
            if not rounds:
                traceback.print_exc()
        spent = CLOCK() - started
        rounds.append(spent * speed.scale(before, speed.reference_s(CLOCK)))
    print(f"setup startup_s={startup:.4f} rounds_s={statistics.median(rounds):.4f}")
    return g, workload, startup + statistics.median(rounds)


def measure(workload, seconds: float, checks: Checks, tracer=None, min_ops=MIN_OPS):
    """Closed loop from op 0: time each op, then check it outside the timer.

    Runs at least one full pass over the workload's keys, so every input
    is timed at least once.  Returns each op's CPU time and the same scaled
    to the nominal host by the reference loops run before and after it."""
    min_ops = max(min_ops, workload.n_keys)
    latencies, failed = [], 0
    references = [speed.reference_s(CLOCK)]
    digests = []
    started = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - started
        if (elapsed >= seconds and i >= min_ops) or elapsed >= MAX_MEASURE_S:
            break
        error = None
        t0 = CLOCK()
        if tracer is not None:
            tracer.active = True
        try:
            result = workload.op(i)
        except Exception as exc:  # a failed op is counted, not fatal
            error = exc
        finally:
            if tracer is not None:
                tracer.active = False
        latencies.append(CLOCK() - t0)
        references.append(speed.reference_s(CLOCK))
        ok = error is None
        if ok:
            try:
                ok = workload.check(i, result, checks)
            except Exception as exc:
                error = exc
                ok = False
            if hasattr(workload, "digest") and len(digests) < MIN_OPS:
                digests.append(workload.digest(result))
        if error is not None and failed < 3:
            traceback.print_exception(error, file=sys.stderr)
        failed += not ok
        i += 1
    scaled = [lat * speed.scale(before, after)
              for lat, before, after in zip(latencies, references, references[1:])]
    return np.array(latencies), np.array(scaled), failed, digests


def first_ops_digest(digests) -> str | None:
    if len(digests) < MIN_OPS:
        return None
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def best_per_key(workload, latencies) -> np.ndarray:
    """Each key's fastest visit: op i has key ``workload.key(i)``.

    The loop visits the keys in a fixed cycle, so a key's visits are spread
    over the whole run; the fastest of them is the op's cost with the least
    interference that the reference loops around it did not catch."""
    keys = np.array([workload.key(i) for i in range(len(latencies))])
    best = np.full(workload.n_keys, np.inf)
    np.minimum.at(best, keys, latencies)
    return best[np.isfinite(best)]


def end_to_end(best, ok_share, setup_s) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit), as listed under end_to_end in BENCHMARK.json.

    Throughput and percentiles are over the keys' fastest visits; throughput
    counts only the share ``ok_share`` of ops that passed their checks."""
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok_share * len(best) / float(best.sum()), "1/s"),
        "op_ms_p50": (float(np.percentile(best, 50)) * 1000.0, "ms"),
        "op_ms_p90": (float(np.percentile(best, 90)) * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def layer_metrics(tracer: Tracer, traced_op_s: float,
                  overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit), as listed under per_layer in BENCHMARK.json."""
    self_s = tracer.self_seconds()
    index = {name: i for i, name in enumerate(tracer.names)}
    metrics = {}
    for fn, counters in LAYERS.items():
        i = index[fn]
        metrics[f"{fn}.calls"] = (tracer.calls[i], "count")
        metrics[f"{fn}.self_pct"] = (100.0 * self_s[fn] / traced_op_s, "%")
        metrics[f"{fn}.failed"] = (tracer.failed[i], "count")
        for c in counters:
            metrics[f"{fn}.{c}"] = (tracer.counts[i].get(c, 0),
                                    "bytes" if c == "bytes_computed" else "count")
    bf = tracer.counts[index["automaton.kernel_brute_force"]]
    metrics["automaton.kernel_brute_force.groups_per_subsequence"] = (
        bf["groups"] / bf["subsequences"] if bf.get("subsequences") else 0.0, "ratio")
    for module in TRACED_MODULES:
        module_s = sum(s for name, s in self_s.items() if name.startswith(module + "."))
        metrics[f"{module}.self_pct"] = (100.0 * module_s / traced_op_s, "%")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    metrics["trace.failed"] = (sum(tracer.failed), "count")
    metrics["trace.spans"] = (tracer.span_count, "count")
    metrics["trace.outside_pct"] = (
        100.0 * (traced_op_s - sum(self_s.values())) / traced_op_s, "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gtmseq" / "__init__.py").is_file():
        print(f"error: no gtmseq sources under {SRC}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    os.environ["GTMSEQ_BUDGET"] = str(workload_cls.budget)
    sys.path.insert(0, str(SRC))

    workdir = OUT / f"{args.workload}-seed{args.seed}"
    try:
        g, workload, setup_s = setup(workload_cls, args.seed, workdir)
        checks = Checks()
        env = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "gtmseq_budget": os.environ["GTMSEQ_BUDGET"], "git_commit": git_commit(),
            "threads": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        }
        print("env " + json.dumps(env, sort_keys=True))

        if args.trace == 0:
            latencies, scaled, failed, digests = measure(workload, args.seconds, checks)
            attempted = len(latencies)
            best = best_per_key(workload, scaled)
            metrics = end_to_end(best, 1.0 - failed / attempted, setup_s)
            samples = f" (n={len(best)} keys, {attempted} ops)"
            print(f"metric error_rate = {failed / attempted} ratio (n={attempted})")
            print(f"metric cpu_ms_per_op = {1000.0 * latencies.mean()} ms "
                  f"(unscaled, every visit, n={attempted})")
        else:
            half = args.seconds / 2.0
            _, lat_plain, failed_plain, _ = measure(
                workload, half, checks, min_ops=1)
            tracer = Tracer()
            tracer.install(g)
            if hasattr(workload, "phase"):
                workload.phase = "traced"
            try:
                raw_traced, lat_traced, failed_traced, digests = measure(
                    workload, half, checks, tracer=tracer, min_ops=1)
            finally:
                tracer.uninstall()
            attempted = len(lat_plain) + len(lat_traced)
            samples = ""
            failed = failed_plain + failed_traced
            ratio = ((len(lat_plain) / lat_plain.sum()) /
                     (len(lat_traced) / lat_traced.sum()))
            metrics = layer_metrics(tracer, float(raw_traced.sum()), ratio)
            self_s = tracer.self_seconds()
            for i, name in enumerate(tracer.names):
                print(f"layer {name} calls={tracer.calls[i]} failed={tracer.failed[i]} "
                      f"self_s={self_s[name]:.6f} {json.dumps(tracer.counts[i], sort_keys=True)}")
            spans_path = OUT / f"spans-{args.workload}.npz"
            tracer.write(spans_path)
            print(f"spans {tracer.span_count} written to {spans_path.relative_to(ROOT)}")

        digest = first_ops_digest(digests)
        if digest is not None:
            print(f"stdout_digest_first{MIN_OPS} {digest}")
        print("checks " + json.dumps(checks.record(), sort_keys=True))
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value} {unit}{samples if name.startswith('op_ms_') else ''}")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
