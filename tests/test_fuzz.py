"""The CLI answers fuzzed argv and spec text with a documented exit code.

``test_fuzzed_cli_exit_codes`` runs this file as a script in a child
process whose address space is capped (``RLIMIT_AS``, set on the child
only) and whose ``GTMSEQ_BUDGET`` is small.  The child feeds a fixed-seed
set of argument lists, over every subcommand and over malformed and
out-of-range spec text, to ``cli.main`` and prints one exit code per
line, then does the same for ``LARGE_L_CASES``.  Any exception that
escapes ``main`` is printed as a traceback.
"""

import contextlib
import io
import os
import random
import resource
import subprocess
import sys
import traceback
from pathlib import Path

import gtmseq

SEED = 20141017
CASES = 500
EXIT_CODES = {0, 2, 3, 4, 5, 6}
EDGE_INTS = [0, -1, 2**63, 2**64]
WIDE_SPEC = f"L = {2**57}\nk = 3\npreperiod = 0\nperiod = 3\nkappa =\n1 2 3\n5 7 11\n"
# (spec text, argv after the spec file) whose work grows with L, so the
# small budget has to refuse each one (exit 5).
LARGE_L_CASES = [
    # NonPeriodic, L = 10**6: 1,000,001 block shifts
    (f"L = {10**6}\nk = 2\npreperiod = 0\nperiod = 1\nkappa =\n1\n",
     ["stammer", "0", "1", "4"]),
    # nearly every state of the closure is new
    (WIDE_SPEC, ["kernel", "--max-states", "4096"]),
    # the convergents grow past the budget in words
    (WIDE_SPEC, ["cf", "0", "1", "--depth", "300"]),
]


def fuzz_int(rng):
    """A small argument, or one of the edge integers 0, -1, 2**63, 2**64."""
    if rng.random() < 0.6:
        return rng.randint(1, 12)
    return rng.choice(EDGE_INTS)


def spec_text(rng):
    """A valid spec file, or one with a single malformed or out-of-range part."""
    L = rng.choice([2, 3, 7, 1000, 2**57])
    k = rng.choice([2, 2, 3, 5])
    if rng.random() < 0.8:
        y0, p = rng.randint(0, 3), rng.randint(1, 4)
    else:
        y0, p = rng.randint(0, 150), rng.randint(1, 150)  # up to 300 columns
    fields = {"L": L, "k": k}
    if rng.random() < 0.3:
        fields["window"] = y0 + p
    else:
        fields.update(preperiod=y0, period=p)
    rows = [[rng.randrange(L) for _ in range(y0 + p)] for _ in range(k - 1)]
    marker = "kappa ="
    flaw = rng.choice(["none"] * 9 + ["field", "entry", "rows", "columns", "missing", "line"])
    if flaw == "field":
        fields[rng.choice(list(fields))] = rng.choice(EDGE_INTS + [1, 2**57 + 1, "x", ""])
    elif flaw == "entry":
        rows[rng.randrange(k - 1)][rng.randrange(y0 + p)] = rng.choice([L, -1, 2**64, "x"])
    elif flaw == "rows":
        rows = rows[1:] if rng.random() < 0.5 else rows + rows[:1]
    elif flaw == "columns":
        rows[0] = rows[0][1:] if rng.random() < 0.5 else rows[0] + [0]
    elif flaw == "missing":
        if rng.random() < 0.2:
            marker = ""
        else:
            del fields[rng.choice(list(fields))]
    elif flaw == "line":
        marker = rng.choice(["bogus = 1", "name = tm # v", "period", "kappa = 1"]) + "\n" + marker
    lines = [f"{key} = {value}" for key, value in fields.items()] + [marker]
    lines += [" ".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def fuzz_argv(rng, specfile):
    """One argv list over the seven subcommands."""
    def i():
        return str(fuzz_int(rng))

    command = rng.choice(["gen", "classify", "stammer", "kernel", "eval", "cf", "gap"])
    if command == "gen":
        argv = ["gen", specfile, "--mode", rng.choice(["digit", "morphic", "both"]),
                "--count", i(), "--N", i(), "--l", i()]
        if rng.random() < 0.5:
            argv.append("--json")
    elif command == "classify":
        argv = ["classify", specfile]
    elif command == "stammer":
        argv = ["stammer", specfile, i(), i(), i()]
    elif command == "kernel":
        argv = ["kernel", specfile, "--max-states", i()]
    elif command == "eval":
        argv = ["eval", specfile, i(), i(), "--beta", i(), "--digits", i()]
    elif command == "cf":
        argv = ["cf", specfile, i(), i(), "--depth", i()]
    else:
        argv = ["gap", i(), i(), i()]
    if rng.random() < 0.05:
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(["--bogus", "x", "-1"]))
    return argv


def cases(workdir):
    """(spec file, its text, argv): the fuzzed cases, then ``LARGE_L_CASES``."""
    rng = random.Random(SEED)
    for n in range(CASES):
        specfile = Path(workdir) / f"case{n}.spec"
        text = spec_text(rng)
        yield specfile, text, fuzz_argv(rng, str(specfile))
    for n, (text, (command, *rest)) in enumerate(LARGE_L_CASES):
        specfile = Path(workdir) / f"large{n}.spec"
        yield specfile, text, [command, str(specfile), *rest]


def run_cases(workdir):
    """Run every case's argv through ``cli.main``; print one exit code per line."""
    from gtmseq.cli import main

    for specfile, text, argv in cases(workdir):
        specfile.write_text(text)
        escaped = None
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception:
                escaped = traceback.format_exc()
                code = 1
        if escaped:
            print(f"argv {argv!r} escaped main:\n{escaped}", file=sys.stderr)
        print(code)


def test_fuzzed_cli_exit_codes(tmp_path):
    limit = 1 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    # One BLAS thread: per-thread buffers would count against the address
    # space cap on hosts with many cores.
    env = dict(os.environ, GTMSEQ_BUDGET="1000", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(gtmseq.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        env=env, preexec_fn=cap_memory, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert "Traceback" not in child.stderr
    codes = [int(line) for line in child.stdout.split()]
    assert len(codes) == CASES + len(LARGE_L_CASES)
    assert set(codes) <= EXIT_CODES
    assert codes[CASES:] == [5] * len(LARGE_L_CASES)


if __name__ == "__main__":
    run_cases(sys.argv[1])
