"""Command-line front end.

Subcommands wrap the library modules one-to-one, and each one's
``(spec, args) -> result`` function here writes its record, so the
report schema lives in this module.  ``main`` is the one report path: a
deterministic JSON report on stdout (``gen`` without ``--json`` prints
its word line), wall time on stderr.  Exact answers print whole.  The
exit codes are listed once, in ``_EPILOG``; each library error carries
its exit code as ``exit_code``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .analytic import eval_cf, eval_series
from .automaton import _STATE_WORDS, kernel_explore
from .errors import GtmseqError
from .expansion import _decimal_str, gap_multiple
from .kappa import (_numeral_length, _window_end, a_values, check_budget,
                    generate_prefix_morphic, word_budget)
from .periodicity import classify
from .specfile import parse_spec
from .stammer import build_witness

_EPILOG = """\
exit codes:
  0 success; 2 parse error or bad usage (also out-of-range integers,
  L > 2**57 and a closed stdout); 3 periodic-refusal; 4 window-exceeded;
  5 budget-exceeded (every allocation is checked against GTMSEQ_BUDGET;
  set it to raise the memory budget; eval and gap count each digit of a
  base beta or k as ceil(bits / 64) words); 6 stammering index below minimum
"""


_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _word_str(values) -> str:
    """Letters run together when every one is below 10, else space-separated.

    ``values`` is any sequence of ints.  The run-together form maps the
    letters, as bytes, to their digits in one ``translate`` pass instead
    of one ``str`` call per letter.
    """
    word = np.asarray(values, dtype=np.int64)
    if word.max(initial=0) < 10:
        return word.astype(np.uint8).tobytes().translate(_DIGITS).decode()
    return " ".join(map(str, word.tolist()))


def _gen(spec, args):
    words = []
    if args.mode != "morphic":
        words.append(a_values(spec, args.N, args.l, args.count))
    if args.mode != "digit":
        m = _numeral_length(_window_end(args.N, args.l, args.count), spec.k)
        words.append(generate_prefix_morphic(spec, m)[args.N :: args.l][: args.count])
    agree = np.array_equal(*words) if len(words) == 2 else None
    if args.json:
        result = {"values": words[0].tolist()}
        if agree is not None:
            result["agree"] = agree
        return result
    line = _word_str(words[0])
    if agree is not None:
        line += " AGREE" if agree else " DISAGREE"
    return line


def _classify(spec, args):
    verdict = classify(spec)
    if verdict.is_periodic:
        return {"status": verdict.status, "A": verdict.shift, "period": verdict.period,
                "checked_window": verdict.checked_window}
    if verdict.is_non_periodic:
        return {"status": verdict.status, "refutations": [list(r) for r in verdict.refutations]}
    return {"status": verdict.status, "bound": verdict.bound}


def _kernel(spec, args):
    result = kernel_explore(spec, args.max_states)
    # Beside the closure's _STATE_WORDS + k words, a state's dict here and its
    # share of the JSON text, as built and as printed, took 36-40 words plus
    # 1.5-1.75 per child (VmHWM, k = 2..1000, offsets up to 2**57): charge 48 + 2k.
    check_budget(len(result) * (_STATE_WORDS + 48 + 3 * spec.k))
    return {
        "states": [{"shift": s.shift, "offset": s.offset} for s in result.states],
        "transitions": result.transitions,
        "outputs": result.outputs,
        "complete": result.complete,
    }


def _stammer(spec, args):
    witness = build_witness(spec, args.N, args.l, args.m)
    return {
        "N": witness.N,
        "l": witness.l,
        "m": witness.m,
        "U_length": len(witness.U),
        "V_length": len(witness.V),
        "w_numerator": witness.w.numerator,
        "w_denominator": witness.w.denominator,
        "U": _word_str(witness.U),
        "V": _word_str(witness.V),
        "repeated_block_length": witness.w2_len,
        "spacer_length": witness.w3_len,
    }


def _eval(spec, args):
    lo, hi = eval_series(spec, args.N, args.l, args.beta, args.digits)
    digits, step = args.digits, 10**args.digits
    scaled = lo.numerator * step // lo.denominator
    text = _decimal_str(scaled).rjust(digits + 1, "0")
    return {
        "decimal": f"{text[:-digits]}.{text[-digits:]}",
        # hi > lo truncates to the same digits iff it lies below (scaled + 1) / step.
        "decimal_settled": hi.numerator * step < (scaled + 1) * hi.denominator,
        "lo": f"{_decimal_str(lo.numerator)}/{_decimal_str(lo.denominator)}",
        "hi": f"{_decimal_str(hi.numerator)}/{_decimal_str(hi.denominator)}",
    }


def _cf(spec, args):
    conv = eval_cf(spec, args.N, args.l, args.depth)
    return {
        "quotients": conv.quotients,
        "convergents": [[str(p), str(q)] for p, q in conv.convergents],
    }


def _gap(spec, args):
    result = gap_multiple(args.l, args.k, args.t)
    return {
        "x": _decimal_str(result.x),
        "leading_exponent": result.leading_exponent,
        "gap": result.gap,
        "expansion": [[s, w] for s, w in result.expansion.terms],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtmseq",
        description="Generalized Thue-Morse sequences: generation, periodicity, "
        "stammering witnesses, kernels, and exact evaluation.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *integers, specfile=True):
        p = sub.add_parser(name, help=help)
        if specfile:
            p.add_argument("specfile")
        for integer in integers:
            p.add_argument(integer, type=int)
        p.set_defaults(func=func)
        return p

    p = command("gen", _gen, "print a sequence window")
    p.add_argument("--mode", choices=["digit", "morphic", "both"], default="digit")
    p.add_argument("--count", type=int, default=32)
    p.add_argument("--N", type=int, default=0)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--json", action="store_true")
    command("classify", _classify, "decide ultimate periodicity")
    command("stammer", _stammer, "build a stammering witness", "N", "l", "m")
    p = command("kernel", _kernel, "explore the k-kernel DFAO")
    p.add_argument("--max-states", type=int, default=4096)
    p = command("eval", _eval, "evaluate the series sum a(N+nl)/beta^(n+1)", "N", "l")
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--digits", type=int, default=12)
    p = command("cf", _cf, "continued fraction [0: a(N), a(N+l), ...]", "N", "l")
    p.add_argument("--depth", type=int, default=20)
    command("gap", _gap, "gap-multiple witness for (l, k, t)", "l", "k", "t", specfile=False)

    return parser


_parser = functools.cache(build_parser)  # one per process: parsing leaves it unchanged
# One per process too; every report is a fresh tree, so no cycle check.
_encoder = json.JSONEncoder(sort_keys=True, separators=(", ", ": "), check_circular=False)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    # Inputs keep Python's cap on int <-> str digits; the answers lift it.
    digit_cap = sys.get_int_max_str_digits()
    try:
        word_budget()  # a bad GTMSEQ_BUDGET fails every command alike
        spec = parse_spec(args.specfile) if "specfile" in args else None
        sys.set_int_max_str_digits(0)
        result = args.func(spec, args)
        if isinstance(result, dict):
            parameters = {key: value for key, value in vars(args).items()
                          if key not in ("command", "func", "json")}
            report = {"command": args.command, "parameters": parameters,
                      "result": result, "version": __version__}
            result = _encoder.encode(report)
        print(result, flush=True)
    except (GtmseqError, ValueError, OverflowError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # stdout is closed: send what is left of it, and the flush at
            # exit, to devnull (the SIGPIPE note in the signal module docs).
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", GtmseqError.exit_code)
    finally:
        sys.set_int_max_str_digits(digit_cap)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"wall_time_ms={elapsed_ms:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
