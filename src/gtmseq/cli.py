"""Command-line front end.

Subcommands wrap the library modules one-to-one.  ``main`` is the one
report path: it parses the spec file, calls the subcommand's
``(spec, args) -> result`` function and prints the result as a
deterministic JSON report on stdout, whose ``parameters`` are the parsed
arguments (wall time goes to stderr so identical inputs give
byte-identical output).  Exact answers print whole, however many digits
they have.  Exit codes:

    0  success
    2  spec-file parse error / bad usage, including an unreadable spec
       path and integers out of range (an index reaching 2**63, a
       modulus L above 2**57)
    3  operation refused because the sequence is (or may be) periodic
    4  finite-window spec queried beyond its window
    5  memory budget exceeded: every word, window, index array,
       kernel closure or convergent table is checked against the
       GTMSEQ_BUDGET environment variable
    6  stammering index m below the legal minimum

Each library error carries its exit code as ``exit_code``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .analytic import eval_cf, eval_series
from .automaton import kernel_explore
from .errors import GtmseqError
from .expansion import gap_multiple
from .kappa import equally_spaced, generate_prefix_morphic, spaced_indices
from .periodicity import classify
from .specfile import parse_spec
from .stammer import build_witness

_EPILOG = """\
exit codes:
  0 success; 2 parse error or bad usage (also out-of-range integers and
  L > 2**57); 3 periodic-refusal; 4 window-exceeded;
  5 budget-exceeded (every allocation is checked against GTMSEQ_BUDGET;
  set it to raise the memory budget); 6 stammering index below minimum
"""


def _word_str(values) -> str:
    if all(v < 10 for v in values):
        return "".join(str(v) for v in values)
    return " ".join(str(v) for v in values)


def _gen(spec, args):
    words = []
    if args.mode != "morphic":
        words.append(list(equally_spaced(spec, args.N, args.l, args.count).values))
    if args.mode != "digit":
        indices = spaced_indices(args.N, args.l, args.count).tolist()
        m = 0
        while spec.k**m <= max(indices, default=0):
            m += 1
        word = generate_prefix_morphic(spec, m)
        words.append([word[i] for i in indices])
    result = {"values": words[0]}
    if len(words) == 2:
        result["agree"] = words[0] == words[1]
    if args.json:
        return result
    line = _word_str(words[0])
    if "agree" in result:
        line += " AGREE" if result["agree"] else " DISAGREE"
    return line


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


def _truncated_decimal(value, digits: int) -> str:
    scaled = (value.numerator * 10**digits) // value.denominator
    text = str(scaled).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


def _eval(spec, args):
    lo, hi = eval_series(spec, args.N, args.l, args.beta, args.digits)
    lo_text = _truncated_decimal(lo, args.digits)
    hi_text = _truncated_decimal(hi, args.digits)
    return {
        "decimal": lo_text,
        "decimal_settled": lo_text == hi_text,
        "lo": f"{lo.numerator}/{lo.denominator}",
        "hi": f"{hi.numerator}/{hi.denominator}",
    }


def _cf(spec, args):
    conv = eval_cf(spec, args.N, args.l, args.depth)
    return {
        "quotients": list(conv.quotients),
        "convergents": [[str(p), str(q)] for p, q in conv.convergents],
    }


def _gap(spec, args):
    result = gap_multiple(args.l, args.k, args.t)
    return {
        "x": str(result.x),
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

    p = sub.add_parser("gen", help="print a sequence window")
    p.add_argument("specfile")
    p.add_argument("--mode", choices=["digit", "morphic", "both"], default="digit")
    p.add_argument("--count", type=int, default=32)
    p.add_argument("--N", type=int, default=0)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_gen)

    p = sub.add_parser("classify", help="decide ultimate periodicity")
    p.add_argument("specfile")
    p.set_defaults(func=lambda spec, args: classify(spec).to_record())

    p = sub.add_parser("stammer", help="build a stammering witness")
    p.add_argument("specfile")
    p.add_argument("N", type=int)
    p.add_argument("l", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=_stammer)

    p = sub.add_parser("kernel", help="explore the k-kernel DFAO")
    p.add_argument("specfile")
    p.add_argument("--max-states", type=int, default=4096)
    p.set_defaults(func=lambda spec, args: kernel_explore(spec, args.max_states).to_record())

    p = sub.add_parser("eval", help="evaluate the series sum a(N+nl)/beta^(n+1)")
    p.add_argument("specfile")
    p.add_argument("N", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--digits", type=int, default=12)
    p.set_defaults(func=_eval)

    p = sub.add_parser("cf", help="continued fraction [0: a(N), a(N+l), ...]")
    p.add_argument("specfile")
    p.add_argument("N", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--depth", type=int, default=20)
    p.set_defaults(func=_cf)

    p = sub.add_parser("gap", help="gap-multiple witness for (l, k, t)")
    p.add_argument("l", type=int)
    p.add_argument("k", type=int)
    p.add_argument("t", type=int)
    p.set_defaults(func=_gap)

    return parser


_parser = functools.cache(build_parser)  # one per process: parsing leaves it unchanged


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    # Inputs keep Python's cap on int <-> str digits; the answers lift it
    # (Pythons before 3.10.7 have no cap).
    digit_cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        spec = parse_spec(args.specfile) if "specfile" in args else None
        if digit_cap is not None:
            sys.set_int_max_str_digits(0)
        result = args.func(spec, args)
        if isinstance(result, dict):
            parameters = {key: value for key, value in vars(args).items()
                          if key not in ("command", "func", "json")}
            report = {"command": args.command, "parameters": parameters,
                      "result": result, "version": __version__}
            result = json.dumps(report, sort_keys=True, separators=(", ", ": "))
    except (GtmseqError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", GtmseqError.exit_code)
    finally:
        if digit_cap is not None:
            sys.set_int_max_str_digits(digit_cap)
    print(result)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"wall_time_ms={elapsed_ms:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
