"""Command-line front end.

Subcommands wrap the library modules one-to-one and emit a deterministic
JSON report on stdout (wall time goes to stderr so identical inputs give
byte-identical output).  Exit codes:

    0  success
    2  spec-file parse error / bad usage, including integers out of range
       (an index reaching 2**63, a modulus L above 2**57) and a base k
       too hard to factor
    3  operation refused because the sequence is (or may be) periodic
    4  finite-window spec queried beyond its window
    5  memory budget exceeded: every word, window or index array is
       checked against the GTMSEQ_BUDGET environment variable
    6  stammering index m below the legal minimum

Each library error carries its exit code as ``exit_code``.
"""

from __future__ import annotations

import argparse
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

EXIT_USAGE = 2

_EPILOG = """\
exit codes:
  0 success; 2 parse error or bad usage (also out-of-range integers,
  L > 2**57 and an unfactorable k); 3 periodic-refusal; 4 window-exceeded;
  5 budget-exceeded (every allocation is checked against GTMSEQ_BUDGET;
  set it to raise the memory budget); 6 stammering index below minimum
"""


def _report(command: str, parameters: dict, result) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "result": result,
        "version": __version__,
    }


def _emit(report: dict) -> None:
    print(json.dumps(report, sort_keys=True, separators=(", ", ": ")))


def _word_str(values) -> str:
    if all(v < 10 for v in values):
        return "".join(str(v) for v in values)
    return " ".join(str(v) for v in values)


def _cmd_gen(args) -> int:
    spec = parse_spec(args.specfile)
    count, start, stride = args.count, args.N, args.l

    def morphic_values():
        indices = spaced_indices(start, stride, count).tolist()
        m = 0
        while spec.k**m <= max(indices, default=0):
            m += 1
        word = generate_prefix_morphic(spec, m)
        return [word[i] for i in indices]

    if args.mode == "digit":
        values = list(equally_spaced(spec, start, stride, count).values)
        agree = None
    elif args.mode == "morphic":
        values = morphic_values()
        agree = None
    else:
        values = list(equally_spaced(spec, start, stride, count).values)
        agree = values == morphic_values()

    if args.json:
        result = {"values": values}
        if agree is not None:
            result["agree"] = agree
        _emit(_report("gen", {"specfile": args.specfile, "mode": args.mode,
                              "count": count, "N": start, "l": stride}, result))
    else:
        line = _word_str(values)
        if agree is not None:
            line += " AGREE" if agree else " DISAGREE"
        print(line)
    return 0


def _cmd_classify(args) -> int:
    spec = parse_spec(args.specfile)
    verdict = classify(spec)
    _emit(_report("classify", {"specfile": args.specfile}, verdict.to_record()))
    return 0


def _cmd_stammer(args) -> int:
    spec = parse_spec(args.specfile)
    witness = build_witness(spec, args.N, args.l, args.m)
    result = {
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
    _emit(_report("stammer", {"specfile": args.specfile, "N": args.N,
                              "l": args.l, "m": args.m}, result))
    return 0


def _cmd_kernel(args) -> int:
    spec = parse_spec(args.specfile)
    result = kernel_explore(spec, max_states=args.max_states)
    _emit(_report("kernel", {"specfile": args.specfile,
                             "max_states": args.max_states}, result.to_record()))
    return 0


def _truncated_decimal(value, digits: int) -> str:
    scaled = (value.numerator * 10**digits) // value.denominator
    text = str(scaled).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


def _cmd_eval(args) -> int:
    spec = parse_spec(args.specfile)
    lo, hi = eval_series(spec, args.N, args.l, args.beta, args.digits)
    lo_text = _truncated_decimal(lo, args.digits)
    hi_text = _truncated_decimal(hi, args.digits)
    result = {
        "decimal": lo_text,
        "decimal_settled": lo_text == hi_text,
        "lo": f"{lo.numerator}/{lo.denominator}",
        "hi": f"{hi.numerator}/{hi.denominator}",
    }
    _emit(_report("eval", {"specfile": args.specfile, "N": args.N, "l": args.l,
                           "beta": args.beta, "digits": args.digits}, result))
    return 0


def _cmd_cf(args) -> int:
    spec = parse_spec(args.specfile)
    conv = eval_cf(spec, args.N, args.l, args.depth)
    result = {
        "quotients": list(conv.quotients),
        "convergents": [[str(p), str(q)] for p, q in conv.convergents],
    }
    _emit(_report("cf", {"specfile": args.specfile, "N": args.N, "l": args.l,
                         "depth": args.depth}, result))
    return 0


def _cmd_gap(args) -> int:
    result = gap_multiple(args.l, args.k, args.t)
    _emit(_report("gap", {"l": args.l, "k": args.k, "t": args.t}, {
        "x": str(result.x),
        "leading_exponent": result.leading_exponent,
        "gap": result.gap,
        "expansion": [[s, w] for s, w in result.expansion.terms],
    }))
    return 0


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
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("classify", help="decide ultimate periodicity")
    p.add_argument("specfile")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("stammer", help="build a stammering witness")
    p.add_argument("specfile")
    p.add_argument("N", type=int)
    p.add_argument("l", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_stammer)

    p = sub.add_parser("kernel", help="explore the k-kernel DFAO")
    p.add_argument("specfile")
    p.add_argument("--max-states", type=int, default=4096)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("eval", help="evaluate the series sum a(N+nl)/beta^(n+1)")
    p.add_argument("specfile")
    p.add_argument("N", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--digits", type=int, default=12)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("cf", help="continued fraction [0: a(N), a(N+l), ...]")
    p.add_argument("specfile")
    p.add_argument("N", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--depth", type=int, default=20)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("gap", help="gap-multiple witness for (l, k, t)")
    p.add_argument("l", type=int)
    p.add_argument("k", type=int)
    p.add_argument("t", type=int)
    p.set_defaults(func=_cmd_gap)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.func(args)
    except GtmseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OverflowError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"wall_time_ms={elapsed_ms:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
