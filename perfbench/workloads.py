"""The three benchmark workloads.

Each workload generates its inputs from the seed alone (see
``reference``), hands the library nothing else, and exposes
``op(i)``, the timed unit of work, ``check(i, result, checks)``, the
untimed correctness checks of that op, and ``key(i)``, which of its
``n_keys`` distinct inputs op ``i`` runs.  Op ``i`` and op ``i + n_keys``
do the same work, so the loop revisits every input once per pass.
Library functions are looked up through their modules on every call, so
a tracer that rewraps them sees every call the workload makes.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import ceil, floor

import numpy as np

import reference as ref

SPOT_CHECKS = 256


class Checks:
    """Named correctness checks: how often each ran and how often it failed."""

    def __init__(self):
        self.runs: dict[str, int] = {}
        self.failed: dict[str, int] = {}

    def expect(self, name: str, ok: bool) -> bool:
        self.runs[name] = self.runs.get(name, 0) + 1
        if not ok:
            self.failed[name] = self.failed.get(name, 0) + 1
        return bool(ok)

    def record(self) -> dict:
        return {name: {"runs": n, "failed": self.failed.get(name, 0)}
                for name, n in sorted(self.runs.items())}


def _check_kernel_dfao(checks, t: ref.Table, transitions, outputs) -> bool:
    """The kernel automaton, read from state 0, reproduces a(n) for n < k**6,
    and at sampled n long enough to reach every column of the table twice."""
    n = t.k**6
    got = ref.dfao_prefixes(transitions, outputs, t.k, [0], n)[0]
    ok = np.array_equal(got, ref.values(t, np.arange(n)))
    rng = random.Random(n)
    for _ in range(SPOT_CHECKS):
        m = rng.randrange(t.k ** (2 * t.column_count() + 2))
        ok = ok and ref.dfao_value(transitions, outputs, t.k, m) == ref.value(t, m)
    return checks.expect("kernel_dfao", ok)


# -- corpus_pipeline -----------------------------------------------------

GEN_COUNT, GEN_N, GEN_L = 1024, 3, 5
SUB_N, SUB_L = 3, 5
EVAL_DIGITS, CF_DEPTH = 50, 300
GAP_L, GAP_T = 5, 4
# Window specs cover only indices below this, so gen, eval and cf (whose
# largest index is at least SUB_N + SUB_L*(EVAL_DIGITS-1)) exit 4.
WINDOW_MAX_INDEX = 200
# One block of the corpus: 64% small, 20% periodic, 12% large, 4% window.
BLOCK = ("small",) * 16 + ("periodic",) * 5 + ("large",) * 3 + ("window",)
CORPUS_BLOCKS = 8
# Shapes (L, k, y0, p) of the large tables, one of each per block.  The
# kernel closure's cost is set by the shape (it grows with ((y0+p)*L)**2),
# so fixed shapes give three tight latency bands above the small specs,
# and the p90 falls inside the cheapest band instead of in the sparse
# gap below a spread-out tail, where it would swing from run to run.
LARGE_SHAPES = ((6, 3, 8, 16), (8, 4, 8, 16), (12, 6, 8, 16))


class CorpusPipeline:
    """Every spec file of a seeded corpus through seven in-process CLI calls."""

    budget = 8_000_000

    def __init__(self, g, seed: int, workdir):
        self.g = g
        rng = random.Random(seed)
        self.specs = []
        for _ in range(CORPUS_BLOCKS):
            dealt = [ref.shaped_table(rng, *shape) for shape in LARGE_SHAPES]
            # Blocks open with a small spec, so the warm-up op (op 0) costs
            # about the same for every seed.
            kinds = list(BLOCK[1:])
            rng.shuffle(kinds)
            for kind in [BLOCK[0]] + kinds:
                t = dealt.pop() if kind == "large" else None
                self.specs.append(self._make(rng, kind, t, workdir, len(self.specs)))
        self.n_keys = len(self.specs)
        self.phase = "untraced"
        self.digests: dict[str, dict[int, str]] = {"untraced": {}, "traced": {}}
        self.verdicts: dict[int, bool] = {}

    @staticmethod
    def _make(rng, kind, t, workdir, index):
        if kind == "small":
            t = ref.random_table(rng)
        elif kind == "periodic":
            t = ref.periodic_table(rng)
        elif kind == "window":
            t = ref.window_table(rng, WINDOW_MAX_INDEX)
        (workdir / f"spec{index:03d}.spec").write_text(t.text(f"{kind}-{index}"))
        # Relative, so the printed specfile (and the stdout digest) does not
        # depend on where the checkout lives.
        path = os.path.relpath(workdir / f"spec{index:03d}.spec")
        status = ref.status(t)
        beta = t.L + rng.randint(0, 2)
        m = ref.min_legal_m(SUB_N, SUB_L, t.k)
        window = t.window is not None
        commands = [
            ("gen", ["gen", path, "--mode", "both", "--count", str(GEN_COUNT),
                     "--N", str(GEN_N), "--l", str(GEN_L)], 4 if window else 0),
            ("classify", ["classify", path], 0),
            ("kernel", ["kernel", path], 0),
            ("stammer", ["stammer", path, str(SUB_N), str(SUB_L), str(m)],
             0 if status == "NonPeriodic" else 3),
            ("eval", ["eval", path, str(SUB_N), str(SUB_L), "--beta", str(beta),
                      "--digits", str(EVAL_DIGITS)], 4 if window else 0),
            ("cf", ["cf", path, str(SUB_N), str(SUB_L), "--depth", str(CF_DEPTH)],
             4 if window else 0),
            ("gap", ["gap", str(GAP_L), str(t.k), str(GAP_T)], 0),
        ]
        return {"kind": kind, "table": t, "status": status, "beta": beta,
                "commands": commands}

    def key(self, i: int) -> int:
        return i % self.n_keys

    def op(self, i: int):
        main = self.g.cli.main
        outputs = []
        for _, argv, _ in self.specs[self.key(i)]["commands"]:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            outputs.append((code, out.getvalue()))
        return outputs

    @staticmethod
    def digest(result) -> str:
        h = hashlib.sha256()
        for code, text in result:
            h.update(f"{code}\n{text}\x00".encode())
        return h.hexdigest()

    def check(self, i: int, result, checks: Checks) -> bool:
        key = self.key(i)
        digest = self.digest(result)
        if self.phase == "traced" and key in self.digests["untraced"]:
            ok = checks.expect("stdout_trace_invariant", digest == self.digests["untraced"][key])
            return ok and self.verdicts[key]
        seen = self.digests[self.phase]
        if key in seen:
            return checks.expect("stdout_repeatable", digest == seen[key]) and self.verdicts[key]
        seen[key] = digest
        self.verdicts[key] = self._check_outputs(self.specs[key], result, checks)
        return self.verdicts[key]

    def _check_outputs(self, spec, result, checks: Checks) -> bool:
        t = spec["table"]
        ok = True
        for (name, _, expected_code), (code, text) in zip(spec["commands"], result):
            ok &= checks.expect("exit_code", code == expected_code)
            if code != 0 or code != expected_code:
                continue
            if name == "gen":
                word, _, tag = text.strip().rpartition(" ")
                want = ref.values(t, GEN_N + GEN_L * np.arange(GEN_COUNT))
                ok &= checks.expect("gen_agree", tag == "AGREE" and word == ref.word_str(want))
                continue
            report = json.loads(text)["result"]
            if name == "classify":
                ok &= self._check_classify(t, spec["status"], report, checks)
            elif name == "kernel":
                # A finite window leaves the closure inconclusive by design.
                complete = t.window is None
                ok &= checks.expect("kernel_complete", report["complete"] == complete)
                if complete:
                    ok &= _check_kernel_dfao(checks, t, report["transitions"], report["outputs"])
            elif name == "stammer":
                ok &= self._check_stammer(t, report, checks)
            elif name == "eval":
                lo, hi = Fraction(report["lo"]), Fraction(report["hi"])
                ok &= checks.expect("eval_bracket", ref.series_brackets(
                    t, SUB_N, SUB_L, spec["beta"], EVAL_DIGITS, lo, hi))
            elif name == "cf":
                want = [0] + [1 + int(v) for v in
                              ref.values(t, SUB_N + SUB_L * np.arange(CF_DEPTH))]
                ok &= checks.expect("cf_quotients", report["quotients"] == want)
            elif name == "gap":
                x = int(report["x"])
                terms = ref.expansion(x * GAP_L, t.k)
                gap_ok = (terms[0][0] == 1 and terms[0][1] == report["leading_exponent"]
                          and (len(terms) == 1 or terms[1][1] - terms[0][1] > GAP_T))
                ok &= checks.expect("gap_witness", gap_ok)
        if spec["kind"] == "periodic":
            # Constructed-periodic specs: classify says Periodic, stammer exits 3.
            classify_report = json.loads(result[1][1])["result"] if result[1][0] == 0 else {}
            ok &= checks.expect("periodic_refusal", classify_report.get("status") == "Periodic"
                                and result[3][0] == 3)
        return ok

    @staticmethod
    def _check_classify(t, status, report, checks) -> bool:
        ok = report["status"] == status
        if ok and status == "Periodic":
            A = ref.periodic_shift(t)
            ok = report["A"] == A and report["period"] == t.L * t.k**A
        return checks.expect("classify_status", ok)

    def _check_stammer(self, t, report, checks) -> bool:
        N, l, m = report["N"], report["l"], report["m"]
        nu, nv = report["U_length"], report["V_length"]
        w = Fraction(report["w_numerator"], report["w_denominator"])
        need = nu + nv * floor(w) + ceil((w - floor(w)) * nv)
        vals = ref.values(t, N + l * np.arange(need))
        shape_ok = (report["U"] == ref.word_str(vals[:nu])
                    and report["V"] == ref.word_str(vals[nu:nu + nv])
                    and w == Fraction(2 * t.L * l + 4, 2 * t.L * l + 3))
        witness = self.g.stammer.StammerWitness(
            U=tuple(int(v) for v in vals[:nu]), V=tuple(int(v) for v in vals[nu:nu + nv]),
            w=w, m=m, N=N, l=l, L=t.L, w2_len=report["repeated_block_length"],
            w3_len=report["spacer_length"], t=0, t_prime=0)
        spec = self.g.kappa.KappaSpec(**t.spec_kwargs())
        window = self.g.kappa.equally_spaced(spec, N, l, need)
        replay_ok, _ = self.g.stammer.verify_witness(window, witness)
        return checks.expect("stammer_replay", shape_ok and replay_ok)


# -- oracle_scan ---------------------------------------------------------

ORACLE_SPECS = 64
BRUTE_VALUES = 2**16
BRUTE_MAX_CALLS = 1400
AENP_START, AENP_STRIDE, AENP_HORIZON = 6, 6, 256


def brute_force_size(k: int) -> tuple[int, int]:
    """(e_max, horizon): at most BRUTE_MAX_CALLS subsequences, about 2**16 values."""
    e_max, calls = 0, 1
    while calls + k ** (e_max + 1) <= BRUTE_MAX_CALLS:
        e_max += 1
        calls += k**e_max
    return e_max, BRUTE_VALUES // calls


class OracleScan:
    """Kernel brute force and window scans over acceptance-range specs."""

    budget = 2**20

    def __init__(self, g, seed: int, workdir):
        self.g = g
        rng = random.Random(seed)
        # Bases cycle through 2..5, so the brute-force sizes (set by k) mix
        # the same way for every seed.
        self.tables = [ref.random_table(rng, k=2 + i % 4) for i in range(ORACLE_SPECS)]
        self.specs = [g.kappa.KappaSpec(**t.spec_kwargs()) for t in self.tables]
        self.n_keys = 3 * ORACLE_SPECS

    def key(self, i: int) -> int:
        return i % self.n_keys

    def _plan(self, i: int):
        # One brute-force op in three: a window scan is about a tenth of
        # its cost, so the median falls among the scans and the p90 among
        # the brute-force ops.  3 and ORACLE_SPECS are coprime, so every
        # spec meets both kinds.
        return ("kernel" if i % 3 == 0 else "aenp"), i % ORACLE_SPECS

    def op(self, i: int):
        kind, s = self._plan(i)
        spec, g = self.specs[s], self.g
        if kind == "kernel":
            e_max, horizon = brute_force_size(spec.k)
            return (g.automaton.kernel_brute_force(spec, e_max, horizon),
                    g.automaton.kernel_explore(spec))
        return g.periodicity.aenp_scan(spec, AENP_START, AENP_STRIDE, AENP_HORIZON)

    def check(self, i: int, result, checks: Checks) -> bool:
        kind, s = self._plan(i)
        t = self.tables[s]
        if kind == "aenp":
            want = []
            for l in range(1, AENP_STRIDE + 1):
                for N in range(AENP_START + 1):
                    vals = ref.values(t, N + l * np.arange(AENP_HORIZON))
                    found = ref.window_periods(vals, AENP_HORIZON // 4, AENP_HORIZON // 4)
                    if found is not None:
                        want.append({"N": N, "l": l, "preperiod": found[0], "period": found[1]})
            return checks.expect("aenp_windows", result == want)
        groups, kernel = result
        e_max, horizon = brute_force_size(t.k)
        if not checks.expect("kernel_complete", kernel.complete):
            return False
        ok = _check_kernel_dfao(checks, t, kernel.transitions, kernel.outputs)
        # Each (e, j) subsequence is the function of the state reached by
        # reading j's e digits, so the distinct prefixes over the states
        # reachable in <= e_max steps are exactly the brute-force groups.
        states = sorted(ref.reachable(kernel.transitions, t.k, e_max))
        prefixes = ref.dfao_prefixes(kernel.transitions, kernel.outputs, t.k, states, horizon)
        keys = {tuple(int(v) for v in row) for row in prefixes}
        ok &= checks.expect("brute_force_groups", set(groups) == keys)
        # Distinct states differ at some n < k**(y0+p); with a horizon that
        # long the group count equals the reachable count (criterion 11).
        if horizon >= t.k ** (t.y0 + t.p):
            ok &= checks.expect("brute_force_reachable", len(groups) == len(states))
        return ok


WORKLOADS = {
    "corpus_pipeline": CorpusPipeline,
    "oracle_scan": OracleScan,
}
