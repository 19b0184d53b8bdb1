import argparse
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gtmseq
from gtmseq import (
    KappaSpec,
    StammerWitness,
    __version__,
    a_of_n,
    cli,
    equally_spaced,
    gap_multiple,
    generate_prefix_morphic,
    spec_to_text,
    verify_witness,
)
from gtmseq.analytic import eval_series
from gtmseq.cli import main
from gtmseq.automaton import _STATE_WORDS
from gtmseq.expansion import _decimal_str, expand
from gtmseq.specfile import parse_spec
from conftest import gen_line_literal, run_child, tail_rounding_spec


def spec_path(name):
    return str(resources.files("gtmseq") / "specs" / name)


TM = spec_path("thue_morse.spec")
PERIODIC = spec_path("periodic.spec")
ALTERNATING = spec_path("alternating.spec")


def digit_sum_spec(tmp_path, L, kappa):
    """a(n) = kappa * (binary digit sum of n) mod L."""
    path = tmp_path / f"digit_sum_{L}.spec"
    path.write_text(f"L = {L}\nk = 2\npreperiod = 0\nperiod = 1\nkappa =\n{kappa}\n")
    return str(path)


def wide_letters_spec(tmp_path):
    """a(n) = 5 * (binary digit sum of n) mod 12: letters up to 11."""
    return digit_sum_spec(tmp_path, 12, 5)


# (L, kappa), a(0..7) as gen prints it, then a(0..7) and a(8..15) as
# stammer prints U and V: L = 10 reaches letter 9, L = 11 letter 10.
WORD_LINE_EDGES = pytest.mark.parametrize("L, kappa, line, U, V", [
    (10, 3, "03363669 AGREE\n", "03363669", "36696992"),
    (11, 5, "0 5 5 10 5 10 10 4 AGREE\n", "0 5 5 10 5 10 10 4", "5 10 10 4 10 4 4 9"),
], ids=["L10-run-together", "L11-space-separated"])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextmanager
def whole_ints():
    """Lift Python's int <-> str digit cap for a test's own checks."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


class TestReport:
    @pytest.mark.parametrize("argv,parameters", [
        (("gen", TM, "--mode", "both", "--count", "4", "--N", "1", "--l", "2", "--json"),
         {"specfile": TM, "mode": "both", "count": 4, "N": 1, "l": 2}),
        (("gen", TM, "--mode", "both", "--count", "4", "--N", "1", "--l", "2"), None),
        (("classify", TM), {"specfile": TM}),
        (("stammer", TM, "0", "1", "4"), {"specfile": TM, "N": 0, "l": 1, "m": 4}),
        (("kernel", TM, "--max-states", "7"), {"specfile": TM, "max_states": 7}),
        (("eval", TM, "2", "3", "--beta", "5", "--digits", "6"),
         {"specfile": TM, "N": 2, "l": 3, "beta": 5, "digits": 6}),
        (("cf", TM, "2", "3", "--depth", "5"), {"specfile": TM, "N": 2, "l": 3, "depth": 5}),
        (("gap", "6", "10", "2"), {"l": 6, "k": 10, "t": 2}),
    ])
    def test_parameters(self, capsys, argv, parameters):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        if parameters is None:
            # gen without --json prints its word line and no report
            assert out == "1001 AGREE\n"
            return
        report = json.loads(out)
        assert set(report) == {"command", "parameters", "result", "version"}
        assert report["command"] == argv[0]
        assert report["parameters"] == parameters
        assert report["version"] == __version__

    @pytest.mark.parametrize("argv", [
        ("gen", TM, "--count", "9", "--json"),
        ("classify", PERIODIC),
        ("kernel", ALTERNATING),
        ("stammer", TM, "1", "2", "5"),
        ("eval", TM, "2", "3", "--beta", "5", "--digits", "6"),
        ("cf", TM, "0", "1", "--depth", "30"),
        ("gap", "6", "10", "2"),
    ], ids=lambda argv: argv[0])
    def test_canonical_encoding(self, capsys, argv):
        # main's one encoder prints what json.dumps prints, sorted keys and all
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, separators=(", ", ": ")) + "\n"

    def test_non_ascii_path_escaped(self, tmp_path, capsys):
        try:
            os.fsencode("\u00e9")
        except UnicodeEncodeError:
            pytest.skip("the filesystem encoding cannot name the file (C locale)")
        path = tmp_path / "caf\u00e9.spec"
        path.write_bytes(Path(TM).read_bytes())
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert out.isascii() and "caf\\u00e9.spec" in out
        assert json.loads(out)["parameters"]["specfile"] == str(path)


class TestExactAnswers:
    """Answers beyond Python's 4300-digit int <-> str cap print whole."""

    def test_eval_beyond_digit_cap(self, capsys):
        code, out, err = run(capsys, "eval", TM, "0", "1", "--beta", "2", "--digits", "4400")
        assert code == 0
        assert "error" not in err
        result = json.loads(out)["result"]
        lo = eval_series(parse_spec(TM), 0, 1, 2, 4400)[0]
        with whole_ints():
            assert result["lo"] == f"{lo.numerator}/{lo.denominator}"
        assert len(result["decimal"]) == 4402

    def test_gap_beyond_digit_cap(self, capsys):
        code, out, _ = run(capsys, "gap", "5", "2", "10000")
        assert code == 0
        result = json.loads(out)["result"]
        with whole_ints():
            x = int(result["x"])
        assert sum(s * 2**w for s, w in result["expansion"]) == x * 5
        assert result["expansion"][0] == [1, result["leading_exponent"]]
        assert result["gap"] > 10000

    def test_digit_cap_restored(self, capsys):
        cap = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            assert run(capsys, "gap", "5", "2", "10000")[0] == 0
            assert sys.get_int_max_str_digits() == 5000
            assert run(capsys, "classify", "/nonexistent/x.spec")[0] == 2
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(cap)


class TestGen:
    def test_thue_morse_prefix(self, capsys):
        code, out, _ = run(capsys, "gen", TM, "--count", "8", "--mode", "both")
        assert code == 0
        assert out.strip() == "01101001 AGREE"

    def test_digit_mode_plain(self, capsys):
        code, out, _ = run(capsys, "gen", TM, "--count", "4")
        assert code == 0
        assert out.strip() == "0110"

    def test_strided_window(self, capsys):
        code, out, _ = run(
            capsys, "gen", TM, "--count", "6", "--N", "1", "--l", "3", "--mode", "both"
        )
        assert code == 0
        word, tag = out.split()
        assert tag == "AGREE"
        assert len(word) == 6

    def test_json_mode(self, capsys):
        code, out, _ = run(
            capsys, "gen", TM, "--count", "8", "--mode", "both", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "gen"
        assert report["result"]["values"] == [0, 1, 1, 0, 1, 0, 0, 1]
        assert report["result"]["agree"] is True

    def test_letters_above_nine_space_separated(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gen", wide_letters_spec(tmp_path),
                           "--count", "8", "--mode", "both")
        assert code == 0
        assert out == "0 5 5 10 5 10 10 3 AGREE\n"

    @WORD_LINE_EDGES
    def test_word_line_at_letter_ten(self, tmp_path, capsys, L, kappa, line, U, V):
        code, out, _ = run(capsys, "gen", digit_sum_spec(tmp_path, L, kappa),
                           "--count", "8", "--mode", "both")
        assert code == 0
        assert out == line

    @pytest.mark.parametrize("k", [2, 3])
    def test_largest_index_at_power_of_k(self, tmp_path, capsys, k):
        spec = tmp_path / "spec"
        spec.write_text(f"L = 3\nk = {k}\npreperiod = 0\nperiod = 2\nkappa =\n"
                        + "1 2\n" * (k - 1))
        for m in range(1, 6):
            for count in (k**m, k**m + 1):  # largest index k**m - 1, then k**m
                code, out, _ = run(capsys, "gen", str(spec), "--count", str(count),
                                   "--mode", "both")
                assert code == 0
                word, tag = out.split()
                assert (len(word), tag) == (count, "AGREE")

    @pytest.mark.parametrize("json_flag", [False, True])
    def test_routes_disagree(self, capsys, monkeypatch, json_flag):
        def flipped(spec, m):
            word = generate_prefix_morphic(spec, m)
            word[3] = (word[3] + 1) % spec.L
            return word

        monkeypatch.setattr(cli, "generate_prefix_morphic", flipped)
        argv = ["gen", TM, "--count", "8", "--mode", "both"] + ["--json"] * json_flag
        code, out, _ = run(capsys, *argv)
        assert code == 0
        if json_flag:
            result = json.loads(out)["result"]
            assert result == {"values": [0, 1, 1, 0, 1, 0, 0, 1], "agree": False}
        else:
            assert out == "01101001 DISAGREE\n"

    @pytest.mark.parametrize("mode,expected", [
        ("digit", "\n"), ("morphic", "\n"), ("both", " AGREE\n"),
    ])
    def test_count_zero_is_empty_window(self, capsys, mode, expected):
        code, out, err = run(
            capsys, "gen", TM, "--mode", mode, "--count", "0", "--N", str(10**12)
        )
        assert code == 0
        assert out == expected
        assert "error" not in err


@st.composite
def gen_cases(draw):
    """(spec, N, l, count): L up to 2**57, count in {0, 1, k**m, k**m + 1}."""
    L = draw(st.one_of(st.integers(2, 12), st.integers(2, 2**57)))
    k = draw(st.integers(2, 5))
    preperiod, period = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(0, L - 1)] * (preperiod + period))
    table = draw(st.tuples(*[row] * (k - 1)))
    spec = KappaSpec(L=L, k=k, preperiod=preperiod, period=period, table=table)
    m = draw(st.integers(0, 4))
    count = draw(st.sampled_from([0, 1, k**m, k**m + 1]))
    return spec, draw(st.integers(0, 1000)), draw(st.integers(1, 20)), count


class TestGenLiteral:
    @settings(max_examples=150, deadline=None)
    @given(gen_cases(), st.sampled_from(["morphic", "both"]))
    def test_matches_list_index_route(self, tmp_path_factory, case, mode):
        spec, N, l, count = case
        path = tmp_path_factory.getbasetemp() / "gen_literal.spec"
        path.write_text(spec_to_text(spec))
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(["gen", str(path), "--mode", mode, "--N", str(N), "--l", str(l),
                         "--count", str(count)])
        assert (code, out.getvalue()) == (0, gen_line_literal(spec, mode, N, l, count))


class TestWordStr:
    @pytest.mark.parametrize("values, line", [
        ((), ""),
        ([9], "9"),
        ((0, 9, 3), "093"),
        ([10], "10"),
        ((9, 10, 0), "9 10 0"),
    ], ids=["empty", "nine", "below-ten", "ten", "up-to-ten"])
    def test_edges(self, values, line):
        assert cli._word_str(values) == line

    @pytest.mark.parametrize("letters, line", [
        ([], ""),
        ([0, 9, 9], "099"),
        ([9, 10], "9 10"),
        ([2**57 - 1, 0, 2**57 - 2], f"{2**57 - 1} 0 {2**57 - 2}"),
    ], ids=["empty", "nine", "ten", "near-2**57"])
    def test_int64_arrays(self, letters, line):
        assert cli._word_str(np.array(letters, dtype=np.int64)) == line

    def test_random_words_match_join(self, rng):
        for _ in range(300):
            top = rng.choice([1, 9, 10, 11, 255, 2**57 - 1])
            word = [rng.randint(0, top) for _ in range(rng.randint(0, 40))]
            joined = ("" if max(word, default=0) < 10 else " ").join(map(str, word))
            assert cli._word_str(word) == joined
            assert cli._word_str(tuple(word)) == joined
            assert cli._word_str(np.array(word, dtype=np.int64)) == joined


class TestDecimalStr:
    """``expansion._decimal_str``, the printer of the long ints of ``eval`` and ``gap``."""

    @pytest.mark.parametrize("bits", [4094, 4095, 4096, 4097, 8191, 8192, 8193])
    def test_around_cutoff(self, bits):
        for n in (2**bits - 1, 2**bits, 2**bits + 1, 2**bits // 3):
            assert _decimal_str(n) == str(n)
            assert _decimal_str(-n) == str(-n)

    @pytest.mark.parametrize("limbs", [1, 2, 3])
    def test_limb_counts(self, rng, limbs):
        # Past the cutoff n is cut into ceil(bits / 4096) limbs of 4,096 bits.
        lo, hi = max(4096, 4096 * limbs - 4095), 4096 * limbs
        for bits in (lo, (lo + hi) // 2, hi):
            for n in (2**bits - 1, 2 ** (bits - 1), rng.getrandbits(bits) | 2 ** (bits - 1)):
                assert -(-n.bit_length() // 4096) == limbs
                assert _decimal_str(n) == str(n)
                assert _decimal_str(-n) == str(-n)

    @pytest.mark.parametrize("j", [1, 1232, 1233, 1234, 2466, 4932, 9864, 12041])
    def test_powers_of_ten(self, j):
        # 10**1233 has 4,096 bits; 10**12041, about 40,000.
        with whole_ints():
            for n in (10**j - 1, 10**j, 10**j + 1):
                assert _decimal_str(n) == str(n)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 40_000).flatmap(lambda bits: st.integers(-(2**bits), 2**bits)))
    def test_matches_str(self, n):
        with whole_ints():
            assert _decimal_str(n) == str(n)

    def test_gap_witness_prints_fast(self):
        # For l = 2 and k = 5, gap_multiple returns x = D*D*2, where
        # D = (5**(t+1) + 1) / 2 inverts 2 mod 5**(t+1).  At t = 400,000 x
        # has 559,178 digits, which str() takes seconds of CPU to print.
        assert gap_multiple(2, 5, 10).x == (5**11 + 1)**2 // 2
        x = (5**400_001 + 1)**2 // 2
        started = time.process_time()
        text = _decimal_str(x)
        assert time.process_time() - started < 1.0
        assert len(text) == 559_178
        assert text[-30:] == str(x % 10**30).rjust(30, "0")
        assert int(text[:30]) == x // 10**(len(text) - 30)


class TestClassify:
    def test_thue_morse(self, capsys):
        code, out, _ = run(capsys, "classify", TM)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["status"] == "NonPeriodic"

    def test_periodic_spec(self, capsys):
        code, out, _ = run(capsys, "classify", PERIODIC)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["status"] == "Periodic"
        assert report["result"]["period"] == 2

    def test_finite_window_bound(self, tmp_path, capsys):
        spec = tmp_path / "window.spec"
        spec.write_text("L = 2\nk = 2\nwindow = 3\nkappa =\n1 1 0\n")
        code, out, _ = run(capsys, "classify", str(spec))
        assert code == 0
        assert json.loads(out)["result"] == {"status": "UnknownUpToBound", "bound": 3}

    def test_verdict_record_shapes(self, tmp_path, capsys):
        rec = json.loads(run(capsys, "classify", TM)[1])["result"]
        assert rec["status"] == "NonPeriodic"
        assert all(len(r) == 3 for r in rec["refutations"])
        rec = json.loads(run(capsys, "classify", write_spec(tmp_path, 2, 2, 0))[1])["result"]
        assert set(rec) == {"status", "A", "period", "checked_window"}

    def test_byte_identical_reruns(self, capsys):
        outs = set()
        for _ in range(3):
            code, out, _ = run(capsys, "classify", ALTERNATING)
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    def test_wall_time_on_stderr_only(self, capsys):
        _, out, err = run(capsys, "classify", TM)
        assert "wall_time_ms" in err
        assert "wall_time_ms" not in out


class TestStammer:
    def test_witness_report(self, capsys):
        code, out, _ = run(capsys, "stammer", TM, "0", "1", "4")
        assert code == 0
        report = json.loads(out)
        result = report["result"]
        assert result["w_numerator"] > result["w_denominator"]
        assert len(result["V"]) == result["V_length"]

    def test_letters_above_nine_space_separated(self, tmp_path, capsys):
        code, out, _ = run(capsys, "stammer", wide_letters_spec(tmp_path), "0", "1", "3")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["U"] == "0 5 5 10 5 10 10 3"  # a(0..7)
        assert result["V"] == "5 10 10 3 10 3 3 8"  # a(8..15)
        assert (result["U_length"], result["V_length"]) == (8, 8)

    @WORD_LINE_EDGES
    def test_words_at_letter_ten(self, tmp_path, capsys, L, kappa, line, U, V):
        code, out, _ = run(capsys, "stammer", digit_sum_spec(tmp_path, L, kappa), "0", "1", "3")
        assert code == 0
        result = json.loads(out)["result"]
        assert (result["U"], result["V"]) == (U, V)
        assert (result["U_length"], result["V_length"]) == (8, 8)

    def test_tail_bound_exact_not_rounded(self, tmp_path, capsys):
        spec = tail_rounding_spec()
        path = tmp_path / "tail.spec"
        path.write_text(spec_to_text(spec))
        code, out, _ = run(capsys, "stammer", str(path), "0", "7", "4")
        assert code == 0
        r = json.loads(out)["result"]
        block = spec.k ** r["m"]
        U, V = tuple(map(int, r["U"])), tuple(map(int, r["V"]))
        witness = StammerWitness(
            U=U, V=V, w=Fraction(r["w_numerator"], r["w_denominator"]),
            m=r["m"], N=r["N"], l=r["l"], L=spec.L,
            w2_len=r["repeated_block_length"], w3_len=r["spacer_length"],
            t=len(U) // block, t_prime=(len(U) + len(V)) // block,
        )
        window = equally_spaced(spec, 0, 7, len(witness.prefix_word()))
        ok, diag = verify_witness(window, witness)
        assert ok, diag

    def test_periodic_refusal_exit_code(self, capsys):
        code, _, err = run(capsys, "stammer", PERIODIC, "0", "1", "6")
        assert code == 3
        assert "error" in err

    def test_m_too_small_exit_code(self, capsys):
        code, _, err = run(capsys, "stammer", TM, "0", "1", "1")
        assert code == 6
        assert "error" in err


class TestKernel:
    def test_thue_morse(self, capsys):
        code, out, _ = run(capsys, "kernel", TM)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["complete"] is True
        assert len(report["result"]["states"]) == 2

    def test_schema_stable(self, capsys):
        _, out1, _ = run(capsys, "kernel", ALTERNATING)
        _, out2, _ = run(capsys, "kernel", ALTERNATING)
        assert out1 == out2

    @pytest.mark.parametrize("max_states", ["0", "-5"])
    def test_max_states_below_one_is_usage_error(self, capsys, max_states):
        code, out, err = run(capsys, "kernel", TM, "--max-states", max_states)
        assert (code, out) == (2, "")
        assert f"error: max_states must be >= 1, got {max_states}" in err

    def test_states_past_budget_exit_5(self, tmp_path, capsys, monkeypatch):
        # With L = 2**57 nearly every state is new: max_states does not stop
        # the closure, so the budget has to.
        spec = tmp_path / "wide.spec"
        spec.write_text(f"L = {2**57}\nk = 3\npreperiod = 0\nperiod = 3\nkappa =\n1 2 3\n5 7 11\n")
        monkeypatch.setenv("GTMSEQ_BUDGET", "1000")
        code, out, err = run(capsys, "kernel", str(spec), "--max-states", str(2**63))
        assert code == 5
        assert out == ""
        assert "budget" in err
        # 1,000 words admit 10 states of 40 + k words of closure and 48 + 2k
        # of record, 97 words at k = 3: a cap of 10 stops the closure first.
        assert 1000 // (_STATE_WORDS + 48 + 3 * 3) == 10
        code, out, _ = run(capsys, "kernel", str(spec), "--max-states", "10")
        assert code == 0
        assert json.loads(out)["result"]["complete"] is False
        # the closure alone admits 23 states, but their record does not fit
        assert 1000 // (_STATE_WORDS + 3) == 23
        code, out, err = run(capsys, "kernel", str(spec), "--max-states", "12")
        assert (code, out) == (5, "")
        assert "error: 1164 values exceed budget 1000" in err  # 12 states of 97 words

    @pytest.mark.parametrize("k", [2, 16])
    def test_peak_memory_within_budget(self, tmp_path, k):
        # With L = 2**57 and one letter c for every digit, each row adds the
        # one new state offset + c, so max_states sets the closure's size:
        # at the most states the budget admits, the closure, the record and
        # its printed text fit in the charged words.
        budget = 4_000_000
        states = budget // (_STATE_WORDS + 48 + 3 * k)
        spec = tmp_path / "wide.spec"
        spec.write_text(f"L = {2**57}\nk = {k}\npreperiod = 0\nperiod = 1\nkappa =\n"
                        + f"{2**56 + 12345}\n" * (k - 1))
        code = (
            "import os, sys\n"
            "from gtmseq.cli import main\n"
            "real, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
            f"codes = [main(['kernel', {str(spec)!r}, '--max-states', str(n)])\n"
            f"         for n in ({states}, {states + 1})]\n"
            "sys.stdout = real\n"
            "print(*codes)\n"
        )
        _, import_mb = run_child("import gtmseq.cli\n")
        codes, peak_mb = run_child(code, GTMSEQ_BUDGET=str(budget))
        assert codes == ["0", "5"]
        assert peak_mb - import_mb <= budget * 8 / 2**20


class TestEval:
    def test_thue_morse_digits(self, capsys):
        code, out, _ = run(capsys, "eval", TM, "0", "1", "--beta", "2")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["decimal"] == "0.412454033640"
        assert report["result"]["decimal_settled"] is True

    @pytest.mark.parametrize("N, l, decimal, hi", [
        (0, 7, "0.4", "1/2"),  # hi lies exactly on the next step, 0.5
        (1, 6, "0.9", "1/1"),  # hi carries into the integer part
    ])
    def test_unsettled_decimal(self, capsys, N, l, decimal, hi):
        code, out, _ = run(capsys, "eval", TM, str(N), str(l), "--beta", "2", "--digits", "1")
        assert code == 0
        result = json.loads(out)["result"]
        assert (result["decimal"], result["decimal_settled"], result["hi"]) == (decimal, False, hi)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 10**9),
           st.one_of(st.integers(1, 10**9), st.integers(0, 9).map(lambda e: 10**e)),
           st.integers(1, 10**4), st.integers(0, 9))
    def test_settled_iff_endpoints_truncate_alike(self, digits, num, den, width, scale):
        """Any enclosure lo < hi, decimal ones included, so hi can sit on a step."""
        lo = Fraction(num, den)
        hi = lo + Fraction(width, 10**scale)

        def truncated(value):  # the two-truncation oracle
            text = str(value.numerator * 10**digits // value.denominator).rjust(digits + 1, "0")
            return f"{text[:-digits]}.{text[-digits:]}"

        args = argparse.Namespace(N=0, l=1, beta=2, digits=digits)
        with mock.patch.object(cli, "eval_series", lambda *_: (lo, hi)):
            result = cli._eval(None, args)
        assert result["decimal"] == truncated(lo)
        assert result["decimal_settled"] == (truncated(lo) == truncated(hi))

    def test_interval_endpoints_parse(self, capsys):
        _, out, _ = run(capsys, "eval", TM, "0", "1", "--beta", "3", "--digits", "6")
        result = json.loads(out)["result"]
        lo_n, lo_d = map(int, result["lo"].split("/"))
        hi_n, hi_d = map(int, result["hi"].split("/"))
        assert lo_n * hi_d <= hi_n * lo_d

    def test_beta_too_small_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", TM, "0", "1", "--beta", "1")
        assert code == 2
        assert "error" in err


class TestCf:
    def test_report_shape(self, capsys):
        code, out, _ = run(capsys, "cf", TM, "0", "1", "--depth", "10")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["quotients"][0] == 0
        assert len(result["convergents"]) == len(result["quotients"])
        p1, q1 = map(int, result["convergents"][-1])
        p0, q0 = map(int, result["convergents"][-2])
        assert abs(p1 * q0 - p0 * q1) == 1

    def test_convergent_table_budgeted(self, capsys, monkeypatch):
        # 5000 quotients fit a budget of 20000 values; their convergents,
        # about 5000**2 * 2 bits, do not.
        monkeypatch.setenv("GTMSEQ_BUDGET", "20000")
        code, out, err = run(capsys, "cf", TM, "0", "1", "--depth", "5000")
        assert code == 5
        assert out == ""
        assert "budget" in err

    def test_default_budget_admits_depth_300(self, capsys):
        code, out, _ = run(capsys, "cf", TM, "0", "1", "--depth", "300")
        assert code == 0
        tm = parse_spec(TM)
        quotients = [0] + [a_of_n(tm, n) + 1 for n in range(300)]
        convergents = [(0, 1)]
        p, q, p_prev, q_prev = 0, 1, 1, 0
        for a in quotients[1:]:
            p, p_prev, q, q_prev = a * p + p_prev, p, a * q + q_prev, q
            convergents.append((p, q))
        assert json.loads(out)["result"] == {
            "quotients": quotients,
            "convergents": [[str(p), str(q)] for p, q in convergents],
        }


class TestParserReuse:
    """main builds its parser once per process; later calls answer like a first."""

    @staticmethod
    def call(capsys, *argv, first=False):
        if first:
            cli._parser.cache_clear()
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv", [
        ("kernel", TM, "--max-states", "7"),
        ("stammer", TM, "0", "1", "1"),
        ("gen", TM, "--count", "many"),
    ])
    def test_same_argv_twice(self, capsys, argv):
        first = self.call(capsys, *argv, first=True)
        for _ in range(2):
            code, out, err = self.call(capsys, *argv)
            assert (code, out) == first[:2]
            if code:
                assert "error:" in err and err == first[2]
        assert cli._parser.cache_info().misses == 1

    def test_usage_error_then_valid_call(self, capsys):
        usage = ("gen", TM, "--count", "many")
        first_error = self.call(capsys, *usage, first=True)
        assert first_error[0] == 2 and first_error[1] == ""
        code, out, _ = self.call(capsys, "classify", TM)
        assert code == 0
        assert self.call(capsys, *usage) == first_error
        assert (code, out) == self.call(capsys, "classify", TM, first=True)[:2]

    def test_rewritten_spec_file_read_again(self, tmp_path, capsys):
        # parse_spec keeps one spec per text, so a new text in the same
        # file gives a new spec, and its tables are built for it.
        path = digit_sum_spec(tmp_path, 5, 1)
        assert run(capsys, "gen", path, "--count", "8", "--mode", "both")[:2] == (
            0, "01121223 AGREE\n")
        digit_sum_spec(tmp_path, 5, 2)
        assert run(capsys, "gen", path, "--count", "8", "--mode", "both")[:2] == (
            0, "02242441 AGREE\n")


class TestGap:
    def test_verified_expansion(self, capsys):
        code, out, _ = run(capsys, "gap", "6", "10", "2")
        assert code == 0
        result = json.loads(out)["result"]
        x = int(result["x"])
        total = sum(s * 10**w for s, w in result["expansion"])
        assert total == x * 6
        first, second = result["expansion"][0], result["expansion"][1]
        assert first[0] == 1
        assert first[1] == result["leading_exponent"]
        assert second[1] - first[1] > 2
        assert result["gap"] == second[1] - first[1]


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "classify", "/nonexistent/x.spec")
        assert code == 2
        assert "error" in err

    def test_directory_path_is_usage_error(self, tmp_path, capsys):
        code, out, err = run(capsys, "classify", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "error" in err
        assert "Traceback" not in err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_text("L = 2\nbogus = 1\n")
        code, _, err = run(capsys, "classify", str(bad))
        assert code == 2
        assert "error" in err

    def test_window_exceeded(self, tmp_path, capsys):
        spec = tmp_path / "window.spec"
        spec.write_text("L = 2\nk = 2\nwindow = 2\nkappa =\n1 1\n")
        code, _, err = run(capsys, "gen", str(spec), "--count", "64")
        assert code == 4
        assert "error" in err

    def test_budget_exceeded(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GTMSEQ_BUDGET", "10")
        code, _, err = run(capsys, "gen", TM, "--count", "64", "--mode", "morphic")
        assert code == 5
        assert "error" in err

    @pytest.mark.parametrize("budget", ["1e6", "lots"])
    def test_budget_not_an_integer(self, capsys, monkeypatch, budget):
        monkeypatch.setenv("GTMSEQ_BUDGET", budget)
        code, out, err = run(capsys, "gen", TM)
        assert code == 2
        assert out == ""
        assert f"error: GTMSEQ_BUDGET must be an integer, got {budget!r}" in err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one(self, capsys, monkeypatch, budget):
        monkeypatch.setenv("GTMSEQ_BUDGET", budget)
        code, out, err = run(capsys, "gen", TM, "--count", "4")
        assert (code, out) == (2, "")
        assert f"error: GTMSEQ_BUDGET must be at least 1, got {budget!r}" in err

    @pytest.mark.parametrize("budget", ["0", "lots"])
    @pytest.mark.parametrize("argv", [
        ("gen", TM),
        ("classify", TM),
        ("stammer", PERIODIC, "0", "1", "14"),
        ("kernel", TM),
        ("eval", TM, "0", "1", "--beta", "3"),
        ("cf", TM, "0", "1"),
        ("gap", "6", "10", "2"),
    ], ids=lambda argv: argv[0])
    def test_bad_budget_fails_every_command(self, capsys, monkeypatch, argv, budget):
        # read before the spec: classify would exit 0 and this stammer 3
        monkeypatch.setenv("GTMSEQ_BUDGET", budget)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: GTMSEQ_BUDGET must be")

    @pytest.mark.parametrize("argv", [("kernel", TM), ("gen", TM, "--count", "3")],
                             ids=["report", "word-line"])
    def test_closed_stdout(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails
        try:
            child = subprocess.run(
                [sys.executable, "-m", "gtmseq.cli", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=str(Path(gtmseq.__file__).parents[1])))
        finally:
            os.close(write_end)
        assert child.returncode == 2
        assert re.fullmatch(r"error: .*Broken pipe\n", child.stderr), child.stderr

    @pytest.mark.parametrize("argv", [
        ("gen", TM, "--count", "5000"),
        ("cf", TM, "0", "1", "--depth", "5000"),
        ("stammer", TM, "0", "1", "14"),
    ])
    def test_every_window_budgeted(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("GTMSEQ_BUDGET", "1000")
        code, out, err = run(capsys, *argv)
        assert code == 5
        assert out == ""
        assert "budget" in err

    @pytest.mark.parametrize("text, message", [
        ("L = 2\nbogus\n", "line 2: expected 'key = value', got 'bogus'"),
        ("L = 2\nk = 2\nperiod = 1\nkappa = 1\n", "line 4: kappa marker takes no inline value"),
        ("k = 2\nperiod = 1\nkappa =\n1\n", "missing required field 'L'"),
        ("L = 2\nk = 2\nkappa =\n1\n", "need either period (with preperiod) or window"),
    ], ids=["key-value", "kappa-inline", "required-field", "period-or-window"])
    def test_spec_parse_messages(self, tmp_path, capsys, text, message):
        spec = tmp_path / "bad.spec"
        spec.write_text(text)
        assert run(capsys, "classify", str(spec)) == (2, "", f"error: {message}\n")

    def test_index_beyond_int64(self, capsys):
        tm = parse_spec(TM)
        for N, l in [(2**62, 2**62), (2**70, 3), (5, 2**70 + 1)]:
            want = [a_of_n(tm, N + n * l) for n in range(8)]
            code, out, err = run(capsys, "gen", TM, "--N", str(N), "--l", str(l), "--count", "8")
            assert (code, out) == (0, "".join(map(str, want)) + "\n")
            code, out, err = run(capsys, "cf", TM, str(N), str(l), "--depth", "8")
            assert code == 0
            assert json.loads(out)["result"]["quotients"] == [0] + [a + 1 for a in want]

    def test_huge_integer_answers(self, capsys):
        # 14 digits take 14 * 4 + 2 = 58 terms in base 2
        tm = parse_spec(TM)
        code, out, err = run(capsys, "eval", TM, str(2**63), str(2**70), "--beta", "2",
                             "--digits", "14")
        assert code == 0
        terms = [a_of_n(tm, 2**63 + n * 2**70) for n in range(58)]
        numerator = int("".join(map(str, terms)), 2)
        assert json.loads(out)["result"]["lo"] == f"{numerator}/{2**58}"

    def test_large_prime_k_gets_witness(self, capsys):
        k = 2**61 - 1
        code, out, err = run(capsys, "gap", "5", str(k), "4")
        assert code == 0
        assert "error" not in err
        terms = expand(int(json.loads(out)["result"]["x"]) * 5, k).terms
        assert terms[0][0] == 1
        assert len(terms) == 1 or terms[1][1] - terms[0][1] > 4

    @pytest.mark.parametrize("argv", [
        ("cf", TM, "5", "-1", "--depth", "4"),
        ("gen", TM, "--mode", "morphic", "--l", "-1", "--count", "3"),
        ("gen", TM, "--mode", "morphic", "--l", "-1", "--count", "2"),
        ("gen", TM, "--mode", "both", "--l", "-1", "--count", "3"),
        ("gen", TM, "--mode", "morphic", "--l", "0", "--count", "1"),
    ])
    def test_negative_stride_is_usage_error(self, capsys, argv):
        # a decreasing run a(5), a(4), ... is no subsequence a(N + n*l)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "stride >= 1" in err
        assert "Traceback" not in err

    def test_single_value_ignores_huge_stride(self, capsys):
        code, out, err = run(capsys, "gen", TM, "--count", "1", "--l", str(2**65))
        assert code == 0
        assert "error" not in err
        assert out == run(capsys, "gen", TM, "--count", "1", "--l", "1")[1]


def write_spec(tmp_path, L, k, row):
    path = tmp_path / "s.spec"
    path.write_text(f"L = {L}\nk = {k}\npreperiod = 0\nperiod = 1\nkappa =\n{row}\n")
    return str(path)


class TestLimits:
    def test_modulus_above_2_57_is_usage_error(self, tmp_path, capsys):
        L = 3 * 2**61
        spec = write_spec(tmp_path, L, 2, L - 1)
        code, out, err = run(capsys, "gen", spec, "--mode", "both", "--count", "8")
        assert code == 2
        assert out == ""
        assert "2**57" in err

    def test_stammer_shifts_budgeted(self, tmp_path, capsys, monkeypatch):
        # L + 1 = 1001 block shifts; the witness itself needs only 48 values
        spec = write_spec(tmp_path, 1000, 2, 1)
        monkeypatch.setenv("GTMSEQ_BUDGET", "1000")
        code, out, err = run(capsys, "stammer", spec, "0", "1", "4")
        assert code == 5
        assert out == ""
        assert "budget" in err
        monkeypatch.setenv("GTMSEQ_BUDGET", "1001")
        assert run(capsys, "stammer", spec, "0", "1", "4")[0] == 0

    def test_stammer_shift_index_reaches_2_63(self, tmp_path, capsys, monkeypatch):
        # the largest block shift index is L * l * 2**m = 2**20 * 2**30 * 2**33,
        # and the witness reads more than 2**33 values, past the budget
        spec = write_spec(tmp_path, 2**20, 2, 1)
        monkeypatch.setenv("GTMSEQ_BUDGET", str(2**21))
        code, out, err = run(capsys, "stammer", spec, "0", str(2**30), "33")
        assert code == 5
        assert out == ""
        assert "2**33 values, past budget 2097152" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("k,t,code", [
        pytest.param(2, 499, 0, id="499-0"),
        pytest.param(2, 500, 5, id="500-5"),
        pytest.param(2, 100000, 5, id="100000-5"),
        pytest.param(2**64 - 1, 499, 0, id="k2**64-1-499-0"),
        pytest.param(2**64 - 1, 500, 5, id="k2**64-1-500-5"),
        pytest.param(2**4000 + 1, 6, 0, id="k2**4000+1-6-0"),
        pytest.param(2**4000 + 1, 7, 5, id="k2**4000+1-7-5"),
        pytest.param(2**4000 + 1, 10, 5, id="k2**4000+1-10-5"),
    ])
    def test_gap_budgeted(self, capsys, monkeypatch, k, t, code):
        # x*l carries 2*(t + 1) base-k digits of the modulus k**(t + 1), each
        # of ceil(bits(k) / 64) 64-bit words: 1 below 2**64, 63 for 2**4000 + 1
        monkeypatch.setenv("GTMSEQ_BUDGET", "1000")
        got, out, err = run(capsys, "gap", "5", str(k), str(t))
        assert got == code
        assert (out == "") == (code == 5)
        assert ("budget" in err) == (code == 5)

    @pytest.mark.parametrize("beta,digits,code", [
        (2, 249, 0),
        (2, 250, 5),
        (2**64 - 1, 998, 0),
        (2**64 - 1, 999, 5),
        (2**4000, 13, 0),
        (2**4000, 14, 5),
        (2**4000, 20, 5),
    ], ids=["2-249-0", "2-250-5", "2**64-1-998-0", "2**64-1-999-5",
            "2**4000-13-0", "2**4000-14-5", "2**4000-20-5"])
    def test_eval_budgeted(self, capsys, monkeypatch, beta, digits, code):
        # digits * (base-beta length of 9) + 2 terms of the numerator, each of
        # ceil(bits(beta) / 64) 64-bit words: 4 * digits + 2 terms of 1 word
        # for beta = 2, digits + 2 terms of 1 or 63 words for the others
        monkeypatch.setenv("GTMSEQ_BUDGET", "1000")
        got, out, err = run(capsys, "eval", TM, "0", "1", "--beta", str(beta),
                            "--digits", str(digits))
        assert got == code
        assert (out == "") == (code == 5)
        assert ("budget" in err) == (code == 5)

    def test_large_modulus_classified(self, tmp_path, capsys, monkeypatch):
        # 2 has order 100002 mod the prime 100003; classify never walks it
        spec = write_spec(tmp_path, 100003, 2, 1)
        code, out, _ = run(capsys, "classify", spec)
        assert code == 0
        assert json.loads(out)["result"]["status"] == "NonPeriodic"
        monkeypatch.setenv("GTMSEQ_BUDGET", "1000")
        assert run(capsys, "classify", spec)[:2] == (0, out)

    @pytest.mark.parametrize(
        "k,row,result",
        [
            (2, "0", {"status": "Periodic", "A": 0, "period": 2**57 - 13}),
            (3, "1\n2", {"status": "NonPeriodic", "refutations": [[0, 1, 1]]}),
        ],
        ids=["zero-k2", "k3"],
    )
    @pytest.mark.parametrize("budget", [None, "1000"], ids=["default", "budget-1000"])
    def test_modulus_near_2_57_classified(self, tmp_path, capsys, monkeypatch,
                                          k, row, result, budget):
        if budget:
            monkeypatch.setenv("GTMSEQ_BUDGET", budget)
        code, out, err = run(capsys, "classify", write_spec(tmp_path, 2**57 - 13, k, row))
        assert code == 0
        assert "error" not in err
        got = json.loads(out)["result"]
        assert {key: got[key] for key in result} == result

    @pytest.mark.parametrize("m", ["100000000", "1099511627776"])
    def test_stammer_huge_m_exceeds_budget(self, capsys, m):
        # k**m is never built: m alone decides that it passes the budget
        started = time.process_time()
        code, out, err = run(capsys, "stammer", ALTERNATING, "0", "1", m)
        assert time.process_time() - started < 0.5
        assert code == 5
        assert out == ""
        assert "budget" in err
        assert "Traceback" not in err
