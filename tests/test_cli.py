import json
import sys
from contextlib import contextmanager
from importlib import resources

import pytest

from gtmseq import __version__, a_of_n, cli
from gtmseq.analytic import eval_series
from gtmseq.cli import main
from gtmseq.expansion import expand
from gtmseq.specfile import parse_spec


def spec_path(name):
    return str(resources.files("gtmseq") / "specs" / name)


TM = spec_path("thue_morse.spec")
PERIODIC = spec_path("periodic.spec")
ALTERNATING = spec_path("alternating.spec")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextmanager
def whole_ints():
    """Lift Python's int <-> str digit cap (3.10.7+) for a test's own checks."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    lift = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    lift(0)
    try:
        yield
    finally:
        lift(cap)


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

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int <-> str digit cap before Python 3.10.7")
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
        code, out, _ = run(capsys, "kernel", str(spec), "--max-states", "999")
        assert code == 0
        assert json.loads(out)["result"]["complete"] is False


class TestEval:
    def test_thue_morse_digits(self, capsys):
        code, out, _ = run(capsys, "eval", TM, "0", "1", "--beta", "2")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["decimal"] == "0.412454033640"
        assert report["result"]["decimal_settled"] is True

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

    def test_index_beyond_int64(self, capsys):
        half = str(2**62)
        code, out, err = run(capsys, "gen", TM, "--N", half, "--l", half, "--count", "3")
        assert code == 2
        assert out == ""
        assert "2**63" in err

    def test_huge_integer_is_usage_error(self, capsys):
        code, out, err = run(capsys, "eval", TM, str(2**63), "1", "--beta", "2")
        assert code == 2
        assert out == ""
        assert "error" in err

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
        # the largest block shift index is L * l * 2**m = 2**20 * 2**30 * 2**33
        spec = write_spec(tmp_path, 2**20, 2, 1)
        monkeypatch.setenv("GTMSEQ_BUDGET", str(2**21))
        code, out, err = run(capsys, "stammer", spec, "0", str(2**30), "33")
        assert code == 2
        assert out == ""
        assert "2**63" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("t,code", [(499, 0), (500, 5), (100000, 5)])
    def test_gap_budgeted(self, capsys, monkeypatch, t, code):
        # x*l carries 2*(t + 1) base-k digits of the modulus k**(t + 1)
        monkeypatch.setenv("GTMSEQ_BUDGET", "1000")
        got, out, err = run(capsys, "gap", "5", "2", str(t))
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
    def test_stammer_huge_m_is_usage_error(self, capsys, m):
        # m >= 63 puts the largest shift index L * l * k**m past 2**64
        code, out, err = run(capsys, "stammer", ALTERNATING, "0", "1", m)
        assert code == 2
        assert out == ""
        assert "2**63" in err
        assert "Traceback" not in err
