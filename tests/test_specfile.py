import errno
import os
from dataclasses import replace

import pytest

from gtmseq import KappaSpec, SpecParseError, parse_spec, parse_spec_text, spec_to_text
from gtmseq.cli import main
from conftest import alternating_spec, random_spec, run_child, tm_spec

TM_TEXT = "name = thue-morse\nL = 2\nk = 2\npreperiod = 0\nperiod = 1\nkappa =\n1\n"


class TestParse:
    def test_basic(self):
        spec = parse_spec_text(
            "name = tm\nL = 2\nk = 2\npreperiod = 0\nperiod = 1\nkappa =\n1\n"
        )
        assert spec.L == 2 and spec.k == 2 and spec.table == ((1,),)
        assert spec.preperiod == 0 and spec.period == 1
        assert spec.name == "tm"

    def test_comments_and_blanks(self):
        text = """
        # header comment
        L = 2   # inline
        k = 3

        period = 2
        kappa =
        1 0  # row for s = 1
        0 1
        """
        spec = parse_spec_text(text)
        assert spec.table == ((1, 0), (0, 1))
        assert spec.preperiod == 0

    def test_finite_window(self):
        spec = parse_spec_text("L = 2\nk = 2\nwindow = 3\nkappa =\n1 0 1\n")
        assert spec.is_finite_window
        assert spec.window == 3

    def test_roundtrip(self, rng):
        specs = [tm_spec(), alternating_spec()] + [random_spec(rng) for _ in range(10)]
        # "name =" parses to "", so an empty name is written too
        specs += [replace(tm_spec(), name=name) for name in (None, "", "tm v2", "a=b")]
        for spec in specs:
            assert parse_spec_text(spec_to_text(spec)) == spec

    def test_roundtrip_finite_window(self):
        spec = KappaSpec(L=3, k=2, preperiod=0, period=None, table=((1, 2, 0),), window=3)
        assert parse_spec_text(spec_to_text(spec)) == spec

    def test_unwritable_names_rejected(self):
        for name in ("tm # v2", "#", "a\nb", "a\rb", "a\u2028b", " tm", "tm ", "\t"):
            with pytest.raises(ValueError):
                spec_to_text(replace(tm_spec(), name=name))


class TestParseErrors:
    def test_missing_kappa(self):
        with pytest.raises(SpecParseError):
            parse_spec_text("L = 2\nk = 2\nperiod = 1\n")

    def test_bad_key_has_line_number(self):
        with pytest.raises(SpecParseError) as exc:
            parse_spec_text("L = 2\nbogus = 3\n")
        assert exc.value.line == 2

    def test_bad_row(self):
        with pytest.raises(SpecParseError) as exc:
            parse_spec_text("L = 2\nk = 2\nperiod = 1\nkappa =\nx\n")
        assert exc.value.line == 5

    def test_window_and_period_conflict(self):
        with pytest.raises(SpecParseError):
            parse_spec_text("L = 2\nk = 2\nperiod = 1\nwindow = 2\nkappa =\n1\n")

    def test_wrong_shape(self):
        with pytest.raises(SpecParseError):
            parse_spec_text("L = 2\nk = 3\nperiod = 1\nkappa =\n1\n")

    def test_non_integer_value(self):
        with pytest.raises(SpecParseError) as exc:
            parse_spec_text("L = two\nk = 2\nperiod = 1\nkappa =\n1\n")
        assert exc.value.line == 1

    def test_repeated_key_names_its_line(self):
        with pytest.raises(SpecParseError, match="repeated key 'L'") as exc:
            parse_spec_text("L = 2\nk = 2\nL = 3\nperiod = 1\nkappa =\n1\n")
        assert exc.value.line == 3
        assert exc.value.exit_code == 2


class TestReadFile:
    """``parse_spec`` reads raw bytes; a text-mode read gives the same spec."""

    @pytest.mark.parametrize("data", [
        TM_TEXT.replace("\n", "\r\n").encode(),
        TM_TEXT.replace("\n", "\r").encode(),
        b"# header\n  # indented comment\n#\n" + TM_TEXT.encode() + b"# trailer",
        TM_TEXT.replace("thue-morse", "Thue\u2013Morse \u00e9\u03ba").encode(),
    ], ids=["crlf", "lone-cr", "comment-lines", "utf8-name"])
    def test_matches_text_read(self, tmp_path, data):
        path = tmp_path / "x.spec"
        path.write_bytes(data)
        want = parse_spec_text(path.read_text(encoding="utf-8"))
        assert parse_spec(str(path)) == parse_spec(path) == want
        assert want.table == ((1,),)

    def test_bad_line_number_after_crlf(self, tmp_path):
        path = tmp_path / "x.spec"
        path.write_bytes(b"L = 2\r\nk = 2\r\rbogus = 3\r\n")
        with pytest.raises(SpecParseError) as exc:
            parse_spec(path)
        assert exc.value.line == 4

    def test_utf8_whatever_the_locale(self, tmp_path):
        path = tmp_path / "x.spec"
        path.write_bytes(TM_TEXT.replace("thue-morse", "\u00e9").encode())
        code = f"from gtmseq import parse_spec\nprint(parse_spec({str(path)!r}).name == '\\xe9')\n"
        lines, _ = run_child(code, LC_ALL="C", PYTHONUTF8="0")
        assert lines == ["True"]

    def test_int_path_is_type_error(self):
        with pytest.raises(TypeError):
            parse_spec(3)  # not read as a file descriptor

    def test_unreadable_files_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_bytes(b"L = 2\nname = a\xffb\n")
        missing = str(tmp_path / "missing.spec")
        for path, message in [
            (str(bad), "'utf-8' codec can't decode byte 0xff in position 14: invalid start byte"),
            (str(tmp_path), str(IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                                  str(tmp_path)))),
            (missing, str(FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), missing))),
        ]:
            assert main(["classify", path]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")


class TestInterning:
    """``parse_spec`` gives one spec object per file text."""

    def test_identical_text_identical_object(self, tmp_path):
        first, second = tmp_path / "a.spec", tmp_path / "b.spec"
        first.write_text(TM_TEXT)
        second.write_text(TM_TEXT)
        spec = parse_spec(first)
        assert parse_spec(first) is spec and parse_spec(str(second)) is spec

    def test_different_text_different_object(self, tmp_path):
        path = tmp_path / "x.spec"
        path.write_text(TM_TEXT)
        spec = parse_spec(path)
        path.write_text(TM_TEXT + "# a comment\n")
        same_spec = parse_spec(path)
        assert same_spec == spec and same_spec is not spec
        path.write_text(TM_TEXT.replace("kappa =\n1", "kappa =\n0"))
        assert parse_spec(path).table == ((0,),)

    def test_malformed_file_raises_every_call(self, tmp_path):
        path = tmp_path / "x.spec"
        path.write_text(TM_TEXT.replace("k = 2", "k = two"))
        for _ in range(3):
            with pytest.raises(SpecParseError, match="k needs an integer, got 'two'"):
                parse_spec(path)
