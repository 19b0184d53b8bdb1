from dataclasses import replace

import pytest

from gtmseq import KappaSpec, SpecParseError, parse_spec_text, spec_to_text
from conftest import alternating_spec, random_spec, tm_spec


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
