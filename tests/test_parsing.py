from fractions import Fraction

import pytest

from gasprover.parsing import (
    ParseError,
    format_rational,
    parse_poly,
    parse_ratfun,
    parse_rational,
)
from gasprover.polynomial import MultiPoly


class TestParsePoly:
    def test_basic(self):
        p = parse_poly("x0^2 - x0*x1 + x1^2")
        assert p.evaluate([2, 3]) == 7

    def test_rational_coefficients(self):
        p = parse_poly("1/2*x0 + 3/4")
        assert p.evaluate([Fraction(1, 2)]) == 1

    def test_parentheses(self):
        assert parse_poly("(x0+1)^3") == parse_poly("x0^3+3*x0^2+3*x0+1")

    def test_unary_minus(self):
        assert parse_poly("-x0 + -2") == parse_poly("-(x0+2)")

    def test_explicit_nvars(self):
        p = parse_poly("x0+1", 3)
        assert p.nvars == 3

    def test_rejects_float(self):
        with pytest.raises(ParseError):
            parse_poly("0.5*x0")

    def test_rejects_unknown_name(self):
        with pytest.raises(ParseError):
            parse_poly("y+1")

    def test_rejects_out_of_range_var(self):
        with pytest.raises(ParseError):
            parse_poly("x5", 2)

    def test_rejects_nonconstant_denominator(self):
        with pytest.raises(ParseError):
            parse_poly("1/(x0+1)")

    def test_rejects_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_poly("x0+1)")

    def test_rejects_negative_exponent(self):
        with pytest.raises(ParseError):
            parse_poly("x0^-2")

    def test_rejects_empty(self):
        with pytest.raises(ParseError):
            parse_poly("   ")

    @pytest.mark.parametrize("tail", [" ", "\n", "  \n", "\t\n\n"])
    def test_trailing_whitespace(self, tail):
        assert parse_poly("x0+1" + tail) == parse_poly("x0+1")

    @pytest.mark.parametrize("text", ["1/0", "x0/(x0-x0)", "1/(2-2)*x0"])
    def test_rejects_division_by_zero(self, text):
        with pytest.raises(ParseError, match="division by zero"):
            parse_ratfun(text)

    @pytest.mark.parametrize("text", ["(" * 400 + "x0" + ")" * 400, "-" * 400 + "x0"],
                             ids=["parentheses", "signs"])
    def test_rejects_deep_nesting(self, text):
        with pytest.raises(ParseError, match="nested"):
            parse_ratfun(text)

    def test_moderate_nesting(self):
        assert parse_poly("(" * 50 + "x0" + ")" * 50) == parse_poly("x0")


class TestParseRatFun:
    def test_recurrence_map(self):
        rf = parse_ratfun("(4+x0)/(5+x0+x1)")
        assert rf.evaluate([1, 4]) == Fraction(1, 2)

    def test_division_normalizes(self):
        rf = parse_ratfun("(x0^2-1)/(x0-1)")
        assert rf == parse_ratfun("x0+1")

    def test_positive_denominator(self):
        rf = parse_ratfun("x0/(-2-x1)", 2)
        assert rf.has_positive_den()
        assert rf.evaluate([2, 0]) == -1


class TestParseRational:
    def test_integer(self):
        assert parse_rational("7") == 7
        assert parse_rational("-3") == -3

    def test_fraction(self):
        assert parse_rational("22/7") == Fraction(22, 7)
        assert parse_rational("-1/2") == Fraction(-1, 2)

    def test_roundtrip(self):
        for text in ("0", "5", "-5", "3/4", "-17/12"):
            assert format_rational(parse_rational(text)) == text

    def test_rejects_float(self):
        with pytest.raises(ParseError):
            parse_rational("1.5")

    def test_rejects_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_rational("1/0")

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_rational("one half")


class TestRoundTrip:
    def test_canonical_string_reparses(self):
        p = parse_poly("25*x0^8*x1^4 - x0 + 1")
        assert parse_poly(str(p), p.nvars) == p

    def test_zero(self):
        p = parse_poly("x0-x0")
        assert p == MultiPoly.zero(1)
        assert str(p) == "0"
