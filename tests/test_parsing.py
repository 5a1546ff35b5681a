import random
from fractions import Fraction

import pytest

from gasprover.parsing import (
    ParseError,
    _Parser,
    parse_poly,
    parse_ratfun,
    parse_rational,
    tokenize,
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


def _random_expression(rng, nvars, depth):
    """(text, value) of a random expression; value(point) evaluates it in
    Fractions and raises ZeroDivisionError where a divisor vanishes."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            i = rng.randrange(nvars)
            return f"x{i}", lambda v: v[i]
        c = rng.randrange(10)
        return str(c), lambda v: Fraction(c)
    op = rng.choice("+-*/^~")
    a, fa = _random_expression(rng, nvars, depth - 1)
    if op == "~":
        return f"-({a})", lambda v: -fa(v)
    if op == "^":
        k = rng.randrange(4)
        return f"({a})^{k}", lambda v: fa(v) ** k
    b, fb = _random_expression(rng, nvars, depth - 1)
    ops = {
        "+": lambda v: fa(v) + fb(v),
        "-": lambda v: fa(v) - fb(v),
        "*": lambda v: fa(v) * fb(v),
        "/": lambda v: fa(v) / fb(v),
    }
    return f"({a}){op}({b})", ops[op]


class TestRandomExpressions:
    def test_value_and_normalised_denominator(self):
        rng = random.Random(41)
        for _ in range(300):
            nvars = rng.randint(1, 3)
            text, value = _random_expression(rng, nvars, 4)
            points = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(nvars)]
                for _ in range(3)
            ]
            try:
                num, den = _Parser(tokenize(text), nvars).parse()
            except ParseError as exc:
                # only a divisor that is identically zero is refused
                assert str(exc) == "division by zero"
                with pytest.raises(ZeroDivisionError):
                    value(points[0])
                continue
            # the parser's own den is normalised, before parse_ratfun wraps it
            assert den.content() == 1
            assert den.leading_term()[1] > 0
            rf = parse_ratfun(text, nvars)
            assert (rf.num, rf.den) == (num, den)
            for point in points:
                try:
                    expected = value(point)
                except ZeroDivisionError:
                    continue
                assert rf.evaluate(point) == expected, text


def _fold_sum(summands, nvars):
    """(num, den) of the summands added one by one, as the parser once did."""
    num, den = None, None
    for text in summands:
        rf = parse_ratfun(text, nvars)
        if num is None:
            num, den = rf.num, rf.den
        else:
            num, den = num * rf.den + rf.num * den, den * rf.den
    return num, den


class TestLongSums:
    def test_4000_summands_term_for_term(self):
        # 4,000 one-term summands over 400 monomials, with cancellations: a
        # key that cancels comes back last, as when the summands are added one
        # by one
        rng = random.Random(17)
        expected = {}
        pieces = []
        for _ in range(4000):
            e = (rng.randrange(20), rng.randrange(20))
            c = rng.choice((1, 2, Fraction(1, 2))) * rng.choice((1, -1))
            pieces.append(f"{'-' if c < 0 else '+'}{abs(c)}*x0^{e[0]}*x1^{e[1]}")
            c += expected.get(e, 0)
            if c:
                expected[e] = c
            else:
                del expected[e]
        p = parse_poly("".join(pieces), 2)
        assert list(p.terms.items()) == list(expected.items())
        assert sum(1 for piece in pieces if piece[0] == "-") > 1000

    def test_matches_adding_one_by_one(self):
        # runs of den-1 summands broken by rational summands, and sums that
        # cancel to zero
        rng = random.Random(19)
        for _ in range(40):
            summands = []
            for _ in range(rng.randrange(1, 30)):
                r = rng.random()
                if r < 0.1:
                    summands.append(f"x0/({rng.randrange(1, 4)}+x1)")
                elif r < 0.2:
                    summands.append(f"{rng.randrange(1, 5)}/{rng.randrange(1, 5)}")
                else:
                    a, b = rng.randrange(3), rng.randrange(3)
                    summands.append(f"({rng.randrange(-2, 3)}*x0^{a}-x1^{b})")
            num, den = _Parser(tokenize("+".join(summands)), 2).parse()
            want_num, want_den = _fold_sum(summands, 2)
            assert list(num.terms.items()) == list(want_num.terms.items())
            assert list(den.terms.items()) == list(want_den.terms.items())


class TestParseRational:
    def test_integer(self):
        assert parse_rational("7") == 7
        assert parse_rational("-3") == -3

    def test_fraction(self):
        assert parse_rational("22/7") == Fraction(22, 7)
        assert parse_rational("-1/2") == Fraction(-1, 2)

    def test_roundtrip(self):
        for text in ("0", "5", "-5", "3/4", "-17/12"):
            assert str(parse_rational(text)) == text

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
