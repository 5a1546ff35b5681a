import hashlib
import random
from fractions import Fraction

import pytest
from test_polynomial import _ref_add, _ref_mul

from gasprover import parsing
from gasprover.cli import main
from gasprover.parsing import ParseError, parse_poly, parse_ratfun, parse_rational
from gasprover.packed import signed_content
from gasprover.polynomial import MultiPoly, RatFun
from gasprover.recurrence import parse_rde


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

    def test_unexpected_character_at_its_own_position(self):
        with pytest.raises(ParseError, match="'#' at position 7"):
            parse_poly("x0 +   #")

    def test_missing_parenthesis_at_end_of_input(self):
        with pytest.raises(ParseError, match=r"expected '\)', got end of input"):
            parse_poly("(x0")

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


class TestDigitsAndNames:
    """Digits are ASCII and a variable's index has no leading zero."""

    @pytest.mark.parametrize("text, message", [
        ("(\u0664+x0)/(1+x1)", "unexpected character '\u0664' at position 1"),
        ("x0^\u0662", "unexpected character '\u0662' at position 3"),
        ("x01*x1", "unknown name 'x01'"),
        ("x00", "unknown name 'x00'"),
    ])
    def test_rejected(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_ratfun(text)

    def test_rational_rejects_other_digits(self):
        with pytest.raises(ParseError, match="invalid rational literal"):
            parse_rational("\u0661/\u0662")

    def test_prove_exits_with_an_input_error(self, capsys):
        assert main(["prove", "--rde", "(\u0664+x0)/(1+x1)"]) == 3
        assert "unexpected character" in capsys.readouterr().err

    def test_indices_and_unicode_whitespace_accepted(self):
        assert parse_poly("x10", 11) == MultiPoly(11, {(0,) * 10 + (1,): 1})
        assert parse_poly("x0\u00a0+\u20031") == parse_poly("x0+1")


class TestParseRatFun:
    def test_recurrence_map(self):
        rf = parse_ratfun("(4+x0)/(5+x0+x1)")
        assert rf.evaluate([1, 4]) == Fraction(1, 2)

    def test_division_normalizes(self):
        # the same map as x0+1: num*1 == (x0+1)*den, den primitive of positive lead
        rf, other = parse_ratfun("(x0^2-1)/(x0-1)"), parse_ratfun("x0+1")
        assert _ref_mul(rf.num, other.den) == _ref_mul(other.num, rf.den)
        assert rf.den == parse_poly("x0-1")

    def test_positive_denominator(self):
        rf = parse_ratfun("x0/(-2-x1)", 2)
        assert all(c > 0 for c in rf.den.terms.values())
        assert rf.evaluate([2, 0]) == -1

    def test_normalises_once(self, monkeypatch):
        # the operators build (num, den) pairs; RatFun normalises the whole
        # expression once
        made = []

        def counting(num, den):
            made.append((num, den))
            return RatFun(num, den)

        monkeypatch.setattr(parsing, "RatFun", counting)
        rf = parse_ratfun("(x0/2 + 1/(1+x1))/(3/x0) - x1/(-2*x1-4)")
        assert len(made) == 1
        assert rf.evaluate([2, 1]) == Fraction(7, 6)


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
                rf = parse_ratfun(text, nvars)
            except ParseError as exc:
                # only a divisor that is identically zero is refused
                assert str(exc) == "division by zero"
                with pytest.raises(ZeroDivisionError):
                    value(points[0])
                continue
            # den has integer coefficients of gcd 1 and a positive grlex lead
            assert all(c.denominator == 1 for c in rf.den.terms.values())
            assert signed_content(rf.den.packed().terms) == 1
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
            num, den = _ref_add(_ref_mul(num, rf.den), _ref_mul(rf.num, den)), \
                _ref_mul(den, rf.den)
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
            rf = parse_ratfun("+".join(summands), 2)
            want = RatFun(*_fold_sum(summands, 2))
            assert list(rf.num.terms.items()) == list(want.num.terms.items())
            assert list(rf.den.terms.items()) == list(want.den.terms.items())


# the maps of the acceptance tests and the bench
ACCEPTANCE_MAPS = [
    "(4+x0)/(1+x1)", "(1+2*x1)/(1+x0+x1)", "x1/(2+x0+x1)", "x1/(2+x1)",
    "2*x0/(1+x0)", "1+1/2*x0", "2*x0", "1/x0", "9/x0", "(1+x0)/(1+2*x0)",
    "(2+x0)/(1+x1+x2)", "(1/2+x0)/(1+x1+x2)", "x2/(2+x0+x1+x2)",
]


def _pinned_corpus():
    """(text, nvars) pairs: the acceptance maps, nested expressions with
    / ^ and unary minus, and long sums with cancellation."""
    rng = random.Random(23)
    corpus = [(text, None) for text in ACCEPTANCE_MAPS]
    for _ in range(400):
        nvars = rng.randint(1, 3)
        corpus.append((_random_expression(rng, nvars, 5)[0], nvars))
    for rational in (0.0, 0.0, 0.0, 0.1, 0.1, 0.1):
        summands = []
        for _ in range(150):
            if rng.random() < rational:
                summands.append(f"x0^{rng.randrange(3)}/({rng.randrange(1, 4)}+x1)")
            else:
                summands.append(f"x0^{rng.randrange(3)}*x1^{rng.randrange(3)}")
        corpus.append(("".join(rng.choice("+-") + t for t in summands), 2))
    return corpus


# the input forms of `webbook` templates, with multi-digit literals
WEBBOOK_FORMS = [
    ("x1/((97/54)+x0+x1)", [((0, 1), 54)], [((0, 0), 97), ((1, 0), 54), ((0, 1), 54)]),
    ("(73/25)*x0/(1+x0)", [((1,), Fraction(73, 25))], [((0,), 1), ((1,), 1)]),
    ("x0/(-1-x0)", [((1,), -1)], [((0,), 1), ((1,), 1)]),
    ("(100000000000000000039+x0)/(1+x0)",
     [((0,), 100000000000000000039), ((1,), 1)], [((0,), 1), ((1,), 1)]),
]


class TestWebbookForms:
    @pytest.mark.parametrize("text, num, den", WEBBOOK_FORMS, ids=[f[0] for f in WEBBOOK_FORMS])
    def test_terms_in_order(self, text, num, den):
        rf = parse_ratfun(text)
        assert list(rf.num.terms.items()) == num
        assert list(rf.den.terms.items()) == den
        assert {type(c) for c in [*rf.num.terms.values(), *rf.den.terms.values()]} == {Fraction}

    def test_no_polynomial_arithmetic(self):
        # the parser computes on integer polynomials and makes MultiPolys
        # only for the finished map; MultiPoly has no arithmetic to call
        for name in ("__add__", "__sub__", "__mul__", "__pow__", "__neg__"):
            assert not hasattr(MultiPoly, name) and not hasattr(RatFun, name)
        for text in ACCEPTANCE_MAPS:
            parse_rde(text)
        for text, num, den in WEBBOOK_FORMS:
            assert list(parse_ratfun(text).num.terms.items()) == num


class TestSizeBudget:
    """A product of two non-constant operands may multiply out at most
    parsing._MAX_TERM_PAIRS term pairs."""

    def test_nested_power_is_rejected(self):
        # 969 * 969 term pairs: without the budget this ran for half a minute
        with pytest.raises(ParseError, match="budget of 100000 term pairs"):
            parse_ratfun("((1+x0+x1+x2)^8)^8")

    def test_below_the_budget_parses(self):
        # its last product is 165 * 165 term pairs
        assert len(parse_ratfun("(1+x0+x1+x2)^16").num.terms) == 969

    def test_bound_is_inclusive_and_constants_are_free(self, monkeypatch):
        monkeypatch.setattr(parsing, "_MAX_TERM_PAIRS", 4)
        assert len(parse_poly("(1+x0)*(1+x1)").terms) == 4
        assert len(parse_poly("3*(1+x0+x1+x2+x3)*5").terms) == 5
        with pytest.raises(ParseError, match="a product of 2 by 3 terms"):
            parse_poly("(1+x0)*(1+x1+x2)")

    def test_prove_exits_with_an_input_error(self, capsys):
        assert main(["prove", "--rde", "((1+x0+x1+x2)^8)^8"]) == 3
        assert "budget" in capsys.readouterr().err


class TestPowerBudget:
    """A power's result may have degree at most parsing._MAX_POWER_DEGREE, and
    a power's or a product's coefficients at most parsing._MAX_COEFF_BITS
    bits, checked before anything is multiplied out."""

    @pytest.mark.parametrize("text, budget", [
        # 5.6 s without the budget
        ("3^16000000", "25359401 bits exceeds the parser's budget of 10000 coefficient bits"),
        # parsed at once without the budget, but the proof did not end
        ("(1+x0^1000000)/(1+x1)", "degree 1000000 exceeds the parser's budget of degree 1000"),
        ("(x0^501)^2", "degree 1002 exceeds"),
        ("(1+x0)^1001", "degree 1001 exceeds"),
        ("x1/(1+x0*x1)^501", "degree 1002 exceeds"),
        ("(2^5000)^3", "15000 bits exceeds"),
        ("(1+x0)^100*(3000+x1)^1000", "11552 bits exceeds"),
        # 1 ms to parse, then 7.3 s to find the equilibrium, without the budget
        ("(3^6000*3^6000*3^6000*3^2000+x0)/(1+x1)",
         "a product with coefficients of up to 19020 bits exceeds the parser's budget "
         "of 10000 coefficient bits"),
        ("x0*3^6000/(1+x1)*3^6000", "a product with coefficients of up to 19020 bits"),
        ("2^5000*2^5001", "a product with coefficients of up to 10001 bits"),
    ])
    def test_over_a_budget_is_rejected(self, text, budget):
        with pytest.raises(ParseError, match=budget):
            parse_ratfun(text)

    def test_at_the_budgets_parses(self):
        assert parse_poly("2^10000").terms == {(0,): 2 ** 10000}
        assert parse_poly("2^5000*2^5000").terms == {(0,): 2 ** 10000}
        assert parse_poly("(x0^500)^2").terms == {(1000,): 1}
        assert parse_poly("(-2*x0)^1000").terms == {(1000,): 2 ** 1000}
        assert parse_poly("(x0-x0)^5000").is_zero()
        assert len(parse_poly("(1+x0)^200").terms) == 201

    def test_corpus_within_the_budgets(self):
        # every input of the pinned corpus parses or divides by zero
        for text, nvars in _pinned_corpus():
            try:
                parse_ratfun(text, nvars)
            except ParseError as exc:
                assert str(exc) == "division by zero", text

    @pytest.mark.parametrize("text", ["3^16000000", "(1+x0^1000000)/(1+x1)",
                                      "(3^6000*3^6000*3^6000*3^2000+x0)/(1+x1)"])
    def test_prove_exits_with_an_input_error(self, capsys, text):
        assert main(["prove", "--rde", text]) == 3
        assert "budget" in capsys.readouterr().err

    def test_bits_are_bounded_by_the_coefficient_sum(self, monkeypatch):
        # n*log2(sum |c|): (1+x0)^n needs n bits, as C(n, n/2) is near 2^n
        monkeypatch.setattr(parsing, "_MAX_COEFF_BITS", 30)
        assert len(parse_poly("(1-x0)^30").terms) == 31
        with pytest.raises(ParseError, match="31 bits"):
            parse_poly("(1-x0)^31")
        assert parse_poly("1^100000").terms == {(0,): 1}
        # a product's bits: log2 of the product of the coefficient sums
        assert len(parse_poly("(1-x0)^15*(1+x0)^15").terms) == 16
        with pytest.raises(ParseError, match="a product with coefficients of up to 31 bits"):
            parse_poly("(1-x0)^15*(1+x0)^16")


class TestParsePinned:
    """The parsed map, terms in order, over a fixed corpus.  R's term order
    feeds P's, which the build pins hold, so this pins the build's input."""

    SHA = "146121041a07bc406bad634993838bb9b556d9385ebd6e0cfea5a3563dc97425"

    def test_terms_in_order(self):
        parsed = []
        for text, nvars in _pinned_corpus():
            try:
                rf = parse_ratfun(text, nvars)
            except ParseError:
                continue
            parsed.append((list(rf.num.terms.items()), list(rf.den.terms.items())))
        assert len(parsed) > 300
        assert hashlib.sha256(repr(parsed).encode()).hexdigest() == self.SHA


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
        assert p == MultiPoly(1, {})
        assert str(p) == "0"
