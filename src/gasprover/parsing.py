"""Text grammar for polynomials and rational expressions.

Variables are x0..x{n-1}; literals are integers or rationals p/q; operators
are + - * / ^ with conventional precedence and parentheses.  Floating-point
literals are rejected so no inexact value can enter a proof.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import ceil, log2
from operator import add

from .packed import PackedPoly, decimal_int, drop_zeros, power_by_squaring, signed_content
from .polynomial import MultiPoly, RatFun, _pack


class ParseError(ValueError):
    pass


# [0-9], not \d, which matches the decimal digits of every script.  A
# character that starts no token is a "bad" token, so one pass finds it.
_TOKEN_RE = re.compile(r"\s*(?:(?P<int>[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)"
                       r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])|(?P<bad>\S))")


def tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, value = m.lastgroup, m[m.lastgroup]
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r} at position {m.start(kind)}")
        if kind == "int" and "." in value:
            raise ParseError(f"floating-point literal {value!r} is not allowed; use p/q rationals")
        tokens.append((kind, value))
    return tokens


_VAR_RE = re.compile(r"x(0|[1-9][0-9]*)")


def _variable_index(name: str) -> int:
    m = _VAR_RE.fullmatch(name)
    if not m:
        raise ParseError(f"unknown name {name!r}: variables must be x0, x1, ...")
    return int(m[1])


# Each level costs the recursive descent about five stack frames, so this
# stays well inside Python's default recursion limit.
_MAX_DEPTH = 100

# The most term pairs one product may multiply out, so that a short input
# such as ((1+x0+x1+x2)^8)^8 ends with a ParseError instead of running for
# half a minute.  A map the prover can build stays far below it.
_MAX_TERM_PAIRS = 100_000

# The largest degree of a power's result, and the most bits a coefficient
# of a power or a product may need, so that a short input such as
# 3^16000000 (25 million bits), 3^6000*3^6000*3^6000 or x0^1000000 ends with
# a ParseError instead of running for seconds or stalling the proof.  A map
# the prover can build stays far below both.
_MAX_POWER_DEGREE = 1_000
_MAX_COEFF_BITS = 10_000

# an integer polynomial is a dict from exponent tuples to non-zero ints
Pair = tuple[dict, dict]


def _bits(p: dict) -> float:
    """log2 of the sum of p's absolute coefficients, which bounds each of them."""
    return log2(sum(map(abs, p.values())))


def _check_coeff_bits(bits: float, what: str) -> None:
    if bits > _MAX_COEFF_BITS:
        raise ParseError(f"expression too large: {what} with coefficients of up to {ceil(bits)} "
                         f"bits exceeds the parser's budget of {_MAX_COEFF_BITS} coefficient bits")


def _times(a: dict, b: dict) -> dict:
    """a*b: a constant operand scales the other, keeping its term order, and
    otherwise a is the outer loop and b the inner one, each exponent placed
    where the loop first meets it.  A product by the constant 1 is the other
    operand itself.

    A product is a ParseError before any of it is made if its coefficients
    may need more than _MAX_COEFF_BITS bits, bounded by log2 of the product
    of the operands' absolute coefficient sums, or if it multiplies two
    non-constant operands with more than _MAX_TERM_PAIRS term pairs."""
    if not a or not b:
        return {}
    if not any(map(any, b)):
        a, b = b, a
    elif any(map(any, a)):
        if len(a) * len(b) > _MAX_TERM_PAIRS:
            raise ParseError(f"expression too large: a product of {len(a)} by {len(b)} "
                             f"terms exceeds the parser's budget of {_MAX_TERM_PAIRS} "
                             f"term pairs")
        _check_coeff_bits(_bits(a) + _bits(b), "a product")
        inner = list(b.items())
        product = {}
        get = product.get
        for e1, c1 in a.items():
            for e2, c2 in inner:
                e = tuple(map(add, e1, e2))
                product[e] = get(e, 0) + c1 * c2
        return drop_zeros(product)
    [c] = a.values()  # a's constant term, its only term
    if c == 1:
        return b
    _check_coeff_bits(_bits(a) + _bits(b), "a product")
    return {e: v * c for e, v in b.items()}


class _Parser:
    """Recursive descent over + - * / ^ with unary minus, into (num, den)
    pairs of integer polynomials.

    Atoms have den 1, and no operator normalises a pair: `parse_ratfun`
    divides by den's signed content once, for the whole expression.  Only a
    sum changes a dict, and only its own copy: operands are shared."""

    def __init__(self, tokens, nvars: int):
        # a sentinel ends the tokens, so reading the next one needs no bounds check
        self.tokens = tokens + [(None, None)]
        self.pos = 0
        self.nvars = nvars
        self.depth = 0
        self.zero = (0,) * nvars
        self.one = {self.zero: 1}

    def nested(self, parse) -> Pair:
        """parse() one parenthesis or unary sign deeper, up to _MAX_DEPTH."""
        if self.depth == _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels")
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def parse(self) -> Pair:
        result = self.expr()
        if self.tokens[self.pos][0] is not None:
            raise ParseError(f"unexpected trailing token {self.tokens[self.pos][1]!r}")
        return result

    def expr(self) -> Pair:
        """A sum: num/den ± n/d is (num*d ± n*den, den*d), accumulated in one
        dict of num's terms, in place; a d other than 1 first multiplies it.
        The dict gets the terms, in the order, that adding the summands one
        by one would give: a key that cancels is deleted, so it comes back last.
        """
        num, den = self.term()
        terms = None
        # only an operator token has an operator for its value
        while (op := self.tokens[self.pos][1]) in ("+", "-"):
            self.pos += 1
            n, d = self.term()
            if op == "-":
                n = {e: -c for e, c in n.items()}
            if terms is None:
                terms = dict(num)
            if d != self.one:
                terms = dict(_times(terms, d))  # a copy: a product by 1 is shared
            for e, c in _times(n, den).items():
                c += terms.get(e, 0)
                if c:
                    terms[e] = c
                else:
                    del terms[e]
            den = _times(den, d)
        return (num if terms is None else terms), den

    def term(self) -> Pair:
        num, den = self.factor()
        while (op := self.tokens[self.pos][1]) in ("*", "/"):
            self.pos += 1
            n, d = self.factor()
            if op == "/":
                if not n:
                    raise ParseError("division by zero")
                n, d = d, n
            num, den = _times(num, n), _times(den, d)
        return num, den

    def factor(self) -> Pair:
        if (sign := self.tokens[self.pos][1]) in ("+", "-"):
            self.pos += 1
            num, den = self.nested(self.factor)
            return ({e: -c for e, c in num.items()} if sign == "-" else num), den
        num, den = self.atom()
        if self.tokens[self.pos][1] != "^":
            return num, den
        if (sign := self.tokens[self.pos + 1][1]) in ("+", "-"):
            self.pos += 1
        self.pos += 1
        kind, value = self.tokens[self.pos]
        if kind != "int":
            raise ParseError("exponent must be an integer literal")
        self.pos += 1
        n = int(value)
        if sign == "-":
            raise ParseError("negative exponents are not allowed; use division")
        return self.power(num, n), self.power(den, n)

    def power(self, p: dict, n: int) -> dict:
        """p**n: 1 for n = 0, a monomial's power as its one term, and otherwise
        square-and-multiply on `_times`, in its term order.

        A result of degree over _MAX_POWER_DEGREE, or one whose coefficients
        may need more than _MAX_COEFF_BITS bits, is a ParseError, raised
        before any of it is made.  The bits are bounded by n*log2 of the sum
        of p's absolute coefficients, exact for a one-term p."""
        if n == 0:
            return self.one
        degree = n * max(map(sum, p), default=0)
        if degree > _MAX_POWER_DEGREE:
            raise ParseError(f"expression too large: a power of degree {degree} exceeds "
                             f"the parser's budget of degree {_MAX_POWER_DEGREE}")
        if p:
            _check_coeff_bits(n * _bits(p), "a power")
        if len(p) == 1 and n > 1:
            [(exps, c)] = p.items()
            return {tuple([e * n for e in exps]): c ** n}
        return power_by_squaring(p, n, _times)

    def atom(self) -> Pair:
        kind, value = self.tokens[self.pos]
        self.pos += 1
        if kind == "int":
            c = int(value)
            return ({self.zero: c} if c else {}), self.one
        if kind == "name":
            index = _variable_index(value)
            if index >= self.nvars:
                raise ParseError(f"variable x{index} out of range for {self.nvars} variables")
            return {self.zero[:index] + (1,) + self.zero[index + 1:]: 1}, self.one
        if kind == "op" and value == "(":
            inner = self.nested(self.expr)
            value = self.tokens[self.pos][1]
            if value != ")":
                raise ParseError(f"expected ')', got {'end of input' if value is None else repr(value)}")
            self.pos += 1
            return inner
        raise ParseError(f"unexpected token {value!r}" if value is not None else "unexpected end of input")


def parse_ratfun(text: str, nvars: int | None = None) -> RatFun:
    """Parse a rational expression in x0..x{n-1} into a RatFun."""
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    if nvars is None:
        nvars = max([_variable_index(value) for kind, value in tokens if kind == "name"],
                    default=0) + 1
    num, den = _Parser(tokens, nvars).parse()
    packing, den, _ = _pack(nvars, den, 1)
    g = signed_content(den)  # so RatFun finds den primitive, of positive lead
    return RatFun(MultiPoly._from_integers(_pack(nvars, num, g)),
                  MultiPoly._from_integers(PackedPoly(packing, den, g)))


def parse_poly(text: str, nvars: int | None = None) -> MultiPoly:
    """Parse a polynomial expression; rejects non-constant denominators."""
    rf = parse_ratfun(text, nvars)
    if not rf.is_poly():
        raise ParseError("expression is not a polynomial (non-constant denominator)")
    return rf.num  # a normalised constant den is 1


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational "p/q" or integer literal; floats rejected."""
    text = text.strip()
    if "." in text:
        raise ParseError(f"floating-point literal {text!r} is not allowed; use p/q rationals")
    m = re.fullmatch(r"([+-]?[0-9]+)(?:\s*/\s*([0-9]+))?", text)
    if not m:
        raise ParseError(f"invalid rational literal {text!r}")
    num, den = decimal_int(m[1]), decimal_int(m[2] or "1")
    if den == 0:
        raise ParseError("zero denominator")
    return Fraction(num, den)
