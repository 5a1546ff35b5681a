"""Text grammar for polynomials and rational expressions.

Variables are x0..x{n-1}; literals are integers or rationals p/q; operators
are + - * / ^ with conventional precedence and parentheses.  Floating-point
literals are rejected so no inexact value can enter a proof.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .polynomial import MultiPoly, RatFun


class ParseError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+\.\d*|\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    end = len(text.rstrip())
    while pos < end:
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"unexpected character {text[pos:].lstrip()[:1]!r} at position {pos}")
        if m.group("int") is not None:
            lit = m.group("int")
            if "." in lit:
                raise ParseError(f"floating-point literal {lit!r} is not allowed; use p/q rationals")
            tokens.append(("int", lit))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


_VAR_RE = re.compile(r"^x(\d+)$")


def _infer_nvars(tokens) -> int:
    top = -1
    for kind, value in tokens:
        if kind == "name":
            m = _VAR_RE.match(value)
            if not m:
                raise ParseError(f"unknown name {value!r}: variables must be x0, x1, ...")
            top = max(top, int(m.group(1)))
    return max(top + 1, 1)


# Each level costs the recursive descent about five stack frames, so this
# stays well inside Python's default recursion limit.
_MAX_DEPTH = 100


Pair = tuple[MultiPoly, MultiPoly]


class _Parser:
    """Recursive descent over + - * / ^ with unary minus, into (num, den) pairs.

    Every den is primitive with a positive grlex lead, as in RatFun.  Atoms
    have den 1; products, powers, sums and negation keep the property, so only
    division normalises, through the RatFun constructor.
    """

    def __init__(self, tokens, nvars: int):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars
        self.depth = 0
        self.one = MultiPoly.constant(nvars, 1)

    def nested(self, parse) -> Pair:
        """parse() one parenthesis or unary sign deeper, up to _MAX_DEPTH."""
        if self.depth == _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels")
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value = self.take()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}, got {value!r}")

    def parse(self) -> Pair:
        result = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"unexpected trailing token {self.peek()[1]!r}")
        return result

    def expr(self) -> Pair:
        """A sum; a run of summands over den 1 accumulates in one dict, in place.

        The dict gets the terms, in the order, that adding the summands one
        by one would give: a key that cancels is deleted, so it comes back last.
        """
        num, den = self.term()
        terms = None
        while True:
            kind, value = self.peek()
            if not (kind == "op" and value in "+-"):
                break
            self.take()
            n, d = self.term()
            if value == "-":
                n = -n
            if den == self.one and d == self.one:
                if terms is None:
                    terms = dict(num.terms)
                for e, c in n.terms.items():
                    c += terms.get(e, 0)
                    if c:
                        terms[e] = c
                    else:
                        del terms[e]
                continue
            if terms is not None:
                num, terms = MultiPoly._trusted(self.nvars, terms), None
            num, den = num * d + n * den, den * d
        if terms is not None:
            num = MultiPoly._trusted(self.nvars, terms)
        return num, den

    def term(self) -> Pair:
        num, den = self.factor()
        while True:
            kind, value = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                n, d = self.factor()
                if value == "*":
                    num, den = num * n, den * d
                elif n.is_zero():
                    raise ParseError("division by zero")
                else:
                    q = RatFun(num * d, den * n)
                    num, den = q.num, q.den
            else:
                return num, den

    def factor(self) -> Pair:
        kind, value = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            num, den = self.nested(self.factor)
            return (-num if value == "-" else num), den
        num, den = self.atom()
        kind, value = self.peek()
        if kind == "op" and value == "^":
            self.take()
            exp_kind, exp_value = self.take()
            neg = False
            if exp_kind == "op" and exp_value in "+-":
                neg = exp_value == "-"
                exp_kind, exp_value = self.take()
            if exp_kind != "int":
                raise ParseError("exponent must be an integer literal")
            n = int(exp_value)
            if neg:
                raise ParseError("negative exponents are not allowed; use division")
            return num ** n, den ** n
        return num, den

    def atom(self) -> Pair:
        kind, value = self.take()
        if kind == "int":
            return MultiPoly.constant(self.nvars, int(value)), self.one
        if kind == "name":
            m = _VAR_RE.match(value)
            if not m:
                raise ParseError(f"unknown name {value!r}: variables must be x0, x1, ...")
            index = int(m.group(1))
            if index >= self.nvars:
                raise ParseError(f"variable x{index} out of range for {self.nvars} variables")
            return MultiPoly.variable(self.nvars, index), self.one
        if kind == "op" and value == "(":
            inner = self.nested(self.expr)
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {value!r}" if value is not None else "unexpected end of input")


def parse_ratfun(text: str, nvars: int | None = None) -> RatFun:
    """Parse a rational expression in x0..x{n-1} into a RatFun."""
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    if nvars is None:
        nvars = _infer_nvars(tokens)
    return RatFun(*_Parser(tokens, nvars).parse())


def parse_poly(text: str, nvars: int | None = None) -> MultiPoly:
    """Parse a polynomial expression; rejects non-constant denominators."""
    rf = parse_ratfun(text, nvars)
    if not rf.is_poly():
        raise ParseError("expression is not a polynomial (non-constant denominator)")
    return rf.as_poly()


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational "p/q" or integer literal; floats rejected."""
    text = text.strip()
    if "." in text:
        raise ParseError(f"floating-point literal {text!r} is not allowed; use p/q rationals")
    m = re.fullmatch(r"([+-]?\d+)(?:\s*/\s*(\d+))?", text)
    if not m:
        raise ParseError(f"invalid rational literal {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError("zero denominator")
    return Fraction(num, den)
