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


class _Parser:
    """Recursive descent over + - * / ^ with unary minus."""

    def __init__(self, tokens, nvars: int):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars
        self.depth = 0

    def nested(self, parse) -> RatFun:
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

    def parse(self) -> RatFun:
        result = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"unexpected trailing token {self.peek()[1]!r}")
        return result

    def expr(self) -> RatFun:
        result = self.term()
        while True:
            kind, value = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def term(self) -> RatFun:
        result = self.factor()
        while True:
            kind, value = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                rhs = self.factor()
                if value == "/" and rhs.num.is_zero():
                    raise ParseError("division by zero")
                result = result * rhs if value == "*" else result / rhs
            else:
                return result

    def factor(self) -> RatFun:
        kind, value = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            inner = self.nested(self.factor)
            return -inner if value == "-" else inner
        base = self.atom()
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
            return base ** n
        return base

    def atom(self) -> RatFun:
        kind, value = self.take()
        if kind == "int":
            return RatFun.constant(self.nvars, int(value))
        if kind == "name":
            m = _VAR_RE.match(value)
            if not m:
                raise ParseError(f"unknown name {value!r}: variables must be x0, x1, ...")
            index = int(m.group(1))
            if index >= self.nvars:
                raise ParseError(f"variable x{index} out of range for {self.nvars} variables")
            return RatFun.from_poly(MultiPoly.variable(self.nvars, index))
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
    return _Parser(tokens, nvars).parse()


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


def format_rational(value: Fraction) -> str:
    return str(value)
