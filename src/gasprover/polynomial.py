"""Exact sparse multivariate polynomials and rational functions over Q.

A `MultiPoly` is the package's immutable, hashable polynomial value: its
coefficients are non-zero `fractions.Fraction`s, and nothing in this module
uses floating point.  It has no arithmetic.  The package computes on
integers, in the kernels of `packed` and in the parser; a `MultiPoly` is
what they hand over and what is printed, digested and checked.

Its digest, evaluation and box map are those of `packed()`, its terms as
integers over their least positive common denominator on packed exponents,
made once; the positivity prover runs its shifts and inversions on that
form.  `from_packed` keeps a kernel's integers and makes the Fraction terms
on first read.

A `RatFun` is a parsed map N/D, not an algebra, and compares by identity:
its constructor divides both parts by the `signed_content` of den, and
scales nothing when that is 1.
The parser, which owns the arithmetic on (num, den) pairs of integer
polynomials, divides them by that content itself and calls the constructor
once per expression.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul
from typing import Iterator, Mapping, Sequence

from .packed import (Exponents, PackedPoly, Packing, box_map_packed, decimal_str, digest_packed,
                     drop_zeros, evaluate_packed)

_ZERO = Fraction(0)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def grlex_key(exps: Exponents):
    """Sort key for graded lexicographic order (ascending)."""
    return (sum(exps), exps)


def signed_content(terms: Mapping[Exponents, int]) -> int:
    """The gcd of non-empty integer `terms`, negative if their grlex lead is."""
    g = reduce(gcd, terms.values(), 0)
    return -g if terms[max(terms, key=grlex_key)] < 0 else g


class MultiPoly:
    """Sparse multivariate polynomial: exponent vectors -> nonzero Fractions."""

    __slots__ = ("nvars", "_terms", "_hash", "_digest", "_packed")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Fraction]):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has length {len(exps)}, expected {nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = _as_fraction(coeff)
            if coeff != 0:
                clean[exps] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_digest", None)
        object.__setattr__(self, "_packed", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "MultiPoly":
        """Polynomial over `terms` (valid exponent tuples -> coefficients), unchecked.

        Takes over `terms` and drops its zero coefficients in place.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "_terms", drop_zeros(terms))
        object.__setattr__(poly, "_hash", None)
        object.__setattr__(poly, "_digest", None)
        object.__setattr__(poly, "_packed", None)
        return poly

    @classmethod
    def _from_integers(cls, nvars: int, terms: dict[Exponents, int], den: int) -> "MultiPoly":
        """Polynomial with coefficients c/den for valid exponent tuples.

        Takes over `terms`, drops its zeros while they are still ints and
        converts it in place, so a kernel's result never exists as two
        dictionaries at once.
        """
        poly = cls._trusted(nvars, terms)
        if den == 1:
            for e, c in terms.items():
                terms[e] = Fraction(c)
        else:
            for e, c in terms.items():
                terms[e] = Fraction(c, den)
        return poly

    def _integer_terms(self) -> tuple[int, Iterator[tuple[Exponents, int]]]:
        """(D, lazy pairs (e, D*c)) with D the least positive common denominator."""
        den = 1
        # a loop, not lcm(*...): that argument tuple, as long as the
        # polynomial, raised the peak resident memory of a run
        for c in self.terms.values():
            den = lcm(den, c.denominator)
        return den, ((e, c.numerator * (den // c.denominator)) for e, c in self.terms.items())

    def packed(self) -> PackedPoly:
        """self on packed keys over its least positive denominator, made once, in
        the layout its transforms keep: fields for the sum of its degrees in each x_i."""
        if self._packed is None:
            packing = Packing(self.nvars, sum(map(max, zip(*self.terms))))
            units = packing.units
            den, scaled = self._integer_terms()
            object.__setattr__(self, "_packed", PackedPoly(
                packing, {sum(map(mul, e, units)): c for e, c in scaled}, den))
        return self._packed

    @classmethod
    def from_packed(cls, poly: PackedPoly) -> "MultiPoly":
        """`poly` kept as `packed()` of its terms would make it: gcd divided out,
        re-keyed in order to that layout.  Its terms are made on first read."""
        packing, terms, den = poly
        g = reduce(gcd, terms.values(), den)
        layout = Packing(poly.nvars, sum(packing.degree_in(terms, i) for i in range(poly.nvars)))
        if layout.mask != packing.mask:
            terms = {layout.pack(packing.exponents(k)): c for k, c in terms.items()}
        if g > 1:
            terms = {k: c // g for k, c in terms.items()}
        out = object.__new__(cls)
        object.__setattr__(out, "nvars", poly.nvars)
        object.__setattr__(out, "_terms", None)
        object.__setattr__(out, "_hash", None)
        object.__setattr__(out, "_digest", None)
        object.__setattr__(out, "_packed", PackedPoly(layout, terms, den // g))
        return out

    # -- predicates / accessors -------------------------------------------

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """Exponent vectors -> non-zero Fractions; made on first read from
        the integers of a `from_packed` polynomial."""
        if self._terms is None:
            packing, ints, den = self._packed
            terms = MultiPoly._from_integers(self.nvars, packing.unpack_terms(ints), den)._terms
            object.__setattr__(self, "_terms", terms)
        return self._terms

    def is_zero(self) -> bool:
        return not (self._packed or self).terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, _ZERO)

    def total_degree(self) -> int:
        """Max total degree over terms; 0 for the zero polynomial."""
        return max(map(sum, self.terms), default=0)

    def degree_in(self, var: int) -> int:
        """Max exponent of `var`; 0 for the zero polynomial."""
        if not 0 <= var < self.nvars:
            raise IndexError(f"variable index {var} out of range for {self.nvars} variables")
        return max((e[var] for e in self.terms), default=0)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.nvars, frozenset(self.terms.items()))))
        return self._hash

    # -- evaluation and the box map ----------------------------------------

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """The exact value at `point`, by `evaluate_packed`."""
        if len(point) != self.nvars:
            raise ValueError(f"point length {len(point)} != nvars {self.nvars}")
        return evaluate_packed(self.packed(), [_as_fraction(p) for p in point])

    def box_map(self, bounds: Sequence[tuple[Fraction, Fraction]]) -> "MultiPoly":
        """Map a box prod [a_i, b_i] onto the positive orthant.

        Per dimension substitutes x_i -> 1/(x_i + 1/(b_i-a_i)) + a_i, clearing
        denominators by (x_i + 1/(b_i-a_i))^d_i where d_i is the degree of the
        intermediate polynomial at that stage.  The result is non-negative on
        the orthant iff the input is non-negative on the box.
        """
        if len(bounds) != self.nvars:
            raise ValueError(f"bounds length {len(bounds)} != nvars {self.nvars}")
        bounds = [(_as_fraction(a), _as_fraction(b)) for a, b in bounds]
        for i, (a, b) in enumerate(bounds):
            if not 0 <= a < b:
                raise ValueError(f"degenerate box bounds ({a}, {b}) in dimension {i}")
        return MultiPoly.from_packed(box_map_packed(self.packed(), bounds))

    # -- canonical text form ----------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            monos = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e]
            mono = "*".join(monos)
            mag = abs(coeff)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{decimal_str(mag)}*{mono}"
            else:
                body = decimal_str(mag)
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self!s})"

    def digest(self) -> str:
        """`digest_packed` of self, computed once."""
        if self._digest is None:
            object.__setattr__(self, "_digest", digest_packed(self.packed()))
        return self._digest


class RatFun:
    """A parsed map num/den with den primitive and of positive grlex lead.

    The constructor normalises by dividing both parts by the signed content
    c = g/D of den, from den's integer terms over D; it scales nothing when
    c is 1 and otherwise makes each Fraction once.  The proof pipeline also
    needs no negative coefficient in num or den; `parse_rde` rejects such maps.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if num.nvars != den.nvars:
            raise ValueError(f"variable count mismatch: {num.nvars} vs {den.nvars}")
        if den.is_zero():
            raise ZeroDivisionError("RatFun denominator is zero")
        d, scaled = den._integer_terms()
        scaled = dict(scaled)
        g = signed_content(scaled)
        if g != d:
            num = MultiPoly._trusted(num.nvars, {
                e: Fraction(c.numerator * d, c.denominator * g) for e, c in num.terms.items()})
            den = MultiPoly._trusted(den.nvars, {e: Fraction(c // g) for e, c in scaled.items()})
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_poly(self) -> bool:
        return self.den.is_constant()

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.evaluate(point) / d

    def __str__(self):
        if self.is_poly():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatFun({self!s})"
