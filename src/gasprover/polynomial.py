"""Exact sparse multivariate polynomials and rational functions over Q.

A `MultiPoly` is the package's immutable, hashable polynomial value.  It
holds one form, `packed()`: its terms as integers over their least positive
common denominator, on packed exponents in the layout whose fields fit the
sum of its degrees in each x_i.  Every constructor makes that form, so equal
polynomials hold equal integers, and equality, hashing, the degrees, the
digest, evaluation and the box map read them; the positivity prover runs its
shifts and inversions on them, and the printout walks their keys in
descending order, which `Packing` makes grlex order.  `terms`, the
coefficients as `fractions.Fraction`s by exponent tuple, is a read-only view
made on first read.  Nothing in this module uses floating point.  A
`MultiPoly` has no arithmetic: the package computes on integers, in the
kernels of `packed` and in the parser, and `from_packed` keeps a kernel's
result.

A `RatFun` is a parsed map N/D, not an algebra, and compares by identity:
its constructor divides both parts by `packed.signed_content` of den's
integers, the one copy of that rule, and scales nothing when that is 1.
The parser, which owns the arithmetic on (num, den) pairs of integer
polynomials, packs den once, divides both parts by its signed content itself
and hands them over packed, once per expression.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, Sequence

from .packed import (Exponents, PackedPoly, Packing, box_map_packed, decimal_str, digest_packed,
                     evaluate_packed, signed_content)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _pack(nvars: int, terms: Mapping[Exponents, int], den: int) -> PackedPoly:
    """terms/den on the layout whose fields fit the sum of their degrees in each x_i."""
    packing = Packing(nvars, sum(map(max, zip(*terms))))
    return PackedPoly(packing, {packing.pack(e): c for e, c in terms.items()}, den)


class MultiPoly:
    """Sparse multivariate polynomial over Q, held as its canonical `PackedPoly`."""

    __slots__ = ("_packed", "_terms", "_hash", "_digest")

    def __init__(self, nvars: int, terms: Mapping[Exponents, int | Fraction]):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        clean: dict[Exponents, Fraction] = {}
        den = 1
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has length {len(exps)}, expected {nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = _as_fraction(coeff)
            if coeff != 0:
                clean[exps] = coeff
                den = lcm(den, coeff.denominator)
        self._keep(*_pack(nvars, {e: c.numerator * (den // c.denominator)
                                  for e, c in clean.items()}, den))

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def _keep(self, packing: Packing, terms: dict[int, int], den: int) -> None:
        """Hold terms/den on `packing`, the layout of their own degrees, with
        the gcd of the integers and den, of den's sign, divided out."""
        g = gcd(den, *terms.values())
        if den < 0:
            g = -g
        if g != 1:
            terms = {k: c // g for k, c in terms.items()}
        object.__setattr__(self, "_packed", PackedPoly(packing, terms, den // g))
        object.__setattr__(self, "_terms", None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_digest", None)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_packed(cls, poly: PackedPoly) -> "MultiPoly":
        """`poly` in canonical form: re-keyed in order to the layout of its own
        degrees, with the gcd of its integers and den divided out, and den
        made positive.  It may hold `poly.terms` itself, which must then not
        be changed."""
        packing, terms, den = poly
        layout = Packing(poly.nvars, sum(packing.degree_in(terms, i) for i in range(poly.nvars)))
        if layout.mask != packing.mask:
            terms = layout.rekey(terms, packing)
        out = object.__new__(cls)
        out._keep(layout, terms, den)
        return out

    @classmethod
    def _from_integers(cls, poly: PackedPoly) -> "MultiPoly":
        """`poly` (den != 0, of either sign), already on the layout of its own
        degrees: the parser's constructor, which packs nothing again.  It
        may hold `poly.terms` itself."""
        out = object.__new__(cls)
        out._keep(*poly)
        return out

    # -- predicates / accessors -------------------------------------------

    def packed(self) -> PackedPoly:
        """The polynomial's integers over their least positive denominator, on
        packed keys in the layout its transforms keep: fields for the sum of
        its degrees in each x_i.  The terms are in the order the constructor
        met them, and must not be changed."""
        return self._packed

    @property
    def nvars(self) -> int:
        return self._packed.packing.nvars

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """A read-only view, exponent vectors -> non-zero Fractions in the
        order of `packed()`, made on first read."""
        if self._terms is None:
            packing, ints, den = self._packed
            object.__setattr__(self, "_terms", MappingProxyType(
                {e: Fraction(c, den) for e, c in packing.unpack_terms(ints).items()}))
        return self._terms

    def is_zero(self) -> bool:
        return not self._packed.terms

    def is_constant(self) -> bool:
        return not any(self._packed.terms)  # the constant's key is 0

    def constant_term(self) -> Fraction:
        _, ints, den = self._packed
        return Fraction(ints.get(0, 0), den)

    def total_degree(self) -> int:
        """Max total degree over terms; 0 for the zero polynomial."""
        packing, ints, _ = self._packed
        return max(ints, default=0) >> packing.top  # the grlex lead's

    def degree_in(self, var: int) -> int:
        """Max exponent of `var`; 0 for the zero polynomial."""
        if not 0 <= var < self.nvars:
            raise IndexError(f"variable index {var} out of range for {self.nvars} variables")
        packing, ints, _ = self._packed
        return packing.degree_in(ints, var)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        (a_packing, a, a_den), (b_packing, b, b_den) = self._packed, other._packed
        return (a_packing.nvars == b_packing.nvars and a_packing.mask == b_packing.mask
                and a_den == b_den and a == b)

    def __hash__(self):
        if self._hash is None:
            _, ints, den = self._packed
            object.__setattr__(self, "_hash", hash((self.nvars, den, frozenset(ints.items()))))
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

    def __str__(self):
        """The terms in descending grlex order, that of their keys."""
        packing, ints, den = self._packed
        if not ints:
            return "0"
        pieces = []
        for key in sorted(ints, reverse=True):
            exps, coeff = packing.exponents(key), Fraction(ints[key], den)
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
    """A parsed map num/den with den primitive over 1 and of positive grlex lead.

    The constructor normalises on `den.packed()`, integers over D: it divides
    both parts by den's signed content c = g/D, g the gcd of those integers
    with the sign of their grlex lead, and scales nothing when c is 1.  The
    proof pipeline also needs no negative coefficient in num or den;
    `parse_rde` rejects such maps.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if num.nvars != den.nvars:
            raise ValueError(f"variable count mismatch: {num.nvars} vs {den.nvars}")
        if den.is_zero():
            raise ZeroDivisionError("RatFun denominator is zero")
        packing, ints, d = den.packed()
        g = signed_content(ints)
        if g != d:
            n_packing, n_ints, n_den = num.packed()
            num = MultiPoly.from_packed(
                PackedPoly(n_packing, {k: d * c for k, c in n_ints.items()}, n_den * g))
            den = MultiPoly.from_packed(PackedPoly(packing, ints, g))
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
