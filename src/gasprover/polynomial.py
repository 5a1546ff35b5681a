"""Exact sparse multivariate polynomials and rational functions over Q.

A `MultiPoly`'s coefficients are non-zero `fractions.Fraction`s.  Its two hot
kernels, products and Taylor shifts, scale their operands to exact integers
over a positive common denominator, run their term loops on those integers
and divide once per output term; nothing in this module uses floating point.
Sums, negation and scaling build their result through one unchecked
constructor.  Polynomials are immutable and hashable, so they can be shared
freely.

Products run the term-pair loop of `packed.mul_packed` on integer
coefficients and packed exponents; each output term is unpacked once.

A `RatFun` is a parsed map N/D, not an algebra: its constructor is the one
place that normalises a denominator, and the parser, which owns the
arithmetic on (num, den) pairs, calls it only to divide.
"""
from __future__ import annotations

import hashlib
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .packed import Exponents, Packing, drop_zeros, mul_packed, power_by_squaring

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def grlex_key(exps: Exponents):
    """Sort key for graded lexicographic order (ascending)."""
    return (sum(exps), exps)


class MultiPoly:
    """Sparse multivariate polynomial: exponent vectors -> nonzero Fractions."""

    __slots__ = ("nvars", "terms", "_hash", "_digest")

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
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_digest", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: _as_fraction(c)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): _ONE})

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "MultiPoly":
        """Polynomial over `terms` (valid exponent tuples -> coefficients), unchecked.

        Takes over `terms` and drops its zero coefficients in place.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "terms", drop_zeros(terms))
        object.__setattr__(poly, "_hash", None)
        object.__setattr__(poly, "_digest", None)
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

    # -- predicates / accessors -------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, _ZERO)

    def coeff(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), _ZERO)

    def total_degree(self) -> int:
        """Max total degree over terms; 0 for the zero polynomial."""
        return max(map(sum, self.terms), default=0)

    def degree_in(self, var: int) -> int:
        """Max exponent of `var`; 0 for the zero polynomial."""
        if not 0 <= var < self.nvars:
            raise IndexError(f"variable index {var} out of range for {self.nvars} variables")
        return max((e[var] for e in self.terms), default=0)

    def leading_term(self) -> tuple[Exponents, Fraction]:
        """Term maximal in graded lex order; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def _combine(self, other, op):
        """self op other for op in (add, sub), term by term."""
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = op(terms.get(exps, _ZERO), coeff)
        return MultiPoly._trusted(self.nvars, terms)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product; `mul_packed`'s term-pair loop runs on integers and packed keys.

        Each operand is scaled to integers over a positive common denominator,
        and its exponent vectors are packed for degree deg self + deg other.
        Each output term is unpacked once. A constant operand (no exponent
        vector with a non-zero entry) takes the scalar path, and a product by
        1 is self, which is safe because polynomials are immutable.
        """
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 1:
                return self
            return MultiPoly._trusted(self.nvars, {e: v * c for e, v in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        if not any(map(any, other.terms)):
            return self * other.constant_term()
        if not any(map(any, self.terms)):
            return other * self.constant_term()
        packing = Packing(self.nvars, self.total_degree() + other.total_degree())
        pack = packing.pack
        d1, outer = self._integer_terms()
        d2, inner = other._integer_terms()
        packed = mul_packed({pack(e): c for e, c in outer}, {pack(e): c for e, c in inner})
        terms = packing.unpack_terms(packed)
        del packed  # before the Fractions are made, to keep the peak down
        return MultiPoly._from_integers(self.nvars, terms, d1 * d2)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        if n == 0:
            return MultiPoly.constant(self.nvars, 1)
        if len(self.terms) == 1 and n > 1:
            # a monomial, such as a parsed x0^9: one term, no products
            [(exps, c)] = self.terms.items()
            return MultiPoly._trusted(self.nvars, {tuple(e * n for e in exps): c ** n})
        return power_by_squaring(self, n, mul)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.nvars, frozenset(self.terms.items()))))
        return self._hash

    # -- evaluation and calculus ------------------------------------------

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError(f"point length {len(point)} != nvars {self.nvars}")
        point = [_as_fraction(p) for p in point]
        total = _ZERO
        for exps, coeff in self.terms.items():
            value = coeff
            for p, e in zip(point, exps):
                if e:
                    value *= p ** e
            total += value
        return total

    def diff(self, var: int) -> "MultiPoly":
        if not 0 <= var < self.nvars:
            raise IndexError(f"variable index {var} out of range")
        terms: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[var]
            if e:
                new = list(exps)
                new[var] = e - 1
                key = tuple(new)
                terms[key] = terms.get(key, _ZERO) + coeff * e
        return MultiPoly(self.nvars, terms)

    # -- the three variable transforms ------------------------------------

    def shift(self, offsets: Sequence[Fraction]) -> "MultiPoly":
        """Substitute x_i -> x_i + offsets[i], expanded exactly."""
        if len(offsets) != self.nvars:
            raise ValueError(f"offsets length {len(offsets)} != nvars {self.nvars}")
        result = self
        for i, mu in enumerate(offsets):
            mu = _as_fraction(mu)
            if mu == 0:
                continue
            result = result._shift_one(i, mu)
        return result

    def _shift_one(self, var: int, mu: Fraction) -> "MultiPoly":
        """Taylor shift x_var -> x_var + p/q in integers over D*q^d, d = degree_in(var)."""
        p, q = mu.numerator, mu.denominator
        d = self.degree_in(var)
        den, scaled = self._integer_terms()
        # c*x^e -> sum_j c * C(e,j) * p^(e-j) * q^(d-e+j) * x^j, all over q^d
        weights = [
            [comb(e, j) * p ** (e - j) * q ** (d - e + j) for j in range(e + 1)]
            for e in range(d + 1)
        ]
        terms: dict[Exponents, int] = {}
        for exps, c in scaled:
            base = list(exps)
            for j, w in enumerate(weights[exps[var]]):
                base[var] = j
                key = tuple(base)
                terms[key] = terms.get(key, 0) + c * w
        return MultiPoly._from_integers(self.nvars, terms, den * q ** d)

    def invert_var(self, var: int) -> "MultiPoly":
        """Substitute x_var -> 1/x_var and clear by x_var^degree_in(var).

        The zero polynomial maps to itself.
        """
        d = self.degree_in(var)
        terms: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            new = list(exps)
            new[var] = d - exps[var]
            terms[tuple(new)] = coeff
        return MultiPoly(self.nvars, terms)

    def box_map(self, bounds: Sequence[tuple[Fraction, Fraction]]) -> "MultiPoly":
        """Map a box prod [a_i, b_i] onto the positive orthant.

        Per dimension substitutes x_i -> 1/(x_i + 1/(b_i-a_i)) + a_i, clearing
        denominators by (x_i + 1/(b_i-a_i))^d_i where d_i is the degree of the
        intermediate polynomial at that stage.  The result is non-negative on
        the orthant iff the input is non-negative on the box.
        """
        if len(bounds) != self.nvars:
            raise ValueError(f"bounds length {len(bounds)} != nvars {self.nvars}")
        result = self
        for i, (a, b) in enumerate(bounds):
            a, b = _as_fraction(a), _as_fraction(b)
            if not 0 <= a < b:
                raise ValueError(f"degenerate box bounds ({a}, {b}) in dimension {i}")
            if a != 0:
                result = result._shift_one(i, a)
            result = result.invert_var(i)
            result = result._shift_one(i, 1 / (b - a))
        return result

    # -- content ----------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients.

        Returns 1 for the zero polynomial.
        """
        if not self.terms:
            return _ONE
        den, scaled = self._integer_terms()
        num_gcd = 0
        for _, c in scaled:
            num_gcd = gcd(num_gcd, c)
        return Fraction(num_gcd, den)

    def primitive(self) -> tuple[Fraction, "MultiPoly"]:
        """Split into (c, q) with self = c*q, q primitive with positive leading coeff."""
        if not self.terms:
            return _ONE, self
        c = self.content()
        if self.leading_term()[1] < 0:
            c = -c
        return c, self * (1 / c)

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
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
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
        """Stable SHA-256 digest of the canonical term list, computed once."""
        if self._digest is None:
            canon = f"nvars={self.nvars};" + ";".join(
                f"{','.join(map(str, e))}:{c}" for e, c in self.sorted_terms()
            )
            object.__setattr__(self, "_digest", hashlib.sha256(canon.encode()).hexdigest())
        return self._digest


class RatFun:
    """A parsed map num/den with den primitive and of positive grlex lead.

    The constructor establishes that invariant by scaling both parts by the
    signed content of den; the parser reuses it for every division.  Products,
    powers, sums (den = d1*d2) and negation of such pairs keep the invariant
    by Gauss's lemma and because grlex leads multiply, so the parser builds
    those without normalising.  The proof pipeline additionally needs no
    negative coefficient in num or den; `parse_rde` rejects such maps itself.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        num._check_compatible(den)
        if den.is_zero():
            raise ZeroDivisionError("RatFun denominator is zero")
        c, den_norm = den.primitive()
        object.__setattr__(self, "num", num * (1 / c))
        object.__setattr__(self, "den", den_norm)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_poly(self) -> bool:
        return self.den.is_constant()

    def as_poly(self) -> MultiPoly:
        if not self.is_poly():
            raise ValueError("rational function has a non-constant denominator")
        return self.num * (1 / self.den.constant_term())

    def has_positive_den(self) -> bool:
        return all(c > 0 for c in self.den.terms.values())

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.evaluate(point) / d

    def __eq__(self, other):
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        # Equal maps share nvars and, unless zero, deg num - deg den (den is not reduced).
        degree = None if self.num.is_zero() else self.num.total_degree() - self.den.total_degree()
        return hash((self.nvars, degree))

    def __str__(self):
        if self.is_poly():
            return str(self.as_poly())
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatFun({self!s})"
