"""Rational difference equations and their contraction polynomials.

A recurrence x_{n+1} = R(x_n, ..., x_{n-k}) with positive-coefficient R is
lifted to a first-order vector map Q on the (closed or open) positive orthant.
This module finds the equilibrium exactly, iterates Q symbolically, and builds
the polynomial whose non-negativity certifies that Q^K strictly contracts the
Euclidean distance to the equilibrium.

Q^K and P are built on the integer polynomials of `packed`.  A `Composition`
holds Q^t with its denominators factored over a pool of primitive integer
polynomials, all packed by one layout whose fields fit the degree bound of
the K being built.  `driver.prove` carries one composition from each K it
builds to the next, so each composes on from the last; the layout is widened
only when a K's bound needs more bits.  P is assembled from D, the lcm of
the component denominators den_i: with c_i = D/den_i and g_i =
den_i*(component_i - xbar), P = D^2*|X - Xbar|^2 - sum_i (c_i*g_i)^2, each
square made by `sqr_packed`.  The components of `q_power` and P keep the
build's integers (`MultiPoly.from_packed`).  `orbit` follows one point under
Q on a composition's integer R, which refutes a K with no P.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import NamedTuple

from . import univariate as uni
from .packed import (PackedPoly, Packing, add_packed, divide_packed, evaluate_packed, mul_packed,
                     pow_packed, signed_content, sqr_packed)
from .parsing import ParseError, parse_ratfun
from .polynomial import MultiPoly, RatFun


class UnsupportedInputError(Exception):
    """Input outside the method's scope (maps to the CLI's exit code 3)."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class RecurrenceSpec(NamedTuple):
    """Order k+1 recurrence with map R in variables x0..xk.

    closed_domain is True when 0 is an allowed state value, which requires a
    positive constant term in R's denominator.
    """

    order: int
    R: RatFun
    closed_domain: bool


class Equilibrium(NamedTuple):
    value: Fraction
    order: int

    @property
    def vector(self) -> list[Fraction]:
        return [self.value] * self.order


def parse_rde(text: str, order: int | None = None) -> RecurrenceSpec:
    """Parse a recurrence right-hand side, rejecting negative coefficients."""
    if order is not None and order < 1:
        raise ValueError("order must be >= 1")
    rf = parse_ratfun(text, order)
    num, den = rf.num, rf.den
    if num.is_zero():
        raise UnsupportedInputError("invalid", "recurrence map is identically zero")
    for poly, label in ((num, "numerator"), (den, "denominator")):
        if any(c < 0 for c in poly.packed().terms.values()):
            raise UnsupportedInputError(
                "negative-coefficient",
                f"{label} has a negative coefficient; "
                "the method requires a positive-coefficient map",
            )
    return RecurrenceSpec(
        order=num.nvars,
        R=rf,
        closed_domain=den.constant_term() > 0,
    )


def equilibrium_poly(spec: RecurrenceSpec) -> list[int]:
    """A positive integer multiple of E(x) = x*den(x,..,x) - num(x,..,x), collapsed
    on the diagonal; equilibria are its domain roots."""
    num_packing, num_terms, d_num = spec.R.num.packed()
    den_packing, den_terms, d_den = spec.R.den.packed()
    out = [0] * (max(spec.R.num.total_degree(), spec.R.den.total_degree() + 1) + 1)
    # a key shifted right by its layout's `top` is its term's total degree
    for k, c in den_terms.items():
        out[(k >> den_packing.top) + 1] += d_num * c
    for k, c in num_terms.items():
        out[k >> num_packing.top] -= d_den * c
    return uni.trim(out)


def find_equilibrium(spec: RecurrenceSpec) -> Equilibrium:
    """The unique fixed point of the recurrence on its domain, exactly.

    Uniqueness of real roots over the domain interval is certified by Sturm
    counting on E's squarefree part, which the root search reuses. A
    closed-domain recurrence whose only fixed points are 0 and a single
    positive value is narrowed to the open domain and the positive fixed point
    is used.
    """
    e_poly = equilibrium_poly(spec)
    if not e_poly:
        raise UnsupportedInputError(
            "multiple-equilibria", "every domain point is a fixed point"
        )
    e_sf = uni.squarefree(e_poly)
    bound = uni.cauchy_bound(e_sf)
    n_positive = uni.count_roots_half_open(e_sf, Fraction(0), bound)
    zero_root = spec.closed_domain and e_poly[0] == 0
    if n_positive == 0 and zero_root:
        return Equilibrium(Fraction(0), spec.order)
    if n_positive == 0:
        raise UnsupportedInputError("no-equilibrium", "no fixed point in the domain")
    if n_positive > 1:
        raise UnsupportedInputError(
            "multiple-equilibria",
            f"{n_positive + zero_root} fixed points in the domain; "
            "a unique fixed point is required",
        )
    # exactly one positive fixed point (a boundary 0 beside it is dropped)
    roots = uni.rational_roots(e_sf, Fraction(0), bound)
    if not roots:
        raise UnsupportedInputError(
            "irrational-equilibrium",
            "the unique positive fixed point is irrational; exact transforms "
            "require a rational equilibrium",
        )
    return Equilibrium(roots[0], spec.order)


# ---------------------------------------------------------------------------
# Iterated map with factored denominators, in integers.
#
# The build packs every exponent vector with one `Packing`, sized by
# `_degree_bound`.  A component of Q^t is (A, a, factors): its numerator
# is A/a with A an integer polynomial and a > 0, and its denominator is the
# product of pool[i]**m over the Counter `factors` of pool indices.  The pool
# holds primitive integer polynomials of positive lead.  Composition
# introduces only products of factors already seen plus one new primitive
# polynomial per step, so exact trial division against the pool keeps
# components in cancelled normal form without a general multivariate GCD.  A
# primitive factor that divides an integer polynomial leaves an integer
# quotient (Gauss's lemma), so the divisions never leave the integers.
# ---------------------------------------------------------------------------

Component = tuple[dict, int, Counter]


def _expand_factors(factors: Counter, pool: list[dict], powers: dict) -> dict:
    """Product of pool[i]**mult over the factors.

    `powers` maps (i, mult) to pool[i]**mult, and the tuple of the first
    items of a factor Counter to their product, so that factor lists with a
    common prefix (L and a cofactor, a denominator used at each composition)
    share its product.  The caller makes one such dict per build, so each
    power and each product is made once and the dict goes with the build.
    The result may be held in that dict, so it must not be changed.
    """
    result = None
    prefix = ()
    for item in factors.items():
        prefix += (item,)
        product = powers.get(prefix)
        if product is None:
            power = powers.get(item)
            if power is None:
                power = powers[item] = pow_packed(pool[item[0]], item[1])
            product = powers[prefix] = power if result is None else mul_packed(result, power)
        result = product
    return {0: 1} if result is None else result


def _poly_at_rational_args(
    poly: list, nums: list[tuple[dict, int]], dens: list[dict], degs: list[int]
) -> dict:
    """prod a_i^degs[i] * poly(n_0/d_0, ..) * prod d_i^degs[i], an integer polynomial.

    poly is a list of (exponents, integer coefficient), n_i = A_i/a_i is given
    as nums[i] = (A_i, a_i), and degs[i] >= deg_i poly.
    """
    result: dict = {}
    num_pows = [[{0: 1}] for _ in nums]
    den_pows = [[{0: 1}] for _ in nums]

    def power(cache, base, e):
        while len(cache) <= e:
            cache.append(mul_packed(cache[-1], base))
        return cache[e]

    for exps, coeff in poly:
        term = {0: coeff * prod(a ** (d - e) for (_, a), d, e in zip(nums, degs, exps))}
        for i, e in enumerate(exps):
            if e:
                term = mul_packed(term, power(num_pows[i], nums[i][0], e))
            if degs[i] > e:
                term = mul_packed(term, power(den_pows[i], dens[i], degs[i] - e))
        result = add_packed(result, term)
    return result


def _decompose(poly: dict, pool: list[dict], packing: Packing) -> tuple[Counter, int]:
    """Split poly into known primitive factors times an integer content.

    Any remaining non-constant primitive part becomes a new pool entry.
    """
    factors: Counter = Counter()
    rest = poly
    for i, f in enumerate(pool):
        while (q := divide_packed(rest, f, packing)) is not None:
            factors[i] += 1
            rest = q
    if any(rest):
        content = signed_content(rest)
        pool.append({k: c // content for k, c in rest.items()})
        factors[len(pool) - 1] += 1
    else:
        content = rest[0]
    return factors, content


def _cancel(num: dict, den: Counter, pool: list[dict], packing: Packing) -> tuple[dict, Counter]:
    den = Counter(den)
    for f in list(den):
        while den[f] > 0:
            q = divide_packed(num, pool[f], packing)
            if q is None:
                break
            num = q
            den[f] -= 1
        if den[f] == 0:
            del den[f]
    return num, den


def _compose_first(R, state: list[Component], pool, powers, packing) -> Component:
    """R applied to the current component vector, in cancelled form.

    R is ((num terms, d_num), (den terms, d_den), degs): R's num and den as
    lists of integer terms over their common denominators, and degs[i] the
    larger of their degrees in x_i.
    """
    (num_r, d_num), (den_r, d_den), degs = R
    nums = [(A, a) for A, a, _ in state]
    dens = [_expand_factors(factors, pool, powers) for _, _, factors in state]
    top = _poly_at_rational_args(num_r, nums, dens, degs)
    bottom = _poly_at_rational_args(den_r, nums, dens, degs)
    factors, content = _decompose(bottom, pool, packing)
    # R = (top/d_num) / (bottom/d_den) with bottom = content * prod factors
    if content < 0:
        content, d_den = -content, -d_den
    num = top if d_den == 1 else {k: c * d_den for k, c in top.items()}
    num, factors = _cancel(num, factors, pool, packing)
    return num, d_num * content, factors


def _degree_bound(degs: list[int], K: int) -> int:
    """A bound on every degree met in composing Q^K and building its P.

    If the numerator and denominator of component i have degree at most h_i,
    R's num or den at the components, cleared by prod den_i^degs[i], has
    degree at most sum_i degs[i]*h_i, and cancelling only lowers it.  D, the
    lcm of the denominators, and each c_i*g_i of P then have degree at most
    sum_j h_j, so a summand of P has degree at most 2 + 2*sum_j h_j.
    """
    h = [1] * len(degs)
    peak = 1
    for _ in range(K):
        h = [sum(map(mul, degs, h))] + h[:-1]
        peak = max(peak, h[0])
    return max(peak, 2 + 2 * sum(h))


class Composition:
    """Q^t of one recurrence, carried from one K to the next.

    It holds the components of Q^t, the factor pool, the memo of factor
    products (`_expand_factors`' `powers`) and the layout that packs them.
    `advance(K)` composes on from t to K, one step per K, so that the K loop
    of `driver.prove` composes each step once.  The layout is widened, and
    every held polynomial re-keyed to it, only when K's degree bound needs
    more bits per field than it has.  A composition at K gives the
    components, term for term, that composing K times afresh gives.
    """

    __slots__ = ("R", "t", "state", "pool", "powers", "packing")

    def __init__(self, spec: RecurrenceSpec):
        num_r, den_r = spec.R.num, spec.R.den
        degs = [max(num_r.degree_in(i), den_r.degree_in(i)) for i in range(spec.order)]
        self.R = (*((list(packing.unpack_terms(ints).items()), d)
                    for packing, ints, d in (num_r.packed(), den_r.packed())), degs)
        self.t = 0
        self.state: list[Component] = []
        self.pool: list[dict] = []
        self.powers: dict = {}
        self.packing: Packing | None = None

    def advance(self, K: int) -> tuple[Packing, list[Component]]:
        """The layout and the components of Q^K, composed on from Q^t."""
        if K < 1:
            raise ValueError("K must be >= 1")
        if K < self.t:
            raise ValueError(f"a composition at Q^{self.t} cannot go back to Q^{K}")
        degs = self.R[2]
        packing = Packing(len(degs), _degree_bound(degs, K))
        if self.packing is None:
            self.state = [({x_i: 1}, 1, Counter()) for x_i in packing.units]
            self.packing = packing
        elif packing.mask > self.packing.mask:
            self._repack(packing)
        while self.t < K:
            self.state = [_compose_first(self.R, self.state, self.pool, self.powers,
                                         self.packing)] + self.state[:-1]
            self.t += 1
        return self.packing, self.state

    def _repack(self, packing: Packing) -> None:
        """Re-key every held polynomial to the wider `packing`, in order.  A
        polynomial held in several places (a pool entry is its own first
        power in the memo) is re-keyed once and stays shared."""
        old = self.packing
        moved: dict[int, dict] = {}

        def rekey(terms: dict) -> dict:
            new = moved.get(id(terms))
            if new is None:
                new = moved[id(terms)] = {
                    packing.pack(old.exponents(k)): c for k, c in terms.items()}
            return new

        # every old polynomial stays held until all are re-keyed, so ids are unique
        pool = [rekey(f) for f in self.pool]
        state = [(rekey(A), a, factors) for A, a, factors in self.state]
        powers = {key: rekey(v) for key, v in self.powers.items()}
        self.pool, self.state, self.powers, self.packing = pool, state, powers, packing


def q_power(spec: RecurrenceSpec, K: int) -> list[RatFun]:
    """The k+1 components of Q^K as rational functions in x0..xk."""
    composition = Composition(spec)
    components = []
    packing, state = composition.advance(K)
    for A, a, factors in state:
        den = _expand_factors(factors, composition.pool, composition.powers)
        if any(c <= 0 for c in den.values()):
            raise UnsupportedInputError(
                "non-positive-denominator",
                "a denominator of Q^K has a non-positive coefficient",
            )
        components.append(RatFun(MultiPoly.from_packed(PackedPoly(packing, A, a)),
                                 MultiPoly.from_packed(PackedPoly(packing, den, 1))))
    return components


def build_contraction_poly(
    spec: RecurrenceSpec, eq: Equilibrium, K: int, composition: Composition | None = None
) -> MultiPoly:
    """Numerator of |X - Xbar|^2 - |Q^K(X) - Xbar|^2.

    With den_i the denominator of component i, D their lcm and
    c_i = D/den_i, the result is D^2*|X - Xbar|^2 - sum_i (c_i*g_i)^2 where
    g_i = den_i*(component_i - xbar): D^2 is positive on the domain, so the
    result has the same sign as the norm difference at every domain point.
    The build runs in integers, and P keeps them (`MultiPoly.from_packed`)
    for the positivity engine.  `composition`, a `Composition` of spec at
    some Q^t with t <= K, is composed on to Q^K and left there; without one,
    Q^K is composed afresh.  Either way P is the same, term for term.
    """
    if composition is None:
        composition = Composition(spec)
    packing, components = composition.advance(K)
    pool, powers = composition.pool, composition.powers

    d_factors: Counter = Counter()
    for _, _, factors in components:
        for f, mult in factors.items():
            d_factors[f] = max(d_factors[f], mult)

    # D(xbar) != 0 iff no factor of D vanishes there, and D^2 > 0 then.
    if any(evaluate_packed(PackedPoly(packing, pool[f], 1), eq.vector) == 0 for f in d_factors):
        raise RuntimeError(f"a denominator factor of Q^{K} vanishes at xbar = {eq.value}")
    d_poly = _expand_factors(d_factors, pool, powers)

    # Every summand is kept over the one denominator (s*q)^2, where xbar = p/q
    # and s is the lcm of the components' numerator denominators a.
    p, q = eq.value.numerator, eq.value.denominator
    s = lcm(*(a for _, a, _ in components))
    dist: dict = {}
    for x_i in packing.units:
        t = add_packed({x_i: s * q}, {0: s * p}, -1)
        dist = add_packed(dist, sqr_packed(t))

    result = mul_packed(dist, sqr_packed(d_poly))
    for A, a, factors in components:
        cofactor = Counter()
        for f, mult in d_factors.items():
            rem = mult - factors.get(f, 0)
            if rem:
                cofactor[f] = rem
        # c_i*g_i = (s*q/a)*c_i*A_i - s*p*D, as c_i*den_i = D
        scaled = mul_packed({k: c * (s // a * q) for k, c in A.items()},
                            _expand_factors(cofactor, pool, powers))
        result = add_packed(result, sqr_packed(add_packed(scaled, d_poly, -s * p)), -1)
    return MultiPoly.from_packed(PackedPoly(packing, result, (s * q) ** 2))
