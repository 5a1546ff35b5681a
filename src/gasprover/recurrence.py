"""Rational difference equations and their contraction polynomials.

A recurrence x_{n+1} = R(x_n, ..., x_{n-k}) with positive-coefficient R is
lifted to a first-order vector map Q on the (closed or open) positive orthant.
This module finds the equilibrium exactly, iterates Q symbolically, and builds
the polynomial whose non-negativity certifies that Q^K strictly contracts the
Euclidean distance to the equilibrium.

Q^K and P are built on the integer polynomials of `packed`, from the first
composition to the finished P, all packed by one layout whose fields fit a
degree bound computed before the build starts.  Denominators stay factored
over a pool of primitive integer polynomials.  `q_power` makes Fractions at
once; P keeps the build's integers and makes its Fractions on first read.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from . import univariate as uni
from .packed import PackedPoly, Packing, add_packed, divide_packed, mul_packed, pow_packed
from .parsing import ParseError, parse_ratfun
from .polynomial import MultiPoly, RatFun


class UnsupportedInputError(Exception):
    """Input outside the method's scope (maps to the CLI's exit code 3)."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class RecurrenceSpec:
    """Order k+1 recurrence with map R in variables x0..xk.

    closed_domain is True when 0 is an allowed state value, which requires a
    positive constant term in R's denominator.
    """

    order: int
    R: RatFun
    closed_domain: bool


@dataclass(frozen=True)
class Equilibrium:
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
        if any(c.numerator < 0 for c in poly.terms.values()):
            raise UnsupportedInputError(
                "negative-coefficient",
                f"{label} has a negative coefficient; "
                "the method requires a positive-coefficient map",
            )
    return RecurrenceSpec(
        order=num.nvars,
        R=rf,
        closed_domain=den.constant_term().numerator > 0,
    )


def equilibrium_poly(spec: RecurrenceSpec) -> list[int]:
    """A positive integer multiple of E(x) = x*den(x,..,x) - num(x,..,x), collapsed
    on the diagonal; equilibria are its domain roots."""
    d_num, num_terms = spec.R.num._integer_terms()
    d_den, den_terms = spec.R.den._integer_terms()
    out = [0] * (max(spec.R.num.total_degree(), spec.R.den.total_degree() + 1) + 1)
    for exps, c in den_terms:
        out[sum(exps) + 1] += d_num * c
    for exps, c in num_terms:
        out[sum(exps)] -= d_den * c
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
# The build packs every exponent vector with one `Packing`, sized in
# `_q_power_factored`.  A component of Q^t is (A, a, factors): its numerator
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
        content = gcd(*rest.values())
        if rest[max(rest)] < 0:
            content = -content
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


def _q_power_factored(
    spec: RecurrenceSpec, K: int, pool: list[dict], powers: dict
) -> tuple[Packing, list[Component]]:
    """The components of Q^K, and the one layout that packs them and P.

    If the numerator and denominator of component i have degree at most h_i,
    R's num or den at the components, cleared by prod den_i^degs[i], has
    degree at most sum_i degs[i]*h_i, and cancelling only lowers it.  A summand
    of P, g_j^2 times its cofactor or |X - Xbar|^2 times the lcm of the squared
    denominators, then has degree at most 2 + 2*sum_j h_j.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    num_r, den_r = spec.R.num, spec.R.den
    degs = [max(num_r.degree_in(i), den_r.degree_in(i)) for i in range(spec.order)]
    h = [1] * spec.order
    peak = 1
    for _ in range(K):
        h = [sum(map(mul, degs, h))] + h[:-1]
        peak = max(peak, h[0])
    packing = Packing(spec.order, max(peak, 2 + 2 * sum(h)))

    d_num, num_terms = num_r._integer_terms()
    d_den, den_terms = den_r._integer_terms()
    R = ((list(num_terms), d_num), (list(den_terms), d_den), degs)
    state: list[Component] = [({x_i: 1}, 1, Counter()) for x_i in packing.units]
    for _ in range(K):
        state = [_compose_first(R, state, pool, powers, packing)] + state[:-1]
    return packing, state


def q_power(spec: RecurrenceSpec, K: int) -> list[RatFun]:
    """The k+1 components of Q^K as rational functions in x0..xk."""
    n = spec.order
    pool: list[dict] = []
    powers: dict = {}
    components = []
    packing, state = _q_power_factored(spec, K, pool, powers)
    for A, a, factors in state:
        den = _expand_factors(factors, pool, powers)
        if any(c <= 0 for c in den.values()):
            raise UnsupportedInputError(
                "non-positive-denominator",
                "a denominator of Q^K has a non-positive coefficient",
            )
        components.append(RatFun(
            MultiPoly._from_integers(n, packing.unpack_terms(A), a),
            MultiPoly._from_integers(n, packing.unpack_terms(den), 1),
        ))
    return components


def _vanishes_on_diagonal(f: dict, x: Fraction, packing: Packing) -> bool:
    """Whether f(x, .., x) = 0, evaluated in integers."""
    p, q = x.numerator, x.denominator
    degrees = [k >> packing.top for k in f]
    deg = max(degrees)
    return not sum(c * p ** d * q ** (deg - d) for c, d in zip(f.values(), degrees))


def build_contraction_poly(
    spec: RecurrenceSpec, eq: Equilibrium, K: int
) -> MultiPoly:
    """Numerator of |X - Xbar|^2 - |Q^K(X) - Xbar|^2.

    Denominators are cleared by the least common multiple of the squared
    component denominators, which is positive on the domain, so the result has
    the same sign as the norm difference at every domain point.  The build
    runs in integers, and P keeps them (`MultiPoly.from_packed`) for the
    positivity engine; its Fractions are made only if its terms are read.
    """
    pool: list[dict] = []
    powers: dict = {}
    packing, components = _q_power_factored(spec, K, pool, powers)

    lcm_factors: Counter = Counter()
    for _, _, factors in components:
        for f, mult in factors.items():
            lcm_factors[f] = max(lcm_factors[f], 2 * mult)

    # Every exponent in lcm_factors is even, so lcm_poly(xbar) > 0 iff no factor vanishes.
    if any(_vanishes_on_diagonal(pool[f], eq.value, packing) for f in lcm_factors):
        raise RuntimeError(f"a denominator factor of Q^{K} vanishes at xbar = {eq.value}")
    lcm_poly = _expand_factors(lcm_factors, pool, powers)

    # Every summand is kept over the one denominator (s*q)^2, where xbar = p/q
    # and s is the lcm of the components' numerator denominators a.
    p, q = eq.value.numerator, eq.value.denominator
    s = lcm(*(a for _, a, _ in components))
    dist: dict = {}
    for x_i in packing.units:
        t = add_packed({x_i: s * q}, {0: s * p}, -1)
        dist = add_packed(dist, mul_packed(t, t))

    result = mul_packed(dist, lcm_poly)
    for A, a, factors in components:
        g = add_packed({k: c * (s // a * q) for k, c in A.items()},
                       _expand_factors(factors, pool, powers), -s * p)
        cofactor = Counter()
        for f, mult in lcm_factors.items():
            rem = mult - 2 * factors.get(f, 0)
            if rem:
                cofactor[f] = rem
        result = add_packed(
            result, mul_packed(mul_packed(g, g), _expand_factors(cofactor, pool, powers)), -1
        )
    return MultiPoly.from_packed(PackedPoly(packing, result, (s * q) ** 2))
