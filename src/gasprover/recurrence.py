"""Rational difference equations and their contraction polynomials.

A recurrence x_{n+1} = R(x_n, ..., x_{n-k}) with positive-coefficient R is
lifted to a first-order vector map Q on the (closed or open) positive orthant.
This module finds the equilibrium exactly, iterates Q symbolically, and builds
the polynomial whose non-negativity certifies that Q^K strictly contracts the
Euclidean distance to the equilibrium.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import univariate as uni
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
    rf = parse_ratfun(text, order)
    num, den = rf.num, rf.den
    if num.is_zero():
        raise UnsupportedInputError("invalid", "recurrence map is identically zero")
    for poly, label in ((num, "numerator"), (den, "denominator")):
        for coeff in poly.terms.values():
            if coeff < 0:
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


def _collapse_diagonal(poly: MultiPoly) -> list[Fraction]:
    """Univariate polynomial obtained by setting every variable to x."""
    out: dict[int, Fraction] = {}
    for exps, coeff in poly.terms.items():
        t = sum(exps)
        out[t] = out.get(t, Fraction(0)) + coeff
    if not out:
        return []
    dense = [Fraction(0)] * (max(out) + 1)
    for t, coeff in out.items():
        dense[t] = coeff
    return uni.trim(dense)


def equilibrium_poly(spec: RecurrenceSpec) -> list[Fraction]:
    """E(x) = x*den(x,..,x) - num(x,..,x); equilibria are its domain roots."""
    num_d = _collapse_diagonal(spec.R.num)
    den_d = _collapse_diagonal(spec.R.den)
    return uni.sub(uni.mul([Fraction(0), Fraction(1)], den_d), num_d)


def find_equilibrium(spec: RecurrenceSpec) -> Equilibrium:
    """The unique fixed point of the recurrence on its domain, exactly.

    Uniqueness of real roots over the domain interval is certified by Sturm
    counting. A closed-domain recurrence whose only fixed points are 0 and a
    single positive value is narrowed to the open domain and the positive
    fixed point is used.
    """
    e_poly = equilibrium_poly(spec)
    if uni.is_zero(e_poly):
        raise UnsupportedInputError(
            "multiple-equilibria", "every domain point is a fixed point"
        )
    bound = uni.cauchy_bound(e_poly)
    n_positive = uni.count_roots_half_open(e_poly, Fraction(0), bound)
    zero_root = spec.closed_domain and uni.evaluate(e_poly, Fraction(0)) == 0
    total = n_positive + (1 if zero_root else 0)

    if total == 0:
        raise UnsupportedInputError("no-equilibrium", "no fixed point in the domain")
    if total == 1 and zero_root:
        return Equilibrium(Fraction(0), spec.order)
    if total > 1 and not (total == 2 and zero_root and n_positive == 1):
        raise UnsupportedInputError(
            "multiple-equilibria",
            f"{total} fixed points in the domain; a unique fixed point is required",
        )
    # exactly one positive fixed point (possibly after dropping the boundary 0)
    candidates = [r for r in uni.rational_roots(e_poly) if r > 0]
    if not candidates:
        raise UnsupportedInputError(
            "irrational-equilibrium",
            "the unique positive fixed point is irrational; exact transforms "
            "require a rational equilibrium",
        )
    assert len(candidates) == 1
    value = candidates[0]
    assert uni.evaluate(e_poly, value) == 0
    return Equilibrium(value, spec.order)


# ---------------------------------------------------------------------------
# Iterated map with factored denominators.
#
# Each component is kept as (numerator, Counter of primitive denominator
# factors). Composition introduces only products of factors already seen plus
# one new primitive polynomial per step, so exact trial division against the
# factor pool is enough to keep components in cancelled normal form without a
# general multivariate GCD.
# ---------------------------------------------------------------------------

Component = tuple[MultiPoly, Counter]


def _expand_factors(factors: Counter, nvars: int, powers: dict) -> MultiPoly:
    """Product of f**mult over the factors.

    `powers` maps (f, mult) to f**mult. The caller makes one such dict per
    build, so each power is raised once and the dict goes with the build.
    """
    result = MultiPoly.constant(nvars, 1)
    for f, mult in factors.items():
        power = powers.get((f, mult))
        if power is None:
            power = powers[f, mult] = f ** mult
        result = result * power
    return result


def _poly_at_rational_args(
    poly: MultiPoly, nums: list[MultiPoly], dens: list[MultiPoly], degs: list[int]
) -> MultiPoly:
    """poly(n_0/d_0, ..) cleared by prod d_i^degs[i] (degs[i] >= deg_i poly)."""
    nvars = poly.nvars
    result = MultiPoly.zero(nvars)
    den_pows = [[MultiPoly.constant(nvars, 1)] for _ in range(nvars)]
    num_pows = [[MultiPoly.constant(nvars, 1)] for _ in range(nvars)]

    def power(cache, base, e):
        while len(cache) <= e:
            cache.append(cache[-1] * base)
        return cache[e]

    for exps, coeff in poly.terms.items():
        term = MultiPoly.constant(nvars, coeff)
        for i, e in enumerate(exps):
            term = term * power(num_pows[i], nums[i], e)
            term = term * power(den_pows[i], dens[i], degs[i] - e)
        result = result + term
    return result


def _decompose(poly: MultiPoly, pool: list[MultiPoly]) -> tuple[Counter, Fraction]:
    """Split poly into known primitive factors times a rational content.

    Any remaining non-constant primitive part becomes a new pool entry.
    """
    factors: Counter = Counter()
    rest = poly
    for f in pool:
        while True:
            q = rest.divide_exact(f)
            if q is None:
                break
            factors[f] += 1
            rest = q
    if rest.total_degree() > 0:
        content, prim = rest.primitive()
        pool.append(prim)
        factors[prim] += 1
    else:
        content = rest.constant_term()
    return factors, content


def _cancel(num: MultiPoly, den: Counter) -> tuple[MultiPoly, Counter]:
    den = Counter(den)
    for f in list(den):
        while den[f] > 0:
            q = num.divide_exact(f)
            if q is None:
                break
            num = q
            den[f] -= 1
        if den[f] == 0:
            del den[f]
    return num, den


def _compose_first(
    spec: RecurrenceSpec, state: list[Component], pool, powers: dict
) -> Component:
    """R applied to the current component vector, in cancelled form."""
    nvars = spec.order
    num_r, den_r = spec.R.num, spec.R.den
    nums = [c[0] for c in state]
    dens = [_expand_factors(c[1], nvars, powers) for c in state]
    degs = [
        max(num_r.degree_in(i), den_r.degree_in(i)) for i in range(nvars)
    ]
    top = _poly_at_rational_args(num_r, nums, dens, degs)
    bottom = _poly_at_rational_args(den_r, nums, dens, degs)
    factors, content = _decompose(bottom, pool)
    num = top * MultiPoly.constant(nvars, 1 / content)
    return _cancel(num, factors)


def _q_power_factored(spec: RecurrenceSpec, K: int, powers: dict) -> list[Component]:
    if K < 1:
        raise ValueError("K must be >= 1")
    nvars = spec.order
    pool: list[MultiPoly] = []
    state: list[Component] = [
        (MultiPoly.variable(nvars, i), Counter()) for i in range(nvars)
    ]
    for _ in range(K):
        state = [_compose_first(spec, state, pool, powers)] + state[:-1]
    return state


def q_power(spec: RecurrenceSpec, K: int) -> list[RatFun]:
    """The k+1 components of Q^K as rational functions in x0..xk."""
    nvars = spec.order
    powers: dict = {}
    components = []
    for num, factors in _q_power_factored(spec, K, powers):
        den = _expand_factors(factors, nvars, powers)
        assert all(c > 0 for c in den.terms.values())
        components.append(RatFun(num, den))
    return components


def build_contraction_poly(
    spec: RecurrenceSpec, eq: Equilibrium, K: int
) -> MultiPoly:
    """Numerator of |X - Xbar|^2 - |Q^K(X) - Xbar|^2.

    Denominators are cleared by the least common multiple of the squared
    component denominators, which is positive on the domain, so the result has
    the same sign as the norm difference at every domain point.
    """
    nvars = spec.order
    xbar = eq.value
    powers: dict = {}
    components = _q_power_factored(spec, K, powers)

    lcm: Counter = Counter()
    for _, factors in components:
        for f, mult in factors.items():
            lcm[f] = max(lcm[f], 2 * mult)

    # Every exponent in lcm is even, so lcm_poly(xbar) > 0 iff no factor vanishes.
    assert all(f.evaluate(eq.vector) != 0 for f in lcm)
    lcm_poly = _expand_factors(lcm, nvars, powers)

    xbar_c = MultiPoly.constant(nvars, xbar)
    dist = MultiPoly.zero(nvars)
    for i in range(nvars):
        t = MultiPoly.variable(nvars, i) - xbar_c
        dist = dist + t * t

    result = dist * lcm_poly
    for num, factors in components:
        g = num - xbar_c * _expand_factors(factors, nvars, powers)
        cofactor = Counter()
        for f, mult in lcm.items():
            rem = mult - 2 * factors.get(f, 0)
            if rem:
                cofactor[f] = rem
        result = result - g * g * _expand_factors(cofactor, nvars, powers)
    return result
