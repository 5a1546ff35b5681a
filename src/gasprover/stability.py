"""Exact local asymptotic stability check for the linearized recurrence.

The recurrence is linearized at the equilibrium; its characteristic
polynomial's root moduli are compared against 1 entirely in rational
arithmetic: a Schur-Cohn (Jury) recursion for the strictly-inside test, and a
reciprocal-factor / palindromic reduction to locate roots exactly on the unit
circle. Outcomes are LAS, unstable, or inconclusive (some root of modulus
exactly 1, where linearization proves nothing).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import univariate as uni
from .recurrence import Equilibrium, RecurrenceSpec

Poly = list[Fraction]


@dataclass(frozen=True)
class LasVerdict:
    outcome: str  # LAS | unstable | inconclusive
    char_poly: tuple[Fraction, ...]
    multipliers: tuple[Fraction, ...]  # partial derivatives of R at the equilibrium
    schur_table: tuple[tuple[Fraction, Fraction], ...] = field(default_factory=tuple)


def characteristic_poly(spec: RecurrenceSpec, eq: Equilibrium) -> Poly:
    """lambda^(k+1) - sum c_i lambda^(k-i), c_i = dR/dx_i at the equilibrium.

    The quotient rule on R = num/den, evaluated at the equilibrium vector.
    """
    m = spec.order
    v = eq.vector
    num, den = spec.R.num, spec.R.den
    n_v, d_v = num.evaluate(v), den.evaluate(v)
    c = [
        (num.diff(i).evaluate(v) * d_v - n_v * den.diff(i).evaluate(v)) / d_v**2
        for i in range(m)
    ]
    p = [Fraction(0)] * (m + 1)
    p[m] = Fraction(1)
    for i, ci in enumerate(c):
        p[m - 1 - i] -= ci
    return uni.trim(p)


def _reverse(p: Poly) -> Poly:
    return uni.trim(list(reversed(p)))


def _jury_all_inside(p: Poly) -> tuple[bool, list[tuple[Fraction, Fraction]]]:
    """Strict Schur-Cohn recursion; False whenever a stage is not decisive.

    Sound for the caller's use on polynomials without unit-circle roots:
    a non-strict stage there implies some root lies strictly outside.
    """
    table = []
    f = uni.trim(list(p))
    while uni.degree(f) > 0:
        a0, an = f[0], f[-1]
        table.append((a0, an))
        if abs(a0) >= abs(an):
            return False, table
        rev = list(reversed(f))
        g = [an * a - a0 * b for a, b in zip(f, rev)]
        assert g[0] == 0
        f = uni.trim(g[1:])
    return True, table


def _strip_root(p: Poly, r: Fraction) -> Poly:
    while p and uni.evaluate(p, r) == 0:
        q = uni.div_exact(p, [-r, Fraction(1)])
        assert q is not None
        p = q
    return p


def _palindromic_reduce(h: Poly) -> Poly:
    """H(w) with h(z) = z^m H(z + 1/z) for palindromic h of degree 2m."""
    d = uni.degree(h)
    assert d % 2 == 0
    m = d // 2
    # V_k(w) = z^k + z^(-k): V_0 = 2, V_1 = w, V_k = w V_{k-1} - V_{k-2}
    v_prev: Poly = [Fraction(2)]
    v_cur: Poly = [Fraction(0), Fraction(1)]
    H = uni.scale([Fraction(1)], h[m]) if h[m] != 0 else []
    for k in range(1, m + 1):
        vk = v_cur if k == 1 else uni.sub(uni.mul([Fraction(0), Fraction(1)], v_cur), v_prev)
        if k > 1:
            v_prev, v_cur = v_cur, vk
        H = uni.add(H, uni.scale(vk, h[m + k]))
    return H


def _circle_factor_all_on_circle(g: Poly) -> bool:
    """True iff every root of the squarefree reciprocal factor g lies on |z| = 1."""
    g = _strip_root(g, Fraction(1))
    g = _strip_root(g, Fraction(-1))
    if uni.degree(g) <= 0:
        return True
    # g's roots are simple, non-zero and closed under z -> 1/z, none of them
    # +-1 now, so monic g is palindromic of even degree
    g = uni.monic(g)
    m = uni.degree(g) // 2
    H = _palindromic_reduce(g)
    return uni.count_roots_open(H, Fraction(-2), Fraction(2)) == m


def classify_roots(p: Poly) -> tuple[str, list[tuple[Fraction, Fraction]]]:
    """Classify max root modulus vs 1: 'inside', 'outside', or 'on-circle'."""
    p_sf = uni.squarefree(p)
    if uni.degree(p_sf) == 0:
        return "inside", []
    g = uni.gcd_poly(p_sf, _reverse(p_sf))
    if uni.degree(g) > 0:
        u = uni.div_exact(p_sf, g)
        assert u is not None
    else:
        u = p_sf
    inside, table = _jury_all_inside(u)
    if not inside:
        return "outside", table
    if uni.degree(g) == 0:
        return "inside", table
    if _circle_factor_all_on_circle(g):
        return "on-circle", table
    return "outside", table


def las_check(spec: RecurrenceSpec, eq: Equilibrium) -> LasVerdict:
    p = characteristic_poly(spec, eq)
    # trim keeps p's leading 1, so p[m-1-i] = -c_i with c_i = dR/dx_i
    m = spec.order
    c = tuple(-p[m - 1 - i] for i in range(m))
    kind, table = classify_roots(p)
    outcome = {"inside": "LAS", "outside": "unstable", "on-circle": "inconclusive"}[
        kind
    ]
    return LasVerdict(outcome, tuple(p), c, tuple(table))
