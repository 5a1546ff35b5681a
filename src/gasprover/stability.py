"""Exact local asymptotic stability check for the linearized recurrence.

The recurrence is linearized at the equilibrium; its characteristic
polynomial's root moduli are compared against 1 exactly: its squarefree and
reciprocal factors are found in Z[x], a Schur-Cohn (Jury) recursion on the
integer cofactor tests for roots strictly inside, and a palindromic
reduction of the reciprocal factor locates roots exactly on the unit circle.
Outcomes are LAS, unstable, or inconclusive (some root of modulus exactly 1,
where linearization proves nothing).
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import univariate as uni
from .polynomial import MultiPoly
from .recurrence import Equilibrium, RecurrenceSpec

Poly = list[int]


class LasVerdict(NamedTuple):
    outcome: str  # LAS | unstable | inconclusive
    char_poly: tuple[Fraction, ...]
    multipliers: tuple[Fraction, ...]  # partial derivatives of R at the equilibrium
    schur_table: tuple[tuple[Fraction, Fraction], ...] = ()


def _at_diagonal(poly: MultiPoly, x: Fraction, deg: int) -> tuple[int, int, list[int]]:
    """(D, q^deg*f(x,..,x), [q^deg*df/dx_i(x,..,x)]) for f = D*poly in Z[x0..xk],
    D > 0 and x = p/q; deg must be at least poly's total degree."""
    p, q = x.numerator, x.denominator
    packing, terms, den = poly.packed()
    value, partials = 0, [0] * poly.nvars
    for k, c in terms.items():
        t = k >> packing.top
        value += c * p**t * q ** (deg - t)
        if t:
            w = c * p ** (t - 1) * q ** (deg - t + 1)
            for i, e in enumerate(packing.exponents(k)):
                if e:
                    partials[i] += e * w
    return den, value, partials


def characteristic_poly(spec: RecurrenceSpec, eq: Equilibrium) -> list[Fraction]:
    """lambda^(k+1) - sum c_i lambda^(k-i), c_i = dR/dx_i at the equilibrium.

    The quotient rule on R = num/den at the equilibrium vector, in integers:
    every value and partial is scaled by the same power of x's denominator.
    """
    num, den = spec.R.num, spec.R.den
    deg = max(num.total_degree(), den.total_degree())
    d_num, n_v, n_d = _at_diagonal(num, eq.value, deg)
    d_den, d_v, d_d = _at_diagonal(den, eq.value, deg)
    c = [Fraction((a * d_v - n_v * b) * d_den, d_num * d_v * d_v)
         for a, b in zip(n_d, d_d)]
    return [-ci for ci in reversed(c)] + [Fraction(1)]


def _reverse(p: Poly) -> Poly:
    return uni.trim(list(reversed(p)))


def _jury_all_inside(u: Poly) -> tuple[bool, list[tuple[Fraction, Fraction]]]:
    """Strict Schur-Cohn recursion; False whenever a stage is not decisive.

    It runs on u's integers: stage k is the monic stage times lead(u)^(2^k),
    so each recorded (a0, an) is divided by that scale.
    Sound for the caller's use on polynomials without unit-circle roots:
    a non-strict stage there implies some root lies strictly outside.
    """
    table = []
    f, scale = u, u[-1]
    while uni.degree(f) > 0:
        a0, an = f[0], f[-1]
        table.append((Fraction(a0, scale), Fraction(an, scale)))
        if abs(a0) >= abs(an):
            return False, table
        g = [an * a - a0 * b for a, b in zip(f, reversed(f))]
        assert g[0] == 0
        f, scale = uni.trim(g[1:]), scale * scale
    return True, table


def _strip_root(p: Poly, r: int) -> Poly:
    while p and uni.sign_at(p, r) == 0:
        p = uni.div_exact(p, [-r, 1])
    return p


def _palindromic_reduce(h: Poly) -> Poly:
    """H(w) with h(z) = z^m H(z + 1/z) for palindromic h of degree 2m."""
    d = uni.degree(h)
    assert d % 2 == 0
    m = d // 2
    H = [h[m]] + [0] * m
    # V_k(w) = z^k + z^(-k): V_0 = 2, V_1 = w, V_k = w V_{k-1} - V_{k-2}
    v_prev, v_cur = [2], [0, 1]
    for k in range(1, m + 1):
        for i, c in enumerate(v_cur):
            H[i] += h[m + k] * c
        v_next = [0] + v_cur
        for i, c in enumerate(v_prev):
            v_next[i] -= c
        v_prev, v_cur = v_cur, v_next
    return uni.trim(H)


def _circle_factor_all_on_circle(g: Poly) -> bool:
    """True iff every root of the squarefree reciprocal factor g lies on |z| = 1."""
    g = _strip_root(g, 1)
    g = _strip_root(g, -1)
    if uni.degree(g) <= 0:
        return True
    # g's roots are simple, non-zero and closed under z -> 1/z, none of them
    # +-1 now, so g is palindromic of even degree and H is squarefree
    m = uni.degree(g) // 2
    H = _palindromic_reduce(g)
    return uni.count_roots_open(H, Fraction(-2), Fraction(2)) == m


def classify_roots(p: list[Fraction]) -> tuple[str, list[tuple[Fraction, Fraction]]]:
    """Classify max root modulus vs 1: 'inside', 'outside', or 'on-circle'.

    The factors are found in Z[x], and Jury's recursion runs on u's integers.
    """
    p_sf = uni.squarefree(uni.to_integer_poly(p))
    if uni.degree(p_sf) == 0:
        return "inside", []
    g = uni.gcd_poly(p_sf, _reverse(p_sf))
    u = uni.div_exact(p_sf, g) if uni.degree(g) > 0 else p_sf
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
