"""Dense univariate polynomials with integer coefficients.

Polynomials are lists of ints, index = degree, normalized so the last entry
is nonzero (the zero polynomial is the empty list); `to_integer_poly` turns a
list of Fractions into one.  Greatest common divisors and squarefree parts
come from primitive pseudo-remainder sequences (Brown 1971) and signs from
integer sums, so Fractions appear only as interval ends, bounds and roots.
Used for equilibrium root isolation (Sturm sequences), the Schur-Cohn
stability test, and unit-circle root detection.
"""
from __future__ import annotations

from fractions import Fraction
from math import floor, gcd

Poly = list[int]


def trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def degree(p: Poly) -> int:
    return len(p) - 1


def sign_at(p: Poly, x: Fraction) -> int:
    """The sign of p(u/v), v > 0: that of the integer sum of c_i u^i v^(d-i)."""
    u, v = x.numerator, x.denominator
    result, w = 0, 1
    for c in reversed(p):
        result = result * u + c * w
        w *= v
    return (result > 0) - (result < 0)


def derivative(p: Poly) -> Poly:
    return [c * i for i, c in enumerate(p)][1:]


def prem(p: Poly, d: Poly) -> Poly:
    """p's remainder by d times |lead d|^k, some k <= deg p - deg d + 1."""
    if not d:
        raise ZeroDivisionError("division by zero polynomial")
    if d[-1] < 0:
        d = [-c for c in d]
    r, n, lead = trim(list(p)), len(d) - 1, d[-1]
    while len(r) > n:
        c, shift = r[-1], len(r) - 1 - n
        r = [a * lead for a in r[:-1]]
        for i in range(n):
            r[shift + i] -= c * d[i]
        r = trim(r)
    return r


def _content_free(p: Poly) -> Poly:
    """p divided by the positive gcd of its coefficients."""
    g = gcd(*p)
    return p if g <= 1 else [c // g for c in p]


def _primitive(p: Poly) -> Poly:
    """p's primitive part with positive lead."""
    p = _content_free(p)
    return [-c for c in p] if p and p[-1] < 0 else p


def div_exact(p: Poly, d: Poly) -> Poly:
    """p / d, where d divides p in Z[x]."""
    r, n = list(p), len(d) - 1
    q = [0] * (len(p) - n)
    for shift in range(len(q) - 1, -1, -1):
        c = q[shift] = r[shift + n] // d[-1]
        for i in range(n):
            r[shift + i] -= c * d[i]
    assert not any(r[:n]), "d does not divide p"
    return q


def gcd_poly(p: Poly, q: Poly) -> Poly:
    """GCD in Z[x], primitive with positive lead, by the primitive PRS."""
    a, b = _primitive(trim(p)), _primitive(trim(q))
    while b:
        a, b = b, _primitive(prem(a, b))
    return a


def squarefree(p: Poly) -> Poly:
    """Squarefree part p / gcd(p, p'), primitive with positive lead."""
    p = _primitive(trim(p))
    if degree(p) < 1:
        return p
    g = gcd_poly(p, derivative(p))
    return p if degree(g) == 0 else div_exact(p, g)


def sturm_chain(p: Poly) -> list[Poly]:
    """p, p', then -prem of the last two while it is nonzero.

    Every entry is the Euclidean one times a positive factor, so the signs at
    every point are those of the chain over Q.
    """
    chain = [p, _content_free(derivative(p))]
    while chain[-1]:
        rem = prem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_content_free([-c for c in rem]))
    return [c for c in chain if c]


def sturm_variations_at(chain: list[Poly], x: Fraction) -> int:
    signs = [s for s in (sign_at(c, x) for c in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_half_open(p: Poly, a: Fraction, b: Fraction) -> int:
    """Number of real roots of the squarefree p in (a, b]; Sturm's count with
    zero entries skipped is exact there also when a or b is a root."""
    chain = sturm_chain(p)
    return sturm_variations_at(chain, a) - sturm_variations_at(chain, b)


def count_roots_open(p: Poly, a: Fraction, b: Fraction) -> int:
    """Number of real roots of the squarefree p strictly inside (a, b)."""
    b_is_root = a < b and any(p) and sign_at(p, b) == 0
    return count_roots_half_open(p, a, b) - b_is_root


def cauchy_bound(p: Poly) -> Fraction:
    """B such that all real roots lie in [-B, B]."""
    p = trim(p)
    if degree(p) < 1:
        return Fraction(1)
    return 1 + Fraction(max(abs(c) for c in p[:-1]), abs(p[-1]))


def to_integer_poly(p: list[Fraction]) -> Poly:
    """Scale by the positive lcm of denominators to coprime integer coefficients."""
    p = trim(p)
    if not p:
        return []
    den_lcm = 1
    for c in p:
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    return _content_free([int(c * den_lcm) for c in p])


def rational_roots(p: Poly, a: Fraction, b: Fraction) -> list[Fraction]:
    """The rational root of the squarefree p in (a, b], as a list of at most
    one; p must have at most one root there.

    With L = |lead p|, h(y) = L^d*p(y/L) is +-L times a monic polynomial in
    Z[y], so a rational root r has L*r in Z.  The root is simple, so it is
    the first integer n in (L*a, L*b] where h's sign leaves its first value,
    and it is rational iff h(n) = 0.
    """
    p = trim(p)
    if not p:
        raise ValueError("zero polynomial has every root")
    L = abs(p[-1])
    h = [c * L ** (len(p) - 1 - i) for i, c in enumerate(p)]
    lo, hi = floor(L * a) + 1, floor(L * b)  # the integers in (L*a, L*b]
    if lo > hi:
        return []
    first = sign_at(h, lo)
    if first == 0:
        return [Fraction(lo, L)]
    if sign_at(h, hi) == first:
        return []
    while hi - lo > 1:  # h(lo) has first's sign, h(hi) has not
        mid = (lo + hi) // 2
        if sign_at(h, mid) == first:
            lo = mid
        else:
            hi = mid
    return [Fraction(hi, L)] if sign_at(h, hi) == 0 else []
