"""Dense univariate polynomial helpers over exact rationals.

Polynomials are lists of Fractions, index = degree, normalized so the last
entry is nonzero (the zero polynomial is the empty list).  Used for
equilibrium root isolation (Sturm sequences), the Schur-Cohn stability test,
and unit-circle root detection.
"""
from __future__ import annotations

from fractions import Fraction
from math import floor, gcd

Poly = list[Fraction]

_ZERO = Fraction(0)


def trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def degree(p: Poly) -> int:
    return len(p) - 1


def is_zero(p: Poly) -> bool:
    return not p


def evaluate(p: Poly, x: Fraction) -> Fraction:
    result = 0  # an int p at an int x stays in ints
    for c in reversed(p):
        result = result * x + c
    return result


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else _ZERO) + (q[i] if i < len(q) else _ZERO) for i in range(n)])


def neg(p: Poly) -> Poly:
    return [-c for c in p]


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def scale(p: Poly, c: Fraction) -> Poly:
    if c == 0:
        return []
    return [a * c for a in p]


def derivative(p: Poly) -> Poly:
    return trim([c * i for i, c in enumerate(p)][1:])


def divmod_exact(p: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder over Q."""
    if not d:
        raise ZeroDivisionError("division by zero polynomial")
    r = list(p)
    q = [_ZERO] * max(len(p) - len(d) + 1, 1)
    lead = d[-1]
    while len(trim(r)) >= len(d):
        r = trim(r)
        shift = len(r) - len(d)
        c = r[-1] / lead
        q[shift] = c
        for i, dc in enumerate(d):
            r[shift + i] -= c * dc
        r[-1] = _ZERO
    return trim(q), trim(r)


def div_exact(p: Poly, d: Poly) -> Poly | None:
    q, r = divmod_exact(p, d)
    return q if not r else None


def monic(p: Poly) -> Poly:
    if not p:
        return p
    return scale(p, 1 / p[-1])


def gcd_poly(p: Poly, q: Poly) -> Poly:
    """Monic GCD via the Euclidean algorithm."""
    a, b = trim(list(p)), trim(list(q))
    while b:
        a, b = b, divmod_exact(a, b)[1]
    return monic(a)


def squarefree(p: Poly) -> Poly:
    """Squarefree part p / gcd(p, p'), monic."""
    p = trim(list(p))
    if degree(p) < 1:
        return monic(p)
    g = gcd_poly(p, derivative(p))
    if degree(g) == 0:
        return monic(p)
    q = div_exact(p, g)
    assert q is not None
    return monic(q)


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [trim(list(p)), derivative(p)]
    while chain[-1]:
        rem = divmod_exact(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(neg(rem))
    return [c for c in chain if c]


def _sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_variations_at(chain: list[Poly], x: Fraction) -> int:
    return _sign_variations(evaluate(c, x) for c in chain)


def count_roots_half_open(p: Poly, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of p in (a, b]; Sturm's count with zero
    entries skipped is exact there also when a or b is a root."""
    chain = sturm_chain(squarefree(p))
    return sturm_variations_at(chain, a) - sturm_variations_at(chain, b)


def count_roots_open(p: Poly, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of p strictly inside (a, b)."""
    b_is_root = a < b and any(p) and evaluate(p, b) == 0
    return count_roots_half_open(p, a, b) - b_is_root


def cauchy_bound(p: Poly) -> Fraction:
    """B such that all real roots lie in [-B, B]."""
    p = trim(list(p))
    if degree(p) < 1:
        return Fraction(1)
    lead = abs(p[-1])
    m = max((abs(c) for c in p[:-1]), default=_ZERO)
    return 1 + m / lead


def to_integer_poly(p: Poly) -> list[int]:
    """Scale by the positive lcm of denominators to coprime integer coefficients."""
    if not p:
        return []
    den_lcm = 1
    for c in p:
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in p]
    g = 0
    for c in ints:
        g = gcd(g, c)
    return [c // g for c in ints]


def rational_roots(p: Poly, a: Fraction, b: Fraction) -> list[Fraction]:
    """The rational root of p in (a, b], as a list of at most one; p must
    have at most one distinct root there.

    With f an integer form of p and L = |lead f|, h(y) = L^d*f(y/L) is +-L
    times a monic polynomial in Z[y], so a rational root r has L*r in Z.  The
    root is the first integer n in (L*a, L*b] where h's sign leaves its first
    value, and it is rational iff h(n) = 0.  A root of even multiplicity
    changes no sign, so only when h keeps one sign over the range is the
    search run again on p's squarefree part.
    """
    p = trim(p)
    if not p:
        raise ValueError("zero polynomial has every root")
    for sf in (False, True):
        f = to_integer_poly(squarefree(p) if sf else p)
        L = abs(f[-1])
        h = [c * L ** (len(f) - 1 - i) for i, c in enumerate(f)]
        lo, hi = floor(L * a) + 1, floor(L * b)  # the integers in (L*a, L*b]
        if lo > hi:
            return []
        first = evaluate(h, lo)
        if first == 0:
            return [Fraction(lo, L)]
        if first * evaluate(h, hi) > 0:
            continue
        while hi - lo > 1:  # h(lo) has first's sign, h(hi) has not
            mid = (lo + hi) // 2
            if first * evaluate(h, mid) > 0:
                lo = mid
            else:
                hi = mid
        return [Fraction(hi, L)] if evaluate(h, hi) == 0 else []
    return []
