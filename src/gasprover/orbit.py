"""Exact orbits of the delay map Q, to refute a contraction exponent K
without building its P.

P_K, the numerator of |X - Xbar|^2 - |Q^K(X) - Xbar|^2, has the sign of the
norm difference at every point of the domain, where its cleared denominator
is positive (`recurrence.build_contraction_poly`).  So P_K(w) < 0 exactly
when Q^K(w) lies farther from Xbar than w, which an orbit of w decides in
exact integers.  An `Orbit` evaluates R on the integer terms that a
`recurrence.Composition` holds (`orbit_map`), and `driver.prove`'s K loop
asks the orbits of the points it carries before it builds a K.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd


class Orbit:
    """The exact orbit under Q of a point w of the open orthant, grown on demand.

    With n the order, Q^t(w) = (y_t, y_(t-1), .., y_(t-n+1)), where y_(1-n)
    .. y_0 are w's coordinates from the oldest, x_(n-1), up, and each later
    y is R at the n before it, the newest as x0.  `ys` holds each y = p/q as
    p and q in turn, coprime and positive: R has non-negative coefficients
    and a non-zero numerator and denominator, so it is positive at positive
    arguments.  The orbit is kept, so asking at K = n, n + 1, .. costs one
    evaluation of R per K.  `R` is an `orbit_map`.
    """

    __slots__ = ("R", "xbar", "ys", "start")

    def __init__(self, R: tuple, xbar: Fraction, point: list[Fraction]):
        self.R, self.xbar = R, xbar
        self.ys = [v for x in reversed(point) for v in (x.numerator, x.denominator)]
        if min(self.ys[::2]) <= 0:
            raise ValueError(f"an orbit starts in the open orthant, not at {point}")
        self.start = self._distance(self.ys)

    def farther(self, K: int) -> bool:
        """Whether Q^K(w) lies strictly farther from X̄ than w does, that is,
        whether P_K(w) < 0."""
        num_r, d_num, den_r, d_den, n = self.R
        ys = self.ys
        while len(ys) < 2 * (n + K):
            p, q = d_den * _cleared(num_r, ys), d_num * _cleared(den_r, ys)
            g = gcd(p, q)
            ys += (p // g, q // g)
        num, den = self._distance(ys[2 * K:2 * (K + n)])
        num0, den0 = self.start
        return num * den0 > num0 * den

    def _distance(self, ys: list[int]) -> tuple[int, int]:
        """b^2 * sum (p/q - a/b)^2 over the values p/q of `ys`, with xbar =
        a/b, as a numerator and a positive denominator."""
        a, b = self.xbar.numerator, self.xbar.denominator
        num, den = 0, 1
        for p, q in zip(ys[::2], ys[1::2]):
            qq = q * q
            num = num * qq + (b * p - a * q) ** 2 * den
            den *= qq
        return num, den


def orbit_map(R: tuple) -> tuple:
    """A `Composition`'s R, ((num terms, d_num), (den terms, d_den), degs),
    as `Orbit` evaluates it: (num, d_num, den, d_den, n), each term (e, c)
    of num and den as (c, f), where at x_i = p_i/q_i the term times
    prod_i q_i^degs[i] is c times the entries f of an orbit's `ys`: p_i is
    ys[-2i - 2] and q_i is ys[-2i - 1]."""
    (num_r, d_num), (den_r, d_den), degs = R

    def indices(terms):
        out = []
        for exps, c in terms:
            f = []
            for i, (d, e) in enumerate(zip(degs, exps)):
                f += [-2 * i - 2] * e + [-2 * i - 1] * (d - e)
            out.append((c, f))
        return out

    return indices(num_r), d_num, indices(den_r), d_den, len(degs)


def _cleared(terms: list, ys: list[int]) -> int:
    """The sum of `orbit_map` terms at the last n values of `ys`."""
    total = 0
    for c, f in terms:
        for i in f:
            c *= ys[i]
        total += c
    return total
