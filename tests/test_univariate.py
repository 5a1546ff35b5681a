import random
from fractions import Fraction
from math import isqrt

import pytest

from gasprover import univariate as uni

F = Fraction


def _poly(*coeffs):
    # ascending order, index = degree
    return uni.trim([F(c) for c in coeffs])


class TestArithmetic:
    def test_divmod_exact(self):
        p = _poly(-1, 0, 0, 1)  # x^3 - 1
        d = _poly(-1, 1)  # x - 1
        q, r = uni.divmod_exact(p, d)
        assert q == _poly(1, 1, 1)
        assert r == []

    def test_divmod_remainder(self):
        p = _poly(1, 0, 1)  # x^2 + 1
        d = _poly(-1, 1)
        q, r = uni.divmod_exact(p, d)
        assert uni.add(uni.mul(q, d), r) == p
        assert r == _poly(2)

    def test_random_division_identity(self):
        rng = random.Random(5)
        for _ in range(100):
            p = [F(rng.randrange(-5, 6)) for _ in range(rng.randrange(1, 7))]
            d = [F(rng.randrange(-5, 6)) for _ in range(rng.randrange(1, 5))]
            p, d = uni.trim(p), uni.trim(d)
            if not d:
                continue
            q, r = uni.divmod_exact(p, d)
            assert uni.add(uni.mul(q, d), r) == p
            assert uni.degree(r) < uni.degree(d) or not r

    def test_derivative(self):
        assert uni.derivative(_poly(5, 3, 0, 2)) == _poly(3, 0, 6)


class TestGcd:
    def test_common_factor(self):
        a = uni.mul(_poly(-1, 1), _poly(1, 1))  # (x-1)(x+1)
        b = uni.mul(_poly(-1, 1), _poly(2, 1))  # (x-1)(x+2)
        assert uni.gcd_poly(a, b) == _poly(-1, 1)

    def test_coprime(self):
        assert uni.gcd_poly(_poly(-1, 1), _poly(1, 1)) == _poly(1)

    def test_squarefree(self):
        p = uni.mul(uni.mul(_poly(-1, 1), _poly(-1, 1)), _poly(3, 1))
        assert uni.squarefree(p) == uni.monic(uni.mul(_poly(-1, 1), _poly(3, 1)))


class TestSturm:
    def test_three_real_roots(self):
        # (x-1)(x-2)(x-3)
        p = _poly(-6, 11, -6, 1)
        assert uni.count_roots_half_open(p, F(0), F(10)) == 3
        assert uni.count_roots_half_open(p, F(0), F(2)) == 2
        assert uni.count_roots_half_open(p, F(3, 2), F(5, 2)) == 1

    def test_half_open_includes_right_endpoint(self):
        p = _poly(-2, 1)  # x - 2
        assert uni.count_roots_half_open(p, F(0), F(2)) == 1
        assert uni.count_roots_half_open(p, F(2), F(5)) == 0

    def test_no_real_roots(self):
        assert uni.count_roots_half_open(_poly(1, 0, 1), F(-10), F(10)) == 0

    def test_repeated_roots_counted_once(self):
        p = uni.mul(_poly(-1, 1), _poly(-1, 1))
        assert uni.count_roots_half_open(p, F(0), F(5)) == 1

    def test_open_interval_excludes_endpoints(self):
        p = uni.mul(_poly(0, 1), _poly(-1, 1))  # x(x-1)
        assert uni.count_roots_open(p, F(0), F(1)) == 0
        assert uni.count_roots_open(p, F(-1, 2), F(1, 2)) == 1

    def test_left_endpoint_root_excluded(self):
        assert uni.count_roots_half_open(_poly(0, 1), F(0), F(1)) == 0

    def test_multiple_roots_at_endpoints(self):
        # x^3 (x-1)^2 (x-1/2): a triple root at a, a double root at b
        p = uni.mul(uni.mul(_poly(0, 0, 0, 1), uni.mul(_poly(-1, 1), _poly(-1, 1))),
                    _poly(F(-1, 2), 1))
        assert uni.count_roots_half_open(p, F(0), F(1)) == 2
        assert uni.count_roots_open(p, F(0), F(1)) == 1
        assert uni.count_roots_open(p, F(0), F(1, 2)) == 0

    def test_empty_interval(self):
        p = _poly(-2, 1)
        assert uni.count_roots_half_open(p, F(2), F(2)) == 0
        assert uni.count_roots_open(p, F(2), F(2)) == 0

    def test_zero_polynomial_has_no_counted_roots(self):
        assert uni.count_roots_half_open([], F(0), F(1)) == 0
        assert uni.count_roots_open([], F(0), F(1)) == 0
        assert uni.count_roots_open([F(0), F(0)], F(0), F(1)) == 0

    def test_random_endpoint_roots_against_known_roots(self):
        rng = random.Random(23)
        for _ in range(200):
            a = F(rng.randrange(-4, 5), rng.randrange(1, 3))
            b = a + F(rng.randrange(1, 5), rng.randrange(1, 3))
            roots = [rng.choice([a, b, F(rng.randrange(-8, 9), rng.randrange(1, 4))])
                     for _ in range(rng.randrange(1, 6))]
            p = _poly(rng.randrange(1, 4))
            for r in roots:
                p = uni.mul(p, _poly(-r, 1))
            distinct = set(roots)
            assert uni.count_roots_half_open(p, a, b) == sum(a < r <= b for r in distinct)
            assert uni.count_roots_open(p, a, b) == sum(a < r < b for r in distinct)

    def test_random_against_known_roots(self):
        rng = random.Random(19)
        for _ in range(50):
            roots = sorted(set(F(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(rng.randrange(1, 5))))
            p = _poly(1)
            for r in roots:
                p = uni.mul(p, _poly(-r, 1))
            a, b = F(-10), F(10)
            assert uni.count_roots_half_open(p, a, b) == len(roots)
            mid = roots[0] + F(1, 1000)
            expect = sum(1 for r in roots if mid < r <= b)
            assert uni.count_roots_half_open(p, mid, b) == expect


class TestBoundsAndRoots:
    def test_cauchy_bound_contains_roots(self):
        p = _poly(-6, 11, -6, 1)
        bound = uni.cauchy_bound(p)
        assert uni.count_roots_half_open(p, -bound, bound) == 3

    def test_to_integer_poly(self):
        assert uni.to_integer_poly(_poly(F(1, 2), F(1, 3))) == [3, 2]
        assert uni.to_integer_poly(_poly(2, 4)) == [1, 2]

    def test_rational_roots(self):
        # (2x-1)(x+3)x = 2x^3 + 5x^2 - 3x
        p = uni.mul(uni.mul(_poly(-1, 2), _poly(3, 1)), _poly(0, 1))
        bound = uni.cauchy_bound(p)
        assert uni.rational_roots(p, -bound, bound) == [F(-3), F(0), F(1, 2)]

    def test_rational_roots_none(self):
        p = _poly(-2, 0, 1)
        bound = uni.cauchy_bound(p)
        assert uni.rational_roots(p, -bound, bound) == []

    def test_rational_roots_matches_sturm_for_products(self):
        rng = random.Random(31)
        for _ in range(30):
            roots = sorted(set(F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(rng.randrange(1, 4))))
            p = _poly(1)
            for r in roots:
                p = uni.mul(p, _poly(-r, 1))
            bound = uni.cauchy_bound(p)
            assert uni.rational_roots(p, -bound, bound) == roots
            assert uni.count_roots_half_open(p, -bound, bound) == len(roots)

    def test_rational_roots_in_random_intervals(self):
        # p = c * x^m * (linear factors, repeats allowed) * (quadratics with
        # no rational root); the roots in (a, b] are known by construction.
        rng = random.Random(37)

        def rat(lo, hi):
            return F(rng.randrange(lo, hi), rng.randrange(1, 5))

        def is_square(q):
            return q >= 0 and all(isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))

        for _ in range(300):
            m = rng.randrange(0, 3)
            p = uni.mul(_poly(rat(1, 9) * rng.choice([1, -1])), [F(0)] * m + [F(1)])
            roots = {F(0)} if m else set()
            for _ in range(rng.randrange(0, 4)):
                r = rat(-12, 13)
                roots.add(r)
                p = uni.mul(p, _poly(-r, 1))
            for _ in range(rng.randrange(0, 3)):
                b1, c0 = rat(-6, 7), rat(-6, 7)
                if not is_square(b1 * b1 - 4 * c0):
                    p = uni.mul(p, _poly(c0, b1, 1))
            a = rat(-12, 13)
            b = a + rat(0, 25)
            if rng.random() < 0.3 and roots:
                a, b = rng.choice([(a, max(roots)), (min(roots), b)])
            found = uni.rational_roots(p, a, b)
            assert found == sorted(r for r in roots if a < r <= b)
            assert (F(0) in found) == (F(0) in roots and a < 0 <= b)
