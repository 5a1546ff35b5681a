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

    @staticmethod
    def _root_in(p, a, b):
        # rational_roots requires at most one distinct root in (a, b]
        assert uni.count_roots_half_open(p, a, b) <= 1
        return uni.rational_roots(p, a, b)

    def test_rational_roots(self):
        # (2x-1)(x+3)x = 2x^3 + 5x^2 - 3x, and its negation
        p = uni.mul(uni.mul(_poly(-1, 2), _poly(3, 1)), _poly(0, 1))
        for q in (p, uni.neg(p)):
            assert self._root_in(q, F(-4), F(-1)) == [F(-3)]
            assert self._root_in(q, F(-1), F(1, 4)) == [F(0)]
            assert self._root_in(q, F(1, 4), F(1, 2)) == [F(1, 2)]  # root at b
            assert self._root_in(q, F(-3), F(-1)) == []  # root at a
            assert self._root_in(q, F(0), F(3)) == [F(1, 2)]  # 0 at a
            assert self._root_in(q, F(1, 2), F(3)) == []

    def test_rational_roots_none(self):
        # x^2 - 2 has one irrational root on each side of 0
        p = _poly(-2, 0, 1)
        bound = uni.cauchy_bound(p)
        assert self._root_in(p, -bound, F(0)) == []
        assert self._root_in(p, F(0), bound) == []
        assert self._root_in(p, F(7, 5), F(10, 7)) == []  # sqrt 2 between
        assert self._root_in(_poly(1, 0, 1), F(-5), F(5)) == []
        assert self._root_in(_poly(3), F(-5), F(5)) == []
        with pytest.raises(ValueError):
            uni.rational_roots([F(0)], F(0), F(1))

    def test_rational_roots_of_even_multiplicity(self):
        # (2x-1)^2 (x+1): a double root changes no sign
        p = uni.mul(uni.mul(_poly(-1, 2), _poly(-1, 2)), _poly(1, 1))
        assert self._root_in(p, F(0), F(1)) == [F(1, 2)]
        assert self._root_in(p, F(0), F(1, 2)) == [F(1, 2)]
        assert self._root_in(p, F(1, 2), F(1)) == []
        q = uni.mul(_poly(0, 0, 1), _poly(-5, 1))  # x^2 (x-5): 0 is a double root
        assert self._root_in(q, F(-1), F(1)) == [F(0)]
        assert self._root_in(q, F(-1), F(0)) == [F(0)]
        assert self._root_in(q, F(0), F(1)) == []
        assert self._root_in(_poly(81, -108, 54, -12, 1), F(0), F(10)) == [F(3)]  # (x-3)^4
        s = uni.mul(_poly(-2, 0, 1), _poly(-2, 0, 1))  # (x^2-2)^2
        assert self._root_in(s, F(0), F(2)) == []

    def test_rational_roots_of_large_constants(self):
        # constants of 17 to 27 digits, far beyond factoring by trial division
        cases = [
            (_poly(-10**26, 0, 1), [F(10**13)]),
            (_poly(-10000000000000061, 0, 1), []),
            (_poly(-100000000000000000039, 0, 1), []),
            (_poly(-(2 * 10**10 + 1) ** 2, 0, 4), [F(2 * 10**10 + 1, 2)]),
            (uni.mul(_poly(-(10**20 + 3), 7), _poly(1, 0, 1)), [F(10**20 + 3, 7)]),
        ]
        for p, roots in cases:
            assert self._root_in(p, F(0), uni.cauchy_bound(p)) == roots

    def test_rational_roots_matches_sturm_for_products(self):
        # random rational roots with multiplicities 1-3 and a random lead;
        # each root is alone between the midpoints to its neighbours
        rng = random.Random(31)
        for _ in range(60):
            roots = sorted(set(F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(rng.randrange(1, 4))))
            p = _poly(rng.choice([1, -1]) * rng.randrange(1, 4))
            for r in roots:
                for _ in range(rng.randrange(1, 4)):
                    p = uni.mul(p, _poly(-r, 1))
            bound = uni.cauchy_bound(p)
            assert uni.count_roots_half_open(p, -bound, bound) == len(roots)
            cuts = [-bound] + [(r + s) / 2 for r, s in zip(roots, roots[1:])] + [bound]
            for r, lo, hi in zip(roots, cuts, cuts[1:]):
                assert self._root_in(p, lo, hi) == [r]
                assert self._root_in(p, lo, r) == [r]
                assert self._root_in(p, r, hi) == []

    def test_rational_roots_in_random_intervals(self):
        # p = c * x^m * (linear factors, repeats allowed) * (quadratics with
        # no rational root); the roots in (a, b] are known by construction,
        # and intervals with more than one distinct real root are skipped.
        rng = random.Random(37)

        def rat(lo, hi):
            return F(rng.randrange(lo, hi), rng.randrange(1, 5))

        def is_square(q):
            return q >= 0 and all(isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))

        checked = found_one = 0
        while checked < 300:
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
            b = a + rat(0, 9)
            if rng.random() < 0.5 and roots:
                r = rng.choice(sorted(roots))
                a, b = rng.choice([(a, r), (r, b), (r - F(1, 7), r)])
            if uni.count_roots_half_open(p, a, b) > 1:
                continue
            checked += 1
            found = uni.rational_roots(p, a, b)
            assert found == sorted(r for r in roots if a < r <= b)
            found_one += bool(found)
        assert found_one >= 60  # the test is not vacuous
