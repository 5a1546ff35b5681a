import random
from fractions import Fraction
from math import isqrt

import pytest

from gasprover import univariate as uni

F = Fraction


def _poly(*coeffs):
    # ascending order, index = degree, in Fractions
    return _ref_trim([F(c) for c in coeffs])


def _int(p):
    return uni.to_integer_poly(p)


def _count(p, a, b):
    return uni.count_roots_half_open(uni.squarefree(_int(p)), a, b)


def _count_open(p, a, b):
    return uni.count_roots_open(uni.squarefree(_int(p)), a, b)


# The Fraction Euclid implementations that the integer ones replaced, kept as
# the references those must match.


def _ref_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _ref_evaluate(p, x):
    result = 0
    for c in reversed(p):
        result = result * x + c
    return result


def _ref_add(p, q):
    n = max(len(p), len(q))
    return _ref_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                      for i in range(n)])


def _ref_neg(p):
    return [-c for c in p]


def _ref_mul(p, q):
    if not p or not q:
        return []
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _ref_trim(out)


def _ref_scale(p, c):
    return [a * c for a in p] if c else []


def _ref_derivative(p):
    return _ref_trim([c * i for i, c in enumerate(p)][1:])


def _ref_divmod(p, d):
    r = list(p)
    q = [F(0)] * max(len(p) - len(d) + 1, 1)
    while len(_ref_trim(r)) >= len(d):
        r = _ref_trim(r)
        shift = len(r) - len(d)
        c = r[-1] / d[-1]
        q[shift] = c
        for i, dc in enumerate(d):
            r[shift + i] -= c * dc
        r[-1] = F(0)
    return _ref_trim(q), _ref_trim(r)


def _ref_monic(p):
    return _ref_scale(p, 1 / p[-1]) if p else p


def _ref_gcd(p, q):
    a, b = _ref_trim(list(p)), _ref_trim(list(q))
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return _ref_monic(a)


def _ref_squarefree(p):
    p = _ref_trim(list(p))
    if len(p) < 2:
        return _ref_monic(p)
    g = _ref_gcd(p, _ref_derivative(p))
    if len(g) == 1:
        return _ref_monic(p)
    return _ref_monic(_ref_divmod(p, g)[0])


def _ref_sturm_chain(p):
    chain = [_ref_trim(list(p)), _ref_derivative(p)]
    while chain[-1]:
        rem = _ref_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(_ref_neg(rem))
    return [c for c in chain if c]


def _ref_variations(chain, x):
    signs = [1 if v > 0 else -1 for v in (_ref_evaluate(c, x) for c in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_count_half_open(p, a, b):
    chain = _ref_sturm_chain(_ref_squarefree(p))
    return _ref_variations(chain, a) - _ref_variations(chain, b)


def _ref_count_open(p, a, b):
    b_is_root = a < b and any(p) and _ref_evaluate(p, b) == 0
    return _ref_count_half_open(p, a, b) - b_is_root


def _is_positive_multiple(p, q):
    """Whether the integer list p is a positive multiple of the Fraction list q."""
    return (len(p) == len(q) and (p[-1] > 0) == (q[-1] > 0)
            and all(a * q[-1] == b * p[-1] for a, b in zip(p, q)))


def _random_case(rng):
    """(p, a, b): p of degree 0-8 with rational coefficients, a signed lead,
    repeated roots, 0 as a root, and roots exactly at a and at b."""
    def rat(lo, hi):
        return F(rng.randrange(lo, hi), rng.randrange(1, 5))

    if rng.random() < 0.3:
        p = _ref_trim([rat(-9, 10) for _ in range(rng.randrange(1, 10))])
        roots = []
    else:
        p, roots = _poly(rat(1, 9) * rng.choice([1, -1])), []
        while len(p) < rng.randrange(1, 8):
            r = rng.choice([F(0), rat(-12, 13)] + roots)
            roots.append(r)
            p = _ref_mul(p, _poly(-r, 1))
        if len(p) < 8 and rng.random() < 0.5:
            p = _ref_mul(p, _poly(rat(1, 9), rat(-6, 7), 1))
    a, b = sorted((rat(-12, 13), rat(-12, 13)))
    if roots and rng.random() < 0.6:
        r, w = rng.choice(roots), rat(1, 9)
        a, b = rng.choice([(r, r + w), (r - w, r), (r, r), (r, rng.choice(roots))])
    return p, a, b


class TestArithmetic:
    def test_div_exact(self):
        assert uni.div_exact([-1, 0, 0, 1], [-1, 1]) == [1, 1, 1]  # (x^3-1)/(x-1)
        assert uni.div_exact([-2, 3, -1, 6], [-1, 2]) == [2, 1, 3]  # (2x-1)(3x^2+x+2)
        assert uni.div_exact([], [-1, 1]) == []

    def test_random_div_exact_inverts_product(self):
        rng = random.Random(5)
        for _ in range(100):
            q = [rng.randrange(-5, 6) for _ in range(rng.randrange(0, 6))] + [rng.randrange(1, 4)]
            d = [rng.randrange(-5, 6) for _ in range(rng.randrange(0, 4))] + [rng.choice([1, -2, 3])]
            assert uni.div_exact([int(c) for c in _ref_mul(q, d)], d) == q

    def test_prem(self):
        assert uni.prem([1, 0, 1], [-1, 1]) == [2]  # x^2 + 1 at x = 1
        assert uni.prem([1, 0, 1], [1, -1]) == [2]  # a negative lead keeps the sign
        assert uni.prem([1, 0, 1], [-1, 2]) == [5]  # 2^2 * (1/4 + 1)
        assert uni.prem([1, 0, 1], [1, -2]) == [5]
        assert uni.prem([-1, 0, 0, 1], [-1, 1]) == []

    def test_random_prem_is_a_positive_multiple_of_the_remainder(self):
        rng = random.Random(5)
        for _ in range(300):
            p = _ref_trim([F(rng.randrange(-5, 6)) for _ in range(rng.randrange(1, 8))])
            d = _ref_trim([F(rng.randrange(-5, 6)) for _ in range(rng.randrange(1, 5))])
            if not d:
                continue
            r = uni.prem(_int(p), _int(d))
            want = _ref_divmod(p, d)[1]
            assert (r == want == []) or _is_positive_multiple(r, want)

    def test_derivative(self):
        assert uni.derivative([5, 3, 0, 2]) == [3, 0, 6]
        assert uni.derivative([7]) == []


class TestGcd:
    def test_common_factor(self):
        a = _int(_ref_mul(_poly(-1, 1), _poly(1, 1)))  # (x-1)(x+1)
        b = _int(_ref_mul(_poly(-1, 1), _poly(2, 1)))  # (x-1)(x+2)
        assert uni.gcd_poly(a, b) == [-1, 1]
        assert uni.gcd_poly([-c for c in a], [2 * c for c in b]) == [-1, 1]

    def test_coprime(self):
        assert uni.gcd_poly([-1, 1], [1, 1]) == [1]

    def test_squarefree(self):
        p = _ref_mul(_ref_mul(_poly(-1, 1), _poly(-1, 1)), _poly(3, 1))
        assert uni.squarefree(_int(p)) == [-3, 2, 1]  # (x-1)(x+3)
        assert uni.squarefree(_int(_ref_neg(p))) == [-3, 2, 1]
        assert uni.squarefree([-4]) == [1]
        assert uni.squarefree([]) == []


class TestSturm:
    def test_three_real_roots(self):
        # (x-1)(x-2)(x-3)
        p = _poly(-6, 11, -6, 1)
        assert _count(p, F(0), F(10)) == 3
        assert _count(p, F(0), F(2)) == 2
        assert _count(p, F(3, 2), F(5, 2)) == 1

    def test_half_open_includes_right_endpoint(self):
        p = _poly(-2, 1)  # x - 2
        assert _count(p, F(0), F(2)) == 1
        assert _count(p, F(2), F(5)) == 0

    def test_no_real_roots(self):
        assert _count(_poly(1, 0, 1), F(-10), F(10)) == 0

    def test_repeated_roots_counted_once(self):
        p = _ref_mul(_poly(-1, 1), _poly(-1, 1))
        assert _count(p, F(0), F(5)) == 1

    def test_open_interval_excludes_endpoints(self):
        p = _ref_mul(_poly(0, 1), _poly(-1, 1))  # x(x-1)
        assert _count_open(p, F(0), F(1)) == 0
        assert _count_open(p, F(-1, 2), F(1, 2)) == 1

    def test_left_endpoint_root_excluded(self):
        assert _count(_poly(0, 1), F(0), F(1)) == 0

    def test_multiple_roots_at_endpoints(self):
        # x^3 (x-1)^2 (x-1/2): a triple root at a, a double root at b
        p = _ref_mul(_ref_mul(_poly(0, 0, 0, 1), _ref_mul(_poly(-1, 1), _poly(-1, 1))),
                     _poly(F(-1, 2), 1))
        assert _count(p, F(0), F(1)) == 2
        assert _count_open(p, F(0), F(1)) == 1
        assert _count_open(p, F(0), F(1, 2)) == 0

    def test_empty_interval(self):
        p = _poly(-2, 1)
        assert _count(p, F(2), F(2)) == 0
        assert _count_open(p, F(2), F(2)) == 0

    def test_zero_polynomial_has_no_counted_roots(self):
        assert uni.count_roots_half_open([], F(0), F(1)) == 0
        assert uni.count_roots_open([], F(0), F(1)) == 0
        assert _count_open([F(0), F(0)], F(0), F(1)) == 0

    def test_random_endpoint_roots_against_known_roots(self):
        rng = random.Random(23)
        for _ in range(200):
            a = F(rng.randrange(-4, 5), rng.randrange(1, 3))
            b = a + F(rng.randrange(1, 5), rng.randrange(1, 3))
            roots = [rng.choice([a, b, F(rng.randrange(-8, 9), rng.randrange(1, 4))])
                     for _ in range(rng.randrange(1, 6))]
            p = _poly(rng.randrange(1, 4))
            for r in roots:
                p = _ref_mul(p, _poly(-r, 1))
            distinct = set(roots)
            assert _count(p, a, b) == sum(a < r <= b for r in distinct)
            assert _count_open(p, a, b) == sum(a < r < b for r in distinct)

    def test_random_against_known_roots(self):
        rng = random.Random(19)
        for _ in range(50):
            roots = sorted(set(F(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(rng.randrange(1, 5))))
            p = _poly(1)
            for r in roots:
                p = _ref_mul(p, _poly(-r, 1))
            a, b = F(-10), F(10)
            assert _count(p, a, b) == len(roots)
            mid = roots[0] + F(1, 1000)
            expect = sum(1 for r in roots if mid < r <= b)
            assert _count(p, mid, b) == expect


class TestMatchesFractionReference:
    def test_random_polynomials(self):
        rng = random.Random(61)
        at_a = at_b = 0
        for _ in range(600):
            p, a, b = _random_case(rng)
            sf = uni.squarefree(_int(p))
            want_sf = _ref_squarefree(p)
            assert [F(c, sf[-1]) for c in sf] == want_sf
            chain, want_chain = uni.sturm_chain(sf), _ref_sturm_chain(want_sf)
            assert len(chain) == len(want_chain)
            assert all(map(_is_positive_multiple, chain, want_chain))
            assert uni.count_roots_half_open(sf, a, b) == _ref_count_half_open(p, a, b)
            assert uni.count_roots_open(sf, a, b) == _ref_count_open(p, a, b)
            at_a += bool(p) and _ref_evaluate(p, a) == 0 and a < b
            at_b += bool(p) and _ref_evaluate(p, b) == 0 and a < b
        assert at_a >= 60 and at_b >= 60  # the endpoint cases are not vacuous


class TestBoundsAndRoots:
    def test_cauchy_bound_contains_roots(self):
        p = _poly(-6, 11, -6, 1)
        bound = uni.cauchy_bound(_int(p))
        assert _count(p, -bound, bound) == 3
        assert bound == uni.cauchy_bound(_int(_ref_scale(p, F(-2, 3)))) == 12
        assert uni.cauchy_bound([5]) == 1

    def test_to_integer_poly(self):
        assert uni.to_integer_poly(_poly(F(1, 2), F(1, 3))) == [3, 2]
        assert uni.to_integer_poly(_poly(2, 4)) == [1, 2]

    @staticmethod
    def _root_in(p, a, b):
        # rational_roots requires a squarefree polynomial with at most one
        # root in (a, b]
        sf = uni.squarefree(_int(p))
        assert uni.count_roots_half_open(sf, a, b) <= 1
        return uni.rational_roots(sf, a, b)

    def test_rational_roots(self):
        # (2x-1)(x+3)x = 2x^3 + 5x^2 - 3x, and its negation
        p = _ref_mul(_ref_mul(_poly(-1, 2), _poly(3, 1)), _poly(0, 1))
        for q in (p, _ref_neg(p)):
            assert self._root_in(q, F(-4), F(-1)) == [F(-3)]
            assert self._root_in(q, F(-1), F(1, 4)) == [F(0)]
            assert self._root_in(q, F(1, 4), F(1, 2)) == [F(1, 2)]  # root at b
            assert self._root_in(q, F(-3), F(-1)) == []  # root at a
            assert self._root_in(q, F(0), F(3)) == [F(1, 2)]  # 0 at a
            assert self._root_in(q, F(1, 2), F(3)) == []

    def test_rational_roots_none(self):
        # x^2 - 2 has one irrational root on each side of 0
        p = _poly(-2, 0, 1)
        bound = uni.cauchy_bound(_int(p))
        assert self._root_in(p, -bound, F(0)) == []
        assert self._root_in(p, F(0), bound) == []
        assert self._root_in(p, F(7, 5), F(10, 7)) == []  # sqrt 2 between
        assert self._root_in(_poly(1, 0, 1), F(-5), F(5)) == []
        assert self._root_in(_poly(3), F(-5), F(5)) == []
        with pytest.raises(ValueError):
            uni.rational_roots([0], F(0), F(1))

    def test_rational_roots_of_even_multiplicity(self):
        # (2x-1)^2 (x+1): a double root changes no sign
        p = _ref_mul(_ref_mul(_poly(-1, 2), _poly(-1, 2)), _poly(1, 1))
        assert self._root_in(p, F(0), F(1)) == [F(1, 2)]
        assert self._root_in(p, F(0), F(1, 2)) == [F(1, 2)]
        assert self._root_in(p, F(1, 2), F(1)) == []
        q = _ref_mul(_poly(0, 0, 1), _poly(-5, 1))  # x^2 (x-5): 0 is a double root
        assert self._root_in(q, F(-1), F(1)) == [F(0)]
        assert self._root_in(q, F(-1), F(0)) == [F(0)]
        assert self._root_in(q, F(0), F(1)) == []
        assert self._root_in(_poly(81, -108, 54, -12, 1), F(0), F(10)) == [F(3)]  # (x-3)^4
        s = _ref_mul(_poly(-2, 0, 1), _poly(-2, 0, 1))  # (x^2-2)^2
        assert self._root_in(s, F(0), F(2)) == []

    def test_rational_roots_of_large_constants(self):
        # constants of 17 to 27 digits, far beyond factoring by trial division
        cases = [
            (_poly(-10**26, 0, 1), [F(10**13)]),
            (_poly(-10000000000000061, 0, 1), []),
            (_poly(-100000000000000000039, 0, 1), []),
            (_poly(-(2 * 10**10 + 1) ** 2, 0, 4), [F(2 * 10**10 + 1, 2)]),
            (_ref_mul(_poly(-(10**20 + 3), 7), _poly(1, 0, 1)), [F(10**20 + 3, 7)]),
        ]
        for p, roots in cases:
            assert self._root_in(p, F(0), uni.cauchy_bound(_int(p))) == roots

    def test_rational_roots_matches_sturm_for_products(self):
        # random rational roots with multiplicities 1-3 and a random lead;
        # each root is alone between the midpoints to its neighbours
        rng = random.Random(31)
        for _ in range(60):
            roots = sorted(set(F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(rng.randrange(1, 4))))
            p = _poly(rng.choice([1, -1]) * rng.randrange(1, 4))
            for r in roots:
                for _ in range(rng.randrange(1, 4)):
                    p = _ref_mul(p, _poly(-r, 1))
            bound = uni.cauchy_bound(_int(p))
            assert _count(p, -bound, bound) == len(roots)
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
            p = _ref_mul(_poly(rat(1, 9) * rng.choice([1, -1])), [F(0)] * m + [F(1)])
            roots = {F(0)} if m else set()
            for _ in range(rng.randrange(0, 4)):
                r = rat(-12, 13)
                roots.add(r)
                p = _ref_mul(p, _poly(-r, 1))
            for _ in range(rng.randrange(0, 3)):
                b1, c0 = rat(-6, 7), rat(-6, 7)
                if not is_square(b1 * b1 - 4 * c0):
                    p = _ref_mul(p, _poly(c0, b1, 1))
            a = rat(-12, 13)
            b = a + rat(0, 9)
            if rng.random() < 0.5 and roots:
                r = rng.choice(sorted(roots))
                a, b = rng.choice([(a, r), (r, b), (r - F(1, 7), r)])
            sf = uni.squarefree(_int(p))
            if uni.count_roots_half_open(sf, a, b) > 1:
                continue
            checked += 1
            found = uni.rational_roots(sf, a, b)
            assert found == sorted(r for r in roots if a < r <= b)
            found_one += bool(found)
        assert found_one >= 60  # the test is not vacuous
