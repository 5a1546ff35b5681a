import random
from fractions import Fraction

import pytest
from test_polynomial import _ref_add as _poly_add
from test_polynomial import _ref_mul as _poly_mul
from test_univariate import (
    _ref_add,
    _ref_count_open,
    _ref_divmod,
    _ref_evaluate,
    _ref_gcd,
    _ref_monic,
    _ref_mul,
    _ref_neg,
    _ref_scale,
    _ref_squarefree,
    _ref_trim,
)

from gasprover.polynomial import MultiPoly
from gasprover.recurrence import UnsupportedInputError, find_equilibrium, parse_rde
from gasprover.stability import (
    LasVerdict,
    characteristic_poly,
    classify_roots,
    las_check,
)

F = Fraction


def _las(text):
    spec = parse_rde(text)
    eq = find_equilibrium(spec)
    return las_check(spec, eq)


class TestCharacteristicPoly:
    def test_benchmark(self):
        spec = parse_rde("(4+x0)/(1+x1)")
        eq = find_equilibrium(spec)
        p = characteristic_poly(spec, eq)
        # lambda^2 - (1/3) lambda + 2/3, listed low degree first
        assert p == [F(2, 3), F(-1, 3), F(1)]

    def test_multipliers_recorded(self):
        v = _las("(4+x0)/(1+x1)")
        assert v.multipliers == (F(1, 3), F(-2, 3))
        # the partial derivatives of R = N/D at the equilibrium, zero ones
        # included: the quotient rule built as polynomials, then evaluated
        for text in ("x2/(2+x0+x1+x2)", "(2+x0)/(1+x1+x2)", "1/2*x0", "9/x0",
                     "1+x2/2"):
            spec = parse_rde(text)
            eq = find_equilibrium(spec)
            N, D = spec.R.num, spec.R.den
            expected = tuple(
                _poly_add(_poly_mul(_diff(N, i), D), _poly_mul(N, _diff(D, i)), -1)
                .evaluate(eq.vector) / _poly_mul(D, D).evaluate(eq.vector)
                for i in range(spec.order)
            )
            assert las_check(spec, eq).multipliers == expected

    def test_linear_map(self):
        spec = parse_rde("1/2*x0")
        eq = find_equilibrium(spec)
        assert characteristic_poly(spec, eq) == [F(-1, 2), F(1)]


class TestClassifyRoots:
    def test_inside(self):
        assert classify_roots([F(-1, 2), F(1)])[0] == "inside"

    def test_outside(self):
        assert classify_roots([F(-2), F(1)])[0] == "outside"

    def test_on_circle_real(self):
        assert classify_roots([F(-1), F(1)])[0] == "on-circle"
        assert classify_roots([F(1), F(1)])[0] == "on-circle"

    def test_on_circle_complex_pair(self):
        # lambda^2 + 1: roots +-i
        assert classify_roots([F(1), F(0), F(1)])[0] == "on-circle"

    def test_mixed_circle_and_outside(self):
        # (lambda - 1)(lambda - 2)
        assert classify_roots([F(2), F(-3), F(1)])[0] == "outside"

    def test_mixed_circle_and_inside_is_on_circle(self):
        # (lambda - 1)(lambda - 1/2): max modulus exactly 1
        assert classify_roots([F(1, 2), F(-3, 2), F(1)])[0] == "on-circle"

    def test_repeated_roots_squarefree_first(self):
        # (lambda - 1/2)^2
        assert classify_roots([F(1, 4), F(-1), F(1)])[0] == "inside"

    def test_constant(self):
        assert classify_roots([F(1)])[0] == "inside"

    def test_near_circle_rational(self):
        # roots of modulus 99/100 and 101/100 respectively
        assert classify_roots([F(-99, 100), F(1)])[0] == "inside"
        assert classify_roots([F(-101, 100), F(1)])[0] == "outside"

    def test_complex_modulus_exactly_one_nonreal(self):
        # lambda^2 - lambda + 1: roots exp(+-i pi/3)
        assert classify_roots([F(1), F(-1), F(1)])[0] == "on-circle"

    def test_complex_inside_pair(self):
        # lambda^2 + 1/4: roots +-i/2
        assert classify_roots([F(1, 4), F(0), F(1)])[0] == "inside"


class TestLasCheck:
    @pytest.mark.parametrize(
        "text",
        [
            "(4+x0)/(1+x1)",
            "2*x0/(1+x0)",
            "x1/(2+x1)",
            "1+1/2*x0",
            "x1/(2+x0+x1)",
            "1/2*x0",
        ],
    )
    def test_las(self, text):
        assert _las(text).outcome == "LAS"

    @pytest.mark.parametrize("text", ["2*x0", "9/x0"])
    def test_not_las(self, text):
        assert _las(text).outcome in ("unstable", "inconclusive")

    def test_unstable(self):
        assert _las("2*x0").outcome == "unstable"

    def test_inconclusive_reciprocal(self):
        # x -> 9/x has multiplier -1 at the equilibrium
        assert _las("9/x0").outcome == "inconclusive"
        assert _las("1/x0").outcome == "inconclusive"

    def test_schur_table_nonempty_for_las(self):
        v = _las("(4+x0)/(1+x1)")
        assert len(v.schur_table) >= 1
        for a0, an in v.schur_table:
            assert abs(a0) < abs(an)


# The Fraction implementations that the integer ones replaced, kept as the
# references those must match.


def _diff(p, var):
    """The partial derivative of p in x_var, term by term."""
    terms = {}
    for exps, coeff in p.terms.items():
        e = exps[var]
        if e:
            key = exps[:var] + (e - 1,) + exps[var + 1:]
            terms[key] = terms.get(key, F(0)) + coeff * e
    return MultiPoly(p.nvars, terms)


def _ref_characteristic_poly(spec, eq):
    m, v = spec.order, eq.vector
    num, den = spec.R.num, spec.R.den
    n_v, d_v = num.evaluate(v), den.evaluate(v)
    c = [(_diff(num, i).evaluate(v) * d_v - n_v * _diff(den, i).evaluate(v)) / d_v**2
         for i in range(m)]
    p = [F(0)] * m + [F(1)]
    for i, ci in enumerate(c):
        p[m - 1 - i] -= ci
    return p


def _ref_jury_all_inside(p):
    table = []
    f = _ref_trim(list(p))
    while len(f) > 1:
        a0, an = f[0], f[-1]
        table.append((a0, an))
        if abs(a0) >= abs(an):
            return False, table
        g = [an * a - a0 * b for a, b in zip(f, reversed(f))]
        f = _ref_trim(g[1:])
    return True, table


def _ref_strip_root(p, r):
    while p and _ref_evaluate(p, r) == 0:
        p = _ref_divmod(p, [-r, F(1)])[0]
    return p


def _ref_palindromic_reduce(h):
    m = (len(h) - 1) // 2
    v_prev, v_cur = [F(2)], [F(0), F(1)]
    H = [h[m]] if h[m] != 0 else []
    for k in range(1, m + 1):
        vk = v_cur if k == 1 else _ref_add(_ref_mul([F(0), F(1)], v_cur), _ref_neg(v_prev))
        if k > 1:
            v_prev, v_cur = v_cur, vk
        H = _ref_add(H, _ref_scale(vk, h[m + k]))
    return H


def _ref_circle_factor_all_on_circle(g):
    g = _ref_strip_root(_ref_strip_root(g, F(1)), F(-1))
    if len(g) <= 1:
        return True
    g = _ref_monic(g)
    H = _ref_palindromic_reduce(g)
    return _ref_count_open(H, F(-2), F(2)) == (len(g) - 1) // 2


def _ref_classify_roots(p):
    p_sf = _ref_squarefree(p)
    if len(p_sf) == 1:
        return "inside", []
    g = _ref_gcd(p_sf, _ref_trim(list(reversed(p_sf))))
    u = _ref_divmod(p_sf, g)[0] if len(g) > 1 else p_sf
    inside, table = _ref_jury_all_inside(u)
    if not inside:
        return "outside", table
    if len(g) == 1:
        return "inside", table
    return ("on-circle" if _ref_circle_factor_all_on_circle(g) else "outside"), table


def _random_char_poly(rng):
    """A polynomial of degree 0-8 built from factors with roots inside, on and
    outside the unit circle, repeats, reciprocal pairs and 0 among them."""
    def rat(lo, hi):
        return F(rng.randrange(lo, hi), rng.randrange(1, 5))

    factors = [
        lambda: [-rng.choice([F(1), F(-1), F(0), F(1, 2), F(-2), rat(-9, 10)]), F(1)],
        lambda: [F(1), rng.choice([F(-1), F(0), F(1), F(1, 2), F(-3, 2)]), F(1)],  # on |z| = 1
        lambda: [F(1), F(-5, 2), F(1)],  # 2 and 1/2
        lambda: [rng.choice([F(1, 4), F(4), F(1)]), F(0), F(1)],
        lambda: [rat(-9, 10), rat(-9, 10), F(1)],
    ]
    p = [rat(1, 9) * rng.choice([1, -1])]
    target = rng.randrange(0, 9)
    while len(p) <= target:
        p = _ref_mul(p, rng.choice(factors)())
    return p


class TestMatchesFractionReference:
    def test_classify_roots(self):
        rng = random.Random(67)
        kinds = set()
        for _ in range(500):
            p = _random_char_poly(rng)
            want = _ref_classify_roots(p)
            assert classify_roots(p) == want
            kinds.add(want[0])
        assert kinds == {"inside", "outside", "on-circle"}

    def test_las_check(self):
        rng = random.Random(71)
        coeffs = ("1", "2", "3", "1/2", "2/3", "5/4", "9")
        outcomes = set()
        for _ in range(300):
            order = rng.randrange(1, 4)
            monos = [f"x{i}" for i in range(order)] + [
                f"x{rng.randrange(order)}*x{rng.randrange(order)}"]

            def part(const_ok):
                pool = monos + ["1"] * const_ok
                picked = rng.sample(pool, rng.randrange(1, len(pool) + 1))
                return "+".join(f"{rng.choice(coeffs)}*{m}" for m in picked)

            spec = parse_rde(f"({part(True)})/({part(rng.random() < 0.8)})", order)
            try:
                eq = find_equilibrium(spec)
            except UnsupportedInputError:
                continue
            p = _ref_characteristic_poly(spec, eq)
            kind, table = _ref_classify_roots(p)
            outcome = {"inside": "LAS", "outside": "unstable", "on-circle": "inconclusive"}[kind]
            c = tuple(-p[order - 1 - i] for i in range(order))
            assert las_check(spec, eq) == LasVerdict(outcome, tuple(p), c, tuple(table))
            outcomes.add(outcome)
        assert outcomes == {"LAS", "unstable", "inconclusive"}
