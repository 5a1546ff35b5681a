from fractions import Fraction

import pytest

from gasprover.recurrence import find_equilibrium, parse_rde
from gasprover.stability import (
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
                (N.diff(i) * D - N * D.diff(i)).evaluate(eq.vector)
                / (D * D).evaluate(eq.vector)
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
