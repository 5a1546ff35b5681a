"""End-to-end acceptance checks.

Each test prints a single "criterion N: pass|FAIL" line (bypassing output
capture) so a full run yields one status line per criterion.
"""
import contextlib
import random
import time
from fractions import Fraction

import pytest

from gasprover.checker import _subpoly_n, replay_certificate, subdivide
from gasprover.cli import main
from gasprover.conjecture import MeshParams, mesh_minimize
from gasprover.driver import prove, prove_k
from gasprover.packed import evaluate_packed, invert_packed, shift_packed
from gasprover.parsing import parse_poly
from gasprover.polynomial import MultiPoly
from gasprover.positivity import finitize, orthant_split, prove_nonneg
from gasprover.recurrence import (
    build_contraction_poly,
    find_equilibrium,
    parse_rde,
    q_power,
)

F = Fraction


@pytest.fixture
def criterion(capfd):
    @contextlib.contextmanager
    def _criterion(num, label):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"criterion {num} ({label}): FAIL")
            raise
        with capfd.disabled():
            print(f"criterion {num} ({label}): pass")

    return _criterion


BENCH = "(4+x0)/(1+x1)"


def test_criterion_1_benchmark_golden(criterion):
    with criterion(1, "benchmark K=5 golden reproduction"):
        t0 = time.monotonic()
        assert main(["prove-k", "--rde", BENCH, "--k", "5"]) == 0

        spec = parse_rde(BENCH)
        eq = find_equilibrium(spec)
        P = build_contraction_poly(spec, eq, 5)
        # x0 is the most recent iterate; the transcription swaps the roles
        # of the two variables relative to (x_{n-1}, x_n) displays.
        packing, terms, den = P.packed()
        assert F(terms[packing.pack((4, 8))], den) == 25
        assert F(terms[packing.pack((1, 8))], den) == 3060
        assert F(terms[packing.pack((0, 4))], den) == -148969
        assert P.constant_term() == 3488704

        cert = prove_nonneg(P, eq.value)
        assert cert.verdict == "Proven"
        by_label = {node.region.label: node for node in cert.nodes}
        ne = next(o for o in by_label["NE"].outcomes if o.test == "SubPolyN")
        assert ne.result == "pass"
        assert ne.detail["a"] == 318700575
        assert ne.detail["b"] == -6980904
        assert ne.detail["c"] == 349366689
        assert ne.detail["d"] == 445324725659927484
        sw = next(o for o in by_label["SW"].outcomes if o.test == "SubPolyN")
        assert sw.detail["d"] == F(111331181414981871, 67108864)
        assert time.monotonic() - t0 < 60


def test_criterion_2_first_worked_split(criterion):
    with criterion(2, "quadratic form split reproduction"):
        P = parse_poly("x0^2-x0*x1+x1^2")
        split = {r.label: poly for r, poly in orthant_split(P, F(1))}
        diag = parse_poly("x0^2-x0*x1+x1^2+x0+x1+1")
        off = parse_poly(
            "x0^2*x1^2+2*x0^2*x1+2*x0*x1^2+x0^2+3*x0*x1+x1^2+x0+x1+1"
        )
        assert split["NE"] == diag
        assert split["SW"] == diag
        assert split["NW"] == off
        assert split["SE"] == off

        outcome = _subpoly_n(split["NE"].packed())
        assert outcome.result == "pass"
        assert outcome.detail["d"] == 3

        cert = prove_nonneg(P, F(1))
        assert cert.verdict == "Proven"
        assert len(cert.nodes) == 4
        assert all(len(node.path) == 1 for node in cert.nodes)


def test_criterion_3_subdivision_split(criterion):
    with criterion(3, "quartic subdivision reproduction"):
        P = parse_poly("x0^4*x1-5*x0^3*x1+10*x0^2*x1+x0^2+x1")
        regions = {r.label: r for r, _ in orthant_split(P, F(1))}
        split = {r.label: poly for r, poly in orthant_split(P, F(1))}
        assert split["NE"] == parse_poly(
            "x0^4*x1+x0^4-x0^3*x1-x0^3+x0^2*x1+2*x0^2+9*x0*x1+11*x0+7*x1+8"
        )
        assert split["SW"] == parse_poly(
            "x0^4+4*x0^3+x0^2*x1+17*x0^2+2*x0*x1+21*x0+x1+8"
        )
        assert split["NW"] == parse_poly(
            "x0^4*x1+x0^4+4*x0^3*x1+4*x0^3+16*x0^2*x1+17*x0^2"
            "+19*x0*x1+21*x0+7*x1+8"
        )
        assert split["SE"] == parse_poly(
            "x0^4-x0^3+x0^2*x1+2*x0^2+2*x0*x1+11*x0+x1+8"
        )

        se_poly, se_box = finitize(P, regions["SE"])
        assert se_poly == parse_poly("x0^4*x1+10*x0^2*x1+x0^2-5*x0*x1+x1")
        # the NE box polynomial is the double reciprocal of the NE region
        # polynomial, cleared by the leading monomial
        ne_poly = MultiPoly.from_packed(
            invert_packed(invert_packed(split["NE"].packed(), 0), 1)
        )
        assert ne_poly == parse_poly(
            "8*x0^4*x1+7*x0^4+11*x0^3*x1+9*x0^3+2*x0^2*x1+x0^2-x0*x1-x0+x1+1"
        )
        _, ne_box = finitize(P, regions["NE"])

        se_children = {
            label: se_poly.box_map(child.bounds)
            for label, child in subdivide(se_box)
        }
        assert se_children["00"] == parse_poly(
            "x0^4+3*x0^3+x0^2*x1+6*x0^2+4*x0*x1+20*x0+4*x1+25"
        )
        assert se_children["01"] == parse_poly(
            "1/2*x0^4*x1+2*x0^4+3/2*x0^3*x1+6*x0^3+3*x0^2*x1+10*x0^2"
            "+10*x0*x1+32*x0+25/2*x1+42"
        )
        assert se_children["10"] == parse_poly(
            "1/4*x0^4*x1+25/16*x0^4+3*x0^3*x1+20*x0^3+13*x0^2*x1+96*x0^2"
            "+24*x0*x1+196*x0+16*x1+144"
        )
        assert se_children["11"] == parse_poly(
            "25/32*x0^4*x1+21/8*x0^4+10*x0^3*x1+34*x0^3+48*x0^2*x1+166*x0^2"
            "+98*x0*x1+344*x0+72*x1+256"
        )

        ne_children = {
            label: ne_poly.box_map(child.bounds)
            for label, child in subdivide(ne_box)
        }
        assert ne_children["00"] == parse_poly(
            "x0^4*x1+3*x0^4+7*x0^3*x1+21*x0^3+19*x0^2*x1+58*x0^2"
            "+33*x0*x1+105*x0+37*x1+120"
        )
        assert ne_children["01"] == parse_poly(
            "3/2*x0^4*x1+4*x0^4+21/2*x0^3*x1+28*x0^3+29*x0^2*x1+78*x0^2"
            "+105/2*x0*x1+144*x0+60*x1+166"
        )
        assert ne_children["10"] == parse_poly(
            "37/16*x0^4*x1+15/2*x0^4+115/4*x0^3*x1+375/4*x0^3+142*x0^2*x1"
            "+463*x0^2+320*x0*x1+1040*x0+272*x1+880"
        )
        assert ne_children["11"] == parse_poly(
            "15/4*x0^4*x1+83/8*x0^4+375/8*x0^3*x1+130*x0^3+463/2*x0^2*x1"
            "+642*x0^2+520*x0*x1+1440*x0+440*x1+1216"
        )

        assert prove_nonneg(P, F(1)).verdict == "Proven"


def test_criterion_4_family_instantiations(criterion):
    with criterion(4, "classic families at numeric parameters"):
        t0 = time.monotonic()

        def run(text):
            return prove(parse_rde(text), maxK=10, depth_limit=12)

        a = run("2*x0/(1+x0)")
        assert a.verdict == "true" and a.equilibrium.value == 1

        b = run("x1/(2+x1)")
        assert b.verdict == "true" and b.equilibrium.value == 0

        c = run("1+1/2*x0")
        assert c.verdict == "true" and c.equilibrium.value == 2

        d = run("2*x0")
        assert d.verdict == "false" and d.las.outcome == "unstable"

        e = run("x1/(2+x0+x1)")
        assert e.verdict == "true" and e.equilibrium.value == 0

        assert time.monotonic() - t0 < 300


def _random_poly(rng, nvars, max_deg=3, terms=6):
    d = {}
    for _ in range(terms):
        exps = tuple(rng.randrange(0, max_deg + 1) for _ in range(nvars))
        d[exps] = F(rng.randrange(-5, 6))
    return MultiPoly(nvars, d)


def _random_point(rng, nvars):
    return [F(rng.randrange(1, 30), rng.randrange(1, 8)) for _ in range(nvars)]


def _charpoly(A):
    """Coefficients of det(lambda I - A), high degree first (Faddeev-LeVerrier)."""
    n = len(A)
    M = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    coeffs = [F(1)]
    for k in range(1, n + 1):
        M = [
            [sum(A[i][t] * M[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(M[i][i] for i in range(n)) / k
        coeffs.append(c)
        for i in range(n):
            M[i][i] += c
    return coeffs


def test_criterion_5_property_suites(criterion):
    with criterion(5, "randomized property suites"):
        rng = random.Random(20240817)

        # shift / invert evaluation identities
        for _ in range(100):
            nvars = rng.choice((1, 2, 3))
            P = _random_poly(rng, nvars)
            x = _random_point(rng, nvars)
            mu = [F(rng.randrange(0, 5), rng.randrange(1, 4)) for _ in range(nvars)]
            shifted = P.packed()
            for j, m in enumerate(mu):
                shifted = shift_packed(shifted, j, m.numerator, m.denominator)
            assert evaluate_packed(shifted, x) == P.evaluate(
                [a + m for a, m in zip(x, mu)]
            )
            i = rng.randrange(nvars)
            inv = [1 / v if j == i else v for j, v in enumerate(x)]
            assert evaluate_packed(invert_packed(P.packed(), i), x) == P.evaluate(
                inv
            ) * x[i] ** P.degree_in(i)

        # box_map equals the shift/invert/shift composition, and preserves sign
        for _ in range(100):
            nvars = rng.choice((1, 2))
            P = _random_poly(rng, nvars)
            bounds = []
            for _ in range(nvars):
                a = F(rng.randrange(0, 3))
                bounds.append((a, a + F(rng.randrange(1, 4), rng.randrange(1, 3))))
            boxed = P.box_map(bounds)
            composed = P.packed()
            for i, (a, b) in enumerate(bounds):
                composed = shift_packed(composed, i, a.numerator, a.denominator)
                width = 1 / (b - a)
                composed = shift_packed(invert_packed(composed, i), i,
                                        width.numerator, width.denominator)
            assert boxed == MultiPoly.from_packed(composed)
            w = _random_point(rng, nvars)
            mapped = [
                1 / (wi + 1 / (b - a)) + a for wi, (a, b) in zip(w, bounds)
            ]
            bv, pv = boxed.evaluate(w), P.evaluate(mapped)
            assert (bv > 0) == (pv > 0) and (bv == 0) == (pv == 0)

        # prover soundness against an exhaustive 50x50 grid
        grid = [F(i, 8) for i in range(1, 51)]
        proven = disproven = 0
        for _ in range(50):
            P = _random_poly(rng, 2, max_deg=2, terms=4)
            if P.is_zero():
                continue
            cert = prove_nonneg(P, F(1), depth_limit=4)
            if cert.verdict == "Proven":
                proven += 1
                assert all(P.evaluate([u, v]) >= 0 for u in grid for v in grid)
            elif cert.verdict == "Disproven":
                disproven += 1
                assert cert.witness is not None
                assert P.evaluate(cert.witness) == cert.witness_value < 0
        assert proven >= 5 and disproven >= 5

        # Sylvester criterion vs characteristic-root positivity
        for _ in range(60):
            n = rng.randrange(1, 6)
            A = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    A[i][j] = A[j][i] = F(rng.randrange(-4, 5), rng.randrange(1, 3))
            quad = MultiPoly(
                n,
                {
                    tuple(
                        (i == t) + (j == t) for t in range(n)
                    ): (A[i][j] if i == j else 2 * A[i][j])
                    for i in range(n)
                    for j in range(i, n)
                    if A[i][j]
                },
            )
            if quad.is_zero():
                continue
            sylvester = _subpoly_n(quad.packed()).result == "pass"
            # symmetric => real spectrum; positive definite iff the
            # characteristic polynomial's coefficients strictly alternate
            coeffs = _charpoly(A)
            roots_positive = all(
                (-1) ** k * c > 0 for k, c in enumerate(coeffs)
            )
            assert sylvester == roots_positive

        # contraction polynomial sign-equivalence with the squared distances
        cases = [BENCH, "9/x0", "2*x0/(1+x0)"]
        checks = 0
        while checks < 100:
            text = cases[checks % len(cases)]
            spec = parse_rde(text)
            eq = find_equilibrium(spec)
            k = rng.randrange(1, 4)
            P = build_contraction_poly(spec, eq, k)
            comps = q_power(spec, k)
            v = _random_point(rng, spec.order)
            before = sum((x - eq.value) ** 2 for x in v)
            after = sum((c.evaluate(v) - eq.value) ** 2 for c in comps)
            lhs, rhs = P.evaluate(v), before - after
            assert (lhs > 0) == (rhs > 0) and (lhs == 0) == (rhs == 0)
            checks += 1


def test_criterion_6_degenerate_paths(criterion):
    with criterion(6, "degenerate and unsupported inputs"):
        spec = parse_rde("1/x0")
        eq = find_equilibrium(spec)
        for K in (2, 4):
            r = prove_k(spec, K)
            assert r.verdict == "false"
            assert r.reason == "identically-zero-for-strictness"
        for K in (1, 3):
            P = build_contraction_poly(spec, eq, K)
            minima = mesh_minimize(P, MeshParams())
            assert min(v for _, v in minima) < 0
            cert = prove_nonneg(P, eq.value)
            assert cert.verdict == "Disproven"
            assert P.evaluate(cert.witness) == cert.witness_value < 0
        assert prove(spec, maxK=4).verdict == "FAIL"

        assert main(["prove", "--rde", "(1+x0)/(1+2*x0)", "--max-k", "4"]) == 3


def test_criterion_7_third_order_maps_by_cones(criterion):
    with criterion(7, "third-order maps proven at region level by cones"):
        for rde, K in (("(2+x0)/(1+x1+x2)", 6), ("(1/2+x0)/(1+x1+x2)", 4)):
            spec = parse_rde(rde)
            result = prove(spec)
            assert (result.verdict, result.K) == ("true", K)
            cert = result.certificate
            assert len(cert.nodes) == 8
            assert all(n.box is None and n.status == "pass" for n in cert.nodes)
            assert any(o.test == "Cones" for n in cert.nodes for o in n.outcomes)
            P = build_contraction_poly(spec, result.equilibrium, K)
            assert replay_certificate(cert, P)
