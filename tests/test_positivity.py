import gc
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from test_checker import _shifted_squares
from test_polynomial import _ref_add, _ref_evaluate, _ref_invert_var, _ref_shift_one

from gasprover import certificate, checker, polynomial, positivity
from gasprover.certificate import BoxSpec, RegionSpec, certificate_from_json, certificate_to_json
from gasprover.checker import (
    _cones,
    _poscoeffs,
    _subpoly_n,
    _zero_only_at_origin,
    replay_certificate,
    subdivide,
)
from gasprover.parsing import parse_poly
from gasprover.polynomial import MultiPoly, digest_packed, evaluate_packed
from gasprover.positivity import (
    _const,
    _grid_exponents,
    _grid_negative,
    _lcoeff,
    _search_negative,
    finitize,
    grid_line_negatives,
    orthant_split,
    prove_nonneg,
)
from gasprover.recurrence import build_contraction_poly, find_equilibrium, parse_rde

F = Fraction


def P(text, nvars=None):
    return parse_poly(text, nvars)


EX1 = "x0^2-x0*x1+x1^2"
EX2 = "x0^4*x1-5*x0^3*x1+10*x0^2*x1+x0^2+x1"
EX2_NE = "x0^4*x1+x0^4-x0^3*x1-x0^3+x0^2*x1+2*x0^2+9*x0*x1+11*x0+7*x1+8"
EX2_SW = "x0^4+4*x0^3+x0^2*x1+17*x0^2+2*x0*x1+21*x0+x1+8"
# < 0 near x0 = 4/5, at a box that the depth-first walk reaches after one
# stopped at a depth limit of 4 near the double root 1/3
REFUTE_AFTER_LIMIT = "((x0-1/3)^2+1/10^6)*((x0-4/5)^2-1/1000)"


def _bench_poly():
    spec = parse_rde("(4+x0)/(1+x1)")
    eq = find_equilibrium(spec)
    return build_contraction_poly(spec, eq, 5), eq.value


class TestOrthantSplit:
    def test_example1(self):
        split = {r.label: q for r, q in orthant_split(P(EX1), F(1))}
        diag = P("x0^2-x0*x1+x1^2+x0+x1+1")
        mixed = P(
            "x0^2*x1^2+2*x0^2*x1+2*x0*x1^2+x0^2+3*x0*x1+x1^2+x0+x1+1"
        )
        assert split["NE"] == diag and split["SW"] == diag
        assert split["NW"] == mixed and split["SE"] == mixed

    def test_example2(self):
        split = {r.label: q for r, q in orthant_split(P(EX2), F(1))}
        assert split["SW"] == P(EX2_SW)
        assert split["NE"] == P(EX2_NE)

    def test_zero_split_point(self):
        p = P("x0+x1")
        split = orthant_split(p, F(0))
        assert len(split) == 1
        region, q = split[0]
        assert region.highs == (True, True)
        assert q == p
        with pytest.raises(ValueError):
            positivity.region_poly(p, RegionSpec((True, False), F(0)))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            orthant_split(MultiPoly(2, {}), F(1))

    def test_region_order(self):
        labels = [r.label for r, _ in orthant_split(P(EX1), F(1))]
        assert labels == ["NE", "SE", "NW", "SW"]

    def test_sign_preserved_random(self):
        rng = random.Random(43)
        for _ in range(50):
            p = _random_poly(rng, 2)
            if p.is_zero():
                continue
            xbar = F(rng.randrange(1, 5), rng.randrange(1, 3))
            for region, q in orthant_split(p, xbar):
                w = [F(rng.randrange(1, 20), rng.randrange(1, 10)) for _ in range(2)]
                original = positivity.to_original(region, None, w)
                lhs = q.evaluate(w)
                rhs = p.evaluate(original)
                assert (lhs > 0) == (rhs > 0) and (lhs == 0) == (rhs == 0)

    def test_region_coverage_grid(self):
        xbar = F(1)
        regions = [r for r, _ in orthant_split(P(EX1), xbar)]
        for i in range(0, 9):
            for j in range(0, 9):
                pt = [F(i, 4), F(j, 4)]
                hits = sum(
                    1
                    for r in regions
                    if all(
                        (x >= xbar) if h else (x <= xbar)
                        for x, h in zip(pt, r.highs)
                    )
                )
                assert hits >= 1


class TestPosCoeffs:
    def test_mixed_region_passes(self):
        p = P("x0^2*x1^2+2*x0^2*x1+2*x0*x1^2+x0^2+3*x0*x1+x1^2+x0+x1+1")
        assert _poscoeffs(p.packed()).result == "pass"

    def test_negative_term_fails(self):
        assert _poscoeffs(P(EX2_NE).packed()).result == "fail"

    def test_trivial(self):
        assert _poscoeffs(P("x0+1").packed()).result == "pass"

    def test_zero_constant_defers(self):
        out = _poscoeffs(P("x0+x1").packed())
        assert out.result == "fail"
        assert out.detail["reason"] == "constant-zero"


class TestZeroOnlyAtOrigin:
    def test_axis_zero_fails(self):
        assert _zero_only_at_origin(P("x0*x1").packed()).result == "fail"

    def test_sum_passes(self):
        assert _zero_only_at_origin(P("x0+x1").packed()).result == "pass"

    def test_region_poly_from_benchmark(self):
        big, xbar = _bench_poly()
        split = {r.label: q for r, q in orthant_split(big, xbar)}
        for label in ("NW", "SE"):
            q = split[label]
            assert q.constant_term() == 0
            assert all(c >= 0 for c in q.terms.values())
            assert _zero_only_at_origin(q.packed()).result == "pass"

    def test_precondition(self):
        with pytest.raises(ValueError):
            _zero_only_at_origin(P("x0-1").packed())


class TestSubPolyN:
    def test_example1_discriminant(self):
        out = _subpoly_n(P("x0^2-x0*x1+x1^2+x0+x1+1").packed())
        assert out.result == "pass"
        assert out.detail["d"] == 3

    def test_benchmark_ne_quadratic_form(self):
        big, xbar = _bench_poly()
        split = {r.label: q for r, q in orthant_split(big, xbar)}
        out = _subpoly_n(split["NE"].packed())
        assert out.result == "pass"
        assert out.detail["a"] == 318700575
        assert out.detail["b"] == -6980904
        assert out.detail["c"] == 349366689
        assert out.detail["d"] == 445324725659927484

    def test_benchmark_sw_discriminant(self):
        big, xbar = _bench_poly()
        split = {r.label: q for r, q in orthant_split(big, xbar)}
        out = _subpoly_n(split["SW"].packed())
        assert out.result == "pass"
        assert out.detail["d"] == F(111331181414981871, 67108864)

    def test_not_applicable_high_degree_negative(self):
        out = _subpoly_n(P("x0^2-x0^3*x1+x1^2").packed())
        assert out.result == "fail"
        assert out.detail["reason"] == "not-applicable"

    def test_not_applicable_negative_square(self):
        out = _subpoly_n(P("-x0^2+x0*x1+x1^2").packed())
        assert out.result == "fail"
        assert out.detail["reason"] == "not-applicable"

    def test_indefinite_fails(self):
        out = _subpoly_n(P("x0^2-3*x0*x1+x1^2").packed())
        assert out.result == "fail"
        assert out.detail["d"] == -5


class TestSylvesterOracle:
    """Sylvester's criterion vs explicit quadratic-form evidence."""

    @staticmethod
    def _sylvester(A):
        from gasprover.checker import _leading_principal_minors

        return all(m > 0 for m in _leading_principal_minors(A))

    @staticmethod
    def _ldl_witness(A):
        """A vector v with v^T A v <= 0, or None if A is positive definite.

        Runs the LDL^T elimination; a non-positive pivot yields an explicit
        direction through the partial factorization (Schur complement
        identity), verified against A by the caller.
        """
        n = len(A)
        S = [row[:] for row in A]
        lmat = [[F(0)] * n for _ in range(n)]

        def lift(u, k):
            v = list(u)
            for i in range(k - 1, -1, -1):
                v[i] = -sum(lmat[j][i] * v[j] for j in range(i + 1, n))
            return v

        def form(v):
            return sum(v[i] * A[i][j] * v[j] for i in range(n) for j in range(n))

        for k in range(n):
            d = S[k][k]
            if d > 0:
                for i in range(k + 1, n):
                    lmat[i][k] = S[i][k] / d
                for i in range(k + 1, n):
                    for j in range(k + 1, n):
                        S[i][j] -= S[i][k] * S[k][j] / d
                continue
            u = [F(0)] * n
            u[k] = F(1)
            if d < 0:
                return lift(u, k)
            r = next((j for j in range(k + 1, n) if S[k][j] != 0), None)
            if r is None:
                return lift(u, k)
            m = 0
            while True:
                u2 = list(u)
                u2[r] = -S[k][r] / 2 ** m
                v = lift(u2, k)
                if form(v) <= 0:
                    return v
                m += 1
        return None

    def test_agreement_random(self):
        rng = random.Random(47)
        for _ in range(120):
            n = rng.randrange(1, 6)
            A = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    A[i][j] = A[j][i] = F(rng.randrange(-4, 5), rng.randrange(1, 4))
            claimed = self._sylvester(A)
            if claimed:
                for _ in range(25):
                    v = [F(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(n)]
                    if all(x == 0 for x in v):
                        continue
                    val = sum(
                        v[i] * A[i][j] * v[j] for i in range(n) for j in range(n)
                    )
                    assert val > 0
            else:
                w = self._ldl_witness(A)
                assert w is not None
                val = sum(
                    w[i] * A[i][j] * w[j] for i in range(len(A)) for j in range(len(A))
                )
                assert val <= 0


class TestLCoeffConst:
    def test_lcoeff_refutes_all_negative_leaders(self):
        assert _lcoeff(P("-x0^2*x1^2+x0+x1+1").packed()).result == "refute"

    def test_lcoeff_abstains_mixed(self):
        assert _lcoeff(P("x0^2-x0*x1+x1^2+1").packed()).result == "fail"

    def test_lcoeff_abstains_positive(self):
        assert _lcoeff(P("3*x0^4+1").packed()).result == "fail"

    def test_const_refutes(self):
        out = _const(P("x0+x1-1").packed())
        assert out.result == "refute"
        assert out.detail["constant"] == -1

    def test_const_zero_not_refuted(self):
        assert _const(P("x0+x1").packed()).result == "fail"

    def test_const_positive(self):
        assert _const(P("x0+x1+8").packed()).result == "fail"


# x0^2 - x0*x1 + x1^2 plus terms of degree >= 3 that are not all >= 0
CONE_PASS = "x0^2-x0*x1+x1^2+x0^3-x0^2*x1+x1^3"
CONE_FAIL = "x0^2-x0*x1+x1^2-x0^2*x1+x0^4+x1^4"


def _at_one(text):
    """The polynomial with its origin moved to (1, 1)."""
    return P(text.replace("x0", "(x0-1)").replace("x1", "(x1-1)"))


class TestCones:
    def test_pass(self):
        out = _cones(P(CONE_PASS).packed())
        assert out.result == "pass"
        assert out.detail == {"minors": [1, F(3, 4)]}

    def test_fail_on_a_negative_coefficient_of_positive_t_degree(self):
        # chart 0 is 1 - v + v^2 - t*v + t^2*(1 + v^4), which is positive,
        # but its t^1 coefficient is negative
        out = _cones(P(CONE_FAIL).packed())
        assert out.result == "fail"
        assert out.detail["cone"] == 0 and out.detail["minors"] == [1, F(3, 4)]
        assert out.detail["negative_term"][0] >= 1

    def test_fail_when_not_positive_definite(self):
        out = _cones(P("x0^2-2*x0*x1+x1^2+x0^3").packed())
        assert out.result == "fail"
        assert out.detail == {"minors": [1, 0], "reason": "not-positive-definite"}

    def test_precondition(self):
        for text in ("x0^2+x1^2+1", "x0^2+x1^2+x0"):
            with pytest.raises(ValueError, match="no linear terms"):
                _cones(P(text).packed())

    def test_region_passes_instead_of_splitting(self):
        for p, xbar in ((P(CONE_PASS), F(0)), (_at_one(CONE_PASS + "+x0^4+x1^4"), F(1))):
            cert = prove_nonneg(p, xbar, 2)
            assert cert.verdict == "Proven"
            assert all(n.box is None for n in cert.nodes)
            ne = cert.nodes[0]
            assert ne.status == "pass" and [o.test for o in ne.outcomes][-1] == "Cones"
            assert replay_certificate(cert, p)

    def test_failing_region_splits_as_before(self):
        cert = prove_nonneg(_at_one(CONE_FAIL), F(1), 2)
        ne = cert.nodes[0]
        assert ne.path == ("NE",) and ne.status == "split"
        assert (ne.outcomes[-1].test, ne.outcomes[-1].result) == ("Cones", "fail")
        assert cert.nodes[1].path == ("NE", "00")

    def test_never_runs_at_box_nodes(self, monkeypatch):
        # q = (x0 - x1)^2 is only semi-definite, so regions NE and SW fail the
        # test and split; their all-1 chains of boxes keep x̄ as the corner,
        # with zero constant and no linear terms, and split too
        tested = []
        cones = positivity._cones
        monkeypatch.setattr(positivity, "_cones",
                            lambda poly: tested.append(MultiPoly.from_packed(poly)) or cones(poly))
        p = P("(x0-x1)^2+(x1-1)^4")
        cert = prove_nonneg(p, F(1), 2)
        chain = [n for n in cert.nodes if n.path[1:] in {("11",), ("11", "11")}]
        assert len(chain) == 4
        for node in chain:
            fin, _ = finitize(p, node.region)
            assert min(map(sum, fin.box_map(node.box.bounds).terms)) == 2
            assert node.status == ("split" if len(node.path) <= 2 else "depth-limit")
            assert "Cones" not in [o.test for o in node.outcomes]
        assert tested == [positivity.region_poly(p, n.region) for n in cert.nodes
                          if n.path in {("NE",), ("SW",)}]

    def test_claimed_pass_of_a_failing_region_is_rejected(self):
        p = _at_one(CONE_FAIL)
        cert = prove_nonneg(p, F(1), 2)
        forged = certificate_from_json(certificate_to_json(cert))
        forged.nodes = [n for n in forged.nodes if n.box is None]
        forged.verdict, forged.fail_reason = "Proven", None
        ne = forged.nodes[0]
        ne.status = "pass"
        ne.outcomes[-1] = certificate.TestOutcome(
            "Cones", "pass", {"minors": ne.outcomes[-1].detail["minors"]})
        assert replay_certificate(cert, p)
        assert not replay_certificate(forged, p)


class TestFinitize:
    def test_example2_se(self):
        q, box = finitize(P(EX2), RegionSpec((True, False), F(1)))
        assert q == P("x0^4*x1+10*x0^2*x1+x0^2-5*x0*x1+x1")
        assert box.bounds == ((F(0), F(1)), (F(0), F(1)))
        assert box.open_low == (True, False)

    def test_example2_ne(self):
        q, box = finitize(P(EX2), RegionSpec((True, True), F(1)))
        assert q == P("x0^4+x0^2*x1+10*x0^2-5*x0+1")
        assert box.open_low == (True, True)

    def test_all_low_identity(self):
        p = P(EX2)
        q, box = finitize(p, RegionSpec((False, False), F(1)))
        assert q == p
        assert box.open_low == (False, False)

    def test_zero_split_rejected(self):
        with pytest.raises(ValueError):
            finitize(P("x0+x1"), RegionSpec((True, True), F(0)))

    def test_evaluation_identity_random(self):
        rng = random.Random(53)
        for _ in range(100):
            p = _random_poly(rng, 2)
            highs = (rng.random() < 0.5, rng.random() < 0.5)
            region = RegionSpec(highs, F(1))
            q, _ = finitize(p, region)
            w = [F(rng.randrange(1, 10), rng.randrange(1, 10)) for _ in range(2)]
            mult = F(1)
            orig = []
            for x, high, i in zip(w, highs, range(2)):
                if high:
                    orig.append(1 / x)
                    mult *= x ** p.degree_in(i)
                else:
                    orig.append(x)
            assert q.evaluate(w) == p.evaluate(orig) * mult


def _contains(box, point):
    """Whether the box holds the point, open on the low side where open_low says."""
    return all((a < x if op else a <= x) and x <= b
               for x, (a, b), op in zip(point, box.bounds, box.open_low))


class TestSubdivide:
    def test_tiles_parent_grid(self):
        parent = BoxSpec(((F(0), F(1)), (F(0), F(1))), (True, False))
        children = [b for _, b in subdivide(parent)]
        rng = random.Random(59)
        for _ in range(200):
            pt = [F(rng.randrange(1, 64), 64), F(rng.randrange(0, 65), 64)]
            assert _contains(parent, pt)
            assert sum(1 for b in children if _contains(b, pt)) == 1

    def test_child_labels(self):
        parent = BoxSpec(((F(0), F(1)), (F(0), F(1))), (True, True))
        labels = [bits for bits, _ in subdivide(parent)]
        assert labels == ["00", "01", "10", "11"]


def _claim_proven(cert):
    """Turn a Disproven certificate into a Proven one."""
    assert cert.verdict == "Disproven"
    cert.verdict = "Proven"
    cert.witness = cert.witness_value = None
    for node in cert.nodes:
        if node.status == "refute":
            node.status = "pass"


def _drop_box_node(cert):
    assert cert.verdict == "Proven"
    cert.nodes.remove(next(n for n in cert.nodes if n.box is not None))


def _flip_status(cert):
    node = next(n for n in cert.nodes if n.status == "split")
    node.status = "pass"


def _plain_grid_negative(p):
    """Reference scan: P.evaluate at every grid point, in product order."""
    for js in itertools.product(_grid_exponents(p.nvars), repeat=p.nvars):
        point = [F(2) ** j for j in js]
        if p.evaluate(point) < 0:
            return point
    return None


class TestGrid:
    def test_matches_plain_scan(self):
        rng = random.Random(89)
        polys = [P("3"), P("-1/2", 2), P("x1^2-7", 3)]
        for n in (1, 2, 3):
            xs = [f"x{i}" for i in range(n)]
            # negative only at the first grid point (all x_i = 2^-10), and
            # only at the last one (all x_i = 2^10)
            first = P("+".join(xs) + f"-{2 * n + 1}/2048")
            last = P(f"3/4*1024^{n}-" + "*".join(xs))
            assert _grid_negative(first.packed()) == [F(1, 1024)] * n
            assert _grid_negative(last.packed()) == [F(1024)] * n
            polys += [first, last]
        for _ in range(300):
            p = _random_poly(rng, rng.randrange(1, 4))
            if not p.is_zero():
                polys.append(p)
        found = 0
        for p in polys:
            expected = _plain_grid_negative(p)
            assert _grid_negative(p.packed()) == expected
            found += expected is not None
        assert 0 < found < len(polys)


    def test_exponents_pinned_and_made_once(self):
        assert _grid_exponents(1) == _grid_exponents(2) == tuple(range(-10, 11))
        assert _grid_exponents(3) == (-10, -7, -4, -1, 1, 4, 7, 10)
        assert _grid_exponents(4) == (-10, -3, 3, 10)
        assert all(_grid_exponents(n) is _grid_exponents(n) for n in range(1, 5))

    def test_line_of_the_benchmark_witness(self):
        # K = 2 of (4+x0)/(1+x1) is refuted on the line x0 = 2^-10
        spec = parse_rde("(4+x0)/(1+x1)")
        P = build_contraction_poly(spec, find_equilibrium(spec), 2)
        w = prove_nonneg(P, F(2)).witness
        line = grid_line_negatives(P, w)
        assert line[0] == w and w[0] == F(1, 1024)
        assert len(line) == 13
        assert all(evaluate_packed(P.packed(), x) < 0 for x in line)
        # a coordinate but the last that is not a grid value has no line
        for x0 in (F(3), F(0), F(1, 3), F(2) ** 11):
            assert grid_line_negatives(P, [x0, w[1]]) == []

    def test_line_matches_plain_evaluation(self):
        rng = random.Random(97)
        found = 0
        for _ in range(200):
            n = rng.randrange(1, 4)
            p = _random_poly(rng, n)
            if p.is_zero():
                continue
            exps = _grid_exponents(n)
            prefix = [F(2) ** rng.choice(exps) for _ in range(n - 1)]
            # the last coordinate of the point given does not matter
            line = grid_line_negatives(p, prefix + [F(rng.randrange(1, 9))])
            expected = [prefix + [F(2) ** j] for j in exps]
            assert line == [x for x in expected if p.evaluate(x) < 0]
            found += bool(line)
        assert found > 10


class TestProveNonneg:
    def test_example2_structure(self):
        cert = prove_nonneg(P(EX2), F(1), 10)
        assert cert.verdict == "Proven"
        by_path = {n.path: n for n in cert.nodes}
        assert by_path[("NW",)].status == "pass"
        assert by_path[("SW",)].status == "pass"
        for label in ("NE", "SE"):
            assert by_path[(label,)].status == "split"
            for bits in ("00", "01", "10", "11"):
                leaf = by_path[(label, bits)]
                assert leaf.status == "pass"
                assert leaf.outcomes[0].test == "PosCoeffs"

    def test_example2_se_boxes_match_printed(self):
        cert = prove_nonneg(P(EX2), F(1), 10)
        by_path = {n.path: n for n in cert.nodes}
        polys = dict(zip(by_path, _node_polys(P(EX2), cert)))
        pse, _ = finitize(P(EX2), RegionSpec((True, False), F(1)))
        printed = {
            "00": "x0^4+3*x0^3+x0^2*x1+6*x0^2+4*x0*x1+20*x0+4*x1+25",
            "01": "1/2*x0^4*x1+2*x0^4+3/2*x0^3*x1+6*x0^3+3*x0^2*x1+10*x0^2"
            "+10*x0*x1+32*x0+25/2*x1+42",
            "10": "1/4*x0^4*x1+25/16*x0^4+3*x0^3*x1+20*x0^3+13*x0^2*x1"
            "+96*x0^2+24*x0*x1+196*x0+16*x1+144",
            "11": "25/32*x0^4*x1+21/8*x0^4+10*x0^3*x1+34*x0^3+48*x0^2*x1"
            "+166*x0^2+98*x0*x1+344*x0+72*x1+256",
        }
        for bits, text in printed.items():
            node = by_path[("SE", bits)]
            assert pse.box_map(node.box.bounds) == P(text)
            assert polys[("SE", bits)] == P(text)

    def test_benchmark_proven_without_subdivision(self):
        big, xbar = _bench_poly()
        cert = prove_nonneg(big, xbar, 10)
        assert cert.verdict == "Proven"
        assert len(cert.nodes) == 4
        assert all(n.box is None for n in cert.nodes)

    def test_disproven_with_witness(self):
        p = P("x0+x1-1")
        cert = prove_nonneg(p, F(1), 10)
        assert cert.verdict == "Disproven"
        assert p.evaluate(cert.witness) == cert.witness_value < 0
        assert all(x > 0 for x in cert.witness)

    def test_const_refutes_at_the_corner(self):
        # the region polynomial's constant is P(xbar) times a positive factor
        p = P("x0^2-3*x0*x1+x1^2")
        cert = prove_nonneg(p, F(1), 12)
        assert cert.nodes[-1].outcomes[-1].test == "Const"
        assert cert.witness == [F(1), F(1)]
        assert cert.witness_value == -1

    def test_grid_finds_negative_off_the_ray(self):
        # negative only where x0/x1 is near 1024; positive on the diagonal
        p = P("(x0-1024*x1)^2-1/1000*x0*x1")
        assert _search_negative(p.packed()) is None
        cert = prove_nonneg(p, F(1), 10)
        assert cert.verdict == "Disproven"
        assert all(n.box is None for n in cert.nodes)
        assert p.evaluate(cert.witness) == cert.witness_value < 0
        for x in cert.witness:
            assert x.numerator & (x.numerator - 1) == 0
            assert x.denominator & (x.denominator - 1) == 0
        assert replay_certificate(cert, p)

    def test_non_negative_witness_raises(self, monkeypatch):
        # a refuting point where P >= 0 would be a fault of the prover; the
        # check is not an assert, so it also holds under python -O
        monkeypatch.setattr(positivity, "_grid_negative", lambda p: [F(1)] * p.nvars)
        with pytest.raises(RuntimeError, match="not < 0"):
            prove_nonneg(P(EX2), F(1), 10)

    def test_deterministic_certificate(self):
        spec = parse_rde("(2+x0)/(1+x1+x2)")
        eq = find_equilibrium(spec)
        for K in (1, 2):
            p = build_contraction_poly(spec, eq, K)
            first = certificate_to_json(prove_nonneg(p, eq.value))
            assert certificate_to_json(prove_nonneg(p, eq.value)) == first

    def test_fail_when_unfinitizable(self):
        # With a zero split point the one all-high region cannot be mapped
        # onto a finite box, so an undecided region that the grid does not
        # refute gives Fail: (x0-x1)^2+x0+1 is >= 1 everywhere.
        cert = prove_nonneg(P("(x0-x1)^2+x0+1"), F(0), 10)
        assert cert.verdict == "Fail"
        assert cert.fail_reason == "cannot-finitize-zero-split"
        assert [n.status for n in cert.nodes] == ["cannot-finitize"]
        # x0*x1-x0-x1+2 is -2 at (0, 4): the grid runs at xbar = 0 too
        p = P("x0*x1-x0-x1+2")
        cert = prove_nonneg(p, F(0), 10)
        assert cert.verdict == "Disproven"
        a, b = cert.witness
        assert a * b - a - b + 2 == cert.witness_value < 0
        assert [n.status for n in cert.nodes] == ["split"]
        assert replay_certificate(cert, p)

    def test_refutation_after_a_depth_limit_leaf(self):
        # the walk is depth first, so a leaf stopped at the depth limit can
        # come before the node that a test refutes; the run is then
        # Disproven, with no Fail reason left over from that leaf
        p = P(REFUTE_AFTER_LIMIT)
        cert = prove_nonneg(p, F(1), 4)
        statuses = [n.status for n in cert.nodes]
        assert statuses.index("depth-limit") < statuses.index("refute")
        assert (cert.verdict, cert.fail_reason) == ("Disproven", None)
        assert replay_certificate(cert, p)

    @pytest.mark.parametrize(
        "text,xbar,depth,ending,sha",
        [
            ("x0^2+x0*x1+x1^2+1", F(1), 12, ("Proven", ["pass"], False),
             "f693cba69a6e7f96c1a70cb830fdb46e1849634608453b2f15bacbe5e5967e33"),
            ("x0^2-3*x0*x1+x1^2", F(1), 12, ("Disproven", ["refute"], False),
             "cd87814d9f7277512561510e2f0273728ea3e2b37b078df62ed279dd82226354"),
            ("(x0-1024*x1)^2-x0*x1/1000", F(1), 12,
             ("Disproven", ["split"], False),
             "2d4ec54b0544067b67f305bac1a26c4e5dfdc9953fe01bcfa177c17ee64969e7"),
            ("6*x0^3+x0^2-4*x0+1", F(1, 2), 12,
             ("Disproven", ["pass", "refute", "split"], True),
             "332d501dc848b2f963b5ea42fb434486073f3b0b9e5cfb86f98c435c41049f5f"),
            ("(x0-1/3)^2+(x1-1/3)^2", F(1), 2,
             ("Fail", ["depth-limit", "pass", "split"], True),
             "c144c1785b1ba5eacb8d3809d23583983097bffeb51ad6bad0d1e3cf555829da"),
            ("(x0-1/3)^2+(x1-1/3)^2", F(1), 0,
             ("Fail", ["depth-limit", "pass"], False),
             "03d3742c4b536dcf71ca140ab748c5742fbad35bb76cf5d6ef2d179cb6c5471a"),
            ("(x0-x1)^2+x0+1", F(0), 10, ("Fail", ["cannot-finitize"], False),
             "d339a5539dbba74a476a2674d33c0590f39859cf2748f728692b6c3e9a2e5cd1"),
            (EX2, F(1), 12, ("Proven", ["pass", "split"], True),
             "80d40acb0016975bd66e669a588044dd33c1e5deb23d5fa8b4d1f7bc83ea6447"),
            ("x0*x1-x0-x1+2", F(0), 10, ("Disproven", ["split"], False),
             "3ed86b14f794bfde2fdcb5f36f74d9b86174aa5b4bae9a671e4ba6b7c37754ee"),
            (REFUTE_AFTER_LIMIT, F(1), 4,
             ("Disproven", ["depth-limit", "pass", "refute", "split"], True),
             "866550e3e70faeed527057cb6afaa720a71ac2fac03a49478ba984a0a4b3b0c6"),
        ],
        ids=["region-pass", "region-refute", "grid-refute", "box-refute",
             "depth-limit", "depth-limit-at-region", "cannot-finitize",
             "proven-subdivided", "grid-refute-at-zero", "refute-after-depth-limit"],
    )
    def test_golden_certificate(self, text, xbar, depth, ending, sha):
        # One input per way a run can end, with the SHA-256 of its
        # certificate_to_json pinned, so any change of node order, status,
        # witness or detail shows up as a changed byte.
        cert = prove_nonneg(P(text), xbar, depth)
        statuses = sorted({n.status for n in cert.nodes})
        has_box = any(n.box is not None for n in cert.nodes)
        assert (cert.verdict, statuses, has_box) == ending
        doc = certificate_to_json(cert)
        assert hashlib.sha256(doc.encode()).hexdigest() == sha

    def test_leaves_no_cyclic_garbage(self):
        # EX2 subdivides after a grid scan that finds nothing; neither the
        # node loop nor the scan may leave reference cycles behind.
        p = P(EX2)
        gc.collect()
        gc.disable()
        try:
            assert prove_nonneg(p, F(1)).verdict == "Proven"
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_int_xbar_is_coerced(self):
        # an int split point is the same Fraction; 1 / xbar must not turn
        # into a float inside the region transforms
        for text in (EX2, "x0^2-3*x0*x1+x1^2", "(x0-2)^2+(x1-2)^2+x0*x1"):
            p = P(text)
            for xbar in (1, 2):
                got = prove_nonneg(p, xbar)
                assert isinstance(got.xbar, Fraction)
                assert certificate_to_json(got) == certificate_to_json(
                    prove_nonneg(p, F(xbar)))

    def test_float_xbar_rejected(self):
        with pytest.raises(TypeError):
            prove_nonneg(P(EX2), 2.0)

    def test_depth_limit_fail(self):
        # non-negative, but with an interior zero the box tests cannot isolate
        p = P("(x0-1/3)^2+(x1-1/3)^2")
        cert = prove_nonneg(p, F(1), 2)
        assert cert.verdict == "Fail"
        assert cert.fail_reason == "depth-limit"

    def test_soundness_vs_grid_oracle(self):
        rng = random.Random(61)
        proved = disproved = 0
        for _ in range(50):
            p = _random_posdominant_poly(rng, 2)
            xbar = F(rng.randrange(1, 4))
            cert = prove_nonneg(p, xbar, 6)
            if cert.verdict == "Proven":
                proved += 1
                step = max(F(1), 2 * xbar) / 50
                for i in range(0, 51):
                    for j in range(0, 51):
                        assert p.evaluate([i * step, j * step]) >= 0
                for _ in range(50):
                    pt = [
                        2 * xbar + F(rng.randrange(1, 1000), rng.randrange(1, 20))
                        for _ in range(2)
                    ]
                    assert p.evaluate(pt) >= 0
            elif cert.verdict == "Disproven":
                disproved += 1
                assert p.evaluate(cert.witness) < 0
                assert all(x > 0 for x in cert.witness)
        assert proved >= 5 and disproved >= 5

    def test_certificate_replay(self):
        for text, forge in (
            ("x0+x1-1", None),
            ("x0^2-3*x0*x1+x1^2", _claim_proven),
            (EX2, _drop_box_node),
            (EX2, _flip_status),
        ):
            p = P(text)
            cert = prove_nonneg(p, F(1), 10)
            assert replay_certificate(cert, p)
            assert not replay_certificate(cert, _ref_add(p, P("1", 2)))
            if forge is not None:
                forged = certificate_from_json(certificate_to_json(cert))
                forge(forged)
                assert not replay_certificate(forged, p), (text, forge.__name__)

    def test_replay_ignores_term_order(self):
        # A certificate depends on P, not on the order its terms were built
        # in: replaying it on the same terms reversed or shuffled succeeds.
        rng = random.Random(97)
        inputs = [(P("(x0-1/3)^2+(x1-1/3)^2"), F(1), 2)]
        for _ in range(200):
            p = _random_poly(rng, rng.randrange(1, 4))
            if not p.is_zero():
                inputs.append((p, rng.choice([F(0), F(1, 2), F(1), F(2)]), 4))
        for p, xbar, depth in inputs:
            cert = prove_nonneg(p, xbar, depth)
            items = list(p.terms.items())
            assert replay_certificate(cert, MultiPoly(p.nvars, dict(items[::-1])))
            rng.shuffle(items)
            assert replay_certificate(cert, MultiPoly(p.nvars, dict(items))), str(p)

    def test_negative_split_point_or_zero_polynomial_rejected(self):
        p = P(EX2)
        with pytest.raises(ValueError, match="split point"):
            prove_nonneg(p, F(-1), 10)
        cert = prove_nonneg(p, F(1), 10)
        cert.xbar = F(-1)
        assert not replay_certificate(cert, p)
        zero = MultiPoly(2, {})
        cert.xbar, cert.input_digest = F(1), zero.digest()
        assert not replay_certificate(cert, zero)

    def test_negative_depth_limit_rejected(self):
        p = P(EX2)
        with pytest.raises(ValueError, match="depth_limit"):
            prove_nonneg(p, F(1), -5)
        cert = prove_nonneg(p, F(1), 10)
        assert replay_certificate(cert, p)
        cert.depth_limit = -1
        assert not replay_certificate(cert, p)

    def test_replay_hashes_the_input_once(self, monkeypatch):
        p = P(EX2)
        cert = prove_nonneg(p, F(1), 10)
        fresh = P(EX2)
        built = []

        def counting(poly):
            built.append(poly is fresh.packed())
            return digest_packed(poly)

        monkeypatch.setattr(polynomial, "digest_packed", counting)
        assert replay_certificate(cert, fresh)
        assert built.count(True) == 1
        assert fresh.digest() == cert.input_digest
        assert built.count(True) == 1
        assert not replay_certificate(cert, _ref_add(fresh, P("1", 2)))

    @pytest.mark.parametrize(
        "text, xbar",
        [("(x0-1)^2+(x1-1)^2", F(2)),
         pytest.param("x0^2+(x1-1)^2", F(1), marks=pytest.mark.xfail(
             strict=True, reason="ROADMAP item 1: zero on the boundary"))],
    )
    def test_zero_off_the_split_point_is_not_proven(self, text, xbar):
        assert prove_nonneg(P(text), xbar, 10).verdict != "Proven"

    def test_zero_off_xbar_ends_the_run_with_its_corner(self):
        # (1, 1) is the upper corner of box SW/00, which is not the x̄ image
        p = P("(x0-1)^2+(x1-1)^2")
        cert = prove_nonneg(p, F(2), 10)
        assert (cert.verdict, cert.fail_reason) == ("Fail", "zero-off-xbar")
        assert cert.witness == [1, 1] and cert.witness_value == 0
        assert cert.nodes[-1].path == ("SW", "00")
        assert replay_certificate(cert, p)

    def test_zero_at_the_xbar_image_of_a_box_passes(self):
        # the all-1 chain of boxes keeps x̄ as its upper corner, where P = 0
        p = P("3*(x0-1)^2-2*(x0-1)^2*(x1-1)+5*(x1-1)^2+(x0-1)^2*(x1-1)^3")
        cert = prove_nonneg(p, F(1), 3)
        assert cert.verdict == "Proven"
        by_path = {n.path: n for n in cert.nodes}
        for path in (("NE", "11"), ("NW", "11")):
            assert by_path[path].status == "pass"
            assert by_path[path].outcomes[0].detail == {"reason": "constant-zero"}

    def test_certificate_json_roundtrip(self):
        p = P(EX2)
        cert = prove_nonneg(p, F(1), 10)
        text = certificate_to_json(cert)
        assert '"verdict": "Proven"' in text
        restored = certificate_from_json(text)
        assert restored.verdict == cert.verdict
        assert restored.input_digest == cert.input_digest
        assert len(restored.nodes) == len(cert.nodes)
        assert replay_certificate(restored, p)

    def test_no_floats_in_serialized_certificate(self):
        import json as _json

        cert = prove_nonneg(P("x0+x1-1"), F(1), 10)
        doc = _json.loads(certificate_to_json(cert))

        def walk(value):
            assert not isinstance(value, float)
            if isinstance(value, dict):
                for v in value.values():
                    walk(v)
            elif isinstance(value, list):
                for v in value:
                    walk(v)

        walk(doc)


# The Fraction engine that the packed one replaced, kept as a reference:
# region maps composed as a shift of the high axes, then an inversion and a
# shift of each low axis; box maps as shift, inversion, shift per axis; the
# node tests on Fraction terms; and the same depth-first node loop.  The
# one-axis shift and inversion are those of test_polynomial.


def _ref_region_poly(p, region):
    xbar = region.xbar
    for i, high in enumerate(region.highs):
        if high and xbar:
            p = _ref_shift_one(p, i, xbar)
    for i, high in enumerate(region.highs):
        if not high:
            p = _ref_shift_one(_ref_invert_var(p, i), i, 1 / xbar)
    return p


def _ref_finitize(p, region):
    for i, high in enumerate(region.highs):
        if high:
            p = _ref_invert_var(p, i)
    return p


def _ref_box_map(p, bounds):
    for i, (a, b) in enumerate(bounds):
        if a != 0:
            p = _ref_shift_one(p, i, a)
        p = _ref_shift_one(_ref_invert_var(p, i), i, 1 / (b - a))
    return p


def _ref_run_tests(p):
    """(status, outcomes, local witness) by the Fraction tests."""
    outcomes = []
    neg = [e for e, c in p.terms.items() if c < 0]
    const = p.constant_term()
    if neg:
        e = max(neg, key=lambda e: (sum(e), e))
        outcomes.append(certificate.TestOutcome(
            "PosCoeffs", "fail", {"negative_term": list(e), "coeff": p.terms[e]}))
    elif const > 0:
        outcomes.append(certificate.TestOutcome("PosCoeffs", "pass", {"constant": const}))
        return "pass", outcomes, None
    else:
        outcomes.append(certificate.TestOutcome(
            "PosCoeffs", "fail", {"reason": "constant-zero"}))
        supports = [frozenset(i for i, e in enumerate(exps) if e) for exps in p.terms]
        detail = {}
        for mask in range(1, 2 ** p.nvars - 1):
            subset = frozenset(i for i in range(p.nvars) if (mask >> i) & 1)
            if not any(s.isdisjoint(subset) for s in supports):
                detail = {"vanishing_subset": sorted(subset)}
                break
        outcomes.append(certificate.TestOutcome(
            "ZeroOnlyAtOrigin", "fail" if detail else "pass", detail))
        if not detail:
            return "pass", outcomes, None
    bad = [e for e, c in p.terms.items() if c < 0 and (sum(e) != 2 or 2 in e)]
    if bad:
        worst = max(bad, key=lambda e: (sum(e), e))
        detail = {"reason": "not-applicable", "negative_term": list(worst)}
        outcomes.append(certificate.TestOutcome("SubPolyN", "fail", detail))
    else:
        n = p.nvars
        A = _ref_quadratic_form(p)
        minors = checker._leading_principal_minors(A)
        detail = {"minors": minors}
        if n == 2:
            a, b, c = A[0][0], 2 * A[0][1], A[1][1]
            detail.update({"a": a, "b": b, "c": c, "d": 4 * a * c - b * b})
        if all(m > 0 for m in minors):
            outcomes.append(certificate.TestOutcome("SubPolyN", "pass", detail))
            return "pass", outcomes, None
        detail["reason"] = "not-positive-definite"
        outcomes.append(certificate.TestOutcome("SubPolyN", "fail", detail))
    top = p.total_degree()
    leaders = [c for e, c in p.terms.items() if sum(e) == top]
    if top == 0:
        outcomes.append(certificate.TestOutcome(
            "LCoeff", "fail", {"reason": "constant-polynomial"}))
    elif all(c < 0 for c in leaders):
        point = next(([F(2) ** m] * p.nvars for m in range(1, 64)
                      if _ref_evaluate(p, [F(2) ** m] * p.nvars) < 0), None)
        if point is not None:
            outcomes.append(certificate.TestOutcome(
                "LCoeff", "refute", {"total_degree": top, "leaders": len(leaders)}))
            return "refute", outcomes, point
        outcomes.append(certificate.TestOutcome(
            "LCoeff", "fail", {"reason": "no-witness-on-ray"}))
    else:
        outcomes.append(certificate.TestOutcome(
            "LCoeff", "fail", {"reason": "mixed-sign-leaders"}))
    outcomes.append(certificate.TestOutcome(
        "Const", "refute" if const < 0 else "fail", {"constant": const}))
    if const < 0:
        return "refute", outcomes, [F(0)] * p.nvars
    return "split", outcomes, None


def _ref_quadratic_form(p):
    n = p.nvars
    A = [[F(0)] * n for _ in range(n)]
    for exps, coeff in p.terms.items():
        support = [i for i, e in enumerate(exps) if e]
        if sum(exps) == 2 and len(support) == 1:
            A[support[0]][support[0]] = coeff
        elif sum(exps) == 2:
            i, j = support
            A[i][j] = A[j][i] = coeff / 2
    return A


def _ref_cones(p):
    """The cone test by Fraction substitutions: on chart i the term c*y^e
    becomes c*t^(|e|-2)*prod_j v_j^e_j, then each v_j -> 1/(1 + w_j)."""
    minors = checker._leading_principal_minors(_ref_quadratic_form(p))
    if not all(m > 0 for m in minors):
        return certificate.TestOutcome(
            "Cones", "fail", {"minors": minors, "reason": "not-positive-definite"})
    for i in range(p.nvars):
        g = MultiPoly(p.nvars, {e[:i] + (sum(e) - 2,) + e[i + 1:]: c
                                for e, c in p.terms.items()})
        for j in range(p.nvars):
            if j != i:
                g = _ref_shift_one(_ref_invert_var(g, j), j, F(1))
        neg = [e for e, c in g.terms.items() if c < 0 and e[i]]
        if neg:
            worst = max(neg, key=lambda e: (sum(e), e))
            return certificate.TestOutcome(
                "Cones", "fail", {"minors": minors, "cone": i, "negative_term": list(worst)})
    return certificate.TestOutcome("Cones", "pass", {"minors": minors})


def _ref_grid_negative(p):
    for js in itertools.product(_grid_exponents(p.nvars), repeat=p.nvars):
        point = [F(2) ** j for j in js]
        if _ref_evaluate(p, point) < 0:
            return point
    return None


def _ref_to_original(region, box, w):
    """A local point in the original orthant, by undoing the reference maps:
    a high region axis was shifted by xbar, a low one inverted and shifted
    by 1/xbar; a box axis of the finitized region (high axes inverted) was
    shifted by a, inverted and shifted by 1/(b - a)."""
    xbar = region.xbar
    if box is None:
        return [xbar + x if high else xbar / (1 + xbar * x)
                for x, high in zip(w, region.highs)]
    finite = [a + (b - a) / (1 + (b - a) * x) for x, (a, b) in zip(w, box.bounds)]
    return [1 / y if high else y for y, high in zip(finite, region.highs)]


def _ref_prove_nonneg(p, xbar, depth_limit):
    """The certificate of the Fraction engine, and the polynomial of each node."""
    cert = certificate.ProofCertificate(p.digest(), p.nvars, xbar, depth_limit, "Proven", [])
    polys = []
    regions = [RegionSpec(highs, xbar) for highs in itertools.product(
        (True, False) if xbar else (True,), repeat=p.nvars)]
    stack = [(r, None, None, (r.label,)) for r in reversed(regions)]
    grid_tried = False
    while stack:
        region, fin, box, path = stack.pop()
        mapped = _ref_region_poly(p, region) if box is None else _ref_box_map(fin, box.bounds)
        polys.append(mapped)
        status, outcomes, local = _ref_run_tests(mapped)
        node = certificate.CertNode(path, region, box, outcomes, status)
        cert.nodes.append(node)
        point = None
        if status == "refute":
            point = _ref_to_original(region, box, local)
        elif box is not None and mapped.constant_term() == 0 and any(
                "0" in bits for bits in path[1:]):
            corner = [1 / b if high else b for (_, b), high in zip(box.bounds, region.highs)]
            assert _ref_evaluate(p, corner) == 0
            cert.verdict, cert.fail_reason = "Fail", "zero-off-xbar"
            cert.witness, cert.witness_value = corner, F(0)
            return cert, polys
        elif status == "split" and box is None:
            if not grid_tried:
                grid_tried = True
                point = _ref_grid_negative(p)
            if point is None and min(map(sum, mapped.terms)) >= 2:
                outcomes.append(_ref_cones(mapped))
                if outcomes[-1].result == "pass":
                    node.status = "pass"
                    continue
            if point is None and xbar == 0:
                node.status = "cannot-finitize"
                continue
            if point is None:
                fin, box = _ref_finitize(p, region), finitize(p, region)[1]
        if point is not None:
            cert.verdict, cert.witness = "Disproven", point
            cert.witness_value = _ref_evaluate(p, point)
            return cert, polys
        if status == "split" and len(path) > depth_limit:
            node.status = "depth-limit"
        elif status == "split":
            stack.extend((region, fin, child, path + (bits,))
                         for bits, child in reversed(subdivide(box)))
    statuses = {node.status for node in cert.nodes}
    if "depth-limit" in statuses:
        cert.verdict, cert.fail_reason = "Fail", "depth-limit"
    elif "cannot-finitize" in statuses:
        cert.verdict, cert.fail_reason = "Fail", "cannot-finitize-zero-split"
    return cert, polys


def _reference_corpus():
    """Seeded 1-3 variable inputs: sparse mixed signs, mostly positive ones,
    shifted sums of squares, and each of those with a term of degree
    sum_i deg_i added, which fills the total-degree field of the layout;
    depth limits 0-5, and 0-1 for three variables, where a split has eight
    children.  The golden inputs that subdivide come first; inputs whose
    regions run the cone test, at x̄ > 0 and at x̄ = 0, come last."""
    rng = random.Random(103)
    inputs = [(P("6*x0^3+x0^2-4*x0+1"), F(1, 2), 5), (P(EX2), F(1), 5),
              (P("(x0-1/3)^2+(x1-1/3)^2"), F(1), 2), (P(REFUTE_AFTER_LIMIT), F(1), 4)]
    while len(inputs) < 151:
        nvars = rng.randrange(1, 4)
        kind = rng.randrange(3)
        if kind == 0:
            p = _random_poly(rng, nvars)
        elif kind == 1:
            p = _random_posdominant_poly(rng, nvars)
        else:
            p = _shifted_squares(rng, nvars)
        if rng.random() < 0.3 and not p.is_zero():
            top = tuple(p.degree_in(i) for i in range(nvars))
            p = _ref_add(p, MultiPoly(nvars, {top: F(rng.randrange(1, 4))}))
        if not p.is_zero():
            xbar = rng.choice([F(0), F(1, 2), F(1), F(2), F(3)])
            depth = rng.randrange(0, 6) if nvars < 3 else rng.randrange(0, 2)
            inputs.append((p, xbar, depth))
    inputs += [
        (_at_one(CONE_FAIL), F(1), 2),
        (_at_one(CONE_PASS + "+x0^4+x1^4"), F(1), 2),
        (P(CONE_PASS), F(0), 2),
        (P("x0^2-2*x0*x1+x1^2+x0^3"), F(0), 2),
        (P("x0^2+x1^2+x2^2-x0*x1+x0^3-x0*x1*x2+x2^3"), F(0), 1),
    ]
    return inputs


class TestEngineMatchesFractionReference:
    def test_regions_boxes_digests_outcomes_and_certificates(self):
        endings, cones = set(), set()
        full_degree = 0
        for p, xbar, depth in _reference_corpus():
            want, polys = _ref_prove_nonneg(p, xbar, depth)
            got = prove_nonneg(p, xbar, depth)
            assert certificate_to_json(got) == certificate_to_json(want), (str(p), xbar)
            assert [n.outcomes for n in got.nodes] == [n.outcomes for n in want.nodes]
            split = orthant_split(p, xbar)
            for region, poly in split:
                assert poly == _ref_region_poly(p, region)
                assert positivity.region_poly(p, region) == poly
            assert _node_polys(p, got) == polys
            for node, poly in zip(want.nodes, polys):
                if node.box is not None:
                    fin, box = finitize(p, node.region)
                    assert fin == _ref_finitize(p, node.region)
                    assert fin.box_map(node.box.bounds) == poly
            endings.add((got.verdict, any(n.box is not None for n in got.nodes)))
            endings.add(got.fail_reason)
            cones.update((o.result, o.detail.get("reason")) for n in got.nodes
                         for o in n.outcomes if o.test == "Cones")
            full_degree += p.total_degree() == sum(map(p.degree_in, range(p.nvars)))
        assert endings >= {("Proven", False), ("Proven", True), ("Disproven", False),
                           ("Disproven", True), ("Fail", False), ("Fail", True),
                           "zero-off-xbar"}
        assert cones == {("pass", None), ("fail", None), ("fail", "not-positive-definite")}
        assert full_degree >= 20


class TestToOriginal:
    def test_node_sign_is_the_sign_of_P_at_the_mapped_point(self):
        # every node of the in-repo corpora, at its local origin and at
        # random local points w >= 0; the origin maps to xbar for a region
        # and to the box's upper corner (in original coordinates) for a box
        from test_checker import _random_corpus

        rng = random.Random(113)
        nodes = boxes = 0
        for p, xbar, depth in _reference_corpus() + _random_corpus():
            cert = prove_nonneg(p, xbar, depth)
            for node, poly in zip(cert.nodes, _node_polys(p, cert), strict=True):
                region, box, n = node.region, node.box, p.nvars
                origin = positivity.to_original(region, box, [0] * n)
                if box is None:
                    assert origin == [xbar] * n
                else:
                    assert origin == [1 / b if high else b
                                      for (_, b), high in zip(box.bounds, region.highs)]
                points = [[0] * n] + [
                    [rng.choice((F(0), F(rng.randrange(1, 60), rng.randrange(1, 9))))
                     for _ in range(n)] for _ in range(3)]
                for w in points:
                    x = positivity.to_original(region, box, w)
                    assert all(v >= 0 for v in x)
                    local, original = poly.evaluate(w), p.evaluate(x)
                    assert (local > 0, local == 0) == (original > 0, original == 0), (
                        str(p), xbar, node.path, w)
                nodes += 1
                boxes += box is not None
        assert nodes > 1000 and boxes > 500


def _count_shifts(monkeypatch):
    # the region generator is the checker's, which the prover imports
    calls = []
    shift_packed = checker.shift_packed

    def counting(*args):
        calls.append(args[1])
        return shift_packed(*args)

    monkeypatch.setattr(checker, "shift_packed", counting)
    return calls


class TestRegionPrefixSharing:
    def test_proven_without_boxes_shares_axis_prefixes(self, monkeypatch):
        # all 2^n regions pass: one transform per axis prefix, 2 + 4 (+ 8)
        calls = _count_shifts(monkeypatch)
        for text, nvars, transforms in (("x0^2+x1^2+1", 2, 6),
                                         ("x0^2+x1^2+x2^2+1", 3, 14)):
            calls.clear()
            cert = prove_nonneg(P(text), F(1))
            assert cert.verdict == "Proven"
            assert len(cert.nodes) == 2 ** nvars
            assert all(n.box is None for n in cert.nodes)
            assert len(calls) == transforms

    def test_refuted_at_the_first_region_pays_for_one_path(self, monkeypatch):
        calls = _count_shifts(monkeypatch)
        for text, nvars in (("x0+x1-10", 2), ("x0+x1+x2-10", 3)):
            calls.clear()
            cert = prove_nonneg(P(text), F(1))
            assert cert.verdict == "Disproven" and len(cert.nodes) == 1
            assert len(calls) <= nvars


def _node_polys(p, cert):
    """The polynomial of each node of the certificate, as `checker.walk`
    makes it when fed the certificate's own nodes."""
    seen, polys = [], []
    # the nodes first: a walk is not resumed past the last node of a run
    for node, (*_, node_poly) in zip(cert.nodes, checker.walk(p.packed(), cert.xbar, seen)):
        polys.append(MultiPoly.from_packed(node_poly()))
        seen.append(node)
    return polys


def _random_poly(rng, nvars, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        exps = tuple(rng.randrange(0, max_exp + 1) for _ in range(nvars))
        terms[exps] = F(rng.randrange(-6, 7), rng.randrange(1, 5))
    return MultiPoly(nvars, terms)


def _random_posdominant_poly(rng, nvars):
    """Mostly-positive coefficients with an occasional negative term."""
    terms = {tuple([0] * nvars): F(rng.randrange(-2, 6))}
    for _ in range(rng.randrange(2, 7)):
        exps = tuple(rng.randrange(0, 4) for _ in range(nvars))
        coeff = F(rng.randrange(1, 8))
        if rng.random() < 0.3:
            coeff = -coeff
        terms[exps] = terms.get(exps, F(0)) + coeff
    p = MultiPoly(nvars, terms)
    if p.is_zero():
        return MultiPoly(nvars, {(0,) * nvars: 1})
    return p
