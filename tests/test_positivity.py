import gc
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from gasprover import positivity
from gasprover.parsing import parse_poly
from gasprover.polynomial import MultiPoly
from gasprover.positivity import (
    BoxSpec,
    RegionSpec,
    _grid_exponents,
    _grid_negative,
    _search_negative,
    certificate_from_json,
    certificate_to_json,
    finitize,
    orthant_split,
    prove_nonneg,
    replay_certificate,
    subdivide,
    zero_only_at_origin,
)
from gasprover.positivity import test_const as check_const
from gasprover.positivity import test_lcoeff as check_lcoeff
from gasprover.positivity import test_poscoeffs as check_poscoeffs
from gasprover.positivity import test_subpoly_n as check_subpoly_n
from gasprover.recurrence import build_contraction_poly, find_equilibrium, parse_rde

F = Fraction


def P(text, nvars=None):
    return parse_poly(text, nvars)


EX1 = "x0^2-x0*x1+x1^2"
EX2 = "x0^4*x1-5*x0^3*x1+10*x0^2*x1+x0^2+x1"
EX2_NE = "x0^4*x1+x0^4-x0^3*x1-x0^3+x0^2*x1+2*x0^2+9*x0*x1+11*x0+7*x1+8"
EX2_SW = "x0^4+4*x0^3+x0^2*x1+17*x0^2+2*x0*x1+21*x0+x1+8"


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

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            orthant_split(MultiPoly.zero(2), F(1))

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
                from gasprover.positivity import region_to_original

                original = region_to_original(region, w)
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
        assert check_poscoeffs(p).result == "pass"

    def test_negative_term_fails(self):
        assert check_poscoeffs(P(EX2_NE)).result == "fail"

    def test_trivial(self):
        assert check_poscoeffs(P("x0+1")).result == "pass"

    def test_zero_constant_defers(self):
        out = check_poscoeffs(P("x0+x1"))
        assert out.result == "fail"
        assert out.detail["reason"] == "constant-zero"


class TestZeroOnlyAtOrigin:
    def test_axis_zero_fails(self):
        assert zero_only_at_origin(P("x0*x1")).result == "fail"

    def test_sum_passes(self):
        assert zero_only_at_origin(P("x0+x1")).result == "pass"

    def test_region_poly_from_benchmark(self):
        big, xbar = _bench_poly()
        split = {r.label: q for r, q in orthant_split(big, xbar)}
        for label in ("NW", "SE"):
            q = split[label]
            assert q.constant_term() == 0
            assert all(c >= 0 for c in q.terms.values())
            assert zero_only_at_origin(q).result == "pass"

    def test_precondition(self):
        with pytest.raises(ValueError):
            zero_only_at_origin(P("x0-1"))


class TestSubPolyN:
    def test_example1_discriminant(self):
        out = check_subpoly_n(P("x0^2-x0*x1+x1^2+x0+x1+1"))
        assert out.result == "pass"
        assert out.detail["d"] == 3

    def test_benchmark_ne_quadratic_form(self):
        big, xbar = _bench_poly()
        split = {r.label: q for r, q in orthant_split(big, xbar)}
        out = check_subpoly_n(split["NE"])
        assert out.result == "pass"
        assert out.detail["a"] == 318700575
        assert out.detail["b"] == -6980904
        assert out.detail["c"] == 349366689
        assert out.detail["d"] == 445324725659927484

    def test_benchmark_sw_discriminant(self):
        big, xbar = _bench_poly()
        split = {r.label: q for r, q in orthant_split(big, xbar)}
        out = check_subpoly_n(split["SW"])
        assert out.result == "pass"
        assert out.detail["d"] == F(111331181414981871, 67108864)

    def test_not_applicable_high_degree_negative(self):
        out = check_subpoly_n(P("x0^2-x0^3*x1+x1^2"))
        assert out.result == "fail"
        assert out.detail["reason"] == "not-applicable"

    def test_not_applicable_negative_square(self):
        out = check_subpoly_n(P("-x0^2+x0*x1+x1^2"))
        assert out.result == "fail"
        assert out.detail["reason"] == "not-applicable"

    def test_indefinite_fails(self):
        out = check_subpoly_n(P("x0^2-3*x0*x1+x1^2"))
        assert out.result == "fail"
        assert out.detail["d"] == -5


class TestSylvesterOracle:
    """Sylvester's criterion vs explicit quadratic-form evidence."""

    @staticmethod
    def _sylvester(A):
        from gasprover.positivity import _leading_principal_minors

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
        assert check_lcoeff(P("-x0^2*x1^2+x0+x1+1")).result == "refute"

    def test_lcoeff_abstains_mixed(self):
        assert check_lcoeff(P("x0^2-x0*x1+x1^2+1")).result == "fail"

    def test_lcoeff_abstains_positive(self):
        assert check_lcoeff(P("3*x0^4+1")).result == "fail"

    def test_const_refutes(self):
        out = check_const(P("x0+x1-1"))
        assert out.result == "refute"
        assert out.detail["constant"] == -1

    def test_const_zero_not_refuted(self):
        assert check_const(P("x0+x1")).result == "fail"

    def test_const_positive(self):
        assert check_const(P("x0+x1+8")).result == "fail"


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


class TestSubdivide:
    def test_tiles_parent_grid(self):
        parent = BoxSpec(((F(0), F(1)), (F(0), F(1))), (True, False))
        children = [b for _, b in subdivide(parent)]
        rng = random.Random(59)
        for _ in range(200):
            pt = [F(rng.randrange(1, 64), 64), F(rng.randrange(0, 65), 64)]
            assert parent.contains(pt)
            assert sum(1 for b in children if b.contains(pt)) == 1

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
            assert _grid_negative(first) == [F(1, 1024)] * n
            assert _grid_negative(last) == [F(1024)] * n
            polys += [first, last]
        for _ in range(300):
            p = _random_poly(rng, rng.randrange(1, 4))
            if not p.is_zero():
                polys.append(p)
        found = 0
        for p in polys:
            expected = _plain_grid_negative(p)
            assert _grid_negative(p) == expected
            found += expected is not None
        assert 0 < found < len(polys)


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
            assert node.digest == P(text).digest()

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
        assert _search_negative(p) is None
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
        # onto a finite box, so an undecided region gives Fail, whether P
        # is negative somewhere (the first input is -2 at (0, 4)) or >= 1
        # everywhere (the second).
        for text in ("x0*x1-x0-x1+2", "(x0-x1)^2+x0+1"):
            cert = prove_nonneg(P(text), F(0), 10)
            assert cert.verdict == "Fail"
            assert cert.fail_reason == "cannot-finitize-zero-split"
            assert [n.status for n in cert.nodes] == ["cannot-finitize"]

    @pytest.mark.parametrize(
        "text,xbar,depth,ending,sha",
        [
            ("x0^2+x0*x1+x1^2+1", F(1), 12, ("Proven", ["pass"], False),
             "1806194cd11c24a1a5ec1d110a47c0d3acf82564985025f5e11a9bdabbacc4f0"),
            ("x0^2-3*x0*x1+x1^2", F(1), 12, ("Disproven", ["refute"], False),
             "6651786181878e24b72f1cf3751a050d4050a3c239b39b46b89135100d82e260"),
            ("(x0-1024*x1)^2-x0*x1/1000", F(1), 12,
             ("Disproven", ["split"], False),
             "f6397addcae1c305aeee96fcd8c0f5ea498ff2794e676d019bafbc77d3d377f4"),
            ("6*x0^3+x0^2-4*x0+1", F(1, 2), 12,
             ("Disproven", ["pass", "refute", "split"], True),
             "f2477b0832b80b2e1fbf139b38e5be054d98e341d6a3fd3db3f5ceb9cbe2d919"),
            ("(x0-1/3)^2+(x1-1/3)^2", F(1), 2,
             ("Fail", ["depth-limit", "pass", "split"], True),
             "300b010635a0d3d26baf923e54f6d5fdd320249f1ff79e298f7e59ceefbd7299"),
            ("(x0-1/3)^2+(x1-1/3)^2", F(1), 0,
             ("Fail", ["depth-limit", "pass", "split"], True),
             "c31d392c470f6dc815226167afa8ab4a629dcb6455e0c7b58fe6ba173077078c"),
            ("x0*x1-x0-x1+2", F(0), 10, ("Fail", ["cannot-finitize"], False),
             "c0f5c740518ba3f31716ef15375a6de4ab7cbe148e38c5d4f50634f1415085be"),
            (EX2, F(1), 12, ("Proven", ["pass", "split"], True),
             "a0381330d8e92c0847b6bce8220b22c256292311a60e69b807be7ef4040c938d"),
        ],
        ids=["region-pass", "region-refute", "grid-refute", "box-refute",
             "depth-limit", "depth-limit-at-region", "cannot-finitize",
             "proven-subdivided"],
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
            assert not replay_certificate(cert, p + P("1", 2))
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

    def test_replay_hashes_the_input_once(self, monkeypatch):
        p = P(EX2)
        cert = prove_nonneg(p, F(1), 10)
        fresh = P(EX2)
        built = []
        sorted_terms = MultiPoly.sorted_terms

        def counting(self):
            built.append(self is fresh)
            return sorted_terms(self)

        monkeypatch.setattr(MultiPoly, "sorted_terms", counting)
        assert replay_certificate(cert, fresh)
        assert built.count(True) == 1
        assert fresh.digest() == cert.input_digest
        assert built.count(True) == 1
        assert not replay_certificate(cert, fresh + P("1", 2))

    @pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: zero away from x̄ / on the boundary"
    )
    @pytest.mark.parametrize(
        "text, xbar", [("(x0-1)^2+(x1-1)^2", F(2)), ("x0^2+(x1-1)^2", F(1))]
    )
    def test_zero_off_the_split_point_is_not_proven(self, text, xbar):
        assert prove_nonneg(P(text), xbar, 10).verdict != "Proven"

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
        return MultiPoly.constant(nvars, 1)
    return p
