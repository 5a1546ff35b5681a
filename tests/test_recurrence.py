import gc
import hashlib
import heapq
import itertools
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from test_polynomial import _ref_add, _ref_mul, _ref_pow, _ref_scale

from gasprover import recurrence
from gasprover.certificate import certificate_document
from gasprover.parsing import parse_poly, parse_ratfun
from gasprover.orbit import Orbit, orbit_map
from gasprover.polynomial import MultiPoly, RatFun, evaluate_packed
from gasprover.positivity import _grid_exponents, prove_nonneg
from gasprover.recurrence import (
    Composition,
    Equilibrium,
    RecurrenceSpec,
    UnsupportedInputError,
    build_contraction_poly,
    find_equilibrium,
    parse_rde,
    q_power,
)

F = Fraction

# The order-2 benchmark x_{n+1} = (4+x_n)/(1+x_{n-1}) and its known
# contraction polynomial for K=5 (variables: x0 = x_n, x1 = x_{n-1}).
BENCH = "(4+x0)/(1+x1)"

BENCH_P5 = (
    "25*x1^8*x0^4+340*x1^8*x0^3+1606*x1^8*x0^2+3060*x1^8*x0+2025*x1^8"
    "+60*x1^7*x0^5+1158*x1^7*x0^4+8460*x1^7*x0^3+28936*x1^7*x0^2+45848*x1^7*x0"
    "+27090*x1^7"
    "+71*x1^6*x0^6+1418*x1^6*x0^5+11229*x1^6*x0^4+53362*x1^6*x0^3"
    "+147345*x1^6*x0^2+207144*x1^6*x0+113103*x1^6"
    "+72*x1^5*x0^7+1420*x1^5*x0^6+9012*x1^5*x0^5+20174*x1^5*x0^4"
    "+24716*x1^5*x0^3+74718*x1^5*x0^2+163032*x1^5*x0+108952*x1^5"
    "+47*x1^4*x0^8+1276*x1^4*x0^7+11120*x1^4*x0^6+25528*x1^4*x0^5"
    "-118780*x1^4*x0^4-688300*x1^4*x0^3-1195361*x1^4*x0^2-790736*x1^4*x0"
    "-148969*x1^4"
    "+12*x1^3*x0^9+538*x1^3*x0^8+7854*x1^3*x0^7+45864*x1^3*x0^6"
    "+53604*x1^3*x0^5-515564*x1^3*x0^4-2066454*x1^3*x0^3-2469564*x1^3*x0^2"
    "-207576*x1^3*x0+833882*x1^3"
    "+x1^2*x0^10+86*x1^2*x0^9+2109*x1^2*x0^8+22070*x1^2*x0^7+102117*x1^2*x0^6"
    "+105526*x1^2*x0^5-695269*x1^2*x0^4-1867364*x1^2*x0^3+785343*x1^2*x0^2"
    "+6256056*x1^2*x0+4716817*x1^2"
    "+4*x1*x0^10+198*x1*x0^9+3530*x1*x0^8+29636*x1*x0^7+117218*x1*x0^6"
    "+136288*x1*x0^5-289440*x1*x0^4+253318*x1*x0^3+5674806*x1*x0^2"
    "+11634024*x1*x0+7054300*x1"
    "+4*x0^10+148*x0^9+2145*x0^8+15348*x0^7+53870*x0^6+69340*x0^5+30579*x0^4"
    "+801874*x0^3+3802411*x0^2+6262908*x0+3488704"
)


class TestParseRde:
    def test_benchmark(self):
        spec = parse_rde(BENCH)
        assert spec.order == 2
        assert spec.closed_domain

    def test_open_domain(self):
        spec = parse_rde("9/x0")
        assert spec.order == 1
        assert not spec.closed_domain

    def test_negative_coefficient_rejected(self):
        with pytest.raises(UnsupportedInputError) as exc:
            parse_rde("(1+x0) - 2")
        assert exc.value.kind == "negative-coefficient"

    def test_explicit_order(self):
        spec = parse_rde("x0+1", 3)
        assert spec.order == 3

    def test_order_below_one_rejected(self):
        # order 0 parses a map in no variables, whose contraction polynomial is zero
        for order in (0, -1):
            with pytest.raises(ValueError, match="order must be >= 1"):
                parse_rde("5", order)


class TestFindEquilibrium:
    def test_benchmark(self):
        eq = find_equilibrium(parse_rde(BENCH))
        assert eq.value == 2
        assert eq.vector == [2, 2]

    def test_linear_decay(self):
        eq = find_equilibrium(parse_rde("1/2*x0"))
        assert eq.value == 0

    def test_boundary_zero_narrowed_to_positive(self):
        # fixed points are 0 and 1; the positive one is the equilibrium
        eq = find_equilibrium(parse_rde("2*x0/(1+x0)"))
        assert eq.value == 1

    def test_open_domain(self):
        eq = find_equilibrium(parse_rde("9/x0"))
        assert eq.value == 3

    def test_irrational_rejected(self):
        with pytest.raises(UnsupportedInputError) as exc:
            find_equilibrium(parse_rde("(1+x0)/(1+2*x0)"))
        assert exc.value.kind == "irrational-equilibrium"

    def test_large_constants_do_not_stall(self):
        # the root search bisects in integers; it never factors the constant
        start = time.perf_counter()
        with pytest.raises(UnsupportedInputError) as exc:
            find_equilibrium(parse_rde("(10000000000000061+x0)/(1+x0)"))
        assert time.perf_counter() - start < 0.1
        assert exc.value.kind == "irrational-equilibrium"
        eq = find_equilibrium(parse_rde("(100000000000000000000000000+x0)/(1+x0)"))
        assert eq.value == 10**13

    def test_double_positive_root(self):
        # x = x^2/(1/4+x^2) holds at 0 and, as a double root, at 1/2
        assert find_equilibrium(parse_rde("x0^2/(1/4+x0^2)")).value == F(1, 2)

    def test_multiple_rejected(self):
        with pytest.raises(UnsupportedInputError) as exc:
            find_equilibrium(parse_rde("(x0^2+6)/5"))
        assert exc.value.kind == "multiple-equilibria"

    def test_no_equilibrium(self):
        with pytest.raises(UnsupportedInputError) as exc:
            find_equilibrium(parse_rde("x0+1"))
        assert exc.value.kind == "no-equilibrium"

    def test_identity_map_rejected(self):
        with pytest.raises(UnsupportedInputError) as exc:
            find_equilibrium(parse_rde("x0"))
        assert exc.value.kind == "multiple-equilibria"


class TestQPower:
    def test_benchmark_k1(self):
        spec = parse_rde(BENCH)
        c0, c1 = q_power(spec, 1)
        assert c0.num == parse_poly("4+x0", 2)
        assert c0.den == parse_poly("1+x1", 2)
        assert c1.num == parse_poly("x0", 2)

    def test_k1_is_the_map_itself(self):
        # Q^1 = (R, x0, .., x_{k-1}), including a constant denominator,
        # which RatFun normalises to 1 by scaling the numerator
        for text in (BENCH, "(1+x0+x1)/3", "x1/(2+x0+x1)", "9/x0"):
            spec = parse_rde(text)
            n = spec.order
            first, *rest = q_power(spec, 1)
            assert (first.num, first.den) == (spec.R.num, spec.R.den)
            assert [(c.num, c.den) for c in rest] == [
                (_variable(n, i), _constant(n, 1)) for i in range(n - 1)
            ]

    def test_reciprocal_period_two(self):
        spec = parse_rde("1/x0")
        (c,) = q_power(spec, 2)
        assert c.num == parse_poly("x0")
        assert c.den == parse_poly("1", 1)

    def test_projection_structure(self):
        spec = parse_rde(BENCH)
        for k in range(2, 5):
            prev = q_power(spec, k - 1)
            cur = q_power(spec, k)
            assert [(c.num, c.den) for c in cur[1:]] == [(c.num, c.den) for c in prev[:-1]]

    def test_fixed_point_invariant(self):
        for text in (BENCH, "9/x0", "2*x0/(1+x0)"):
            spec = parse_rde(text)
            eq = find_equilibrium(spec)
            for k in range(1, 7):
                for comp in q_power(spec, k):
                    assert comp.evaluate(eq.vector) == eq.value

    def test_non_positive_denominator_raises(self):
        # a map outside the method's scope; the check is not an assert, so it
        # also holds under python -O
        spec = RecurrenceSpec(1, parse_ratfun("1/(1-x0+x0^2)"), True)
        with pytest.raises(UnsupportedInputError) as exc:
            q_power(spec, 1)
        assert exc.value.kind == "non-positive-denominator"

    def test_denominator_positivity(self):
        for text in (BENCH, "9/x0", "(1+x0+x1)/(2+x2)"):
            spec = parse_rde(text)
            for k in range(1, 6):
                for comp in q_power(spec, k):
                    assert all(c > 0 for c in comp.den.terms.values())


class TestBuildContractionPoly:
    def test_benchmark_k5_term_for_term(self):
        spec = parse_rde(BENCH)
        eq = find_equilibrium(spec)
        p = build_contraction_poly(spec, eq, 5)
        assert p == parse_poly(BENCH_P5, 2)

    def test_reciprocal_k1(self):
        spec = parse_rde("1/x0")
        p = build_contraction_poly(spec, Equilibrium(F(1), 1), 1)
        assert p == parse_poly("x0^4-2*x0^3+2*x0-1")

    def test_vanishes_at_equilibrium(self):
        for text in (BENCH, "9/x0", "2*x0/(1+x0)"):
            spec = parse_rde(text)
            eq = find_equilibrium(spec)
            for k in (1, 2, 3):
                p = build_contraction_poly(spec, eq, k)
                assert p.evaluate(eq.vector) == 0

    def test_denominator_vanishing_at_xbar_raises(self, monkeypatch):
        # a soundness guard, not an assert, so that it holds under python -O
        monkeypatch.setattr(recurrence, "evaluate_packed", lambda poly, point: 0)
        spec = parse_rde(BENCH)
        with pytest.raises(RuntimeError, match="vanishes at xbar"):
            build_contraction_poly(spec, find_equilibrium(spec), 2)

    def test_sign_equivalence_random(self):
        rng = random.Random(41)

        def sign(v):
            return (v > 0) - (v < 0)

        for text in (BENCH, "9/x0", "2*x0/(1+x0)"):
            spec = parse_rde(text)
            eq = find_equilibrium(spec)
            for k in (1, 2, 3):
                p = build_contraction_poly(spec, eq, k)
                comps = q_power(spec, k)
                for _ in range(12):
                    v = [
                        F(rng.randrange(1, 40), rng.randrange(1, 10))
                        for _ in range(spec.order)
                    ]
                    before = sum((x - eq.value) ** 2 for x in v)
                    after = sum(
                        (c.evaluate(v) - eq.value) ** 2 for c in comps
                    )
                    assert sign(p.evaluate(v)) == sign(before - after)


# SHA-256 of repr(list(P.terms.items())) for builds of the workload maps,
# insertion order included, so a faster kernel must give the same terms in
# the same order.  Certificates do not depend on that order: the tests read
# max over keys and digests sort them, as the term-order test below checks.
BUILD_PINS = [
    ("x2/(2+x0+x1+x2)", 3,
     "a499815c26a27b5ad5f091337dba7fe044d41bfcb258d0e8c3ccb35247eccf11"),
    ("(2+x0)/(1+x1+x2)", 1,
     "9aeb67433d0ec0b769675d8f10b16009b19997b263486422bed61e1cd7f73b9a"),
    ("(2+x0)/(1+x1+x2)", 2,
     "b0de2fe3b1bc828c479c70075ead255447ccef1f67715eb630d0e118d6e1adb1"),
    ("(2+x0)/(1+x1+x2)", 3,
     "80e32da94e0f32fd325364bd5e59419ca52f12a66b92f3937af2d86abea399b0"),
    ("(2+x0)/(1+x1+x2)", 4,
     "fdbcdf478907126811ef55bbf9a3228ded99df694c6e94eb658007ee9194266f"),
    (BENCH, 5,
     "1299ce6f0022417d3e6da6d341eca4fdfed54063af82414ecb109d32a6cf301b"),
    ("(1+2*x1)/(1+x0+x1)", 2,
     "a4ec27bfecc0f4bd5ab350025f7ff4752ea3a9f2b5dbbdbfbff1f706f7323815"),
]

# P.digest() of each build above.  An assembly may reorder P's terms (the
# term-order pins above are then re-pinned), but P itself must not change.
BUILD_DIGESTS = {
    ("x2/(2+x0+x1+x2)", 3):
        "0c598b950b642a56152ace3463ab154b2b34c7a03eb5b487e809306b4c7a8582",
    ("(2+x0)/(1+x1+x2)", 1):
        "815dd793a9bad7fa63b53501a5b378636c7a6e3e1ef034f4c1c685bf42ccc462",
    ("(2+x0)/(1+x1+x2)", 2):
        "67650b588d45e6a795b207c9f70e17d8023b9034817855147624d6f477007cd1",
    ("(2+x0)/(1+x1+x2)", 3):
        "af44323d1426bda12458c5113c3cac8eccaae758ae07cbd504b1d0a52e595cba",
    ("(2+x0)/(1+x1+x2)", 4):
        "b22e61519a7cea042dd1844f0349c4fe59ee9d0ce808b42845bbdd8a8aaa9d19",
    (BENCH, 5):
        "6cd6932728e1273e06af43072bd46a3ef882f9b9840cd629522a93d166adad16",
    ("(1+2*x1)/(1+x0+x1)", 2):
        "0bcf8b4c3042261eb94e8a253f3d918d7df5ae557a757f0d19940de3b716716a",
}


class TestBuildPinned:
    @pytest.mark.parametrize("text,K,sha", BUILD_PINS)
    def test_terms_in_order(self, text, K, sha):
        spec = parse_rde(text)
        p = build_contraction_poly(spec, find_equilibrium(spec), K)
        assert hashlib.sha256(repr(list(p.terms.items())).encode()).hexdigest() == sha

    @pytest.mark.parametrize("text,K", list(BUILD_DIGESTS))
    def test_digest(self, text, K):
        spec = parse_rde(text)
        p = build_contraction_poly(spec, find_equilibrium(spec), K)
        assert p.digest() == BUILD_DIGESTS[text, K]

    @pytest.mark.parametrize("text,K,sha", BUILD_PINS)
    def test_term_order_does_not_reach_the_certificate(self, text, K, sha):
        spec = parse_rde(text)
        eq = find_equilibrium(spec)
        p = build_contraction_poly(spec, eq, K)
        reversed_p = MultiPoly(p.nvars, dict(reversed(p.terms.items())))
        assert list(reversed_p.terms) != list(p.terms)
        assert certificate_document(prove_nonneg(reversed_p, eq.value)) == \
            certificate_document(prove_nonneg(p, eq.value))

    def test_each_factor_power_raised_once(self, monkeypatch):
        # and each product of a factor list's prefix multiplied once: L and
        # a cofactor that is its prefix, or a denominator expanded at every
        # composition, share one product
        pow_, mul_ = recurrence.pow_packed, recurrence.mul_packed
        expand = recurrence._expand_factors.__code__
        for text, K in (("x2/(2+x0+x1+x2)", 3), ("(2+x0)/(1+x1+x2)", 4), (BENCH, 5)):
            spec = parse_rde(text)
            eq = find_equilibrium(spec)
            for name, build in (("P", lambda: build_contraction_poly(spec, eq, K)),
                                ("Q^K", lambda: q_power(spec, K))):
                raised, multiplied = Counter(), Counter()

                def counting(f, n):
                    raised[tuple(f.items()), n] += 1
                    return pow_(f, n)

                def counting_products(a, b):
                    if sys._getframe(1).f_code is expand:
                        multiplied[tuple(a.items()), tuple(b.items())] += 1
                    return mul_(a, b)

                monkeypatch.setattr(recurrence, "pow_packed", counting)
                monkeypatch.setattr(recurrence, "mul_packed", counting_products)
                build()
                monkeypatch.undo()
                assert raised
                assert set(raised.values()) == {1}
                assert set(multiplied.values()) <= {1}
                # P's lcm D of the denominators has more than one factor
                assert multiplied or name == "Q^K"

    def test_leaves_no_cyclic_garbage(self):
        spec = parse_rde("x2/(2+x0+x1+x2)")
        eq = find_equilibrium(spec)
        gc.collect()
        gc.disable()
        try:
            assert not build_contraction_poly(spec, eq, 3).is_zero()
            assert gc.collect() == 0
        finally:
            gc.enable()


# The build in Fractions, kept as the reference it must match term for term,
# insertion order included.  Its products, sums and powers are the plain
# Fraction loops of test_polynomial, so no kernel of the build checks itself.


def _constant(nvars, c):
    return MultiPoly(nvars, {(0,) * nvars: c})


def _variable(nvars, i):
    return MultiPoly(nvars, {(0,) * i + (1,) + (0,) * (nvars - i - 1): 1})


def _ref_primitive(p):
    """(c, p/c) with c the positive content of p, negated if p's grlex lead is
    negative, so that p/c has coprime integer terms and a positive lead."""
    den = lcm(*[c.denominator for c in p.terms.values()])
    g = gcd(*[c.numerator * (den // c.denominator) for c in p.terms.values()])
    c = F(g, den) if p.terms[max(p.terms, key=lambda e: (sum(e), e))] > 0 else F(-g, den)
    return c, _ref_scale(p, 1 / c)


def _ref_divide_exact(a, b):
    """a/b by heap division on Fraction terms; None if b does not divide a."""
    lead_e = max(b.terms, key=lambda e: (sum(e), e))
    lead_c = b.terms[lead_e]
    rest = [(e, c) for e, c in b.terms.items() if e != lead_e]
    remainder = dict(a.terms)
    heap = [(-sum(e), tuple(-x for x in e), e) for e in remainder]
    heapq.heapify(heap)
    quotient = {}
    while heap:
        r_e = heapq.heappop(heap)[2]
        r_c = remainder.pop(r_e, None)
        if r_c is None:
            continue
        q_e = tuple(x - y for x, y in zip(r_e, lead_e))
        if min(q_e, default=0) < 0:
            return None
        q_c = r_c / lead_c
        quotient[q_e] = q_c
        for e, c in rest:
            key = tuple(x + y for x, y in zip(q_e, e))
            old = remainder.get(key)
            if old is None:
                remainder[key] = -c * q_c
                heapq.heappush(heap, (-sum(key), tuple(-x for x in key), key))
            elif old - c * q_c:
                remainder[key] = old - c * q_c
            else:
                del remainder[key]
    return MultiPoly(a.nvars, quotient)


def _ref_expand(factors, nvars, powers):
    result = _constant(nvars, 1)
    for f, mult in factors.items():
        if (f, mult) not in powers:
            powers[f, mult] = _ref_pow(f, mult)
        result = _ref_mul(result, powers[f, mult])
    return result


def _ref_poly_at(poly, nums, dens, degs):
    nvars = poly.nvars
    result = MultiPoly(nvars, {})
    num_pows = [[_constant(nvars, 1)] for _ in range(nvars)]
    den_pows = [[_constant(nvars, 1)] for _ in range(nvars)]

    def power(cache, base, e):
        while len(cache) <= e:
            cache.append(_ref_mul(cache[-1], base))
        return cache[e]

    for exps, coeff in poly.terms.items():
        term = _constant(nvars, coeff)
        for i, e in enumerate(exps):
            term = _ref_mul(term, power(num_pows[i], nums[i], e))
            term = _ref_mul(term, power(den_pows[i], dens[i], degs[i] - e))
        result = _ref_add(result, term)
    return result


def _ref_cancel(num, den):
    den = Counter(den)
    for f in list(den):
        while den[f] > 0:
            q = _ref_divide_exact(num, f)
            if q is None:
                break
            num = q
            den[f] -= 1
        if den[f] == 0:
            del den[f]
    return num, den


def _ref_compose_first(spec, state, pool, powers):
    nvars = spec.order
    num_r, den_r = spec.R.num, spec.R.den
    nums = [c[0] for c in state]
    dens = [_ref_expand(c[1], nvars, powers) for c in state]
    degs = [max(num_r.degree_in(i), den_r.degree_in(i)) for i in range(nvars)]
    top = _ref_poly_at(num_r, nums, dens, degs)
    bottom = _ref_poly_at(den_r, nums, dens, degs)
    factors, rest = Counter(), bottom
    for f in pool:
        while (q := _ref_divide_exact(rest, f)) is not None:
            factors[f] += 1
            rest = q
    if rest.total_degree() > 0:
        content, prim = _ref_primitive(rest)
        pool.append(prim)
        factors[prim] += 1
    else:
        content = rest.constant_term()
    return _ref_cancel(_ref_scale(top, 1 / content), factors)


def _ref_q_power_factored(spec, K, powers):
    nvars = spec.order
    pool = []
    state = [(_variable(nvars, i), Counter()) for i in range(nvars)]
    for _ in range(K):
        state = [_ref_compose_first(spec, state, pool, powers)] + state[:-1]
    return state


def _ref_build(spec, xbar, K):
    """(the components of Q^K, P, P by the former assembly), from one composition.

    P is D^2*|X - Xbar|^2 - sum_i (c_i*g_i)^2, with D the lcm of the
    component denominators and c_i = D/den_i, made in the build's term
    order.  The former assembly, |X - Xbar|^2 times the lcm L of the squared
    denominators less each g_i^2 times its cofactor L/den_i^2, gives the
    same polynomial in another term order: the value oracle.
    """
    nvars = spec.order
    powers = {}
    components = _ref_q_power_factored(spec, K, powers)
    q_power_ = [RatFun(num, _ref_expand(factors, nvars, powers))
                for num, factors in components]
    xbar_c = _constant(nvars, xbar)
    dist = MultiPoly(nvars, {})
    for i in range(nvars):
        t = _ref_add(_variable(nvars, i), xbar_c, -1)
        dist = _ref_add(dist, _ref_mul(t, t))

    d_factors = Counter()
    for _, factors in components:
        for f, mult in factors.items():
            d_factors[f] = max(d_factors[f], mult)
    d_poly = _ref_expand(d_factors, nvars, powers)
    result = _ref_mul(dist, _ref_mul(d_poly, d_poly))
    for num, factors in components:
        cofactor = Counter({f: m - factors.get(f, 0) for f, m in d_factors.items()
                            if m > factors.get(f, 0)})
        cg = _ref_add(_ref_mul(num, _ref_expand(cofactor, nvars, powers)),
                      _ref_scale(d_poly, xbar), -1)
        result = _ref_add(result, _ref_mul(cg, cg), -1)

    lcm = Counter()
    for _, factors in components:
        for f, mult in factors.items():
            lcm[f] = max(lcm[f], 2 * mult)
    former = _ref_mul(dist, _ref_expand(lcm, nvars, powers))
    for num, factors in components:
        g = _ref_add(num, _ref_scale(_ref_expand(factors, nvars, powers), xbar), -1)
        cofactor = Counter()
        for f, mult in lcm.items():
            rem = mult - 2 * factors.get(f, 0)
            if rem:
                cofactor[f] = rem
        former = _ref_add(former, _ref_mul(_ref_mul(g, g), _ref_expand(cofactor, nvars, powers)),
                          -1)
    return q_power_, result, former


def _random_map(rng):
    """A positive-coefficient map of order 1-3 with rational coefficients,
    linear but for one quadratic monomial in about a third of the maps."""
    order = rng.randrange(1, 4)
    coeffs = ("1", "2", "3", "1/2", "2/3", "5/4")
    monos = [f"x{i}" for i in range(order)]
    if rng.random() < 0.3:
        monos.append(f"x{rng.randrange(order)}*x{rng.randrange(order)}")

    def part(const_ok):
        pool = monos + ["1"] * const_ok
        picked = rng.sample(pool, rng.randrange(1, min(3, len(pool)) + 1))
        return "+".join(f"{rng.choice(coeffs)}*{m}" for m in picked)

    return parse_rde(f"({part(True)})/({part(rng.random() < 0.8)})", order)


class TestBuildKeepsPackedP:
    """build_contraction_poly hands P over packed; its terms are made on first read."""

    @pytest.fixture
    def check(self, monkeypatch):
        handed = []
        from_packed = MultiPoly.from_packed

        def keeping(poly):
            handed.append(poly)
            return from_packed(poly)

        monkeypatch.setattr(MultiPoly, "from_packed", keeping)

        def check(spec, xbar, K):
            got = build_contraction_poly(spec, Equilibrium(xbar, spec.order), K)
            packing, ints, den = handed[-1]
            # the eager form: P's Fractions made from the build's integers at once
            eager = MultiPoly(spec.order, {e: F(c, den)
                                           for e, c in packing.unpack_terms(ints).items()})
            kept = got.packed()
            assert got._terms is None
            assert got.is_zero() == eager.is_zero()
            want = eager.packed()
            assert kept.packing.mask == want.packing.mask
            assert list(kept.terms.items()) == list(want.terms.items())
            assert kept.den == want.den
            assert got.digest() == eager.digest()
            terms = got.terms
            assert got.terms is terms and type(got) is MultiPoly
            assert list(terms.items()) == list(eager.terms.items())
            assert got == eager and hash(got) == hash(eager)
            with pytest.raises(AttributeError):
                got.terms = {}
            with pytest.raises(AttributeError):
                got.nvars = 0
            return packing.mask, kept.packing.mask

        return check

    def test_random_maps(self, check):
        # 40 maps cover every order with build layouts wider, equal and narrower
        rng = random.Random(21)
        for _ in range(40):
            spec = _random_map(rng)
            xbars = [rng.choice((F(1, 2), F(1), F(2), F(3, 2)))]
            if spec.closed_domain:
                xbars.append(F(0))
            for xbar in xbars:
                for K in (1, 2, 3, 4):
                    check(spec, xbar, K)

    def test_build_layout_narrower_than_the_engine_layout(self, check):
        spec = parse_rde("x1/(2+x1)")
        assert [check(spec, F(0), K) for K in (1, 2, 3)] == [(15, 15), (15, 31), (15, 31)]


class TestBuildMatchesFractionReference:
    def test_random_maps(self):
        rng = random.Random(59)
        for _ in range(60):
            spec = _random_map(rng)
            xbar = rng.choice((F(1, 2), F(1), F(2), F(3, 2)))
            for K in (1, 2, 3):
                want_q, want, former = _ref_build(spec, xbar, K)
                got = build_contraction_poly(spec, Equilibrium(xbar, spec.order), K)
                assert got == want == former
                assert list(got.terms) == list(want.terms)
                for c, r in zip(q_power(spec, K), want_q, strict=True):
                    assert c.num == r.num and c.den == r.den
                    assert list(c.num.terms) == list(r.num.terms)
                    assert list(c.den.terms) == list(r.den.terms)


class TestCompositionCarried:
    """A build composed on from an earlier K's `Composition`, as prove's K
    loop builds, is the build composed afresh, term for term."""

    @staticmethod
    def check(spec, xbar, Ks):
        eq = Equilibrium(xbar, spec.order)
        composition = Composition(spec)
        masks = set()
        for K in Ks:
            carried = build_contraction_poly(spec, eq, K, composition).packed()
            fresh = build_contraction_poly(spec, eq, K).packed()
            assert list(carried.terms.items()) == list(fresh.terms.items())
            assert (carried.den, carried.packing.mask) == (fresh.den, fresh.packing.mask)
            assert composition.t == K
            masks.add(composition.packing.mask)
            # a pool entry is its own first power in the memo, also once re-keyed
            firsts = [(i, v) for (i, *m), v in composition.powers.items() if m == [1]]
            assert all(v is composition.pool[i] for i, v in firsts)
        return masks

    @pytest.mark.parametrize("text", sorted({text for text, _, _ in BUILD_PINS}))
    def test_pinned_maps(self, text):
        spec = parse_rde(text)
        # x2/(2+x0+x1+x2) takes seconds at K = 5 and minutes at K = 6
        top = 4 if text == "x2/(2+x0+x1+x2)" else 6
        masks = self.check(spec, find_equilibrium(spec).value, range(spec.order, top + 1))
        assert len(masks) > 1  # the layout was widened on the way

    def test_random_maps(self):
        rng = random.Random(73)
        for _ in range(40):
            spec = _random_map(rng)
            xbar = F(0) if spec.closed_domain and rng.random() < 0.3 else \
                rng.choice((F(1, 2), F(1), F(2), F(3, 2)))
            # a third-order map's build takes seconds from K = 5 on
            self.check(spec, xbar, range(spec.order, 7 if spec.order < 3 else 5))

    def test_components_are_those_of_a_fresh_composition(self):
        spec = parse_rde("(2+x0)/(1+x1+x2)")
        composition = Composition(spec)
        for K in (1, 2, 4, 5):
            _, carried = composition.advance(K)
            _, fresh = Composition(spec).advance(K)
            assert [(list(A.items()), a, list(f.items())) for A, a, f in carried] == \
                [(list(A.items()), a, list(f.items())) for A, a, f in fresh]

    def test_no_going_back(self):
        composition = Composition(parse_rde(BENCH))
        composition.advance(3)
        with pytest.raises(ValueError, match="cannot go back"):
            composition.advance(2)
        with pytest.raises(ValueError, match="K must be >= 1"):
            Composition(parse_rde(BENCH)).advance(0)


class TestOrbit:
    """An exact orbit ends strictly farther from x̄ than it started exactly
    where P_K < 0: the identity by which prove()'s K loop skips a K."""

    @pytest.mark.parametrize("text", [
        # (x0+x1)/(3+x0) has x̄ = 0
        BENCH, "(1+2*x1)/(1+x0+x1)", "(x0+x1)/(3+x0)", "(2+x0)/(1+x1+x2)",
        "(1/2+x0)/(1+x1+x2)",
    ])
    def test_sign_agrees_with_P_on_the_grid(self, text):
        spec = parse_rde(text)
        eq = find_equilibrium(spec)
        n = spec.order
        grid = [[F(2) ** j for j in js]
                for js in itertools.product(_grid_exponents(n), repeat=n)]
        points = grid if n == 2 else grid[::7]
        R = orbit_map(Composition(spec).R)
        orbits = [Orbit(R, eq.value, w) for w in points]
        signs = Counter()
        for K in range(1, 6):
            P = build_contraction_poly(spec, eq, K).packed()
            for w, orbit in zip(points, orbits):
                negative = evaluate_packed(P, w) < 0
                assert orbit.farther(K) == negative, (w, K)
                assert len(orbit.ys) >= 2 * (n + K)
                signs[negative] += 1
        assert signs[True] and signs[False]

    def test_orbit_is_kept(self):
        orbit = Orbit(orbit_map(Composition(parse_rde(BENCH)).R), F(2), [F(1, 1024), F(2)])
        assert orbit.ys == [2, 1, 1, 1024]
        orbit.farther(3)
        # y_1 = (4 + 2^-10)/(1 + 2), and so on: one evaluation of R per step
        assert orbit.ys[4:6] == [4097, 3072] and len(orbit.ys) == 10
        kept = list(orbit.ys)
        assert [orbit.farther(K) for K in (1, 2, 3)] == [orbit.farther(K) for K in (1, 2, 3)]
        assert orbit.ys == kept

    def test_starts_in_the_open_orthant(self):
        R = orbit_map(Composition(parse_rde(BENCH)).R)
        for point in ([F(0), F(1)], [F(1), F(-1)]):
            with pytest.raises(ValueError, match="open orthant"):
                Orbit(R, F(2), point)
