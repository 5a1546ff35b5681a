import gc
import hashlib
import heapq
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from gasprover import recurrence
from gasprover.parsing import parse_poly, parse_ratfun
from gasprover.polynomial import MultiPoly, RatFun
from gasprover.recurrence import (
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

    def test_equal_specs_hash_alike(self):
        # the parser does not cancel (1+x0), so the two dens differ
        a, b = parse_rde("x0*(1+x0)/((1+x0)*(2+x0))"), parse_rde("x0/(2+x0)")
        assert a.R.den != b.R.den and a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


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
                (MultiPoly.variable(n, i), MultiPoly.constant(n, 1))
                for i in range(n - 1)
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
            assert cur[1:] == prev[:-1]

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
# insertion order included: a faster kernel must give the same terms in the
# same order, since certificate details depend on that order.
BUILD_PINS = [
    ("x2/(2+x0+x1+x2)", 3,
     "a38b80f0542fd0469855e1fadd4258b52f8e417efa563187c46b78e93014979d"),
    ("(2+x0)/(1+x1+x2)", 1,
     "9aeb67433d0ec0b769675d8f10b16009b19997b263486422bed61e1cd7f73b9a"),
    ("(2+x0)/(1+x1+x2)", 2,
     "78497a2dc61fab8f4f2485775bbdb99d3a980446ab88055e1b70f10f2c85ac7c"),
    ("(2+x0)/(1+x1+x2)", 3,
     "77d25c2123daadc3f27066582514814a665537f3707ffe80c35eff0837be9baf"),
    ("(2+x0)/(1+x1+x2)", 4,
     "3c2d544f3df70233908c008e1cf04416d46b1a8f18052d5f490a35c4adb8159d"),
    (BENCH, 5,
     "61b17b8c1e052a8965d54e676b4a4c5ad7dfa21a1f8e00357c2dcefa1d54cdf3"),
    ("(1+2*x1)/(1+x0+x1)", 2,
     "ab41c72d607501afa604f38f5129f4bede346956ed8c349dc712db3648d641f9"),
]


class TestBuildPinned:
    @pytest.mark.parametrize("text,K,sha", BUILD_PINS)
    def test_terms_in_order(self, text, K, sha):
        spec = parse_rde(text)
        p = build_contraction_poly(spec, find_equilibrium(spec), K)
        assert hashlib.sha256(repr(list(p.terms.items())).encode()).hexdigest() == sha

    def test_each_factor_power_raised_once(self, monkeypatch):
        pow_ = recurrence.pow_packed
        for text, K in (("x2/(2+x0+x1+x2)", 3), ("(2+x0)/(1+x1+x2)", 4), (BENCH, 5)):
            spec = parse_rde(text)
            eq = find_equilibrium(spec)
            for build in (lambda: build_contraction_poly(spec, eq, K),
                          lambda: q_power(spec, K)):
                raised = Counter()

                def counting(f, n):
                    raised[tuple(f.items()), n] += 1
                    return pow_(f, n)

                monkeypatch.setattr(recurrence, "pow_packed", counting)
                build()
                monkeypatch.undo()
                assert raised
                assert set(raised.values()) == {1}

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


# The Fraction composition and assembly that the integer build replaced, kept
# as the reference it must match term for term, insertion order included.


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
    result = MultiPoly.constant(nvars, 1)
    for f, mult in factors.items():
        if (f, mult) not in powers:
            powers[f, mult] = f ** mult
        result = result * powers[f, mult]
    return result


def _ref_poly_at(poly, nums, dens, degs):
    nvars = poly.nvars
    result = MultiPoly.zero(nvars)
    num_pows = [[MultiPoly.constant(nvars, 1)] for _ in range(nvars)]
    den_pows = [[MultiPoly.constant(nvars, 1)] for _ in range(nvars)]

    def power(cache, base, e):
        while len(cache) <= e:
            cache.append(cache[-1] * base)
        return cache[e]

    for exps, coeff in poly.terms.items():
        term = MultiPoly.constant(nvars, coeff)
        for i, e in enumerate(exps):
            term = term * power(num_pows[i], nums[i], e)
            term = term * power(den_pows[i], dens[i], degs[i] - e)
        result = result + term
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
        content, prim = rest.primitive()
        pool.append(prim)
        factors[prim] += 1
    else:
        content = rest.constant_term()
    return _ref_cancel(top * MultiPoly.constant(nvars, 1 / content), factors)


def _ref_q_power_factored(spec, K, powers):
    nvars = spec.order
    pool = []
    state = [(MultiPoly.variable(nvars, i), Counter()) for i in range(nvars)]
    for _ in range(K):
        state = [_ref_compose_first(spec, state, pool, powers)] + state[:-1]
    return state


def _ref_build(spec, xbar, K):
    """(the components of Q^K, P), from one composition."""
    nvars = spec.order
    powers = {}
    components = _ref_q_power_factored(spec, K, powers)
    q_power_ = [RatFun(num, _ref_expand(factors, nvars, powers))
                for num, factors in components]
    lcm = Counter()
    for _, factors in components:
        for f, mult in factors.items():
            lcm[f] = max(lcm[f], 2 * mult)
    lcm_poly = _ref_expand(lcm, nvars, powers)
    xbar_c = MultiPoly.constant(nvars, xbar)
    dist = MultiPoly.zero(nvars)
    for i in range(nvars):
        t = MultiPoly.variable(nvars, i) - xbar_c
        dist = dist + t * t
    result = dist * lcm_poly
    for num, factors in components:
        g = num - xbar_c * _ref_expand(factors, nvars, powers)
        cofactor = Counter()
        for f, mult in lcm.items():
            rem = mult - 2 * factors.get(f, 0)
            if rem:
                cofactor[f] = rem
        result = result - g * g * _ref_expand(cofactor, nvars, powers)
    return q_power_, result


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


class TestBuildMatchesFractionReference:
    def test_random_maps(self):
        rng = random.Random(59)
        for _ in range(60):
            spec = _random_map(rng)
            xbar = rng.choice((F(1, 2), F(1), F(2), F(3, 2)))
            for K in (1, 2, 3):
                want_q, want = _ref_build(spec, xbar, K)
                got = build_contraction_poly(spec, Equilibrium(xbar, spec.order), K)
                assert got == want
                assert list(got.terms) == list(want.terms)
                for c, r in zip(q_power(spec, K), want_q, strict=True):
                    assert c.num == r.num and c.den == r.den
                    assert list(c.num.terms) == list(r.num.terms)
                    assert list(c.den.terms) == list(r.den.terms)
