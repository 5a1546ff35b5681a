import random
from fractions import Fraction
from math import comb

import pytest

from gasprover.parsing import parse_poly, parse_ratfun
from gasprover.packed import Packing, divide_packed
from gasprover.polynomial import MultiPoly, RatFun, grlex_key

F = Fraction


def P(text, nvars=None):
    return parse_poly(text, nvars)


def _divide(a, b):
    """a/b by `divide_packed` on b's primitive part; None if b does not divide a."""
    packing = Packing(a.nvars, max(a.total_degree(), b.total_degree()))
    c, prim = b.primitive()
    den, ints = a._integer_terms()
    got = divide_packed(
        {packing.pack(e): v for e, v in ints},
        {packing.pack(e): int(v) for e, v in prim.terms.items()},
        packing,
    )
    if got is None:
        return None
    return MultiPoly._from_integers(a.nvars, packing.unpack_terms(got), den) * (1 / c)


def _packed(p, packing):
    return {packing.pack(e): int(c) for e, c in p.terms.items()}


class TestArith:
    def test_add_cancellation(self):
        assert P("x0+1") + P("x0-1") == P("2*x0")

    def test_difference_of_squares(self):
        assert P("x0-x1") * P("x0+x1") == P("x0^2-x1^2")

    def test_additive_identity(self):
        p = P("x0^2-x0*x1+x1^2")
        assert p + MultiPoly.zero(2) == p

    def test_nvars_mismatch(self):
        with pytest.raises(ValueError):
            P("x0", 1) + P("x1", 2)

    def test_commutative_associative_random(self):
        rng = random.Random(7)
        for _ in range(50):
            polys = [_random_poly(rng, 2) for _ in range(3)]
            a, b, c = polys
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


class TestEvaluate:
    def test_examples(self):
        p = P("x0^2-x0*x1+x1^2")
        assert p.evaluate([1, 1]) == 1
        assert p.evaluate([0, 0]) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            P("x0").evaluate([1, 2])


class TestDegreeIn:
    def test_quartic_mixed(self):
        p = P("x0^4*x1-5*x0^3*x1+10*x0^2*x1+x0+x1")
        assert p.degree_in(0) == 4
        assert p.degree_in(1) == 1

    def test_constant(self):
        assert P("7", 1).degree_in(0) == 0

    def test_zero_poly(self):
        assert MultiPoly.zero(2).degree_in(0) == 0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            P("x0").degree_in(3)


class TestShift:
    def test_example1(self):
        p = P("x0^2-x0*x1+x1^2")
        assert p.shift([1, 1]) == P("x0^2-x0*x1+x1^2+x0+x1+1")

    def test_identity_shift(self):
        p = P("x0^3-2*x0*x1")
        assert p.shift([0, 0]) == p

    def test_example2_ne(self):
        p = P("x0^4*x1-5*x0^3*x1+10*x0^2*x1+x0^2+x1")
        expected = P("x0^4*x1+x0^4-x0^3*x1-x0^3+x0^2*x1+2*x0^2+9*x0*x1+11*x0+7*x1+8")
        assert p.shift([1, 1]) == expected

    def test_evaluation_identity_random(self):
        rng = random.Random(11)
        for _ in range(100):
            p = _random_poly(rng, 2)
            mu = [_random_fraction(rng), _random_fraction(rng)]
            v = [_random_fraction(rng), _random_fraction(rng)]
            assert p.shift(mu).evaluate(v) == p.evaluate([a + b for a, b in zip(v, mu)])


class TestInvertVar:
    def test_hand_expansion(self):
        # P(1/x, y) * x^2 for P = x^2 - x y + y^2
        p = P("x0^2-x0*x1+x1^2")
        assert p.invert_var(0) == P("x1^2*x0^2-x1*x0+1")

    def test_example1_sw_equals_ne(self):
        p = P("x0^2-x0*x1+x1^2")
        sw = p.invert_var(0).invert_var(1).shift([1, 1])
        assert sw == P("x0^2-x0*x1+x1^2+x0+x1+1")

    def test_self_reciprocal(self):
        assert P("x0+1").invert_var(0) == P("1+x0")

    def test_zero_poly(self):
        assert MultiPoly.zero(2).invert_var(0) == MultiPoly.zero(2)

    def test_evaluation_identity_random(self):
        rng = random.Random(13)
        checked = 0
        while checked < 100:
            p = _random_poly(rng, 2)
            var = rng.randrange(2)
            v = [_random_fraction(rng), _random_fraction(rng)]
            if v[var] == 0:
                continue
            w = list(v)
            w[var] = 1 / w[var]
            d = p.degree_in(var)
            assert p.invert_var(var).evaluate(v) == p.evaluate(w) * v[var] ** d
            checked += 1


class TestBoxMap:
    def test_example2_s1(self):
        p_se = P("x0^4*x1+10*x0^2*x1+x0^2-5*x0*x1+x1")
        got = p_se.box_map([(F(0), F(1, 2)), (F(0), F(1, 2))])
        assert got == P("x0^4+3*x0^3+x0^2*x1+6*x0^2+4*x0*x1+20*x0+4*x1+25")

    def test_example2_s4(self):
        p_se = P("x0^4*x1+10*x0^2*x1+x0^2-5*x0*x1+x1")
        got = p_se.box_map([(F(1, 2), F(1)), (F(1, 2), F(1))])
        expected = P(
            "25/32*x0^4*x1+21/8*x0^4+10*x0^3*x1+34*x0^3+48*x0^2*x1"
            "+166*x0^2+98*x0*x1+344*x0+72*x1+256"
        )
        assert got == expected

    def test_constant_invariant(self):
        p = P("5", 2)
        assert p.box_map([(F(0), F(1)), (F(1, 3), F(2))]) == p

    def test_degenerate_box(self):
        with pytest.raises(ValueError):
            P("x0").box_map([(F(1), F(1))])

    def test_substitution_chain_identity_random(self):
        # The composed substitutions x''' = x'' + a, x'' = 1/x', x' = x + 1/(b-a)
        # recover the original evaluation pointwise.
        rng = random.Random(17)
        for _ in range(100):
            p = _random_poly(rng, 2)
            bounds = []
            for _ in range(2):
                a = F(rng.randrange(0, 4), rng.randrange(1, 5))
                b = a + F(rng.randrange(1, 5), rng.randrange(1, 5))
                bounds.append((a, b))
            v = [F(rng.randrange(1, 30), rng.randrange(1, 30)) for _ in range(2)]
            mapped = p.box_map(bounds)
            back = [1 / (x + 1 / (b - a)) + a for x, (a, b) in zip(v, bounds)]
            multiplier = F(1)
            q = p
            for i, (a, b) in enumerate(bounds):
                d = q.degree_in(i)
                multiplier *= (v[i] + 1 / (b - a)) ** d
                q = q._shift_one(i, a).invert_var(i)._shift_one(i, 1 / (b - a))
            assert mapped.evaluate(v) == p.evaluate(back) * multiplier
            assert all(a < x <= b for x, (a, b) in zip(back, bounds))


class TestDivideExact:
    def test_divides(self):
        a = P("x0^2-x1^2")
        b = P("x0-x1")
        assert _divide(a, b) == P("x0+x1")

    def test_not_divisible(self):
        assert _divide(P("x0^2+1"), P("x0+1")) is None

    def test_random_products(self):
        rng = random.Random(23)
        for _ in range(50):
            a = _random_poly(rng, 2)
            b = _random_poly(rng, 2)
            if a.is_zero() or b.is_zero():
                continue
            assert _divide(a * b, b) == a

    def test_non_integer_quotient_is_none(self):
        # 2*x0+2 divides x0+1 over Q, but not in Z[x]
        packing = Packing(1, 1)
        assert divide_packed(_packed(P("x0+1"), packing), _packed(P("2*x0+2"), packing),
                             packing) is None
        assert divide_packed(_packed(P("2*x0+2"), packing), _packed(P("x0+1"), packing),
                             packing) == {0: 2}

    def test_at_the_packing_width(self):
        # exponents that fill a field's value bits, and quotients that would
        # need a negative exponent in one field only
        packing = Packing(2, 7)
        a, b = P("x0^3-x1^4", 2), P("x0^3+2*x1^3", 2)
        product = _packed(a * b, packing)
        got = divide_packed(product, _packed(b, packing), packing)
        assert packing.unpack_terms(got) == {e: int(c) for e, c in a.terms.items()}
        assert divide_packed(_packed(P("x0^7", 2), packing),
                             _packed(P("x0^2*x1", 2), packing), packing) is None
        assert divide_packed(_packed(P("x1^7", 2), packing),
                             _packed(P("x0", 2), packing), packing) is None
        assert packing.unpack_terms(divide_packed(
            _packed(P("x0^6*x1", 2), packing), _packed(P("x1", 2), packing), packing
        )) == {(6, 0): 1}

    def test_keys_order_as_grlex(self):
        packing = Packing(3, 6)
        exps = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
        assert sorted(exps, key=packing.pack) == sorted(exps, key=grlex_key)


class TestRatFun:
    def test_positive_den_closure(self):
        a, b = "(x0+1)/(x1+2)", "x0/(x0+x1+1)"
        for combo in (f"{a} + {b}", f"{a} * ({b})"):
            assert parse_ratfun(combo, 2).has_positive_den()

    def test_den_normalized_positive_lead(self):
        r = RatFun(P("x0"), P("-2*x0-2"))
        assert r.den == P("x0+1")
        assert r.num == P("-1/2*x0")

    def test_equality(self):
        assert RatFun(P("2*x0"), P("2", 1)) == RatFun(P("x0"), P("1", 1))

    def test_equal_maps_hash_alike(self):
        assert len({parse_ratfun("x0/x0"), parse_ratfun("1")}) == 1
        assert len({parse_ratfun("0/(1+x0)"), parse_ratfun("0", 1)}) == 1

    def test_evaluate(self):
        r = RatFun(P("4+x0", 2), P("1+x1"))
        assert r.evaluate([2, 2]) == 2


class TestCanonicalForm:
    def test_graded_lex_string(self):
        p = P("1+x0+x1^2-x0*x1+x0^2")
        assert str(p) == "x0^2 - x0*x1 + x1^2 + x0 + 1"

    def test_roundtrip(self):
        rng = random.Random(29)
        for _ in range(30):
            p = _random_poly(rng, 3)
            assert parse_poly(str(p), 3) == p

    def test_digest_stable(self):
        p = P("x0^2-x0*x1+x1^2")
        q = P("x1^2+x0^2-x0*x1")
        assert p.digest() == q.digest()
        assert p.digest() != P("x0^2+x1^2").digest()


class TestPow:
    @pytest.mark.parametrize("n", range(10))
    def test_product_count(self, n, monkeypatch):
        p = P("x0-2*x1+1/3")
        products = []
        mul = MultiPoly.__mul__

        def counting(a, b):
            products.append(b)
            return mul(a, b)

        monkeypatch.setattr(MultiPoly, "__mul__", counting)
        got = p ** n
        monkeypatch.undo()
        expected = 0 if n <= 1 else n.bit_length() - 1 + bin(n).count("1") - 1
        assert len(products) == expected
        assert got == _ref_pow(p, n)
        if n == 1:
            assert got is p


# Plain Fraction term-pair loops: the reference the integer kernels must match.


def _ref_mul(a, b):
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            terms[exps] = terms.get(exps, F(0)) + c1 * c2
    return MultiPoly(a.nvars, terms)


def _ref_pow(p, n):
    result = MultiPoly.constant(p.nvars, 1)
    for _ in range(n):
        result = _ref_mul(result, p)
    return result


def _ref_shift_one(p, var, mu):
    terms = {}
    for exps, coeff in p.terms.items():
        e = exps[var]
        base = list(exps)
        for j in range(e + 1):
            base[var] = j
            key = tuple(base)
            terms[key] = terms.get(key, F(0)) + coeff * comb(e, j) * mu ** (e - j)
    return MultiPoly(p.nvars, terms)


def _ref_shift(p, offsets):
    for i, mu in enumerate(offsets):
        if mu != 0:
            p = _ref_shift_one(p, i, F(mu))
    return p


def _ref_box_map(p, bounds):
    for i, (a, b) in enumerate(bounds):
        if a != 0:
            p = _ref_shift_one(p, i, a)
        p = _ref_shift_one(p.invert_var(i), i, 1 / (b - a))
    return p


def _ref_add(a, b, sign=1):
    terms = dict(a.terms)
    for e, c in b.terms.items():
        terms[e] = terms.get(e, F(0)) + sign * c
    return MultiPoly(a.nvars, terms)


def _ref_neg(a):
    return MultiPoly(a.nvars, {e: -c for e, c in a.terms.items()})


def _ref_scale(a, c):
    return MultiPoly(a.nvars, {e: v * c for e, v in a.terms.items()})


def _ref_divide(a, b):
    """(quotient or None, quotient terms found): long division on a plain dict,
    rescanning the remainder for its grlex-leading term at every step."""
    lead_e = max(b.terms, key=lambda e: (sum(e), e))
    lead_c = b.terms[lead_e]
    quotient = {}
    remainder = dict(a.terms)
    while remainder:
        r_e = max(remainder, key=lambda e: (sum(e), e))
        q_e = tuple(x - y for x, y in zip(r_e, lead_e))
        if min(q_e, default=0) < 0:
            return None, len(quotient)
        q_c = remainder[r_e] / lead_c
        quotient[q_e] = q_c
        for e, c in b.terms.items():
            key = tuple(x + y for x, y in zip(q_e, e))
            value = remainder.get(key, F(0)) - c * q_c
            if value:
                remainder[key] = value
            else:
                del remainder[key]
    return MultiPoly(a.nvars, quotient), len(quotient)


def _assert_clean(p):
    assert all(isinstance(c, Fraction) and c != 0 for c in p.terms.values())


def _assert_matches(got, want):
    """Same terms in the same insertion order, which test details depend on."""
    assert got == want
    assert list(got.terms) == list(want.terms)
    _assert_clean(got)


def _mixed_poly(rng, nvars):
    """Random sparse polynomial with mixed denominators and signs."""
    terms = {}
    for _ in range(rng.randrange(0, 6)):
        exps = tuple(rng.randrange(0, 4) for _ in range(nvars))
        terms[exps] = F(rng.randrange(-40, 41), rng.choice((1, 2, 3, 4, 6, 7, 9, 12, 25)))
    return MultiPoly(nvars, terms)


def _kernel_cases():
    rng = random.Random(41)
    cases = []
    for nvars in range(4):
        cases += [MultiPoly.zero(nvars), MultiPoly.constant(nvars, F(-5, 3))]
        cases += [_mixed_poly(rng, nvars) for _ in range(25)]
    return rng, cases


class TestKernelsMatchFractionReference:
    def test_mul_and_pow(self):
        rng, cases = _kernel_cases()
        for a in cases:
            b = _mixed_poly(rng, a.nvars)
            _assert_matches(a * b, _ref_mul(a, b))
            _assert_matches(b * a, _ref_mul(b, a))
            n = rng.randrange(0, 5)
            got = a ** n
            assert got == _ref_pow(a, n)
            _assert_clean(got)

    def test_shift_one_shift_and_box_map(self):
        rng, cases = _kernel_cases()
        for p in cases:
            for var in range(p.nvars):
                mu = F(rng.randrange(-9, 10), rng.randrange(1, 8))
                _assert_matches(p._shift_one(var, mu), _ref_shift_one(p, var, mu))
            offsets = [F(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(p.nvars)]
            _assert_matches(p.shift(offsets), _ref_shift(p, offsets))
            bounds = []
            for _ in range(p.nvars):
                a = F(rng.randrange(0, 5), rng.randrange(1, 6))
                bounds.append((a, a + F(rng.randrange(1, 9), rng.randrange(1, 6))))
            _assert_matches(p.box_map(bounds), _ref_box_map(p, bounds))

    def test_add_sub_neg_and_scalar_mul(self):
        rng, cases = _kernel_cases()
        for a in cases:
            b = _mixed_poly(rng, a.nvars)
            for x, y in ((a, b), (b, a), (a, a), (a, -a)):
                _assert_matches(x + y, _ref_add(x, y))
                _assert_matches(x - y, _ref_add(x, y, -1))
            _assert_matches(-a, _ref_neg(a))
            for c in (0, 1, -3, F(-7, 4), F(0)):
                _assert_matches(a * c, _ref_scale(a, F(c)))
                _assert_matches(c * a, _ref_scale(a, F(c)))
            assert (a * 0).terms == {}

    def test_divide_exact(self):
        rng, cases = _kernel_cases()
        late = 0
        for b in cases:
            if b.is_zero():
                continue
            a = _mixed_poly(rng, b.nvars)
            exact = a * b
            got = _divide(exact, b)
            want, _ = _ref_divide(exact, b)
            _assert_matches(got, want)
            assert got == a
            zero = MultiPoly.zero(b.nvars)
            assert _divide(zero, b) == zero
            if b.total_degree() == 0:
                continue
            # a constant left over fails only once every quotient term of the
            # exact part has been taken
            perturbed = exact + 1
            assert _divide(perturbed, b) is None
            want, steps = _ref_divide(perturbed, b)
            assert want is None
            late += steps >= 3
        assert late >= 10

    def test_mul_at_the_packing_width(self):
        # exponent sums that fill a whole field of the packed key, and
        # 0-variable and constant operands
        pairs = [
            (P("x0^255"), P("x0")),
            (P("x0^256", 2), P("x1^3", 2)),
            (P("x0^100+x1^100"), P("x0^155-3*x1^155+x0")),
            (P("x0^127*x1-x1^128"), P("x0^128+2*x1^127")),
            (P("x0^3+1/2"), P("1+x0^4")),
            (MultiPoly.constant(0, F(2, 3)), MultiPoly.constant(0, -5)),
            (MultiPoly.zero(0), MultiPoly.constant(0, 7)),
            (MultiPoly.constant(3, F(-1, 2)), P("x0^7*x2-x1+1", 3)),
            (MultiPoly.constant(2, 4), MultiPoly.constant(2, F(1, 4))),
        ]
        for a, b in pairs:
            _assert_matches(a * b, _ref_mul(a, b))
            _assert_matches(b * a, _ref_mul(b, a))
        assert P("x0^255") * P("x0") == P("x0^256")
        assert P("x0^256", 2) * P("x1^3", 2) == P("x0^256*x1^3")
        assert (P("x0^100+x1^100") * P("x0^155+x1^155")).terms == {
            (255, 0): 1, (100, 155): 1, (155, 100): 1, (0, 255): 1,
        }

    def test_cancellation_leaves_no_zero_term(self):
        got = P("x0-x1") * P("x0+x1")
        assert got == _ref_mul(P("x0-x1"), P("x0+x1")) == P("x0^2-x1^2")
        assert set(got.terms) == {(2, 0), (0, 2)}
        _assert_clean(got)
        shifted = P("x0^2-2*x0+1/2*x1+1", 2)._shift_one(0, F(1))
        assert shifted == P("x0^2+1/2*x1")
        assert set(shifted.terms) == {(2, 0), (0, 1)}
        _assert_clean(shifted)
        assert (P("x0-x1") * MultiPoly.zero(2)).terms == {}


def _random_fraction(rng):
    return Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))


def _random_poly(rng, nvars, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        exps = tuple(rng.randrange(0, max_exp + 1) for _ in range(nvars))
        terms[exps] = _random_fraction(rng)
    return MultiPoly(nvars, terms)
