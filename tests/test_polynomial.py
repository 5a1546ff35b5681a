import hashlib
import operator
import random
import sys
from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm

import pytest

from gasprover import packed, parsing
from gasprover.parsing import parse_poly, parse_ratfun
from gasprover.packed import (PackedPoly, Packing, add_packed, decimal_int, decimal_str,
                              divide_packed, invert_packed, mul_packed, pow_packed,
                              power_by_squaring, shift_packed, signed_content, sqr_packed)
from gasprover.polynomial import MultiPoly, RatFun, digest_packed
from gasprover.recurrence import build_contraction_poly, find_equilibrium, parse_rde

F = Fraction


def P(text, nvars=None):
    return parse_poly(text, nvars)


def _over(polys, degree):
    """(a packing for `degree`, a common denominator D, each of `polys` as
    integers over D on its keys): the operands of the integer kernels."""
    packing = Packing(polys[0].nvars, degree)
    den = lcm(*[c.denominator for p in polys for c in p.terms.values()])
    return packing, den, [{packing.pack(e): int(c * den) for e, c in p.terms.items()}
                          for p in polys]


def _unpacked(packing, terms, den):
    """A kernel's integer `terms` over `den` as a MultiPoly, in the kernel's
    order; the kernel must have dropped its zero coefficients."""
    assert 0 not in terms.values()
    return MultiPoly(packing.nvars, {e: F(c, den) for e, c in packing.unpack_terms(terms).items()})


def _mul(a, b):
    """a*b by `mul_packed`, a the outer loop."""
    packing, den, (x, y) = _over((a, b), a.total_degree() + b.total_degree())
    return _unpacked(packing, mul_packed(x, y), den * den)


def _pow(a, n):
    """a**n (n >= 1) by `pow_packed`."""
    packing, den, (x,) = _over((a,), n * a.total_degree())
    return _unpacked(packing, pow_packed(x, n), den ** n)


def _add(a, b, scale=1):
    """a + scale*b (scale an int) by `add_packed`."""
    packing, den, (x, y) = _over((a, b), max(a.total_degree(), b.total_degree()))
    return _unpacked(packing, add_packed(x, y, scale), den)


def _divide(a, b):
    """a/b by `divide_packed` on b's primitive part; None if b does not divide a."""
    packing, _, (a_ints, b_ints) = _over((a, b), max(a.total_degree(), b.total_degree()))
    g = signed_content(b_ints)
    got = divide_packed(a_ints, {k: v // g for k, v in b_ints.items()}, packing)
    if got is None:
        return None
    return _unpacked(packing, got, g)


def _packed(p, packing):
    return {packing.pack(e): int(c) for e, c in p.terms.items()}


def _one_hot(nvars, var, mu):
    """The offsets of `_shift` that move x_var alone, by mu."""
    return [mu if i == var else F(0) for i in range(nvars)]


def _shift(p, offsets):
    """x_i -> x_i + offsets[i] by `shift_packed`, axis by axis, zero offsets skipped."""
    poly = p.packed()
    for i, mu in enumerate(map(F, offsets)):
        if mu:
            poly = shift_packed(poly, i, mu.numerator, mu.denominator)
    return MultiPoly.from_packed(poly)


def _invert(p, var):
    """x_var -> 1/x_var cleared by x_var^degree_in(var), by `invert_packed`."""
    return MultiPoly.from_packed(invert_packed(p.packed(), var))


class TestArith:
    """The ring laws of the package's one algebra, the integer kernels."""

    def test_add_cancellation(self):
        assert _add(P("x0+1"), P("x0-1")) == P("2*x0")

    def test_difference_of_squares(self):
        assert _mul(P("x0-x1"), P("x0+x1")) == P("x0^2-x1^2")

    def test_additive_identity(self):
        p = P("x0^2-x0*x1+x1^2")
        assert _add(p, MultiPoly(2, {})) == p

    def test_nvars_mismatch(self):
        with pytest.raises(ValueError, match="variable count mismatch: 1 vs 2"):
            RatFun(P("x0", 1), P("x1", 2))

    def test_commutative_associative_random(self):
        rng = random.Random(7)
        for _ in range(50):
            polys = [_random_poly(rng, 2) for _ in range(3)]
            a, b, c = polys
            assert _add(a, b) == _add(b, a)
            assert _mul(a, b) == _mul(b, a)
            assert _add(_add(a, b), c) == _add(a, _add(b, c))
            assert _mul(_mul(a, b), c) == _mul(a, _mul(b, c))
            assert _mul(a, _add(b, c)) == _add(_mul(a, b), _mul(a, c))


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
        assert MultiPoly(2, {}).degree_in(0) == 0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            P("x0").degree_in(3)


class TestShift:
    def test_example1(self):
        p = P("x0^2-x0*x1+x1^2")
        assert _shift(p, [1, 1]) == P("x0^2-x0*x1+x1^2+x0+x1+1")

    def test_identity_shift(self):
        p = P("x0^3-2*x0*x1")
        assert _shift(p, [0, 0]) == p

    def test_example2_ne(self):
        p = P("x0^4*x1-5*x0^3*x1+10*x0^2*x1+x0^2+x1")
        expected = P("x0^4*x1+x0^4-x0^3*x1-x0^3+x0^2*x1+2*x0^2+9*x0*x1+11*x0+7*x1+8")
        assert _shift(p, [1, 1]) == expected

    def test_evaluation_identity_random(self):
        rng = random.Random(11)
        for _ in range(100):
            p = _random_poly(rng, 2)
            mu = [_random_fraction(rng), _random_fraction(rng)]
            v = [_random_fraction(rng), _random_fraction(rng)]
            assert _shift(p, mu).evaluate(v) == p.evaluate([a + b for a, b in zip(v, mu)])


class TestInvertVar:
    def test_hand_expansion(self):
        # P(1/x, y) * x^2 for P = x^2 - x y + y^2
        p = P("x0^2-x0*x1+x1^2")
        assert _invert(p, 0) == P("x1^2*x0^2-x1*x0+1")

    def test_example1_sw_equals_ne(self):
        p = P("x0^2-x0*x1+x1^2")
        sw = _shift(_invert(_invert(p, 0), 1), [1, 1])
        assert sw == P("x0^2-x0*x1+x1^2+x0+x1+1")

    def test_self_reciprocal(self):
        assert _invert(P("x0+1"), 0) == P("1+x0")

    def test_zero_poly(self):
        assert _invert(MultiPoly(2, {}), 0) == MultiPoly(2, {})

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
            assert _invert(p, var).evaluate(v) == p.evaluate(w) * v[var] ** d
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
                q = _invert(_shift(q, _one_hot(2, i, a)), i)
                q = _shift(q, _one_hot(2, i, 1 / (b - a)))
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
            assert _divide(_ref_mul(a, b), b) == a

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
        product = _packed(_ref_mul(a, b), packing)
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
        # grlex: total degree first, then the exponents lexicographically, x0 first
        assert sorted(exps, key=packing.pack) == sorted(exps, key=lambda e: (sum(e), e))


class TestRatFun:
    def test_positive_den_closure(self):
        a, b = "(x0+1)/(x1+2)", "x0/(x0+x1+1)"
        for combo in (f"{a} + {b}", f"{a} * ({b})"):
            assert all(c > 0 for c in parse_ratfun(combo, 2).den.terms.values())

    def test_den_normalized_positive_lead(self):
        r = RatFun(P("x0"), P("-2*x0-2"))
        assert r.den == P("x0+1")
        assert r.num == P("-1/2*x0")

    def test_rational_den_scaled_in_order(self):
        r = RatFun(P("x0+2"), P("2/3*x0+4/3"))
        assert list(r.den.terms.items()) == [((1,), 1), ((0,), 2)]
        assert list(r.num.terms.items()) == [((1,), Fraction(3, 2)), ((0,), 3)]

    def test_primitive_den_of_positive_lead_is_not_scaled(self):
        num, den = P("x0/2"), P("x0+1")
        r = RatFun(num, den)
        assert r.num is num and r.den is den

    def test_evaluate(self):
        r = RatFun(P("4+x0", 2), P("1+x1"))
        assert r.evaluate([2, 2]) == 2

    @pytest.mark.parametrize("num, den", [("x0", "-2*x0"), ("1", "-x0"), ("x0", "-2")])
    def test_one_term_den_primitive_of_positive_lead(self, num, den):
        num, den = P(num, 1), P(den, 1)
        r = RatFun(num, den)
        _, ints, d = r.den.packed()
        assert d == 1 and signed_content(ints) == 1
        point = [F(3, 5)]
        assert r.evaluate(point) == num.evaluate(point) / den.evaluate(point)

    def test_str_over_negative_constant_den(self):
        r = RatFun(P("x0"), P("-2", 1))
        assert str(r) == "-1/2*x0"
        assert r.evaluate([F(3)]) == F(-3, 2) == parse_poly(str(r), 1).evaluate([F(3)])

    def test_random_den_primitive_of_positive_lead(self):
        """Integer num and den, one-term dens and dens of negative lead among
        them: den is primitive with a positive grlex lead, and the value is
        num/den."""
        rng = random.Random(61)

        def integer_poly(nvars, max_terms):
            scale = rng.choice([1, 2, 6, -1, -4])
            return MultiPoly(nvars, {
                tuple(rng.randrange(4) for _ in range(nvars)): scale * rng.randint(-9, 9)
                for _ in range(rng.randint(1, max_terms))})

        seen = Counter()
        for _ in range(400):
            nvars = rng.randint(1, 3)
            num, den = integer_poly(nvars, 4), integer_poly(nvars, 3)
            if den.is_zero():
                continue
            _, den_ints, _ = den.packed()
            seen["one term"] += len(den_ints) == 1
            seen["negative lead"] += den_ints[max(den_ints)] < 0
            r = RatFun(num, den)
            _, ints, d = r.den.packed()
            assert d == 1 and signed_content(ints) == 1
            for _ in range(3):
                point = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nvars)]
                if den.evaluate(point) != 0:
                    assert r.evaluate(point) == num.evaluate(point) / den.evaluate(point)
        assert seen["one term"] > 50 and seen["negative lead"] > 50


class TestCanonicalForm:
    def test_graded_lex_string(self):
        p = P("1+x0+x1^2-x0*x1+x0^2")
        assert str(p) == "x0^2 - x0*x1 + x1^2 + x0 + 1"

    def test_roundtrip(self):
        rng = random.Random(29)
        for _ in range(30):
            p = _random_poly(rng, 3)
            assert parse_poly(str(p), 3) == p

    def test_zero_over_negative_den_is_the_zero(self):
        zero = MultiPoly(1, {})
        for p in (parse_poly("(x0-x0)/(-1)"),
                  MultiPoly.from_packed(PackedPoly(Packing(1, 0), {}, -3))):
            assert p == zero and hash(p) == hash(zero)
            assert p.packed().den == 1

    def test_digest_stable(self):
        p = P("x0^2-x0*x1+x1^2")
        q = P("x1^2+x0^2-x0*x1")
        assert p.digest() == q.digest()
        assert p.digest() != P("x0^2+x1^2").digest()

    def test_packed_digest_matches_its_formula(self):
        # "nvars=<n>;" then "e0,e1,..:c" per term in descending key order, c
        # the reduced Fraction coefficient/den; over denominators 1 and > 1
        # and coefficients of both signs, small and large
        rng = random.Random(211)
        for _ in range(300):
            nvars = rng.randrange(1, 5)
            packing = Packing(nvars, rng.randrange(1, 40))
            terms = {}
            for _ in range(rng.randrange(1, 30)):
                budget, exps = packing.mask // 2, []
                for _ in range(nvars):
                    exps.append(rng.randrange(0, budget + 1))
                    budget -= exps[-1]
                c = rng.choice((1, -1)) * rng.choice((rng.randrange(1, 20), rng.randrange(1, 10 ** 40)))
                terms[packing.pack(exps)] = c
            den = rng.choice((1, rng.randrange(2, 50), 6 * rng.randrange(1, 10 ** 20)))
            parts = [",".join(map(str, packing.exponents(k))) + f":{Fraction(terms[k], den)}"
                     for k in sorted(terms, reverse=True)]
            canon = f"nvars={nvars};" + ";".join(parts)
            want = hashlib.sha256(canon.encode()).hexdigest()
            poly = PackedPoly(packing, terms, den)
            assert digest_packed(poly) == want == _former_digest(poly)
        for den in (1, 6):
            poly = PackedPoly(Packing(0, 1), {0: -4}, den)
            assert digest_packed(poly) == _former_digest(poly)


def _former_digest(poly):
    """digest_packed as it was, one term's string at a time: the reference for
    the column-wise one, which must give the same bytes."""
    packing, terms, den = poly
    shifts, mask = packing.shifts, packing.mask
    field = [str(e) for e in range(mask + 1)]
    parts = []
    for k in sorted(terms, reverse=True):
        c = terms[k]
        exps = ",".join([field[(k >> s) & mask] for s in shifts])
        if den == 1:
            parts.append(f"{exps}:{c}")
            continue
        g = gcd(c, den)
        parts.append(f"{exps}:{c // g}" if g == den else f"{exps}:{c // g}/{den // g}")
    canon = f"nvars={poly.nvars};" + ";".join(parts)
    return hashlib.sha256(canon.encode()).hexdigest()


class TestPow:
    """Square-and-multiply: n.bit_length() - 1 squarings and popcount(n) - 1
    further products, in `pow_packed` (n >= 1) and in the parser's power."""

    @pytest.mark.parametrize("n", range(10))
    def test_product_count(self, n, monkeypatch):
        p = P("x0-2*x1+1/3")
        calls = Counter()

        def counting(module, name):
            kernel = getattr(module, name)

            def run(*args):
                calls[name] += 1
                return kernel(*args)

            monkeypatch.setattr(module, name, run)

        counting(packed, "sqr_packed")
        counting(packed, "mul_packed")
        counting(parsing, "_times")
        squarings, products = max(n.bit_length() - 1, 0), max(bin(n).count("1") - 1, 0)
        want = _ref_pow(p, n)
        if n:
            packing, den, (x,) = _over((p,), n * p.total_degree())
            got = pow_packed(x, n)
            assert calls == Counter(sqr_packed=squarings, mul_packed=products)
            assert (got is x) == (n == 1)
            _assert_matches(_unpacked(packing, got, den ** n), want)
        calls.clear()
        got = parsing._Parser([], 2).power({(1, 0): 3, (0, 1): -6, (0, 0): 1}, n)
        assert calls == Counter(_times=squarings + products)
        assert MultiPoly(2, got) == _ref_scale(want, 3 ** n)


    @pytest.mark.parametrize("n", [0, -1])
    def test_no_power_below_one(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            pow_packed({0: 3}, n)
        with pytest.raises(ValueError, match="n >= 1"):
            power_by_squaring(3, n, operator.mul)


class TestDecimal:
    """str() and int() of the package's exact numbers, also past the
    interpreter's limit on decimal digits, which the package leaves as it is."""

    def test_str_and_int_themselves_below_the_limit(self):
        rng = random.Random(61)
        values = [0, 1, -1, 10 ** 599, 10 ** 600, 1 - 10 ** 600]
        values += [rng.randrange(-10 ** d, 10 ** d) for d in (1, 20, 599, 600, 601, 1300, 4300)]
        for n in values:
            assert decimal_str(n) == str(n)
            assert decimal_int(str(n)) == n
            x = F(n, rng.randrange(1, 10 ** 50))
            assert decimal_str(x) == str(x)
        assert (decimal_int("+17"), decimal_int("-0"), decimal_int("007")) == (17, 0, 7)
        for text in ("", "-", "+-1", "12a"):
            with pytest.raises(ValueError):
                decimal_int(text)

    def test_past_the_limit(self):
        rng = random.Random(67)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        texts = ["1" + "0" * 5000 + "7", "-" + "9" * 9000]
        texts += [str(rng.randrange(1, 10)) + "".join(rng.choices("0123456789", k=k))
                  for k in (4300, 4301, 12073)]
        for text in texts:
            n = decimal_int(text)
            if limit:
                with pytest.raises(ValueError):
                    str(n)
            assert decimal_str(n) == text
            digits = text.lstrip("-")
            assert abs(n) % 10 ** 50 == int(digits[-50:])
            assert abs(n) // 10 ** (len(digits) - 50) == int(digits[:50])
            assert (n < 0) == text.startswith("-")
            assert decimal_str(F(1, abs(n))) == "1/" + digits
            x = F(n, 10 ** 700 + 1)
            num, den = decimal_str(x).split("/")
            assert F(decimal_int(num), decimal_int(den)) == x

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="the interpreter has no limit on decimal digits")
    def test_at_the_least_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            text = "3" * 700
            n = decimal_int(text)
            assert decimal_str(n) == text
        finally:
            sys.set_int_max_str_digits(old)
        assert str(n) == text


# Plain Fraction term-pair loops: the reference the integer kernels must match.


def _ref_mul(a, b):
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            terms[exps] = terms.get(exps, F(0)) + c1 * c2
    return MultiPoly(a.nvars, terms)


def _ref_pow(p, n):
    """p**n by square-and-multiply on `_ref_mul`: the terms, in the order,
    that `pow_packed` makes."""
    result = MultiPoly(p.nvars, {(0,) * p.nvars: 1})
    while n:
        if n & 1:
            result = _ref_mul(result, p)
        n >>= 1
        if n:
            p = _ref_mul(p, p)
    return result


def _ref_evaluate(p, point):
    total = F(0)
    for exps, coeff in p.terms.items():
        for x, e in zip(point, exps):
            coeff *= F(x) ** e
        total += coeff
    return total


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


def _ref_invert_var(p, var):
    d = max((e[var] for e in p.terms), default=0)
    terms = {}
    for exps, coeff in p.terms.items():
        new = list(exps)
        new[var] = d - exps[var]
        terms[tuple(new)] = coeff
    return MultiPoly(p.nvars, terms)


def _ref_box_map(p, bounds):
    for i, (a, b) in enumerate(bounds):
        if a != 0:
            p = _ref_shift_one(p, i, a)
        p = _ref_shift_one(_ref_invert_var(p, i), i, 1 / (b - a))
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
        cases += [MultiPoly(nvars, {}), MultiPoly(nvars, {(0,) * nvars: F(-5, 3)})]
        cases += [_mixed_poly(rng, nvars) for _ in range(25)]
    return rng, cases


class TestKernelsMatchFractionReference:
    def test_mul_and_pow(self):
        rng, cases = _kernel_cases()
        for a in cases:
            b = _mixed_poly(rng, a.nvars)
            _assert_matches(_mul(a, b), _ref_mul(a, b))
            _assert_matches(_mul(b, a), _ref_mul(b, a))
            n = rng.randrange(1, 5)
            _assert_matches(_pow(a, n), _ref_pow(a, n))

    def test_shift_one_shift_and_box_map(self):
        rng, cases = _kernel_cases()
        for p in cases:
            for var in range(p.nvars):
                mu = F(rng.randrange(-9, 10), rng.randrange(1, 8))
                one_axis = _one_hot(p.nvars, var, mu)
                _assert_matches(_shift(p, one_axis), _ref_shift(p, one_axis))
                _assert_matches(_invert(p, var), _ref_invert_var(p, var))
            offsets = [F(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(p.nvars)]
            _assert_matches(_shift(p, offsets), _ref_shift(p, offsets))
            bounds = []
            for _ in range(p.nvars):
                a = F(rng.randrange(0, 5), rng.randrange(1, 6))
                bounds.append((a, a + F(rng.randrange(1, 9), rng.randrange(1, 6))))
            _assert_matches(p.box_map(bounds), _ref_box_map(p, bounds))

    def test_evaluate_and_packed_digest(self):
        rng, cases = _kernel_cases()
        for p in cases:
            for _ in range(3):
                point = [rng.choice((0, 1, -2, F(rng.randrange(-9, 10), rng.randrange(1, 8))))
                         for _ in range(p.nvars)]
                got = p.evaluate(point)
                assert type(got) is Fraction and got == _ref_evaluate(p, point)
            assert digest_packed(p.packed()) == p.digest()
            assert MultiPoly.from_packed(p.packed()) == p
            # from_packed divides out a common factor and re-keys to p's layout
            packed = p.packed()
            wide = Packing(p.nvars, 2 * packed.packing.mask + 1)
            exps = packed.packing.unpack_terms(packed.terms)
            scaled = PackedPoly(wide, {wide.pack(e): 6 * c for e, c in exps.items()}, 6 * packed.den)
            kept = MultiPoly.from_packed(scaled).packed()
            assert kept.packing.mask == packed.packing.mask and kept.den == packed.den
            assert list(kept.terms.items()) == list(packed.terms.items())
            # equal polynomials compare and hash equal whichever constructor
            # made them, and == and hash read their integers: no Fraction terms
            fresh = MultiPoly(p.nvars, dict(p.terms))
            widened = PackedPoly(wide, {wide.pack(e): c for e, c in exps.items()}, packed.den)
            copies = [MultiPoly(p.nvars, dict(p.terms)), parse_poly(str(p), p.nvars),
                      MultiPoly.from_packed(scaled), MultiPoly.from_packed(widened)]
            for q in copies:
                assert q == fresh and fresh == q and hash(q) == hash(fresh)
                assert q._terms is None
            assert fresh._terms is None
            twice = PackedPoly(packed.packing, {k: 2 * c for k, c in packed.terms.items()},
                               packed.den)
            assert (MultiPoly.from_packed(twice) == fresh) == p.is_zero()
            assert MultiPoly(p.nvars + 1, {e + (0,): c for e, c in p.terms.items()}) != fresh
            with pytest.raises(TypeError):
                p.terms[(0,) * p.nvars] = F(1)
        # a witness of the third-order map's K = 3 polynomial (223 terms)
        spec = parse_rde("(2+x0)/(1+x1+x2)")
        big = build_contraction_poly(spec, find_equilibrium(spec), 3)
        point = [F(1, 1024), F(3, 7), F(1000, 3)]
        assert big.evaluate(point) == _ref_evaluate(big, point)

    def test_add_sub_neg_and_scalar_mul(self):
        # add_packed(a, b, scale) is a + scale*b; from no terms, -b or scale*b
        rng, cases = _kernel_cases()
        for a in cases:
            b = _mixed_poly(rng, a.nvars)
            for x, y in ((a, b), (b, a), (a, a), (a, _ref_neg(a))):
                _assert_matches(_add(x, y), _ref_add(x, y))
                _assert_matches(_add(x, y, -1), _ref_add(x, y, -1))
            zero = MultiPoly(a.nvars, {})
            _assert_matches(_add(zero, a, -1), _ref_neg(a))
            for c in (0, 1, -3, 7):
                _assert_matches(_add(zero, a, c), _ref_scale(a, F(c)))
                _assert_matches(_add(a, zero, c), a)
            assert _add(zero, a, 0).terms == {}

    def test_divide_exact(self):
        rng, cases = _kernel_cases()
        late = 0
        for b in cases:
            if b.is_zero():
                continue
            a = _mixed_poly(rng, b.nvars)
            exact = _ref_mul(a, b)
            got = _divide(exact, b)
            want, _ = _ref_divide(exact, b)
            _assert_matches(got, want)
            assert got == a
            zero = MultiPoly(b.nvars, {})
            assert _divide(zero, b) == zero
            if b.total_degree() == 0:
                continue
            # a constant left over fails only once every quotient term of the
            # exact part has been taken
            perturbed = _ref_add(exact, MultiPoly(b.nvars, {(0,) * b.nvars: 1}))
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
            (MultiPoly(0, {(): F(2, 3)}), MultiPoly(0, {(): -5})),
            (MultiPoly(0, {}), MultiPoly(0, {(): 7})),
            (MultiPoly(3, {(0, 0, 0): F(-1, 2)}), P("x0^7*x2-x1+1", 3)),
            (MultiPoly(2, {(0, 0): 4}), MultiPoly(2, {(0, 0): F(1, 4)})),
        ]
        for a, b in pairs:
            _assert_matches(_mul(a, b), _ref_mul(a, b))
            _assert_matches(_mul(b, a), _ref_mul(b, a))
        assert _mul(P("x0^255"), P("x0")) == P("x0^256")
        assert _mul(P("x0^256", 2), P("x1^3", 2)) == P("x0^256*x1^3")
        assert _mul(P("x0^100+x1^100"), P("x0^155+x1^155")).terms == {
            (255, 0): 1, (100, 155): 1, (155, 100): 1, (0, 255): 1,
        }

    def test_square_is_the_product_by_itself(self):
        # the terms of mul_packed(a, a) in its order, from half the pairs
        rng, cases = _kernel_cases()
        cancelling = P("x0^2+2*x0*x1-2*x1^2")  # at x0^2*x1^2: 2^2 + 2*1*(-2) = 0
        for p in cases + [cancelling, P("(x0-x1+3*x2)^3")]:
            terms = p.packed().terms
            assert list(sqr_packed(terms).items()) == list(mul_packed(terms, terms).items())
        packing, terms, _ = cancelling.packed()
        assert packing.unpack_terms(sqr_packed(terms)) == {
            (4, 0): 1, (3, 1): 4, (1, 3): -8, (0, 4): 4}

    def test_cancellation_leaves_no_zero_term(self):
        got = _mul(P("x0-x1"), P("x0+x1"))
        assert got == _ref_mul(P("x0-x1"), P("x0+x1")) == P("x0^2-x1^2")
        assert set(got.terms) == {(2, 0), (0, 2)}
        _assert_clean(got)
        shifted = _shift(P("x0^2-2*x0+1/2*x1+1", 2), [F(1), F(0)])
        assert shifted == P("x0^2+1/2*x1")
        assert set(shifted.terms) == {(2, 0), (0, 1)}
        _assert_clean(shifted)
        assert _mul(P("x0-x1"), MultiPoly(2, {})).terms == {}
        assert _add(P("x0-x1"), P("x1-x0")).terms == {}


def _random_fraction(rng):
    return Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))


def _random_poly(rng, nvars, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        exps = tuple(rng.randrange(0, max_exp + 1) for _ in range(nvars))
        terms[exps] = _random_fraction(rng)
    return MultiPoly(nvars, terms)
