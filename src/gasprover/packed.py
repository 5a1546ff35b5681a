"""Integer polynomials on packed exponents, for long exact computations.

Such a polynomial is a plain dict from a packed exponent int to a non-zero
int coefficient.  A `Packing` maps exponent vectors to keys whose integer
order is grlex order and whose sum is the key of the summed exponents.  The
kernels are `mul_packed`, the one term-pair product loop, `sqr_packed`,
which visits each unordered pair of terms once, `pow_packed`, `add_packed`
and `divide_packed`, exact division in Z[x] with the remainder updated in
place and leading terms taken from a heap of keys.  With the parser's
product and power, they are all the polynomial arithmetic of the package.
`signed_content` is the one rule that makes such a polynomial primitive with
a positive grlex lead.

A `PackedPoly` is such a dict over one positive denominator, with its layout:
a polynomial over Q.  Its kernels are the variable substitutions of the
positivity prover: `shift_packed`, the Taylor shift x_i -> x_i + p/q, which
moves keys by multiples of `units[i]`; `invert_packed`, x_i -> 1/x_i cleared
by x_i^deg; and `box_map_packed`, which composes the two.  None of them
raises the degree in any one variable, so a layout sized for the sum of
those degrees holds every polynomial they derive.  The one digest and the one
exact evaluation, of `MultiPoly`s too, are `digest_packed` and `evaluate_packed`.
`decimal_str` and `decimal_int` are str() and int() of the package's exact
numbers, also past the interpreter's limit on decimal digits.

Each kernel fixes the order of the terms it returns, and none changes its
operands.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import repeat
from math import comb, gcd
from operator import mul
from typing import NamedTuple, Sequence

# The interpreter's own SHA-256, as `random` takes its sha512: `hashlib`
# would load OpenSSL's `_hashlib`, a few megabytes, for the one digest.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

Exponents = tuple[int, ...]


class Packing:
    """Exponent vectors of `nvars` variables packed into ints, up to `max_degree`.

    A key has one field per variable below a field holding the total degree,
    x0 in the highest of them, so integer order on keys is grlex order.  Each
    field is one bit wider than `max_degree` needs: while no total degree
    exceeds `max_degree`, the sum of two keys is the key of the summed
    exponents, and the top (guard) bit of every field is clear.  `units[i]`
    is the key of x_i, and `key >> top` is a key's total degree.
    """

    __slots__ = ("nvars", "shifts", "units", "mask", "top", "guard")

    def __init__(self, nvars: int, max_degree: int):
        self.nvars = nvars
        width = max_degree.bit_length() + 1
        self.top = nvars * width
        self.shifts = range(self.top - width, -1, -width)
        self.units = [(1 << self.top) | (1 << s) for s in self.shifts]
        self.mask = (1 << width) - 1
        self.guard = sum(1 << (s + width - 1) for s in range(0, self.top + 1, width))

    def pack(self, exps: Exponents) -> int:
        return sum(map(mul, exps, self.units))

    def exponents(self, key: int) -> list[int]:
        return [(key >> s) & self.mask for s in self.shifts]

    def degree_in(self, terms: dict[int, int], var: int) -> int:
        """The largest exponent of x_var in `terms`; 0 for no terms."""
        s, mask = self.shifts[var], self.mask
        return max([(k >> s) & mask for k in terms], default=0)

    def unpack_terms(self, packed: dict[int, int]) -> dict[Exponents, int]:
        """The same terms, in the same order, keyed by exponent tuples."""
        shifts, mask = self.shifts, self.mask
        return {tuple([(k >> s) & mask for s in shifts]): c for k, c in packed.items()}


def drop_zeros(terms: dict) -> dict:
    """`terms` without its zero coefficients, deleted in place."""
    for k in [k for k, c in terms.items() if not c]:
        del terms[k]
    return terms


def signed_content(terms: dict[int, int]) -> int:
    """The gcd of non-empty integer `terms`, negative if their grlex lead, the
    term at the largest key, is."""
    g = gcd(*terms.values())
    return -g if terms[max(terms)] < 0 else g


def mul_packed(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product; terms in the order the loop meets them, a outer and b inner."""
    inner = list(b.items())
    product: dict[int, int] = {}
    get = product.get
    for k1, c1 in a.items():
        for k2, c2 in inner:
            k = k1 + k2
            product[k] = get(k, 0) + c1 * c2
    return drop_zeros(product)


def sqr_packed(a: dict[int, int]) -> dict[int, int]:
    """a*a with the terms, in the order, of `mul_packed(a, a)`, from half its pairs.

    Term i meets itself and then each later term j once, doubled.  The pair
    of mul_packed's loop that first makes a key is the least (i, j) making
    it, and i <= j there, since (j, i) makes the same key; that pair comes
    first here too, so every key is inserted at the same place.
    """
    items = list(a.items())
    product: dict[int, int] = {}
    get = product.get
    for i, (k1, c1) in enumerate(items, 1):
        k = k1 + k1
        product[k] = get(k, 0) + c1 * c1
        c1 += c1
        for k2, c2 in items[i:]:
            k = k1 + k2
            product[k] = get(k, 0) + c1 * c2
    return drop_zeros(product)


def power_by_squaring(base, n: int, times, square=None):
    """base**n for n >= 1: square-and-multiply with `times` as the product
    and `square`, by default `times(b, b)`, as the square.  ValueError for
    n < 1, which has no product to return."""
    if n < 1:
        raise ValueError(f"power_by_squaring needs n >= 1, got {n}")
    result = None
    while True:
        if n & 1:
            result = base if result is None else times(result, base)
        n >>= 1
        if not n:
            return result
        base = times(base, base) if square is None else square(base)


def pow_packed(a: dict[int, int], n: int) -> dict[int, int]:
    """a**n for n >= 1 by square-and-multiply; a**1 is a itself.  ValueError
    for n < 1."""
    return power_by_squaring(a, n, mul_packed, sqr_packed)


def add_packed(a: dict[int, int], b: dict[int, int], scale: int = 1) -> dict[int, int]:
    """a + scale*b: a's terms, then b's new keys in b's order."""
    terms = dict(a)
    get = terms.get
    for k, c in b.items():
        terms[k] = get(k, 0) + scale * c
    return drop_zeros(terms)


def divide_packed(
    dividend: dict[int, int], divisor: dict[int, int], packing: Packing
) -> dict[int, int] | None:
    """Exact quotient in Z[x], or None if divisor does not divide dividend there.

    The remainder is one dict updated in place, with a max-heap of its keys.
    Every term a step touches is below the popped leading term, so a key that
    has cancelled is skipped when popped (lazy deletion).  Returns None at the
    first quotient term whose exponent would be negative (a field of the
    guarded key difference borrows) or whose coefficient is not an integer.
    By Gauss's lemma a primitive divisor that divides over Q leaves an
    integer quotient, so for it None means "does not divide" over Q too.
    """
    if not divisor:
        raise ZeroDivisionError("division by zero polynomial")
    lead = max(divisor)
    lead_c = divisor[lead]
    rest = [(k, -c) for k, c in divisor.items() if k != lead]
    guard = packing.guard
    remainder = dict(dividend)
    get = remainder.get
    heap = [-k for k in remainder]
    heapify(heap)
    quotient: dict[int, int] = {}
    while heap:
        r_k = -heappop(heap)
        r_c = remainder.pop(r_k, None)
        if r_c is None:
            continue
        q_k = (r_k | guard) - lead
        if q_k & guard != guard:
            return None
        q_k ^= guard
        q_c, r = divmod(r_c, lead_c)
        if r:
            return None
        quotient[q_k] = q_c
        for k, c in rest:
            k += q_k
            old = get(k)
            if old is None:
                remainder[k] = c * q_c
                heappush(heap, -k)
            else:
                new = old + c * q_c
                if new:
                    remainder[k] = new
                else:
                    del remainder[k]
    return quotient


class PackedPoly(NamedTuple):
    """The polynomial terms/den: packed keys -> non-zero ints, den > 0."""

    packing: Packing
    terms: dict[int, int]
    den: int

    @property
    def nvars(self) -> int:
        return self.packing.nvars


def shift_packed(poly: PackedPoly, var: int, p: int, q: int) -> PackedPoly:
    """Taylor shift x_var -> x_var + p/q (q > 0), in integers over den*q^d.

    With d the degree in x_var, c*x^e becomes sum_j c*C(e,j)*p^(e-j)*q^(d-e+j)
    x^j over q^d.  Each term's images are met in order of rising j, terms in
    their own order.
    """
    packing, terms, den = poly
    s, mask, unit = packing.shifts[var], packing.mask, packing.units[var]
    d = packing.degree_in(terms, var)
    p_pow, q_pow = [1], [1]
    for _ in range(d):
        p_pow.append(p_pow[-1] * p)
        q_pow.append(q_pow[-1] * q)
    weights = [[comb(e, j) * p_pow[e - j] * q_pow[d - e + j] for j in range(e + 1)]
               for e in range(d + 1)]
    out: dict[int, int] = {}
    get = out.get
    for k, c in terms.items():
        e = (k >> s) & mask
        k -= e * unit
        for w in weights[e]:
            out[k] = get(k, 0) + c * w
            k += unit
    return PackedPoly(packing, drop_zeros(out), den * q_pow[d])


def invert_packed(poly: PackedPoly, var: int) -> PackedPoly:
    """x_var -> 1/x_var, cleared by x_var^d with d the degree in x_var."""
    packing, terms, den = poly
    s, mask, unit = packing.shifts[var], packing.mask, packing.units[var]
    d = packing.degree_in(terms, var)
    return PackedPoly(
        packing, {k + (d - 2 * ((k >> s) & mask)) * unit: c for k, c in terms.items()}, den
    )


def box_map_packed(poly: PackedPoly, bounds) -> PackedPoly:
    """The box prod [a_i, b_i] (rational, 0 <= a_i < b_i) mapped onto the orthant.

    Per axis x_i -> 1/(x_i + 1/(b_i - a_i)) + a_i: shift by a_i, invert, then
    shift by 1/(b_i - a_i).
    """
    for i, (a, b) in enumerate(bounds):
        if a:
            poly = shift_packed(poly, i, a.numerator, a.denominator)
        width = b - a
        poly = shift_packed(invert_packed(poly, i), i, width.denominator, width.numerator)
    return poly


# str(n) and int(text) raise ValueError past sys.get_int_max_str_digits()
# decimal digits (4,300 unless it is set; it cannot be set below 640).  An
# exact proof can hold longer ints, so past the limit they are converted in
# chunks of _DIGITS digits, which every limit the interpreter allows admits.
_DIGITS = 600


def decimal_str(x: int | Fraction) -> str:
    """str(x) of an int or a Fraction, also past the interpreter's limit on
    decimal digits; below it, str(x) itself."""
    try:
        return str(x)
    except ValueError:
        pass
    if isinstance(x, Fraction):
        num = decimal_str(x.numerator)
        return num if x.denominator == 1 else f"{num}/{decimal_str(x.denominator)}"
    sign, x = ("-", -x) if x < 0 else ("", x)
    base, chunks = 10 ** _DIGITS, []
    while x:
        x, chunk = divmod(x, base)
        chunks.append(chunk)
    head = str(chunks.pop())
    return sign + head + "".join(f"{c:0{_DIGITS}d}" for c in reversed(chunks))


def decimal_int(text: str) -> int:
    """int(text) of a literal of ASCII digits with an optional sign, also past
    the interpreter's limit on decimal digits; below it, int(text) itself."""
    try:
        return int(text)
    except ValueError:
        digits = text[1:] if text.startswith(("+", "-")) else text
        if not (digits.isascii() and digits.isdigit()):
            raise
    n = 0
    for i in range(0, len(digits), _DIGITS):
        chunk = digits[i:i + _DIGITS]
        n = n * 10 ** len(chunk) + int(chunk)
    return -n if text.startswith("-") else n


def digest_packed(poly: PackedPoly) -> str:
    """SHA-256 of "nvars=<n>;" and the terms' "exponents:coefficient" joined by ";", in
    descending grlex order (that of the keys), each coefficient c/den reduced."""
    packing, terms, den = poly
    mask = packing.mask
    field = [str(e) for e in range(mask + 1)]
    keys = sorted(terms, reverse=True)
    # one column of exponent strings per variable, zipped into the rows
    columns = [[field[(k >> s) & mask] for k in keys] for s in packing.shifts]
    cs = [terms[k] for k in keys]
    try:
        parts = _term_texts(columns, cs, den, str)
    except ValueError:  # an int past the interpreter's limit on decimal digits
        parts = _term_texts(columns, cs, den, decimal_str)
    canon = f"nvars={poly.nvars};" + ";".join(parts)
    return sha256(canon.encode()).hexdigest()


def _term_texts(columns: list[list[str]], cs: list[int], den: int, text) -> list[str]:
    """The terms "exponents:coefficient" of `digest_packed`, each c/den reduced
    and its ints written by `text`."""
    exps = map(",".join, zip(*columns)) if columns else repeat("")
    if den == 1:
        return [f"{e}:{text(c)}" for e, c in zip(exps, cs)]
    return [f"{e}:{text(c // g)}" if g == den else f"{e}:{text(c // g)}/{text(den // g)}"
            for e, c, g in zip(exps, cs, map(gcd, cs, repeat(den)))]


def evaluate_packed(poly: PackedPoly, point: Sequence[Fraction]) -> Fraction:
    """The exact value at `point`, summed in integers.

    With x_i = a_i/b_i and d_i the degree in x_i, den * prod b_i^d_i * poly
    is an integer at the point; its term c*x^e is c times prod_i of
    a_i^e_i * b_i^(d_i - e_i), read from one power table per variable.
    """
    packing, terms, den = poly
    shifts, mask = packing.shifts, packing.mask
    tables = []
    for i, p in enumerate(point):
        d = packing.degree_in(terms, i)
        tables.append([p.numerator ** e * p.denominator ** (d - e) for e in range(d + 1)])
        den *= p.denominator ** d
    total = 0
    for k, c in terms.items():
        for table, s in zip(tables, shifts):
            c *= table[(k >> s) & mask]
        total += c
    return Fraction(total, den)
