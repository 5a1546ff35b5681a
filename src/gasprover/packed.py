"""Integer polynomials on packed exponents, for long exact computations.

Such a polynomial is a plain dict from a packed exponent int to a non-zero
int coefficient.  A `Packing` maps exponent vectors to keys whose integer
order is grlex order and whose sum is the key of the summed exponents.  The
kernels are `mul_packed`, the one term-pair product loop (which
`MultiPoly.__mul__` also runs), `pow_packed`, `add_packed` and
`divide_packed`, exact division in Z[x] with the remainder updated in place
and leading terms taken from a heap of keys.  Each kernel fixes the order of
the terms it returns, and none changes its operands.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import mul

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

    __slots__ = ("shifts", "units", "mask", "top", "guard")

    def __init__(self, nvars: int, max_degree: int):
        width = max_degree.bit_length() + 1
        self.top = nvars * width
        self.shifts = range(self.top - width, -1, -width)
        self.units = [(1 << self.top) | (1 << s) for s in self.shifts]
        self.mask = (1 << width) - 1
        self.guard = sum(1 << (s + width - 1) for s in range(0, self.top + 1, width))

    def pack(self, exps: Exponents) -> int:
        return sum(map(mul, exps, self.units))

    def unpack_terms(self, packed: dict[int, int]) -> dict[Exponents, int]:
        """The same terms, in the same order, keyed by exponent tuples."""
        shifts, mask = self.shifts, self.mask
        return {tuple([(k >> s) & mask for s in shifts]): c for k, c in packed.items()}


def drop_zeros(terms: dict) -> dict:
    """`terms` without its zero coefficients, deleted in place."""
    for k in [k for k, c in terms.items() if not c]:
        del terms[k]
    return terms


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


def power_by_squaring(base, n: int, times):
    """base**n for n >= 1: square-and-multiply with `times` as the product."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else times(result, base)
        n >>= 1
        if not n:
            return result
        base = times(base, base)


def pow_packed(a: dict[int, int], n: int) -> dict[int, int]:
    """a**n for n >= 1 by square-and-multiply; a**1 is a itself."""
    return power_by_squaring(a, n, mul_packed)


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
