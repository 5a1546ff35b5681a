"""Positivity of polynomials on the positive orthant by region splitting.

The orthant is split at the distinguished point xbar into 2^n regions, each
mapped back onto the orthant by exact shift/inversion substitutions. Cheap
coefficient tests certify or refute each region. At the first
inconclusive region, at every xbar including 0, P is evaluated exactly on a
fixed dyadic grid, which refutes most false inputs at once (a P with no
negative coefficient is not scanned). A region that vanishes to second order
at its local origin, the xbar image, then gets the cone test: a blow-up of
that point into n affine charts, each checked by signs. Otherwise an
inconclusive region is mapped onto a finite box and halved along every
axis, depth first, until each piece is decided or `checker.stop_status`
stops it: at the depth limit, or at once for a region at xbar = 0, which no
box holds. A box's local origin is its upper corner, the xbar image only on
the all-1 chain of sub-boxes; a zero there anywhere else ends the run
(`zero-off-xbar`). The whole run is recorded as a certificate, and
refutations carry an exact witness point in the original coordinates, which
`to_original` maps back from the node's local coordinates.

`prove_nonneg` holds no tree of its own: it iterates `checker.walk`, which
makes the nodes in order and subdivides a node only if the status recorded
for it is `split`, and tests each node the walk yields.
`checker.replay_certificate` iterates the same walk, so prover and checker
share the order, the region transforms, finitization, subdivision, the box
map, the tests that can pass a node, the zero-off-xbar rule and the stop
rule.

Every node is a `PackedPoly`: integers on packed exponent keys over one
positive denominator, in the one layout of P that its transforms keep.
`prove_nonneg` reads P only packed and digests only P.  The tests read
signs, degrees and supports from the integers and the keys, and make
Fractions only for the values a certificate records.  `region_poly`,
`orthant_split` and `finitize` give the packed transforms' results as
`MultiPoly`s, for the CLI's region printout and the benchmark's hooks; the
node tests take `PackedPoly`s only.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Iterator

from .certificate import BoxSpec, CertNode, ProofCertificate, RegionSpec, TestOutcome
from .checker import (FAIL_REASONS, _cones, _finitize, _poscoeffs, _regions, _subpoly_n,
                      _zero_off_xbar, _zero_only_at_origin, stop_status, walk)
from .packed import PackedPoly
from .polynomial import MultiPoly, evaluate_packed


# ---------------------------------------------------------------------------
# Region construction
# ---------------------------------------------------------------------------


def region_poly(P: MultiPoly, region: RegionSpec) -> MultiPoly:
    """P transformed so the region corresponds to the whole positive orthant."""
    for highs, poly in _regions(P.packed(), region.xbar):
        if highs == region.highs:
            return MultiPoly.from_packed(poly)
    raise ValueError(f"no region {region.label} at split point {region.xbar}")


def to_original(region: RegionSpec, box: BoxSpec | None, point) -> list[Fraction]:
    """Map a point w >= 0 of a node's local coordinates to the original orthant.

    A region's axis takes w to w + xbar if high, else to 1/(w + 1/xbar).  A
    box's axis takes w to y = a + 1/(w + 1/(b - a)) in the box [a, b], and y
    to 1/y on a high axis of its region.  The local origin goes to xbar for
    a region and to the box's upper corner for a box.
    """
    if box is None:
        return [w + region.xbar if high else 1 / (w + 1 / region.xbar)
                for w, high in zip(point, region.highs)]
    out = []
    for w, (a, b), high in zip(point, box.bounds, region.highs):
        y = 1 / (w + 1 / (b - a)) + a
        out.append(1 / y if high else y)
    return out


def orthant_split(P: MultiPoly, xbar: Fraction):
    """The 2^n region polynomials (single all-high region when xbar = 0)."""
    if P.is_zero():
        raise ValueError("cannot split the zero polynomial")
    if xbar < 0:
        raise ValueError("split point must be non-negative")
    return [(RegionSpec(highs, xbar), MultiPoly.from_packed(poly))
            for highs, poly in _regions(P.packed(), xbar)]


# ---------------------------------------------------------------------------
# Coefficient tests
# ---------------------------------------------------------------------------


def _lcoeff(poly: PackedPoly) -> TestOutcome:
    packing, terms, _ = poly
    if not terms:
        return TestOutcome("LCoeff", "fail", {"reason": "zero-polynomial"})
    top = max(terms) >> packing.top
    if top == 0:
        return TestOutcome("LCoeff", "fail", {"reason": "constant-polynomial"})
    leaders = [c for k, c in terms.items() if k >> packing.top == top]
    if all(c < 0 for c in leaders):
        return TestOutcome(
            "LCoeff", "refute", {"total_degree": top, "leaders": len(leaders)}
        )
    return TestOutcome("LCoeff", "fail", {"reason": "mixed-sign-leaders"})


def _const(poly: PackedPoly) -> TestOutcome:
    const = Fraction(poly.terms.get(0, 0), poly.den)
    return TestOutcome("Const", "refute" if const < 0 else "fail", {"constant": const})


# ---------------------------------------------------------------------------
# Finitization
# ---------------------------------------------------------------------------


def finitize(P: MultiPoly, region: RegionSpec) -> tuple[MultiPoly, BoxSpec]:
    """Map an unbounded region onto a finite box by inverting high variables.

    The result is built from the original polynomial: high variables x become
    1/x on (0, 1/xbar], low variables keep [0, xbar].
    """
    fin, box = _finitize(P.packed(), region)
    return MultiPoly.from_packed(fin), box


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------


def _search_negative(P: PackedPoly) -> list[Fraction] | None:
    """A point 2^m * (1, .., 1), m = 1..63, where P < 0, or None.

    There P*den is the sum over degrees d of (its degree-d coefficients)*2^(m*d).
    """
    top = P.packing.top
    by_degree: dict[int, int] = {}
    for k, c in P.terms.items():
        by_degree[k >> top] = by_degree.get(k >> top, 0) + c
    for m in range(1, 64):
        if sum(c << m * d for d, c in by_degree.items()) < 0:
            return [Fraction(2) ** m] * P.nvars
    return None


# The refutation grid: per axis the values 2^j, j spread evenly over
# [-_GRID_SCALE, _GRID_SCALE], and at most _GRID_POINTS points in all.
_GRID_SCALE = 10
_GRID_POINTS = 512


@cache
def _grid_exponents(nvars: int) -> tuple[int, ...]:
    """The exponents j of the per-axis grid values 2^j, in increasing order;
    made once per number of variables."""
    m = 2 * _GRID_SCALE + 1
    while m > 1 and m ** nvars > _GRID_POINTS:
        m -= 1
    if m == 1:
        return (0,)
    return tuple(round(Fraction(2 * _GRID_SCALE * k, m - 1)) - _GRID_SCALE
                 for k in range(m))


@cache
def _grid_axis(nvars: int) -> dict[int, Fraction]:
    """The per-axis grid values 2^j by their shifts k = j + _GRID_SCALE, in
    increasing order; made once per number of variables."""
    return {j + _GRID_SCALE: Fraction(2) ** j for j in _grid_exponents(nvars)}


def _grid_terms(P: PackedPoly) -> dict | None:
    """den * 2^(_GRID_SCALE * d) * P with d = deg(P), an integer polynomial in
    y_i = 2^(j_i + _GRID_SCALE), whose term c*y^e at y_i = 2^k_i is
    c << (e.k); None if P has no negative coefficient, as then P >= 0 on the
    whole orthant."""
    packing, terms, _ = P
    if min(terms.values()) >= 0:
        return None
    top = packing.top
    deg = max(terms) >> top
    return {k: c << _GRID_SCALE * (deg - (k >> top)) for k, c in terms.items()}


def _grid_negative(P: PackedPoly) -> list[Fraction] | None:
    """The first point of the dyadic grid where P < 0, in itertools.product
    order over _grid_exponents, or None if P >= 0 on the whole grid; at once
    if P has no negative coefficient.

    Integer arithmetic only (`_grid_terms`).  The axes are substituted one
    at a time, so each prefix of the point is paid for once, not once per
    point.
    """
    terms = _grid_terms(P)
    if terms is None:
        return None
    axis = _grid_axis(P.nvars)
    point = _grid_scan(terms, list(P.packing.shifts), P.packing.mask, list(axis))
    return None if point is None else [axis[k] for k in point]


def grid_line_negatives(P: MultiPoly, point: list[Fraction]) -> list[list[Fraction]]:
    """The points of the dyadic grid on the line through `point` along the last
    axis where P < 0, in increasing order; none if a coordinate of `point`
    but the last is not a grid value.  Evaluated as `_grid_negative` scans
    that line."""
    packed = P.packed()
    packing = packed.packing
    axis = _grid_axis(P.nvars)
    ks = []
    for x in point[:-1]:
        p, q = x.numerator, x.denominator
        k = p.bit_length() - q.bit_length() + _GRID_SCALE
        if p <= 0 or p & (p - 1) or q & (q - 1) or k not in axis:
            return []
        ks.append(k)
    terms = _grid_terms(packed)
    if terms is None:
        return []
    for s, k in zip(packing.shifts, ks):
        terms = _substitute(terms, s, packing.mask, k)
    line = _negatives_on_line(terms, packing.shifts[-1], packing.mask, list(axis))
    return [point[:-1] + [axis[k]] for k in line]


def _substitute(terms: dict, s: int, mask: int, k: int) -> dict:
    """`terms` at y = 2^k for the variable in key field s, which is cut off
    each key with any field above it."""
    low = (1 << s) - 1
    rest: dict = {}
    for key, c in terms.items():
        rest[key & low] = rest.get(key & low, 0) + (c << k * ((key >> s) & mask))
    return rest


def _negatives_on_line(terms: dict, s: int, mask: int, ks: list[int]) -> Iterator[int]:
    """The k of ks, in order, at which `terms`, an integer polynomial in the
    one variable of key field s, is negative at y = 2^k: Horner's rule in
    shifts."""
    exps = [(key >> s) & mask for key in terms]
    coeffs = [0] * (max(exps) + 1)
    for e, c in zip(exps, terms.values()):
        coeffs[e] += c
    coeffs.reverse()
    for k in ks:
        value = 0
        for c in coeffs:
            value = (value << k) + c
        if value < 0:
            yield k


def _grid_scan(terms: dict, shifts: list[int], mask: int, ks: list[int]) -> list[int] | None:
    """The first point [k_0, ..] in itertools.product order over ks where the
    integer polynomial `terms` is negative at y_i = 2^k_i, or None.

    `shifts` are the key fields of the variables still to substitute.  The
    last axis is one integer polynomial in one variable
    (`_negatives_on_line`).  A module-level function, so that the recursion
    makes no reference cycle.
    """
    s, rest_shifts = shifts[0], shifts[1:]
    if not rest_shifts:
        k = next(_negatives_on_line(terms, s, mask, ks), None)
        return None if k is None else [k]
    for k in ks:
        tail = _grid_scan(_substitute(terms, s, mask, k), rest_shifts, mask, ks)
        if tail is not None:
            return [k] + tail
    return None


# ---------------------------------------------------------------------------
# Main driver
# ---------------------------------------------------------------------------


def _run_tests(P: PackedPoly):
    """Returns (status, outcomes, witness_in_local_coords)."""
    outcomes = []
    pc = _poscoeffs(P)
    outcomes.append(pc)
    if pc.result == "pass":
        return "pass", outcomes, None
    if pc.detail.get("reason") == "constant-zero":
        zo = _zero_only_at_origin(P)
        outcomes.append(zo)
        if zo.result == "pass":
            return "pass", outcomes, None
    sp = _subpoly_n(P)
    outcomes.append(sp)
    if sp.result == "pass":
        return "pass", outcomes, None
    lc = _lcoeff(P)
    outcomes.append(lc)
    if lc.result == "refute":
        witness = _search_negative(P)
        if witness is not None:
            return "refute", outcomes, witness
        outcomes[-1] = TestOutcome(
            "LCoeff", "fail", {"reason": "no-witness-on-ray"}
        )
    co = _const(P)
    outcomes.append(co)
    if co.result == "refute":
        # P at the local origin is its negative constant
        return "refute", outcomes, [Fraction(0)] * P.nvars
    return "split", outcomes, None


def prove_nonneg(
    P: MultiPoly, xbar: Fraction | int, depth_limit: int = 12
) -> ProofCertificate:
    """Certify P >= 0 on the orthant (zero allowed only at the xbar corner image).

    Returns a certificate whose verdict is Proven, Disproven (with an exact
    negative witness in the original coordinates), or Fail at the depth limit,
    when xbar = 0 leaves a region unfinitized, or at a box corner off the xbar
    image where P = 0 (`zero-off-xbar`, with that corner as the witness).
    The nodes come from `checker.walk`.  The dyadic grid is searched once,
    at the first undecided region, and the cone test runs on each undecided
    region; a node still undecided then gets the status of
    `checker.stop_status`, the rule the checker holds it to.
    """
    if not isinstance(xbar, (int, Fraction)):
        raise TypeError(f"xbar must be an int or Fraction, got {type(xbar).__name__}")
    xbar = Fraction(xbar)
    if P.is_zero():
        raise ValueError("cannot prove the zero polynomial non-negative")
    if xbar < 0:
        raise ValueError("split point must be non-negative")
    if depth_limit < 0:
        raise ValueError("depth_limit must be >= 0")
    packed = P.packed()
    cert = ProofCertificate(
        input_digest=P.digest(),
        nvars=P.nvars,
        xbar=xbar,
        depth_limit=depth_limit,
        verdict="Proven",
        nodes=[],
    )
    grid_tried = False
    for path, region, box, node_poly in walk(packed, xbar, cert.nodes):
        mapped = node_poly()
        status, outcomes, local = _run_tests(mapped)
        node = CertNode(path, region, box, outcomes, status)
        cert.nodes.append(node)
        point = None
        if status == "refute":
            point = to_original(region, box, local)
        elif _zero_off_xbar(path, box, mapped):
            point = to_original(region, box, [0] * P.nvars)
            if evaluate_packed(packed, point) != 0:
                raise RuntimeError(f"zero corner {point} is not a zero of P")
            cert.verdict, cert.fail_reason = "Fail", "zero-off-xbar"
            cert.witness, cert.witness_value = point, Fraction(0)
            return cert
        elif status == "split" and box is None:
            if not grid_tried:
                grid_tried = True
                point = _grid_negative(packed)
            # no constant and no linear terms: P vanishes to second order at xbar
            if point is None and min(mapped.terms) >> mapped.packing.top >= 2:
                outcomes.append(_cones(mapped))
                if outcomes[-1].result == "pass":
                    node.status = "pass"
        if point is not None:
            value = evaluate_packed(packed, point)
            if value >= 0:
                raise RuntimeError(f"refuting point {point} gives P = {value}, not < 0")
            cert.verdict, cert.fail_reason = "Disproven", None
            cert.witness = point
            cert.witness_value = value
            return cert
        if node.status == "split":
            node.status = stop_status(path, box, xbar, depth_limit)
            if node.status != "split":
                cert.verdict, cert.fail_reason = "Fail", FAIL_REASONS[node.status]
    return cert
