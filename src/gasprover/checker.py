"""The certificate checker, and the trusted base it shares with the prover.

`replay_certificate` checks a certificate of `positivity.prove_nonneg` by
what it claims, without proving again.  A refutation is its witness: one
exact evaluation of P.  A proof is its tree: the checker iterates `walk`,
the one traversal the prover iterates too, requires each recorded node to
be the one the walk yields next, and re-runs only the test that decided
each leaf.  It reads no failed outcome and no detail, not the outcomes of
split nodes, and no grid point; none of them is part of the proof.

The trusted base is this module, the certificate types and the packed kernels
it calls: the region transforms, finitization, subdivision and the box map,
the walk over them, the stop rule for undecided nodes, the zero-off-xbar
rule, the four tests that can pass a node, and the evaluation of a witness.
The prover imports these from here, so both run one definition of each.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product

from .certificate import BoxSpec, ProofCertificate, RegionSpec, TestOutcome
from .packed import PackedPoly, Packing, box_map_packed, evaluate_packed, invert_packed, shift_packed
from .polynomial import MultiPoly


# ---------------------------------------------------------------------------
# The tree: regions, finitization, subdivision and the walk
# ---------------------------------------------------------------------------


def _regions(poly: PackedPoly, xbar: Fraction, highs: tuple[bool, ...] = ()):
    """Yield (highs, region polynomial) for every region that extends `highs`,
    all-high first (HH, HL, LH, LL), given `poly` with axes < len(highs) mapped.

    Axis i maps x -> x + xbar if high, else x -> 1/(x + 1/xbar) cleared by
    (x + 1/xbar)^d, once for all regions sharing highs[:i].  When xbar = 0
    the only region is P itself, all high.
    """
    i = len(highs)
    if i == poly.nvars or xbar == 0:
        yield highs + (True,) * (poly.nvars - i), poly
        return
    p, q = xbar.numerator, xbar.denominator
    yield from _regions(shift_packed(poly, i, p, q), xbar, highs + (True,))
    yield from _regions(shift_packed(invert_packed(poly, i), i, q, p), xbar, highs + (False,))


def _finitize(P: PackedPoly, region: RegionSpec) -> tuple[PackedPoly, BoxSpec]:
    if region.xbar == 0:
        raise ValueError("cannot finitize a region with zero split point")
    bounds = []
    for i, high in enumerate(region.highs):
        if high:
            P = invert_packed(P, i)
            bounds.append((Fraction(0), 1 / region.xbar))
        else:
            bounds.append((Fraction(0), region.xbar))
    return P, BoxSpec(tuple(bounds), region.highs)


def subdivide(box: BoxSpec) -> list[tuple[str, BoxSpec]]:
    """The 2^n half-boxes, labelled by a bit string (1 = upper half per axis)."""
    halves = []  # per axis: (bit, bounds, open on the low side) of each half
    for (a, b), open_low in zip(box.bounds, box.open_low):
        mid = (a + b) / 2
        halves.append((("0", (a, mid), open_low), ("1", (mid, b), True)))
    return [("".join(bit for bit, _, _ in axes),
             BoxSpec(tuple(bounds for _, bounds, _ in axes), tuple(op for _, _, op in axes)))
            for axes in product(*halves)]


def walk(P: PackedPoly, xbar: Fraction, seen: list):
    """Yield (path, region, box, node polynomial) for each node of P's tree
    at xbar: the regions all-high first, each region's sub-boxes depth first.

    `seen` is the caller's list of recorded nodes, which it prunes in place
    as os.walk's caller does: on resuming, the walk subdivides the node it
    last yielded only if `seen[-1].status` is then `split`, a region after
    mapping it onto a finite box; no box holds a region at xbar = 0, so the
    walk never subdivides one.  The node polynomial is a callable, so that a
    caller maps only the nodes it reads.
    """
    for highs, poly in _regions(P, xbar):
        region = RegionSpec(highs, xbar)
        stack = [((region.label,), None)]
        while stack:
            path, box = stack.pop()
            if box is None:
                yield path, region, box, lambda poly=poly: poly
            else:
                yield path, region, box, partial(box_map_packed, P_fin, box.bounds)
            if seen[-1].status == "split" and (box is not None or xbar):
                if box is None:
                    P_fin, box = _finitize(P, region)
                stack.extend((path + (bits,), child) for bits, child in reversed(subdivide(box)))


def stop_status(path: tuple[str, ...], box: BoxSpec | None, xbar: Fraction,
                depth_limit: int) -> str:
    """The status of a node that no test decided: `cannot-finitize` for a
    region at xbar = 0, which no box can hold, `depth-limit` past the depth
    limit, and `split` (subdivide it) otherwise."""
    if box is None and xbar == 0:
        return "cannot-finitize"
    return "depth-limit" if len(path) > depth_limit else "split"


# The Fail reason that an unproven leaf of each stopped status gives a run.
FAIL_REASONS = {"depth-limit": "depth-limit", "cannot-finitize": "cannot-finitize-zero-split"}


def _zero_off_xbar(path: tuple[str, ...], box: BoxSpec | None, poly: PackedPoly) -> bool:
    """Whether the node polynomial vanishes at the node's local origin where
    that is not the xbar image: a box's upper corner, off the all-1 chain."""
    return box is not None and 0 not in poly.terms and "0" in "".join(path[1:])


# ---------------------------------------------------------------------------
# The tests that can pass a node
# ---------------------------------------------------------------------------


def _poscoeffs(poly: PackedPoly) -> TestOutcome:
    packing, terms, den = poly
    neg = [k for k, c in terms.items() if c < 0]
    if neg:  # report the grlex-largest negative term
        k = max(neg)
        detail = {"negative_term": packing.exponents(k), "coeff": Fraction(terms[k], den)}
        return TestOutcome("PosCoeffs", "fail", detail)
    const = terms.get(0, 0)
    if const > 0:
        return TestOutcome("PosCoeffs", "pass", {"constant": Fraction(const, den)})
    return TestOutcome("PosCoeffs", "fail", {"reason": "constant-zero"})


def _zero_only_at_origin(poly: PackedPoly) -> TestOutcome:
    packing, terms, _ = poly
    if any(c < 0 for c in terms.values()) or terms.get(0, 0) != 0:
        raise ValueError("requires non-negative coefficients and zero constant")
    n = packing.nvars
    for subset in range(1, 2 ** n - 1):
        # P vanishes where the subset's variables are zero and the others
        # positive iff every term has a variable of the subset (a field set)
        vanishing = [i for i in range(n) if (subset >> i) & 1]
        fields = sum(packing.mask << packing.shifts[i] for i in vanishing)
        if all(k & fields for k in terms):
            return TestOutcome("ZeroOnlyAtOrigin", "fail", {"vanishing_subset": vanishing})
    return TestOutcome("ZeroOnlyAtOrigin", "pass")


def _leading_principal_minors(A: list[list[Fraction]]) -> list[Fraction]:
    """Determinants of the leading k-by-k blocks, by exact Gaussian elimination."""
    n = len(A)
    minors = []
    for k in range(1, n + 1):
        m = [row[:k] for row in A[:k]]
        det = Fraction(1)
        for col in range(k):
            pivot = next((r for r in range(col, k) if m[r][col] != 0), None)
            if pivot is None:
                det = Fraction(0)
                break
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det *= m[col][col]
            for r in range(col + 1, k):
                f = m[r][col] / m[col][col]
                for c in range(col, k):
                    m[r][c] -= f * m[col][c]
        minors.append(det)
    return minors


def _quadratic_form(poly: PackedPoly) -> list[list[Fraction]]:
    """Symmetric matrix of the degree-2 part, off-diagonal entries halved."""
    packing, terms, den = poly
    units = packing.units
    n = len(units)
    A = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            c = terms.get(units[i] + units[j])
            if c and i == j:
                A[i][i] = Fraction(c, den)
            elif c:
                A[i][j] = A[j][i] = Fraction(c, 2 * den)
    return A


def _subpoly_n(poly: PackedPoly) -> TestOutcome:
    # Every negative term must be a mixed quadratic x_i*x_j; the grlex-largest
    # one that is not is reported, as in PosCoeffs.
    packing, terms, _ = poly
    top = packing.top
    squares = {2 * u for u in packing.units}
    bad = [k for k, c in terms.items() if c < 0 and (k >> top != 2 or k in squares)]
    if bad:
        detail = {"reason": "not-applicable", "negative_term": packing.exponents(max(bad))}
        return TestOutcome("SubPolyN", "fail", detail)
    A = _quadratic_form(poly)
    minors = _leading_principal_minors(A)
    detail: dict = {"minors": minors}
    if packing.nvars == 2:
        a, c = A[0][0], A[1][1]
        b = 2 * A[0][1]
        detail.update({"a": a, "b": b, "c": c, "d": 4 * a * c - b * b})
    if all(m > 0 for m in minors):
        return TestOutcome("SubPolyN", "pass", detail)
    detail["reason"] = "not-positive-definite"
    return TestOutcome("SubPolyN", "fail", detail)


def _cones(poly: PackedPoly) -> TestOutcome:
    """R > 0 on the orthant minus the origin, for R of order 2 at the origin,
    by a blow-up of the origin into the n cones C_i = {y : y_i >= y_j}.

    On C_i put y_i = t and y_j = t*v_j with v_j in [0, 1]: G_i(t, v) =
    R(y)/t^2 has t-exponent |e| - 2 and v_j-exponent e_j, and G_i(0, v) is
    the quadratic part q at a point whose i-th entry is 1.  With v_j =
    1/(1 + w_j), every coefficient of positive t-degree being >= 0 gives
    G_i(t, v) >= q(v) on the cone, and q(v) > 0 when q is positive definite.
    """
    packing, terms, den = poly
    top = packing.top
    if min(terms) >> top < 2:
        raise ValueError("requires a zero constant and no linear terms")
    minors = _leading_principal_minors(_quadratic_form(poly))
    if not all(m > 0 for m in minors):
        return TestOutcome("Cones", "fail", {"minors": minors, "reason": "not-positive-definite"})
    n = packing.nvars
    degrees = [packing.degree_in(terms, i) for i in range(n)]
    # a chart term has t-degree <= deg R - 2 and v_j-degree <= deg_j R
    chart = Packing(n, (max(terms) >> top) - 2 + sum(degrees))
    rekeyed = [(chart.pack(packing.exponents(k)), k >> top, c) for k, c in terms.items()]
    for i in range(n):
        s, unit = chart.shifts[i], chart.units[i]
        G = PackedPoly(chart, {k + (d - 2 - ((k >> s) & chart.mask)) * unit: c
                               for k, d, c in rekeyed}, den)
        for j in range(n):
            if j != i:
                G = shift_packed(invert_packed(G, j), j, 1, 1)
        neg = [k for k, c in G.terms.items() if c < 0 and (k >> s) & chart.mask]
        if neg:
            detail = {"minors": minors, "cone": i, "negative_term": chart.exponents(max(neg))}
            return TestOutcome("Cones", "fail", detail)
    return TestOutcome("Cones", "pass", {"minors": minors})


# Cones passes a node only at a region, whose local origin is the xbar image.
_PASS_TESTS = {"PosCoeffs": _poscoeffs, "ZeroOnlyAtOrigin": _zero_only_at_origin,
               "SubPolyN": _subpoly_n, "Cones": _cones}


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------


def replay_certificate(cert: ProofCertificate, P: MultiPoly) -> bool:
    """True iff the certificate proves its verdict for P; never raises on a
    certificate that `certificate_from_json` returns.

    The input must match: P's digest and nvars, xbar >= 0, depth limit >= 0.
    `Disproven` needs a witness in the closed orthant where P is the stated
    negative value, and `Fail` by `zero-off-xbar` one other than the xbar
    point where P is the stated 0; neither reads the tree.  `Proven` and the
    other `Fail`s need the tree `_tree_leaves` accepts, with no unproven
    leaf for `Proven` and `fail_reason` naming the kind of them for `Fail`.
    """
    xbar, depth_limit = cert.xbar, cert.depth_limit
    if (not isinstance(xbar, (int, Fraction)) or type(depth_limit) is not int
            or xbar < 0 or depth_limit < 0 or cert.nvars != P.nvars
            or P.is_zero() or P.digest() != cert.input_digest):
        return False
    packed, xbar = P.packed(), Fraction(xbar)
    if cert.verdict == "Disproven" and cert.fail_reason is None:
        value = _witness_value(cert, packed)
        return value is not None and value < 0
    if cert.verdict == "Fail" and cert.fail_reason == "zero-off-xbar":
        return _witness_value(cert, packed) == 0 and cert.witness != [xbar] * P.nvars
    if cert.witness is not None or cert.witness_value is not None:
        return False
    leaves = _tree_leaves(cert, packed, xbar, depth_limit)
    if leaves is None:
        return False
    if cert.verdict == "Proven":
        return not leaves and cert.fail_reason is None
    return cert.verdict == "Fail" and list(leaves) == [cert.fail_reason]


def _witness_value(cert: ProofCertificate, packed: PackedPoly) -> Fraction | None:
    """P at the witness, if that is a point of the closed orthant and P's value
    there is the certificate's `witness_value`; else None."""
    w = cert.witness
    if not isinstance(w, list) or len(w) != packed.nvars or not all(
            isinstance(x, (int, Fraction)) and x >= 0 for x in w):
        return None
    value = evaluate_packed(packed, w)
    return value if value == cert.witness_value else None


def _tree_leaves(cert: ProofCertificate, packed: PackedPoly, xbar: Fraction,
                 depth_limit: int) -> set[str] | None:
    """The fail reasons named by the tree's unproven leaves, or None if the
    tree is not one the prover makes or a leaf's pass does not hold.

    Each node must sit at the path, region and box the walk reaches next,
    and every node must be read.  A `pass` leaf's last outcome must be a pass
    that its test confirms on the node polynomial, which must not vanish off
    xbar.  Any other node must have the status `stop_status` gives it.
    """
    nodes = iter(cert.nodes)
    seen, leaves = [], set()
    for path, region, box, node_poly in walk(packed, xbar, seen):
        node = next(nodes, None)
        if node is None or node.path != path or node.box != box or node.region != region:
            return None
        if node.status == "pass":
            poly = node_poly()
            if not _pass_holds(node.outcomes, poly, box is None) or _zero_off_xbar(path, box, poly):
                return None
        elif node.status != stop_status(path, box, xbar, depth_limit):
            return None
        elif node.status != "split":
            leaves.add(FAIL_REASONS[node.status])
        seen.append(node)
    return None if next(nodes, None) is not None else leaves


def _pass_holds(outcomes: list[TestOutcome], poly: PackedPoly, at_region: bool) -> bool:
    """Whether the last outcome is a pass that its test gives on poly; a test
    whose precondition fails (a ValueError) does not pass."""
    if not outcomes or outcomes[-1].result != "pass" or not isinstance(outcomes[-1].test, str):
        return False
    test = _PASS_TESTS.get(outcomes[-1].test)
    if test is None or (test is _cones and not at_region):
        return False
    try:
        return test(poly).result == "pass"
    except ValueError:
        return False
