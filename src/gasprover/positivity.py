"""Positivity of polynomials on the positive orthant by region splitting.

The orthant is split at the distinguished point xbar into 2^n regions, each
mapped back onto the orthant by exact shift/inversion substitutions. Cheap
coefficient tests certify or refute each region. Before the first
inconclusive region is subdivided, P is evaluated exactly on a fixed dyadic
grid, which refutes most false inputs at once; otherwise inconclusive regions
are mapped onto a finite box. Regions and sub-boxes are visited depth first
from one stack: each node is mapped onto the orthant and tested, and an
inconclusive one pushes its 2^n half-boxes. The whole run is recorded as a
certificate, which is checked by proving again and comparing node for node,
and refutations carry an exact witness point in the original coordinates.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .parsing import parse_rational
from .polynomial import MultiPoly, grlex_key


@dataclass(frozen=True)
class RegionSpec:
    """One of the 2^n orthant regions: per variable low [0,xbar] or high [xbar,inf)."""

    highs: tuple[bool, ...]
    xbar: Fraction

    @property
    def label(self) -> str:
        if len(self.highs) == 2:
            ew = "E" if self.highs[0] else "W"
            ns = "N" if self.highs[1] else "S"
            return ns + ew
        return "".join("H" if h else "L" for h in self.highs)


@dataclass(frozen=True)
class BoxSpec:
    """Axis-aligned rational box; open_low marks axes open on the low side."""

    bounds: tuple[tuple[Fraction, Fraction], ...]
    open_low: tuple[bool, ...]

    def contains(self, point) -> bool:
        for x, (a, b), op in zip(point, self.bounds, self.open_low):
            if not ((a < x if op else a <= x) and x <= b):
                return False
        return True


@dataclass(frozen=True)
class TestOutcome:
    test: str  # PosCoeffs | SubPolyN | LCoeff | Const | ZeroOnlyAtOrigin
    result: str  # pass | fail | refute
    detail: dict = field(default_factory=dict)


@dataclass
class CertNode:
    path: tuple[str, ...]
    region: RegionSpec
    box: BoxSpec | None  # None for region-level nodes
    digest: str
    outcomes: list[TestOutcome]
    status: str  # pass | refute | split | depth-limit | cannot-finitize


@dataclass
class ProofCertificate:
    input_digest: str
    nvars: int
    xbar: Fraction
    depth_limit: int
    verdict: str  # Proven | Disproven | Fail
    nodes: list[CertNode]
    witness: list[Fraction] | None = None
    witness_value: Fraction | None = None
    fail_reason: str | None = None


# ---------------------------------------------------------------------------
# Region construction
# ---------------------------------------------------------------------------


def _region_specs(nvars: int, xbar: Fraction) -> list[RegionSpec]:
    if xbar == 0:
        return [RegionSpec(tuple([True] * nvars), xbar)]
    specs = []
    for code in range(2 ** nvars - 1, -1, -1):
        highs = tuple(bool((code >> (nvars - 1 - i)) & 1) for i in range(nvars))
        specs.append(RegionSpec(highs, xbar))
    return specs


def region_poly(P: MultiPoly, region: RegionSpec) -> MultiPoly:
    """P transformed so the region corresponds to the whole positive orthant."""
    xbar = region.xbar
    result = P.shift([xbar if h else Fraction(0) for h in region.highs])
    if xbar != 0:
        for i, high in enumerate(region.highs):
            if not high:
                result = result.invert_var(i)._shift_one(i, 1 / xbar)
    return result


def region_to_original(region: RegionSpec, point) -> list[Fraction]:
    """Map a point in region coordinates back to the original orthant."""
    out = []
    for w, high in zip(point, region.highs):
        if high:
            out.append(w + region.xbar)
        else:
            out.append(1 / (w + 1 / region.xbar))
    return out


def orthant_split(P: MultiPoly, xbar: Fraction):
    """The 2^n region polynomials (single all-high region when xbar = 0)."""
    if P.is_zero():
        raise ValueError("cannot split the zero polynomial")
    if xbar < 0:
        raise ValueError("split point must be non-negative")
    return [(r, region_poly(P, r)) for r in _region_specs(P.nvars, xbar)]


# ---------------------------------------------------------------------------
# Coefficient tests
# ---------------------------------------------------------------------------


def test_poscoeffs(P: MultiPoly) -> TestOutcome:
    neg = [e for e, c in P.terms.items() if c < 0]
    if neg:  # report the grlex-largest negative term
        e = max(neg, key=grlex_key)
        return TestOutcome("PosCoeffs", "fail", {"negative_term": list(e), "coeff": P.terms[e]})
    const = P.constant_term()
    if const > 0:
        return TestOutcome("PosCoeffs", "pass", {"constant": const})
    return TestOutcome("PosCoeffs", "fail", {"reason": "constant-zero"})


def zero_only_at_origin(P: MultiPoly) -> TestOutcome:
    if any(c < 0 for c in P.terms.values()) or P.constant_term() != 0:
        raise ValueError("requires non-negative coefficients and zero constant")
    n = P.nvars
    supports = [frozenset(i for i, e in enumerate(exps) if e) for exps in P.terms]
    for mask in range(1, 2 ** n - 1):
        subset = frozenset(i for i in range(n) if (mask >> i) & 1)
        if not any(s.isdisjoint(subset) for s in supports):
            return TestOutcome(
                "ZeroOnlyAtOrigin", "fail", {"vanishing_subset": sorted(subset)}
            )
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


def quadratic_form_matrix(P: MultiPoly) -> list[list[Fraction]]:
    """Symmetric matrix of the degree-2 part, off-diagonal entries halved."""
    n = P.nvars
    A = [[Fraction(0)] * n for _ in range(n)]
    for exps, coeff in P.terms.items():
        if sum(exps) != 2:
            continue
        support = [i for i, e in enumerate(exps) if e]
        if len(support) == 1:
            A[support[0]][support[0]] = coeff
        else:
            i, j = support
            A[i][j] = A[j][i] = coeff / 2
    return A


def test_subpoly_n(P: MultiPoly) -> TestOutcome:
    # Every negative term must be a mixed quadratic x_i*x_j; the grlex-largest
    # one that is not is reported, as in PosCoeffs.
    bad = [e for e, c in P.terms.items() if c < 0 and (sum(e) != 2 or 2 in e)]
    if bad:
        detail = {"reason": "not-applicable", "negative_term": list(max(bad, key=grlex_key))}
        return TestOutcome("SubPolyN", "fail", detail)
    A = quadratic_form_matrix(P)
    minors = _leading_principal_minors(A)
    detail: dict = {"minors": minors}
    if P.nvars == 2:
        a, c = A[0][0], A[1][1]
        b = 2 * A[0][1]
        detail.update({"a": a, "b": b, "c": c, "d": 4 * a * c - b * b})
    if all(m > 0 for m in minors):
        return TestOutcome("SubPolyN", "pass", detail)
    detail["reason"] = "not-positive-definite"
    return TestOutcome("SubPolyN", "fail", detail)


def test_lcoeff(P: MultiPoly) -> TestOutcome:
    if P.is_zero():
        return TestOutcome("LCoeff", "fail", {"reason": "zero-polynomial"})
    top = P.total_degree()
    if top == 0:
        return TestOutcome("LCoeff", "fail", {"reason": "constant-polynomial"})
    leaders = {e: c for e, c in P.terms.items() if sum(e) == top}
    if all(c < 0 for c in leaders.values()):
        return TestOutcome(
            "LCoeff", "refute", {"total_degree": top, "leaders": len(leaders)}
        )
    return TestOutcome("LCoeff", "fail", {"reason": "mixed-sign-leaders"})


def test_const(P: MultiPoly) -> TestOutcome:
    const = P.constant_term()
    if const < 0:
        return TestOutcome("Const", "refute", {"constant": const})
    return TestOutcome("Const", "fail", {"constant": const})


# ---------------------------------------------------------------------------
# Finitization and subdivision
# ---------------------------------------------------------------------------


def finitize(P: MultiPoly, region: RegionSpec) -> tuple[MultiPoly, BoxSpec]:
    """Map an unbounded region onto a finite box by inverting high variables.

    The result is built from the original polynomial: high variables x become
    1/x on (0, 1/xbar], low variables keep [0, xbar].
    """
    if region.xbar == 0:
        raise ValueError("cannot finitize a region with zero split point")
    result = P
    bounds = []
    open_low = []
    for i, high in enumerate(region.highs):
        if high:
            result = result.invert_var(i)
            bounds.append((Fraction(0), 1 / region.xbar))
            open_low.append(True)
        else:
            bounds.append((Fraction(0), region.xbar))
            open_low.append(False)
    return result, BoxSpec(tuple(bounds), tuple(open_low))


def finitized_to_original(region: RegionSpec, point) -> list[Fraction]:
    return [
        1 / x if high else x for x, high in zip(point, region.highs)
    ]


def subdivide(box: BoxSpec) -> list[tuple[str, BoxSpec]]:
    """The 2^n half-boxes, labelled by a bit string (1 = upper half per axis)."""
    n = len(box.bounds)
    children = []
    for code in range(2 ** n):
        bits = [(code >> (n - 1 - i)) & 1 for i in range(n)]
        bounds = []
        open_low = []
        for i, ((a, b), bit) in enumerate(zip(box.bounds, bits)):
            mid = (a + b) / 2
            if bit:
                bounds.append((mid, b))
                open_low.append(True)
            else:
                bounds.append((a, mid))
                open_low.append(box.open_low[i])
        children.append(
            ("".join(map(str, bits)), BoxSpec(tuple(bounds), tuple(open_low)))
        )
    return children


def boxed_to_box(box: BoxSpec, point) -> list[Fraction]:
    """Map a point in box-mapped orthant coordinates into the box itself."""
    out = []
    for w, (a, b) in zip(point, box.bounds):
        out.append(1 / (w + 1 / (b - a)) + a)
    return out


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------


def _search_negative(P: MultiPoly) -> list[Fraction] | None:
    """A point 2^m * (1, .., 1), m = 1..63, where P < 0, or None."""
    n = P.nvars
    for m in range(1, 64):
        point = [Fraction(2) ** m] * n
        if P.evaluate(point) < 0:
            return point
    return None


# The refutation grid: per axis the values 2^j, j spread evenly over
# [-_GRID_SCALE, _GRID_SCALE], and at most _GRID_POINTS points in all.
_GRID_SCALE = 10
_GRID_POINTS = 512


def _grid_exponents(nvars: int) -> list[int]:
    """The exponents j of the per-axis grid values 2^j, in increasing order."""
    m = 2 * _GRID_SCALE + 1
    while m > 1 and m ** nvars > _GRID_POINTS:
        m -= 1
    if m == 1:
        return [0]
    return [round(Fraction(2 * _GRID_SCALE * k, m - 1)) - _GRID_SCALE
            for k in range(m)]


def _grid_negative(P: MultiPoly) -> list[Fraction] | None:
    """The first point of the dyadic grid where P < 0, in itertools.product
    order over _grid_exponents, or None if P >= 0 on the whole grid.

    Integer arithmetic only. With d = deg(P) and y_i = 2^(j_i + _GRID_SCALE),
    den * 2^(_GRID_SCALE * d) * P is an integer polynomial in y, whose term
    c*y^e at y_i = 2^k_i is c << (e.k). The axes are substituted one at a
    time, so each prefix of the point is paid for once, not once per point.
    """
    _, scaled = P._integer_terms()
    deg = P.total_degree()
    ks = [j + _GRID_SCALE for j in _grid_exponents(P.nvars)]
    point = _grid_scan({
        exps: c << _GRID_SCALE * (deg - sum(exps))
        for exps, c in scaled
    }, ks)
    if point is None:
        return None
    return [Fraction(2) ** (k - _GRID_SCALE) for k in point]


def _grid_scan(terms: dict, ks: list[int]) -> list[int] | None:
    """The first point [k_0, ..] in itertools.product order over ks where the
    integer polynomial `terms` is negative at y_i = 2^k_i, or None.

    A module-level function, so that the recursion makes no reference cycle.
    """
    if () in terms:
        return [] if terms[()] < 0 else None
    for k in ks:
        rest: dict = {}
        for exps, c in terms.items():
            rest[exps[1:]] = rest.get(exps[1:], 0) + (c << k * exps[0])
        tail = _grid_scan(rest, ks)
        if tail is not None:
            return [k] + tail
    return None


# ---------------------------------------------------------------------------
# Main driver
# ---------------------------------------------------------------------------


def _run_tests(P: MultiPoly):
    """Returns (status, outcomes, witness_in_local_coords)."""
    outcomes = []
    pc = test_poscoeffs(P)
    outcomes.append(pc)
    if pc.result == "pass":
        return "pass", outcomes, None
    if pc.detail.get("reason") == "constant-zero":
        zo = zero_only_at_origin(P)
        outcomes.append(zo)
        if zo.result == "pass":
            return "pass", outcomes, None
    sp = test_subpoly_n(P)
    outcomes.append(sp)
    if sp.result == "pass":
        return "pass", outcomes, None
    lc = test_lcoeff(P)
    outcomes.append(lc)
    if lc.result == "refute":
        witness = _search_negative(P)
        if witness is not None:
            return "refute", outcomes, witness
        outcomes[-1] = TestOutcome(
            "LCoeff", "fail", {"reason": "no-witness-on-ray"}
        )
    co = test_const(P)
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
    negative witness in the original coordinates), or Fail at the depth limit
    or when xbar = 0 leaves a region unfinitized. Regions and sub-boxes are
    visited depth first from one stack; the dyadic grid is searched once,
    just before the first region would be subdivided.
    """
    if not isinstance(xbar, (int, Fraction)):
        raise TypeError(f"xbar must be an int or Fraction, got {type(xbar).__name__}")
    xbar = Fraction(xbar)
    if P.is_zero():
        raise ValueError("cannot prove the zero polynomial non-negative")
    if xbar < 0:
        raise ValueError("split point must be non-negative")
    cert = ProofCertificate(
        input_digest=P.digest(),
        nvars=P.nvars,
        xbar=xbar,
        depth_limit=depth_limit,
        verdict="Proven",
        nodes=[],
    )
    stack = [(region, None, None, (region.label,))
             for region in reversed(_region_specs(P.nvars, xbar))]
    grid_tried = False
    while stack:
        region, P_fin, box, path = stack.pop()
        mapped = region_poly(P, region) if box is None else P_fin.box_map(box.bounds)
        status, outcomes, local = _run_tests(mapped)
        node = CertNode(path, region, box, mapped.digest(), outcomes, status)
        cert.nodes.append(node)
        point = None
        if status == "refute" and box is None:
            point = region_to_original(region, local)
        elif status == "refute":
            point = finitized_to_original(region, boxed_to_box(box, local))
        elif status == "split" and box is None:
            if xbar == 0:
                node.status = "cannot-finitize"
                continue
            if not grid_tried:
                grid_tried = True
                point = _grid_negative(P)
            if point is None:
                P_fin, box = finitize(P, region)
        if point is not None:
            value = P.evaluate(point)
            if value >= 0:
                raise RuntimeError(f"refuting point {point} gives P = {value}, not < 0")
            cert.verdict = "Disproven"
            cert.witness = point
            cert.witness_value = value
            return cert
        if status == "split" and len(path) > depth_limit:
            cert.nodes.append(CertNode(path, region, box, "", [], "depth-limit"))
        elif status == "split":
            stack.extend((region, P_fin, child, path + (bits,))
                         for bits, child in reversed(subdivide(box)))

    statuses = {node.status for node in cert.nodes}
    if "depth-limit" in statuses or "cannot-finitize" in statuses:
        cert.verdict = "Fail"
        cert.fail_reason = (
            "depth-limit" if "depth-limit" in statuses else "cannot-finitize-zero-split"
        )
    return cert


# ---------------------------------------------------------------------------
# Serialization and replay
# ---------------------------------------------------------------------------


def _detail_json(detail: dict):
    out = {}
    for k, v in detail.items():
        if isinstance(v, Fraction):
            out[k] = str(v)
        elif isinstance(v, list) and v and isinstance(v[0], Fraction):
            out[k] = [str(f) for f in v]
        else:
            out[k] = v
    return out


def _document(cert: ProofCertificate) -> dict:
    """The certificate as plain JSON data; equal documents are equal proofs."""
    return {
        "input_digest": cert.input_digest,
        "nvars": cert.nvars,
        "xbar": str(cert.xbar),
        "depth_limit": cert.depth_limit,
        "verdict": cert.verdict,
        "witness": [str(x) for x in cert.witness] if cert.witness else None,
        "witness_value": (
            str(cert.witness_value) if cert.witness_value is not None else None
        ),
        "fail_reason": cert.fail_reason,
        "tree": [
            {
                "path": list(node.path),
                "region": {
                    "highs": ["H" if h else "L" for h in node.region.highs],
                    "xbar": str(node.region.xbar),
                },
                "box": (
                    {
                        "bounds": [
                            [str(a), str(b)] for a, b in node.box.bounds
                        ],
                        "open_low": list(node.box.open_low),
                    }
                    if node.box is not None
                    else None
                ),
                "digest": node.digest,
                "tests": [
                    {
                        "test": o.test,
                        "result": o.result,
                        "detail": _detail_json(o.detail),
                    }
                    for o in node.outcomes
                ],
                "status": node.status,
            }
            for node in cert.nodes
        ],
    }


def certificate_to_json(cert: ProofCertificate) -> str:
    return json.dumps(_document(cert), indent=2)


def certificate_from_json(text: str) -> ProofCertificate:
    doc = json.loads(text)
    nodes = []
    for raw in doc["tree"]:
        region = RegionSpec(
            tuple(h == "H" for h in raw["region"]["highs"]),
            parse_rational(raw["region"]["xbar"]),
        )
        box = None
        if raw["box"] is not None:
            box = BoxSpec(
                tuple(
                    (parse_rational(a), parse_rational(b))
                    for a, b in raw["box"]["bounds"]
                ),
                tuple(raw["box"]["open_low"]),
            )
        outcomes = [
            TestOutcome(t["test"], t["result"], t["detail"]) for t in raw["tests"]
        ]
        nodes.append(
            CertNode(tuple(raw["path"]), region, box, raw["digest"], outcomes, raw["status"])
        )
    return ProofCertificate(
        input_digest=doc["input_digest"],
        nvars=doc["nvars"],
        xbar=parse_rational(doc["xbar"]),
        depth_limit=doc["depth_limit"],
        verdict=doc["verdict"],
        nodes=nodes,
        witness=(
            [parse_rational(x) for x in doc["witness"]] if doc["witness"] else None
        ),
        witness_value=(
            parse_rational(doc["witness_value"])
            if doc["witness_value"] is not None
            else None
        ),
        fail_reason=doc["fail_reason"],
    )


def replay_certificate(cert: ProofCertificate, P: MultiPoly) -> bool:
    """Check cert by proving P again at its xbar and depth_limit: True iff the
    new certificate equals cert node for node, so a replay costs one prove.
    False for another polynomial, a negative xbar or the zero polynomial.
    """
    if P.digest() != cert.input_digest or P.is_zero() or cert.xbar < 0:
        return False
    return _document(prove_nonneg(P, cert.xbar, cert.depth_limit)) == _document(cert)
