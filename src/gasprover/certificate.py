"""Certificates of the positivity prover and their JSON form.

A certificate records the region/box tree of one run, one node per place:
for each node its path, region and box (none at a region), the test
outcomes and its status, and the verdict with any witness.  A node is
`split` when it was subdivided and `depth-limit` when it would have been
but lay past the depth limit.  `checker.replay_certificate` checks one by
its tree and witness, without proving again; it does not read the details
or the failed outcomes, which record how the run went, not why the verdict
holds.  The input's digest ties the certificate to P; nodes carry none, as
the checker makes each node polynomial itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .packed import decimal_str
from .parsing import parse_rational


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


@dataclass(frozen=True)
class TestOutcome:
    test: str  # PosCoeffs | ZeroOnlyAtOrigin | SubPolyN | LCoeff | Const | Cones (regions only)
    result: str  # pass | fail | refute
    detail: dict = field(default_factory=dict)


@dataclass
class CertNode:
    path: tuple[str, ...]
    region: RegionSpec
    box: BoxSpec | None  # None for region-level nodes
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


def _detail_json(detail: dict):
    out = {}
    for k, v in detail.items():
        if isinstance(v, Fraction):
            out[k] = decimal_str(v)
        elif isinstance(v, list) and v and isinstance(v[0], Fraction):
            out[k] = [decimal_str(f) for f in v]
        else:
            out[k] = v
    return out


def certificate_document(cert: ProofCertificate) -> dict:
    """The certificate as plain JSON data; equal documents are equal proofs."""
    return {
        "input_digest": cert.input_digest,
        "nvars": cert.nvars,
        "xbar": decimal_str(cert.xbar),
        "depth_limit": cert.depth_limit,
        "verdict": cert.verdict,
        "witness": None if cert.witness is None else [decimal_str(x) for x in cert.witness],
        "witness_value": (None if cert.witness_value is None
                          else decimal_str(cert.witness_value)),
        "fail_reason": cert.fail_reason,
        "tree": [_node_document(node) for node in cert.nodes],
    }


def _node_document(node: CertNode) -> dict:
    box = node.box
    return {
        "path": list(node.path),
        "region": {"highs": ["H" if h else "L" for h in node.region.highs],
                   "xbar": decimal_str(node.region.xbar)},
        "box": None if box is None else {"bounds": [[decimal_str(a), decimal_str(b)]
                                                    for a, b in box.bounds],
                                         "open_low": list(box.open_low)},
        "tests": [{"test": o.test, "result": o.result, "detail": _detail_json(o.detail)}
                  for o in node.outcomes],
        "status": node.status,
    }


def certificate_to_json(cert: ProofCertificate) -> str:
    import json  # here, not at the top: a proof that writes no JSON never loads it

    return json.dumps(certificate_document(cert), indent=2)


def _get(obj, key: str, where: str, kind=object):
    """obj[key], which must be there and of JSON type `kind`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    if key not in obj:
        raise ValueError(f"{where} has no {key!r}")
    if not isinstance(obj[key], kind):
        raise ValueError(f"{where}: {key!r} has the wrong JSON type")
    return obj[key]


def _rational(text, where: str) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"{where}: {text!r} is not a rational string")
    return parse_rational(text)


def _box(raw, where: str) -> BoxSpec:
    bounds = []
    for pair in _get(raw, "bounds", where, list):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"{where}: bound {pair!r} is not a pair")
        bounds.append((_rational(pair[0], where), _rational(pair[1], where)))
    open_low = _get(raw, "open_low", where, list)
    if not all(type(b) is bool for b in open_low):
        raise ValueError(f"{where}: 'open_low' holds {open_low!r}, not only JSON booleans")
    return BoxSpec(tuple(bounds), tuple(open_low))


def certificate_from_json(text: str) -> ProofCertificate:
    """The certificate of a JSON document.  ValueError if a key is missing or
    a value has the wrong JSON type; keys it does not know are ignored."""
    import json

    doc = json.loads(text)
    nodes = []
    for i, raw in enumerate(_get(doc, "tree", "certificate", list)):
        where = f"tree node {i}"
        region = _get(raw, "region", where, dict)
        box = _get(raw, "box", where, (dict, type(None)))
        highs = _get(region, "highs", where, list)
        if not all(h in ("H", "L") for h in highs):
            raise ValueError(f"{where}: 'highs' holds {highs!r}, not only 'H' and 'L'")
        outcomes = [TestOutcome(_get(t, "test", f"{where} test"), _get(t, "result", f"{where} test"),
                                _get(t, "detail", f"{where} test", dict))
                    for t in _get(raw, "tests", where, list)]
        nodes.append(CertNode(
            tuple(_get(raw, "path", where, list)),
            RegionSpec(tuple(h == "H" for h in highs),
                       _rational(_get(region, "xbar", where), where)),
            None if box is None else _box(box, where),
            outcomes,
            _get(raw, "status", where),
        ))
    witness = _get(doc, "witness", "certificate", (list, type(None)))
    value = _get(doc, "witness_value", "certificate")
    return ProofCertificate(
        input_digest=_get(doc, "input_digest", "certificate"),
        nvars=_get(doc, "nvars", "certificate"),
        xbar=_rational(_get(doc, "xbar", "certificate"), "certificate"),
        depth_limit=_get(doc, "depth_limit", "certificate"),
        verdict=_get(doc, "verdict", "certificate"),
        nodes=nodes,
        witness=None if witness is None else [_rational(x, "witness") for x in witness],
        witness_value=None if value is None else _rational(value, "witness_value"),
        fail_reason=_get(doc, "fail_reason", "certificate"),
    )
