"""Certificates of the positivity prover and their JSON form.

A certificate records the region/box tree of one run: for each node its
region or box, the digest of its polynomial, the test outcomes and its
status, and the verdict with any witness.  `checker.replay_certificate`
checks one by its tree and witness, without proving again; it does not read
the digests, the details or the failed outcomes, which record how the run
went, not why the verdict holds.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

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

    def contains(self, point) -> bool:
        for x, (a, b), op in zip(point, self.bounds, self.open_low):
            if not ((a < x if op else a <= x) and x <= b):
                return False
        return True


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


def certificate_document(cert: ProofCertificate) -> dict:
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
    return json.dumps(certificate_document(cert), indent=2)


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
