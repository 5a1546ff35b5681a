"""Per-layer metrics: the hooks that trace each gasprover module, the metrics
derived from their spans, and the machine-independent counts read from
certificates.

Layers are named after the modules. Only functions and methods that the
package looks up by name at call time can be hooked; per-arithmetic methods
such as ``MultiPoly.__mul__`` are left alone because their call counts would
swamp the timings.
"""
from __future__ import annotations

from collections import Counter

from tracer import Hook, Span, self_times


def _note_build(span: Span, args, result) -> None:
    span.attrs["K"] = args[2] if len(args) > 2 else None
    span.attrs["terms"] = len(result.terms)
    span.attrs["degree"] = result.total_degree()


def _note_box_map(span: Span, args, result) -> None:
    span.attrs["terms_out"] = len(result.terms)


# Entry points of the univariate module that other modules call and that do
# more than one arithmetic operation.
_UNIVARIATE = ("cauchy_bound", "count_roots_half_open", "count_roots_open",
               "rational_roots", "squarefree", "gcd_poly")

HOOKS = [
    Hook("parsing", "gasprover.recurrence:parse_ratfun"),
    Hook("recurrence.equilibrium", "gasprover.driver:find_equilibrium"),
    Hook("stability", "gasprover.driver:las_check"),
    *(Hook("univariate", f"gasprover.univariate:{name}") for name in _UNIVARIATE),
    Hook("conjecture", "gasprover.driver:conjecture_k"),
    Hook("conjecture.mesh", "gasprover.conjecture:mesh_minimize"),
    Hook("recurrence.build", "gasprover.driver:build_contraction_poly", _note_build),
    Hook("recurrence.build", "gasprover.conjecture:build_contraction_poly",
         _note_build),
    Hook("positivity", "gasprover.driver:prove_nonneg"),
    Hook("positivity.region_poly", "gasprover.positivity:region_poly"),
    Hook("positivity.region_poly", "gasprover.positivity:finitize"),
    Hook("positivity.tests", "gasprover.positivity:_run_tests"),
    Hook("positivity.witness", "gasprover.positivity:_search_negative"),
    Hook("polynomial.box_map", "gasprover.polynomial:MultiPoly.box_map",
         _note_box_map),
    Hook("polynomial.digest", "gasprover.polynomial:MultiPoly.digest"),
]

LAYERS = list(dict.fromkeys(h.layer for h in HOOKS))

# Spans the benchmark opens itself around its calls into the package. The
# pass runs under "case.*" roots and the certificate check under "check.*".
PASS_ROOTS = ("case.parse", "case.prove")
REPLAY_ROOT = "check.replay"

# Metrics computed from spans, with their unit and the layer they need.
SPAN_METRICS = [
    *((f"{layer}.s", "s", layer) for layer in LAYERS),
    *((f"{layer}.calls", "count", layer) for layer in LAYERS),
    ("positivity.self_s", "s", "positivity"),
    ("polynomial.box_map.terms_out", "count", "polynomial.box_map"),
    ("recurrence.build.repeat_ratio", "calls/build", "recurrence.build"),
    ("recurrence.P.terms_max", "count", "recurrence.build"),
    ("recurrence.P.degree_max", "count", "recurrence.build"),
    ("driver.k_tried", "runs/call", "positivity"),
    ("positivity.cert.replay_box_maps", "count", "polynomial.box_map"),
    ("trace.coverage", "share", None),
]

CERT_STATUSES = ("pass", "split", "refute")
CERT_TESTS = ("PosCoeffs", "ZeroOnlyAtOrigin", "SubPolyN", "LCoeff", "Const")

# Counts read from the certificates of one pass; they must repeat exactly.
CERT_METRICS = [
    ("positivity.nodes", "count"),
    ("positivity.max_depth", "count"),
    ("positivity.depth_limit_hits", "count"),
    *((f"positivity.status.{s}", "count") for s in CERT_STATUSES),
    *((f"positivity.decided_by.{t}", "count") for t in CERT_TESTS),
    ("positivity.nodes_to_refute", "count"),
]

# Metrics of the certificate check and of the tracing itself.
CHECK_METRICS = [
    ("positivity.cert.bytes", "B"),
    ("positivity.cert.replay_s", "s"),
    ("trace.overhead_s", "s"),
]

UNITS = {name: unit for name, unit, *_ in SPAN_METRICS + CERT_METRICS + CHECK_METRICS}


def certificate_counts(certificates) -> dict[str, int]:
    counts = Counter()
    max_depth = 0
    for cert in certificates:
        counts["positivity.nodes"] += len(cert.nodes)
        if cert.verdict == "Disproven":
            counts["positivity.nodes_to_refute"] += len(cert.nodes)
        for node in cert.nodes:
            max_depth = max(max_depth, len(node.path) - 1)
            if node.status == "depth-limit":
                counts["positivity.depth_limit_hits"] += 1
            if node.status in CERT_STATUSES:
                counts[f"positivity.status.{node.status}"] += 1
            decisive = [o.test for o in node.outcomes if o.result == node.status]
            if decisive:
                counts[f"positivity.decided_by.{decisive[-1]}"] += 1
    counts["positivity.max_depth"] = max_depth
    return {name: counts[name] for name, _ in CERT_METRICS}


def _root(spans: list[Span], i: int) -> str:
    while spans[i].parent is not None:
        i = spans[i].parent
    return spans[i].name


def span_metrics(spans: list[Span], layers: set[str], pass_wall_s: float) -> dict:
    """Metrics of one traced pass; those of a layer without hooks are left out."""
    roots = [_root(spans, i) for i in range(len(spans))]
    own = self_times(spans)
    in_pass = [s for s, r in zip(spans, roots) if r in PASS_ROOTS]
    by_layer = {layer: [s for s in in_pass if s.name == layer] for layer in LAYERS}

    out = {}
    for layer in layers:
        out[f"{layer}.s"] = sum(s.duration for s in by_layer[layer])
        out[f"{layer}.calls"] = len(by_layer[layer])
    if "positivity" in layers:
        out["positivity.self_s"] = sum(
            t for s, t, r in zip(spans, own, roots)
            if s.name == "positivity" and r in PASS_ROOTS
        )
        proves = sum(1 for s in in_pass if s.name == "case.prove")
        out["driver.k_tried"] = len(by_layer["positivity"]) / max(1, proves)
    if "polynomial.box_map" in layers:
        out["polynomial.box_map.terms_out"] = sum(
            s.attrs["terms_out"] for s in by_layer["polynomial.box_map"]
        )
        out["positivity.cert.replay_box_maps"] = sum(
            1 for s, r in zip(spans, roots)
            if s.name == "polynomial.box_map" and r == REPLAY_ROOT
        )
    if "recurrence.build" in layers:
        builds = by_layer["recurrence.build"]
        distinct = {(s.case, s.attrs["K"]) for s in builds}
        out["recurrence.build.repeat_ratio"] = len(builds) / max(1, len(distinct))
        out["recurrence.P.terms_max"] = max((s.attrs["terms"] for s in builds), default=0)
        out["recurrence.P.degree_max"] = max((s.attrs["degree"] for s in builds), default=0)
    top = sum(s.duration for s in spans if s.parent is None and s.name in PASS_ROOTS)
    out["trace.coverage"] = top / pass_wall_s
    return out
