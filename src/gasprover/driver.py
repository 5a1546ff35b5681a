"""End-to-end pipeline: local stability pre-check, an exact contraction-
exponent loop (the positivity prover run for K = 1, 2, ... up to maxK), and
batch ("webbook") reporting.

Verdicts follow a three-valued contract: "true" (global asymptotic stability
proven, always with a Proven certificate attached), "false" (the equilibrium
is not locally asymptotically stable, or an exact negative witness was found),
and "FAIL" (the method was inconclusive within the given budgets).
"""
from __future__ import annotations

import math
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction

# Not called by the pipeline; imported so that driver.conjecture_k stays a
# hook target of bench/layers.py until the mesh module is retired.
from .conjecture import conjecture_k
from .polynomial import MultiPoly
from .positivity import ProofCertificate, prove_nonneg
from .recurrence import (
    Equilibrium,
    RecurrenceSpec,
    UnsupportedInputError,
    build_contraction_poly,
    find_equilibrium,
    parse_rde,
)
from .stability import LasVerdict, las_check

__all__ = [
    "PipelineResult",
    "WebbookReport",
    "prove",
    "prove_k",
    "webbook",
]


@dataclass
class PipelineResult:
    verdict: str  # true | false | FAIL
    reason: str
    K: int | None = None
    equilibrium: Equilibrium | None = None
    las: LasVerdict | None = None
    certificate: ProofCertificate | None = None
    timings: dict = field(default_factory=dict)


# The pipeline verdict and reason for each positivity verdict.
_VERDICTS = {
    "Proven": ("true", "positivity-proven"),
    "Disproven": ("false", "negative-witness"),
    "Fail": ("FAIL", "positivity-undecided"),
}


def _prove_step(
    spec: RecurrenceSpec, eq: Equilibrium, K: int, depth_limit: int,
    timings: dict,
) -> tuple[PipelineResult, MultiPoly]:
    """Build the contraction polynomial for K and run the positivity prover,
    adding the stage times to the running totals in `timings`; returns the
    result and the polynomial.

    An identically-zero polynomial (periodic maps at even powers) is "false":
    strict contraction demands strict positivity off the equilibrium.
    """
    t0 = time.perf_counter()
    P = build_contraction_poly(spec, eq, K)
    timings["build"] = timings.get("build", 0.0) + time.perf_counter() - t0
    if P.is_zero():
        return PipelineResult(
            "false", "identically-zero-for-strictness", K=K, equilibrium=eq,
            timings=timings,
        ), P
    t0 = time.perf_counter()
    cert = prove_nonneg(P, eq.value, depth_limit)
    timings["positivity"] = timings.get("positivity", 0.0) + time.perf_counter() - t0
    verdict, reason = _VERDICTS[cert.verdict]
    return PipelineResult(
        verdict, reason, K=K, equilibrium=eq, certificate=cert, timings=timings,
    ), P


def prove_k(
    spec: RecurrenceSpec, K: int, depth_limit: int = 12
) -> PipelineResult:
    """Decide whether the given contraction exponent K works.

    "true" iff the contraction polynomial is proven non-negative on the
    orthant; an identically-zero polynomial is "false".
    """
    return _prove_k(spec, K, depth_limit)[0]


def _prove_k(
    spec: RecurrenceSpec, K: int, depth_limit: int
) -> tuple[PipelineResult, MultiPoly]:
    """prove_k's result and the contraction polynomial it decided."""
    if K < 1:
        raise ValueError("K must be >= 1")
    t0 = time.perf_counter()
    eq = find_equilibrium(spec)
    timings = {"equilibrium": time.perf_counter() - t0}
    return _prove_step(spec, eq, K, depth_limit, timings)


def prove(
    spec: RecurrenceSpec,
    maxK: int = 10,
    depth_limit: int = 12,
) -> PipelineResult:
    """Full pipeline: local stability, then the exact K loop.

    The positivity prover runs for K = 1, 2, ... up to maxK and the first
    Proven K is the answer; a false K is refuted cheaply, mostly by the exact
    dyadic grid of prove_nonneg.
    """
    if maxK < 1:
        raise ValueError("maxK must be >= 1")
    t0 = time.perf_counter()
    eq = find_equilibrium(spec)
    timings = {"equilibrium": time.perf_counter() - t0}
    t0 = time.perf_counter()
    las = las_check(spec, eq)
    timings["las"] = time.perf_counter() - t0
    if las.outcome == "unstable":
        return PipelineResult(
            "false", "not-locally-asymptotically-stable",
            equilibrium=eq, las=las, timings=timings,
        )
    if las.outcome == "inconclusive":
        return PipelineResult(
            "FAIL", "local-stability-inconclusive",
            equilibrium=eq, las=las, timings=timings,
        )

    last_cert = None
    for K in range(1, maxK + 1):
        step = _prove_step(spec, eq, K, depth_limit, timings)[0]
        last_cert = step.certificate or last_cert
        if step.verdict == "true":
            step.las = las
            return step
    return PipelineResult(
        "FAIL", "max-k-exhausted", K=maxK, equilibrium=eq,
        las=las, certificate=last_cert, timings=timings,
    )


# ---------------------------------------------------------------------------
# Webbook: batch proving over randomly instantiated parameter templates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WebbookRow:
    values: tuple[tuple[str, Fraction], ...]
    rde: str
    status: str  # true | false | FAIL | skipped
    detail: str
    equilibrium: Fraction | None = None
    K: int | None = None


@dataclass
class WebbookReport:
    template: str
    seed: int
    rows: list[WebbookRow]

    def to_text(self) -> str:
        lines = [f"template: {self.template}", f"seed: {self.seed}"]
        header = ("params", "equilibrium", "K", "verdict", "detail")
        table = [header]
        for row in self.rows:
            params = ", ".join(f"{n}={v}" for n, v in row.values)
            table.append(
                (
                    params,
                    "-" if row.equilibrium is None else str(row.equilibrium),
                    "-" if row.K is None else str(row.K),
                    row.status,
                    row.detail,
                )
            )
        widths = [max(len(r[i]) for r in table) for i in range(len(header))]
        for r in table:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        return "\n".join(lines) + "\n"


_MAX_DENOMINATOR = 64


def _sample_rational(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational in (lo, hi] with denominator at most 64."""
    for _ in range(1000):
        q = rng.randrange(1, _MAX_DENOMINATOR + 1)
        p_lo = math.floor(lo * q) + 1
        p_hi = math.floor(hi * q)
        if p_lo > p_hi:
            continue
        return Fraction(rng.randrange(p_lo, p_hi + 1), q)
    raise ValueError(f"cannot sample a rational in ({lo}, {hi}]")


def webbook(
    template: str,
    ranges: dict[str, tuple[Fraction, Fraction]],
    count: int,
    seed: int,
    maxK: int = 10,
    depth_limit: int = 12,
    order: int | None = None,
) -> WebbookReport:
    """Instantiate the template `count` times at random rational parameter
    values drawn from half-open ranges (lo, hi], prove each instance, and
    collect a deterministic tabular report.

    Instances whose coefficients come out non-positive are skipped and
    recorded as such rather than aborting the batch.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    for name, (lo, hi) in ranges.items():
        if not re.fullmatch(r"[A-Za-z_]\w*", name) or re.fullmatch(r"x\d+", name):
            raise ValueError(f"invalid parameter name: {name}")
        if lo >= hi:
            raise ValueError(f"empty range for {name}: ({lo}, {hi}]")
    rng = random.Random(seed)
    names = sorted(ranges)
    rows = []
    for _ in range(count):
        values = tuple(
            (name, _sample_rational(rng, *ranges[name])) for name in names
        )
        rde = template
        for name, v in values:
            rde = re.sub(
                rf"\b{re.escape(name)}\b",
                f"({v.numerator}/{v.denominator})",
                rde,
            )
        try:
            spec = parse_rde(rde, order)
            result = prove(spec, maxK, depth_limit)
        except UnsupportedInputError as exc:
            rows.append(WebbookRow(values, rde, "skipped", exc.kind))
            continue
        rows.append(
            WebbookRow(
                values,
                rde,
                result.verdict,
                result.reason,
                equilibrium=result.equilibrium.value
                if result.equilibrium
                else None,
                K=result.K,
            )
        )
    return WebbookReport(template, seed, rows)
