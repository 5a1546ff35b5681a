"""End-to-end pipeline: local stability pre-check, an exact contraction-
exponent loop (the positivity prover run for K = n, n + 1, ... up to maxK,
where n is the recurrence's order: no smaller K can contract; a K that the
exact orbit of an earlier K's negative point refutes is skipped), and batch
("webbook") reporting.

Verdicts follow a three-valued contract: "true" (global asymptotic stability
proven, always with a Proven certificate attached), "false" (the equilibrium
is not locally asymptotically stable, or an exact negative witness or an
exact zero away from the equilibrium was found), and "FAIL" (the method was
inconclusive within the given budgets).
"""
from __future__ import annotations

import math
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .certificate import ProofCertificate
# Not called by the pipeline; imported so that driver.conjecture_k stays a
# hook target of bench/layers.py until the mesh module is retired.
from .conjecture import conjecture_k
from .polynomial import MultiPoly
from .positivity import grid_line_negatives, prove_nonneg
from .recurrence import (
    Composition,
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
    """A `prove` or `prove_k` answer: verdict, reason, last K, equilibrium, LAS, certificate."""

    verdict: str  # true | false | FAIL
    reason: str
    K: int | None = None
    equilibrium: Equilibrium | None = None
    las: LasVerdict | None = None
    certificate: ProofCertificate | None = None
    timings: dict = field(default_factory=dict)


# The pipeline verdict and reason for each positivity verdict, and for the
# one Fail reason that rules the K out: a zero of P away from x̄.
_VERDICTS = {
    "Proven": ("true", "positivity-proven"),
    "Disproven": ("false", "negative-witness"),
    "Fail": ("FAIL", "positivity-undecided"),
    "zero-off-xbar": ("false", "zero-off-xbar"),
}


def _prove_step(
    spec: RecurrenceSpec, eq: Equilibrium, K: int, depth_limit: int,
    timings: dict, composition: Composition | None = None,
) -> tuple[PipelineResult, MultiPoly]:
    """Build the contraction polynomial for K and run the positivity prover,
    adding the stage times to the running totals in `timings`; returns the
    result and the polynomial.  The build composes on from `composition`
    when one is given (see `build_contraction_poly`).

    An identically-zero polynomial (periodic maps at even powers) is "false",
    and so is one with a zero away from x̄: strict contraction demands strict
    positivity off the equilibrium.
    """
    t0 = time.perf_counter()
    P = build_contraction_poly(spec, eq, K, composition)
    timings["build"] = timings.get("build", 0.0) + time.perf_counter() - t0
    if P.is_zero():
        return PipelineResult(
            "false", "identically-zero-for-strictness", K=K, equilibrium=eq,
            timings=timings,
        ), P
    t0 = time.perf_counter()
    cert = prove_nonneg(P, eq.value, depth_limit)
    timings["positivity"] = timings.get("positivity", 0.0) + time.perf_counter() - t0
    verdict, reason = _VERDICTS.get(cert.fail_reason) or _VERDICTS[cert.verdict]
    return PipelineResult(
        verdict, reason, K=K, equilibrium=eq, certificate=cert, timings=timings,
    ), P


def _orbits_refute(orbits, K: int, timings: dict) -> bool:
    """Whether some orbit ends farther from x̄ at K than it started, so that
    P_K < 0 at its start and K is not a contraction; the time goes to
    timings["orbits"]."""
    t0 = time.perf_counter()
    refuted = any(orbit.farther(K) for orbit in orbits)
    timings["orbits"] = timings.get("orbits", 0.0) + time.perf_counter() - t0
    return refuted


def prove_k(
    spec: RecurrenceSpec, K: int, depth_limit: int = 12
) -> PipelineResult:
    """Decide whether the given contraction exponent K works.

    "true" iff the contraction polynomial is proven non-negative on the
    orthant; an identically-zero polynomial, or one with a zero away from
    x̄, is "false".
    """
    return _prove_k(spec, K, depth_limit)[0]


def _prove_k(
    spec: RecurrenceSpec, K: int, depth_limit: int
) -> tuple[PipelineResult, MultiPoly]:
    """prove_k's result and the contraction polynomial it decided."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if depth_limit < 0:
        raise ValueError("depth_limit must be >= 0")
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

    The positivity prover runs for K = n, n + 1, ... up to maxK, where n is
    spec.order, and the first Proven K is the answer; a false K is refuted
    cheaply, mostly by the exact dyadic grid of prove_nonneg.  With maxK < n
    no K is tried: the result is FAIL max-k-exhausted, with no certificate.

    No K < n can be a strict contraction.  Q^K then only shifts x_0 ...
    x_{n-1-K} into the K oldest slots, so with R_j = (Q^j)_0,
        |Q^K(x) - x̄|² - |x - x̄|² = Σ_{j<=K} (R_j(x) - x̄)² - Σ_{i>=n-K} (x_i - x̄)²,
    which is >= 0 at any x != x̄ whose K oldest coordinates equal x̄.  Such
    points lie in every domain the pipeline accepts: x̄ > 0 is inside the open
    orthant, and x̄ = 0 comes with a closed domain.  The same holds term by
    term for any positive diagonal weights on the squares.

    A K below maxK that an earlier K's negative points still refute is
    skipped: no P is built for it and no positivity walk runs.  When a built
    K ends Disproven, its witness and the other points of the dyadic grid on
    the witness's last-axis line where P_K < 0 are carried, those with every
    coordinate > 0, each with its exact orbit under Q (`orbit.Orbit`).
    P_K(w) < 0 exactly when |Q^K(w) - x̄| > |w - x̄|, as the cleared
    denominator is positive on the domain, so an orbit that ends farther
    from x̄ than it started shows P_K < 0 at a point of the domain, and that
    K cannot be Proven.  The verdict, reason, K and certificate are those of
    building every K; maxK is always built, and a FAIL carries its
    certificate.  The checks' time is timings["orbits"], present once a
    check has run.
    """
    if maxK < 1:
        raise ValueError("maxK must be >= 1")
    if depth_limit < 0:
        raise ValueError("depth_limit must be >= 0")
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
    # one composition for the whole loop: each built K composes on from the last
    composition = Composition(spec)
    # the orbits of the points where a built K's P was negative; none of a
    # built K's points is carried already, as its orbit would have refuted K
    orbits = []
    for K in range(spec.order, maxK + 1):
        if orbits and K < maxK and _orbits_refute(orbits, K, timings):
            continue
        step, P = _prove_step(spec, eq, K, depth_limit, timings, composition)
        cert = step.certificate
        last_cert = cert or last_cert
        if step.verdict == "true":
            step.las = las
            return step
        if K < maxK and cert is not None and cert.verdict == "Disproven":
            points = grid_line_negatives(P, cert.witness)
            if cert.witness not in points and min(cert.witness) > 0:
                points.insert(0, cert.witness)
            # here, not at the top: a run that refutes no K never loads the
            # module, which without a bytecode cache it would compile
            from .orbit import Orbit, orbit_map

            R = orbit_map(composition.R)
            orbits += [Orbit(R, eq.value, point) for point in points]
    return PipelineResult(
        "FAIL", "max-k-exhausted", K=maxK, equilibrium=eq,
        las=las, certificate=last_cert, timings=timings,
    )


# ---------------------------------------------------------------------------
# Webbook: batch proving over randomly instantiated parameter templates
# ---------------------------------------------------------------------------


class WebbookRow(NamedTuple):
    values: tuple[tuple[str, Fraction], ...]
    rde: str
    status: str  # true | false | FAIL | skipped
    detail: str
    equilibrium: Fraction | None = None
    K: int | None = None


class WebbookReport(NamedTuple):
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
    recorded as such rather than aborting the batch.  Every parameter must
    occur in the template as a whole word, the match it is substituted by.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if depth_limit < 0:
        raise ValueError("depth_limit must be >= 0")
    words = {name: rf"\b{re.escape(name)}\b" for name in ranges}
    for name, (lo, hi) in ranges.items():
        if not re.fullmatch(r"[A-Za-z_]\w*", name) or re.fullmatch(r"x\d+", name):
            raise ValueError(f"invalid parameter name: {name}")
        if not re.search(words[name], template):
            raise ValueError(f"parameter {name} does not occur in the template")
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
            rde = re.sub(words[name], f"({v.numerator}/{v.denominator})", rde)
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
