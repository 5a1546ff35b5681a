"""One closed-loop pass over a workload's cases, and the check an
independent verifier makes of the certificates the pass produced.

One client, no threads: each case starts when the previous one has ended.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

from gasprover import (
    build_contraction_poly,
    certificate_from_json,
    certificate_to_json,
    parse_rde,
    prove,
    prove_k,
    replay_certificate,
)

import oracle
from cases import Case
from layers import PASS_ROOTS, REPLAY_ROOT, certificate_counts

_PARSE, _PROVE = PASS_ROOTS


@dataclass
class CaseRun:
    case: Case
    spec: object = None
    result: object = None  # the PipelineResult, None when the prover raised
    error: Exception | None = None
    seconds: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def decided(self) -> bool:
        return self.result is not None and self.result.verdict in ("true", "false")

    @property
    def answer(self) -> str:
        """The verdict, or the kind of error the prover raised."""
        if self.result is not None:
            return self.result.verdict
        return getattr(self.error, "kind", None) or type(self.error).__name__

    @property
    def certificate(self):
        return None if self.result is None else self.result.certificate

    def signature(self) -> tuple:
        """Everything about the answer that must repeat exactly."""
        r, cert = self.result, self.certificate
        return (
            self.case.rde, self.case.call, self.case.k,
            None if self.error is None else repr(self.error),
            None if r is None else (r.verdict, r.reason, r.K,
                                    r.equilibrium and r.equilibrium.value),
            None if cert is None else (
                cert.verdict, cert.witness, cert.fail_reason,
                tuple(certificate_counts([cert]).items()),
            ),
        )


@dataclass
class PassRun:
    runs: list[CaseRun]
    wall_s: float
    check_s: float = 0.0
    replay_s: float = 0.0
    cert_bytes: int = 0
    # wall_s and check_s scaled to the nominal host speed (see speed.py)
    scaled_wall_s: float = 0.0
    scaled_check_s: float = 0.0

    def certificates(self):
        return [r.certificate for r in self.runs if r.certificate is not None]


def _span(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def run_pass(cases: list[Case], tracer=None) -> PassRun:
    runs = []
    start = time.perf_counter()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case = i
        run = CaseRun(case)
        t0 = time.perf_counter()
        # Any exception is the answer for this case, and the oracle judges it.
        try:
            with _span(tracer, _PARSE):
                run.spec = parse_rde(case.rde)
            with _span(tracer, _PROVE):
                if case.call == "prove":
                    run.result = prove(run.spec, maxK=case.k)
                else:
                    run.result = prove_k(run.spec, case.k)
        except Exception as exc:
            run.error = exc
        run.seconds = time.perf_counter() - t0
        runs.append(run)
    return PassRun(runs, time.perf_counter() - start)


def check_pass(p: PassRun, tracer=None) -> None:
    """Serialize each certificate, parse it back, rebuild P and replay it."""
    for run in p.runs:
        cert = run.certificate
        if cert is None:
            continue
        t0 = time.perf_counter()
        try:
            text = certificate_to_json(cert)
            back = certificate_from_json(text)
            P = build_contraction_poly(run.spec, run.result.equilibrium, run.result.K)
            t1 = time.perf_counter()
            with _span(tracer, REPLAY_ROOT):
                ok = replay_certificate(back, P)
        except Exception as exc:
            run.problems.append(f"{run.case.rde}: check raised {exc!r}")
            continue
        t2 = time.perf_counter()
        p.check_s += t2 - t0
        p.replay_s += t2 - t1
        p.cert_bytes += len(text.encode())
        if not ok:
            run.problems.append(f"{run.case.rde}: certificate does not replay")


def judge_pass(p: PassRun) -> None:
    for run in p.runs:
        run.problems += oracle.check(run.case, run.result, run.error)
