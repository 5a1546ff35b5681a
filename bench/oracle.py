"""Independent verdict oracle.

It checks each answer of the prover against the hand-written truth table in
``cases`` and re-checks the claim behind it by iterating the map exactly, in
``Fraction`` arithmetic, without any code of gasprover:

* a ``true`` verdict must shrink the squared distance to the equilibrium
  strictly after K steps, at every probe point;
* a ``false`` verdict with a witness must make that distance grow after K
  steps;
* an input the table calls irrational must be rejected as unsupported, and
  no other input may be.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from cases import GAS, IRRATIONAL, NOT_GAS, Case

# Coordinates of the probe points; each map is probed on their full grid.
PROBE_VALUES = (Fraction(1, 3), Fraction(3, 2), Fraction(4), Fraction(29, 5))


def probe_points(order: int) -> list[tuple[Fraction, ...]]:
    return list(itertools.product(PROBE_VALUES, repeat=order))


def iterate(case: Case, point, K: int) -> tuple[Fraction, ...]:
    """Q^K(point), where Q(x) = (R(x), x0, ..., x_{k-1})."""
    state = tuple(point)
    for _ in range(K):
        state = (case.step(state),) + state[:-1]
    return state


def dist2(point, xbar: Fraction) -> Fraction:
    return sum((x - xbar) ** 2 for x in point)


def distance_change(case: Case, point, K: int) -> tuple[Fraction, Fraction]:
    """Squared distance to the equilibrium before and after K steps."""
    return dist2(point, case.xbar), dist2(iterate(case, point, K), case.xbar)


def check(case: Case, result, error: Exception | None) -> list[str]:
    """Problems with one answer; an empty list means it is right.

    ``result`` is the prover's ``PipelineResult`` (None when it raised
    ``error``). A FAIL verdict is never wrong, only undecided.
    """
    if error is not None:
        kind = getattr(error, "kind", None)
        if case.truth == IRRATIONAL and kind == "irrational-equilibrium":
            return []
        return [f"{case.rde}: raised {type(error).__name__} {kind or error}"]
    if case.truth == IRRATIONAL:
        return [f"{case.rde}: irrational equilibrium accepted ({result.verdict})"]

    problems = []
    eq = result.equilibrium
    if eq is not None and eq.value != case.xbar:
        problems.append(f"{case.rde}: equilibrium {eq.value}, expected {case.xbar}")
    cert = result.certificate
    if result.verdict == "true":
        if case.truth == NOT_GAS:
            problems.append(f"{case.rde}: 'true' for a map that is not GAS")
        if cert is None or cert.verdict != "Proven":
            problems.append(f"{case.rde}: 'true' without a Proven certificate")
        for point in probe_points(case.order):
            if all(x == case.xbar for x in point):
                continue
            before, after = distance_change(case, point, result.K)
            if not after < before:
                problems.append(
                    f"{case.rde}: K={result.K} does not contract at {point}"
                )
                break
    elif result.verdict == "false":
        if case.call == "prove" and case.truth == GAS:
            problems.append(f"{case.rde}: 'false' for a GAS map")
        witness = cert.witness if cert is not None else None
        if witness is not None:
            problems += _check_witness(case, witness, result.K)
        elif case.call == "prove_k":
            problems.append(f"{case.rde}: 'false' at K={result.K} without a witness")
    elif result.verdict != "FAIL":
        problems.append(f"{case.rde}: unknown verdict {result.verdict!r}")
    return problems


def _check_witness(case: Case, witness, K: int) -> list[str]:
    if len(witness) != case.order or any(x < 0 for x in witness):
        return [f"{case.rde}: witness {witness} outside the orthant"]
    try:
        before, after = distance_change(case, witness, K)
    except ZeroDivisionError:
        return [f"{case.rde}: witness {witness} outside the domain"]
    if not after > before:
        return [f"{case.rde}: witness {witness} does not grow at K={K}"]
    return []
