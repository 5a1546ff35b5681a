"""The benchmark's workloads: which recurrences each one runs, drawn from a
seed, and the hand-written truth the oracle checks the prover against.

This module does not import gasprover, so the set-up probe can build the
inputs before it starts timing the package import.

Why these workloads (see also BENCHMARK.json):

* ``planar`` is the default ``prove()`` path on the paper's benchmark and the
  acceptance families. It ends mostly in ``Proven`` certificates, so the
  positivity proof covers the whole orthant, and the mesh conjecture
  dominates its time.
* ``order3`` is the third-order map of the roadmap, run through ``prove_k``.
  Positivity in three variables is refutation-heavy, and box maps dominate.
  K stops at 3 because the prover has no node budget: default ``prove()``
  on this map gives no verdict within minutes, and ``prove_k`` on
  ``1+x2/2`` at K=1 does not finish within 25 s, as P vanishes on a whole
  plane and subdivision runs to the depth limit.
* ``batch`` is many small instances drawn from parameter templates, so it
  measures the fixed costs per instance: parsing, the equilibrium and its
  root counting, the LAS check and small-K builds. It is the only workload
  where rejecting an irrational equilibrium does real work.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# What the literature says about a map: "GAS", "not-GAS", "irrational" (the
# unique positive equilibrium is irrational, so the prover must reject the
# input as unsupported), or None where the table makes no claim.
GAS, NOT_GAS, IRRATIONAL = "GAS", "not-GAS", "irrational"

Step = Callable[[tuple[Fraction, ...]], Fraction]


@dataclass(frozen=True)
class Case:
    """One call into the prover.

    ``rde`` is the text handed to ``parse_rde``; ``call`` is "prove" (with
    ``k`` as maxK) or "prove_k" (with ``k`` as K). ``step`` is the map R as an
    exact function of the state (x0 = newest value), written by hand
    independently of the parser; ``xbar`` is the equilibrium the oracle
    expects.
    """

    rde: str
    call: str
    k: int
    truth: str | None
    xbar: Fraction | None
    order: int
    step: Step


F = Fraction

PLANAR = [
    Case("(4+x0)/(1+x1)", "prove", 10, GAS, F(2), 2,
         lambda x: (4 + x[0]) / (1 + x[1])),
    Case("(1+2*x1)/(1+x0+x1)", "prove", 10, GAS, F(1), 2,
         lambda x: (1 + 2 * x[1]) / (1 + x[0] + x[1])),
    Case("x1/(2+x0+x1)", "prove", 10, GAS, F(0), 2,
         lambda x: x[1] / (2 + x[0] + x[1])),
    Case("x1/(2+x1)", "prove", 10, GAS, F(0), 2,
         lambda x: x[1] / (2 + x[1])),
    Case("2*x0/(1+x0)", "prove", 10, GAS, F(1), 1,
         lambda x: 2 * x[0] / (1 + x[0])),
    Case("1+1/2*x0", "prove", 10, GAS, F(2), 1,
         lambda x: 1 + x[0] / 2),
    # Unstable equilibrium: the LAS check answers "false".
    Case("2*x0", "prove", 10, NOT_GAS, F(0), 1,
         lambda x: 2 * x[0]),
    # Every orbit has period 2: LAS is inconclusive, the prover answers FAIL.
    Case("1/x0", "prove", 10, NOT_GAS, F(1), 1,
         lambda x: 1 / x[0]),
]


def _order3_step(x):
    return (2 + x[0]) / (1 + x[1] + x[2])


ORDER3 = [
    # Each K is disproven with a witness; the table makes no GAS claim.
    Case("(2+x0)/(1+x1+x2)", "prove_k", 1, None, F(1), 3, _order3_step),
    Case("(2+x0)/(1+x1+x2)", "prove_k", 2, None, F(1), 3, _order3_step),
    Case("(2+x0)/(1+x1+x2)", "prove_k", 3, None, F(1), 3, _order3_step),
    Case("x2/(2+x0+x1+x2)", "prove_k", 3, GAS, F(0), 3,
         lambda x: x[2] / (2 + x[0] + x[1] + x[2])),
]

BATCH_MAXK = 6
MAX_DENOMINATOR = 64


def rational(rng: random.Random, lo: int, hi: int,
             max_den: int = MAX_DENOMINATOR) -> Fraction:
    """A rational in (lo, hi] whose denominator is at most max_den."""
    q = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * q + 1, hi * q), q)


def is_rational_square(a: Fraction) -> bool:
    """Whether sqrt(a) is rational, decided with integer square roots."""
    return all(math.isqrt(n) ** 2 == n for n in (a.numerator, a.denominator))


def exact_sqrt(a: Fraction) -> Fraction:
    return Fraction(math.isqrt(a.numerator), math.isqrt(a.denominator))


def _gain(b):
    return Case(f"({b})*x0/(1+x0)", "prove", BATCH_MAXK, GAS, b - 1, 1,
                lambda x: b * x[0] / (1 + x[0]))


def _delay_sum(a):
    return Case(f"x1/(({a})+x0+x1)", "prove", BATCH_MAXK, GAS, F(0), 2,
                lambda x: x[1] / (a + x[0] + x[1]))


def _delay(a):
    return Case(f"x1/(({a})+x1)", "prove", BATCH_MAXK, GAS, F(0), 2,
                lambda x: x[1] / (a + x[1]))


def _riccati(a):
    # The equilibrium is sqrt(a); the prover needs it rational.
    rational_eq = is_rational_square(a)
    return Case(f"(({a})+x0)/(1+x0)", "prove", BATCH_MAXK,
                GAS if rational_eq else IRRATIONAL,
                exact_sqrt(a) if rational_eq else None, 1,
                lambda x: (a + x[0]) / (1 + x[0]))


RICCATI_RATIONAL = 5
RICCATI_IRRATIONAL = 15


def batch(rng: random.Random) -> list[Case]:
    """70 instances: 30 gains, 10 + 10 delays and 20 Riccati maps.

    The Riccati parameter is drawn as a square for a fixed number of the
    instances and as a non-square for the rest, so the share of inputs that
    must be rejected is the same for every seed.
    """
    cases = [_gain(rational(rng, 1, 5)) for _ in range(30)]
    cases += [_delay_sum(rational(rng, 1, 4)) for _ in range(10)]
    cases += [_delay(rational(rng, 1, 3)) for _ in range(10)]
    for _ in range(RICCATI_RATIONAL):
        r = rational(rng, 1, 3, max_den=math.isqrt(MAX_DENOMINATOR))
        cases.append(_riccati(r * r))
    for _ in range(RICCATI_IRRATIONAL):
        a = rational(rng, 1, 9)
        while is_rational_square(a):
            a = rational(rng, 1, 9)
        cases.append(_riccati(a))
    rng.shuffle(cases)
    return cases


WORKLOADS = ("planar", "order3", "batch")


def build(workload: str, seed: int) -> list[Case]:
    """The cases of one pass, in the order the seed gives them."""
    rng = random.Random(seed)
    if workload == "batch":
        return batch(rng)
    if workload == "planar":
        cases = list(PLANAR)
    elif workload == "order3":
        cases = list(ORDER3)
    else:
        raise ValueError(f"unknown workload: {workload}")
    rng.shuffle(cases)
    return cases
