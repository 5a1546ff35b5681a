"""Mesh-based conjecture of the contraction exponent K.

Before attempting a full positivity proof, the contraction polynomial is
minimized over a finite rational mesh by deterministic multi-start steepest
descent. Evaluation is exact; only the search is heuristic, so a returned K
is a conjecture to be proved, never a proof by itself.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .polynomial import MultiPoly
from .recurrence import Equilibrium, RecurrenceSpec, build_contraction_poly

_SEED = 987654321


class MeshParams:
    """The mesh step eps, N steps per axis, the restarts and the largest K."""

    __slots__ = ("eps", "N", "restarts", "maxK")

    def __init__(self, eps: Fraction = Fraction(1, 10), N: int = 100, restarts: int = 200,
                 maxK: int = 10):
        if eps <= 0 or N < 1 or restarts < 1 or maxK < 1:
            raise ValueError("mesh parameters must be positive")
        self.eps, self.N, self.restarts, self.maxK = eps, N, restarts, maxK


def mesh_minimize(
    P: MultiPoly, params: MeshParams
) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """Distinct local minima of P on the mesh {eps, 2eps, ..., N*eps}^n.

    Multi-start steepest descent on the mesh graph (neighbors differ by one
    step in one coordinate); starts are stratified corners plus seeded random
    points, so results are reproducible.
    """
    n = P.nvars
    eps, N = params.eps, params.N

    # Mesh points are i*eps; rescaling by the positive constant den*q^D, with
    # den the denominator of P's packed integers, turns every mesh value into
    # an integer, which keeps the descent comparisons exact but much faster
    # than Fraction arithmetic. True values are recovered at the end by
    # dividing the scale back out.
    p_num, q_den = eps.numerator, eps.denominator
    D = P.total_degree()
    packing, ints, den = P.packed()
    int_terms = [
        (exps, c * p_num ** sum(exps) * q_den ** (D - sum(exps)))
        for exps, c in packing.unpack_terms(ints).items()
    ]
    scale = Fraction(den * q_den ** D)
    cache: dict[tuple[int, ...], int] = {}

    def value(idx: tuple[int, ...]) -> int:
        if idx not in cache:
            total = 0
            for exps, coeff in int_terms:
                term = coeff
                for i, e in zip(idx, exps):
                    if e:
                        term *= i ** e
                total += term
            cache[idx] = total
        return cache[idx]

    def descend(idx: tuple[int, ...]) -> tuple[int, ...]:
        while True:
            best = idx
            best_val = value(idx)
            for axis in range(n):
                for step in (-1, 1):
                    j = idx[axis] + step
                    if not 1 <= j <= N:
                        continue
                    cand = idx[:axis] + (j,) + idx[axis + 1 :]
                    v = value(cand)
                    if v < best_val or (v == best_val and best != idx and cand < best):
                        best, best_val = cand, v
            if best == idx:
                return idx
            idx = best

    rng = random.Random(_SEED)
    starts = set()
    for corner in range(2 ** n):
        starts.add(tuple(N if (corner >> i) & 1 else 1 for i in range(n)))
    starts.add(tuple([max(1, N // 2)] * n))
    target = min(params.restarts, N ** n)
    while len(starts) < target:
        starts.add(tuple(rng.randrange(1, N + 1) for _ in range(n)))

    minima: dict[tuple[int, ...], int] = {}
    for start in sorted(starts):
        idx = descend(start)
        minima[idx] = value(idx)
    return sorted(
        ([i * eps for i in idx], v / scale) for idx, v in minima.items()
    )


def conjecture_k(
    spec: RecurrenceSpec, eq: Equilibrium, params: MeshParams
) -> int | None:
    """First K <= maxK whose mesh minima are all >= 0; None if none found.

    Identically-zero contraction polynomials (periodic maps) are skipped:
    they cannot witness strict contraction.
    """
    for K in range(1, params.maxK + 1):
        P = build_contraction_poly(spec, eq, K)
        if P.is_zero():
            continue
        minima = mesh_minimize(P, params)
        if all(v >= 0 for _, v in minima):
            return K
    return None
