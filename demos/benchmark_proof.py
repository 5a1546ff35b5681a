"""Walkthrough: proving global asymptotic stability of a second-order map.

The recurrence x_{n+1} = (4 + x_n) / (1 + x_{n-1}) has equilibrium 2. The
proof proceeds in stages: exact local stability, then for K = 1, 2, ... the
contraction polynomial and an exact orthant positivity check, until one K
is proven. Run with: python3 demos/benchmark_proof.py
"""
from gasprover import (
    build_contraction_poly,
    certificate_to_json,
    find_equilibrium,
    las_check,
    parse_rde,
    prove_nonneg,
    replay_certificate,
)

RDE = "(4+x0)/(1+x1)"

spec = parse_rde(RDE)
eq = find_equilibrium(spec)
print(f"recurrence: x_(n+1) = {RDE}  (x0 = x_n, x1 = x_(n-1))")
print(f"equilibrium: {eq.value}")

las = las_check(spec, eq)
coeffs = ", ".join(str(c) for c in las.char_poly)
print(f"\nlocal stability: {las.outcome}")
print(f"characteristic polynomial coefficients (low to high): {coeffs}")

print("\ncontraction exponent loop:")
for K in range(1, 9):
    P = build_contraction_poly(spec, eq, K)
    cert = prove_nonneg(P, eq.value)
    line = f"  K = {K}: {len(P.terms)} terms, {cert.verdict}"
    if cert.witness is not None:
        point = ", ".join(str(x) for x in cert.witness)
        line += f", P({point}) = {cert.witness_value}"
    print(line)
    if cert.verdict == "Proven":
        break

print(f"\ncontraction polynomial at K = {K}: total degree {P.total_degree()}, "
      f"constant term {P.constant_term()}")
print(f"positivity verdict: {cert.verdict}")
for node in cert.nodes:
    tests = ", ".join(f"{o.test}={o.result}" for o in node.outcomes)
    print(f"  region {node.region.label}: {node.status} ({tests})")

print(f"\ncertificate replays independently: {replay_certificate(cert, P)}")
print(f"certificate JSON size: {len(certificate_to_json(cert))} bytes")
print("\nconclusion: the equilibrium 2 is globally asymptotically stable.")
