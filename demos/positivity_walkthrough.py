"""Walkthrough: the region-splitting positivity prover on two polynomials.

First a quadratic handled by the positive-definiteness test alone, then a
quartic that needs finitization and one level of box subdivision.
Run with: python3 demos/positivity_walkthrough.py
"""
from fractions import Fraction

from gasprover import parse_poly, prove_nonneg
from gasprover.checker import subdivide
from gasprover.positivity import finitize, orthant_split

F = Fraction


def show(cert):
    print(f"  verdict: {cert.verdict}")
    for node in cert.nodes:
        where = "/".join(node.path)
        tests = ", ".join(f"{o.test}={o.result}" for o in node.outcomes)
        print(f"  node {where}: {node.status} ({tests})")


print("1. P = x^2 - x*y + y^2, split at xbar = 1")
P = parse_poly("x0^2-x0*x1+x1^2")
for region, poly in orthant_split(P, F(1)):
    print(f"  region {region.label}: {poly}")
print("The NE and SW mixed terms are negative, but the degree-2 part is a")
print("positive definite form (discriminant 3), so no subdivision is needed:")
show(prove_nonneg(P, F(1)))

print("\n2. P = x^4*y - 5*x^3*y + 10*x^2*y + x^2 + y, split at xbar = 1")
P = parse_poly("x0^4*x1-5*x0^3*x1+10*x0^2*x1+x0^2+x1")
regions = {}
for region, poly in orthant_split(P, F(1)):
    regions[region.label] = region
    print(f"  region {region.label}: {poly}")
print("NE and SE fail the coefficient tests; each is mapped onto a finite")
print("box and halved per axis, after which every piece has non-negative")
print("coefficients:")
for label in ("NE", "SE"):
    poly, box = finitize(P, regions[label])
    print(f"  {label} finitized onto {box.bounds}: {poly}")
    for child_label, child in subdivide(box):
        piece = poly.box_map(child.bounds)
        ok = all(c >= 0 for c in piece.terms.values())
        print(f"    sub-box {child_label}: non-negative coefficients = {ok}")
show(prove_nonneg(P, F(1)))
