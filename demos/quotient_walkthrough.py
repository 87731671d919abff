#!/usr/bin/env python3
"""A tour of the divisor-class model of P(C_n) and the two kappa routes.

Walks through n = 36: the quotient graph, its weights, its minimum
separators, and the agreement between the class-level computation, the element-level
brute force, and the closed form.
"""

from math import gcd

from pgk import (
    build_quotient,
    enumerate_min_separators,
    kappa_class,
    kappa_element_oracle,
    kappa_formula,
    subgroup_classes,
)

n = 36
g = build_quotient(n)

print(f"n = {n}: the power graph has {n} vertices, but only {len(g.divisors)}")
print("kinds of vertex -- one per divisor (element order), weighted by phi:")
for d, weight in zip(g.divisors, g.weights):
    members = [x for x in range(n) if n // gcd(n, x) == d]
    print(f"  order {d:>2}: {weight} element(s) {members}")

print("\nClasses are adjacent when one order divides the other, e.g.")
print(f"  4 ~ 12: {g.adjacent(4, 12)},   4 ~ 6: {g.adjacent(4, 6)}")
pairs = [(u, v) for i, u in enumerate(g.divisors) for v in g.divisors[i + 1 :] if v % u]
print(f"incomparable divisor pairs: {pairs}")

print(f"\nsubgroup of order 6 = classes {sorted(subgroup_classes(g, 6))}")

print("\nevery cheapest class set whose removal disconnects the graph:")
for sep in enumerate_min_separators(g):
    print(f"  {sep.label}: remove {sorted(sep.classes)} at total weight {sep.weight}")

print("\nkappa three ways:")
print(f"  weighted class cut : {kappa_class(g).kappa}")
print(f"  element brute force: {kappa_element_oracle(n).kappa}")
print(f"  closed form        : {kappa_formula(g.f)}")
