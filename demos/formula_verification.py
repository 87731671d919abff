#!/usr/bin/env python3
"""Sweep the case trichotomy and confirm every closed form against computation.

For each n up to the chosen limit: classify by the sign of 2*phi(P) - P,
evaluate the exact formula where one exists, the upper bound where it does
not, and compare everything to the weighted class cut. Exits 1 if any closed
form, bound or floor characterization disagrees with the computation.
"""

import sys
from collections import Counter

from pgk import (
    build_quotient,
    classify,
    factorize,
    kappa_class,
    kappa_formula,
    totient,
    upper_bound_ii,
)

limit = int(sys.argv[1]) if len(sys.argv) > 1 else 400

tags = Counter()
floor_hits = []
mismatches = []
bound_violations = []
for n in range(2, limit + 1):
    f = factorize(n)
    c = classify(f)
    tags[c.tag] += 1
    computed = kappa_class(build_quotient(n)).kappa
    formula = kappa_formula(f)
    if formula is not None and formula != computed:
        mismatches.append(n)
    bound = upper_bound_ii(f)
    if bound is not None and computed > bound:
        bound_violations.append(n)
    if f.r >= 2 and computed == totient(n) + 1:
        floor_hits.append(n)

print(f"n <= {limit} by case: {dict(sorted(tags.items()))}")
print(f"closed-form mismatches: {mismatches or 'none'}")
print(f"upper-bound violations: {bound_violations or 'none'}")
off_floor = [n for n in floor_hits if factorize(n).exponents != (1, 1)]
print(f"kappa at its floor phi(n)+1 exactly on the squarefree biprimes:")
print(f"  {floor_hits[:15]} ...")
print(f"  floor hits that are not squarefree biprimes: {off_floor or 'none'}")

print("\nspot values:")
for n in (36, 45, 105, 150):
    print(f"  kappa({n}) = {kappa_formula(factorize(n))}")

if mismatches or bound_violations or off_floor:
    sys.exit("FAILED: a closed form disagrees with the class cut")
