#!/usr/bin/env python3
"""Minimum separators: the layer family, their enumeration, and n = 2310.

Shows Z(r, k) for a few n, proves the counts by listing every minimum
separator from the class cut's tight flows (unique in the 2*phi(P) > P and
r = 3 cases, one per top exponent for n = 2^a p^b), and prints the
hand-built 2310 certificate that beats the general upper bound. Exits 1 if
the certificate has no witness or is not the only minimum separator.
"""

import sys

from pgk import (
    build_quotient,
    build_Z,
    check_disconnects,
    enumerate_min_separators,
    example_2310,
    totient,
    upper_bound_ii,
)

for n in (45, 36, 150):
    g = build_quotient(n)
    seps = enumerate_min_separators(g)
    print(f"n = {n}: kappa = {seps[0].weight}")
    for k in range(g.f.exponents[-1]):
        z = build_Z(g, k)
        w = check_disconnects(z)
        print(
            f"  {z.label}: remove {sorted(z.classes)} (weight {z.weight}); "
            f"splits off {sorted(w.block_a)}"
        )
    print(f"  enumeration finds {len(seps)} minimum separator(s): "
          f"{[s.label for s in seps]}")
    print()

print("n = 2310 = 2*3*5*7*11: no exact formula is known, only a bound.")
sep = example_2310()
phi = totient(2310)
bound = upper_bound_ii(sep.g.f)
print(f"  bound: kappa <= {bound} = phi(n) + {bound - phi}")
print(f"  but removing {sorted(sep.classes)}")
print(f"  disconnects at weight {sep.weight} = phi(n) + {sep.weight - phi}")
if sep.witness is None:
    sys.exit("FAILED: the 2310 certificate carries no witness")
print(f"  witness: class {sorted(sep.witness.block_a)} separates from the rest")
seps = enumerate_min_separators(sep.g)
print(f"  the class cut shows this is optimal: kappa(P(C_2310)) = {seps[0].weight}")
only = [s.classes for s in seps] == [sep.classes]
print(f"  and that it is the only minimum separator: {only}")
if not only:
    sys.exit("FAILED: the 2310 certificate is not the only minimum separator")
