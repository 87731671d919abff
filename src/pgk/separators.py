"""Separator certificates: their constructions, their witnesses and the check.

A ClassSeparator carries a SeparationWitness that check_disconnects builds:
two blocks of survivors with no edge between them. witness_problems checks
one by divisibility alone; neither calls anything of the class cut.

The layered family Z(r, k), defined for 0 <= k <= e_r - 1, removes

  * the generator class of n,
  * the classes of alpha_j = p_1^e_1 ... p_{r-1}^e_{r-1} * p_r^j for
    k < j < e_r, and
  * the full subgroups of order beta_{k,i} = alpha_k / p_i for each of the
    r - 1 smaller primes.

What survives splits into the remaining alpha layer (orders divisible by
alpha_0) and everything else, so Z(r, k) always disconnects the quotient.
Its element count |Z(r, k)| is formulas.size_Z_formula, and optimal_Z builds
the layer formulas.best_layer picks. In the exactly-solved cases that layer
is not just small but IS the minimum separator: unique when 2*phi(P) > P and
when r = 3 with 2*phi(p_1 p_2) < p_1 p_2, and for n = 2^e_1 p^e_2 the e_2
sets Z(2, k) are precisely the minimum separators. enumerate_min_separators
machine-checks statements of that kind: it lists every minimum separator
from the tight flows of the class cut's source rule, at any number of
divisors. Each function takes n's quotient, which a ClassSeparator keeps
as ``g``, and reads n's factorization as ``g.f``; only example_2310 builds one.

The layer sets are not always optimal: for n = 2310 a hand-built separator
mixing the order classes of 210 and 330 with the subgroups of order 6, 10
and 15 has 630 = phi(n) + 150 elements, beating the k = 0 layer set's 642.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .arith import alpha_beta
from .connectivity import min_cuts
from .formulas import CASE_III, best_layer, classify
from .quotient import QuotientGraph, build_quotient, components_without, subgroup_classes


@dataclass(frozen=True)
class SeparationWitness:
    """A certified separation: removing ``removed`` splits the survivors.

    block_a and block_b partition the surviving divisor classes and no class
    of one block divides or is divided by a class of the other.
    """

    removed: frozenset[int]
    block_a: frozenset[int]
    block_b: frozenset[int]


@dataclass(frozen=True)
class ClassSeparator:
    """A divisor-class set proposed as a separator of the quotient g."""

    g: QuotientGraph
    classes: frozenset[int]
    witness: SeparationWitness | None = None
    label: str = ""
    note: str = ""

    @property
    def n(self) -> int:
        return self.g.n

    @property
    def weight(self) -> int:
        """The number of elements removed: the phi-sum of the classes."""
        return sum(map(self.g.weight, self.classes))


def build_Z(g: QuotientGraph, k: int) -> ClassSeparator:
    """The layer separator Z(r, k) as a divisor-class set."""
    f = g.f
    alpha_beta(f, k)  # raises unless r >= 2 and 0 <= k <= e_r - 1
    e_r = f.exponents[-1]
    classes = {f.n}
    for j in range(k + 1, e_r):
        classes.add(alpha_beta(f, j))
    for i in range(1, f.r):
        classes |= subgroup_classes(g, alpha_beta(f, k, i))
    return ClassSeparator(g, frozenset(classes), label=f"Z({f.r},{k})")


def optimal_Z(g: QuotientGraph) -> ClassSeparator:
    """The weight-minimizing member of the Z family.

    k = e_r - 1 when 2*phi(P) > P, k = 0 when 2*phi(P) < P; at equality every
    k gives the same weight and k = 0 is returned with a note saying so.
    """
    c = classify(g.f)
    sep = build_Z(g, best_layer(g.f, c))
    if c.tag == CASE_III:
        sep = replace(sep, note="all k in the Z family tie at this weight")
    return sep


def example_2310() -> ClassSeparator:
    """The hand-built separator for n = 2310 that beats the Z family.

    Removes the order classes of 2310, 210 and 330 plus the subgroups of
    order 6, 10 and 15: 630 = phi(2310) + 150 elements. Carries a verified
    witness whose small side is the single class of order 30.
    """
    g = build_quotient(2310)
    classes = frozenset({g.n, 210, 330}).union(*(subgroup_classes(g, d) for d in (6, 10, 15)))
    sep = ClassSeparator(g, classes, label="example-2310")
    return replace(sep, witness=check_disconnects(sep))


def witness_problems(g: QuotientGraph, w: SeparationWitness) -> list[str]:
    """All reasons the witness fails to certify a separation; empty if valid."""
    problems: list[str] = []
    all_divisors = set(g.divisors)
    for name, part in (("removed", w.removed), ("block_a", w.block_a), ("block_b", w.block_b)):
        bad = set(part) - all_divisors
        if bad:
            problems.append(f"{name} contains non-divisors of {g.n}: {sorted(bad)}")
    if problems:
        return problems
    if not w.block_a or not w.block_b:
        problems.append("both blocks must be nonempty")
    if w.block_a & w.block_b:
        problems.append("blocks overlap")
    if (w.block_a | w.block_b) & w.removed:
        problems.append("blocks overlap the removed set")
    expected = all_divisors - w.removed
    if w.block_a | w.block_b != expected:
        problems.append("blocks do not cover exactly the surviving classes")
    for a in sorted(w.block_a):
        for b in sorted(w.block_b):
            if a != b and (a % b == 0 or b % a == 0):
                problems.append(f"edge between blocks: {a} ~ {b}")
    return problems


def check_disconnects(s: ClassSeparator) -> SeparationWitness:
    """Certify that removing s.classes disconnects the quotient of P(C_n).

    Returns a two-block witness: block_a is the component holding the
    smallest surviving alpha-layer divisor (one divisible by alpha_0) when
    such a survivor exists, else the smallest component; block_b merges the
    rest. Raises if the remainder is connected, empty, or a single class.
    """
    g = s.g
    comps = components_without(g, s.classes)
    survivors = [d for d in g.divisors if d not in s.classes]
    if len(survivors) < 2:
        raise ValueError(
            f"only {len(survivors)} class(es) survive removal; no separation exists"
        )
    if len(comps) < 2:
        raise ValueError(f"removing {sorted(s.classes)} leaves the quotient connected")
    block_a: frozenset[int] | None = None
    if g.f.r >= 2:
        alpha0 = alpha_beta(g.f, 0)
        layered = [d for d in survivors if d % alpha0 == 0]
        if layered:
            anchor = min(layered)
            block_a = next(c for c in comps if anchor in c)
    if block_a is None:
        block_a = min(comps, key=lambda c: (len(c), sorted(c)))
    block_b = frozenset().union(*(c for c in comps if c is not block_a))
    return SeparationWitness(
        removed=frozenset(s.classes), block_a=block_a, block_b=block_b
    )


def enumerate_min_separators(g: QuotientGraph) -> list[ClassSeparator]:
    """Every minimum separator of P(C_n), from one pass of the source rule.

    Each result weighs kappa, contains the universal classes 1 and n,
    carries a verified witness, and is labelled Z(r, k) when it coincides
    with a layer set. Output is lexicographic by divisor set. Raises
    ValueError for a complete quotient, which has no separator.

    Proof sketch that every minimum separator is a tight x-v cut: when the
    source rule of ``kappa_class`` stops, its running minimum best is kappa.
    Let S be a minimum separator. The rule visits some x outside S, and S
    separates x from a class v in another component, so v is not adjacent
    to x. Every x-v separator weighs at least cut(x, v) >= kappa = w(S), so
    S is a minimum x-v cut and cut(x, v) = kappa. best starts at the seed,
    the weight of a separator N(d) (``_ClassNet.isolation``), so it is at
    least kappa throughout. That flow ran with a limit above it, so it was
    exact and ties best at the end. In the split network the adjacency arcs
    have no capacity, so a minimum x-v cut crosses class arcs only, and the
    minimum x-v vertex cuts are the class sets of the minimum cuts. Those
    are exactly the residual-closed source sides of one max flow (Picard
    and Queyranne 1980). Conversely each such cut weighs kappa and
    separates x from v. So the cuts of the flows that tie best at the end,
    deduplicated across flows, are the minimum separators. ``min_cuts``
    gathers them as the flows run, emptying its set whenever best falls, so
    a flow that tied an earlier, higher best leaves nothing behind.
    """
    kappa, found = min_cuts(g)
    layers = [build_Z(g, k) for k in range(g.f.exponents[-1])]
    z_labels = {z.classes: z.label for z in layers}
    results = []
    for classes in sorted(found, key=lambda s: tuple(sorted(s))):
        sep = ClassSeparator(g, classes, label=z_labels.get(classes, "enumerated"))
        if sep.weight != kappa:
            raise RuntimeError(f"cut {sorted(classes)} does not weigh the flow value {kappa}")
        results.append(replace(sep, witness=check_disconnects(sep)))
    return results
