"""The divisor-class quotient of the power graph of a cyclic group.

In the power graph of C_n two elements are adjacent iff one generates a
subgroup containing the other, which for a cyclic group depends only on the
two element orders: d-order and e-order elements are adjacent exactly when
d | e or e | d. Elements of equal order share their closed neighbourhood, so
the whole graph is the blow-up of a small quotient: one node per divisor d of
n (the class of elements of order d, of size phi(d)), nodes joined by proper
divisibility, each class expanding to a clique with complete joins along
quotient edges. Minimum vertex cuts respect this structure -- a smallest
disconnecting set always consists of whole order classes -- which is what
makes connectivity questions tractable at class level. build_quotient factors
n once; the quotient keeps that Factorization as ``f`` beside the weights phi(d).
Every QuotientGraph, a hand-built one with other positive weights included,
checks when it is built that it has this shape.

QuotientGraph is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from typing import Iterable

from .arith import Factorization, factorize


@dataclass(frozen=True)
class QuotientGraph:
    """One class per divisor of n, weighed phi(d) by build_quotient.

    Checked when built, else ValueError: ``divisors`` is every divisor of
    ``f.n`` in strictly ascending order, and ``weights`` one positive int per
    divisor. The class route relies on this unchecked: ``_source_flows`` and
    ``_ClassNet.isolation`` read 1 first and n last, and the flows need
    positive weights.
    """

    f: Factorization
    divisors: tuple[int, ...]
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        n, ds, ws = self.f.n, self.divisors, self.weights
        tau = prod(e + 1 for _, e in self.f.factors)
        # tau distinct positive divisors of n are all of them
        if len(ds) != tau or list(ds) != sorted(set(ds)) or ds[0] < 1 or any(map(n.__mod__, ds)):
            raise ValueError(f"divisors must be every divisor of {n}, in ascending order")
        if len(ws) != tau or set(map(type, ws)) != {int} or min(ws) < 1:
            raise ValueError(f"weights must be {tau} positive ints, one per divisor")

    @property
    def n(self) -> int:
        return self.f.n

    @cached_property
    def _index(self) -> dict[int, int]:
        return {d: i for i, d in enumerate(self.divisors)}

    def weight(self, d: int) -> int:
        return self.weights[self.index(d)]

    def index(self, d: int) -> int:
        """Position of divisor d in the ascending divisor list."""
        try:
            return self._index[d]
        except KeyError:
            raise ValueError(f"{d} does not divide {self.n}") from None

    def adjacent(self, d: int, e: int) -> bool:
        """True iff the classes of d and e are joined: d != e and one divides the other."""
        self.index(d)
        self.index(e)
        return d != e and (e % d == 0 or d % e == 0)

    @property
    def is_complete(self) -> bool:
        """Complete iff the divisors form a chain, i.e. n is 1 or a prime power."""
        return self.f.r <= 1


def build_quotient(n: int) -> QuotientGraph:
    """Quotient graph of P(C_n): nodes are divisors of n in ascending order."""
    f = factorize(n)
    return QuotientGraph(f, *zip(*f.divisor_classes()))


def subgroup_classes(g: QuotientGraph, d: int) -> frozenset[int]:
    """Divisor classes making up the unique subgroup of order d: all e | d.

    The class weights over the result sum to d, the subgroup's size.
    """
    g.weight(d)  # raises unless d divides n
    return frozenset(e for e in g.divisors if d % e == 0)


def expand_to_elements(n: int, classes: Iterable[int]) -> frozenset[int]:
    """Residues x in Z_n whose order n/gcd(n, x) lies in the given classes."""
    chosen = set(classes)
    for d in chosen:
        if d < 1 or n % d != 0:
            raise ValueError(f"{d} does not divide {n}")
    return frozenset(x for x in range(n) if n // gcd(n, x) in chosen)


def components_without(g: QuotientGraph, removed: Iterable[int]) -> list[frozenset[int]]:
    """Connected components of the quotient after deleting the given classes.

    Components are returned sorted by their smallest divisor.
    """
    gone = set(removed)
    for d in gone:
        g.weight(d)  # raises unless d divides n
    survivors = [d for d in g.divisors if d not in gone]
    components: list[frozenset[int]] = []
    unseen = set(survivors)
    for start in survivors:
        if start not in unseen:
            continue
        stack = [start]
        unseen.discard(start)
        comp = {start}
        while stack:
            d = stack.pop()
            for e in list(unseen):
                if e % d == 0 or d % e == 0:
                    unseen.discard(e)
                    comp.add(e)
                    stack.append(e)
        components.append(frozenset(comp))
    return sorted(components, key=min)
