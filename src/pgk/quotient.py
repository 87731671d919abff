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
checks when it is built that it has this shape, and then compares every
pair of divisors once: ``comparable[i]`` is the bitmask of the classes
joined to class i, the one home of the divisibility relation that the
adjacency test, the subgroup and component scans and the class cut all read.

QuotientGraph is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Sequence

from .arith import Factorization, factorize


@dataclass(frozen=True)
class QuotientGraph:
    """One class per divisor of n, weighed phi(d) by build_quotient.

    Checked when built, else ValueError: ``divisors`` is every divisor of
    ``f.n`` in strictly ascending order, and ``weights`` one positive int per
    divisor. The class route relies on this unchecked: ``_source_flows`` and
    ``_ClassNet.isolation`` read 1 first and n last, and the flows need
    positive weights.

    Then one pass over the divisor pairs fills two tuples, indexed like
    ``divisors``: bit j of ``comparable[i]`` is set iff d_i != d_j and one
    divides the other, and ``near[i]`` is w(N(d_i)), the weight of those
    classes. They follow from the fields above, so equality ignores them, as
    it does the divisor -> position dict that ``index`` reads, built beside
    them.
    """

    f: Factorization
    divisors: tuple[int, ...]
    weights: tuple[int, ...]
    comparable: tuple[int, ...] = field(init=False, compare=False, repr=False)
    near: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        n, ds, ws = self.f.n, self.divisors, self.weights
        tau = prod(e + 1 for _, e in self.f.factors)
        # tau distinct positive divisors of n are all of them
        if len(ds) != tau or list(ds) != sorted(set(ds)) or ds[0] < 1 or any(map(n.__mod__, ds)):
            raise ValueError(f"divisors must be every divisor of {n}, in ascending order")
        if len(ws) != tau or set(map(type, ws)) != {int} or min(ws) < 1:
            raise ValueError(f"weights must be {tau} positive ints, one per divisor")
        comp = [0] * tau
        near = [0] * tau
        for i, d in enumerate(ds):
            for j in range(i + 1, tau):
                if ds[j] % d == 0:
                    comp[i] |= 1 << j
                    comp[j] |= 1 << i
                    near[i] += ws[j]
                    near[j] += ws[i]
        object.__setattr__(self, "comparable", tuple(comp))
        object.__setattr__(self, "near", tuple(near))
        object.__setattr__(self, "_index", {d: i for i, d in enumerate(ds)})

    @property
    def n(self) -> int:
        return self.f.n

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
        return bool(self.comparable[self.index(d)] >> self.index(e) & 1)

    def classes(self, mask: int) -> frozenset[int]:
        """The divisors at the set bits of mask, a mask over divisor indices."""
        return frozenset(d for i, d in enumerate(self.divisors) if mask >> i & 1)

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

    These are d and the classes below d comparable to it. The class weights
    over the result sum to d, the subgroup's size.
    """
    i = g.index(d)
    return g.classes(g.comparable[i] & ((1 << i) - 1) | 1 << i)


def components_without(g: QuotientGraph, removed: Iterable[int]) -> list[frozenset[int]]:
    """Connected components of the quotient after deleting the given classes.

    Components are returned sorted by their smallest divisor: each search
    starts from the lowest class not yet reached.
    """
    unseen = (1 << len(g.divisors)) - 1
    for d in removed:
        unseen &= ~(1 << g.index(d))  # raises unless d divides n
    components: list[frozenset[int]] = []
    while unseen:
        comp = front = unseen & -unseen
        while front:
            front = _union(g.comparable, front) & unseen & ~comp
            comp |= front
        unseen ^= comp
        components.append(g.classes(comp))
    return components


def _union(masks: Sequence[int], m: int) -> int:
    # the OR of masks[i] over the set bits i of m
    acc = 0
    while m:
        low = m & -m
        acc |= masks[low.bit_length() - 1]
        m ^= low
    return acc
