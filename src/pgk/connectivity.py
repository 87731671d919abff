"""Vertex connectivity of P(C_n) via minimum weighted class cuts.

A smallest disconnecting vertex set of the power graph is a union of whole
order classes, so kappa(P(C_n)) is the minimum total phi-weight of a divisor
set whose removal disconnects the quotient graph. That minimum is computed
exactly by node-splitting max-flows (each class an arc of capacity phi(d),
adjacency arcs unbounded) from a few heavy source classes to the classes not
adjacent to them; ``kappa_class`` states the source rule and its proof.
Complete quotients (n = 1 or a prime power) have no non-adjacent pair and
kappa = n - 1 by convention, kappa(P(C_1)) = 0 included.

The independent element-level brute force lives in ``element_oracle`` and
shares no graph or flow code with this module; the two routes are meant to
check each other.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .arith import factorize
from .formulas import CASE_II_BOUND, classify
from .quotient import QuotientGraph

#: KappaResult.case_tag value for n where no closed form is known.
COMPUTED_ONLY = "computed-only"


@dataclass(frozen=True)
class KappaResult:
    """A connectivity value plus how it was obtained and which case n is."""

    n: int
    kappa: int
    method: str  # "class-cut" | "element-oracle" | "formula"
    case_tag: str


@dataclass(frozen=True)
class SeparationWitness:
    """A certified separation: removing ``removed`` splits the survivors.

    block_a and block_b partition the surviving divisor classes and no class
    of one block divides or is divided by a class of the other.
    """

    removed: frozenset[int]
    block_a: frozenset[int]
    block_b: frozenset[int]


def case_tag_for(n: int) -> str:
    """Classification tag for reporting; 'computed-only' where no formula exists."""
    tag = classify(factorize(n)).tag
    return COMPUTED_ONLY if tag == CASE_II_BOUND else tag


class _FlowNet:
    """Dinic max-flow on a small integer-capacity network."""

    def __init__(self, size: int) -> None:
        self.adj: list[list[list[int]]] = [[] for _ in range(size)]

    def add_arc(self, a: int, b: int, cap: int) -> None:
        # arc entries are [to, residual capacity, index of reverse arc]
        self.adj[a].append([b, cap, len(self.adj[b])])
        self.adj[b].append([a, 0, len(self.adj[a]) - 1])

    def _levels(self, s: int, t: int) -> list[int] | None:
        level = [-1] * len(self.adj)
        level[s] = 0
        queue = deque([s])
        while queue:
            a = queue.popleft()
            for b, cap, _ in self.adj[a]:
                if cap > 0 and level[b] < 0:
                    level[b] = level[a] + 1
                    queue.append(b)
        return level if level[t] >= 0 else None

    def _push(self, a: int, t: int, amount: int, level: list[int], it: list[int]) -> int:
        if a == t:
            return amount
        while it[a] < len(self.adj[a]):
            arc = self.adj[a][it[a]]
            b, cap, rev = arc
            if cap > 0 and level[b] == level[a] + 1:
                pushed = self._push(b, t, min(amount, cap), level, it)
                if pushed > 0:
                    arc[1] -= pushed
                    self.adj[b][rev][1] += pushed
                    return pushed
            it[a] += 1
        return 0

    def max_flow(self, s: int, t: int, limit: int | None = None) -> int:
        """Max flow value; may stop early once the flow reaches ``limit``.

        An early stop still returns a value >= limit, so minima tracked across
        several calls are unaffected.
        """
        flow = 0
        while limit is None or flow < limit:
            level = self._levels(s, t)
            if level is None:
                break
            it = [0] * len(self.adj)
            while True:
                pushed = self._push(s, t, 1 << 62, level, it)
                if pushed == 0:
                    break
                flow += pushed
        return flow

    def residual_source_side(self, s: int) -> set[int]:
        seen = {s}
        queue = deque([s])
        while queue:
            a = queue.popleft()
            for b, cap, _ in self.adj[a]:
                if cap > 0 and b not in seen:
                    seen.add(b)
                    queue.append(b)
        return seen


def _build_net(g: QuotientGraph) -> _FlowNet:
    # node 2i is the entry of divisor i, node 2i+1 its exit
    ds = g.divisors
    net = _FlowNet(2 * len(ds))
    inf = g.n + 1  # exceeds the total class weight, so adjacency arcs never cut
    for i, d in enumerate(ds):
        net.add_arc(2 * i, 2 * i + 1, g.weights[i])
        for j in range(i + 1, len(ds)):
            if ds[j] % d == 0:
                net.add_arc(2 * i + 1, 2 * j, inf)
                net.add_arc(2 * j + 1, 2 * i, inf)
    return net


def min_cut_between(g: QuotientGraph, u: int, v: int) -> tuple[int, frozenset[int]]:
    """Minimum-weight class set separating u from v, with its weight.

    u and v must be distinct non-adjacent divisors; neither belongs to the
    returned cut. The cut is recovered from the residual network, so it is a
    genuine certificate: deleting it leaves no u-v path.
    """
    if not g.has_divisor(u) or not g.has_divisor(v):
        raise ValueError(f"{u} and {v} must both divide {g.n}")
    if u == v:
        raise ValueError("cut endpoints must be distinct")
    if g.adjacent(u, v):
        raise ValueError(f"classes {u} and {v} are adjacent; no vertex cut separates them")
    net = _build_net(g)
    iu = g.index(u)
    iv = g.index(v)
    weight = net.max_flow(2 * iu + 1, 2 * iv)
    side = net.residual_source_side(2 * iu + 1)
    cut = frozenset(
        d
        for i, d in enumerate(g.divisors)
        if 2 * i in side and 2 * i + 1 not in side
    )
    if weight != sum(g.weight(d) for d in cut):
        raise RuntimeError(f"cut {sorted(cut)} does not weigh the flow value {weight}")
    return weight, cut


def kappa_class(g: QuotientGraph) -> KappaResult:
    """Exact kappa(P(C_n)) from the quotient graph.

    Source rule (Even 1975; Esfahanian and Hakimi 1984): visit the classes
    x other than the universal 1 and n heaviest first, take the cheapest cut
    from x to each class v not adjacent to it, and stop once the visited
    weight exceeds best - phi(n) - 1, best being the running minimum.

    Proof sketch: a minimum separator S weighs kappa <= best and contains 1
    and n, so its other classes weigh at most best - phi(n) - 1. The visited
    set is heavier (or holds every class, while S leaves two), so some
    visited x lies outside S. S separates x from some v in another
    component, v is not adjacent to x, and cut(x, v) = kappa.
    """
    n = g.n
    if g.is_complete:
        return KappaResult(n, n - 1, "class-cut", "prime-power")

    universal = g.weight(1) + g.weight(n)  # phi(n) + 1
    best: int | None = None
    visited = 0
    for x in sorted(g.divisors[1:-1], key=g.weight, reverse=True):
        for v in g.divisors:
            if v != x and not g.adjacent(x, v):
                net = _build_net(g)
                w = net.max_flow(2 * g.index(x) + 1, 2 * g.index(v), limit=best)
                if best is None or w < best:
                    best = w
        visited += g.weight(x)
        if best is not None and visited > best - universal:
            break
    if best is None:
        raise RuntimeError(f"n={n}: a non-complete quotient has no non-adjacent pair")
    return KappaResult(n, best, "class-cut", case_tag_for(n))


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


def verify_witness(g: QuotientGraph, w: SeparationWitness) -> bool:
    """True iff the witness certifies a separation of the surviving classes."""
    return not witness_problems(g, w)
