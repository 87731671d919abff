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
check each other. Both compute kappa only; the CLI report labels which of
the paper's cases n falls in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Collection, Iterator

from .quotient import QuotientGraph


@dataclass(frozen=True)
class KappaResult:
    """A connectivity value and the route that computed it."""

    n: int
    kappa: int
    method: str  # "class-cut" | "element-oracle"


@dataclass(frozen=True)
class SeparationWitness:
    """A certified separation: removing ``removed`` splits the survivors.

    block_a and block_b partition the surviving divisor classes and no class
    of one block divides or is divided by a class of the other.
    """

    removed: frozenset[int]
    block_a: frozenset[int]
    block_b: frozenset[int]


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

        A value below ``limit`` is the exact max flow, with the residual
        network to match; an early stop returns a value >= limit.
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

    def closure(self, u: int, forward: bool, closed: Collection[int] = ()) -> set[int]:
        """``closed`` plus every node u reaches along residual arcs (forward)
        or that reaches u (backward); ``closed`` must be closed that way."""
        seen = set(closed)
        seen.add(u)
        todo = [u]
        while todo:
            a = todo.pop()
            for b, cap, rev in self.adj[a]:
                if b not in seen and (cap if forward else self.adj[b][rev][1]) > 0:
                    seen.add(b)
                    todo.append(b)
        return seen

    def cut_sides(self, s: int, t: int) -> Iterator[set[int]]:
        """Every residual-closed node set holding s and not t, after a max flow.

        These are exactly the source sides of the minimum s-t cuts (Picard
        and Queyranne 1980). Start from the forward closure of s and the
        backward closure of t, then branch on a free node u: put its forward
        closure on the source side, or its backward closure on the sink side.
        Both branches always succeed, because a closed side cannot reach (or
        be reached from) a free node, so every leaf is a distinct cut and the
        delay is polynomial.
        """
        stack = [(self.closure(s, True), self.closure(t, False))]
        while stack:
            side, other = stack.pop()
            u = next((a for a in range(len(self.adj)) if a not in side and a not in other), None)
            if u is None:
                yield side
                continue
            stack.append((side, self.closure(u, False, other)))
            stack.append((self.closure(u, True, side), other))


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


def _cut_classes(g: QuotientGraph, side: set[int]) -> frozenset[int]:
    # the classes whose capacity arc leaves the source side
    return frozenset(
        d for i, d in enumerate(g.divisors) if 2 * i in side and 2 * i + 1 not in side
    )


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
    s = 2 * g.index(u) + 1
    weight = net.max_flow(s, 2 * g.index(v))
    cut = _cut_classes(g, net.closure(s, True))
    if weight != sum(g.weight(d) for d in cut):
        raise RuntimeError(f"cut {sorted(cut)} does not weigh the flow value {weight}")
    return weight, cut


def _source_flows(g: QuotientGraph) -> Iterator[tuple[int, int, _FlowNet, int]]:
    # The source rule's flows as (source node, sink node, net, value). Each
    # stops at best + 1, not best, so a flow that ties the running minimum is
    # exact and its residual network holds every one of its minimum cuts.
    universal = g.weight(1) + g.weight(g.n)  # phi(n) + 1
    best: int | None = None
    visited = 0
    for x in sorted(g.divisors[1:-1], key=g.weight, reverse=True):
        s = 2 * g.index(x) + 1
        for v in g.divisors:
            if v != x and not g.adjacent(x, v):
                net = _build_net(g)
                t = 2 * g.index(v)
                w = net.max_flow(s, t, limit=None if best is None else best + 1)
                yield s, t, net, w
                if best is None or w < best:
                    best = w
        visited += g.weight(x)
        # not >=: min_cuts needs a visited class outside every minimum
        # separator, and >= could stop on exactly one separator's classes
        if best is not None and visited > best - universal:
            break


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
        return KappaResult(n, n - 1, "class-cut")
    # every class but 1 and n has a non-adjacent class, so some flow runs
    best = min(w for *_, w in _source_flows(g))
    return KappaResult(n, best, "class-cut")


def min_cuts(g: QuotientGraph) -> tuple[int, set[frozenset[int]]]:
    """kappa and every minimum x-v cut over the source rule's pairs, in one pass.

    Runs the flows of ``kappa_class`` once, keeps the nets of the flows that
    tie the running minimum (dropping them when it falls), and lists the
    classes cut by every residual-closed side (``_FlowNet.cut_sides``) of
    the flows left at the end, whose value is kappa.
    """
    if g.is_complete:
        raise ValueError("complete quotient has no separator; kappa = n - 1")
    best: int | None = None
    tight: list[tuple[int, int, _FlowNet]] = []
    for s, t, net, w in _source_flows(g):
        if best is None or w < best:
            best, tight = w, []
        if w == best:
            tight.append((s, t, net))
    if best is None:
        raise RuntimeError(f"n={g.n}: a non-complete quotient has no non-adjacent pair")
    cuts = {_cut_classes(g, side) for s, t, net in tight for side in net.cut_sides(s, t)}
    return best, cuts


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
