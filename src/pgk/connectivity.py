"""Vertex connectivity of P(C_n) via minimum weighted class cuts.

A smallest disconnecting vertex set of the power graph is a union of whole
order classes, so kappa(P(C_n)) is the minimum total phi-weight of a divisor
set whose removal disconnects the quotient graph. That minimum is computed
exactly by node-splitting max-flows (each class an arc of capacity phi(d),
adjacency arcs unbounded) from a few source classes to the classes not
adjacent to them; ``kappa_class`` states the source rule and its proof.
Each call builds one network for the quotient (``_ClassNet``) and runs
every flow on its own copy of the capacities. Building it also weighs
N(d), the classes comparable to d, for each d other than 1 and n; removing
N(d) cuts d off, so the lightest of them seeds the running minimum and
even the first flow stops one above it. A flow first charges the
classes comparable to both endpoints, which lie in every separator, then
runs an iterative Dinic on the rest; ``_ClassNet.flow`` proves the charge.
The flows are plain Python and borrow nothing from the oracle's solver.
Complete quotients (n = 1 or a prime power) have no non-adjacent pair and
kappa = n - 1 by convention, kappa(P(C_1)) = 0 included.

The independent element-level brute force lives in ``element_oracle`` and
shares no graph or flow code with this module; the two routes are meant to
check each other. Both compute kappa only; the CLI report labels which of
the paper's cases n falls in.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
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


class _ClassNet:
    """The class-cut network of one quotient, built once and never changed.

    Divisor i is split into an entry node 2i and an exit node 2i + 1, joined
    by arc 2i of capacity phi(d); comparable classes are joined exit to
    entry, both ways, by arcs too heavy for any cut. Arc e runs to head[e]
    with capacity cap[e], e ^ 1 is its reverse, and arcs[a] lists the arcs
    out of node a. Each max flow runs on a fresh copy of ``cap``, so the
    residual lists of several flows can be kept side by side. Callers name
    divisors only; the node numbering stays inside this class.

    ``isolation`` is the least w(N(d)) over 1 < d < n, N(d) being the
    classes comparable to d (d itself left out); the weight of every class
    when there is no such d. Lemma: unless the quotient is complete, each
    such N(d) is a separator, so kappa <= isolation. Proof: n then has two
    primes. As d != n, some prime p has a smaller exponent in d than in n;
    as d != 1, some prime q divides d. If p != q can be chosen, p^(e_p) and
    d divide neither one the other. Otherwise p is the only prime of d and
    the only prime short in d, so a second prime of n is at once absent
    from d and short in it, which cannot be. So d has an incomparable class,
    and removing N(d) leaves d cut off from it. The proof reads no weight,
    so it holds for hand-weighted quotients too.
    """

    def __init__(self, g: QuotientGraph) -> None:
        self.g = g
        ds, ws = g.divisors, g.weights
        total = sum(ws)  # n, unless the quotient is weighted by hand
        inf = total + 1  # exceeds every class cut, so adjacency arcs never cut
        # node a starts with arc a: class arc 2i leaves entry 2i, and its
        # reverse 2i + 1 leaves exit 2i + 1
        arcs: list[list[int]] = [[a] for a in range(2 * len(ds))]
        head = [a ^ 1 for a in range(2 * len(ds))]
        cap: list[int] = []
        near = [0] * len(ds)  # near[i] = w(N(ds[i]))
        for w in ws:
            cap += (w, 0)
        for i, d in enumerate(ds):
            for j in range(i + 1, len(ds)):
                if ds[j] % d == 0:
                    # exit(i) -> entry(j) is arc e, exit(j) -> entry(i) is e + 2
                    e = len(cap)
                    arcs[2 * i + 1].append(e)
                    arcs[2 * j].append(e + 1)
                    arcs[2 * j + 1].append(e + 2)
                    arcs[2 * i].append(e + 3)
                    head += (2 * j, 2 * i + 1, 2 * i, 2 * j + 1)
                    cap += (inf, 0, inf, 0)
                    near[i] += ws[j]
                    near[j] += ws[i]
        self.arcs = arcs
        self.head = head
        self.cap = cap
        self.isolation = min(near[1:-1], default=total)

    def flow(self, u: int, v: int, limit: int | None = None) -> tuple[int, list[int]]:
        """Max flow from class u to class v, with its residual capacities.

        May stop early once the flow reaches ``limit``: a value below
        ``limit`` is the exact max flow, with the residual network to match;
        an early stop returns a value >= limit.

        Common-neighbour charge (Menger): a class c comparable to both u and
        v, that is a divisor of gcd(u, v) or a multiple of lcm(u, v), lies
        on the path u, c, v, so it is in every u-v separator. In the network
        entry(c) is on the source side of every finite cut, because an
        infinite arc comes from exit(u), and exit(c) is on the sink side,
        because an infinite arc goes to entry(v); so arc c crosses every
        finite cut. Its capacity is added to the value before any search and
        the arc is zeroed in the residual list. Every finite cut then loses
        the same charge, so the minimum cuts are the same node sets, and a
        charge that reaches ``limit`` returns before any search. No flow can
        pass entry(c): its class arc is empty, and its other arcs out are the
        reverses of arcs into it, which carry no flow. So after the flow
        entry(c) is still reached from exit(u) and exit(c) still reaches
        entry(v), and ``cuts`` reports c in every cut.

        The rest is Dinic's algorithm (1970): a BFS by frontier that stops
        at the sink's level, then a blocking flow found by a DFS with
        current-arc pointers that drops dead-end nodes from the level graph.
        """
        g = self.g
        out, head = self.arcs, self.head
        s, t = 2 * g.index(u) + 1, 2 * g.index(v)
        res = self.cap.copy()
        value = 0
        common = gcd(u, v)
        joint = u // common * v
        for i, d in enumerate(g.divisors):
            if common % d == 0 or d % joint == 0:
                value += res[2 * i]
                res[2 * i] = 0
        while limit is None or value < limit:
            level = [-1] * len(out)
            level[s] = 0
            frontier = [s]
            depth = 0
            while frontier and level[t] < 0:
                depth += 1
                reached = []
                for a in frontier:
                    for e in out[a]:
                        b = head[e]
                        if res[e] and level[b] < 0:
                            level[b] = depth
                            reached.append(b)
                frontier = reached
            if level[t] < 0:
                break
            it = [0] * len(out)
            nodes = [s]  # the DFS path's nodes; path holds its arcs
            path: list[int] = []
            while nodes:
                a = nodes[-1]
                if a == t:
                    pushed = min(res[e] for e in path)
                    for e in path:
                        res[e] -= pushed
                        res[e ^ 1] += pushed
                    value += pushed
                    if limit is not None and value >= limit:
                        return value, res
                    # retreat to the tail of the first arc the push emptied
                    k = next(k for k, e in enumerate(path) if not res[e])
                    del nodes[k + 1 :], path[k:]
                    continue
                arcs = out[a]
                want = level[a] + 1
                for i in range(it[a], len(arcs)):
                    e = arcs[i]
                    b = head[e]
                    if res[e] and level[b] == want:
                        it[a] = i
                        nodes.append(b)
                        path.append(e)
                        break
                else:
                    level[a] = -1  # dead end: no augmenting path passes a this phase
                    nodes.pop()
                    if path:
                        path.pop()
        return value, res

    def _closure(
        self, res: list[int], node: int, forward: bool, closed: Collection[int] = ()
    ) -> set[int]:
        # closed plus every node that node reaches along residual arcs
        # (forward) or that reaches it (backward); closed must be closed that way
        seen = set(closed)
        seen.add(node)
        todo = [node]
        while todo:
            a = todo.pop()
            for e in self.arcs[a]:
                b = self.head[e]
                if b not in seen and res[e if forward else e ^ 1] > 0:
                    seen.add(b)
                    todo.append(b)
        return seen

    def _classes(self, side: set[int]) -> frozenset[int]:
        # the classes whose capacity arc leaves the source side
        return frozenset(
            d for i, d in enumerate(self.g.divisors) if 2 * i in side and 2 * i + 1 not in side
        )

    def cuts(self, res: list[int], u: int, v: int) -> Iterator[frozenset[int]]:
        """The classes of every minimum u-v cut, after an exact max flow u to v.

        The residual-closed node sets holding u's exit and not v's entry are
        exactly the source sides of the minimum cuts (Picard and Queyranne
        1980). Start from the forward closure of the source and the backward
        closure of the sink, then branch on a free node a: put its forward
        closure on the source side, or its backward closure on the sink
        side. Both branches always succeed, because a closed side cannot
        reach (or be reached from) a free node, so every leaf is a distinct
        cut and the delay is polynomial. The sink-side branch is taken first,
        so the first cut is the one cut by the residual closure of u.
        """
        s, t = 2 * self.g.index(u) + 1, 2 * self.g.index(v)
        stack = [(self._closure(res, s, True), self._closure(res, t, False))]
        while stack:
            side, other = stack.pop()
            a = next((a for a in range(len(self.arcs)) if a not in side and a not in other), None)
            if a is None:
                yield self._classes(side)
                continue
            stack.append((self._closure(res, a, True, side), other))
            stack.append((side, self._closure(res, a, False, other)))


def min_cut_between(g: QuotientGraph, u: int, v: int) -> tuple[int, frozenset[int]]:
    """Minimum-weight class set separating u from v, with its weight.

    u and v must be distinct non-adjacent divisors; neither belongs to the
    returned cut. The cut is recovered from the residual network, so it is a
    genuine certificate: deleting it leaves no u-v path.
    """
    if u == v:
        raise ValueError("cut endpoints must be distinct")
    if g.adjacent(u, v):
        raise ValueError(f"classes {u} and {v} are adjacent; no vertex cut separates them")
    net = _ClassNet(g)
    weight, res = net.flow(u, v)
    cut = next(net.cuts(res, u, v))
    if weight != sum(g.weight(d) for d in cut):
        raise RuntimeError(f"cut {sorted(cut)} does not weigh the flow value {weight}")
    return weight, cut


def _source_flows(net: _ClassNet) -> Iterator[tuple[int, int, list[int], int]]:
    # The source rule's flows as (source, sink, residual list, value). The
    # running minimum best starts at the seed net.isolation, and each flow
    # stops at best + 1, not best, so a flow that ties it is exact and its
    # residual list holds every one of its minimum cuts.
    g = net.g
    ds, ws = g.divisors, g.weights
    universal = ws[0] + ws[-1]  # phi(n) + 1
    best = net.isolation
    order = sorted(range(1, len(ds) - 1), key=ws.__getitem__, reverse=True)
    # the classes that each end the rule alone; visit first the one with the
    # fewest sinks, that is the most comparable classes, heavier on a tie
    alone = [i for i in order if ws[i] > best - universal]
    if alone:
        first = max(alone, key=lambda i: (len(net.arcs[2 * i + 1]) - 1, ws[i]))
        order.remove(first)
        order.insert(0, first)
    visited = 0
    for i in order:
        x = ds[i]
        for v in ds:
            if v % x and x % v:
                w, res = net.flow(x, v, limit=best + 1)
                yield x, v, res, w
                best = min(best, w)
        visited += ws[i]
        # not >=: min_cuts needs a visited class outside every minimum
        # separator, and >= could stop on exactly one separator's classes
        if visited > best - universal:
            break


def kappa_class(g: QuotientGraph) -> KappaResult:
    """Exact kappa(P(C_n)) from the quotient graph.

    Source rule (Even 1975; Esfahanian and Hakimi 1984): visit the classes
    x other than the universal 1 and n, take the cheapest cut from x to
    each class v not adjacent to it, and stop once the visited weight
    exceeds best - phi(n) - 1, best being the running minimum. best starts
    at the seed ``_ClassNet.isolation``, the lightest N(d), which is a
    separator, so best >= kappa throughout and every flow stops at best + 1.
    The order of the visit is free. When one class on its own exceeds the
    stop bound at the seed, the rule visits first the one with the most
    comparable classes, so the fewest sinks; then the rest heaviest first.

    Proof sketch: a minimum separator S weighs kappa <= best and contains 1
    and n, so its other classes weigh at most best - phi(n) - 1. The visited
    set is heavier (or holds every class, while S leaves two), so some
    visited x lies outside S, whatever the order. S separates x from some
    v in another component, v is not adjacent to x, and cut(x, v) = kappa;
    that flow ran with a limit above best >= kappa, so it returned kappa
    exactly.
    """
    n = g.n
    if g.is_complete:
        return KappaResult(n, n - 1, "class-cut")
    # every class but 1 and n has a non-adjacent class, so some flow runs
    best = min(w for *_, w in _source_flows(_ClassNet(g)))
    return KappaResult(n, best, "class-cut")


def min_cuts(g: QuotientGraph) -> tuple[int, set[frozenset[int]]]:
    """kappa and every minimum x-v cut over the source rule's pairs, in one pass.

    Runs the flows of ``kappa_class`` once on one network, keeps the
    residual lists of the flows that tie the running minimum (dropping them
    when it falls), and lists the classes of every minimum cut
    (``_ClassNet.cuts``) of the flows left at the end, whose value is kappa.
    The running minimum starts at the seed, as in ``kappa_class``.
    """
    if g.is_complete:
        raise ValueError("complete quotient has no separator; kappa = n - 1")
    net = _ClassNet(g)
    best = net.isolation
    tight: list[tuple[int, int, list[int]]] = []
    for x, v, res, w in _source_flows(net):
        if w < best:
            best, tight = w, []
        if w == best:
            tight.append((x, v, res))
    if not tight:
        raise RuntimeError(f"n={g.n}: no flow of the source rule reached the minimum {best}")
    cuts = {cut for x, v, res in tight for cut in net.cuts(res, x, v)}
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
