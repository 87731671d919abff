"""Vertex connectivity of P(C_n) via minimum weighted class cuts.

A smallest disconnecting vertex set of the power graph is a union of whole
order classes, so kappa(P(C_n)) is the minimum total phi-weight of a divisor
set whose removal disconnects the quotient graph. That minimum is computed
exactly by node-splitting max-flows (each class an arc of capacity phi(d),
adjacency arcs without capacity) from a few source classes to the classes
not adjacent to them; ``kappa_class`` states the source rule and its proof.
Each call builds one network for the quotient (``_ClassNet``) on the masks
the quotient carries: one Python int per class, the bitmask of the classes
comparable to it, and no arc list. Every flow keeps its own residual state,
and its residual searches, DFS steps and cut closures are bit operations
on those masks. The quotient also weighs N(d), the classes comparable to
d; for each d other than 1 and n removing N(d) cuts d off, so the lightest
of them seeds the running minimum and even the first flow has a limit.
``kappa_class`` stops each flow at the running minimum, which is all that
kappa needs; ``min_cuts`` stops it one above, so that a flow tying the
minimum is exact and its residual state holds its minimum cuts.
A flow first charges the classes comparable to both endpoints, which lie
in every separator. It then saturates greedily the paths u, a, b, v and,
while the value is below its limit, the paths u, a, c, b, v through a class
c comparable to neither end. From that flow it pushes along one shortest
augmenting path per residual search (Edmonds and Karp), which few flows
need, until a search misses the sink. One search, ``_closure``, serves
both these flows and the cuts. ``_ClassNet.flow`` proves the charge and
the warm start.
The flows are plain Python and borrow nothing from the oracle's solver.
Complete quotients (n = 1 or a prime power) have no non-adjacent pair and
kappa = n - 1 by convention, kappa(P(C_1)) = 0 included.

This module computes kappa and minimum cuts only; separators and the check
of their witnesses live in ``separators``. The independent element-level
brute force lives in ``element_oracle`` and shares no graph or flow code
with this module; the two routes are meant to check each other. The CLI
report labels which of the paper's cases n falls in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .quotient import QuotientGraph, _union


@dataclass(frozen=True)
class KappaResult:
    """A connectivity value and the route that computed it."""

    n: int
    kappa: int
    method: str  # "class-cut" | "element-oracle"


def _closure(
    arcs: tuple, xs: int, es: int, closed: tuple[int, int] = (0, 0), fronts: list | None = None
) -> tuple[int, int]:
    # closed plus every node that the exits xs and entries es reach along the
    # arcs (x_self, x_next, e_self, e_next), as an (exits, entries) pair of
    # masks; closed must be closed the same way. exit(i) leads to entry(i) if
    # i is in x_self and to the entries x_next[i]; entries likewise by e_*.
    # fronts, if given, gets each step's newly reached xs | es: started from
    # one exit alone the steps alternate, entries first, so these are the
    # BFS distance layers, one mask each (the last one empty)
    x_self, x_next, e_self, e_next = arcs
    seen_x, seen_e = closed[0] | xs, closed[1] | es
    while xs or es:
        xs, es = (
            (_union(e_next, es) | es & e_self) & ~seen_x if es else 0,
            (_union(x_next, xs) | xs & x_self) & ~seen_e if xs else 0,
        )
        seen_x |= xs
        seen_e |= es
        if fronts is not None:
            fronts.append(xs | es)
    return seen_x, seen_e


class _Flow(NamedTuple):
    """The residual state of one flow on a ``_ClassNet``: what ``_ClassNet.flow`` reads."""

    r: list[int]  # r[i]: the residual capacity of class arc i
    fbits: int  # the classes whose class arc carries flow
    avail: int  # the classes with r[i] > 0
    amt: dict[tuple[int, int], int]  # amt[i, j] > 0: the flow on exit(i) -> entry(j)
    back: list[int]  # back[j]: the i with amt[i, j] > 0


class _ClassNet:
    """The class-cut network of one quotient, built once and never changed.

    Divisor i is split into an entry node and an exit node, joined by class
    arc i of capacity phi(d); comparable classes are joined exit to entry,
    both ways, by adjacency arcs with no capacity at all. Node sets are
    bitmasks over the divisor indices, one for entries and one for exits:
    ``comp`` is the quotient's ``comparable``, bit j of ``comp[i]`` set iff
    d_i and d_j are comparable, so ``comp[i]`` lists both the entries that
    exit(i) leads to and the exits that lead to entry(i). Each flow keeps
    its own residual state, so the states of several flows can be kept side
    by side. Callers name divisors
    only; the indices stay inside this class. The quotient's invariants hold:
    divisors ascend from 1 to n, and every class arc has positive capacity.

    Uncapacitated adjacency arcs are exact for any weights, hand weights
    summing above n included: for non-adjacent u and v the class arcs of
    every other class form a finite cut, so a minimum cut is finite, crosses
    no adjacency arc, and is the class set of the class arcs it crosses.

    Lemma (alternating layers): an entry node's arcs lead only to exits (its
    own class arc, and the reverses of adjacency arcs into it) and an exit
    node's only to entries (adjacency arcs, and the reverse of its own class
    arc). So every residual path alternates exits and entries, and the
    nodes at distance k from an exit are all entries for odd k and all
    exits for even k: each distance layer is one mask, and ``_closure``'s
    steps from that exit alone are exactly those layers.
    The classes comparable to both ends x and y of a flow, which it charges
    up front, are one mask too: ``comp[x] & comp[y]``.

    ``isolation`` is the least w(N(d)) over 1 < d < n, N(d) being the
    classes comparable to d (d itself left out), read from the quotient's
    ``near``; the weight of every class when there is no such d. Lemma:
    unless the quotient is complete, each such N(d) is a separator, so
    kappa <= isolation. Proof: n then has two
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
        self.comp = g.comparable
        self.full = (1 << len(g.divisors)) - 1
        self.isolation = min(g.near[1:-1], default=sum(g.weights))

    def flow(self, u: int, v: int, limit: int | None = None) -> tuple[int, _Flow]:
        """Max flow from exit(u) to entry(v), with its residual state.

        May stop early once the flow reaches ``limit``: a value below
        ``limit`` is the exact max flow, with the residual state to match;
        an early stop returns a value >= limit. No ``limit`` is the total
        weight plus one, which no flow reaches.

        The residual arcs of a state are: entry(i) -> exit(i) for i in
        ``avail``, exit(i) -> entry(i) for i in ``fbits`` (carrying
        phi(d_i) - r[i]), exit(i) -> entry(j) for j in ``comp[i]``, always,
        and entry(j) -> exit(i) for i in ``back[j]`` (carrying amt[i, j]).

        Common-neighbour charge (Menger): a class c comparable to both u and
        v, that is a bit of ``comp[u] & comp[v]``, lies on the path u, c, v,
        so it is in every u-v separator. In the network entry(c) is on the
        source side of every finite cut, because an adjacency arc comes from
        exit(u), and exit(c) is on the sink side, because one goes to
        entry(v); so arc c crosses every finite cut. Its capacity is added
        to the value before any search, its residual r set to 0, and it
        carries no flow. Every finite cut then loses the same charge, so
        the minimum cuts are the same node sets, and a charge that reaches
        ``limit`` returns before any search. No flow can pass entry(c): its
        class arc is empty, and its other arcs out are the reverses of arcs
        into it, which carry no flow. So after the flow entry(c) is still
        reached from exit(u) and exit(c) still reaches entry(v), and
        ``cuts`` reports c in every cut.

        Warm start, in two stages that push greedily along short paths and
        stop as soon as the value reaches ``limit``. The first takes each a
        in ``comp[x] & avail`` and then each b in ``comp[a] & comp[y] &
        avail``, and pushes min(r[a], r[b]) along the path x, a, b, y. The
        second runs only if the value is still below ``limit``. With
        ``outer`` the classes comparable to neither x nor y, x and y left
        out, it takes each a in ``comp[x] & avail``, each c in ``comp[a] &
        avail & outer`` and each b in ``comp[c] & comp[y] & avail``, and
        pushes min(r[a], r[c], r[b]) along x, a, c, b, y. Each push records
        its adjacency arcs in ``amt`` and ``back`` as it goes, so the state
        is whole wherever a stage stops.

        The three roles are disjoint. An uncharged a is in ``comp[x]`` and
        not in ``comp[y]``, an uncharged b in ``comp[y]`` and not in
        ``comp[x]``, and c in neither. So each class arc carries flow in one
        role only, and always forward: a from exit(x) alone, so amt[x, a]
        is all that class arc a carries, phi(d_a) - r[a]; b to entry(y)
        alone, so amt[b, y] is phi(d_b) - r[b]; c from heads to tails.

        Proof that the warm start changes no result: each push is an
        augmenting path of the residual network. Its adjacency arcs have no
        capacity, and its class arcs carry flow forward only and have at
        least the push left, so the state stays a feasible flow of the
        value. The search below ends at a max flow from any feasible flow
        (the augmenting-path theorem of Ford and Fulkerson: a flow is
        maximum iff no residual path joins source to sink), so an exact
        value is unchanged, and ``cuts``, which reads the residual closures
        of any max flow, lists the same minimum cuts. A stop at ``limit``
        returns a feasible flow's value, which is at most the max flow, so
        the max flow is still >= limit. The pushes run after the charge and
        only while the value is below ``limit``, so a charge that reaches
        ``limit`` still returns before any search.

        The order is free for that proof; it was chosen by measurement.
        Heads a and middles c go from the highest bit down: the largest
        divisors, which under phi weights are mostly the heaviest classes,
        so a few pushes saturate most of the value. Tails b go from the
        lowest bit up, lightest first, so a head fills the light tails and
        leaves residual on the heavy ones for later heads and the second
        stage. Over n = 2..20000, ``kappa_class`` then pushes along 93
        searched paths in all, at 54 n. With heaviest tails first it pushes
        along 416; without the second stage, 21937. Every n <= 20000 that
        still needs a push has three or more primes; that two primes never
        need one is measured there, not proven.

        The rest pushes along one shortest augmenting path per search
        (Edmonds and Karp 1972). The search is ``_closure`` from exit(x)
        over the residual arcs, and its steps are the distance layers, as
        masks (the alternating-layers lemma of ``_ClassNet``). If the
        closure misses entry(y), no residual path joins source to sink and
        the flow is exact; that closure, with entry(x) added, is the side
        ``cuts`` starts from. Otherwise the sink's layer keeps only the
        sink, and a DFS through the layers, which steps to the lowest set
        bit of a node's residual successors in the next layer and clears a
        dead end from its layer's mask, finds a shortest path, trying no
        node twice. The push empties the path's bottleneck arc. Shortest
        paths keep every distance from exit(x) from falling, so each arc is
        the bottleneck O(V) times and there are O(VE) pushes; that proof
        reads only the residual network, so the bound holds from any
        feasible start, the warm start's included. The class arcs count
        both ways: without the reverse ones, exit(i) -> entry(i) for i in
        ``fbits``, in the search and the DFS, a flow can stop below its
        max, as one on a hand-weighted quotient of 1155 does (at 12 of 13;
        the tests pin it).
        """
        g = self.g
        comp, ws = self.comp, g.weights
        if limit is None:
            limit = sum(ws) + 1
        x, y = g.index(u), g.index(v)
        r = list(ws)
        value = 0
        charged = comp[x] & comp[y]
        m = charged
        while m:
            low = m & -m
            i = low.bit_length() - 1
            value += r[i]
            r[i] = 0
            m ^= low
        avail = self.full & ~charged
        fbits = 0
        amt: dict[tuple[int, int], int] = {}
        back = [0] * len(ws)
        source, sink = 1 << x, 1 << y
        # warm start: saturate the paths x, a, b, y, largest a and lightest b first
        heads = comp[x] & avail
        while heads and value < limit:
            a = heads.bit_length() - 1
            heads ^= 1 << a
            tails = comp[a] & comp[y] & avail
            left = r[a]
            while tails and left:
                low = tails & -tails
                b = low.bit_length() - 1
                tails ^= low
                pushed = min(left, r[b])
                left -= pushed
                r[b] -= pushed
                if not r[b]:
                    avail ^= 1 << b
                fbits |= 1 << b
                amt[a, b] = pushed
                back[b] |= 1 << a
                amt[b, y] = ws[b] - r[b]  # all that class arc b carries
                back[y] |= 1 << b
                value += pushed
                if value >= limit:
                    break
            if left != r[a]:
                amt[x, a] = r[a] - left
                r[a] = left
                if not left:
                    avail ^= 1 << a
                fbits |= 1 << a
                back[a] = source
        if value < limit:
            # then the paths x, a, c, b, y through a class c comparable to neither end
            outer = self.full & ~(comp[x] | comp[y] | source | sink)
            heads = comp[x] & avail
            while heads and value < limit:
                a = heads.bit_length() - 1
                heads ^= 1 << a
                mids = comp[a] & avail & outer
                while mids and r[a] and value < limit:
                    c = mids.bit_length() - 1
                    mids ^= 1 << c
                    tails = comp[c] & comp[y] & avail
                    while tails and r[a] and r[c]:
                        low = tails & -tails
                        b = low.bit_length() - 1
                        tails ^= low
                        pushed = min(r[a], r[c], r[b])
                        for i in (a, c, b):
                            r[i] -= pushed
                            if not r[i]:
                                avail ^= 1 << i
                        fbits |= 1 << a | 1 << c | 1 << b
                        amt[x, a] = ws[a] - r[a]
                        amt[a, c] = amt.get((a, c), 0) + pushed
                        amt[c, b] = amt.get((c, b), 0) + pushed
                        amt[b, y] = ws[b] - r[b]
                        back[a] = source
                        back[c] |= 1 << a
                        back[b] |= 1 << c
                        back[y] |= 1 << b
                        value += pushed
                        if value >= limit:
                            break
        while value < limit:
            # layers[k]: the exits (k even) or entries (k odd) at distance k from exit(x)
            layers = [source]
            if not _closure((fbits, comp, avail, back), source, 0, fronts=layers)[1] & sink:
                break
            depth = next(k for k in range(1, len(layers), 2) if layers[k] & sink)
            layers[depth] = sink
            path = [x]  # the DFS path's nodes, path[k] in layers[k]
            while len(path) <= depth:
                k = len(path) - 1
                a = path[k]
                if k & 1:
                    step = back[a] | avail & (1 << a)
                else:
                    step = comp[a] | fbits & (1 << a)
                step &= layers[k + 1]
                if step:
                    path.append((step & -step).bit_length() - 1)
                else:
                    layers[k] &= ~(1 << a)  # dead end: no shortest path passes a
                    path.pop()
            pushed = 0  # none yet: every path holds a class or reverse arc
            for k in range(depth):
                a, b = path[k], path[k + 1]
                if k & 1:
                    c = r[a] if a == b else amt[b, a]
                elif a == b:
                    c = ws[a] - r[a]
                else:
                    continue  # an adjacency arc: no capacity
                if not pushed or c < pushed:
                    pushed = c
            for k in range(depth):
                a, b = path[k], path[k + 1]
                if k & 1:
                    if a == b:
                        r[a] -= pushed
                        fbits |= 1 << a
                        if not r[a]:
                            avail &= ~(1 << a)
                    else:
                        amt[b, a] -= pushed
                        if not amt[b, a]:
                            del amt[b, a]
                            back[a] &= ~(1 << b)
                elif a == b:
                    r[a] += pushed
                    avail |= 1 << a
                    if r[a] == ws[a]:
                        fbits &= ~(1 << a)
                else:
                    amt[a, b] = amt.get((a, b), 0) + pushed
                    back[b] |= 1 << a
            value += pushed
        return value, _Flow(r, fbits, avail, amt, back)

    def cuts(self, st: _Flow, u: int, v: int) -> Iterator[frozenset[int]]:
        """The classes of every minimum u-v cut, after an exact max flow u to v.

        The residual-closed node sets holding u's exit and not v's entry are
        exactly the source sides of the minimum cuts (Picard and Queyranne
        1980). A side is an (exits, entries) pair of masks. The classes of a
        cut are those whose entry is on the source side and whose exit is
        not, so the source's own class x and the sink's y are in no cut.
        Start from the forward closure of exit(x) and entry(x) and the
        backward closure of entry(y) and exit(y), then branch on a free node
        on neither side, the lowest free entry or, with none left, the
        lowest free exit: put its forward closure on the source side, or its
        backward closure on the sink side. Both branches always succeed,
        because a closed side cannot reach (or be reached from) a free node,
        so every leaf is a cut and the delay is polynomial. The sink-side
        branch is taken first, so the first cut is the one cut by the
        residual closure of u.

        Seeding entry(x) and exit(y) loses no cut. No flow enters entry(x)
        or leaves exit(y): of the warm start's middle classes, a and b lie
        in ``comp[x]`` or ``comp[y]``, which hold neither x nor y, and c in
        ``outer``, which leaves x and y out; in a search entry(x) is a
        dead end, since exit(x) is only in layer 0 and ``back[x]`` stays 0;
        and a searched path ends at the sink. So the closure of entry(x)
        adds only exit(x), that of exit(y) only entry(y); both seeds stay
        closed and disjoint, and moving either node to the other side of a
        closed side leaves it closed and its class set unchanged: branching
        on them would only repeat cuts.
        That the class sets of all leaves differ is not proven. The
        backward closures read ``amt`` by its tails, a view built per call.
        """
        g = self.g
        x, y = g.index(u), g.index(v)
        fwd = [0] * len(st.r)  # fwd[i]: the j with amt[i, j] > 0
        for i, j in st.amt:
            fwd[i] |= 1 << j
        forward = (st.fbits, self.comp, st.avail, st.back)  # the residual arcs
        backward = (st.avail, fwd, st.fbits, self.comp)  # the same, reversed
        stack = [(_closure(forward, 1 << x, 1 << x), _closure(backward, 1 << y, 1 << y))]
        while stack:
            side, other = stack.pop()
            free_x = self.full & ~(side[0] | other[0])
            free_e = self.full & ~(side[1] | other[1])
            if not free_x | free_e:
                yield g.classes(side[1] & ~side[0])
                continue
            low_x, low_e = free_x & -free_x, free_e & -free_e
            node = (0, low_e) if low_e else (low_x, 0)
            stack.append((_closure(forward, *node, side), other))
            stack.append((side, _closure(backward, *node, other)))


def _source_flows(net: _ClassNet, *, exact_ties: bool) -> Iterator[tuple[int, int, _Flow, int]]:
    # The source rule's flows as (source, sink, residual state, value). The
    # running minimum best starts at the seed net.isolation. Each flow stops
    # at best, which is enough to find kappa (see kappa_class), or with
    # exact_ties at best + 1, so that a flow that ties best is exact and its
    # residual state holds every one of its minimum cuts.
    g = net.g
    ds, ws = g.divisors, g.weights
    universal = ws[0] + ws[-1]  # phi(n) + 1
    best = net.isolation
    # heaviest first, but the classes that each end the rule alone go before
    # all others, the one with the fewest sinks (the most comparable
    # classes, heavier on a tie) first; the rule stops after it
    order = sorted(
        range(1, len(ds) - 1),
        key=lambda i: (ws[i] > best - universal and net.comp[i].bit_count(), ws[i]),
        reverse=True,
    )
    visited = 0
    for i in order:
        x = ds[i]
        near = net.comp[i] | 1 << i  # x and its comparable classes; the sinks are the rest
        for j, v in enumerate(ds):
            if not near >> j & 1:
                w, st = net.flow(x, v, limit=best + 1 if exact_ties else best)
                yield x, v, st, w
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
    separator, so best >= kappa throughout, and every flow stops at best.
    The order of the visit is free. When one class on its own exceeds the
    stop bound at the seed, the rule visits the one with the most
    comparable classes, so the fewest sinks, and stops after it; otherwise
    it visits the heaviest first.

    Stopping at best, not best + 1, moves best exactly as the exact flows
    would: a flow that returns a value below best is exact, and best falls
    to it; a flow stopped at best returns a value >= best, and its max flow
    is >= best too, so an exact flow could not have lowered best either.
    So the visited set and the flows run are those of ``min_cuts``, whose
    flows stop at best + 1.

    Proof sketch: a minimum separator S weighs kappa <= best and contains 1
    and n, so its other classes weigh at most best - phi(n) - 1. The visited
    set is heavier (or holds every class, while S leaves two), so some
    visited x lies outside S, whatever the order. S separates x from some
    v in another component, v is not adjacent to x, and cut(x, v) = kappa.
    That flow returns kappa: exactly if kappa < best when it runs, and
    otherwise best is kappa, and a flow stopped at best returns a value
    between best and its max flow kappa. Every other value is an exact max
    flow, so at least kappa, or a stop at best >= kappa, so the least value
    is kappa.
    """
    n = g.n
    if g.is_complete:
        return KappaResult(n, n - 1, "class-cut")
    # every class but 1 and n has a non-adjacent class, so some flow runs
    best = min(w for *_, w in _source_flows(_ClassNet(g), exact_ties=False))
    return KappaResult(n, best, "class-cut")


def min_cuts(g: QuotientGraph) -> tuple[int, set[frozenset[int]]]:
    """kappa and every minimum x-v cut over the source rule's pairs, in one pass.

    Runs the flows of ``kappa_class`` once on one network and keeps no
    residual state: each flow that ties the running minimum adds the classes
    of every one of its minimum cuts (``_ClassNet.cuts``) to the set at
    once, and a flow that lowers the minimum empties the set first, so the
    set left at the end is the cuts of the flows whose value is kappa. The
    running minimum starts at the seed, as in ``kappa_class``. Each flow
    stops at the running minimum + 1, not at the minimum as in
    ``kappa_class``: ``cuts`` reads the residual state of a flow that ties
    the minimum, and Picard and Queyranne's cuts need a max flow.
    """
    if g.is_complete:
        raise ValueError("complete quotient has no separator; kappa = n - 1")
    net = _ClassNet(g)
    best, cuts = net.isolation, set()
    for x, v, st, w in _source_flows(net, exact_ties=True):
        if w < best:
            best, cuts = w, set()
        if w == best:
            cuts.update(net.cuts(st, x, v))
    if not cuts:
        raise RuntimeError(f"n={g.n}: no flow of the source rule reached the minimum {best}")
    return best, cuts
