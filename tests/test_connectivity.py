"""Class-level connectivity: kappa and pairwise cuts."""

import copy
import random
from collections import deque
from itertools import combinations
from math import gcd
from unittest import mock

import pytest

from pgk import (
    KappaResult,
    QuotientGraph,
    alpha_beta,
    build_quotient,
    components_without,
    factorize,
    kappa_class,
    kappa_element_oracle,
    totient,
    upper_bound_ii,
)
from pgk import connectivity
from pgk.cli import main
from pgk.connectivity import _ClassNet, _source_flows, min_cuts

from test_quotient import non_adjacent_pairs, reference_components_without


@pytest.mark.parametrize(
    "n, kappa",
    [(1, 0), (2, 1), (6, 3), (8, 7), (12, 6), (15, 9), (36, 18), (45, 27)],
)
def test_kappa_class_known_values(n, kappa):
    # non-prime-power values independently confirmed by the element oracle
    assert kappa_class(build_quotient(n)).kappa == kappa


def test_kappa_class_result_fields():
    r = kappa_class(build_quotient(36))
    assert (r.n, r.kappa, r.method) == (36, 18, "class-cut")
    assert kappa_class(build_quotient(8)) == KappaResult(8, 7, "class-cut")


class ArcNet:
    """Reference: the class-cut network as an arc list, with an iterative Dinic.

    Divisor i is split into an entry node 2i and an exit node 2i + 1, joined
    by arc 2i of capacity phi(d); comparable classes are joined exit to
    entry, both ways, by arcs of capacity total weight + 1, which no cut can
    afford. Arc e runs to head[e] with capacity cap[e], e ^ 1 is its
    reverse, and arcs[a] lists the arcs out of node a. Each flow runs on a
    fresh copy of ``cap`` and returns the residual list. It offers what the
    source rule reads of ``_ClassNet`` (``g``, ``comp``, ``isolation``,
    ``flow`` and ``cuts``), so the rule can run on either network.
    """

    def __init__(self, g):
        self.g = g
        ds, ws = g.divisors, g.weights
        total = sum(ws)
        inf = total + 1
        # node a starts with arc a: class arc 2i leaves entry 2i, and its
        # reverse 2i + 1 leaves exit 2i + 1
        arcs = [[a] for a in range(2 * len(ds))]
        head = [a ^ 1 for a in range(2 * len(ds))]
        cap = []
        comp = [0] * len(ds)
        near = [0] * len(ds)
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
                    comp[i] |= 1 << j
                    comp[j] |= 1 << i
                    near[i] += ws[j]
                    near[j] += ws[i]
        self.arcs = arcs
        self.head = head
        self.cap = cap
        self.comp = comp
        self.isolation = min(near[1:-1], default=total)

    def flow(self, u, v, limit=None):
        """Max flow from class u to class v, with its residual capacities,
        stopping once the value reaches ``limit``. The classes comparable to
        both u and v are charged and their arcs emptied first."""
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
            path = []
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
                    level[a] = -1  # dead end for this phase
                    nodes.pop()
                    if path:
                        path.pop()
        return value, res

    def _closure(self, res, node, forward, closed=()):
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

    def cuts(self, res, u, v):
        """The classes of every minimum u-v cut (Picard and Queyranne 1980),
        branching on the free nodes in the order of their numbers."""
        s, t = 2 * self.g.index(u) + 1, 2 * self.g.index(v)
        stack = [(self._closure(res, s, True), self._closure(res, t, False))]
        while stack:
            side, other = stack.pop()
            a = next((a for a in range(len(self.arcs)) if a not in side and a not in other), None)
            if a is None:
                yield frozenset(
                    d
                    for i, d in enumerate(self.g.divisors)
                    if 2 * i in side and 2 * i + 1 not in side
                )
                continue
            stack.append((self._closure(res, a, True, side), other))
            stack.append((side, self._closure(res, a, False, other)))


def arc_source_rule(g):
    """kappa_class and min_cuts of a non-complete quotient, run on ArcNet."""
    with mock.patch.object(connectivity, "_ClassNet", ArcNet):
        return kappa_class(g).kappa, min_cuts(g)


def kappa_all_pairs(g):
    """Unpruned reference: the cheapest cut over every incomparable pair,
    on ArcNet."""
    if g.is_complete:
        return g.n - 1
    net = ArcNet(g)
    best = None
    for u, v in non_adjacent_pairs(g):
        w, _ = net.flow(u, v, limit=best)
        if best is None or w < best:
            best = w
    return best


def reference_flow(net, u, v):
    """Reference: the plain recursive Dinic on an uncharged copy of an
    ArcNet's ``cap``, with a full BFS per phase, returning the max flow
    value and residuals."""
    s, t = 2 * net.g.index(u) + 1, 2 * net.g.index(v)
    res = net.cap.copy()

    def levels():
        level = [-1] * len(net.arcs)
        level[s] = 0
        queue = deque([s])
        while queue:
            a = queue.popleft()
            for e in net.arcs[a]:
                b = net.head[e]
                if res[e] > 0 and level[b] < 0:
                    level[b] = level[a] + 1
                    queue.append(b)
        return level if level[t] >= 0 else None

    def push(a, amount, level, it):
        if a == t:
            return amount
        arcs = net.arcs[a]
        while it[a] < len(arcs):
            e = arcs[it[a]]
            b = net.head[e]
            if res[e] > 0 and level[b] == level[a] + 1:
                pushed = push(b, min(amount, res[e]), level, it)
                if pushed > 0:
                    res[e] -= pushed
                    res[e ^ 1] += pushed
                    return pushed
            it[a] += 1
        return 0

    value = 0
    while (level := levels()) is not None:
        it = [0] * len(net.arcs)
        while pushed := push(s, 1 << 62, level, it):
            value += pushed
    return value, res


def common_neighbours(g, u, v):
    return [c for c in g.divisors if g.adjacent(c, u) and g.adjacent(c, v)]


def check_state(g, u, v, value, st):
    """The residual state of a flow from u to v, exact or stopped at a
    limit, is a flow of that value: within capacity, conserved at every
    class, and its masks agree with r and amt."""
    x, y = g.index(u), g.index(v)
    charged = [i for i, c in enumerate(g.divisors) if c in common_neighbours(g, u, v)]
    carried = [0 if i in charged else w - r for i, (w, r) in enumerate(zip(g.weights, st.r))]
    assert all(0 <= r <= w for w, r in zip(g.weights, st.r))
    assert all(st.r[i] == 0 for i in charged)
    assert st.avail == sum(1 << i for i, r in enumerate(st.r) if r)
    assert st.fbits == sum(1 << i for i, f in enumerate(carried) if f)
    assert all(a > 0 and g.adjacent(g.divisors[i], g.divisors[j]) for (i, j), a in st.amt.items())
    assert st.back == [sum(1 << i for i, k in st.amt if k == j) for j in range(len(g.divisors))]
    into = [sum(a for (_, j), a in st.amt.items() if j == i) for i in range(len(g.divisors))]
    out = [sum(a for (k, _), a in st.amt.items() if k == i) for i in range(len(g.divisors))]
    for i, f in enumerate(carried):
        if i == x:
            assert (into[i], f) == (0, 0) and out[i] == value - sum(g.weights[c] for c in charged)
        elif i == y:
            assert (out[i], f) == (0, 0) and into[i] == value - sum(g.weights[c] for c in charged)
        else:
            assert into[i] == f == out[i], (g.n, u, v, g.divisors[i])


def check_flows_match_reference(g, pairs):
    net, arc = _ClassNet(g), ArcNet(g)
    for u, v in pairs:
        value, st = net.flow(u, v)
        check_state(g, u, v, value, st)
        arc_value, arc_res = arc.flow(u, v)
        want, want_res = reference_flow(arc, u, v)
        assert value == arc_value == want, (g.n, u, v)
        cuts = set(net.cuts(st, u, v))
        assert cuts == set(arc.cuts(arc_res, u, v)), (g.n, u, v)
        assert cuts == set(arc.cuts(want_res, u, v)), (g.n, u, v)
        # a charged class arc is emptied and carries no flow
        for c in common_neighbours(g, u, v):
            i = g.index(c)
            assert st.r[i] == 0 and not st.fbits >> i & 1, (g.n, u, v, c)
        # with a limit: the charge alone, a value between it and the max
        # flow, the max flow, and one above it, which runs to the end
        charge = sum(g.weight(c) for c in common_neighbours(g, u, v))
        for limit in (charge, (charge + want) // 2, want, want + 1):
            value, st = net.flow(u, v, limit)
            check_state(g, u, v, value, st)
            if limit > want:
                assert value == want and set(net.cuts(st, u, v)) == cuts, (g.n, u, v)
            else:
                assert limit <= value <= want, (g.n, u, v, limit)


def hand_weighted(n, rng):
    # random positive weights, small ones for ties or up to 2n
    g = build_quotient(n)
    top = rng.choice((4, 2 * n))
    return QuotientGraph(g.f, g.divisors, tuple(rng.randint(1, top) for _ in g.divisors))


def test_charged_flow_matches_reference_up_to_400():
    for n in range(2, 401):
        g = build_quotient(n)
        check_flows_match_reference(g, non_adjacent_pairs(g))


def test_hand_weighted_flow_matches_reference_up_to_400():
    rng = random.Random(400)
    for n in range(2, 401):
        g = hand_weighted(n, rng)
        check_flows_match_reference(g, non_adjacent_pairs(g))


@pytest.mark.parametrize("n", [2310, 55440])
def test_charged_flow_matches_reference_on_sampled_pairs(n):
    g = build_quotient(n)
    pairs = non_adjacent_pairs(g)
    check_flows_match_reference(g, random.Random(n).sample(pairs, 40))


@pytest.mark.parametrize("n", [720720, 6126120])
def test_source_rule_matches_the_arc_net_at_large_tau(n):
    # tau 240 and 384: the bitmask flows and cuts against the arc list's
    g = build_quotient(n)
    assert (kappa_class(g).kappa, min_cuts(g)) == arc_source_rule(g)


@pytest.mark.parametrize(
    "n, weights, u, v",
    [
        (690, (827, 25, 1435, 1578, 1704, 778, 1079, 1436, 1564, 1751, 115, 774, 926, 21, 757, 367), 6, 115),
        (2418, (16, 49, 55, 82, 71, 94, 59, 87, 61, 15, 20, 50, 10, 19, 40, 69), 39, 62),
        (2562, (1, 10, 3, 8, 8, 6, 8, 1, 10, 6, 2, 7, 1, 4, 5, 2), 14, 183),
    ],
)
def test_flow_that_cancels_class_flow_matches_the_arc_net(n, weights, u, v):
    # a rare case, found by search: the flow from u to v pushes along a
    # reverse class arc, and that arc is the one the push empties
    g = QuotientGraph(factorize(n), build_quotient(n).divisors, weights)
    check_flows_match_reference(g, [(u, v)] + non_adjacent_pairs(g))


def test_flow_needs_the_reverse_class_arcs():
    # found by search: a BFS and DFS that skip the reverse class arcs, the
    # fbits terms, stopped this flow at 233, below the max flow 236, while
    # the warm start took only paths through two classes
    weights = (67, 3, 14, 16, 82, 8, 52, 99, 38, 71, 94, 20, 65, 74, 96, 8)
    g = QuotientGraph(factorize(210), build_quotient(210).divisors, weights)
    assert reference_flow(ArcNet(g), 10, 21)[0] == 236
    check_flows_match_reference(g, [(10, 21)])


def test_flow_after_the_three_class_warm_start_needs_the_reverse_class_arcs():
    # found by search once the warm start also took paths through three
    # classes, then its weights lowered one at a time while the fault held:
    # a BFS and DFS that skip the fbits terms stop this flow at 12, below the
    # max flow 13
    weights = (1, 5, 4, 5, 4, 1, 1, 3, 3, 3, 1, 1, 1, 1, 1, 1)
    g = QuotientGraph(factorize(1155), build_quotient(1155).divisors, weights)
    assert reference_flow(ArcNet(g), 15, 77)[0] == 13
    check_flows_match_reference(g, [(15, 77)])


@pytest.mark.parametrize("limit", [3, 6])
def test_charge_reaching_the_limit_returns_before_any_augmentation(limit):
    # 4 and 6 in C_12 share the neighbours 1, 2 and 12, charged 1 + 1 + 4 = 6
    g = build_quotient(12)
    net = _ClassNet(g)
    assert common_neighbours(g, 4, 6) == [1, 2, 12]
    value, st = net.flow(4, 6, limit=limit)
    assert value == 6 >= limit
    # the charged classes have residual 0 and carry no flow, and no flow moved
    charged = {g.index(d) for d in (1, 2, 12)}
    assert st.r == [0 if i in charged else w for i, w in enumerate(g.weights)]
    assert st.avail == net.full & ~sum(1 << i for i in charged)
    assert (st.fbits, st.amt, st.back) == (0, {}, [0] * 6)


def min_cuts_by_subsets(g, u, v, weight):
    """Reference: every class set of the given weight separating u from v."""
    rest = [d for d in g.divisors if d not in (u, v)]
    found = set()
    for size in range(len(rest) + 1):
        for cut in combinations(rest, size):
            if sum(g.weight(d) for d in cut) != weight:
                continue
            comps = components_without(g, cut)
            if next(c for c in comps if u in c) != next(c for c in comps if v in c):
                found.add(frozenset(cut))
    return found


def test_cut_sides_are_all_minimum_cuts():
    # Picard-Queyranne on every incomparable pair: the residual-closed sides
    # of one max flow give every minimum u-v cut and nothing else
    several = 0
    for n in range(2, 101):
        g = build_quotient(n)
        net = _ClassNet(g)
        for u, v in non_adjacent_pairs(g):
            weight, res = net.flow(u, v)
            cuts = set(net.cuts(res, u, v))
            assert cuts == min_cuts_by_subsets(g, u, v, weight), (n, u, v)
            several += len(cuts) > 1
    assert several > 0


@pytest.mark.parametrize("n", [36, 1944, 2310])
def test_one_network_per_quotient(monkeypatch, capsys, n):
    built = []
    init = _ClassNet.__init__

    def counted(self, g):
        built.append(g.n)
        init(self, g)

    monkeypatch.setattr(_ClassNet, "__init__", counted)
    g = build_quotient(n)
    kappa_class(g)
    min_cuts(g)
    assert main(["separators", str(n), "--all-min"]) == 0
    assert built == [n, n, n]


def test_flows_on_one_network_keep_their_residuals():
    g = build_quotient(60)
    net = _ClassNet(g)
    weight, first = net.flow(4, 3)
    kept = copy.deepcopy(first)
    net.flow(4, 5)
    assert first == kept
    assert first.r != list(g.weights)
    assert (net.comp, net.isolation) == (_ClassNet(g).comp, _ClassNet(g).isolation)
    assert set(net.cuts(first, 4, 3)) == min_cuts_by_subsets(g, 4, 3, weight)


def test_source_rule_stops_only_above_the_bound():
    # Hand-weighted quotient with two minimum separators, {1, 2, 12} and
    # {1, 6, 12}, of weight 12. Classes 2, 3 and 6 weigh 4 each and 1 and 12
    # weigh 8 together, so after class 2 the visited weight 4 equals
    # 12 - 8. Stopping there (>= instead of >) loses {1, 2, 12}, because no
    # visited class lies outside it.
    g = QuotientGraph(factorize(12), (1, 2, 3, 4, 6, 12), (5, 4, 4, 3, 4, 3))
    subsets = [
        frozenset(c)
        for size in range(len(g.divisors) + 1)
        for c in combinations(g.divisors, size)
        if len(components_without(g, c)) > 1
    ]
    kappa = min(sum(g.weight(d) for d in c) for c in subsets)
    minima = {c for c in subsets if sum(g.weight(d) for d in c) == kappa}
    assert (kappa, minima) == (12, {frozenset({1, 2, 12}), frozenset({1, 6, 12})})
    assert min_cuts(g) == (kappa, minima)


def test_hand_weights_above_n_never_cut_an_adjacency_arc():
    # The weights sum to 701 > n = 30. Unbounded arcs of capacity n + 1 = 31
    # would be cheaper to cut than the classes 5, 10 and 15 on the path 2,
    # 10, 5, 15, 3, and the flows would report 163 with the cut {1, 30},
    # which disconnects nothing.
    g = QuotientGraph(factorize(30), (1, 2, 3, 5, 6, 10, 15, 30), (1,) + (100,) * 7)
    subsets = [
        frozenset(c)
        for size in range(len(g.divisors) + 1)
        for c in combinations(g.divisors, size)
        if len(components_without(g, c)) > 1
    ]
    kappa = min(sum(g.weight(d) for d in c) for c in subsets)
    minima = {c for c in subsets if sum(g.weight(d) for d in c) == kappa}
    assert kappa == 301
    assert kappa_class(g).kappa == kappa
    assert min_cuts(g) == (kappa, minima)


def unseeded_source_flows(net):
    """Reference: the source rule with no seed, visiting heaviest first.

    best starts unset, so the first flow runs with no limit."""
    g = net.g
    universal = g.weight(1) + g.weight(g.n)
    best = None
    visited = 0
    for x in sorted(g.divisors[1:-1], key=g.weight, reverse=True):
        for v in g.divisors:
            if v != x and not g.adjacent(x, v):
                w, res = net.flow(x, v, limit=None if best is None else best + 1)
                yield x, v, res, w
                if best is None or w < best:
                    best = w
        visited += g.weight(x)
        if best is not None and visited > best - universal:
            break


def unseeded_min_cuts(g):
    """Reference min_cuts over the unseeded, heaviest-first flows."""
    net = _ClassNet(g)
    best = None
    tight = []
    for x, v, res, w in unseeded_source_flows(net):
        if best is None or w < best:
            best, tight = w, []
        if w == best:
            tight.append((x, v, res))
    return best, {cut for x, v, res in tight for cut in net.cuts(res, x, v)}


def test_seeded_source_rule_matches_the_unseeded_one_up_to_1500():
    for n in range(2, 1501):
        g = build_quotient(n)
        if g.is_complete:
            continue
        want = unseeded_min_cuts(g)
        assert kappa_class(g).kappa == want[0], n
        assert min_cuts(g) == want, n


def tight_cut_lists(n):
    """The cuts that ``_ClassNet.cuts`` yields, as a list per flow, for each
    flow of the source rule that ties kappa."""
    g = build_quotient(n)
    net = _ClassNet(g)
    best, tight = net.isolation, []
    for x, v, st, w in _source_flows(net, exact_ties=True):
        if w < best:
            best, tight = w, []
        if w == best:
            tight.append((x, v, st))
    return [list(net.cuts(st, x, v)) for x, v, st in tight]


def test_each_tight_flow_yields_each_cut_once():
    # either side for entry(x) or exit(y) gives the same class set, so cuts
    # seeds them and never branches on them; over these n that leaves no
    # repeat at all
    ns = [n for n in range(2, 3001) if not build_quotient(n).is_complete]
    leaves = 0
    for n in ns + [7854, 8970, 720720, 21621600]:
        for cuts in tight_cut_lists(n):
            assert len(cuts) == len(set(cuts)), n
            leaves += len(cuts)
    assert leaves == 2846
    pinned = {36: 3, 1944: 15, 2310: 1, 720720: 1, 7854: 2}
    assert {n: sum(map(len, tight_cut_lists(n))) for n in pinned} == pinned


def test_source_rule_flow_counts(monkeypatch):
    calls = []
    flow = _ClassNet.flow

    def counted(self, u, v, limit=None):
        calls.append((u, v))
        return flow(self, u, v, limit)

    monkeypatch.setattr(_ClassNet, "flow", counted)

    def flows(n):
        calls.clear()
        kappa_class(build_quotient(n))
        return len(calls)

    assert {n: flows(n) for n in (840, 2040, 4620, 1800)} == {
        840: 7, 2040: 7, 4620: 15, 1800: 8
    }
    counts = [flows(n) for n in range(2, 2001)]
    assert (sum(counts), max(counts)) == (3715, 15)


def count_unions(monkeypatch):
    """Count the mask unions of the Dinic BFS, which the warm start never
    takes: a flow that makes none ran no Dinic search."""
    calls = []
    union = connectivity._union

    def counted(masks, m):
        calls.append(m)
        return union(masks, m)

    monkeypatch.setattr(connectivity, "_union", counted)
    return calls


def test_the_warm_start_ends_the_flows_before_dinic(monkeypatch):
    unions = count_unions(monkeypatch)
    for n in (2592, 1944, 4725, 420, 840, 1800):
        kappa_class(build_quotient(n))
        assert unions == [], n
    # 735 = 3 * 5 * 7^2 is one of the phi-weighted n that still need Dinic
    g = build_quotient(735)
    calls = []
    flow = _ClassNet.flow

    def recorded(self, u, v, limit=None):
        unions.clear()
        value, st = flow(self, u, v, limit)
        calls.append((u, v, limit, value, bool(unions)))
        return value, st

    monkeypatch.setattr(_ClassNet, "flow", recorded)
    kappa_class(g)
    searched = [(u, v, limit, value) for u, v, limit, value, dinic in calls if dinic]
    assert searched
    arc = ArcNet(g)
    for u, v, limit, value in searched:
        want = reference_flow(arc, u, v)[0]
        assert value == want if value < limit else limit <= value <= want, (u, v)


def test_the_warm_start_stops_at_the_limit(monkeypatch):
    # every push takes the min of its residuals, so a counted min records the
    # pushes; with no Dinic search, the last push is the one that reaches
    # limit, and none comes after it. Each limit above the charge up to the
    # max flow is tried; the flows at 840 and 1800 reach some of them in the
    # paths through three classes
    flows = [(2592, 16, 81), (2592, 32, 27), (2592, 96, 81), (840, 3, 14), (1800, 9, 50)]
    nets = {n: (build_quotient(n), _ClassNet(build_quotient(n))) for n, *_ in flows}
    wants = [reference_flow(ArcNet(nets[n][0]), u, v)[0] for n, u, v in flows]
    unions = count_unions(monkeypatch)
    pushes = []

    def counted(*args):
        pushes.append(min(*args))
        return pushes[-1]

    monkeypatch.setattr(connectivity, "min", counted, raising=False)
    checked = 0
    for (n, u, v), want in zip(flows, wants):
        g, net = nets[n]
        charge = sum(g.weight(c) for c in common_neighbours(g, u, v))
        for limit in range(charge + 1, want + 1):
            pushes.clear()
            unions.clear()
            value, st = net.flow(u, v, limit)
            if unions:
                continue
            check_state(g, u, v, value, st)
            assert all(pushes) and value == charge + sum(pushes), (n, u, v, limit)
            assert charge + sum(pushes[:-1]) < limit <= value, (n, u, v, limit)
            checked += 1
    assert checked == 963


def test_each_caller_stops_its_flows_at_its_own_limit(monkeypatch):
    # kappa_class stops each flow at the running minimum and min_cuts one
    # above it; the minimum moves the same way in both, so they run the
    # same flows
    calls = []
    flow = _ClassNet.flow

    def recorded(self, u, v, limit=None):
        value, st = flow(self, u, v, limit)
        calls.append((u, v, limit, value))
        return value, st

    monkeypatch.setattr(_ClassNet, "flow", recorded)

    def limits_over_best(g, run):
        # the (u, v) of each flow, and the set of its limit minus the
        # running minimum before it
        calls.clear()
        run(g)
        best, over = _ClassNet(g).isolation, set()
        for u, v, limit, value in calls:
            over.add(limit - best)
            best = min(best, value)
        return [(u, v) for u, v, *_ in calls], over

    hand = [
        QuotientGraph(factorize(12), (1, 2, 3, 4, 6, 12), (5, 4, 4, 3, 4, 3)),
        QuotientGraph(factorize(30), (1, 2, 3, 5, 6, 10, 15, 30), (1,) + (100,) * 7),
    ]
    quotients = [build_quotient(n) for n in range(2, 2001)] + hand
    for g in quotients:
        if g.is_complete:
            continue
        pairs, over = limits_over_best(g, kappa_class)
        assert over == {0}, g.n
        assert limits_over_best(g, min_cuts) == (pairs, {1}), g.n


def comparable_classes(g, d):
    """N(d): the classes other than d that divide or are divided by d, by
    divisibility alone, not by the quotient's masks that the seed reads."""
    return frozenset(c for c in g.divisors if c != d and (d % c == 0 or c % d == 0))


def check_seed_certificate(g):
    seed = _ClassNet(g).isolation
    weights = {d: sum(map(g.weight, comparable_classes(g, d))) for d in g.divisors[1:-1]}
    assert seed == min(weights.values()), g.n
    d = min(weights, key=weights.get)
    assert len(components_without(g, comparable_classes(g, d))) >= 2, (g.n, d)
    assert kappa_class(g).kappa <= seed, g.n
    return seed


def test_seed_is_the_weight_of_a_separator():
    case_ii = 0
    for n in range(2, 3001):
        g = build_quotient(n)
        if g.is_complete:
            continue
        seed = check_seed_certificate(g)
        bound = upper_bound_ii(g.f)
        if bound is not None:
            # the bound |Z(r, 0)| is w(N(alpha_0)), so the seed is at most it
            alpha0 = alpha_beta(g.f, 0)
            assert sum(map(g.weight, comparable_classes(g, alpha0))) == bound, n
            assert seed <= bound, n
            case_ii += 1
    assert case_ii == 899
    hand = QuotientGraph(factorize(12), (1, 2, 3, 4, 6, 12), (5, 4, 4, 3, 4, 3))
    assert check_seed_certificate(hand) == 12


def test_kappa_class_at_tau_2304_is_the_seed():
    # no closed form covers 6983776800 (r = 8, 2 phi(P) < P); its kappa is
    # the lightest N(d), as Conjecture A predicts
    g = build_quotient(6983776800)
    assert kappa_class(g).kappa == _ClassNet(g).isolation == 1352872800


def test_flow_and_cuts_reject_non_divisors():
    net = _ClassNet(build_quotient(12))
    with pytest.raises(ValueError, match="^7 does not divide 12$"):
        net.flow(7, 3)
    with pytest.raises(ValueError, match="^7 does not divide 12$"):
        next(net.cuts(net.flow(3, 4)[1], 3, 7))


def test_source_rule_matches_all_pairs_up_to_600():
    for n in range(1, 601):
        g = build_quotient(n)
        assert kappa_class(g).kappa == kappa_all_pairs(g), n


def test_source_rule_matches_all_pairs_without_closed_form():
    # r >= 4 is where no closed form checks the class cut
    ns = [n for n in range(2, 2001) if factorize(n).r >= 4]
    assert len(ns) == 81
    for n in ns:
        g = build_quotient(n)
        assert kappa_class(g).kappa == kappa_all_pairs(g), n


@pytest.mark.parametrize(
    "n, u, v, weight, cut",
    [
        (6, 2, 3, 3, {1, 6}),
        (12, 4, 6, 6, {1, 2, 12}),
        (15, 3, 5, 9, {1, 15}),
    ],
)
def test_min_cut_between_known(n, u, v, weight, cut):
    g = build_quotient(n)
    net = _ClassNet(g)
    got_weight, st = net.flow(u, v)
    assert got_weight == weight
    assert set(net.cuts(st, u, v)) == {frozenset(cut)}
    assert got_weight == sum(g.weight(d) for d in cut)


def test_min_cut_certificate_separates_endpoints():
    for n in (30, 36, 60, 90, 210):
        g = build_quotient(n)
        net = _ClassNet(g)
        kappa = kappa_class(g).kappa
        for u, v in non_adjacent_pairs(g):
            weight, st = net.flow(u, v)
            for cut in net.cuts(st, u, v):
                assert weight == sum(g.weight(d) for d in cut), (n, u, v)
                comps = reference_components_without(g, cut)
                comp_of_u = next(c for c in comps if u in c)
                assert v not in comp_of_u, (n, u, v)
            assert weight >= kappa


def test_kappa_lower_bound_above_universal_vertices():
    # at least the identity and the generators must be removed
    for n in range(2, 501):
        g = build_quotient(n)
        if g.is_complete:
            continue
        assert kappa_class(g).kappa >= totient(n) + 1, n


def test_class_route_matches_element_oracle_small():
    for n in range(1, 101):
        kc = kappa_class(build_quotient(n)).kappa
        ko = kappa_element_oracle(n).kappa
        assert kc == ko, f"n={n}: class {kc} vs element {ko}"

