"""Class-level connectivity: kappa, pairwise cuts, witnesses."""

import random
from collections import deque
from itertools import combinations

import pytest

from pgk import (
    KappaResult,
    QuotientGraph,
    SeparationWitness,
    alpha_beta,
    build_quotient,
    components_without,
    factorize,
    kappa_class,
    kappa_element_oracle,
    min_cut_between,
    totient,
    upper_bound_ii,
    verify_witness,
    witness_problems,
)
from pgk.cli import main
from pgk.connectivity import _ClassNet, min_cuts


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


def kappa_all_pairs(g):
    """Unpruned reference: the cheapest cut over every incomparable pair."""
    if g.is_complete:
        return g.n - 1
    net = _ClassNet(g)
    best = None
    for u, v in g.non_adjacent_pairs():
        w, _ = net.flow(u, v, limit=best)
        if best is None or w < best:
            best = w
    return best


def reference_flow(net, u, v):
    """Reference: the plain recursive Dinic on an uncharged copy of ``cap``,
    with a full BFS per phase, returning the max flow value and residuals."""
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


def check_flows_match_reference(g, pairs):
    net = _ClassNet(g)
    for u, v in pairs:
        value, res = net.flow(u, v)
        want, want_res = reference_flow(net, u, v)
        assert value == want, (g.n, u, v)
        assert set(net.cuts(res, u, v)) == set(net.cuts(want_res, u, v)), (g.n, u, v)
        # a charged class arc is emptied and carries no flow
        for c in common_neighbours(g, u, v):
            i = g.index(c)
            assert res[2 * i] == res[2 * i + 1] == 0, (g.n, u, v, c)


def test_charged_flow_matches_reference_up_to_400():
    for n in range(2, 401):
        g = build_quotient(n)
        check_flows_match_reference(g, g.non_adjacent_pairs())


@pytest.mark.parametrize("n", [2310, 55440])
def test_charged_flow_matches_reference_on_sampled_pairs(n):
    g = build_quotient(n)
    pairs = g.non_adjacent_pairs()
    check_flows_match_reference(g, random.Random(n).sample(pairs, 40))


@pytest.mark.parametrize("limit", [3, 6])
def test_charge_reaching_the_limit_returns_before_any_augmentation(limit):
    # 4 and 6 in C_12 share the neighbours 1, 2 and 12, charged 1 + 1 + 4 = 6
    g = build_quotient(12)
    net = _ClassNet(g)
    assert common_neighbours(g, 4, 6) == [1, 2, 12]
    value, res = net.flow(4, 6, limit=limit)
    assert value == 6 >= limit
    charged = net.cap.copy()
    for d in (1, 2, 12):
        charged[2 * g.index(d)] = 0
    assert res == charged


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
        for u, v in g.non_adjacent_pairs():
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
    u, v = g.non_adjacent_pairs()[0]
    min_cut_between(g, u, v)
    assert main(["separators", str(n), "--all-min"]) == 0
    assert built == [n, n, n, n]


def test_flows_on_one_network_keep_their_residuals():
    g = build_quotient(60)
    net = _ClassNet(g)
    weight, first = net.flow(4, 3)
    kept = list(first)
    net.flow(4, 5)
    assert first == kept
    assert first != net.cap
    assert net.cap == _ClassNet(g).cap
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


def comparable_classes(g, d):
    """N(d): the classes other than d that divide or are divided by d."""
    return frozenset(c for c in g.divisors if g.adjacent(c, d))


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


def test_flow_and_cuts_reject_non_divisors():
    net = _ClassNet(build_quotient(12))
    with pytest.raises(ValueError, match="^7 does not divide 12$"):
        net.flow(7, 3)
    with pytest.raises(ValueError, match="^7 does not divide 12$"):
        next(net.cuts(net.cap, 3, 7))


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
    got_weight, got_cut = min_cut_between(g, u, v)
    assert got_weight == weight
    assert got_cut == frozenset(cut)
    assert got_weight == sum(g.weight(d) for d in got_cut)


def test_min_cut_certificate_separates_endpoints():
    for n in (30, 36, 60, 90, 210):
        g = build_quotient(n)
        for u, v in g.non_adjacent_pairs():
            weight, cut = min_cut_between(g, u, v)
            comps = components_without(g, cut)
            comp_of_u = next(c for c in comps if u in c)
            assert v not in comp_of_u, (n, u, v)
            assert weight >= kappa_class(g).kappa


def test_min_cut_rejects_bad_pairs():
    g = build_quotient(12)
    with pytest.raises(ValueError):
        min_cut_between(g, 2, 4)  # adjacent
    with pytest.raises(ValueError):
        min_cut_between(g, 3, 3)  # equal
    with pytest.raises(ValueError):
        min_cut_between(g, 5, 6)  # not a divisor


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


# --- witnesses ----------------------------------------------------------------


def test_verify_witness_example_2310():
    g = build_quotient(2310)
    removed = {2310, 210, 330} | {1, 2, 3, 6} | {1, 2, 5, 10} | {1, 3, 5, 15}
    survivors = set(g.divisors) - removed
    w = SeparationWitness(
        removed=frozenset(removed),
        block_a=frozenset({30}),
        block_b=frozenset(survivors - {30}),
    )
    assert verify_witness(g, w)


def test_verify_witness_rejects_connected_remainder():
    g = build_quotient(12)
    survivors = [d for d in g.divisors if d != 12]
    # class 1 survives and is adjacent to everything: every split fails
    for cut_point in range(1, len(survivors)):
        w = SeparationWitness(
            removed=frozenset({12}),
            block_a=frozenset(survivors[:cut_point]),
            block_b=frozenset(survivors[cut_point:]),
        )
        assert not verify_witness(g, w)


def test_verify_witness_z_set_36():
    g = build_quotient(36)
    w = SeparationWitness(
        removed=frozenset({1, 2, 12, 36}),
        block_a=frozenset({4}),
        block_b=frozenset({3, 6, 9, 18}),
    )
    assert verify_witness(g, w)


def test_witness_problems_diagnostics():
    g = build_quotient(36)
    ok = SeparationWitness(frozenset({1, 2, 12, 36}), frozenset({4}), frozenset({3, 6, 9, 18}))
    assert witness_problems(g, ok) == []

    missing = SeparationWitness(frozenset({1, 2, 12, 36}), frozenset({4}), frozenset({3, 6, 9}))
    assert any("surviving" in p for p in witness_problems(g, missing))

    overlapping = SeparationWitness(frozenset({1, 2, 12, 36}), frozenset({4, 3}), frozenset({3, 6, 9, 18}))
    assert witness_problems(g, overlapping)

    crossing = SeparationWitness(frozenset({1, 2, 12, 36}), frozenset({4, 9}), frozenset({3, 6, 18}))
    assert any("edge between blocks" in p for p in witness_problems(g, crossing))

    foreign = SeparationWitness(frozenset({7}), frozenset({4}), frozenset({3, 6, 9, 18}))
    assert any("non-divisors" in p for p in witness_problems(g, foreign))

    empty_block = SeparationWitness(frozenset(set(g.divisors) - {4}), frozenset({4}), frozenset())
    assert any("nonempty" in p for p in witness_problems(g, empty_block))
