"""Element-level oracle: definitional brute force agreement and its ceiling.

The oracle is itself validated here against exhaustive subset removal -- for
small n, literally every vertex subset below the reported connectivity is
checked not to disconnect the graph, and some subset of exactly that size is
found that does. Its kappa is additionally compared against two pair loops
on the per-element node-split network, kept here as references: one over
every vertex pair, which does not rely on the twin lemma, and one over every
pair of twin-class representatives. The values of its own pair flows are
compared against a third, external flow implementation: scipy's solver, one
flow per pair on the same twin-class network.
"""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from pgk import element_adjacency, element_oracle, kappa_element_oracle
from pgk.element_oracle import _BLOCK_ENTRIES, MAX_ELEMENT_N, _twin_class_kappa


def adjacency_by_rows(n: int) -> np.ndarray:
    """The reference for ``element_adjacency``: the membership matrix
    written one row, one subgroup {k*y mod n}, at a time."""
    ks = np.arange(n)
    members = np.zeros((n, n), dtype=bool)
    for y in range(n):
        members[y, (y * ks) % n] = True
    adj = members | members.T
    np.fill_diagonal(adj, False)
    return adj


def _split_network(adj: np.ndarray) -> csr_matrix:
    # entry node of x is x, exit node is n + x; vertex capacity 1 on the
    # entry->exit arc, adjacency arcs capacity n (never part of a cut)
    n = adj.shape[0]
    xs, ys = np.nonzero(adj)
    rows = np.concatenate([np.arange(n), xs + n])
    cols = np.concatenate([np.arange(n) + n, ys])
    data = np.concatenate(
        [np.ones(n, dtype=np.int32), np.full(len(xs), n, dtype=np.int32)]
    )
    return csr_matrix((data, (rows, cols)), shape=(2 * n, 2 * n), dtype=np.int32)


def _neighbourhood_class_reps(adj: np.ndarray) -> list[int]:
    """One representative per closed-neighbourhood class, smallest-index first."""
    closed = adj.copy()
    np.fill_diagonal(closed, True)
    _, first = np.unique(closed, axis=0, return_index=True)
    return sorted(int(i) for i in first)


def kappa_pair_loop(adj: np.ndarray, twin_reduction: bool = True) -> int:
    """The reference on the per-element split network: the minimum flow over
    every non-adjacent pair of twin-class representatives, or with
    twin_reduction=False of vertices."""
    n = adj.shape[0]
    if int(adj.sum()) == n * (n - 1):
        return max(n - 1, 0)
    candidates = _neighbourhood_class_reps(adj) if twin_reduction else list(range(n))
    network = _split_network(adj)
    return min(
        int(maximum_flow(network, n + u, v).flow_value)
        for i, u in enumerate(candidates)
        for v in candidates[i + 1 :]
        if not adj[u, v]
    )


def twin_pair_flows(adj: np.ndarray) -> list[int]:
    """The reference for the oracle's pair flows: scipy's max flow for every
    non-adjacent pair of twin classes on the 2k-node class network (entry
    node of class i is i, its exit node k + i), as sorted pair values."""
    n = adj.shape[0]
    closed = adj.copy()
    np.fill_diagonal(closed, True)
    _, first, sizes = np.unique(
        np.packbits(closed, axis=1), axis=0, return_index=True, return_counts=True
    )
    k = len(first)
    linked = adj[np.ix_(first, first)]
    xs, ys = np.nonzero(linked)
    network = csr_matrix(
        (
            np.concatenate([sizes, np.full(len(xs), n)]),
            (np.concatenate([np.arange(k), xs + k]), np.concatenate([np.arange(k) + k, ys])),
        ),
        shape=(2 * k, 2 * k),
        dtype=np.int32,
    )
    us, vs = np.nonzero(np.triu(~linked, 1))
    return sorted(
        int(maximum_flow(network, k + u, v).flow_value)
        for u, v in zip(us.tolist(), vs.tolist())
    )


def twin_blown_up_graphs(count: int = 300):
    """Dense random graphs whose vertices are blown up into twin cliques of
    1-4 vertices. Power graphs have few twin classes of very different
    sizes; these test the twin lemma on many more shapes."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        k = int(rng.integers(4, 9))
        base = np.triu(rng.random((k, k)) < rng.uniform(0.6, 0.95), 1)
        base |= base.T
        blob = np.repeat(np.arange(k), rng.integers(1, 5, size=k))
        adj = (base | np.eye(k, dtype=bool))[np.ix_(blob, blob)]
        np.fill_diagonal(adj, False)
        yield adj


def brute_force_kappa(n: int) -> int:
    """Minimum k such that removing some k vertices disconnects P(C_n) or
    leaves a single vertex. Exhaustive over all subsets, smallest first."""
    adj = element_adjacency(n)
    masks = [
        int.from_bytes(np.packbits(adj[x], bitorder="little").tobytes(), "little")
        for x in range(n)
    ]
    everyone = (1 << n) - 1

    def breaks_graph(removed: int) -> bool:
        surviving = everyone & ~removed
        if surviving == 0:
            return False
        if surviving & (surviving - 1) == 0:
            return True  # one vertex left
        seen = surviving & (-surviving)
        frontier = seen
        while frontier:
            grown = 0
            rest = frontier
            while rest:
                bit = rest & (-rest)
                grown |= masks[bit.bit_length() - 1] & surviving
                rest ^= bit
            frontier = grown & ~seen
            seen |= frontier
        return seen != surviving

    for k in range(n):
        for combo in combinations(range(n), k):
            removed = 0
            for x in combo:
                removed |= 1 << x
            if breaks_graph(removed):
                return k
    raise AssertionError("some removal must always break the graph")


@pytest.mark.parametrize("n, kappa", [(6, 3), (9, 8), (12, 6)])
def test_oracle_known_values(n, kappa):
    result = kappa_element_oracle(n)
    assert result.kappa == kappa
    assert result.method == "element-oracle"


def test_oracle_matches_exhaustive_subset_removal():
    for n in list(range(1, 17)) + [18]:
        expected = brute_force_kappa(n)
        assert kappa_element_oracle(n).kappa == expected, n


def test_reduced_and_unreduced_pair_loops_agree():
    for n in range(2, 49):
        adj = element_adjacency(n)
        full = kappa_pair_loop(adj, twin_reduction=False)
        assert kappa_element_oracle(n).kappa == kappa_pair_loop(adj) == full, n


def test_oracle_matches_twin_pair_loop():
    for n in list(range(1, 121)) + [210, 270, 330]:
        assert kappa_element_oracle(n).kappa == kappa_pair_loop(element_adjacency(n)), n


def test_twin_class_network_on_graphs_with_twins():
    for adj in twin_blown_up_graphs():
        assert _twin_class_kappa(adj) == kappa_pair_loop(adj, twin_reduction=False)


@pytest.fixture
def flow_calls(monkeypatch):
    """The (arguments, value) of every ``maximum_flow`` call the oracle makes;
    each call must leave the capacities it was given as it found them."""
    calls = []
    flow = element_oracle.maximum_flow

    def counted(*args):
        template = [row[:] for row in args[0]]
        value = flow(*args)
        assert args[0] == template, "maximum_flow changed its template"
        calls.append((args, value))
        return value

    monkeypatch.setattr("pgk.element_oracle.maximum_flow", counted)
    return calls


def pair_values(calls) -> list[int]:
    return sorted(value for _, value in calls)


@pytest.mark.parametrize(
    "n, kappa, flows", [(210, 70, 55), (270, 108, 46), (13, 12, 0), (16, 15, 0), (27, 26, 0)]
)
def test_oracle_flow_count(flow_calls, n, kappa, flows):
    # one flow per non-adjacent twin-class pair, none pruned; a complete
    # graph needs none
    assert kappa_element_oracle(n).kappa == kappa
    assert len(flow_calls) == flows
    assert min(pair_values(flow_calls), default=kappa) == kappa


@pytest.mark.parametrize("n", [210, 270])
def test_each_pair_flow_runs_on_one_class_network(flow_calls, n):
    # 16 divisors, and the universal classes 1 and n are twins: 15 classes,
    # so every pair flow runs on the same 30-node template, from the exit
    # node of one class (15 + u) to the entry node of the other (v < 15)
    kappa_element_oracle(n)
    caps, arcs = flow_calls[0][0][:2]
    assert len(caps) == len(arcs) == 30
    pairs = set()
    for (template, template_arcs, s, t), _ in flow_calls:
        assert template is caps and template_arcs is arcs
        assert 15 <= s < 30 and 0 <= t < 15 and s - 15 < t
        pairs.add((s, t))
    assert len(pairs) == len(flow_calls)


def test_pair_flows_equal_scipy_per_pair_flows(flow_calls):
    # 1500 and 4620 have the widest class networks below the ceiling (4620:
    # 47 classes, augmenting paths of up to 17 arcs)
    for n in list(range(1, 121)) + [210, 270, 330, 1500, 4620]:
        flow_calls.clear()
        adj = element_adjacency(n)
        _twin_class_kappa(adj)
        assert pair_values(flow_calls) == twin_pair_flows(adj), n
    for adj in twin_blown_up_graphs():
        flow_calls.clear()
        _twin_class_kappa(adj)
        assert pair_values(flow_calls) == twin_pair_flows(adj)


def test_four_cycle_runs_two_flows_of_value_two(flow_calls):
    # The 4-cycle has four one-vertex twin classes and two non-adjacent
    # pairs, {0, 2} and {1, 3}, each separated by the other pair: two flows
    # on one 8-node class network.
    adj = np.array(
        [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=bool
    )
    assert _twin_class_kappa(adj) == 2
    assert [len(args[0]) for args, _ in flow_calls] == [8, 8]
    assert pair_values(flow_calls) == [2, 2]


def test_shortest_path_through_a_saturated_prefix_is_skipped():
    # Node-split network of the path u - x - {y1, y2} - v, x of weight 1
    # (entry node of vertex i is i, its exit node 5 + i). The search from
    # exit(u) reaches entry(v) through exit(y1) and exit(y2), two shortest
    # paths that share the prefix through x. The first push saturates x, so
    # the second must be skipped, or the flow would count x twice.
    weights = [1, 1, 5, 5, 1]
    edges = [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]
    caps = np.zeros((10, 10), dtype=np.int32)
    for i, w in enumerate(weights):
        caps[i, 5 + i] = w
    for i, j in edges:
        caps[5 + i, j] = caps[5 + j, i] = 13
    arcs = [[b for b in range(10) if caps[a, b] or caps[b, a]] for a in range(10)]
    expected = maximum_flow(csr_matrix(caps), 5, 4).flow_value
    assert element_oracle.maximum_flow(caps.tolist(), arcs, 5, 4) == expected == 1


def test_early_stop_still_pushes_every_path_of_the_level(monkeypatch):
    # s = 0 reaches 1, 2 and 3, each with room into t = 4; arcs[1] lists t
    # before 5, so the first search discovers t while expanding node 1, the
    # first of its level, before the level below is complete. All three
    # pushes of level [1, 2, 3] must land in that round (value 4); the second
    # search finds the longer path 0, 1, 5, 4 (value 6) and the third none.
    # A lost push would take more searches.
    caps = np.zeros((6, 6), dtype=np.int32)
    for a, b, cap in [(0, 1, 3), (0, 2, 2), (0, 3, 1), (1, 4, 1), (1, 5, 5),
                      (5, 4, 5), (2, 4, 2), (3, 4, 1)]:
        caps[a, b] = cap
    arcs = [[b for b in range(6) if caps[a, b] or caps[b, a]] for a in range(6)]
    assert arcs[1] == [0, 4, 5]
    levels = []
    search = element_oracle._search_to_sink

    def recorded(*args):
        found = search(*args)
        levels.append(found and found[1])
        return found

    monkeypatch.setattr("pgk.element_oracle._search_to_sink", recorded)
    value = element_oracle.maximum_flow(caps.tolist(), arcs, 0, 4)
    assert value == maximum_flow(csr_matrix(caps), 0, 4).flow_value == 6
    assert levels == [[1, 2, 3], [5], None]


def random_networks(rng, count, sizes, density):
    """(caps, arcs, s, t) for random digraphs of sizes[0] to sizes[1] - 1
    nodes, each arc present with the given probability, antiparallel arcs
    included."""
    for _ in range(count):
        size = int(rng.integers(*sizes))
        caps = np.where(rng.random((size, size)) < density, rng.integers(1, 9, (size, size)), 0)
        np.fill_diagonal(caps, 0)
        s, t = rng.choice(size, 2, replace=False).tolist()
        arcs = [[b for b in range(size) if caps[a, b] or caps[b, a]] for a in range(size)]
        yield caps, arcs, s, t


def test_maximum_flow_matches_scipy_on_random_networks():
    # the oracle's flow on general digraphs against scipy's solver: small
    # ones, and ones of 30-94 nodes, the sizes of the class networks for
    # n <= 5000, from sparse (long augmenting paths) to dense
    large = np.random.default_rng(2)
    networks = [
        *random_networks(np.random.default_rng(1), 300, (2, 12), 0.35),
        *(net for p in (0.04, 0.1, 0.3) for net in random_networks(large, 40, (30, 95), p)),
    ]
    for caps, arcs, s, t in networks:
        expected = maximum_flow(csr_matrix(caps.astype(np.int32)), s, t).flow_value
        assert element_oracle.maximum_flow(caps.tolist(), arcs, s, t) == expected


def test_oracle_complete_graphs():
    for n in (1, 2, 13, 16, 27):
        assert kappa_element_oracle(n).kappa == max(n - 1, 0)


def test_ceiling_is_not_lifted_by_any_override(monkeypatch):
    def never(n):
        raise AssertionError("no adjacency may be built above the ceiling")

    monkeypatch.setattr("pgk.element_oracle.element_adjacency", never)
    assert MAX_ELEMENT_N == 5000
    for n in (MAX_ELEMENT_N + 1, 10**12):
        with pytest.raises(ValueError, match="ceiling"):
            kappa_element_oracle(n)


def test_oracle_rejects_zero():
    with pytest.raises(ValueError):
        kappa_element_oracle(0)


def test_adjacency_is_symmetric_irreflexive():
    for n in (1, 2, 30, 97, 128):
        adj = element_adjacency(n)
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()
        if n > 1:
            assert adj[0].sum() == n - 1  # identity joined to everyone


def test_block_adjacency_equals_the_row_loop():
    # rows past n//2 are copies of rows n - y; the row loop enumerates every
    # row. Every n to 300, among them a last block that is partial (100: 40
    # rows per block, 51 rows enumerated); an odd and an even n on each side
    # of the edge where a block drops from two rows to one; n on each side of
    # a row filling one block; the widest class networks and the ceiling
    rows = _BLOCK_ENTRIES // 100
    assert 1 < rows < 51 and 51 % rows
    edge = _BLOCK_ENTRIES // 2
    near_edge = [edge - 1, edge, edge + 1, edge + 2]
    assert [max(1, _BLOCK_ENTRIES // n) for n in near_edge] == [2, 2, 1, 1]
    for n in [*range(1, 301), *near_edge, 4095, 4096, 4097, 4620, 5000]:
        assert np.array_equal(element_adjacency(n), adjacency_by_rows(n)), n


def test_adjacency_builds_no_product_table():
    # the membership matrix and the symmetric closure are n^2 bytes each; a
    # block size that built all n^2 products k*y at once would need 8 n^2
    n = MAX_ELEMENT_N
    tracemalloc.start()
    try:
        element_adjacency(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * n + 2**20
