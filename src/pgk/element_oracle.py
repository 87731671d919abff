"""Brute-force element-level vertex connectivity of the power graph of C_n.

This is the independent cross-check for the class-cut route in
``connectivity`` and deliberately ignores the divisor lattice: it never
factors n, and takes only the result type from the class route. The graph is
built straight from the group: vertex x is joined to y when one is an
integral power of the other, with the powers of y found by literally
enumerating k*y mod n for k = 0..n-1, once for each pair y, n - y, since the
two generate the same subgroup (``element_adjacency``). Connectivity is then
the minimum over every non-adjacent pair of twin (closed-neighbourhood)
classes, read off the adjacency matrix, of a max flow on the node-split
network of those classes (class size on each class's own arc). No pair is
pruned: each pair gets its own exact max flow, by shortest augmenting paths
(``maximum_flow``), with no limit and no warm start. ``_twin_class_kappa``
proves why the twin classes suffice and why each flow is exact. The test
suite checks each pair value against scipy's solver on the same class
network, and the oracle against the loop over every vertex pair on the full
n-vertex network and against exhaustive removal of every vertex subset at
small n.

The oracle's one size limit is ``MAX_ELEMENT_N``; nothing lifts it. On a
2-CPU x86 machine the slowest n measured below it, 4620, takes 0.3-0.35 s.
"""

from __future__ import annotations

import numpy as np

from .connectivity import KappaResult

#: The only limit on n. The dense n x n boolean matrices of the adjacency
#: build set the peak memory, and the pair flows, one per non-adjacent pair
#: of twin classes, most of the time where n has many divisors. On a 2-CPU
#: x86 machine: n = 1200 takes 0.03-0.05 s and 31 MB; 4620 and 4680 (47
#: twin classes) 0.32-0.35 s, about 0.2 s of it flows, and 69-70 MB; 5000
#: (two primes) 0.13-0.18 s and 76 MB.
MAX_ELEMENT_N = 5000

#: Index entries per block of the adjacency build. Small enough that a block's
#: index arrays stay in cache and touch few fresh pages: 65536 took about four
#: times the page faults of 4096 on a cold first call.
_BLOCK_ENTRIES = 4096


def element_adjacency(n: int) -> np.ndarray:
    """Dense boolean adjacency of P(C_n) on vertices 0..n-1.

    Row y of the membership matrix is the cyclic subgroup generated by y,
    enumerated as the multiples k*y mod n; x ~ y iff one lies in the other's
    subgroup. Rows y = 0..n//2 are written a block at a time, as flat indices
    y*n + (k*y mod n), at most ``_BLOCK_ENTRIES`` of them per block (one
    whole row when a row is longer). Each row y > n//2 is then a copy of row
    n - y: -y = (n - 1)*y lies in <y> and y = (n - 1)*(-y) lies in <-y>, so
    the two subgroups are equal. The copied rows start past n//2 and their
    sources end at n - n//2 - 1 <= n//2, so source and target do not overlap.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    ks = np.arange(n)
    rows = max(1, _BLOCK_ENTRIES // n)
    half = n // 2 + 1
    members = np.zeros(n * n, dtype=bool)
    for y0 in range(0, half, rows):
        ys = np.arange(y0, min(y0 + rows, half))[:, None]
        members[ys * n + ys * ks % n] = True
    members = members.reshape(n, n)
    members[half:] = members[n - half:0:-1]
    adj = members | members.T
    np.fill_diagonal(adj, False)
    return adj


def maximum_flow(caps: list[list[int]], arcs: list[list[int]], s: int, t: int) -> int:
    """Value of a maximum s-t flow by shortest augmenting paths (Edmonds and
    Karp, J. ACM 1972).

    ``caps[a][b]`` is the capacity of the arc a -> b, and ``arcs[a]`` lists
    every b with an arc a -> b or b -> a, the nodes a residual path can step
    to from a. The residual capacities start as a copy of ``caps``. Each
    round a breadth-first search, level by level, grows a tree of shortest
    residual paths from s (``_search_to_sink``), and stops the moment it
    discovers t, at some depth L. Then, for every node c of depth L - 1 with
    residual room into t, it finds the bottleneck of the tree path
    s .. c -> t by walking back up the tree, and pushes it along a second
    walk, or skips the path if an earlier push of the round left no room on
    it. Rounds go on until no path reaches t.

    Every path pushed is a shortest augmenting path, so this is Edmonds-Karp
    with several augmentations per search. Proof: the depth-(L - 1) level is
    complete when the search stops, since it was built in full from level
    L - 2 before any of its nodes was expanded; only the level below it is
    cut short, and no push reads that level. Each tree path to such a c has
    L - 1 arcs, so with c -> t it is an s-t path of length L, the s-t
    distance when the round began. An augmentation along a shortest path
    never shortens the s-t distance in the residual network (the arcs it
    opens each run back to the depth before), so the distance is still L at
    every later push of the round, and a path of length L whose arcs all
    have room is again shortest. Hence Edmonds-Karp's bound of O(V E)
    augmentations holds, and the flow stops only when no augmenting path is
    left, at a maximum flow.
    """
    res = [row[:] for row in caps]
    value = 0
    while True:
        found = _search_to_sink(res, arcs, s, t)
        if found is None:
            return value
        parent, level = found
        for c in level:
            push = res[c][t]
            b = c
            while push and b != s:
                a = parent[b]
                if res[a][b] < push:
                    push = res[a][b]
                b = a
            if not push:
                continue
            res[c][t] -= push
            res[t][c] += push
            b = c
            while b != s:
                a = parent[b]
                res[a][b] -= push
                res[b][a] += push
                b = a
            value += push


def _search_to_sink(
    res: list[list[int]], arcs: list[list[int]], s: int, t: int
) -> tuple[list[int], list[int]] | None:
    """One breadth-first search of ``maximum_flow`` over the residual
    capacities ``res``: the tree's parent of every node it reached (s its
    own), and the level whose expansion discovered t, or None when no
    residual path reaches t. It returns the moment t is discovered."""
    parent = [-1] * len(arcs)
    parent[s] = s
    level = [s]
    while level:
        below = []
        for a in level:
            row = res[a]
            for b in arcs[a]:
                if row[b] and parent[b] < 0:
                    parent[b] = a
                    if b == t:
                        return parent, level
                    below.append(b)
        level = below
    return None


def _twin_class_kappa(adj: np.ndarray) -> int:
    """Vertex connectivity of the graph with boolean adjacency ``adj``.

    The minimum max flow over every non-adjacent pair of twin classes on the
    node-split network of the classes, or n - 1 when no such pair exists
    (the graph is complete). Each class has an entry and an exit node, joined
    by an arc of the class size; adjacent classes are joined exit to entry
    by arcs of capacity n, which no minimum cut uses.

    Twin lemma: a minimal separator S is a union of whole twin classes.
    Proof: each x in S has neighbours in two components of G - S, or S - x
    would still separate. A twin y of x outside S shares those neighbours
    and would join the two components. So every minimum separator is a cut
    between two non-adjacent classes of this network, and every class cut
    is a vertex separator of the same weight.

    Each pair (u, v) gets its own ``maximum_flow`` from exit(u) to entry(v),
    on a fresh residual copy of one template network. The flow is exact:
    Edmonds-Karp stops only when no augmenting path is left, and then the
    flow value equals the capacity of a minimum cut (Ford and Fulkerson).
    The arcs of all classes but u and v form a cut of weight at most
    n - 2 < n, so a minimum cut holds no adjacency arc: it is a set of class
    arcs, a vertex separator of u from v of the same weight.
    """
    n = adj.shape[0]
    # twins have equal packed closed rows, so set each row's own bit after
    # packing; classes in order of first member
    closed = np.packbits(adj, axis=1)
    own = np.arange(n)
    closed[own, own // 8] |= (0x80 >> (own % 8)).astype(np.uint8)
    members: dict[bytes, list[int]] = {}
    for x, row in enumerate(closed):
        members.setdefault(row.tobytes(), []).append(x)
    first = [group[0] for group in members.values()]
    k = len(first)
    linked = adj[np.ix_(first, first)].tolist()
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k) if not linked[u][v]]
    if not pairs:
        return n - 1
    # the entry node of class i is i, its exit node k + i; near holds i and
    # the classes adjacent to i, so entry i steps only to the exits of near
    # and exit k + i only to their entries, each list in ascending order
    caps = [[0] * (2 * k) for _ in range(2 * k)]
    arcs = [[] for _ in range(2 * k)]
    for i, group in enumerate(members.values()):
        near = [j for j in range(k) if j == i or linked[i][j]]
        caps[i][k + i] = len(group)
        for j in near:
            if j != i:
                caps[k + i][j] = n
        arcs[i] = [k + j for j in near]
        arcs[k + i] = near
    return min(maximum_flow(caps, arcs, k + u, v) for u, v in pairs)


def kappa_element_oracle(n: int) -> KappaResult:
    """Exact kappa(P(C_n)) by flows between the twin classes of the full
    n-vertex power graph (``_twin_class_kappa``).

    Raises ValueError unless 1 <= n <= ``MAX_ELEMENT_N``.
    """
    if n > MAX_ELEMENT_N:
        raise ValueError(f"n={n} exceeds the element-oracle ceiling {MAX_ELEMENT_N}")
    kappa = _twin_class_kappa(element_adjacency(n))
    return KappaResult(n, kappa, "element-oracle")
