"""Brute-force element-level vertex connectivity of the power graph of C_n.

This is the independent cross-check for the class-cut route in
``connectivity`` and deliberately ignores the divisor lattice: it never
factors n, and takes only the result type from the class route. The graph is
built straight from the group: vertex x is joined to y when one is an
integral power of the other, with the powers of y found by literally
enumerating k*y mod n for k = 0..n-1. Connectivity is then the minimum over
every non-adjacent pair of twin (closed-neighbourhood) classes, read off the
adjacency matrix, of a max flow on the node-split network of those classes
(class size on each class's own arc). No pair is pruned: each pair gets its
own exact max flow, by shortest augmenting paths (``maximum_flow``), with no
limit and no warm start. ``_twin_class_kappa`` proves why the twin classes
suffice and why each flow is exact. The test suite checks each pair value
against scipy's solver on the same class network, and the oracle against
the loop over every vertex pair on the full n-vertex network and against
exhaustive removal of every vertex subset at small n.

The oracle's one size limit is ``MAX_ELEMENT_N``; nothing lifts it. On a
2-CPU x86 machine the slowest n measured below it, 4620, takes about 0.9 s.
"""

from __future__ import annotations

import numpy as np

from .connectivity import KappaResult

#: The only limit on n. The dense n x n boolean matrices of the adjacency
#: build set the peak memory, and the pair flows, one per non-adjacent pair
#: of twin classes, most of the time where n has many divisors. On a 2-CPU
#: x86 machine: n = 1200 takes 0.07 s and 31 MB; 4620 and 4680 (47 twin
#: classes) 0.85-1.0 s, about 0.5-0.6 s of it flows, and 70 MB; 5000 (two
#: primes) 0.35 s and 76 MB.
MAX_ELEMENT_N = 5000


def element_adjacency(n: int) -> np.ndarray:
    """Dense boolean adjacency of P(C_n) on vertices 0..n-1.

    Row y of the membership matrix is the cyclic subgroup generated by y,
    enumerated as the multiples k*y mod n; x ~ y iff one lies in the other's
    subgroup.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    ks = np.arange(n)
    members = np.zeros((n, n), dtype=bool)
    for y in range(n):
        members[y, (y * ks) % n] = True
    adj = members | members.T
    np.fill_diagonal(adj, False)
    return adj


def maximum_flow(caps: list[list[int]], arcs: list[list[int]], s: int, t: int) -> int:
    """Value of a maximum s-t flow by shortest augmenting paths (Edmonds and
    Karp, J. ACM 1972).

    ``caps[a][b]`` is the capacity of the arc a -> b, and ``arcs[a]`` lists
    every b with an arc a -> b or b -> a, the nodes a residual path can step
    to from a. The residual capacities start as a copy of ``caps``; each
    round a breadth-first search finds a shortest s-t path with residual
    capacity left and pushes its bottleneck along it, until none is left.
    """
    res = [row[:] for row in caps]
    value = 0
    while True:
        parent = [-1] * len(arcs)
        parent[s] = s
        queue = [s]
        for a in queue:
            row = res[a]
            for b in arcs[a]:
                if row[b] and parent[b] < 0:
                    parent[b] = a
                    queue.append(b)
            if parent[t] >= 0:
                break
        else:
            return value
        path = []
        b = t
        while b != s:
            path.append((parent[b], b))
            b = parent[b]
        push = min(res[a][b] for a, b in path)
        for a, b in path:
            res[a][b] -= push
            res[b][a] += push
        value += push


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
    linked = adj[np.ix_(first, first)]
    us, vs = np.nonzero(np.triu(~linked, 1))
    if len(us) == 0:
        return n - 1
    # the entry node of class i is i, its exit node k + i
    caps = [[0] * (2 * k) for _ in range(2 * k)]
    for i, group in enumerate(members.values()):
        caps[i][k + i] = len(group)
    for i, j in np.argwhere(linked).tolist():
        caps[k + i][j] = n
    arcs = [[b for b in range(2 * k) if caps[a][b] or caps[b][a]] for a in range(2 * k)]
    return min(maximum_flow(caps, arcs, k + u, v) for u, v in zip(us.tolist(), vs.tolist()))


def kappa_element_oracle(n: int) -> KappaResult:
    """Exact kappa(P(C_n)) by flows between the twin classes of the full
    n-vertex power graph (``_twin_class_kappa``).

    Raises ValueError unless 1 <= n <= ``MAX_ELEMENT_N``.
    """
    if n > MAX_ELEMENT_N:
        raise ValueError(f"n={n} exceeds the element-oracle ceiling {MAX_ELEMENT_N}")
    kappa = _twin_class_kappa(element_adjacency(n))
    return KappaResult(n, kappa, "element-oracle")
