"""Brute-force element-level vertex connectivity of the power graph of C_n.

This is the independent cross-check for the class-cut route in
``connectivity`` and deliberately ignores the divisor lattice: it never
factors n, and takes only the result type from the class route. The graph is
built straight from the group: vertex x is joined to y when one is an
integral power of the other, with the powers of y found by literally
enumerating k*y mod n for k = 0..n-1. Connectivity is then a minimum over
non-adjacent pairs (u, v) of the maximum number of internally vertex-disjoint
u-v paths, computed by max-flow on the standard node-split network (unit
capacity per vertex, scipy's compiled solver).

The pairs are chosen by the source rule (Even 1975; Esfahanian and Hakimi
1984), stated in graph terms only: the universal vertices (degree n - 1) and
the closed-neighbourhood (twin) classes are read off the adjacency matrix,
never from arithmetic. The proof sketch is in ``_source_rule_kappa``. On a
2-CPU x86 machine n = 600 takes about 0.15 s and n = 1200 about 0.55 s,
against 3.0 s and 19 s for the loop over every pair of twin representatives
it replaced. The test suite checks the oracle against that loop, against the
loop over every vertex pair, and against exhaustive removal of every vertex
subset at small n.

The oracle's one size limit is ``MAX_ELEMENT_N``; nothing lifts it. On the
same machine the slowest n measured below it, 4620, takes about 25 s, and
n = 5000 about 12 s.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .connectivity import KappaResult

#: The only limit on n: near it the oracle's peak memory reaches 1.3 GB
#: (n = 4954, twice a prime).
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


def _twin_classes(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(smallest member, size) of each closed-neighbourhood class."""
    closed = adj.copy()
    np.fill_diagonal(closed, True)
    # packed rows compare 8 vertices per byte
    _, first, sizes = np.unique(
        np.packbits(closed, axis=1), axis=0, return_index=True, return_counts=True
    )
    return first, sizes


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


def _source_rule_kappa(adj: np.ndarray) -> int:
    """Vertex connectivity of the graph with boolean adjacency ``adj``.

    Source rule (Even 1975; Esfahanian and Hakimi 1984), in graph terms only:
    skip the universal vertices (degree n - 1), visit the other twin
    (closed-neighbourhood) classes heaviest first, ties to the smallest
    member, run a flow from each class's smallest member x to the smallest
    member v of every class not adjacent to it, and stop once the visited
    size reaches best - #universal, best being the running minimum.

    Proof sketch: a minimum separator S contains every universal vertex. S
    is a union of whole twin classes, because a twin left outside S would
    join two components. If a visited class lies wholly outside S, its
    member x has a non-adjacent v, the smallest member of a class in another
    component, and the x-v flow is at most |S| = kappa. Suppose the loop
    stops with best > kappa. Then no visited class lies outside S, so the
    visited set lies inside S minus the universal vertices and weighs at
    most kappa - #universal < best - #universal, which contradicts the stop.
    If instead the loop runs out of classes, S holds every vertex, which is
    impossible.
    """
    n = adj.shape[0]
    universal = adj.sum(axis=1) == n - 1
    if universal.all():
        return n - 1
    first, sizes = _twin_classes(adj)
    classes = sorted(
        ((x, size) for x, size in zip(first.tolist(), sizes.tolist()) if not universal[x]),
        key=lambda c: (-c[1], c[0]),
    )
    network = _split_network(adj)
    n_universal = int(universal.sum())
    # every non-universal class has a non-adjacent class, so some flow runs
    # and best ends below n - 1
    best = n - 1
    visited = 0
    for x, size in classes:
        for v, _ in classes:
            if v != x and not adj[x, v]:
                best = min(best, int(maximum_flow(network, n + x, v).flow_value))
        visited += size
        if visited >= best - n_universal:
            break
    return best


def kappa_element_oracle(n: int) -> KappaResult:
    """Exact kappa(P(C_n)) by flows on the full n-vertex power graph, picked
    by the source rule (``_source_rule_kappa``).

    Raises ValueError unless 1 <= n <= ``MAX_ELEMENT_N``.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if n > MAX_ELEMENT_N:
        raise ValueError(f"n={n} exceeds the element-oracle ceiling {MAX_ELEMENT_N}")
    kappa = _source_rule_kappa(element_adjacency(n))
    return KappaResult(n, kappa, "element-oracle")
