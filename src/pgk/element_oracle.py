"""Brute-force element-level vertex connectivity of the power graph of C_n.

This is the independent cross-check for the class-cut route in
``connectivity`` and deliberately ignores the divisor lattice: it never
factors n, and takes only the result type from the class route. The graph is
built straight from the group: vertex x is joined to y when one is an
integral power of the other, with the powers of y found by literally
enumerating k*y mod n for k = 0..n-1. Connectivity is then the minimum over
every non-adjacent pair of twin (closed-neighbourhood) classes, read off the
adjacency matrix, of a max flow on the node-split network of those classes
(class size on each class's own arc, scipy's compiled solver). No pair is
pruned; ``_twin_class_kappa`` proves why the twin classes suffice. The test
suite checks the oracle against the loop over every vertex pair on the full
n-vertex network, and against exhaustive removal of every vertex subset at
small n.

The oracle's one size limit is ``MAX_ELEMENT_N``; nothing lifts it. On a
2-CPU x86 machine the slowest n measured below it, 4620, takes about 0.7 s.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .connectivity import KappaResult

#: The only limit on n. Near it the dense n x n boolean matrices of the
#: adjacency build dominate time and memory; the peak is about 120 MB.
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
    """
    n = adj.shape[0]
    closed = adj.copy()
    np.fill_diagonal(closed, True)
    # packed rows compare 8 vertices per byte
    _, first, sizes = np.unique(
        np.packbits(closed, axis=1), axis=0, return_index=True, return_counts=True
    )
    k = len(first)
    linked = adj[np.ix_(first, first)]
    xs, ys = np.nonzero(linked)
    # entry node of class i is i, its exit node k + i
    network = csr_matrix(
        (
            np.concatenate([sizes, np.full(len(xs), n)]),
            (np.concatenate([np.arange(k), xs + k]), np.concatenate([np.arange(k) + k, ys])),
        ),
        shape=(2 * k, 2 * k),
        dtype=np.int32,
    )
    us, vs = np.nonzero(np.triu(~linked, 1))
    flows = (maximum_flow(network, k + u, v).flow_value for u, v in zip(us.tolist(), vs.tolist()))
    return int(min(flows, default=n - 1))


def kappa_element_oracle(n: int) -> KappaResult:
    """Exact kappa(P(C_n)) by flows between the twin classes of the full
    n-vertex power graph (``_twin_class_kappa``).

    Raises ValueError unless 1 <= n <= ``MAX_ELEMENT_N``.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if n > MAX_ELEMENT_N:
        raise ValueError(f"n={n} exceeds the element-oracle ceiling {MAX_ELEMENT_N}")
    kappa = _twin_class_kappa(element_adjacency(n))
    return KappaResult(n, kappa, "element-oracle")
