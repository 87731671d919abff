"""Brute-force element-level vertex connectivity of the power graph of C_n.

This is the independent cross-check for the class-cut route in
``connectivity`` and deliberately ignores the divisor lattice: it never
factors n, and takes only the result type from the class route. The graph is
built straight from the group: vertex x is joined to y when one is an
integral power of the other, with the powers of y found by literally
enumerating k*y mod n for k = 0..n-1. Connectivity is then the minimum over
every non-adjacent pair of twin (closed-neighbourhood) classes, read off the
adjacency matrix, of a max flow on the node-split network of those classes
(class size on each class's own arc). No pair is pruned: all the pair flows
run as one call of scipy's compiled solver on the disjoint union of one
network copy per pair. ``_twin_class_kappa`` proves why the twin classes
suffice and why the union gives every pair's value. The test suite checks
the oracle against one flow per pair on the class network, against the loop
over every vertex pair on the full n-vertex network, and against exhaustive
removal of every vertex subset at small n.

The oracle's one size limit is ``MAX_ELEMENT_N``; nothing lifts it. On a
2-CPU x86 machine the slowest n measured below it, 4620, takes about 0.5 s.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .connectivity import KappaResult

#: The only limit on n. Near it the dense n x n boolean matrices of the
#: adjacency build dominate time and memory, and the union network of the
#: twin-class pairs adds up to about 30 MB; the peak is about 120 MB, at
#: n = 4680 (48 divisors).
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

    All p pair flows run as one max flow on the disjoint union of p copies
    of the class network, copy c for pair (u_c, v_c), with a super source s
    feeding exit(u_c) and a super sink t fed by entry(v_c), both by arcs of
    capacity n. Union lemma: each copy's max flow is at most n - 2 < n, the
    weight of all classes but u_c and v_c, so the super arcs never bind; the
    union's max flow value is therefore the sum of the copies' max flows,
    and a flow reaching that sum must be a max flow on every copy. Its flow
    on s -> exit(u_c) is then copy c's pair value.
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
    first = np.array([group[0] for group in members.values()])
    sizes = np.array([len(group) for group in members.values()])
    k = len(first)
    linked = adj[np.ix_(first, first)]
    us, vs = np.nonzero(np.triu(~linked, 1))
    p = len(us)
    if p == 0:
        return n - 1
    xs, ys = np.nonzero(linked)
    # in one copy the entry node of class i is i, its exit node k + i;
    # copy c is offset by 2kc, and s, t come after the last copy
    tails = np.concatenate([np.arange(k), xs + k])
    heads = np.concatenate([np.arange(k) + k, ys])
    caps = np.concatenate([sizes, np.full(len(xs), n)])
    off = 2 * k * np.arange(p)
    s, t = 2 * k * p, 2 * k * p + 1
    network = csr_matrix(
        (
            np.concatenate([np.tile(caps, p), np.full(2 * p, n)]),
            (
                np.concatenate([(off[:, None] + tails).ravel(), np.full(p, s), off + vs]),
                np.concatenate([(off[:, None] + heads).ravel(), off + k + us, np.full(p, t)]),
            ),
        ),
        shape=(s + 2, s + 2),
        dtype=np.int32,
    )
    flow = maximum_flow(network, s, t).flow
    return int(flow[s].toarray()[0, off + k + us].min())


def kappa_element_oracle(n: int) -> KappaResult:
    """Exact kappa(P(C_n)) by flows between the twin classes of the full
    n-vertex power graph (``_twin_class_kappa``).

    Raises ValueError unless 1 <= n <= ``MAX_ELEMENT_N``.
    """
    if n > MAX_ELEMENT_N:
        raise ValueError(f"n={n} exceeds the element-oracle ceiling {MAX_ELEMENT_N}")
    kappa = _twin_class_kappa(element_adjacency(n))
    return KappaResult(n, kappa, "element-oracle")
