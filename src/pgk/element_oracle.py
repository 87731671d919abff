"""Brute-force element-level vertex connectivity of the power graph of C_n.

This is the independent cross-check for the class-cut route in
``connectivity`` and deliberately ignores the divisor lattice. The graph is
built straight from the group: vertex x is joined to y when one is an
integral power of the other, with the powers of y found by literally
enumerating k*y mod n for k = 0..n-1. Connectivity is then the minimum over
non-adjacent pairs (u, v) of the maximum number of internally vertex-disjoint
u-v paths, computed by max-flow on the standard node-split network (unit
capacity per vertex, scipy's compiled solver).

One classical graph-level reduction keeps the pair loop tractable: vertices
with identical closed neighbourhoods can be swapped by an automorphism, so
the pairwise minimum is already attained on one representative per
neighbourhood class. The classes are read off the adjacency matrix itself,
never from arithmetic. ``twin_reduction=False`` disables this and runs the
full quadratic pair loop; the test suite checks both agree, and checks the
oracle itself against exhaustive removal of every vertex subset at small n.

Computations are quadratic in n and guarded by default at n <= 600; the
PGK_ELEMENT_GUARD environment variable or an explicit ``max_n`` raises the
limit.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .connectivity import KappaResult, case_tag_for

DEFAULT_GUARD = 600


def element_guard() -> int:
    """Current size guard: PGK_ELEMENT_GUARD if set, else 600."""
    raw = os.environ.get("PGK_ELEMENT_GUARD", str(DEFAULT_GUARD))
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"PGK_ELEMENT_GUARD must be an integer, got {raw!r}") from None


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


def _neighbourhood_class_reps(adj: np.ndarray) -> list[int]:
    """One representative per closed-neighbourhood class, smallest-index first."""
    closed = adj.copy()
    np.fill_diagonal(closed, True)
    _, first = np.unique(closed, axis=0, return_index=True)
    return sorted(int(i) for i in first)


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


def kappa_element_oracle(
    n: int, max_n: int | None = None, twin_reduction: bool = True
) -> KappaResult:
    """Exact kappa(P(C_n)) by flows on the full n-vertex power graph.

    Raises if n exceeds the size guard (see ``element_guard``) unless
    ``max_n`` explicitly overrides it.
    """
    guard = element_guard() if max_n is None else max_n
    if n > guard:
        raise ValueError(
            f"n={n} exceeds the element-oracle guard {guard}; "
            "pass max_n or set PGK_ELEMENT_GUARD to override"
        )
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if n == 1:
        return KappaResult(1, 0, "element-oracle", "prime-power")

    adj = element_adjacency(n)
    if int(adj.sum()) == n * (n - 1):
        return KappaResult(n, n - 1, "element-oracle", case_tag_for(n))

    candidates = _neighbourhood_class_reps(adj) if twin_reduction else list(range(n))
    network = _split_network(adj)
    best: int | None = None
    for i, u in enumerate(candidates):
        for v in candidates[i + 1 :]:
            if adj[u, v]:
                continue
            value = int(maximum_flow(network, n + u, v).flow_value)
            if best is None or value < best:
                best = value
    if best is None:
        raise RuntimeError(f"n={n}: a non-complete graph has no non-adjacent pair")
    return KappaResult(n, best, "element-oracle", case_tag_for(n))
