"""Element-level oracle: definitional brute force agreement and guards.

The oracle is itself validated here against exhaustive subset removal -- for
small n, literally every vertex subset below the reported connectivity is
checked not to disconnect the graph, and some subset of exactly that size is
found that does. The representative-pair reduction is additionally compared
against the unreduced all-pairs flow loop.
"""

from itertools import combinations

import numpy as np
import pytest

from pgk import element_adjacency, element_guard, kappa_element_oracle


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
        reduced = kappa_element_oracle(n).kappa
        full = kappa_element_oracle(n, twin_reduction=False).kappa
        assert reduced == full, n


def test_oracle_complete_graphs():
    for n in (1, 2, 13, 16, 27):
        assert kappa_element_oracle(n).kappa == max(n - 1, 0)
    assert kappa_element_oracle(8).case_tag == "prime-power"


def test_guard_default_and_overrides(monkeypatch):
    assert element_guard() == 600
    with pytest.raises(ValueError):
        kappa_element_oracle(601)
    # explicit override wins; 601 is prime, so the graph is complete and cheap
    assert kappa_element_oracle(601, max_n=601).kappa == 600
    monkeypatch.setenv("PGK_ELEMENT_GUARD", "10")
    assert element_guard() == 10
    with pytest.raises(ValueError):
        kappa_element_oracle(12)
    assert kappa_element_oracle(12, max_n=12).kappa == 6
    monkeypatch.setenv("PGK_ELEMENT_GUARD", "abc")
    with pytest.raises(ValueError, match="PGK_ELEMENT_GUARD"):
        element_guard()


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
