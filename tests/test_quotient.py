"""Divisor-class quotient: structure, subgroup sets, element expansion, blow-up."""

import dataclasses
import math
import random
from itertools import combinations

import numpy as np
import pytest

from pgk import (
    QuotientGraph,
    build_quotient,
    components_without,
    divisors,
    element_adjacency,
    factorize,
    subgroup_classes,
    totient,
)


def expand_to_elements(n, classes):
    """Residues x in Z_n whose order n/gcd(n, x) lies in the given classes."""
    chosen = set(classes)
    for d in chosen:
        if d < 1 or n % d != 0:
            raise ValueError(f"{d} does not divide {n}")
    return frozenset(x for x in range(n) if n // math.gcd(n, x) in chosen)


def non_adjacent_pairs(g):
    """Reference: every incomparable divisor pair (u, v) with u < v, in
    lexicographic order."""
    return [(u, v) for i, u in enumerate(g.divisors) for v in g.divisors[i + 1 :] if v % u]


def reference_masks(g):
    """Reference: the divisor pair loop, as the class cut once ran it,
    giving (comparable, near) as tuples."""
    ds, ws = g.divisors, g.weights
    comp = [0] * len(ds)
    near = [0] * len(ds)
    for i, d in enumerate(ds):
        for j in range(i + 1, len(ds)):
            if ds[j] % d == 0:
                comp[i] |= 1 << j
                comp[j] |= 1 << i
                near[i] += ws[j]
                near[j] += ws[i]
    return tuple(comp), tuple(near)


def reference_components_without(g, removed):
    """Reference: the components left after deleting removed, by a scan of
    the unseen divisor set from each class reached, sorted by least divisor."""
    gone = set(removed)
    survivors = [d for d in g.divisors if d not in gone]
    components = []
    unseen = set(survivors)
    for start in survivors:
        if start not in unseen:
            continue
        stack = [start]
        unseen.discard(start)
        comp = {start}
        while stack:
            d = stack.pop()
            for e in list(unseen):
                if e % d == 0 or d % e == 0:
                    unseen.discard(e)
                    comp.add(e)
                    stack.append(e)
        components.append(frozenset(comp))
    return sorted(components, key=min)


def test_quotient_6():
    g = build_quotient(6)
    assert g.divisors == (1, 2, 3, 6)
    assert dict(zip(g.divisors, g.weights)) == {1: 1, 2: 1, 3: 2, 6: 2}
    assert not g.adjacent(2, 3)
    for d, e in [(1, 2), (1, 3), (1, 6), (2, 6), (3, 6)]:
        assert g.adjacent(d, e) and g.adjacent(e, d)


def test_quotient_prime_power_is_complete():
    g = build_quotient(8)
    assert g.divisors == (1, 2, 4, 8)
    assert g.is_complete
    assert all(g.adjacent(d, e) for d in g.divisors for e in g.divisors if d != e)


def test_quotient_12_non_adjacent_pairs():
    g = build_quotient(12)
    pairs = [(u, v) for u, v in combinations(g.divisors, 2) if not g.adjacent(u, v)]
    assert pairs == non_adjacent_pairs(g) == [(2, 3), (3, 4), (4, 6)]
    assert not g.is_complete


def test_is_complete_is_the_chain_scan():
    # reference: the quotient is complete iff its divisors form a chain
    for n in range(1, 2001):
        g = build_quotient(n)
        ds = g.divisors
        assert g.is_complete == all(ds[i + 1] % ds[i] == 0 for i in range(len(ds) - 1)), n


def test_quotient_weights_are_the_totients_of_the_divisors():
    # the one-pass build against the divisor list and a totient per divisor
    for n in range(1, 5001):
        ds = tuple(divisors(n))
        weights = tuple(totient(d) for d in ds)
        assert build_quotient(n) == QuotientGraph(factorize(n), ds, weights), n


def test_quotient_rejects_zero():
    with pytest.raises(ValueError):
        build_quotient(0)


def test_adjacent_rejects_non_divisors():
    g = build_quotient(12)
    with pytest.raises(ValueError, match="^5 does not divide 12$"):
        g.adjacent(5, 6)


@pytest.mark.parametrize(
    "divisors, weights, message",
    [
        pytest.param((12, 6, 4, 3, 2, 1), (4, 2, 2, 2, 1, 1), "divisors", id="reversed"),
        pytest.param((1, 2, 3, 4, 6), (1, 1, 2, 2, 2), "divisors", id="12-left-out"),
        pytest.param((1, 2, 3, 5, 6, 12), (1, 1, 2, 4, 2, 4), "divisors", id="5-for-4"),
        pytest.param((1, 2, 2, 4, 6, 12), (1, 1, 1, 2, 2, 4), "divisors", id="2-repeated"),
        pytest.param((0, 1, 2, 3, 4, 6), (1, 1, 1, 2, 2, 2), "divisors", id="0-for-12"),
        pytest.param((1, 2, 3, 4, 6, 12), (1, 1, 2, 2, 2), "weights", id="one-weight-short"),
        pytest.param((1, 2, 3, 4, 6, 12), (1, 1, 2, 0, 2, 4), "weights", id="weight-0"),
        pytest.param((1, 2, 3, 4, 6, 12), (1, 1, 2, -5, 2, 4), "weights", id="weight-minus-5"),
        pytest.param((1, 2, 3, 4, 6, 12), (1, 1, 2, 1.5, 2, 4), "weights", id="weight-1.5"),
    ],
)
def test_malformed_quotients_are_rejected_when_built(divisors, weights, message):
    """A quotient is every divisor of n, ascending, with one positive int
    weight each. Before the quotient checked this itself, kappa_class
    returned 0 for the reversed quotient of 12 and 3 for the one without 12,
    where kappa(P(C_12)) = 6."""
    expected = {
        "divisors": "^divisors must be every divisor of 12, in ascending order$",
        "weights": "^weights must be 6 positive ints, one per divisor$",
    }
    with pytest.raises(ValueError, match=expected[message]):
        QuotientGraph(factorize(12), divisors, weights)


@pytest.mark.parametrize("lookup", ["index", "weight"])
def test_lookups_reject_non_divisors_with_one_message(lookup):
    g = build_quotient(12)
    with pytest.raises(ValueError, match="^7 does not divide 12$"):
        getattr(g, lookup)(7)


def test_weight_conservation():
    # class sizes partition the group
    for n in range(1, 301):
        g = build_quotient(n)
        assert sum(g.weights) == n
        assert g.weight(1) == 1 and g.weight(n) == totient(n)


@pytest.mark.parametrize(
    "n, d, expected",
    [
        (36, 6, {1, 2, 3, 6}),
        (2310, 15, {1, 3, 5, 15}),
        (12, 1, {1}),
    ],
)
def test_subgroup_classes(n, d, expected):
    got = subgroup_classes(build_quotient(n), d)
    assert got == frozenset(expected)
    assert sum(totient(e) for e in got) == d  # the subgroup has exactly d elements


def test_subgroup_classes_rejects_non_divisor():
    with pytest.raises(ValueError):
        subgroup_classes(build_quotient(12), 5)


@pytest.mark.parametrize(
    "n, classes, expected",
    [
        (6, {6}, {1, 5}),
        (6, {1}, {0}),
        (12, {4}, {3, 9}),
    ],
)
def test_expand_to_elements(n, classes, expected):
    assert expand_to_elements(n, classes) == frozenset(expected)


def test_expand_cardinality_is_weight_sum():
    for n in (30, 36, 60):
        g = build_quotient(n)
        for subset in ({1, n}, set(g.divisors[:3]), set(g.divisors)):
            assert len(expand_to_elements(n, subset)) == sum(
                g.weight(d) for d in subset
            )


def test_expand_rejects_non_divisor():
    with pytest.raises(ValueError):
        expand_to_elements(12, {5})


def test_components_without():
    g = build_quotient(12)
    comps = components_without(g, {1, 2, 12})
    assert comps == [frozenset({3, 6}), frozenset({4})]
    assert components_without(g, set()) == [frozenset({1, 2, 3, 4, 6, 12})]


def test_masks_match_the_pair_loop_up_to_500():
    for n in range(1, 501):
        g = build_quotient(n)
        assert (g.comparable, g.near) == reference_masks(g), n


def test_masks_follow_the_weights_and_not_equality():
    g = build_quotient(12)
    hand = QuotientGraph(g.f, g.divisors, (5, 4, 4, 3, 4, 3))
    assert (hand.comparable, hand.near) == reference_masks(hand)
    assert hand.comparable == g.comparable and hand.near != g.near
    assert hand != g and QuotientGraph(g.f, g.divisors, g.weights) == g
    assert repr(g) == f"QuotientGraph(f={g.f!r}, divisors={g.divisors!r}, weights={g.weights!r})"


def test_index_covers_every_divisor_and_not_equality():
    for n in (1, 12, 2310, 720720):
        g = build_quotient(n)
        assert [g.index(d) for d in g.divisors] == list(range(len(g.divisors))), n
    g = build_quotient(12)
    assert "_index" not in {field.name for field in dataclasses.fields(g)}
    assert hash(QuotientGraph(g.f, g.divisors, g.weights)) == hash(g)
    assert "_index" not in repr(g)


def test_components_without_matches_the_set_scan_up_to_200():
    rng = random.Random(200)
    for n in range(1, 201):
        g = build_quotient(n)
        for _ in range(8):
            removed = rng.sample(g.divisors, rng.randint(0, len(g.divisors)))
            assert components_without(g, removed) == reference_components_without(g, removed), (
                n,
                removed,
            )


def test_components_without_rejects_non_divisors():
    with pytest.raises(ValueError, match="^5 does not divide 12$"):
        components_without(build_quotient(12), {1, 5})


def test_subgroup_classes_weigh_their_order_up_to_500():
    for n in range(1, 501):
        g = build_quotient(n)
        for d in g.divisors:
            classes = subgroup_classes(g, d)
            assert classes == {e for e in g.divisors if d % e == 0}, (n, d)
            assert sum(map(g.weight, classes)) == d, (n, d)


def test_blowup_reconstructs_power_graph():
    # expanding each class to a clique and joining adjacent classes completely
    # must reproduce the element-level graph exactly
    for n in range(2, 301):
        g = build_quotient(n)
        order = np.array([n // math.gcd(n, x) for x in range(n)])
        cls = np.searchsorted(np.array(g.divisors), order)
        tau = len(g.divisors)
        class_adj = np.zeros((tau, tau), dtype=bool)
        for i, d in enumerate(g.divisors):
            for j, e in enumerate(g.divisors):
                class_adj[i, j] = (d == e) or g.adjacent(d, e)
        expected = class_adj[cls[:, None], cls[None, :]]
        np.fill_diagonal(expected, False)
        assert np.array_equal(expected, element_adjacency(n)), n


def test_equal_order_elements_share_closed_neighbourhoods():
    for n in range(2, 121):
        adj = element_adjacency(n)
        closed = adj.copy()
        np.fill_diagonal(closed, True)
        orders = [n // math.gcd(n, x) for x in range(n)]
        by_order: dict[int, int] = {}
        for x, d in enumerate(orders):
            if d in by_order:
                assert np.array_equal(closed[x], closed[by_order[d]]), (n, d)
            else:
                by_order[d] = x
