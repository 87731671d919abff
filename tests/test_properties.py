"""Property tests over random n, drawn by hypothesis. The lints on src/pgk
live in test_lints.py, which runs without hypothesis; with it, those that once
lived in this module are also collected here, under the names they had then."""

from math import prod

import pytest

from pgk import (
    Factorization,
    QuotientGraph,
    build_quotient,
    build_Z,
    enumerate_min_separators,
    factorize,
    kappa_class,
    size_Z_formula,
    witness_problems,
)
from pgk.connectivity import _ClassNet, min_cuts

from test_connectivity import arc_source_rule, check_state
from test_formulas import check_against_printed
from test_quotient import non_adjacent_pairs, reference_components_without, reference_masks

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_lints import (  # noqa: E402,F401
    test_all_matches_the_package_imports,
    test_class_route_imports_no_numeric_library,
    test_class_route_imports_only_the_quotient,
    test_each_command_factors_n_in_one_place,
    test_each_input_rule_is_checked_in_one_place,
    test_element_oracle_imports_nothing_of_the_class_route,
    test_importing_pgk_and_its_cli_loads_no_process_pool,
    test_importing_pgk_and_its_cli_loads_no_scipy,
    test_no_assert_statements_in_the_package,
    test_no_environment_variable_is_read_in_the_package,
    test_no_module_imports_scipy,
    test_phi_and_divisors_come_from_the_factorization_in_hand,
    test_separators_read_n_from_the_quotient,
)

composite = st.integers(min_value=2, max_value=3000).filter(
    lambda n: factorize(n).r >= 2
)


@settings(max_examples=200, deadline=None)
@given(composite, st.data())
def test_size_Z_formula_is_the_layer_set_weight(n, data):
    g = build_quotient(n)
    k = data.draw(st.integers(min_value=0, max_value=g.f.exponents[-1] - 1))
    assert size_Z_formula(g.f, k) == build_Z(g, k).weight


PRIMES_BELOW_1000 = [p for p in range(2, 1000) if factorize(p).factors == ((p, 1),)]
LARGE_N = 10**12


@st.composite
def large_factorizations(draw):
    """A Factorization with r >= 2 and n <= 10**12, built from drawn primes and
    exponents so n is never trial-divided. The six smallest primes are drawn
    on their own, so r3-exact and case-ii-bound (2*phi(P) < P) come up often."""
    primes = draw(st.sets(st.sampled_from((2, 3, 5, 7, 11, 13)))) | draw(
        st.sets(st.sampled_from(PRIMES_BELOW_1000), min_size=2, max_size=3)
    )
    primes = sorted(primes)
    while prod(primes) > LARGE_N:
        primes.pop()
    n, factors = 1, []
    for i, p in enumerate(primes):
        # leave room for every later prime at exponent 1
        e = draw(st.integers(min_value=1, max_value=12))
        while n * p**e * prod(primes[i + 1 :]) > LARGE_N:
            e -= 1
        n *= p**e
        factors.append((p, e))
    return Factorization(n, tuple(factors))


@settings(max_examples=300, deadline=None)
@given(large_factorizations())
def test_formulas_match_the_printed_expressions_at_large_n(f):
    assert f.r >= 2
    check_against_printed(f)


@settings(max_examples=200, deadline=None)
@given(composite, st.data())
def test_min_cut_between_disconnects(n, data):
    g = build_quotient(n)
    pairs = non_adjacent_pairs(g)
    u, v = data.draw(st.sampled_from(pairs))
    net = _ClassNet(g)
    weight, res = net.flow(u, v)
    for cut in net.cuts(res, u, v):
        assert weight == sum(g.weight(d) for d in cut)
        comps = reference_components_without(g, cut)
        assert next(c for c in comps if u in c) != next(c for c in comps if v in c)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=2000).filter(lambda n: factorize(n).r >= 2), st.data())
def test_hand_weights_match_the_arc_net(n, data):
    # random positive weights, small ones for ties or up to 2n so that they
    # sum far above n: the uncapacitated adjacency arcs must still never be
    # cut, and the source rule, flows and cuts agree with the arc list's
    g = build_quotient(n)
    top = data.draw(st.sampled_from((4, 2 * n)))
    weights = st.integers(min_value=1, max_value=top)
    hand = QuotientGraph(
        g.f,
        g.divisors,
        tuple(data.draw(st.lists(weights, min_size=len(g.divisors), max_size=len(g.divisors)))),
    )
    assert (hand.comparable, hand.near) == reference_masks(hand)
    assert (kappa_class(hand).kappa, min_cuts(hand)) == arc_source_rule(hand)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=5000).filter(lambda n: factorize(n).r >= 2), st.data())
def test_every_flow_state_is_a_feasible_flow(n, data):
    # the warm start writes amt and back itself: whatever the weights and
    # wherever the limit stops the flow, its state is a feasible flow of the
    # value it returns (check_state: positive amt on comparable classes, back
    # the tails of amt, conservation at each uncharged class, no flow on a
    # charged one, avail and fbits as r says, the charge plus u's outflow)
    g = build_quotient(n)
    top = data.draw(st.sampled_from((4, 2 * n)))
    weights = st.integers(min_value=1, max_value=top)
    hand = QuotientGraph(
        g.f,
        g.divisors,
        tuple(data.draw(st.lists(weights, min_size=len(g.divisors), max_size=len(g.divisors)))),
    )
    u, v = data.draw(st.sampled_from(non_adjacent_pairs(hand)))
    limit = data.draw(st.none() | st.integers(min_value=0, max_value=sum(hand.weights)))
    value, state = _ClassNet(hand).flow(u, v, limit)
    check_state(hand, u, v, value, state)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=3000))
def test_kappa_at_most_the_minimum_degree(n):
    # an element of order d is adjacent to the rest of its class and to every
    # element of a comparable order
    g = build_quotient(n)
    degree = min(
        w - 1 + sum(g.weight(e) for e in g.divisors if e != d and (d % e == 0 or e % d == 0))
        for d, w in zip(g.divisors, g.weights)
    )
    assert kappa_class(g).kappa <= degree


@settings(max_examples=100, deadline=None)
@given(composite)
def test_enumerated_separators_are_verified_minima(n):
    g = build_quotient(n)
    seps = enumerate_min_separators(g)
    kappa = kappa_class(g).kappa
    assert seps
    for s in seps:
        assert s.weight == kappa == sum(g.weight(d) for d in s.classes)
        assert s.witness is not None and witness_problems(g, s.witness) == []
