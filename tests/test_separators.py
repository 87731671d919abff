"""Layer separators Z(r, k), the 2310 certificate, witnesses, and exhaustive enumeration."""

import pytest

from pgk import (
    ClassSeparator,
    SeparationWitness,
    build_quotient,
    build_Z,
    check_disconnects,
    components_without,
    divisors,
    enumerate_min_separators,
    example_2310,
    factorize,
    kappa_formula,
    optimal_Z,
    size_Z_formula,
    totient,
    upper_bound_ii,
    witness_problems,
)

from test_connectivity import kappa_all_pairs
from test_quotient import expand_to_elements


@pytest.mark.parametrize(
    "n, k, classes, weight",
    [
        (36, 0, {1, 2, 12, 36}, 18),
        (36, 1, {1, 2, 3, 6, 36}, 18),
        (45, 0, {1, 3, 45}, 27),
        (150, 0, {1, 2, 3, 30, 150}, 52),
    ],
)
def test_build_Z_known(n, k, classes, weight):
    z = build_Z(build_quotient(n), k)
    assert z.classes == frozenset(classes)
    assert z.weight == weight
    assert z.label == f"Z({factorize(n).r},{k})"


def test_build_Z_rejects_bad_input():
    with pytest.raises(ValueError):
        build_Z(build_quotient(36), 2)
    with pytest.raises(ValueError):
        build_Z(build_quotient(36), -1)
    with pytest.raises(ValueError):
        build_Z(build_quotient(8), 0)  # single prime


@pytest.mark.parametrize(
    "n, k, size",
    [(2310, 0, 642), (36, 0, 18), (36, 1, 18), (45, 0, 27)],
)
def test_size_Z_formula_known(n, k, size):
    assert size_Z_formula(factorize(n), k) == size


def test_Z_weight_matches_formula_and_expansion():
    for n in range(2, 501):
        g = build_quotient(n)
        f = g.f
        if f.r < 2:
            continue
        for k in range(f.exponents[-1]):
            z = build_Z(g, k)
            assert z.weight == size_Z_formula(f, k), (n, k)
            assert len(expand_to_elements(n, z.classes)) == z.weight, (n, k)


def test_Z_always_disconnects():
    for n in range(2, 501):
        g = build_quotient(n)
        if g.f.r < 2:
            continue
        for k in range(g.f.exponents[-1]):
            w = check_disconnects(build_Z(g, k))
            assert witness_problems(g, w) == [], (n, k)


def test_optimal_Z_choices():
    z45 = optimal_Z(build_quotient(45))  # 2*phi(3) > 3 and e_2 = 1, so k = 0
    assert (sorted(z45.classes), z45.weight, z45.label) == ([1, 3, 45], 27, "Z(2,0)")
    z75 = optimal_Z(build_quotient(75))  # 75 = 3 * 5^2: k = e_2 - 1 = 1
    assert z75.label == "Z(2,1)"
    assert z75.weight == kappa_formula(factorize(75)) == 45
    z150 = optimal_Z(build_quotient(150))  # 2*phi(6) < 6: k = 0
    assert (z150.label, z150.weight) == ("Z(3,0)", 52)
    z36 = optimal_Z(build_quotient(36))  # tie: every k has the same weight
    assert z36.label == "Z(2,0)"
    assert "tie" in z36.note
    with pytest.raises(ValueError):
        optimal_Z(build_quotient(49))


def test_optimal_Z_achieves_kappa_in_exact_cases():
    for n in range(2, 501):
        g = build_quotient(n)
        value = kappa_formula(g.f)
        if g.f.r < 2 or value is None:
            continue
        assert optimal_Z(g).weight == value, n


def test_example_2310_certificate():
    sep = example_2310()
    phi = totient(2310)
    assert sep.n == 2310
    assert sep.classes == frozenset({1, 2, 3, 5, 6, 10, 15, 210, 330, 2310})
    assert sep.weight == 630 == phi + 150
    assert len(expand_to_elements(2310, sep.classes)) == 630
    bound = upper_bound_ii(factorize(2310))
    assert sep.weight < bound == 642 == phi + 162
    assert sep.witness is not None
    assert sep.witness.block_a == frozenset({30})
    assert witness_problems(build_quotient(2310), sep.witness) == []


def test_separator_weight_rejects_a_non_divisor():
    # the weights are those of n's classes, so a class outside n has none
    with pytest.raises(ValueError, match="^5 does not divide 12$"):
        ClassSeparator(build_quotient(12), frozenset({1, 5, 12})).weight


def test_check_disconnects_blocks():
    w36 = check_disconnects(build_Z(build_quotient(36), 0))
    assert (w36.block_a, w36.block_b) == (frozenset({4}), frozenset({3, 6, 9, 18}))
    w105 = check_disconnects(build_Z(build_quotient(105), 0))
    assert w105.block_a == frozenset({15})
    assert w105.block_b == frozenset({7, 21, 35})
    w36k1 = check_disconnects(build_Z(build_quotient(36), 1))
    assert w36k1.block_a == frozenset({4, 12})


def test_check_disconnects_rejects_connected_remainder():
    from pgk import ClassSeparator

    weak = ClassSeparator(build_quotient(12), frozenset({1, 12}))
    with pytest.raises(ValueError, match="connected"):
        check_disconnects(weak)


def test_check_disconnects_rejects_tiny_remainders():
    from pgk import ClassSeparator

    nearly_all = ClassSeparator(build_quotient(6), frozenset({1, 2, 3}))
    with pytest.raises(ValueError, match="survive"):
        check_disconnects(nearly_all)
    foreign = ClassSeparator(build_quotient(12), frozenset({5}))
    with pytest.raises(ValueError, match="does not divide"):
        check_disconnects(foreign)


# --- witnesses ----------------------------------------------------------------


def test_witness_example_2310():
    g = build_quotient(2310)
    removed = {2310, 210, 330} | {1, 2, 3, 6} | {1, 2, 5, 10} | {1, 3, 5, 15}
    survivors = set(g.divisors) - removed
    w = SeparationWitness(
        removed=frozenset(removed),
        block_a=frozenset({30}),
        block_b=frozenset(survivors - {30}),
    )
    assert witness_problems(g, w) == []


def test_witness_rejects_connected_remainder():
    g = build_quotient(12)
    survivors = [d for d in g.divisors if d != 12]
    # class 1 survives and is adjacent to everything: every split fails
    for cut_point in range(1, len(survivors)):
        w = SeparationWitness(
            removed=frozenset({12}),
            block_a=frozenset(survivors[:cut_point]),
            block_b=frozenset(survivors[cut_point:]),
        )
        assert witness_problems(g, w)


def test_witness_z_set_36():
    g = build_quotient(36)
    w = SeparationWitness(
        removed=frozenset({1, 2, 12, 36}),
        block_a=frozenset({4}),
        block_b=frozenset({3, 6, 9, 18}),
    )
    assert witness_problems(g, w) == []


def test_witness_problems_diagnostics():
    g = build_quotient(36)
    ok = SeparationWitness(frozenset({1, 2, 12, 36}), frozenset({4}), frozenset({3, 6, 9, 18}))
    assert witness_problems(g, ok) == []

    missing = SeparationWitness(frozenset({1, 2, 12, 36}), frozenset({4}), frozenset({3, 6, 9}))
    assert any("surviving" in p for p in witness_problems(g, missing))

    overlapping = SeparationWitness(frozenset({1, 2, 12, 36}), frozenset({4, 3}), frozenset({3, 6, 9, 18}))
    assert witness_problems(g, overlapping)

    crossing = SeparationWitness(frozenset({1, 2, 12, 36}), frozenset({4, 9}), frozenset({3, 6, 18}))
    assert any("edge between blocks" in p for p in witness_problems(g, crossing))

    foreign = SeparationWitness(frozenset({7}), frozenset({4}), frozenset({3, 6, 9, 18}))
    assert any("non-divisors" in p for p in witness_problems(g, foreign))

    empty_block = SeparationWitness(frozenset(set(g.divisors) - {4}), frozenset({4}), frozenset())
    assert any("nonempty" in p for p in witness_problems(g, empty_block))


# --- enumeration from tight flows ------------------------------------------------


def _kept_side_locked(g, kept, undecided):
    # Optimistic connectivity prune: if the classes already committed to
    # survive are mutually connected and every undecided class attaches to
    # them, no way of finishing the subset can disconnect the quotient.
    if not kept:
        return False
    seen = {kept[0]}
    todo = [kept[0]]
    while todo:
        d = todo.pop()
        for e in kept:
            if e not in seen and (e % d == 0 or d % e == 0):
                seen.add(e)
                todo.append(e)
    if len(seen) != len(kept):
        return False
    return all(
        any(x % d == 0 or d % x == 0 for d in kept) for x in undecided
    )


def enumerate_by_subsets(g, kappa):
    """Reference: every class set of weight kappa that disconnects, by subset DFS.

    The search that enumerate_min_separators replaced, kept unchanged: a
    subset-sum bitset prune on the weight still needed and the kept-side
    connectivity prune. Exponential in tau(n); returns sorted divisor tuples.
    """
    n = g.n
    base_weight = g.weight(1) + g.weight(n)
    if kappa < base_weight:
        return []
    budget = kappa - base_weight
    cands = [d for d in g.divisors if d != 1 and d != n]
    wts = [g.weight(d) for d in cands]
    m = len(cands)

    # suffix subset-sum feasibility bitsets over the extra weight still needed
    mask = (1 << (budget + 1)) - 1
    reach = [0] * (m + 1)
    reach[m] = 1
    for i in range(m - 1, -1, -1):
        r = reach[i + 1]
        reach[i] = (r | (r << wts[i])) & mask

    found = []
    chosen = []
    kept = []

    def dfs(i, spent):
        if spent == budget:
            removed = frozenset(chosen) | {1, n}
            if len(components_without(g, removed)) >= 2:
                found.append(removed)
            return
        if i == m:
            return
        if not (reach[i] >> (budget - spent)) & 1:
            return
        if _kept_side_locked(g, kept, cands[i:]):
            return
        if spent + wts[i] <= budget:
            chosen.append(cands[i])
            dfs(i + 1, spent + wts[i])
            chosen.pop()
        kept.append(cands[i])
        dfs(i + 1, spent)
        kept.pop()

    dfs(0, 0)
    return sorted(tuple(sorted(s)) for s in found)


def enumerate_for(n):
    # kappa from the unpruned pair loop, independent of the source rule
    g = build_quotient(n)
    kappa = kappa_all_pairs(g)
    seps = enumerate_min_separators(g)
    assert all(s.weight == kappa for s in seps), n
    return kappa, seps


def test_enumeration_36():
    kappa, seps = enumerate_for(36)
    assert kappa == 18
    assert [sorted(s.classes) for s in seps] == [
        [1, 2, 3, 6, 36],
        [1, 2, 12, 36],
    ]
    assert {s.label for s in seps} == {"Z(2,0)", "Z(2,1)"}


def test_enumeration_unique_cases():
    kappa15, seps15 = enumerate_for(15)
    assert kappa15 == 9 and len(seps15) == 1
    assert seps15[0].classes == frozenset({1, 15})

    kappa12, seps12 = enumerate_for(12)
    assert kappa12 == 6 and len(seps12) == 1
    assert seps12[0].classes == frozenset({1, 2, 12})

    kappa30, seps30 = enumerate_for(30)
    assert kappa30 == 12 and len(seps30) == 1
    assert seps30[0].classes == build_Z(build_quotient(30), 0).classes


def test_enumeration_results_are_sound():
    for n in (15, 36, 45, 60, 75, 90):
        g = build_quotient(n)
        kappa, seps = enumerate_for(n)
        for s in seps:
            assert {1, n} <= set(s.classes), (n, sorted(s.classes))
            assert s.weight == kappa == sum(g.weight(d) for d in s.classes)
            assert s.witness is not None and witness_problems(g, s.witness) == []


def test_enumeration_matches_subset_search():
    # every non-complete n <= 1500 the subset search finishes quickly
    # (tau <= 24), plus three tau 25-32 values past the old guard
    small = [
        n
        for n in range(2, 1501)
        if not build_quotient(n).is_complete and len(divisors(n)) <= 24
    ]
    assert len(small) == 1220
    for n in small + [1296, 2040, 2310]:
        g = build_quotient(n)
        kappa, seps = enumerate_for(n)
        assert [tuple(sorted(s.classes)) for s in seps] == enumerate_by_subsets(g, kappa), n


def test_enumeration_rejects_complete_graph():
    with pytest.raises(ValueError):
        enumerate_min_separators(build_quotient(9))


def test_enumeration_rejects_a_cut_off_the_flow_value(monkeypatch):
    # a cut whose phi-sum is not the flow value must not be reported at kappa
    monkeypatch.setattr("pgk.separators.min_cuts", lambda g: (17, {frozenset({1, 2, 12, 36})}))
    with pytest.raises(RuntimeError, match="does not weigh the flow value 17"):
        enumerate_min_separators(build_quotient(36))
