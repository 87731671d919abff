"""Acceptance suite: one test per criterion, exact tolerances, budgeted runtimes.

Run with -s to see one PASS line per criterion. The two expensive artifacts
(the class-cut connectivity table up to 5000 and the element-oracle table up
to 1500) are built once per module and shared.
"""

import time
from itertools import combinations

import pytest

from pgk import (
    build_quotient,
    build_Z,
    check_disconnects,
    classify,
    divisors,
    enumerate_min_separators,
    example_2310,
    factorize,
    kappa_class,
    kappa_element_oracle,
    kappa_formula,
    optimal_Z,
    size_Z_formula,
    totient,
    upper_bound_ii,
    witness_problems,
)
from pgk.connectivity import _ClassNet

from test_formulas import lemma4_slack, printed_bound_ii, printed_case_i, printed_r3

MAX_N = 5000
ORACLE_MAX_N = 1500


def _class_kappa(n: int) -> int:
    return kappa_class(build_quotient(n)).kappa


def _passed(name: str, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f} s) {detail}")


@pytest.fixture(scope="module")
def kappa_table():
    start = time.perf_counter()
    table = {n: _class_kappa(n) for n in range(2, MAX_N + 1)}
    table["elapsed"] = time.perf_counter() - start
    return table


@pytest.fixture(scope="module")
def oracle_table():
    start = time.perf_counter()
    table = {n: kappa_element_oracle(n).kappa for n in range(1, ORACLE_MAX_N + 1)}
    table["elapsed"] = time.perf_counter() - start
    return table


def test_criterion_1_oracle_equivalence(oracle_table):
    start = time.perf_counter()
    mismatches = []
    for n in range(1, ORACLE_MAX_N + 1):
        kc = _class_kappa(n)
        if kc != oracle_table[n]:
            mismatches.append((n, kc, oracle_table[n]))
    elapsed = time.perf_counter() - start + oracle_table["elapsed"]
    assert mismatches == [], f"class vs element disagreements: {mismatches[:5]}"
    assert elapsed < 60, f"criterion 1 exceeded its 60 s budget: {elapsed:.1f} s"
    _passed(
        "criterion 1 (oracle equivalence)",
        elapsed,
        f"class-cut == element brute force for all n in [1, {ORACLE_MAX_N}]",
    )


def test_criterion_2_exact_formula_reproduction(kappa_table):
    start = time.perf_counter()
    spot = {36: 18, 45: 27, 105: 55, 150: 52}
    for n, expected in spot.items():
        assert kappa_table[n] == expected, f"kappa({n}) != {expected}"
        assert kappa_formula(factorize(n)) == expected

    checked = 0
    for n in range(2, MAX_N + 1):
        f = factorize(n)
        if classify(f).tag not in ("prime-power", "case-i", "case-iii", "r3-exact"):
            continue
        value = kappa_formula(f)
        assert value is not None
        assert value == kappa_table[n], (
            f"formula {value} != computed {kappa_table[n]} at n={n}"
        )
        checked += 1
    elapsed = time.perf_counter() - start + kappa_table["elapsed"]
    assert elapsed < 60, f"criterion 2 exceeded its 60 s budget: {elapsed:.1f} s"
    _passed(
        "criterion 2 (closed forms)",
        elapsed,
        f"formula == class-cut on {checked} exactly-solved n <= {MAX_N}",
    )


def test_criterion_3_example_2310():
    start = time.perf_counter()
    sep = example_2310()
    phi = totient(2310)
    assert sep.weight == 630 == phi + 150
    witness = check_disconnects(sep)
    assert witness.block_a == frozenset({30})
    assert witness_problems(build_quotient(2310), witness) == []
    bound = upper_bound_ii(factorize(2310))
    assert bound == 642 == phi + 162
    assert sep.weight < bound
    _passed(
        "criterion 3 (n = 2310 certificate)",
        time.perf_counter() - start,
        "|X| = 630 = phi+150, disconnects with block {30}, 630 < bound 642",
    )


def test_criterion_4_minimum_separator_counts(kappa_table):
    start = time.perf_counter()
    case_i_listed = [15, 45, 75, 105, 225, 315]
    case_i_all = [
        n
        for n in range(2, 451)
        if classify(factorize(n)).tag == "case-i" and len(divisors(n)) <= 24
    ]
    assert set(case_i_listed) <= set(case_i_all)
    for n in case_i_all:
        f = factorize(n)
        g = build_quotient(n)
        seps = enumerate_min_separators(g)
        expected = build_Z(g, f.exponents[-1] - 1).classes
        assert len(seps) == 1, f"n={n}: expected a unique minimum separator"
        assert seps[0].weight == kappa_table[n], n
        assert seps[0].classes == expected, f"n={n}: separator is not the top layer set"

    for n in (12, 18, 24, 36, 48, 72, 108, 144):
        f = factorize(n)
        g = build_quotient(n)
        seps = enumerate_min_separators(g)
        e2 = f.exponents[-1]
        assert len(seps) == e2, f"n={n}: expected exactly {e2} minimum separators"
        assert all(s.weight == kappa_table[n] for s in seps), n
        assert {s.classes for s in seps} == {
            frozenset(build_Z(g, k).classes) for k in range(e2)
        }, f"n={n}: separators are not the Z(2, k) family"

    for n in (30, 60, 90, 120, 150, 300):
        f = factorize(n)
        g = build_quotient(n)
        seps = enumerate_min_separators(g)
        assert len(seps) == 1, f"n={n}: expected a unique minimum separator"
        assert seps[0].classes == build_Z(g, 0).classes, f"n={n}: not Z(3, 0)"
        assert seps[0].weight == kappa_table[n], n

    _passed(
        "criterion 4 (separator counts)",
        time.perf_counter() - start,
        f"unique on {len(case_i_all)} case-i n, e_2-fold on the 2^a p^b list, "
        "unique on the r=3 list",
    )


def test_criterion_4b_separators_in_the_case_ii_bound_regime(kappa_table):
    start = time.perf_counter()
    regime = [n for n in range(2, 2001) if factorize(n).r >= 4]
    assert len(regime) == 81
    for n in regime + [2310]:
        g = build_quotient(n)
        seps = enumerate_min_separators(g)
        # one minimum separator each, as computed; the paper leaves this open
        assert len(seps) == 1, f"n={n}: {len(seps)} minimum separators"
        (sep,) = seps
        assert sep.weight == kappa_table[n] == sum(g.weight(d) for d in sep.classes)
        assert {1, n} <= sep.classes, n
        assert sep.witness is not None and witness_problems(g, sep.witness) == [], n
    assert sep.classes == example_2310().classes  # the last n, 2310
    _passed(
        "criterion 4b (case-ii-bound separators)",
        time.perf_counter() - start,
        f"exactly one minimum separator for each of the {len(regime)} n <= 2000 "
        "with r >= 4, and n = 2310 gives the certificate",
    )


def test_criterion_5_equality_characterization(kappa_table):
    start = time.perf_counter()
    exceptions = []
    for n in range(2, MAX_N + 1):
        f = factorize(n)
        if f.r < 2:
            continue
        # removing the universal vertices is mandatory, completeness impossible
        assert totient(n) + 1 <= kappa_table[n] <= n - 2, n
        at_floor = kappa_table[n] == totient(n) + 1
        squarefree_biprime = f.r == 2 and f.exponents == (1, 1)
        if at_floor != squarefree_biprime:
            exceptions.append(n)
    assert exceptions == [], f"phi(n)+1 characterization fails at {exceptions[:5]}"
    _passed(
        "criterion 5 (kappa = phi(n)+1 iff squarefree biprime)",
        time.perf_counter() - start,
        f"zero exceptions for n <= {MAX_N}",
    )


def test_criterion_6_layer_sets_size_and_disconnection():
    start = time.perf_counter()
    sizes_checked = 0
    for n in range(2, MAX_N + 1):
        f = factorize(n)
        if f.r < 2:
            continue
        g = build_quotient(n)
        for k in range(f.exponents[-1]):
            z = build_Z(g, k)
            assert z.weight == size_Z_formula(f, k), f"size mismatch at n={n}, k={k}"
            witness = check_disconnects(z)  # raises if the remainder is connected
            assert witness_problems(g, witness) == [], (n, k)
            sizes_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"criterion 6 exceeded its 120 s budget: {elapsed:.1f} s"
    _passed(
        "criterion 6 (layer set size formula and disconnection)",
        elapsed,
        f"{sizes_checked} (n, k) pairs, zero exceptions",
    )


def test_criterion_7_bound_validity_and_coincidences(kappa_table):
    start = time.perf_counter()
    qualifying = 0
    for n in range(2, MAX_N + 1):
        f = factorize(n)
        if f.r < 2:
            continue
        c = classify(f)
        if 2 * c.phiP >= c.P:
            continue
        bound = upper_bound_ii(f)
        assert bound == printed_bound_ii(f), f"bound is not the printed form at n={n}"
        assert kappa_table[n] <= bound, f"bound violated at n={n}"
        # the coincidences compare the paper's printed forms, not two calls
        # of the one closed form the library derives them all from
        if f.exponents[-1] == 1:
            assert bound == printed_case_i(f), f"e_r=1 coincidence fails at n={n}"
        if f.r == 3:
            assert bound == printed_r3(f) == kappa_formula(f), (
                f"r=3 coincidence fails at n={n}"
            )
        qualifying += 1
    _passed(
        "criterion 7 (upper bound)",
        time.perf_counter() - start,
        f"valid on {qualifying} qualifying n <= {MAX_N}, all coincidences exact",
    )


def test_conjecture_a_kappa_is_the_layer_set_or_the_seed(kappa_table):
    # Conjecture A, not proved: for r >= 2, kappa is the lighter of the best
    # layer set and the lightest isolating set N(d), the class cut's seed
    start = time.perf_counter()
    checked = seed_lower = layer_lower = 0
    for n in range(2, MAX_N + 1):
        g = build_quotient(n)
        if g.is_complete:
            continue
        layer = optimal_Z(g).weight
        seed = _ClassNet(g).isolation
        assert kappa_table[n] == min(layer, seed), (n, kappa_table[n], layer, seed)
        checked += 1
        seed_lower += seed < layer
        layer_lower += layer < seed
    assert (checked, seed_lower, layer_lower) == (4288, 9, 28)
    _passed(
        "conjecture A (kappa = min(layer set, seed))",
        time.perf_counter() - start,
        f"{checked} n <= {MAX_N} with r >= 2: the seed is lower on {seed_lower}, "
        f"the layer set on {layer_lower}",
    )


def test_criterion_8_totient_lemma_suites():
    start = time.perf_counter()
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    tuples_checked = 0
    for t in range(1, 6):
        for tup in combinations(primes, t):
            slack = lemma4_slack(tup)
            assert slack >= 0, tup
            assert (slack == 0) == (t == 1), tup
            tuples_checked += 1

    for n in range(2, MAX_N + 1):
        f = factorize(n)
        if f.r < 2:
            continue
        p_r, e_r = f.factors[-1]
        top = totient(f.n // p_r**e_r) * p_r ** (e_r - 1)
        exceptional = f.primes == (2, 3) and f.exponents[0] >= 2
        for i in range(1, f.r):
            margin = totient(f.n // f.primes[i - 1]) - top
            if exceptional:
                assert margin == 0, (n, i)
            else:
                assert margin > 0, (n, i)
    _passed(
        "criterion 8 (totient inequality suites)",
        time.perf_counter() - start,
        f"{tuples_checked} prime tuples and every n <= {MAX_N}, zero exceptions",
    )
