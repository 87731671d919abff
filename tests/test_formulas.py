"""Case classification, closed forms, the upper bound, and totient identities."""

from math import prod

import pytest

from pgk import (
    CASE_I,
    CASE_II_BOUND,
    CASE_III,
    PRIME_POWER,
    R3_EXACT,
    Factorization,
    QuotientGraph,
    build_quotient,
    build_Z,
    classify,
    closed_forms,
    factorize,
    kappa_class,
    kappa_formula,
    size_Z_formula,
    totient,
    upper_bound_ii,
)
from pgk.formulas import best_layer


# The paper's printed expressions, kept as test-only references: the library
# derives every one of them from the single count size_Z_formula. Each takes
# P, phi(P) and B from the factorization itself, not from classify.


def _P_phiP_B(f):
    smaller = f.factors[:-1]
    return (
        prod(p for p, _ in smaller),
        prod(p - 1 for p, _ in smaller),
        prod(p ** (e - 1) for p, e in smaller),
    )


def printed_case_i(f):
    """phi(n) + B * p_r^(e_r-1) * (P - phi(P)): kappa when 2*phi(P) >= P."""
    P, phiP, B = _P_phiP_B(f)
    p_r, e_r = f.factors[-1]
    return totient(f.n) + B * p_r ** (e_r - 1) * (P - phiP)


def printed_case_iii(f):
    """phi(n) + 2^(e_1-1) * p_2^(e_2-1), for n = 2^e_1 * p_2^e_2."""
    (_, e1), (p2, e2) = f.factors
    return totient(f.n) + 2 ** (e1 - 1) * p2 ** (e2 - 1)


def printed_r3(f):
    """phi(n) + 2^(e_1-1) * p_2^(e_2-1) * ((p_2 - 1) * p_3^(e_3-1) + 2)."""
    (_, e1), (p2, e2), (p3, e3) = f.factors
    return totient(f.n) + 2 ** (e1 - 1) * p2 ** (e2 - 1) * (
        (p2 - 1) * p3 ** (e3 - 1) + 2
    )


def printed_bound_ii(f):
    """phi(n) + B * (P + phi(P) * (p_r^(e_r-1) - 2)), where 2*phi(P) < P."""
    P, phiP, B = _P_phiP_B(f)
    p_r, e_r = f.factors[-1]
    return totient(f.n) + B * (P + phiP * (p_r ** (e_r - 1) - 2))


def printed_kappa(f):
    """The paper's exact value for n's case, or None in case-ii-bound."""
    tag = classify(f).tag
    if tag == PRIME_POWER:
        return f.n - 1
    if tag == CASE_I:
        return printed_case_i(f)
    if tag == CASE_III:
        return printed_case_iii(f)
    if tag == R3_EXACT:
        return printed_r3(f)
    return None


def corollary_p1_ge_r(f):
    """The paper's corollary: exact kappa when the smallest prime is at least
    the number of primes.

    p_1 >= r forces 2*phi(P) >= P (with equality only for r = 2, p_1 = 2), so
    kappa_formula gives the connectivity. None when p_1 < r or r < 2.
    """
    if f.r < 2 or f.primes[0] < f.r:
        return None
    return kappa_formula(f)


def lemma4_slack(primes):
    """The paper's Lemma 4 quantity for distinct primes q_1 < ... < q_t:
    phi(q_1...q_t) - q_1...q_t + sum_k q_1...q_t / q_k.

    Always >= 0, and zero exactly when t = 1. Raises ValueError unless the
    tuple is non-empty and ascending primes.
    """
    if not primes:
        raise ValueError("at least one prime required")
    m = prod(primes)
    Factorization(m, tuple((q, 1) for q in primes))  # raises unless ascending primes
    return prod(q - 1 for q in primes) - m + sum(m // q for q in primes)


def check_against_printed(f):
    """kappa_formula and upper_bound_ii agree with the printed expressions."""
    assert kappa_formula(f) == printed_kappa(f), f.n
    if f.r < 2:
        assert upper_bound_ii(f) is None, f.n
        return
    P, phiP, _ = _P_phiP_B(f)
    expected = printed_bound_ii(f) if 2 * phiP < P else None
    assert upper_bound_ii(f) == expected, f.n


@pytest.mark.parametrize(
    "n, tag",
    [
        (45, CASE_I),
        (15, CASE_I),
        (105, CASE_I),
        (36, CASE_III),
        (12, CASE_III),
        (150, R3_EXACT),
        (30, R3_EXACT),
        (2310, CASE_II_BOUND),
        (8, PRIME_POWER),
        (1, PRIME_POWER),
    ],
)
def test_classify_tags(n, tag):
    assert classify(factorize(n)).tag == tag


def test_classify_evidence_fields():
    c = classify(factorize(2310))
    assert (c.P, c.phiP) == (210, 48)
    assert 2 * c.phiP < c.P
    c45 = classify(factorize(45))
    assert (c45.P, c45.phiP) == (3, 2)


def test_two_prime_n_never_needs_the_bound():
    # with r = 2, 2*(p_1 - 1) >= p_1 always: only case-i or case-iii can occur
    for n in range(2, 301):
        f = factorize(n)
        if f.r != 2:
            continue
        tag = classify(f).tag
        assert tag in (CASE_I, CASE_III), n
        assert (tag == CASE_III) == (f.primes[0] == 2), n


def test_equality_case_forces_r2_p2():
    for n in range(2, 2001):
        f = factorize(n)
        if f.r >= 2 and classify(f).tag == CASE_III:
            assert f.r == 2 and f.primes[0] == 2, n


@pytest.mark.parametrize(
    "n, kappa",
    [
        (45, 27),  # 24 + 3 * (3 - 2)
        (36, 18),  # 12 + 2 * 3
        (150, 52),  # 40 + (3 - 1) * 5 + 2
        (8, 7),
        (9, 8),
        (1, 0),
    ],
)
def test_kappa_formula_known(n, kappa):
    assert kappa_formula(factorize(n)) == kappa


def test_kappa_formula_absent_without_exact_case():
    assert kappa_formula(factorize(2310)) is None
    assert kappa_formula(factorize(2 * 3 * 5 * 7)) is None  # r = 4, 2*phi(30) < 30


def test_formula_matches_computation_small():
    for n in range(2, 501):
        value = kappa_formula(factorize(n))
        if value is not None:
            assert value == kappa_class(build_quotient(n)).kappa, n


@pytest.mark.parametrize(
    "n, bound",
    [
        (2310, 642),  # phi(n) + 162
        (210, 70),  # 48 + 30 + 8 * (1 - 2)
        (150, 52),  # r = 3: the bound is the exact value
    ],
)
def test_upper_bound_known(n, bound):
    assert upper_bound_ii(factorize(n)) == bound


@pytest.mark.parametrize("n", [1, 8, 15, 36, 45])
def test_upper_bound_absent_outside_case_ii(n):
    assert upper_bound_ii(factorize(n)) is None


def test_formulas_match_the_printed_expressions():
    for n in range(1, 2001):
        check_against_printed(factorize(n))


def test_bound_equals_case_i_expression_when_top_exponent_is_one():
    for n in range(2, 2001):
        f = factorize(n)
        if f.r < 2 or f.exponents[-1] != 1:
            continue
        bound = upper_bound_ii(f)
        if bound is not None:
            assert bound == printed_bound_ii(f) == printed_case_i(f), n


def test_case_i_expression_is_the_peak_layer_size():
    for n in range(2, 501):
        f = factorize(n)
        if f.r >= 2:
            assert printed_case_i(f) == size_Z_formula(f, f.exponents[-1] - 1), n
            assert printed_bound_ii(f) == size_Z_formula(f, 0), n


def test_size_Z_formula_rejects_bad_input():
    with pytest.raises(ValueError):
        size_Z_formula(factorize(8), 0)  # single prime
    for k in (-1, 2):
        with pytest.raises(ValueError):
            size_Z_formula(factorize(36), k)


def test_closed_forms_factor_nothing_again(factorize_calls):
    # a Factorization in hand carries every phi and divisor the forms need,
    # so none of them calls factorize, here of n or of P
    p = 499999999979
    f = Factorization(2 * p, ((2, 1), (p, 1)))
    assert classify(f).tag == CASE_III
    assert kappa_formula(f) == p == size_Z_formula(f, 0)
    assert upper_bound_ii(f) is None
    g = QuotientGraph(f, *zip(*f.divisor_classes()))  # by hand: build_quotient factors n
    assert build_Z(g, 0).classes == {1, 2 * p}
    assert factorize_calls == []


def three_call_closed_forms(f):
    """Reference: the case, exact value and bound as three separate
    derivations, each classifying n on its own and evaluating its own |Z|."""
    if f.r <= 1:
        formula = f.n - 1
    else:
        c = classify(f)
        formula = None if c.tag == CASE_II_BOUND else size_Z_formula(f, best_layer(f, c))
    c = classify(f)
    bound = size_Z_formula(f, 0) if 2 * c.phiP < c.P else None
    return classify(f), formula, bound


def test_closed_forms_match_the_three_call_reference():
    p = 499999999979
    hand = Factorization(2 * p, ((2, 1), (p, 1)))
    fs = [factorize(n) for n in [*range(1, 5001), 2310, 720720, 963761198400]] + [hand]
    for f in fs:
        expected = three_call_closed_forms(f)
        assert closed_forms(f) == expected, f.n
        assert (kappa_formula(f), upper_bound_ii(f)) == expected[1:], f.n


@pytest.mark.parametrize(
    "n, expected",
    [(15, 9), (105, 55), (30, None), (12, 6), (8, None), (1, None)],
)
def test_corollary_small_prime_at_least_r(n, expected):
    assert corollary_p1_ge_r(factorize(n)) == expected


def test_corollary_agrees_with_computation():
    for n in range(2, 401):
        value = corollary_p1_ge_r(factorize(n))
        if value is not None:
            assert value == kappa_class(build_quotient(n)).kappa, n


@pytest.mark.parametrize(
    "primes, slack",
    [((5,), 0), ((2, 3), 1), ((2, 3, 5), 9), ((3,), 0), ((3, 5), 1)],
)
def test_lemma4_slack_known(primes, slack):
    assert lemma4_slack(primes) == slack


def test_lemma4_slack_rejects_bad_tuples():
    for bad in [(), (3, 2), (3, 3), (2, 4), (6,)]:
        with pytest.raises(ValueError):
            lemma4_slack(bad)


def test_lemma4_slack_positive_unless_singleton():
    primes = [2, 3, 5, 7, 11, 13]
    from itertools import combinations

    for t in range(1, 5):
        for tup in combinations(primes, t):
            slack = lemma4_slack(tup)
            if t == 1:
                assert slack == 0, tup
            else:
                assert slack > 0, tup
