"""Integer arithmetic: factorization, totient, divisors, derived quantities.

Derived expectations are checked against independent in-test oracles
(gcd counting for the totient, naive trial scans for factors and divisors)
before anything relies on the library's own code paths.
"""

import math
import random

import pytest

from pgk import Factorization, alpha_beta, divisors, factorize, totient


def naive_totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def naive_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def naive_factors(n: int) -> list[tuple[int, int]]:
    out = []
    for p in range(2, n + 1):
        if n % p:
            continue
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


# --- factorize ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (2310, ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1))),
        (1, ()),
        (360, ((2, 3), (3, 2), (5, 1))),
        (7, ((7, 1),)),
        (1024, ((2, 10),)),
    ],
)
def test_factorize_known(n, expected):
    assert factorize(n).factors == expected


def test_factorize_matches_naive_scan():
    for n in range(1, 500):
        assert factorize(n).factors == tuple(naive_factors(n))


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorization_accessors():
    f = factorize(360)
    assert (f.r, f.primes, f.exponents) == (3, (2, 3, 5), (3, 2, 1))
    assert factorize(1).r == 0


@pytest.mark.parametrize(
    "n, factors",
    [
        (12, ((3, 1), (2, 2))),  # out of order
        (12, ((2, 2), (3, 0))),  # zero exponent
        (12, ((2, 2), (4, 1))),  # composite base
        (12, ((2, 2), (5, 1))),  # wrong product
        (0, ()),
    ],
)
def test_factorization_invariants_enforced(n, factors):
    with pytest.raises(ValueError):
        Factorization(n, factors)


# --- totient -----------------------------------------------------------------


@pytest.mark.parametrize("n, expected", [(1, 1), (2310, 480), (36, 12), (2, 1)])
def test_totient_known(n, expected):
    assert totient(n) == expected
    assert naive_totient(n) == expected


def test_totient_matches_gcd_count():
    for n in range(1, 1000):
        assert totient(n) == naive_totient(n), f"totient({n})"
        assert factorize(n).divisor_classes()[-1] == (n, naive_totient(n)), n


def test_totient_multiplicative_on_coprime_pairs():
    rng = random.Random(20310)
    checked = 0
    while checked < 200:
        a = rng.randrange(2, 10_000)
        b = rng.randrange(2, 10_000)
        if math.gcd(a, b) != 1 or a * b > 10_000:
            continue
        assert totient(a * b) == totient(a) * totient(b), (a, b)
        checked += 1


def test_totient_rejects_zero():
    with pytest.raises(ValueError):
        totient(0)


def test_divisor_sum_identity():
    # sum of phi over the divisors of n recovers n
    for n in range(1, 10_001):
        assert sum(totient(d) for d in divisors(n)) == n, n


# --- divisors ----------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(12, [1, 2, 3, 4, 6, 12]), (1, [1]), (7, [1, 7])],
)
def test_divisors_known(n, expected):
    assert divisors(n) == expected


def test_divisors_match_naive_scan():
    for n in range(1, 500):
        ds = divisors(n)
        assert ds == naive_divisors(n)
        assert ds == sorted(ds)
        assert ds[0] == 1 and ds[-1] == n
        expansion = [(d, naive_totient(d)) for d in naive_divisors(n)]
        assert factorize(n).divisor_classes() == expansion, n


# --- the alpha/beta ladder ---------------------------------------------------


def test_alpha_beta_examples():
    f36 = factorize(36)
    assert alpha_beta(f36, 0) == 4
    assert alpha_beta(f36, 1) == 12
    assert alpha_beta(f36, 0, 1) == 2
    assert alpha_beta(factorize(45), 0, 1) == 3


def test_alpha_beta_divides_n():
    f = factorize(1500)  # 2^2 * 3 * 5^3
    for k in range(f.exponents[-1]):
        assert f.n % alpha_beta(f, k) == 0
        for i in range(1, f.r):
            assert f.n % alpha_beta(f, k, i) == 0


def test_alpha_beta_rejects_bad_input():
    f36 = factorize(36)
    with pytest.raises(ValueError):
        alpha_beta(f36, 2)  # k beyond e_r - 1
    with pytest.raises(ValueError):
        alpha_beta(f36, -1)
    with pytest.raises(ValueError):
        alpha_beta(f36, 0, 2)  # drop may not be the largest prime
    with pytest.raises(ValueError):
        alpha_beta(factorize(8), 0)  # needs two distinct primes


# --- totient inequalities used by the exact-value arguments -------------------


def lemma1_margin(f: Factorization, i: int) -> int:
    """phi(n/p_i) - phi(n / p_r^e_r) * p_r^(e_r - 1), which is never negative."""
    p_r, e_r = f.factors[-1]
    return totient(f.n // f.primes[i - 1]) - totient(f.n // p_r**e_r) * p_r ** (e_r - 1)


def test_smaller_prime_classes_dominate_top_layer():
    # strict inequality except for n = 2^a * 3^b with a >= 2
    for n in range(2, 501):
        f = factorize(n)
        if f.r < 2:
            continue
        exceptional = f.primes == (2, 3) and f.exponents[0] >= 2
        for i in range(1, f.r):
            margin = lemma1_margin(f, i)
            if exceptional:
                assert margin == 0, (n, i)
            else:
                assert margin > 0, (n, i)
