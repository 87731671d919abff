"""Case classification and closed forms for kappa(P(C_n)).

Write n = p_1^e_1 * ... * p_r^e_r with p_1 < ... < p_r, and for r >= 2 put

    P = p_1 * p_2 * ... * p_{r-1}    (all primes except the largest)
    B = p_1^(e_1-1) * ... * p_{r-1}^(e_{r-1}-1).

The sign of 2*phi(P) - P decides how much is known exactly:

  2*phi(P) > P    "case-i"         kappa = phi(n) + B * p_r^(e_r-1) * (P - phi(P))
  2*phi(P) = P    "case-iii"       forces r = 2, p_1 = 2;
                                   kappa = phi(n) + 2^(e_1-1) * p_2^(e_2-1)
  2*phi(P) < P, r = 3  "r3-exact"  forces p_1 = 2;
                                   kappa = phi(n) + 2^(e_1-1) * p_2^(e_2-1)
                                           * ((p_2 - 1) * p_3^(e_3-1) + 2)
  2*phi(P) < P, r >= 4 "case-ii-bound"
                                   only an upper bound is known:
                                   kappa <= phi(n) + B * (P + phi(P) * (p_r^(e_r-1) - 2))

n = 1 and prime powers have a complete power graph ("prime-power",
kappa = n - 1). The exact value and the bound agree whenever e_r = 1, and for
r = 3 the bound collapses algebraically to the r3-exact value. The bound can
be strict: at n = 2310 the true connectivity is phi(n) + 150 while the bound
gives phi(n) + 162.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

from .arith import Factorization, _is_prime, totient


PRIME_POWER = "prime-power"
CASE_I = "case-i"
CASE_II_BOUND = "case-ii-bound"
CASE_III = "case-iii"
R3_EXACT = "r3-exact"


@dataclass(frozen=True)
class CaseTag:
    """Classification of n, with the trichotomy evidence P and phi(P)."""

    tag: str
    P: int
    phiP: int


def classify(f: Factorization) -> CaseTag:
    """Decide which connectivity case n falls in."""
    if f.r <= 1:
        return CaseTag(PRIME_POWER, 1, 1)
    P = prod(f.primes[:-1])
    phiP = totient(P)
    if 2 * phiP > P:
        tag = CASE_I
    elif 2 * phiP == P:
        tag = CASE_III
    elif f.r == 3:
        tag = R3_EXACT
    else:
        tag = CASE_II_BOUND
    return CaseTag(tag, P, phiP)


def _small_prime_part(f: Factorization) -> int:
    """B = product over the first r-1 primes of p_i^(e_i - 1)."""
    return prod(p ** (e - 1) for p, e in f.factors[:-1])


def case_i_expression(f: Factorization) -> int:
    """The exact-value expression phi(n) + B * p_r^(e_r-1) * (P - phi(P)).

    This is kappa whenever 2*phi(P) >= P; evaluating it outside that range is
    allowed (the e_r = 1 coincidence checks need it) but it is then only an
    expression, not the connectivity.
    """
    if f.r < 2:
        raise ValueError("expression requires at least two distinct primes")
    c = classify(f)
    p_r, e_r = f.factors[-1]
    return totient(f.n) + _small_prime_part(f) * p_r ** (e_r - 1) * (c.P - c.phiP)


def kappa_formula(f: Factorization) -> int | None:
    """Exact kappa(P(C_n)) in closed form, or None where only a bound is known.

    Covers prime powers (n - 1), case-i, case-iii and the r = 3 exact case;
    returns None for case-ii-bound with r >= 4.
    """
    c = classify(f)
    if c.tag == PRIME_POWER:
        return f.n - 1
    if c.tag in (CASE_I, CASE_III):
        return case_i_expression(f)
    if c.tag == R3_EXACT:
        (p1, e1), (p2, e2), (p3, e3) = f.factors
        return totient(f.n) + p1 ** (e1 - 1) * p2 ** (e2 - 1) * (
            (p2 - 1) * p3 ** (e3 - 1) + 2
        )
    return None


def upper_bound_ii(f: Factorization) -> int:
    """Upper bound phi(n) + B * (P + phi(P) * (p_r^(e_r-1) - 2)).

    Defined only when r >= 2 and 2*phi(P) < P. Coincides with the case-i
    expression when e_r = 1 and with the r3-exact value when r = 3; strict
    for some larger r (n = 2310 is the classic witness).
    """
    c = classify(f)
    if f.r < 2 or 2 * c.phiP >= c.P:
        raise ValueError(f"bound requires 2*phi(P) < P; n={f.n} is {c.tag}")
    p_r, e_r = f.factors[-1]
    return totient(f.n) + _small_prime_part(f) * (
        c.P + c.phiP * (p_r ** (e_r - 1) - 2)
    )


def corollary_p1_ge_r(f: Factorization) -> int | None:
    """Exact kappa when the smallest prime is at least the number of primes.

    p_1 >= r forces 2*phi(P) >= P (with equality only for r = 2, p_1 = 2), so
    the case-i expression is the connectivity. Returns None when p_1 < r or
    r < 2.
    """
    if f.r < 2 or f.primes[0] < f.r:
        return None
    tag = classify(f).tag
    if tag not in (CASE_I, CASE_III):
        raise RuntimeError(f"p1 >= r must land in an exact case, got {tag} for n={f.n}")
    return case_i_expression(f)


def lemma4_slack(primes: Sequence[int]) -> int:
    """phi(q_1...q_t) - q_1...q_t + sum_k q_1...q_t / q_k for distinct primes.

    Always >= 0, and zero exactly when t = 1.
    """
    if not primes:
        raise ValueError("at least one prime required")
    previous = 1
    for q in primes:
        if q <= previous:
            raise ValueError("primes must be strictly increasing and distinct")
        if not _is_prime(q):
            raise ValueError(f"{q} is not prime")
        previous = q
    m = prod(primes)
    return totient(m) - m + sum(m // q for q in primes)
