"""Case classification and the one closed form, |Z(r, k)|, behind every value.

Write n = p_1^e_1 * ... * p_r^e_r with p_1 < ... < p_r, and for r >= 2 put
P = p_1 * ... * p_{r-1} (every prime but the largest) and
B = p_1^(e_1-1) * ... * p_{r-1}^(e_{r-1}-1). The layer separator Z(r, k) of
separators.build_Z, 0 <= k <= e_r - 1, removes

    |Z(r, k)| = phi(n) + B * (p_r^(e_r-1) * phi(P) + p_r^k * (P - 2*phi(P)))

elements. That is linear in p_r^k, so the best layer is k = e_r - 1 when
2*phi(P) > P and k = 0 otherwise (every k ties at equality). Each exact value
and the bound below is |Z| at that layer; the paper prints them case by case:

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
kappa = n - 1). The bound |Z(r, 0)| equals the case-i expression
|Z(r, e_r - 1)| when e_r = 1 and is exact when r = 3. It can be strict: at
n = 2310 the true connectivity is phi(n) + 150 while the bound gives
phi(n) + 162.

closed_forms gives the case, the exact value and the bound of one n from a
single classification and at most one evaluation of |Z|; kappa_formula and
upper_bound_ii read their value from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .arith import Factorization, alpha_beta


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
    phiP = prod(p - 1 for p, _ in f.factors[:-1])
    if 2 * phiP > P:
        tag = CASE_I
    elif 2 * phiP == P:
        tag = CASE_III
    elif f.r == 3:
        tag = R3_EXACT
    else:
        tag = CASE_II_BOUND
    return CaseTag(tag, P, phiP)


def best_layer(f: Factorization, c: CaseTag) -> int:
    """The k minimizing |Z(r, k)|: e_r - 1 when 2*phi(P) > P, else 0.

    c is classify(f), passed in so the choice costs no second classification.
    Where 2*phi(P) < P, the only case with a bound, the best layer is 0, so an
    exact value there (r3-exact) is the bound itself.
    """
    return f.exponents[-1] - 1 if c.tag == CASE_I else 0


def _size_Z(f: Factorization, c: CaseTag, k: int) -> int:
    p_r, e_r = f.factors[-1]
    B = prod(p ** (e - 1) for p, e in f.factors[:-1])
    return f.phi + B * (p_r ** (e_r - 1) * c.phiP + p_r**k * (c.P - 2 * c.phiP))


def size_Z_formula(f: Factorization, k: int) -> int:
    """|Z(r, k)| by the closed form above; always the weight of build_Z(g, k), g n's quotient."""
    alpha_beta(f, k)  # raises unless r >= 2 and 0 <= k <= e_r - 1
    return _size_Z(f, classify(f), k)


def closed_forms(f: Factorization) -> tuple[CaseTag, int | None, int | None]:
    """classify(f), kappa_formula(f) and upper_bound_ii(f), from one classification.

    |Z| is evaluated at most once: the bound exists only where 2*phi(P) < P,
    and there the best layer is 0, so where both values exist (r3-exact) they
    are the same |Z(r, 0)|.
    """
    c = classify(f)
    if c.tag == PRIME_POWER:
        return c, f.n - 1, None
    size = _size_Z(f, c, best_layer(f, c))
    if c.tag == CASE_II_BOUND:
        return c, None, size
    return c, size, size if c.tag == R3_EXACT else None


def kappa_formula(f: Factorization) -> int | None:
    """Exact kappa(P(C_n)) in closed form, or None where only a bound is known.

    n - 1 for prime powers, None for case-ii-bound with r >= 4, and |Z| at
    the best layer in case-i, case-iii and r3-exact.
    """
    return closed_forms(f)[1]


def upper_bound_ii(f: Factorization) -> int | None:
    """Upper bound |Z(r, 0)| where r >= 2 and 2*phi(P) < P, else None.

    It is the exact value when r = 3, and strict for some larger r (n = 2310
    is the classic witness).
    """
    return closed_forms(f)[2]
