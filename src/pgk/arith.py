"""Exact integer arithmetic underlying the divisor-class model.

Plain number theory only: prime-power factorization by trial division, the
alpha/beta ladder the separator constructions use, and the one place where a
factorization becomes divisors and phi values. A Factorization in hand gives
phi(n) and every (d, phi(d)) pair, so no caller factors a divisor of n again.

Python integers never overflow, so there is no wraparound to defend against;
bad inputs are rejected up front instead (every operation requires n >= 1).
All functions are pure and all values immutable, so concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition n = p_1^e_1 * ... * p_r^e_r, p_1 < ... < p_r.

    The factor list is empty exactly when n = 1. Invariants are enforced at
    construction time, so a Factorization in hand is always consistent.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        product = 1
        previous = 1
        for p, e in self.factors:
            if p <= previous:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError(f"exponent of {p} must be >= 1, got {e}")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
            previous = p
            product *= p**e
        if product != self.n:
            raise ValueError(f"factors multiply to {product}, not {self.n}")

    @property
    def r(self) -> int:
        """Number of distinct prime divisors (0 for n = 1)."""
        return len(self.factors)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.factors)

    @property
    def phi(self) -> int:
        """Euler's totient of n, by the product formula over the factors."""
        return prod(p ** (e - 1) * (p - 1) for p, e in self.factors)

    def divisor_classes(self) -> list[tuple[int, int]]:
        """Every divisor d of n with phi(d), the size of its order class, by d.

        phi is multiplicative, so the pairs are built prime by prime: each
        level d * p^k, k = 1..e, multiplies the one below by p and its phi by
        p - 1 for k = 1 and by p after that.
        """
        classes = [(1, 1)]
        for p, e in self.factors:
            level, step = classes, p - 1
            for _ in range(e):
                level = [(d * p, w * step) for d, w in level]
                classes += level
                step = p
        classes.sort()
        return classes


@lru_cache(maxsize=None)
def factorize(n: int) -> Factorization:
    """Factor n >= 1 by deterministic trial division."""
    remaining = n
    factors: list[tuple[int, int]] = []
    p = 2
    while p * p <= remaining:
        if remaining % p == 0:
            e = 0
            while remaining % p == 0:
                remaining //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if remaining > 1:
        factors.append((remaining, 1))
    return Factorization(n, tuple(factors))


def totient(n: int) -> int:
    """Euler's totient: the number of 1 <= k <= n coprime to n."""
    return factorize(n).phi


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    return [d for d, _ in factorize(n).divisor_classes()]


def alpha_beta(f: Factorization, k: int, drop: int | None = None) -> int:
    """The layered separator integers alpha_k and beta_{k,i}.

    alpha_k carries every prime except the largest at full multiplicity and
    the largest prime p_r at exponent k:

        alpha_k = p_1^e_1 * ... * p_{r-1}^e_{r-1} * p_r^k,   0 <= k <= e_r - 1.

    A ``drop`` position i (1-based, among the first r-1 primes) divides one
    copy of p_i out of alpha_k, giving beta_{k,i} = alpha_k / p_i.
    """
    if f.r < 2:
        raise ValueError("alpha/beta require at least two distinct primes")
    e_r = f.exponents[-1]
    if not 0 <= k <= e_r - 1:
        raise ValueError(f"k must satisfy 0 <= k <= {e_r - 1}, got {k}")
    alpha = f.n // f.primes[-1] ** (e_r - k)
    if drop is None:
        return alpha
    if not 1 <= drop <= f.r - 1:
        raise ValueError(f"drop position {drop} out of range 1..{f.r - 1}")
    return alpha // f.primes[drop - 1]
