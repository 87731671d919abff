"""Independent checker for the outputs of pgk.

Nothing here imports pgk. The arithmetic (trial-division factorization,
totient, divisors), the divisor-lattice search and the paper's closed forms
are written afresh, so a fault shared by pgk's two routes cannot also hide
in the check. Every ``check_*`` function returns a list of problems; an
empty list means the output passed.

Closed forms, for n = p_1^e_1 ... p_r^e_r with p_1 < ... < p_r, P the product
of the r - 1 smaller primes and rad(n) = P * p_r:

  r <= 1                       kappa = n - 1
  2 phi(P) >= P (case-i, -iii) kappa = phi(n) + (n / rad(n)) * (P - phi(P))
  2 phi(P) < P, r = 3          kappa = phi(n) + 2^(e_1-1) p_2^(e_2-1)
                                               * ((p_2 - 1) p_3^(e_3-1) + 2)
  2 phi(P) < P, r >= 4         phi(n) + 1 < kappa <= phi(n)
                                 + prod_{i<r} p_i^(e_i-1) * (P + phi(P) (p_r^(e_r-1) - 2))

In the exact cases the minimum separator is unique, except for case-iii
(n = 2^a p^b), which has exactly b of them.
"""

from __future__ import annotations

from functools import lru_cache

#: Connectivity values established in the literature.
LITERATURE = {2310: 630}

CASE_II_TAGS = ("computed-only", "case-ii-bound")


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    """(p, e) pairs of n >= 1 by trial division, ascending in p."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def phi(n: int) -> int:
    result = n
    for p, _ in prime_factors(n):
        result = result // p * (p - 1)
    return result


@lru_cache(maxsize=None)
def divisor_list(n: int) -> tuple[int, ...]:
    ds = [1]
    for p, e in prime_factors(n):
        ds = [d * p**k for k in range(e + 1) for d in ds]
    return tuple(sorted(ds))


def case_of(n: int) -> str:
    f = prime_factors(n)
    if len(f) <= 1:
        return "prime-power"
    P = 1
    for p, _ in f[:-1]:
        P *= p
    gap = 2 * phi(P) - P
    if gap > 0:
        return "case-i"
    if gap == 0:
        return "case-iii"
    return "r3-exact" if len(f) == 3 else "case-ii-bound"


def closed_form(n: int) -> int | None:
    """The paper's exact kappa, or None in case-ii-bound."""
    case = case_of(n)
    f = prime_factors(n)
    if case == "prime-power":
        return n - 1
    if case in ("case-i", "case-iii"):
        rad = 1
        for p, _ in f:
            rad *= p
        P = rad // f[-1][0]
        return phi(n) + (n // rad) * (P - phi(P))
    if case == "r3-exact":
        (_, e1), (p2, e2), (p3, e3) = f
        return phi(n) + 2 ** (e1 - 1) * p2 ** (e2 - 1) * ((p2 - 1) * p3 ** (e3 - 1) + 2)
    return None


def bound_ii(n: int) -> int | None:
    """The paper's upper bound where 2 phi(P) < P, else None."""
    if case_of(n) not in ("r3-exact", "case-ii-bound"):
        return None
    f = prime_factors(n)
    P = B = 1
    for p, e in f[:-1]:
        P *= p
        B *= p ** (e - 1)
    p_r, e_r = f[-1]
    return phi(n) + B * (P + phi(P) * (p_r ** (e_r - 1) - 2))


def separator_count(n: int) -> int | None:
    """Number of minimum separators where the paper fixes it, else None."""
    case = case_of(n)
    if case in ("case-i", "r3-exact"):
        return 1
    if case == "case-iii":
        return prime_factors(n)[-1][1]
    return None


def _comparable(a: int, b: int) -> bool:
    return a % b == 0 or b % a == 0


def min_class_degree(n: int) -> int:
    """Smallest vertex degree of P(C_n): an element of order d is joined to
    every other element whose order divides d or is divided by it."""
    ds = divisor_list(n)
    return min(sum(phi(e) for e in ds if _comparable(d, e)) - 1 for d in ds)


def lattice_disconnected(n: int, removed: set[int]) -> bool:
    """True iff deleting the removed order classes leaves at least two classes
    in at least two components (breadth-first search on divisibility)."""
    left = [d for d in divisor_list(n) if d not in removed]
    if len(left) < 2:
        return False
    seen = {left[0]}
    frontier = [left[0]]
    while frontier:
        nxt = []
        for d in frontier:
            for e in left:
                if e not in seen and _comparable(d, e):
                    seen.add(e)
                    nxt.append(e)
        frontier = nxt
    return len(seen) < len(left)


def check_kappa(n: int, kappa: int) -> list[str]:
    """Problems with kappa as the connectivity of P(C_n)."""
    problems = []
    exact = closed_form(n)
    if exact is not None and kappa != exact:
        problems.append(f"n={n}: kappa {kappa} != closed form {exact}")
    if exact is None:
        low, high = phi(n) + 1, bound_ii(n)
        if not low < kappa <= high:
            problems.append(f"n={n}: kappa {kappa} outside ({low}, {high}]")
        degree = min_class_degree(n)
        if kappa > degree:
            problems.append(f"n={n}: kappa {kappa} > minimum degree {degree}")
    if n in LITERATURE and kappa != LITERATURE[n]:
        problems.append(f"n={n}: kappa {kappa} != literature value {LITERATURE[n]}")
    return problems


def check_row(row: dict) -> list[str]:
    """Problems with one report row, as `pgk kappa --json` prints it."""
    n = row["n"]
    kappa = row["kappa_computed"]
    problems = check_kappa(n, kappa)
    case = case_of(n)
    tag = row["case"]
    if case == "case-ii-bound":
        if tag not in CASE_II_TAGS:
            problems.append(f"n={n}: case {tag!r}, expected one of {CASE_II_TAGS}")
    elif tag != case:
        problems.append(f"n={n}: case {tag!r}, expected {case!r}")
    if row["kappa_formula"] != closed_form(n):
        problems.append(f"n={n}: kappa_formula {row['kappa_formula']!r} != {closed_form(n)}")
    if row["bound_ii"] != bound_ii(n):
        problems.append(f"n={n}: bound_ii {row['bound_ii']!r} != {bound_ii(n)}")
    element = row["kappa_element"]
    if element is not None and element != kappa:
        problems.append(f"n={n}: element oracle {element} != class cut {kappa}")
    if row["agreement"] is not True:
        problems.append(f"n={n}: agreement is {row['agreement']!r}")
    return problems


def check_separators(n: int, kappa: int, separators: list[dict]) -> list[str]:
    """Problems with a list of minimum separators (`pgk separators --json`)."""
    problems = check_kappa(n, kappa)
    expected = separator_count(n)
    if expected is not None and len(separators) != expected:
        problems.append(f"n={n}: {len(separators)} minimum separators, expected {expected}")
    if not separators:
        problems.append(f"n={n}: no minimum separator listed")
    seen = set()
    for sep in separators:
        classes = set(sep["classes"])
        key = tuple(sorted(classes))
        if key in seen:
            problems.append(f"n={n}: separator {list(key)} listed twice")
        seen.add(key)
        if any(n % d for d in classes):
            problems.append(f"n={n}: separator has non-divisors {sorted(classes)}")
            continue
        weight = sum(phi(d) for d in classes)
        if weight != kappa or sep["weight"] != kappa:
            problems.append(f"n={n}: separator weight {weight} (listed {sep['weight']}) != kappa {kappa}")
        if not {1, n} <= classes:
            problems.append(f"n={n}: separator lacks class 1 or n")
        if not lattice_disconnected(n, classes):
            problems.append(f"n={n}: separator {sorted(classes)} does not disconnect")
    return problems
