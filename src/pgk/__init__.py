"""Vertex connectivity of power graphs of finite cyclic groups.

The power graph of C_n joins two group elements when one is a power of the
other. This package computes its vertex connectivity exactly along two
independent routes (a weighted minimum cut on the divisor-class quotient and
an element-level brute force), evaluates the known closed forms and the upper
bound for the remaining case, constructs explicit minimum separators with
verified disconnection witnesses, and lists every minimum separator from the
tight flows of the class cut.
"""

from .arith import Factorization, alpha_beta, divisors, factorize, totient
from .connectivity import KappaResult, kappa_class
from .element_oracle import element_adjacency, kappa_element_oracle
from .formulas import (
    CASE_I,
    CASE_II_BOUND,
    CASE_III,
    PRIME_POWER,
    R3_EXACT,
    CaseTag,
    classify,
    closed_forms,
    kappa_formula,
    size_Z_formula,
    upper_bound_ii,
)
from .quotient import (
    QuotientGraph,
    build_quotient,
    components_without,
    subgroup_classes,
)
from .separators import (
    ClassSeparator,
    SeparationWitness,
    build_Z,
    check_disconnects,
    enumerate_min_separators,
    example_2310,
    optimal_Z,
    witness_problems,
)

__version__ = "0.1.0"

__all__ = [
    "Factorization",
    "factorize",
    "totient",
    "divisors",
    "alpha_beta",
    "QuotientGraph",
    "build_quotient",
    "subgroup_classes",
    "components_without",
    "KappaResult",
    "kappa_class",
    "kappa_element_oracle",
    "element_adjacency",
    "CaseTag",
    "classify",
    "closed_forms",
    "kappa_formula",
    "size_Z_formula",
    "upper_bound_ii",
    "PRIME_POWER",
    "CASE_I",
    "CASE_II_BOUND",
    "CASE_III",
    "R3_EXACT",
    "ClassSeparator",
    "SeparationWitness",
    "build_Z",
    "optimal_Z",
    "example_2310",
    "check_disconnects",
    "witness_problems",
    "enumerate_min_separators",
    "__version__",
]
