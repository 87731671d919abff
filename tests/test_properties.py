"""Property tests over random n, and lints on src/pgk: no asserts (in demos/
either), no environment variables, an element oracle independent of the class
route, a class route that imports only the quotient and no numeric library,
a package that never loads scipy, n factored in one place per command, each
input rule checked in one place, and an ``__all__`` that matches the package."""

import ast
import os
import subprocess
import sys
from collections import Counter
from math import prod
from pathlib import Path

import pytest

import pgk
from pgk import cli
from pgk import (
    Factorization,
    QuotientGraph,
    build_quotient,
    build_Z,
    components_without,
    enumerate_min_separators,
    factorize,
    kappa_class,
    min_cut_between,
    size_Z_formula,
    verify_witness,
)
from pgk.connectivity import min_cuts

from test_connectivity import arc_source_rule
from test_formulas import check_against_printed

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pgk"

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
    pairs = g.non_adjacent_pairs()
    u, v = data.draw(st.sampled_from(pairs))
    weight, cut = min_cut_between(g, u, v)
    assert weight == sum(g.weight(d) for d in cut)
    comps = components_without(g, cut)
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
    assert (kappa_class(hand).kappa, min_cuts(hand)) == arc_source_rule(hand)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=3000))
def test_kappa_at_most_the_minimum_degree(n):
    # an element of order d is adjacent to the rest of its class and to every
    # element of a comparable order
    g = build_quotient(n)
    degree = min(
        w - 1 + sum(g.weight(e) for e in g.divisors if g.adjacent(d, e))
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
        assert s.witness is not None and verify_witness(g, s.witness)


def test_no_assert_statements_in_the_package():
    # asserts vanish under python -O, so no check in src/pgk or in a demo may
    # rely on one
    found = [
        f"{path.parent.name}/{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def pgk_imports(name):
    """Every pgk name the module imports, as "<module>.<name>"."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.startswith("pgk")}
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.startswith("pgk"):
                imported |= {f"{module}.{a.name}" for a in node.names}
    return imported


@pytest.mark.parametrize("name", ["formulas.py", "quotient.py", "separators.py", "cli.py"])
def test_phi_and_divisors_come_from_the_factorization_in_hand(name):
    # a Factorization carries phi(n) and every (d, phi(d)), so these modules
    # never factor a number again through totient or divisors
    assert not {i.rsplit(".", 1)[1] for i in pgk_imports(name)} & {"totient", "divisors"}


def calls_by_definition(name):
    """For each top-level function or class of the module, the names it calls
    (plain or as an attribute), with repeats."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    return {
        node.name: Counter(
            call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))
        )
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def test_separators_read_n_from_the_quotient():
    # a separator carries its quotient and the quotient n's factorization, so
    # only example_2310, which starts from a bare n, builds a quotient
    assert "factorize" not in {i.rsplit(".", 1)[1] for i in pgk_imports("separators.py")}
    calls = calls_by_definition("separators.py")
    assert {name for name, called in calls.items() if called["build_quotient"]} == {"example_2310"}
    assert calls["example_2310"]["build_quotient"] == 1


def test_each_command_factors_n_in_one_place():
    # bound needs no quotient and factors n itself; every other command and
    # build_report builds at most one quotient and reads n's factorization there
    calls = calls_by_definition("cli.py")
    assert {name for name, called in calls.items() if called["factorize"]} == {"cmd_bound"}
    assert calls["cmd_bound"]["factorize"] == 1
    commands = [name for name in calls if name.startswith("cmd_")] + ["build_report"]
    assert len(commands) == len(cli.COMMANDS) + 1
    for name in commands:
        assert calls[name]["build_quotient"] <= 1, name


def nodes_by_module(found):
    """For each module of src/pgk with a node for which found(node) holds,
    the number of such nodes."""
    return +Counter(
        {
            path.name: sum(map(found, ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
            for path in SRC.glob("*.py")
        }
    )


def refers_to_is_prime(node):
    return "_is_prime" in (getattr(node, k, None) for k in ("id", "attr", "name"))


def raising(text):
    """A test for raise statements whose message contains text."""

    def found(node):
        return isinstance(node, ast.Raise) and any(
            isinstance(c, ast.Constant) and isinstance(c.value, str) and text in c.value
            for c in ast.walk(node)
        )

    return found


def test_each_input_rule_is_checked_in_one_place():
    # two checks of one rule can drift apart: formulas and separators build a
    # Factorization or call alpha_beta and let it raise, and n >= 1 is
    # checked by Factorization and by the oracle, which may not import it
    assert set(nodes_by_module(refers_to_is_prime)) == {"arith.py"}
    assert nodes_by_module(raising("k must satisfy")) == {"arith.py": 1}
    assert nodes_by_module(raising("n must be a positive integer")) == {
        "arith.py": 1,
        "element_oracle.py": 1,
    }


def test_element_oracle_imports_nothing_of_the_class_route():
    # the oracle cross-checks the class cut, so it may share no graph, flow
    # or divisor code with it: only the result type
    assert pgk_imports("element_oracle.py") == {".connectivity.KappaResult"}


def test_class_route_imports_only_the_quotient():
    # the class cut computes kappa only; the case label is the report's
    imported = pgk_imports("connectivity.py")
    assert imported and all(name.startswith(".quotient.") for name in imported)


def top_level_imports(path):
    """The top-level packages a module of src/pgk imports by absolute name."""
    top = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            top |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top.add(node.module.split(".")[0])
    return top


@pytest.mark.parametrize("name", ["connectivity.py", "quotient.py"])
def test_class_route_imports_no_numeric_library(name):
    # the class flow is its own pure-Python code: it may never borrow the
    # element oracle's numpy arrays, nor scipy, the tests' external solver
    top = top_level_imports(SRC / name)
    assert top and not top & {"numpy", "scipy"}


def test_no_module_imports_scipy():
    # scipy is only the tests' third, external flow implementation
    assert [path.name for path in SRC.glob("*.py") if "scipy" in top_level_imports(path)] == []


def test_importing_pgk_and_its_cli_loads_no_scipy():
    # what every pgk process pays before it computes anything
    code = "import sys, pgk, pgk.cli; print(sorted({m.split('.')[0] for m in sys.modules}))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        timeout=60,
        check=True,
    )
    loaded = ast.literal_eval(proc.stdout)
    assert "pgk" in loaded and "scipy" not in loaded


def test_all_matches_the_package_imports():
    # a deletion must not leave a stale export behind, or `from pgk import *`
    # breaks, and every name the package imports from a submodule is exported
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    bound = {
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for a in node.names
    }
    assert all(hasattr(pgk, name) for name in pgk.__all__)
    assert bound <= set(pgk.__all__), sorted(bound - set(pgk.__all__))


def test_no_environment_variable_is_read_in_the_package():
    # every setting is an argument or an option, so none can hide in the
    # environment (a size knob there would bypass the option checks)
    names = {"environ", "environb", "getenv", "getenvb"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (
            isinstance(node, ast.Attribute)
            and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(a.name in names for a in node.names)
        )
    ]
    assert found == []
