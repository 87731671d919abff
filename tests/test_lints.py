"""Lints on src/pgk: no asserts (in demos/ either), no environment variables,
an element oracle independent of the class route and of number theory, a
class route that imports only the quotient and no numeric library and takes
no modulo, a separation check that calls nothing of the class cut, a witness
check that reads divisibility alone, a package that never loads scipy (nor,
on import, the process pool), n factored in one place per command, each input
rule checked in one place, and an ``__all__`` that matches the package."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import pgk
from pgk import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pgk"


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


def test_element_oracle_stays_literal():
    # its adjacency copies row n - y to row y on the group law alone (-y
    # generates <y>), so it enumerates k*y mod n with numpy and takes no
    # number theory: no math module and no gcd, lcm or isqrt by any route
    path = SRC / "element_oracle.py"
    assert top_level_imports(path) - {"__future__"} == {"numpy"}
    names = {
        getattr(node, k, None)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for k in ("id", "attr", "name", "asname")
    }
    assert not names & {"gcd", "lcm", "isqrt", "math"}


def test_class_route_imports_only_the_quotient():
    # the class cut computes kappa only; the case label is the report's
    imported = pgk_imports("connectivity.py")
    assert imported and all(name.startswith(".quotient.") for name in imported)


def test_the_class_route_takes_no_modulo():
    # the quotient's comparable masks are the one home of divisibility for
    # the class cut, so connectivity.py reads its sinks from them and never
    # tests divisibility itself
    tree = ast.parse((SRC / "connectivity.py").read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    assert not any(isinstance(node, ast.Mod) for node in nodes)
    names = {getattr(node, k, None) for node in nodes for k in ("id", "attr", "value")}
    assert "__mod__" not in names


def test_the_separation_check_shares_no_code_with_the_class_cut():
    # a witness certifies a class-cut answer, so its type and its check live
    # in separators.py, and the check and the witness builder call nothing
    # that separators.py takes from connectivity.py
    tree = ast.parse((SRC / "connectivity.py").read_text(encoding="utf-8"))
    names = {getattr(node, k, None) for node in ast.walk(tree) for k in ("id", "attr", "name")}
    assert not {name for name in names if name and "witness" in name.lower()}
    imported = pgk_imports("separators.py")
    from_cut = {i.rsplit(".", 1)[1] for i in imported if i.startswith(".connectivity.")}
    assert from_cut
    calls = calls_by_definition("separators.py")
    for name in ("witness_problems", "check_disconnects"):
        assert calls[name] and not set(calls[name]) & from_cut, name


def test_the_witness_check_reads_divisibility_alone():
    # the quotient's masks feed the flows, the components and the seed, so
    # the check that certifies their answers tests divisibility itself and
    # never reads a mask or anything built on one
    tree = ast.parse((SRC / "separators.py").read_text(encoding="utf-8"))
    check = next(node for node in tree.body if getattr(node, "name", None) == "witness_problems")
    names = {getattr(node, k, None) for node in ast.walk(check) for k in ("id", "attr")}
    assert not names & {"comparable", "near", "classes", "adjacent", "components_without"}
    assert any(isinstance(node, ast.Mod) for node in ast.walk(check))


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


def loaded_by_a_fresh_import():
    """The top-level packages that ``import pgk, pgk.cli`` loads in a new
    interpreter: what every pgk process pays before it computes anything."""
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
    assert "pgk" in loaded
    return loaded


def test_importing_pgk_and_its_cli_loads_no_scipy():
    assert "scipy" not in loaded_by_a_fresh_import()


def test_importing_pgk_and_its_cli_loads_no_process_pool():
    # only a sweep that starts more than one worker imports concurrent.futures
    assert "concurrent" not in loaded_by_a_fresh_import()


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
