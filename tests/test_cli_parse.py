"""The pgk command line: parse against the argparse parser it replaced, help,
and the process-level entry point.

make_parser and _Parser below are the argparse parser pgk.cli used before its
command table, kept here as the test-only reference: every command line in
CORPUS must exit with the same code on both, and parse to the same values or
fail with the same error message.
"""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pgk import cli
from pgk.cli import (
    COMMANDS,
    UsageError,
    cmd_bound,
    cmd_example2310,
    cmd_kappa,
    cmd_separators,
    cmd_sweep,
    main,
    parse,
)

SRC = Path(__file__).resolve().parents[1] / "src"


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; exit code 2 is reserved for verification mismatches
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _typed(check):
    """check, reporting its UsageError the way argparse reports a type error."""

    def convert(text):
        try:
            return check(text)
        except UsageError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    convert.__name__ = check.__name__
    return convert


_positive_int = _typed(cli._positive_int)
_sweep_max_n = _typed(cli._sweep_max_n)
_oracle_max_n = _typed(cli._oracle_max_n)
_jobs = _typed(cli._jobs)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pgk",
        description="Vertex connectivity of power graphs of cyclic groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_kappa = sub.add_parser("kappa", help="connectivity of P(C_n)")
    p_kappa.add_argument("n", type=_positive_int)
    p_kappa.add_argument(
        "--method", choices=("class", "element", "both"), default="class"
    )
    p_kappa.add_argument("--json", action="store_true")
    p_kappa.set_defaults(func=cmd_kappa)

    p_sep = sub.add_parser("separators", help="minimum separators of P(C_n)")
    p_sep.add_argument("n", type=_positive_int)
    p_sep.add_argument(
        "--all-min", action="store_true", help="enumerate every minimum separator"
    )
    p_sep.add_argument("--witness", action="store_true", help="include block partitions")
    p_sep.add_argument("--json", action="store_true")
    p_sep.add_argument(
        "--force", action="store_true", help="no effect; accepted for old command lines"
    )
    p_sep.set_defaults(func=cmd_separators)

    p_bound = sub.add_parser("bound", help="upper bound when 2*phi(P) < P")
    p_bound.add_argument("n", type=_positive_int)
    p_bound.add_argument("--json", action="store_true")
    p_bound.set_defaults(func=cmd_bound)

    p_ex = sub.add_parser(
        "example2310", help="print and verify the n = 2310 certificate"
    )
    p_ex.add_argument("--json", action="store_true")
    p_ex.set_defaults(func=cmd_example2310)

    p_sweep = sub.add_parser("sweep", help="bulk verification over a range of n")
    p_sweep.add_argument("--max-n", type=_sweep_max_n, required=True)
    p_sweep.add_argument(
        "--oracle-max-n",
        type=_oracle_max_n,
        default=0,
        help="also run the element oracle for n up to this value (0 = never)",
    )
    p_sweep.add_argument("--out", type=str, default=None)
    p_sweep.add_argument("--format", choices=("json", "csv"), default="json")
    p_sweep.add_argument("--jobs", type=_jobs, default=1)
    p_sweep.add_argument(
        "--extra",
        type=_positive_int,
        action="append",
        default=[],
        help="additional n beyond the range (repeatable)",
    )
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


# --- the corpus --------------------------------------------------------------------

HUGE = "7" * 5000  # int() refuses a string this long
VALID = [
    ["kappa", "12"],
    ["kappa", "12", "--method", "both", "--json"],
    ["kappa", "12", "--method=element"],
    ["separators", "36", "--all-min", "--witness", "--json", "--force"],
    ["bound", "2310", "--json"],
    ["example2310", "--json"],
    ["sweep", "--max-n", "10"],
    ["sweep", "--max-n", "10", "--oracle-max-n", "5", "--out", "rows.csv",
     "--format", "csv", "--jobs", "2", "--extra", "2310"],
    ["sweep", "--max-n=10", "--oracle-max-n=5", "--out=rows.csv", "--format=csv",
     "--jobs=2", "--extra=2310"],
]
CORPUS = VALID + [
    # unique prefixes, and an ambiguous one
    ["separators", "36", "--all", "--wit", "--js"],
    ["sweep", "--max", "10"],
    ["sweep", "--max=10", "--ora", "5", "--f", "csv", "--j=2", "--e", "7"],
    ["kappa", "12", "--m", "both", "--j"],
    ["sweep", "--max-n", "10", "--o", "x"],
    ["sweep", "--max-n", "10", "--o=x"],
    ["sweep", "-h", "--o", "x"],
    ["kappa", "12", "--"],
    # repeats, and options before n
    ["sweep", "--max-n", "10", "--extra", "7", "--extra=9", "--extra", "7"],
    ["kappa", "12", "--method", "class", "--method", "both"],
    ["kappa", "--json", "--method", "both", "12"],
    ["separators", "--all-min", "--json", "36"],
    ["bound", "--json", "2310"],
    # missing and extra arguments
    ["kappa"],
    ["kappa", "--json"],
    ["separators", "--all-min"],
    ["kappa", "12", "13"],
    ["bound", "12", "--json", "13"],
    ["example2310", "5"],
    ["sweep", "--max-n", "10", "3"],
    ["sweep"],
    ["sweep", "--jobs", "2"],
    ["kappa", "12", "--method"],
    ["sweep", "--max-n"],
    ["sweep", "--max-n", "--jobs", "2"],
    # values refused
    ["kappa", "12", "--json=x"],
    ["separators", "36", "--all-min="],
    ["kappa", "12", "--method", "bad"],
    ["kappa", "12", "--method="],
    ["sweep", "--max-n", "10", "--format", "xml"],
    ["kappa", "0"],
    ["kappa", str(10**12 + 1)],
    ["kappa", str(10**12)],
    ["kappa", HUGE],
    ["kappa", "twelve"],
    ["kappa", "1.5"],
    ["kappa", "-5"],
    ["kappa", "-x"],
    ["sweep", "--max-n", "10", "--extra", "0"],
    ["sweep", "--max-n", "1"],
    ["sweep", "--max-n", "1000001"],
    ["sweep", "--max-n", "10", "--oracle-max-n", "-1"],
    ["sweep", "--max-n", "10", "--oracle-max-n", "5001"],
    ["sweep", "--max-n", "10", "--jobs", "0"],
    ["sweep", "--max-n", "10", "--jobs", "-1"],
    ["sweep", "--max-n", "10", "--out", "-x"],
    ["sweep", "--max-n", "10", "--out", "-a b"],
    ["sweep", "--max-n", "10", "--out="],
    # int() and argparse both accept these
    ["kappa", " 12 "],
    ["kappa", "1_2"],
    ["kappa", "١٢"],
    # unknown options and commands
    ["kappa", "12", "--force"],
    ["kappa", "12", "--force", "--method", "bad"],
    ["kappa", "12", "-x", "--frob"],
    ["--json", "kappa", "12"],
    ["frob"],
    ["frob", "-h"],
    ["kap", "12"],
    [],
    ["--json"],
    ["-5"],
    # a -- is dropped only next to n
    ["kappa", "--", "12"],
    ["kappa", "--json", "--", "12"],
    ["kappa", "12", "--json", "--"],
    ["kappa", "12", "--", "13"],
    ["kappa", "--", "--json"],
    ["kappa", "--", "12", "--"],
    ["kappa", "--"],
    ["bound", "12", "--", "--json"],
    ["sweep", "--max-n", "10", "--"],
    ["sweep", "--", "--max-n", "10"],
    ["sweep", "--out", "--", "--max-n", "10"],
    ["example2310", "--"],
    ["--", "kappa", "12"],
    # help, its prefixes and its misuse
    ["--he"],
    ["-hh"],
    ["-hx"],
    ["-h="],
    ["-h=h"],
    ["--help=x"],
    ["kappa", "12", "--he"],
    ["kappa", "12", "-hh"],
    ["kappa", "12", "-hhx"],
    ["kappa", "12", "-hh=x"],
    ["kappa", "12", "--help=x"],
    ["kappa", "0", "-h"],
    ["kappa", "12", "13", "-h"],
    ["kappa", "--force", "-h"],
    ["--json", "kappa", "-h"],
    ["kappa", "--", "-h"],
]
# -h and --help in every position of every valid command line
CORPUS += [argv[:i] + [flag] + argv[i:] for argv in VALID for i in range(len(argv) + 1)
           for flag in ("-h", "--help")]


def outcome(parser, argv, capsys):
    """("parsed", every field) or (exit code, the error message, if any)."""
    try:
        ns = parser(argv)
    except SystemExit as exc:
        err = capsys.readouterr().err
        return exc.code, err.rpartition(": error: ")[2]
    capsys.readouterr()
    return "parsed", vars(ns)


def test_parse_matches_the_argparse_reference(capsys):
    reference = make_parser().parse_args
    seen = set()
    for argv in CORPUS:
        want = outcome(reference, argv, capsys)
        assert outcome(parse, argv, capsys) == want, argv
        seen.add(want[0])
    assert seen == {"parsed", 0, 1}


def test_parse_hands_out_fresh_repeatable_lists():
    table_default = COMMANDS["sweep"][3]["--extra"][1]
    first = parse(["sweep", "--max-n", "10"])
    first.extra.append(7)
    assert parse(["sweep", "--max-n", "10"]).extra == [] == table_default


def test_every_usage_error_exits_1_with_one_error_line(capsys):
    for argv in CORPUS:
        try:
            parse(argv)
        except SystemExit as exc:
            captured = capsys.readouterr()
            if exc.code == 0:
                assert captured.out.startswith("usage: pgk") and captured.err == "", argv
            else:
                assert exc.code == 1 and captured.out == "", argv
                usage, error = captured.err.splitlines()[-2:]
                assert usage.startswith("usage: pgk"), argv
                assert error.startswith("pgk") and ": error: " in error, argv
        capsys.readouterr()


def test_main_never_builds_an_argparse_parser(capsys, monkeypatch, tmp_path):
    def refuse(self, *args, **kwargs):
        raise AssertionError("pgk built an argparse parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    for argv in (
        ["kappa", "12", "--json"],
        ["separators", "36", "--all-min"],
        ["bound", "2310"],
        ["example2310", "--json"],
        ["sweep", "--max-n", "10", "--out", str(tmp_path / "rows.json")],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_cli_does_not_import_argparse():
    tree = ast.parse((SRC / "pgk" / "cli.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert "argparse" not in imported


# --- help ---------------------------------------------------------------------------


def help_text(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    return captured.out


def test_help_names_every_command_and_option_in_the_table(capsys):
    for flag in ("-h", "--help"):
        text = help_text(capsys, flag)
        for command, (_, about, _, options) in COMMANDS.items():
            assert f"pgk {command} [-h]" in text and about in text
            assert all(name in text for name in options), command
    for command, (_, about, takes_n, options) in COMMANDS.items():
        lines = help_text(capsys, command, "--help").splitlines()
        assert lines[0].startswith(f"usage: pgk {command} [-h]") and f"  {about}" in lines
        for name, (_, _, text) in options.items():
            (line,) = [line for line in lines if line.split()[:1] == [name]]
            assert line.endswith(f"  {text}")
        assert any(line.split()[:1] == ["n"] for line in lines) == takes_n


def test_separators_force_is_marked_as_having_no_effect(capsys):
    (line,) = [line for line in help_text(capsys, "separators", "-h").splitlines()
               if "--force" in line.split()]
    assert "no effect" in line


# --- the process entry point -----------------------------------------------------------


def run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "pgk.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_module_reads_sys_argv():
    proc = run_module("--help")
    assert proc.returncode == 0 and "pgk sweep [-h]" in proc.stdout
    proc = run_module("kappa", "12", "--json")
    assert proc.returncode == 0 and '"kappa_computed": 6' in proc.stdout


@pytest.mark.parametrize(
    "argv", [["kappa", HUGE], ["sweep", "--max-n", "10", "--jobs", "-1"]]
)
def test_module_refuses_hostile_input_without_traceback(argv):
    proc = run_module(*argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith(f"pgk {argv[0]}: error: argument ")
