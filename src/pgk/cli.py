"""Command-line front end: per-n reports, separator listings, bulk sweeps.

The commands (kappa, separators, bound, example2310, sweep) and their options
are one table, COMMANDS; parse reads a command line by it and `pgk -h` prints
it. Exit codes: 0 success/agreement, 1 usage error, 2 verification mismatch (a
formula, oracle, or bound check failed -- the falsification signal).
JSON objects carry "schema": "pgk/1"; CSV columns are fixed.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import time
from contextlib import suppress
from copy import copy
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .arith import factorize
from .connectivity import kappa_class
from .element_oracle import MAX_ELEMENT_N, kappa_element_oracle
from .formulas import R3_EXACT, closed_forms, upper_bound_ii
from .quotient import build_quotient
from .separators import (
    ClassSeparator, check_disconnects, enumerate_min_separators, example_2310, optimal_Z,
    witness_problems,
)

SCHEMA = "pgk/1"
CSV_COLUMNS = (
    "n", "r", "case", "kappa_formula", "kappa_computed", "bound_ii", "agreement",
    "n_min_separators", "ms",
)
#: Largest n accepted on the command line: trial division stays near 5e5 steps.
MAX_N = 10**12
#: Largest sweep --max-n: every n up to it is listed before the first row runs.
MAX_SWEEP_N = 10**6


@dataclass(frozen=True)
class Report:
    """One row of verification output for a single n.

    Every field is stored under its pgk/1 key; to_dict adds only the keys
    derived from them, and n_min_separators/min_separators stay null.
    """

    n: int
    factorization: tuple[tuple[int, int], ...]
    case: str
    kappa_computed: int
    kappa_formula: int | None = None
    kappa_element: int | None = None
    bound_ii: int | None = None
    agreement: bool = True
    ms: float = 0.0

    @property
    def r(self) -> int:
        return len(self.factorization)

    @property
    def bound_strict(self) -> bool | None:
        if self.bound_ii is None:
            return None
        return self.kappa_computed < self.bound_ii

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "schema": SCHEMA,
            "bound_strict": self.bound_strict,
            "n_min_separators": None,
            "min_separators": None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def csv_row(self) -> list[str]:
        cells = {"n_min_separators": None, "ms": round(self.ms, 3)}
        return [_csv_cell(cells[c] if c in cells else getattr(self, c)) for c in CSV_COLUMNS]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def build_report(n: int, *, use_element: bool = False) -> Report:
    """Compute everything known about n and package the agreement verdict."""
    start = time.perf_counter()
    g = build_quotient(n)
    c, formula, bound = closed_forms(g.f)
    computed = kappa_class(g).kappa
    element = kappa_element_oracle(n).kappa if use_element else None
    agreement = (
        (formula is None or formula == computed)
        and (element is None or element == computed)
        and (bound is None or computed <= bound)
    )
    ms = (time.perf_counter() - start) * 1000.0
    return Report(
        n=n,
        factorization=g.f.factors,
        case=c.tag,
        kappa_computed=computed,
        kappa_formula=formula,
        kappa_element=element,
        bound_ii=bound,
        agreement=agreement,
        ms=ms,
    )


def _factor_str(factors: Iterable[tuple[int, int]]) -> str:
    parts = [f"{p}^{e}" if e > 1 else f"{p}" for p, e in factors]
    return " * ".join(parts) if parts else "1"


def _print_report(report: Report, out: TextIO) -> None:
    print(f"n = {report.n} = {_factor_str(report.factorization)}", file=out)
    print(f"case: {report.case}", file=out)
    print(f"kappa (computed): {report.kappa_computed}", file=out)
    formula = "none known for this case" if report.kappa_formula is None else report.kappa_formula
    print(f"kappa (formula):  {formula}", file=out)
    if report.kappa_element is not None:
        print(f"kappa (element oracle): {report.kappa_element}", file=out)
    if report.bound_ii is not None:
        if report.kappa_computed < report.bound_ii:
            relation = "< bound, strict"
        elif report.kappa_computed == report.bound_ii:
            relation = "= bound, tight"
        else:
            relation = "> bound, VIOLATED"
        computed = f"computed {report.kappa_computed} {relation}"
        print(f"upper bound: {report.bound_ii} ({computed})", file=out)
    print(f"agreement: {'yes' if report.agreement else 'NO -- MISMATCH'}", file=out)


def _print_json(file: TextIO | None = None, **fields) -> None:
    print(json.dumps({"schema": SCHEMA, **fields}, sort_keys=True), file=file)


def _witness_dict(sep: ClassSeparator) -> dict | None:
    if sep.witness is None:
        return None
    return {part: sorted(getattr(sep.witness, part)) for part in ("removed", "block_a", "block_b")}


class UsageError(ValueError):
    """A command line pgk refuses: parse prints it after the usage and exits 1."""


def _int_in(text: str, low: int, high: float, message: str) -> int:
    value = int(text)
    if not low <= value <= high:
        raise UsageError(message.format(value))
    return value


def _positive_int(text: str) -> int:
    return _int_in(text, 1, MAX_N, "n must be in [1, 10**12], got {}")


def _sweep_max_n(text: str) -> int:
    return _int_in(text, 2, MAX_SWEEP_N, "--max-n must be in [2, 10**6], got {}")


def _oracle_max_n(text: str) -> int:
    message = f"--oracle-max-n must be in [0, {MAX_ELEMENT_N}], got {{}}"
    return _int_in(text, 0, MAX_ELEMENT_N, message)


def _jobs(text: str) -> int:
    return _int_in(text, 1, math.inf, "--jobs must be at least 1, got {}")


def cmd_kappa(args: SimpleNamespace) -> int:
    n = args.n
    use_element = args.method in ("element", "both")
    if use_element and n > MAX_ELEMENT_N:
        print(f"error: n={n} exceeds the element-oracle ceiling {MAX_ELEMENT_N}", file=sys.stderr)
        return 1
    report = build_report(n, use_element=use_element)
    if args.method == "element":
        if report.kappa_element is None:
            raise RuntimeError(f"n={n}: the element oracle did not run")
        report = replace(report, kappa_computed=report.kappa_element)
    if args.json:
        print(report.to_json())
    else:
        _print_report(report, sys.stdout)
    return 0 if report.agreement else 2


def cmd_separators(args: SimpleNamespace) -> int:
    n = args.n
    g = build_quotient(n)
    if g.is_complete:
        kappa, seps = n - 1, []
    elif args.all_min:
        seps = enumerate_min_separators(g)
        kappa = seps[0].weight
    else:
        kappa = kappa_class(g).kappa
        sep = optimal_Z(g)
        if sep.weight > kappa:
            sep = replace(sep, note="heavier than kappa: the layer bound is strict here; "
                          "--all-min lists the minimum separators")
        if args.witness:
            sep = replace(sep, witness=check_disconnects(sep))
        seps = [sep]
    if args.json:
        _print_json(n=n, complete=g.is_complete, kappa=kappa, separators=[{
            "classes": sorted(s.classes), "weight": s.weight, "label": s.label,
            "note": s.note or None, "witness": _witness_dict(s) if args.witness else None,
        } for s in seps])
    elif g.is_complete:
        print(f"complete graph, kappa = {kappa}; no separator exists")
    else:
        print(f"n = {n}, kappa = {kappa}")
        for s in seps:
            line = f"  {s.label or 'separator'}: classes {sorted(s.classes)}, weight {s.weight}"
            if s.note:
                line += f" ({s.note})"
            print(line)
            if args.witness and s.witness is not None:
                print(f"    block A: {sorted(s.witness.block_a)}")
                print(f"    block B: {sorted(s.witness.block_b)}")
    return 0


def cmd_bound(args: SimpleNamespace) -> int:
    n = args.n
    f = factorize(n)
    c, _, bound = closed_forms(f)
    if bound is None:
        evidence = f"{c.tag} (P={c.P}, phi(P)={c.phiP})"
        print(f"error: the upper bound needs 2*phi(P) < P; n={n} is {evidence}", file=sys.stderr)
        return 1
    if args.json:
        _print_json(n=n, case=c.tag, P=c.P, phiP=c.phiP, bound_ii=bound)
    else:
        print(f"n = {n} = {_factor_str(f.factors)}")
        print(f"case: {c.tag} (P = {c.P}, phi(P) = {c.phiP}, 2*phi(P) < P)")
        print(f"kappa <= {bound} = phi(n) + {bound - f.phi}")
        if c.tag == R3_EXACT:
            print("r = 3, so this bound is the exact value")
    return 0


def cmd_example2310(args: SimpleNamespace) -> int:
    sep = example_2310()
    f = sep.g.f
    bound = upper_bound_ii(f)
    ok = (
        sep.weight == f.phi + 150
        and sep.witness is not None
        and not witness_problems(sep.g, sep.witness)
        and sep.witness.block_a == frozenset({30})
        and sep.weight < bound
    )
    if args.json:
        _print_json(
            n=sep.n, classes=sorted(sep.classes), weight=sep.weight, phi_n=f.phi,
            bound_ii=bound, bound_strict=sep.weight < bound, witness=_witness_dict(sep),
            verified=ok,
        )
    else:
        print(f"n = 2310 = {_factor_str(f.factors)}")
        print(f"separator classes: {sorted(sep.classes)}")
        print(f"|X| = {sep.weight} = phi(n) + {sep.weight - f.phi}")
        print(f"upper bound: {bound} = phi(n) + {bound - f.phi}")
        print(f"strictly below the bound: {sep.weight} < {bound}")
        if sep.witness is not None:
            print(f"witness block A: {sorted(sep.witness.block_a)}")
        print(f"verified: {'yes' if ok else 'NO'}")
    return 0 if ok else 2


def _sweep_row(task: tuple[int, int]) -> Report:
    n, oracle_max = task
    return build_report(n, use_element=n <= oracle_max)


def _sweep_rows(tasks: list[tuple[int, int]], jobs: int) -> Iterator[Report]:
    # the fork start method launches every worker at once, so cap them
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel sweep pays for it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_sweep_row, tasks, chunksize=16)
    else:
        yield from map(_sweep_row, tasks)


def cmd_sweep(args: SimpleNamespace) -> int:
    ns = sorted(set(range(2, args.max_n + 1)) | set(args.extra))
    tasks = [(n, args.oracle_max_n) for n in ns]
    start = time.perf_counter()
    cases: dict[str, int] = {}
    mismatches: list[int] = []
    strict: list[int] = []
    oracle_checked = 0
    sink = sys.stdout
    rows = _sweep_rows(tasks, args.jobs)
    try:
        if args.out:  # before any row, so an unwritable --out costs no work
            sink = open(args.out, "w", encoding="utf-8")
        if args.format == "csv":
            print(",".join(CSV_COLUMNS), file=sink)
        for report in rows:
            line = ",".join(report.csv_row()) if args.format == "csv" else report.to_json()
            print(line, file=sink)
            cases[report.case] = cases.get(report.case, 0) + 1
            if not report.agreement:
                mismatches.append(report.n)
            if report.bound_strict:
                strict.append(report.n)
            oracle_checked += report.kappa_element is not None
        if args.out:
            sink.close()
    except OSError as exc:
        if not args.out:
            raise  # a reader closed stdout: entrypoint handles it
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    finally:
        rows.close()  # drops the rows not yet computed
        if sink is not sys.stdout:
            with suppress(OSError):
                sink.close()  # after a failed write it retries the flush, which fails again
    ms_total = round((time.perf_counter() - start) * 1000.0, 1)
    _print_json(sys.stdout if args.out else sys.stderr, summary=True, rows=len(tasks),
                cases=dict(sorted(cases.items())), mismatches=mismatches, bound_strict=strict,
                oracle_checked=oracle_checked, ms_total=ms_total)
    return 2 if mismatches else 0


_JSON = {"--json": (None, False, "print one pgk/1 JSON object")}
#: Every command as (function, help, takes n, long options), every option as
#: (convert, default, help): convert is None for a flag, the allowed values, or
#: a function of the text; a list default repeats, a ... default is required.
COMMANDS = {
    "kappa": (cmd_kappa, "connectivity of P(C_n)", True, {
        "--method": (("class", "element", "both"), "class", "the kappa routes to run"),
        **_JSON}),
    "separators": (cmd_separators, "minimum separators of P(C_n)", True, {
        "--all-min": (None, False, "enumerate every minimum separator"),
        "--witness": (None, False, "include block partitions"),
        **_JSON,
        "--force": (None, False, "no effect; accepted for old command lines")}),
    "bound": (cmd_bound, "upper bound when 2*phi(P) < P", True, _JSON),
    "example2310": (cmd_example2310, "print and verify the n = 2310 certificate", False, _JSON),
    "sweep": (cmd_sweep, "bulk verification over a range of n", False, {
        "--max-n": (_sweep_max_n, ..., "report every n from 2 to this"),
        "--oracle-max-n": (_oracle_max_n, 0, "element oracle too, for n up to this (0 = never)"),
        "--out": (str, None, "write the rows here and the summary to stdout"),
        "--format": (("json", "csv"), "json", "JSON lines or CSV rows"),
        "--jobs": (_jobs, 1, "worker processes, at most one per CPU"),
        "--extra": (_positive_int, [], "an n beyond the range (repeatable)")}),
}
_HELP = ("-h", "--help")
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse reads these as values


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: pgk [-h] {{{','.join(COMMANDS)}}} ..."
    parts = [f"usage: pgk {command} [-h]"]
    for name, (convert, default, _) in COMMANDS[command][3].items():
        if convert is not None:
            metavar = name[2:].upper() if callable(convert) else "{%s}" % ",".join(convert)
            name += " " + metavar
        parts.append(name if default is ... else f"[{name}]")
    return " ".join(parts + ["n"] * COMMANDS[command][2])


def _print_help(command: str | None, name: str, explicit: str | None) -> None:
    if name == "-h" and explicit:  # argparse reads -hh as -h -h
        explicit = explicit.lstrip("h") or None
    if explicit is not None:
        raise UsageError(f"argument -h/--help: ignored explicit argument {explicit!r}")
    lines = [] if command else [_usage(None), "", "Vertex connectivity of the power graph of C_n"]
    for each in [command] if command else COMMANDS:
        _, about, takes_n, options = COMMANDS[each]
        lines += ["", _usage(each), f"  {about}"] + [f"  {'n':<14}  in [1, 10**12]"] * takes_n
        lines += [f"  {name:<14}  {text}" for name, (_, _, text) in options.items()]
    print("\n".join(lines).strip())
    raise SystemExit(0)


def _option(token: str, names: Sequence[str]) -> tuple[str | None, str | None] | None:
    """(name, text after '=') for an option, (None, None) if unknown, None for a value."""
    if not token.startswith("-") or token == "-":
        return None
    head, eq, explicit = token.partition("=")
    if token.startswith("--"):
        matches = [head] if head in names else [name for name in names if name.startswith(head)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], explicit if eq else None
    elif token.startswith("-h"):  # text after -h, as in -hh or -h=x, is its explicit argument
        return "-h", None if token == "-h" else token[2:].removeprefix("=")
    return None if _NEGATIVE_NUMBER.match(token) or " " in token else (None, None)


def _value(name: str, convert: Callable[[str], object] | tuple[str, ...], text: str):
    if isinstance(convert, tuple) and text not in convert:
        choices = ", ".join(map(repr, convert))
        raise UsageError(f"argument {name}: invalid choice: {text!r} (choose from {choices})")
    try:
        return text if isinstance(convert, tuple) else convert(text)
    except UsageError as exc:
        raise UsageError(f"argument {name}: {exc}") from None
    except ValueError:
        raise UsageError(f"argument {name}: invalid {convert.__name__} value: {text!r}") from None


def parse(argv: Sequence[str]) -> SimpleNamespace:
    """The command, its function and every option's value, read by COMMANDS
    as argparse would: `--opt v` or `--opt=v`, a long option cut to a unique
    prefix, options before n, a `--` next to n. -h/--help prints help and
    exits 0; a usage error prints `pgk ...: error: ...` to stderr and exits 1."""
    args, extras = list(argv), []  # extras are an error only after all else
    command, takes_n, options, values, n_at, i = None, False, {}, {}, None, 0
    kinds = [None if token == "--" else _option(token, _HELP) for token in args]
    try:
        while i < len(args):
            token, kind = args[i], kinds[i]
            i += 1
            if kind is None and command is None:
                command = _value("command", tuple(COMMANDS), token)
                func, _, takes_n, options = COMMANDS[command]
                values = {name: copy(default) for name, (_, default, _) in options.items()}
                del kinds[i:]  # argparse reads every token before it acts on any
                names, ended = (*_HELP, *options), False
                for t in args[i:]:
                    kinds.append(None if ended else "--" if t == "--" else _option(t, names))
                    ended = ended or t == "--"
            elif kind is None and takes_n and n_at is None:
                values["n"], n_at = _value("n", _positive_int, token), i - 1
            elif kind == "--" and takes_n and (n_at == i - 2 or n_at is None and i < len(args)):
                continue  # argparse drops a -- right before or after n
            elif kind in (None, "--") or kind[0] is None:
                extras.append(token)
            elif kind[0] in _HELP:
                _print_help(command, *kind)
            elif options[kind[0]][0] is None:
                name, text = kind
                if text is not None:
                    raise UsageError(f"argument {name}: ignored explicit argument {text!r}")
                values[name] = True
            else:
                name, text = kind
                if text is None and (i == len(args) or kinds[i] is not None):
                    raise UsageError(f"argument {name}: expected one argument")
                if text is None:
                    text, i = args[i], i + 1
                value = _value(name, options[name][0], text)
                values[name] = values[name] + [value] if isinstance(values[name], list) else value
        missing = ["command"] * (command is None) + ["n"] * (takes_n and n_at is None)
        missing += [name for name, value in values.items() if value is ...]
        if missing:
            raise UsageError(f"the following arguments are required: {', '.join(missing)}")
        if extras:
            raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    except UsageError as exc:
        prog = "pgk" if command is None else f"pgk {command}"
        print(f"{_usage(command)}\n{prog}: error: {exc}", file=sys.stderr)
        raise SystemExit(1) from None
    fields = {name.lstrip("-").replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(command=command, func=func, **fields)


def main(argv: Sequence[str] | None = None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    return args.func(args)


def entrypoint() -> None:
    try:
        code = main()
    except BrokenPipeError:
        # the reader closed stdout (e.g. `pgk sweep ... | head`): point stdout
        # at devnull so the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
