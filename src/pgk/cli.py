"""Command-line front end: per-n reports, separator listings, bulk sweeps.

Subcommands
    kappa N        connectivity of P(C_N): formula vs computation, agreement
    separators N   the optimal layer separator, or every minimum separator
    bound N        the upper bound for the not-exactly-solved case
    example2310    the n = 2310 certificate beating that bound
    sweep          one report row per n over a range, JSON lines or CSV

Exit codes: 0 success/agreement, 1 usage error, 2 verification mismatch (a
formula, oracle, or bound check failed -- the falsification signal).
JSON objects carry "schema": "pgk/1"; CSV columns are fixed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence, TextIO

from .arith import factorize
from .connectivity import kappa_class, verify_witness
from .element_oracle import MAX_ELEMENT_N, kappa_element_oracle
from .formulas import CASE_II_BOUND, R3_EXACT, classify, kappa_formula, upper_bound_ii
from .quotient import build_quotient
from .separators import (
    ClassSeparator,
    check_disconnects,
    enumerate_min_separators,
    example_2310,
    optimal_Z,
)

SCHEMA = "pgk/1"
#: Report case label for n with no closed form (classify's CASE_II_BOUND).
COMPUTED_ONLY = "computed-only"
CSV_COLUMNS = (
    "n",
    "r",
    "case",
    "kappa_formula",
    "kappa_computed",
    "bound_ii",
    "agreement",
    "n_min_separators",
    "ms",
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
        values = {**self.to_dict(), "r": self.r, "ms": round(self.ms, 3)}
        return [_csv_cell(values[column]) for column in CSV_COLUMNS]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def build_report(n: int, *, use_element: bool = False) -> Report:
    """Compute everything known about n and package the agreement verdict."""
    start = time.perf_counter()
    f = factorize(n)
    c = classify(f)
    formula = kappa_formula(f)
    bound = upper_bound_ii(f)
    computed = kappa_class(build_quotient(n)).kappa
    element = kappa_element_oracle(n).kappa if use_element else None
    agreement = (
        (formula is None or formula == computed)
        and (element is None or element == computed)
        and (bound is None or computed <= bound)
    )
    ms = (time.perf_counter() - start) * 1000.0
    return Report(
        n=n,
        factorization=f.factors,
        case=COMPUTED_ONLY if c.tag == CASE_II_BOUND else c.tag,
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
    if report.kappa_formula is not None:
        print(f"kappa (formula):  {report.kappa_formula}", file=out)
    else:
        print("kappa (formula):  none known for this case", file=out)
    if report.kappa_element is not None:
        print(f"kappa (element oracle): {report.kappa_element}", file=out)
    if report.bound_ii is not None:
        if report.kappa_computed < report.bound_ii:
            relation = "< bound, strict"
        elif report.kappa_computed == report.bound_ii:
            relation = "= bound, tight"
        else:
            relation = "> bound, VIOLATED"
        print(
            f"upper bound: {report.bound_ii} "
            f"(computed {report.kappa_computed} {relation})",
            file=out,
        )
    print(f"agreement: {'yes' if report.agreement else 'NO -- MISMATCH'}", file=out)


def _witness_dict(sep: ClassSeparator) -> dict | None:
    if sep.witness is None:
        return None
    return {
        "removed": sorted(sep.witness.removed),
        "block_a": sorted(sep.witness.block_a),
        "block_b": sorted(sep.witness.block_b),
    }


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; exit code 2 is reserved for verification mismatches
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if not 1 <= value <= MAX_N:
        raise argparse.ArgumentTypeError(f"n must be in [1, 10**12], got {value}")
    return value


def _sweep_max_n(text: str) -> int:
    value = int(text)
    if not 2 <= value <= MAX_SWEEP_N:
        raise argparse.ArgumentTypeError(f"--max-n must be in [2, 10**6], got {value}")
    return value


def _oracle_max_n(text: str) -> int:
    value = int(text)
    if not 0 <= value <= MAX_ELEMENT_N:
        raise argparse.ArgumentTypeError(
            f"--oracle-max-n must be in [0, {MAX_ELEMENT_N}], got {value}"
        )
    return value


def _jobs(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"--jobs must be at least 1, got {value}")
    return value


def cmd_kappa(args: argparse.Namespace) -> int:
    n = args.n
    use_element = args.method in ("element", "both")
    if use_element and n > MAX_ELEMENT_N:
        print(
            f"error: n={n} exceeds the element-oracle ceiling {MAX_ELEMENT_N}",
            file=sys.stderr,
        )
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


def cmd_separators(args: argparse.Namespace) -> int:
    n = args.n
    g = build_quotient(n)
    if g.is_complete:
        kappa, seps = n - 1, []
    elif args.all_min:
        seps = enumerate_min_separators(g)
        kappa = seps[0].weight
    else:
        kappa = kappa_class(g).kappa
        sep = optimal_Z(factorize(n))
        if args.witness:
            sep = replace(sep, witness=check_disconnects(sep))
        seps = [sep]
    if args.json:
        payload = {
            "schema": SCHEMA,
            "n": n,
            "complete": g.is_complete,
            "kappa": kappa,
            "separators": [
                {
                    "classes": sorted(s.classes),
                    "weight": s.weight,
                    "label": s.label,
                    "note": s.note or None,
                    "witness": _witness_dict(s) if args.witness else None,
                }
                for s in seps
            ],
        }
        print(json.dumps(payload, sort_keys=True))
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


def cmd_bound(args: argparse.Namespace) -> int:
    n = args.n
    f = factorize(n)
    c = classify(f)
    bound = upper_bound_ii(f)
    if bound is None:
        print(
            f"error: the upper bound needs 2*phi(P) < P; n={n} is {c.tag} "
            f"(P={c.P}, phi(P)={c.phiP})",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(
            json.dumps(
                {
                    "schema": SCHEMA,
                    "n": n,
                    "case": c.tag,
                    "P": c.P,
                    "phiP": c.phiP,
                    "bound_ii": bound,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"n = {n} = {_factor_str(f.factors)}")
        print(f"case: {c.tag} (P = {c.P}, phi(P) = {c.phiP}, 2*phi(P) < P)")
        print(f"kappa <= {bound} = phi(n) + {bound - f.phi}")
        if c.tag == R3_EXACT:
            print("r = 3, so this bound is the exact value")
    return 0


def cmd_example2310(args: argparse.Namespace) -> int:
    sep = example_2310()
    f = factorize(sep.n)
    bound = upper_bound_ii(f)
    g = build_quotient(sep.n)
    ok = (
        sep.weight == f.phi + 150
        and sep.witness is not None
        and verify_witness(g, sep.witness)
        and sep.witness.block_a == frozenset({30})
        and sep.weight < bound
    )
    if args.json:
        print(
            json.dumps(
                {
                    "schema": SCHEMA,
                    "n": sep.n,
                    "classes": sorted(sep.classes),
                    "weight": sep.weight,
                    "phi_n": f.phi,
                    "bound_ii": bound,
                    "bound_strict": sep.weight < bound,
                    "witness": _witness_dict(sep),
                    "verified": ok,
                },
                sort_keys=True,
            )
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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_sweep_row, tasks, chunksize=16)
    else:
        yield from map(_sweep_row, tasks)


def cmd_sweep(args: argparse.Namespace) -> int:
    ns = sorted(set(range(2, args.max_n + 1)) | set(args.extra))
    tasks = [(n, args.oracle_max_n) for n in ns]
    # open the sink first, so an unwritable --out fails before any work
    if args.out:
        try:
            sink = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
        summary_sink = sys.stdout
    else:
        sink = sys.stdout
        summary_sink = sys.stderr
    start = time.perf_counter()
    cases: dict[str, int] = {}
    mismatches: list[int] = []
    strict: list[int] = []
    oracle_checked = 0
    try:
        if args.format == "csv":
            print(",".join(CSV_COLUMNS), file=sink)
        for report in _sweep_rows(tasks, args.jobs):
            line = ",".join(report.csv_row()) if args.format == "csv" else report.to_json()
            print(line, file=sink)
            cases[report.case] = cases.get(report.case, 0) + 1
            if not report.agreement:
                mismatches.append(report.n)
            if report.bound_strict:
                strict.append(report.n)
            oracle_checked += report.kappa_element is not None
    finally:
        if sink is not sys.stdout:
            sink.close()

    summary = {
        "schema": SCHEMA,
        "summary": True,
        "rows": len(tasks),
        "cases": dict(sorted(cases.items())),
        "mismatches": mismatches,
        "bound_strict": strict,
        "oracle_checked": oracle_checked,
        "ms_total": round((time.perf_counter() - start) * 1000.0, 1),
    }
    print(json.dumps(summary, sort_keys=True), file=summary_sink)
    return 2 if mismatches else 0


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


def main(argv: Sequence[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
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
