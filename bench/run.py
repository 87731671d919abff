"""Benchmark for pgk: times the CLI and public functions from outside.

    python3 bench/run.py --workload hard --seed 0 --seconds 22 --trace 0

Run from the root of a checkout; pgk is imported from ``src/`` there. Each
run sets up, then repeats whole rounds of its workload's operations for
about ``--seconds`` seconds, every repetition in a fresh forked child (see
``harness``), and checks every output with the independent ``checker``.
Every time is reported in reference seconds: the measured time scaled by
``REF_S`` over the time ``harness.reference_loop`` took in the same process
next to it, so that the shared machine's changing speed cancels out. The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones). A record of the run, with its metadata, goes to
``bench/out/``. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# pinned before numpy or scipy can be imported, here or in any child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import io
import json
import platform
import random
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checker
from harness import SPLIT_NAME, TRACED_NAMES, ChildFailed, Tracer, reference_loop, run_forked

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

SETUP_RUNS = 5

#: The reference loop's time at the speed all reported times are scaled to, a
#: round figure within its range on the 2-CPU machine of bench/README.md.
REF_S = 0.025

#: The sweep writes its CSV rows here; the parent reads them back to check them.
SWEEP_CSV = OUT / "sweep-rows.csv"
SWEEP_MAX_N = 200

_SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import pgk, numpy, scipy; "
    "t = time.monotonic(); sys.exit(3) if not pgk.__file__.startswith(sys.argv[1]) else None; "
    "sys.path.insert(0, sys.argv[2]); from harness import reference_loop; "
    "print(t, reference_loop())"
)


# ---------------------------------------------------------------- workloads
#
# A workload is a tuple of slots. Seed 0 takes the first n of every slot,
# which are the documented inputs; any other seed draws one n per slot with
# random.Random(seed). The n in one slot share the case and, within a few, the
# number of divisors (tau); their cost measured today agrees within about 8 %.
# So a run on another seed does the same kind and amount of work on other
# inputs. Within a workload the slots' costs are spread out, so the median
# operation is the same slot on every seed.

@dataclass(frozen=True)
class Workload:
    slots: tuple[tuple[int, ...], ...]
    argv: Callable[[int], list[str]]  # the pgk command line for one n
    check: Callable[[int, dict], list[str]]  # problems with the result for one n
    rows: bool = False  # op_ms_p50 is the median row cli.build_report makes, not the median operation


def _separators_argv(n: int) -> list[str]:
    force = ["--force"] if len(checker.divisor_list(n)) > 24 else []
    return ["separators", str(n), "--all-min", "--json", *force]


def _check_row_json(n: int, result: dict) -> list[str]:
    row = json.loads(result["stdout"])
    problems = checker.check_row(row)
    if row["n"] != n or [tuple(pe) for pe in row["factorization"]] != list(checker.prime_factors(n)):
        problems.append(f"n={n}: row is for n={row['n']} = {row['factorization']}")
    return problems


def _check_oracle(n: int, result: dict) -> list[str]:
    problems = _check_row_json(n, result)
    if json.loads(result["stdout"]).get("kappa_element") is None:
        problems.append(f"n={n}: no element-oracle value")
    return problems


def _check_separators(n: int, result: dict) -> list[str]:
    payload = json.loads(result["stdout"])
    return checker.check_separators(n, payload["kappa"], payload["separators"])


def _sweep_argv(extra: int) -> list[str]:
    return ["sweep", "--max-n", str(SWEEP_MAX_N), "--format", "csv", "--jobs", "1",
            "--out", str(SWEEP_CSV), "--extra", str(extra)]


_CHECKED_ROWS: dict[tuple[str, ...], list[str]] = {}
_SWEEP_HEADER = ["n", "r", "case", "kappa_formula", "kappa_computed", "bound_ii",
                 "agreement", "n_min_separators", "ms"]


def _optional_int(cell: str) -> int | None:
    return None if cell == "" else int(cell)


def _check_csv_row(cells: tuple[str, ...]) -> list[str]:
    """Problems with one sweep CSV row; rows repeat between repetitions, so
    each distinct row (the ms column aside) is checked once."""
    if cells not in _CHECKED_ROWS:
        n, r, case, formula, computed, bound, agreement, n_seps = cells
        row = {"n": int(n), "case": case, "kappa_formula": _optional_int(formula),
               "kappa_computed": int(computed), "bound_ii": _optional_int(bound),
               "kappa_element": None, "agreement": {"true": True}.get(agreement, agreement)}
        problems = checker.check_row(row)
        if int(r) != len(checker.prime_factors(int(n))):
            problems.append(f"n={n}: r={r}")
        if n_seps != "":
            problems.append(f"n={n}: separators counted without being asked for")
        _CHECKED_ROWS[cells] = problems
    return _CHECKED_ROWS[cells]


def _check_sweep(extra: int, result: dict) -> list[str]:
    if not SWEEP_CSV.is_file():
        return [f"sweep wrote no {SWEEP_CSV.name}"]
    lines = SWEEP_CSV.read_text().splitlines()
    SWEEP_CSV.unlink()  # so a later repetition cannot pass on this one's rows
    expected = sorted(set(range(2, SWEEP_MAX_N + 1)) | {extra})
    if lines[0].split(",") != _SWEEP_HEADER:
        return [f"sweep CSV header {lines[0]!r}"]
    rows = [tuple(line.split(",")) for line in lines[1:]]
    if any(len(cells) != len(_SWEEP_HEADER) for cells in rows):
        return ["sweep CSV row with a wrong number of cells"]
    if [int(cells[0]) for cells in rows] != expected:
        return [f"sweep rows are not n = 2..{SWEEP_MAX_N} and {extra}"]
    problems = [p for cells in rows for p in _check_csv_row(cells[:-1])]
    summary = json.loads(result["stdout"])
    if summary["rows"] != len(expected) or summary["mismatches"]:
        problems.append(f"sweep summary {summary}")
    return problems


WORKLOADS = {
    # every n from 2 to 200 and one tau-24 n beyond: per-row overhead and the class cut
    "sweep": Workload(
        slots=((660, 420, 780, 1020, 1140),),  # case-ii-bound, tau 24
        argv=_sweep_argv,
        check=_check_sweep,
        rows=True,
    ),
    # tau 24 to 36 in every case: the class-cut pair loop does nearly all the work
    "hard": Workload(
        slots=(
            (4725, 7425),  # case-i, tau 24
            (420, 660, 780, 1020, 1140),  # case-ii-bound, tau 24
            (2592, 3888),  # case-iii, tau 30: the median operation
            (840, 1320),  # case-ii-bound, tau 32
            (1800, 3528),  # r3-exact, tau 36
        ),
        argv=lambda n: ["kappa", str(n), "--json"],
        check=_check_row_json,
    ),
    # the element oracle beside the class cut, n below the default guard of 600
    "oracle": Workload(
        slots=(
            (255, 297),  # case-i, tau 8
            (250, 232, 248),  # case-iii, tau 8
            (210,),  # case-ii-bound, tau 16: the median operation
            (306, 294),  # r3-exact, tau 12
            (270, 280),  # r3-exact, tau 16
        ),
        argv=lambda n: ["kappa", str(n), "--json", "--method", "both"],
        check=_check_oracle,
    ),
    # kappa, then every minimum separator by the subset search
    "enumerate": Workload(
        slots=(
            (7425, 8775),  # case-i, tau 24: one separator
            (1350, 672, 1400),  # r3-exact, tau 24: one separator
            (1944,),  # case-iii, tau 24, e_2 = 5 separators: the median operation
            (1296, 864),  # case-iii, tau 24-25
            (2040, 2760),  # case-ii-bound, tau 32, with --force
        ),
        argv=_separators_argv,
        check=_check_separators,
    ),
}


def draw_inputs(workload: Workload, seed: int) -> list[int]:
    if seed == 0:
        return [slot[0] for slot in workload.slots]
    rng = random.Random(seed)
    return [rng.choice(slot) for slot in workload.slots]


# ------------------------------------------------------- in the forked child

def _run_cli(argv: list[str], trace: bool, time_rows: bool = False) -> dict:
    """One timed pgk CLI call, after the reference loop; runs in a forked
    child. With time_rows, each cli.build_report call is timed as well."""
    from pgk import cli

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    row_seconds: list[float] = []
    if time_rows:
        build_report = cli.build_report

        def timed_build_report(*args, **kwargs):
            row_start = time.perf_counter()
            report = build_report(*args, **kwargs)
            row_seconds.append(time.perf_counter() - row_start)
            return report

        cli.build_report = timed_build_report
    ref_seconds = reference_loop()
    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    result = {"seconds": seconds, "ref_seconds": ref_seconds, "row_seconds": row_seconds,
              "exit": code, "stdout": buf.getvalue()}
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["spans"] = tracer.spans
    return result


# ------------------------------------------------------------- in the parent

def scaled(seconds: float, ref_seconds: float) -> float:
    """A measured time in reference seconds."""
    return seconds * REF_S / ref_seconds


def measure_setup() -> tuple[list[float], list[float]]:
    """Times, in fresh interpreters, from start until pgk, numpy and scipy
    are imported, and the reference loop's time in each, run right after."""
    times, refs = [], []
    for _ in range(SETUP_RUNS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(ROOT / "bench")],
            capture_output=True, text=True, check=True, timeout=60,
        )
        end, ref = map(float, done.stdout.split())
        times.append(end - start)
        refs.append(ref)
    return times, refs


def import_pgk():
    """Import pgk from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import pgk

    if not Path(pgk.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"pgk was imported from {pgk.__file__}, not from {SRC}")
    return pgk, numpy, scipy


def git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    pgk, numpy, scipy = import_pgk()
    setup_times, setup_refs = measure_setup()
    setup_s = statistics.median(map(scaled, setup_times, setup_refs))
    workload = WORKLOADS[name]
    ns = draw_inputs(workload, seed)
    ops = [(workload.argv(n), n) for n in ns]
    OUT.mkdir(parents=True, exist_ok=True)

    reps: list[list[dict]] = [[] for _ in ops]  # the successful repetitions of each operation
    problems: list[str] = []
    attempted = failed = rounds = 0
    peak_rss = 0.0
    start = time.monotonic()
    while True:  # whole rounds only, so every run attempts each operation equally often
        for (argv, n), done in zip(ops, reps):
            attempted += 1
            try:
                result, rss = run_forked(_run_cli, argv, trace, workload.rows)
            except ChildFailed as exc:
                failed += 1
                print(f"operation {argv} failed: {exc}", file=sys.stderr)
                continue
            peak_rss = max(peak_rss, rss)
            if result["exit"] != 0:
                problems.append(f"{argv} exited {result['exit']}")
            else:
                problems += workload.check(n, result)
            del result["stdout"]
            if workload.rows and done and len(result["row_seconds"]) != len(done[0]["row_seconds"]):
                problems.append(f"{argv}: row count differs between repetitions")
            if trace and done:
                if result["trace"]["calls"] != done[0]["trace"]["calls"]:
                    problems.append(f"{argv}: call counts differ between repetitions")
                del result["spans"]
            done.append(result)
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / rounds > seconds:
            break

    reps = [done for done in reps if done]
    # each operation's time is its median over repetitions
    op_s = [statistics.median(scaled(r["seconds"], r["ref_seconds"]) for r in done) for done in reps]
    wall_s = sum(op_s)
    if workload.rows:  # the median row of each repetition, then the median over repetitions
        op_s = [scaled(statistics.median(r["row_seconds"]), r["ref_seconds"]) for done in reps for r in done]
    if trace:
        metrics = layer_metrics(reps)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_ms_p50": {"value": 1000.0 * statistics.median(op_s), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs": ns,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "wall_s": wall_s,
        "rep_seconds": [[r["seconds"] for r in done] for done in reps],
        "rep_ref_seconds": [[r["ref_seconds"] for r in done] for done in reps],
        "ref_s": REF_S,
        "rep_median_row_seconds": [
            [statistics.median(r["row_seconds"]) for r in done] for done in reps
        ] if workload.rows else None,
        "setup_times": setup_times,
        "setup_refs": setup_refs,
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pgk": pgk.__version__,
        "metrics": metrics,
    }
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:  # each operation's first repetition, as [name, start, end, parent index]
        spans = [{"argv": argv, "spans": done[0]["spans"]} for (argv, _), done in zip(ops, reps)]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    for problem in problems[:20]:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print(
        f"{name} seed={seed} inputs={ns} rounds={rounds} wall_s={wall_s:.4f} "
        f"git_rev={record['git_rev']} nproc={record['nproc']}",
        file=sys.stderr,
    )
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def layer_metrics(reps: list[list[dict]]) -> dict:
    """Per-layer calls and self seconds summed over the operations, each
    operation's self seconds the median over its repetitions, and the share of
    component searches that split the quotient. Counts repeat exactly between
    repetitions (the run checks it), so they are the first repetition's."""
    metrics = {}
    for name in TRACED_NAMES:
        calls = sum(done[0]["trace"]["calls"][name] for done in reps)
        self_s = sum(
            statistics.median(scaled(r["trace"]["self_s"][name], r["ref_seconds"]) for r in done)
            for done in reps
        )
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    searches = sum(done[0]["trace"]["calls"][SPLIT_NAME] for done in reps)
    splits = sum(done[0]["trace"]["splits"] for done in reps)
    metrics[f"{SPLIT_NAME}.split_ratio"] = {
        "value": splits / searches if searches else 0.0,
        "unit": "ratio",
    }
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, subprocess.CalledProcessError) as exc:
        print(f"error: cannot set up pgk from {SRC}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
