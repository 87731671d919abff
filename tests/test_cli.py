"""Command-line interface: reports, exit codes, JSON/CSV rows."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pgk.formulas
from pgk import (
    Factorization, QuotientGraph, SeparationWitness, build_quotient, kappa_class, witness_problems,
)
from pgk.cli import CSV_COLUMNS, Report, _sweep_max_n, build_report, main
from pgk.connectivity import _ClassNet

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- kappa ---------------------------------------------------------------------


def test_kappa_json_36(capsys):
    code, out, _ = run(capsys, "kappa", "36", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "pgk/1"
    assert data["n"] == 36
    assert data["case"] == "case-iii"
    assert data["kappa_computed"] == 18
    assert data["kappa_formula"] == 18
    assert data["agreement"] is True


def test_kappa_human_prime_power(capsys):
    code, out, _ = run(capsys, "kappa", "8")
    assert code == 0
    assert "kappa (computed): 7" in out
    assert "prime-power" in out


def test_kappa_2310_reports_strict_bound(capsys):
    code, out, _ = run(capsys, "kappa", "2310", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "case-ii-bound"
    assert data["kappa_computed"] == 630
    assert data["kappa_formula"] is None
    assert data["bound_ii"] == 642
    assert data["bound_strict"] is True


def test_kappa_method_both(capsys):
    code, out, _ = run(capsys, "kappa", "12", "--method", "both", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["kappa_computed"] == 6
    assert data["kappa_element"] == 6


def test_kappa_at_the_largest_tau_below_the_limit(capsys):
    # tau(963761198400) = 6720, the most of any n <= 10**12, and no closed
    # form covers it (r = 9, 2 phi(P) < P): the class cut alone answers, in
    # seconds, and its kappa is the lightest N(d), as Conjecture A predicts
    code, out, _ = run(capsys, "kappa", "963761198400", "--json")
    data = json.loads(out)
    assert (code, data["case"], data["kappa_computed"]) == (0, "case-ii-bound", 175392475200)
    assert data["bound_ii"] > data["kappa_computed"]


def test_kappa_element_runs_above_600(capsys):
    # 601 is prime, so the graph is complete and cheap
    code, out, _ = run(capsys, "kappa", "601", "--method", "element", "--json")
    assert code == 0
    assert json.loads(out)["kappa_computed"] == 600


def test_kappa_force_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kappa", "12", "--method", "element", "--force"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --force" in captured.err


def test_kappa_above_the_oracle_ceiling_exits_1(capsys, monkeypatch):
    def never(n):
        raise AssertionError("no adjacency may be built above the ceiling")

    monkeypatch.setattr("pgk.element_oracle.element_adjacency", never)
    for argv in (
        ["kappa", "5001", "--method", "element"],
        ["kappa", "5001", "--method", "both"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "ceiling 5000" in err


def test_kappa_mismatch_exits_2(capsys, monkeypatch):
    rigged = Report(     # impossible numbers, only to exercise the exit contract
        n=6,
        factorization=((2, 1), (3, 1)),
        case="case-i",
        kappa_computed=3,
        kappa_formula=4,
        agreement=False,
    )
    monkeypatch.setattr("pgk.cli.build_report", lambda *a, **k: rigged)
    code, out, _ = run(capsys, "kappa", "6")
    assert code == 2
    assert "MISMATCH" in out


def test_kappa_above_the_bound_is_reported_violated(capsys, monkeypatch):
    rigged = Report(     # a computed kappa above the case-ii bound: a mismatch
        n=2310,
        factorization=((2, 1), (3, 1), (5, 1), (7, 1), (11, 1)),
        case="case-ii-bound",
        kappa_computed=700,
        bound_ii=642,
        agreement=False,
    )
    monkeypatch.setattr("pgk.cli.build_report", lambda *a, **k: rigged)
    code, out, _ = run(capsys, "kappa", "2310")
    assert code == 2
    assert "upper bound: 642 (computed 700 > bound, VIOLATED)" in out.splitlines()


def test_huge_n_is_refused_at_parse_time(capsys, monkeypatch):
    def never(n):
        raise AssertionError("factorize must not run")

    monkeypatch.setattr("pgk.cli.factorize", never)
    monkeypatch.setattr("pgk.cli.build_quotient", never)
    for argv in (
        ["kappa", "100000000000000000039"],
        ["separators", str(10**12 + 1)],
        ["bound", str(10**12 + 1)],
        ["sweep", "--max-n", "10", "--extra", str(10**12 + 1)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "10**12" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kappa", "0"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["kappa", "not-a-number"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    capsys.readouterr()


# --- separators ------------------------------------------------------------------


def test_separators_all_min_36(capsys):
    code, out, _ = run(capsys, "separators", "36", "--all-min", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["kappa"] == 18
    assert [s["classes"] for s in data["separators"]] == [
        [1, 2, 3, 6, 36],
        [1, 2, 12, 36],
    ]
    assert all(s["weight"] == 18 for s in data["separators"])


def test_separators_all_min_15(capsys):
    code, out, _ = run(capsys, "separators", "15", "--all-min", "--json")
    assert code == 0
    data = json.loads(out)
    assert [s["classes"] for s in data["separators"]] == [[1, 15]]


def test_separators_complete_graph(capsys):
    code, out, _ = run(capsys, "separators", "9")
    assert code == 0
    assert "complete graph, kappa = 8" in out


def test_separators_witness_blocks(capsys):
    code, out, _ = run(capsys, "separators", "36", "--witness", "--json")
    assert code == 0
    data = json.loads(out)
    (sep,) = data["separators"]
    assert sep["witness"]["block_a"] == [4]
    assert sep["witness"]["block_b"] == [3, 6, 9, 18]


STRICT_NOTE = (
    "heavier than kappa: the layer bound is strict here; --all-min lists the minimum separators"
)


@pytest.mark.parametrize("n, kappa, weight", [(2310, 630, 642), (1050, 318, 350)])
def test_separators_says_when_the_layer_set_is_not_minimum(capsys, n, kappa, weight):
    # where the case-ii bound is strict the best layer set still separates,
    # but it is heavier than kappa, and the listing must not pass it off as
    # a minimum separator
    code, out, _ = run(capsys, "separators", str(n))
    assert code == 0
    assert out.splitlines()[0] == f"n = {n}, kappa = {kappa}"
    assert out.splitlines()[1].endswith(f"weight {weight} ({STRICT_NOTE})")
    code, out, _ = run(capsys, "separators", str(n), "--json")
    (sep,) = json.loads(out)["separators"]
    assert (code, sep["weight"], sep["note"]) == (0, weight, STRICT_NOTE)


def test_separators_notes_exactly_the_strict_layer_sets(capsys):
    # the note marks every n <= 5000 whose listed layer set weighs more than
    # kappa, and no other n changes
    noted = []
    for n in range(2, 5001):
        code, out, _ = run(capsys, "separators", str(n), "--json")
        data = json.loads(out)
        for sep in data["separators"]:
            strict = sep["weight"] > data["kappa"]
            assert (code, strict) == (0, sep["note"] == STRICT_NOTE), n
            noted += [n] * strict
    assert noted == [1050, 2100, 2310, 3150, 3234, 3822, 4200, 4290, 4620]


def test_separators_all_min_past_old_guard(capsys):
    # tau(1680) = 40; --force is accepted and changes nothing
    code, out, _ = run(capsys, "separators", "1680", "--all-min", "--witness", "--json")
    assert code == 0
    code, forced, _ = run(
        capsys, "separators", "1680", "--all-min", "--witness", "--json", "--force"
    )
    assert code == 0 and forced == out
    data = json.loads(out)
    g = build_quotient(1680)
    assert data["separators"]
    for sep in data["separators"]:
        assert sep["weight"] == data["kappa"]
        witness = SeparationWitness(
            *(frozenset(sep["witness"][k]) for k in ("removed", "block_a", "block_b"))
        )
        assert sorted(witness.removed) == sep["classes"]
        assert witness_problems(g, witness) == []


@pytest.mark.parametrize("n", [36, 1944, 2310])
def test_separators_all_min_runs_the_flows_once(capsys, monkeypatch, n):
    # --all-min takes kappa from its own flows; it runs no second pass
    calls = []
    flow = _ClassNet.flow

    def counted(self, *args, **kwargs):
        calls.append(args)
        return flow(self, *args, **kwargs)

    monkeypatch.setattr(_ClassNet, "flow", counted)
    kappa_class(build_quotient(n))
    alone = len(calls)
    calls.clear()
    assert run(capsys, "separators", str(n), "--all-min", "--json")[0] == 0
    assert len(calls) == alone > 0


ONE_N_COMMANDS = [
    "separators 1944 --all-min --json",
    "separators 2040 --all-min --witness --json",
    "example2310 --json",
    "separators 150 --witness",
    "separators 2310",
    "kappa 2310 --json",
    "bound 2310 --json",
    "kappa 210 --json --method both",
]


@pytest.mark.parametrize("argv", ONE_N_COMMANDS)
def test_each_command_factors_n_once(capsys, factorize_calls, argv):
    # every divisor and phi value comes from n's one Factorization, so the
    # only factorize call is that of n itself, memo hit or not
    assert run(capsys, *argv.split())[0] == 0
    assert len(factorize_calls) == 1


@pytest.fixture
def derived(monkeypatch):
    """Calls of formulas.classify and of formulas._size_Z, the |Z| evaluation
    behind every closed form, counted where the closed forms look them up."""
    counts = {"classify": 0, "size_Z": 0}
    classify, size_Z = pgk.formulas.classify, pgk.formulas._size_Z

    def counted_classify(f):
        counts["classify"] += 1
        return classify(f)

    def counted_size_Z(f, c, k):
        counts["size_Z"] += 1
        return size_Z(f, c, k)

    monkeypatch.setattr(pgk.formulas, "classify", counted_classify)
    monkeypatch.setattr(pgk.formulas, "_size_Z", counted_size_Z)
    return counts


def test_each_report_classifies_n_once(derived):
    # the label, the exact value and the bound all come from one closed_forms
    # call; where both values exist they are the same |Z(r, 0)|
    for n in [*range(2, 301), 2310, 720720]:
        derived.update(classify=0, size_Z=0)
        build_report(n)
        assert derived["classify"] == 1 and derived["size_Z"] <= 1, (n, derived)


@pytest.fixture
def built(monkeypatch):
    """Calls of Factorization.divisor_classes and QuotientGraph.__init__ from
    any module, counted on the classes, so that no memo can hide a call."""
    counts = {"expansions": 0, "quotients": 0}
    expand, init = Factorization.divisor_classes, QuotientGraph.__init__

    def counted_expand(self):
        counts["expansions"] += 1
        return expand(self)

    def counted_init(self, *args, **kwargs):
        counts["quotients"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Factorization, "divisor_classes", counted_expand)
    monkeypatch.setattr(QuotientGraph, "__init__", counted_init)
    return counts


@pytest.mark.parametrize("argv", ONE_N_COMMANDS)
def test_each_command_builds_at_most_one_quotient(capsys, built, argv):
    # the quotient carries n's factorization and each separator its quotient,
    # so no layer expands n's divisors or builds the quotient a second time;
    # bound needs no divisor at all
    assert run(capsys, *argv.split())[0] == 0
    once = 0 if argv.startswith("bound") else 1
    assert built == {"expansions": once, "quotients": once}


def test_sweep_builds_one_quotient_per_row(capsys, built):
    assert run(capsys, "sweep", "--max-n", "50")[0] == 0
    assert built == {"expansions": 49, "quotients": 49}


# --- bound and the 2310 certificate ----------------------------------------------


def test_bound_2310(capsys):
    code, out, _ = run(capsys, "bound", "2310", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["bound_ii"] == 642
    assert data["P"] == 210 and data["phiP"] == 48


def test_bound_wrong_case_exits_1(capsys):
    # upper_bound_ii returns None here; the command still names the case
    for n, evidence in [
        (45, "case-i (P=3, phi(P)=2)"),
        (36, "case-iii (P=2, phi(P)=1)"),
        (8, "prime-power (P=1, phi(P)=1)"),
        (1, "prime-power (P=1, phi(P)=1)"),
    ]:
        for argv in (["bound", str(n)], ["bound", str(n), "--json"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert err == f"error: the upper bound needs 2*phi(P) < P; n={n} is {evidence}\n"


def test_example2310(capsys):
    code, out, _ = run(capsys, "example2310")
    assert code == 0
    assert "|X| = 630 = phi(n) + 150" in out
    assert "630 < 642" in out
    assert "block A: [30]" in out
    code, out, _ = run(capsys, "example2310", "--json")
    data = json.loads(out)
    assert data["verified"] is True and data["weight"] == 630


# --- sweep ------------------------------------------------------------------------


def test_sweep_small_range_with_oracle(capsys):
    code, out, err = run(capsys, "sweep", "--max-n", "30", "--oracle-max-n", "30")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["n"] for r in rows] == list(range(2, 31))
    assert all(r["agreement"] for r in rows)
    assert all(r["kappa_element"] == r["kappa_computed"] for r in rows)
    summary = json.loads(err)
    assert summary["rows"] == 29
    assert summary["mismatches"] == []
    assert summary["oracle_checked"] == 29


def test_sweep_csv_to_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys, "sweep", "--max-n", "10", "--format", "csv", "--out", str(target)
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["rows"] == 9
    with open(target, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 10
    by_n = {int(r[0]): r for r in rows[1:]}
    assert by_n[8][CSV_COLUMNS.index("kappa_computed")] == "7"
    assert by_n[6][CSV_COLUMNS.index("case")] == "case-iii"
    assert by_n[10][CSV_COLUMNS.index("case")] == "case-iii"


def test_sweep_extra_flags_2310(capsys):
    code, out, err = run(capsys, "sweep", "--max-n", "10", "--extra", "2310")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[-1]["n"] == 2310
    assert rows[-1]["bound_strict"] is True
    summary = json.loads(err)
    assert summary["bound_strict"] == [2310]


def test_sweep_parallel_matches_serial(capsys):
    code, serial_out, _ = run(capsys, "sweep", "--max-n", "40")
    assert code == 0
    code, parallel_out, _ = run(capsys, "sweep", "--max-n", "40", "--jobs", "2")
    assert code == 0

    def strip_ms(text):
        rows = [json.loads(line) for line in text.strip().splitlines()]
        for row in rows:
            row.pop("ms")
        return rows

    assert strip_ms(serial_out) == strip_ms(parallel_out)


def test_sweep_jobs_capped(capsys, monkeypatch):
    seen = []

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    monkeypatch.setattr("pgk.cli.os.cpu_count", lambda: 4)
    assert run(capsys, "sweep", "--max-n", "20", "--jobs", "100000")[0] == 0
    assert run(capsys, "sweep", "--max-n", "3", "--jobs", "100000")[0] == 0
    monkeypatch.setattr("pgk.cli.os.cpu_count", lambda: None)
    assert run(capsys, "sweep", "--max-n", "20", "--jobs", "100000")[0] == 0
    assert seen == [4, 2]  # 19 tasks on 4 CPUs; 2 tasks; no CPU count runs serially


def test_sweep_bad_range(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("no row may be computed")

    monkeypatch.setattr("pgk.cli.build_report", never)
    for value in ("1", "1000001"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--max-n", value])
        assert exc.value.code == 1
        assert "--max-n must be in [2, 10**6]" in capsys.readouterr().err
    assert _sweep_max_n("1000000") == 10**6


def test_sweep_oracle_max_n_is_bounded_by_the_ceiling(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("no row may be computed")

    monkeypatch.setattr("pgk.cli.build_report", never)
    for value in ("-1", "5001"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--max-n", "10", "--oracle-max-n", value])
        assert exc.value.code == 1
        assert "--oracle-max-n must be in [0, 5000]" in capsys.readouterr().err


def test_sweep_jobs_below_1_is_a_usage_error(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("no row may be computed")

    monkeypatch.setattr("pgk.cli.build_report", never)
    for value in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--max-n", "5", "--jobs", value])
        assert exc.value.code == 1
        assert f"--jobs must be at least 1, got {value}" in capsys.readouterr().err


def test_sweep_streams_rows(capsys, monkeypatch):
    # each row is printed as soon as it is computed, not after the last one
    def stop_at_5(n, **kwargs):
        if n == 5:
            raise RuntimeError("stop")
        return build_report(n, **kwargs)

    monkeypatch.setattr("pgk.cli.build_report", stop_at_5)
    with pytest.raises(RuntimeError, match="stop"):
        main(["sweep", "--max-n", "10"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["n"] for row in rows] == [2, 3, 4]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_into_a_closed_pipe_exits_1_without_traceback(jobs):
    # `pgk sweep ... | head -1`: the reader leaves after one line
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pgk.cli", "sweep", "--max-n", "400", "--jobs", jobs],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
    err = proc.stderr.read().decode()
    assert code == 1
    assert "Traceback" not in err, err


def test_sweep_unwritable_out(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("pgk.cli.build_report", lambda *a, **k: calls.append(a))
    target = tmp_path / "missing" / "rows.json"
    code, _, err = run(capsys, "sweep", "--max-n", "600", "--out", str(target))
    assert code == 1
    assert "cannot write" in err
    assert calls == []  # fails before computing any row


DEV_FULL = "/dev/full"  # every write to it fails with ENOSPC
needs_dev_full = pytest.mark.skipif(not os.path.exists(DEV_FULL), reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_out_on_a_full_device_is_one_error_line(capsys, jobs):
    # three short rows fit the buffer, so the write fails only on close
    code, out, err = run(capsys, "sweep", "--max-n", "3", "--jobs", jobs, "--out", DEV_FULL)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write {DEV_FULL}: ")


@needs_dev_full
def test_sweep_out_on_a_full_device_stops_computing(capsys, monkeypatch):
    computed = []
    real = build_report
    monkeypatch.setattr("pgk.cli.build_report", lambda n, **k: computed.append(n) or real(n, **k))
    code, _, err = run(capsys, "sweep", "--max-n", "2000", "--out", DEV_FULL)
    assert code == 1 and "cannot write" in err
    assert 0 < len(computed) < 1999  # the first full buffer ends the sweep


@needs_dev_full
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_out_on_a_full_device_exits_1_without_traceback(jobs):
    argv = ["sweep", "--max-n", "3", "--jobs", jobs, "--out", DEV_FULL]
    proc = subprocess.run(
        [sys.executable, "-m", "pgk.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr.startswith(f"error: cannot write {DEV_FULL}: ")


# --- report plumbing ----------------------------------------------------------------


def test_build_report_fields():
    report = build_report(36, use_element=True)
    assert report.kappa_formula == report.kappa_computed == report.kappa_element == 18
    assert report.bound_ii is None
    assert report.agreement and report.r == 2
    assert report.ms >= 0


def test_build_report_case_labels():
    # the report labels the case from classify; the kappa routes carry no case
    labels = {n: build_report(n).case for n in (8, 36, 45, 150, 2310)}
    assert labels == {
        8: "prime-power",
        36: "case-iii",
        45: "case-i",
        150: "r3-exact",
        2310: "case-ii-bound",
    }


def test_report_csv_row_shapes():
    report = build_report(150)
    row = report.csv_row()
    assert len(row) == len(CSV_COLUMNS)
    assert row[CSV_COLUMNS.index("kappa_formula")] == "52"
    assert row[CSV_COLUMNS.index("agreement")] == "true"


def test_sweep_csv_cells_match_json_values(capsys):
    argv = ("sweep", "--max-n", "60", "--extra", "2310")
    code, json_out, _ = run(capsys, *argv)
    assert code == 0
    code, csv_out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0

    def as_cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    rows = list(csv.DictReader(io.StringIO(csv_out)))
    objects = [json.loads(line) for line in json_out.strip().splitlines()]
    assert [int(row["n"]) for row in rows] == [obj["n"] for obj in objects]
    assert [obj["n"] for obj in objects] == list(range(2, 61)) + [2310]
    for row, obj in zip(rows, objects):
        assert row["r"] == str(len(obj["factorization"])), obj["n"]
        for column in CSV_COLUMNS:
            if column not in ("r", "ms"):
                assert row[column] == as_cell(obj[column]), (obj["n"], column)
