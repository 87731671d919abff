"""Tests of the benchmark itself: the checker rejects wrong answers, forked
repetitions share no state, and traced call counts repeat.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import itertools
import math

import pytest

import checker
import run
from harness import ChildFailed, Tracer, run_forked

run.import_pgk()


def _brute_min_separators(n: int) -> tuple[int, list[set[int]]]:
    """Minimum weight and all minimum class sets that disconnect the lattice,
    by trying every set of classes."""
    ds = checker.divisor_list(n)
    best, found = None, []
    for size in range(len(ds) + 1):
        for combo in itertools.combinations(ds, size):
            removed = set(combo)
            if not checker.lattice_disconnected(n, removed):
                continue
            weight = sum(checker.phi(d) for d in removed)
            if best is None or weight < best:
                best, found = weight, [removed]
            elif weight == best:
                found.append(removed)
    return best, found


def test_arithmetic_matches_brute_force():
    for n in range(1, 400):
        ds = checker.divisor_list(n)
        assert list(ds) == [d for d in range(1, n + 1) if n % d == 0]
        assert checker.phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(n, k) == 1)
        product = 1
        for p, e in checker.prime_factors(n):
            assert all(p % q for q in range(2, p))
            product *= p**e
        assert product == n


def test_min_class_degree_matches_element_graph():
    for n in (6, 12, 30, 36, 60):
        degrees = []
        for x in range(n):
            powers_x = {k * x % n for k in range(n)}
            degrees.append(sum(
                1 for y in range(n)
                if y != x and (y in powers_x or x in {k * y % n for k in range(n)})
            ))
        assert checker.min_class_degree(n) == min(degrees)


@pytest.mark.parametrize("n", [6, 12, 18, 20, 24, 30, 36, 40, 45, 48, 60, 72, 90, 96, 100])
def test_closed_forms_and_counts_match_exhaustive_search(n):
    kappa, separators = _brute_min_separators(n)
    if checker.case_of(n) == "case-ii-bound":
        assert checker.check_kappa(n, kappa) == []
    else:
        assert kappa == checker.closed_form(n)
        assert len(separators) == checker.separator_count(n)
    seps = [{"classes": sorted(s), "weight": kappa} for s in separators]
    assert checker.check_separators(n, kappa, seps) == []


def test_case_ii_bound_strict_at_2310():
    assert checker.case_of(2310) == "case-ii-bound"
    assert checker.bound_ii(2310) == 642
    assert checker.check_kappa(2310, 630) == []
    assert checker.check_kappa(2310, 642)  # within the bound, but not the literature value
    assert checker.check_kappa(210, checker.phi(210) + 1)  # at or below phi(n) + 1
    assert checker.check_kappa(210, checker.bound_ii(210) + 1)  # above the bound


@pytest.mark.parametrize("n", [12, 36, 150, 1800, 31104, 165375])
def test_check_kappa_rejects_off_by_one(n):
    exact = checker.closed_form(n)
    assert checker.check_kappa(n, exact) == []
    assert checker.check_kappa(n, exact + 1)
    assert checker.check_kappa(n, exact - 1)


def test_check_kappa_rejects_more_than_the_minimum_degree(monkeypatch):
    # no known case-ii n has its bound above its minimum degree, so lower the degree
    assert checker.check_kappa(2310, 630) == []
    monkeypatch.setattr(checker, "min_class_degree", lambda n: 629)
    assert any("minimum degree" in p for p in checker.check_kappa(2310, 630))


def _good_row(n: int) -> dict:
    kappa = checker.LITERATURE.get(n, checker.closed_form(n))
    case = checker.case_of(n)
    return {
        "n": n,
        "case": "computed-only" if case == "case-ii-bound" else case,
        "kappa_computed": kappa,
        "kappa_formula": checker.closed_form(n),
        "bound_ii": checker.bound_ii(n),
        "kappa_element": kappa,
        "agreement": True,
    }


@pytest.mark.parametrize("field, value", [
    ("kappa_computed", 19),
    ("kappa_element", 17),
    ("kappa_formula", 19),
    ("bound_ii", 18),
    ("case", "case-i"),
    ("agreement", False),
])
def test_check_row_rejects_each_wrong_field(field, value):
    row = _good_row(36)
    assert checker.check_row(row) == []
    assert checker.check_row(dict(row, **{field: value}))


def test_check_separators_rejects_wrong_answers():
    n = 36  # case-iii, n = 2^2 3^2: exactly two minimum separators
    kappa, separators = _brute_min_separators(n)
    good = [{"classes": sorted(s), "weight": kappa} for s in separators]
    assert checker.check_separators(n, kappa, good) == []
    assert checker.check_separators(n, kappa, good[:1])  # wrong count
    assert checker.check_separators(n, kappa, good + good[:1])  # listed twice
    assert checker.check_separators(n, kappa + 1, good)  # wrong kappa and weights
    extra = next(d for d in checker.divisor_list(n) if d not in good[0]["classes"])
    heavier = dict(good[0], classes=good[0]["classes"] + [extra])
    assert checker.check_separators(n, kappa, [heavier, good[1]])  # weight != kappa
    ds = checker.divisor_list(n)
    connected = next(
        set(c) | {1, n}
        for size in range(len(ds))
        for c in itertools.combinations(ds[1:-1], size)
        if sum(checker.phi(d) for d in set(c) | {1, n}) == kappa
        and not checker.lattice_disconnected(n, set(c) | {1, n})
    )
    assert checker.check_separators(n, kappa, [{"classes": sorted(connected), "weight": kappa}, good[1]])


def _sweep_csv(rows: list[list[str]]) -> str:
    header = "n,r,case,kappa_formula,kappa_computed,bound_ii,agreement,n_min_separators,ms"
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


def test_check_sweep_rejects_wrong_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SWEEP_CSV", tmp_path / "rows.csv")
    monkeypatch.setattr(run, "SWEEP_MAX_N", 4)
    summary = {"stdout": '{"rows": 4, "mismatches": []}'}
    good = [
        ["2", "1", "prime-power", "1", "1", "", "true", "", "0.1"],
        ["3", "1", "prime-power", "2", "2", "", "true", "", "0.1"],
        ["4", "1", "prime-power", "3", "3", "", "true", "", "0.1"],
        ["36", "2", "case-iii", "18", "18", "", "true", "", "0.2"],
    ]

    def problems(rows, result=summary):
        run.SWEEP_CSV.write_text(_sweep_csv(rows))
        return run._check_sweep(36, result)

    assert problems(good) == []
    assert not run.SWEEP_CSV.exists()  # consumed, so the next repetition must write its own
    assert run._check_sweep(36, summary)  # no CSV at all
    assert problems(good[:2] + good[3:])  # a row missing
    assert problems(good[:3] + [good[3][:5]])  # a row cut short
    assert problems([good[0], good[1], good[2], good[3][:4] + ["19"] + good[3][5:]])  # kappa + 1
    assert problems([good[0], good[1], good[2], good[3][:6] + ["false"] + good[3][7:]])
    assert problems(good, {"stdout": '{"rows": 4, "mismatches": [36]}'})


def test_rows_are_timed_and_times_are_scaled(tmp_path):
    argv = ["sweep", "--max-n", "10", "--format", "csv", "--out", str(tmp_path / "x.csv")]
    result, _ = run_forked(run._run_cli, argv, False, True)
    assert result["exit"] == 0
    assert len(result["row_seconds"]) == 9
    assert 0 < sum(result["row_seconds"]) < result["seconds"]
    assert result["ref_seconds"] > 0
    assert run.scaled(2.0, 2 * run.REF_S) == pytest.approx(1.0)


def _memo_probe(n: int) -> dict:
    from pgk import arith

    before = arith.factorize.cache_info().currsize
    arith.factorize(n)
    return {"before": before, "after": arith.factorize.cache_info().currsize}


def test_memo_filled_in_one_repetition_is_not_seen_by_the_next():
    from pgk import arith

    first, _ = run_forked(_memo_probe, 5040)
    second, _ = run_forked(_memo_probe, 5040)
    assert first == second == {"before": 0, "after": 1}
    # the parent never filled it either
    assert arith.factorize.cache_info().currsize == 0


def _boom() -> None:
    raise RuntimeError("boom")


def test_child_exception_is_a_failed_operation():
    with pytest.raises(ChildFailed, match="boom"):
        run_forked(_boom)


def test_traced_call_counts_repeat_and_self_times_add_up():
    argv = ["separators", "36", "--all-min", "--json"]
    first, _ = run_forked(run._run_cli, argv, True)
    second, _ = run_forked(run._run_cli, argv, True)
    assert first["trace"]["calls"] == second["trace"]["calls"]
    assert first["trace"]["calls"]["cli.main"] == 1
    assert first["trace"]["calls"]["separators.enumerate_min_separators"] == 1
    total_self = sum(first["trace"]["self_s"].values())
    main_span = next(s for s in first["spans"] if s[0] == "cli.main")
    assert total_self == pytest.approx(main_span[2] - main_span[1], rel=1e-6)
    assert 0 < first["trace"]["splits"] <= first["trace"]["calls"]["quotient.components_without"]


def test_tracer_sees_calls_made_through_any_module():
    def probe() -> dict:
        tracer = Tracer()
        tracer.install()
        from pgk import arith, quotient

        arith.totient(12)  # calls factorize inside arith
        quotient.build_quotient(12)  # calls divisors and totient from quotient
        return tracer.summary()["calls"]

    calls, _ = run_forked(probe)
    assert calls["arith.totient"] == 1 + 6
    assert calls["arith.divisors"] == 1
    assert calls["quotient.build_quotient"] == 1
    assert calls["arith.factorize"] >= 8


def test_inputs_follow_the_seed_and_keep_the_make_up():
    for name, workload in run.WORKLOADS.items():
        assert run.draw_inputs(workload, 0) == [slot[0] for slot in workload.slots]
        for seed in range(1, 30):
            drawn = run.draw_inputs(workload, seed)
            assert drawn == run.draw_inputs(workload, seed)
            for n, slot in zip(drawn, workload.slots):
                assert n in slot
        for slot in workload.slots:
            assert len({checker.case_of(n) for n in slot}) == 1, (name, slot)
