"""Each output check passes on a real brsim output and rejects the same
output with one deliberate perturbation.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from brsim import cli  # noqa: E402


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def bump(row: dict, key: str, delta: float) -> None:
    row[key] += delta


# --- sweep -----------------------------------------------------------------

SCALES = [0.5, 3.0, 12.0]
RATIOS = [0.0, 0.1, 0.2, 0.35, 0.45]
CELLS = [(12.0, 0.1), (0.5, 0.2)]


@pytest.fixture(scope="module")
def sweep():
    cfg_path = ROOT / workloads.SWEEP_SCENARIO
    text = run_cli(["profit-sweep", str(cfg_path), "--format", "json",
                    "--price-ratios", ",".join(map(str, RATIOS)),
                    "--variance-scales", ",".join(map(str, SCALES))])
    return json.loads(text), json.loads(cfg_path.read_text(encoding="utf-8"))


def sweep_problems(rows, cfg):
    return checks.sweep_problems(rows, cfg, SCALES, RATIOS, CELLS)


def cell(rows, k, r):
    return next(row for row in rows if row["variance_scale"] == k and row["price_ratio"] == r)


def test_sweep_output_passes(sweep):
    rows, cfg = sweep
    assert sweep_problems(rows, cfg) == []


def test_sweep_rejects_missing_cell(sweep):
    rows, cfg = copy.deepcopy(sweep)
    assert "do not cover" in " ".join(sweep_problems(rows[1:], cfg))


def test_sweep_rejects_profit_not_gross_minus_premium(sweep):
    rows, cfg = copy.deepcopy(sweep)
    bump(cell(rows, 3.0, 0.2), "expected_profit", -1.0)
    assert "!= gross - premium" in " ".join(sweep_problems(rows, cfg))


def test_sweep_rejects_profit_rising_with_ratio(sweep):
    rows, cfg = copy.deepcopy(sweep)
    row = cell(rows, 3.0, 0.35)
    gap = cell(rows, 3.0, 0.2)["expected_profit"] - row["expected_profit"]
    bump(row, "expected_profit", gap + 1.0)
    bump(row, "gross_expected_revenue", gap + 1.0)
    assert "profit rises" in " ".join(sweep_problems(rows, cfg))


def test_sweep_rejects_premium_above_penalty_factors(sweep):
    rows, cfg = copy.deepcopy(sweep)
    row = cell(rows, 3.0, 0.45)
    bump(row, "premium_paid", 1.0)
    bump(row, "gross_expected_revenue", 1.0)
    assert "paid at ratio 0.45" in " ".join(sweep_problems(rows, cfg))


@pytest.mark.parametrize("k, r", CELLS)
def test_sweep_rejects_cell_off_recomputation(sweep, k, r):
    rows, cfg = copy.deepcopy(sweep)
    row = cell(rows, k, r)
    delta = -2e-6 * abs(row["expected_profit"])
    bump(row, "expected_profit", delta)
    bump(row, "gross_expected_revenue", delta)
    problems = sweep_problems(rows, cfg)
    assert any("differs from the recomputed" in p for p in problems), problems


# --- risk ------------------------------------------------------------------

RHO, N = 0.5, 200_000


@pytest.fixture(scope="module")
def risk():
    text = run_cli(["supply-risk", "--samples", str(N), "--seed", "3",
                    "--correlation", str(RHO), "--format", "json"])
    return checks.risk_output(text)


@pytest.fixture(scope="module")
def exact():
    return {kind: checks.risk_exact(kind, RHO) for kind in checks.RISK_UNITS}


def by_kind(rows, kind):
    return next(r for r in rows if r["kind"] == kind)


def beyond_tolerance(exact, kind, key):
    """A shift that takes any value within the tolerance outside it."""
    return (2 * checks.RISK_SE + 1) * exact[kind][key + "_se"] / N ** 0.5


def test_risk_output_passes(risk):
    rows, verdict = risk
    assert checks.risk_problems(rows, verdict, RHO, N) == []


def test_risk_exact_base_load_matches_isserlis(exact):
    base = exact["base_load"]
    assert base["expected_delta"] == pytest.approx(-RHO * 50.0, rel=1e-9)
    assert base["incremental_variance"] == pytest.approx(2500.0 * (1 + RHO ** 2), rel=1e-9)
    assert base["variance_without"] == pytest.approx(0.0, abs=1e-9)


def test_risk_rejects_base_load_variance_without(risk):
    rows, verdict = copy.deepcopy(risk)
    bump(by_kind(rows, "base_load"), "variance_without", 50.0)
    bump(by_kind(rows, "base_load"), "variance_with", 50.0)
    assert "is not 0" in " ".join(checks.risk_problems(rows, verdict, RHO, N))


@pytest.mark.parametrize("key", ["expected_delta", "incremental_variance"])
def test_risk_rejects_base_load_off_isserlis(risk, exact, key):
    rows, verdict = copy.deepcopy(risk)
    d = beyond_tolerance(exact, "base_load", key)
    row = by_kind(rows, "base_load")
    bump(row, key, d)
    if key == "incremental_variance":
        bump(row, "variance_with", d)
    else:
        bump(by_kind(rows, "marginal"), key, d)
    problems = checks.risk_problems(rows, verdict, RHO, N)
    assert any(f"base-load {key}" in p for p in problems), problems


def test_risk_rejects_kinds_disagreeing_on_expected_delta(risk):
    rows, verdict = copy.deepcopy(risk)
    bump(by_kind(rows, "marginal"), "expected_delta", 1e-6)
    assert "differs between kinds" in " ".join(checks.risk_problems(rows, verdict, RHO, N))


# Moving one moment, and another with it so that incremental_variance stays
# variance_with - variance_without.
MARGINAL_SHIFTS = {
    "expected_delta": {},
    "variance_without": {"incremental_variance": -1},
    "variance_with": {"incremental_variance": 1},
    "incremental_variance": {"variance_with": 1},
}


@pytest.mark.parametrize("key", sorted(MARGINAL_SHIFTS))
def test_risk_rejects_marginal_moment_off_quadrature(risk, exact, key):
    rows, verdict = copy.deepcopy(risk)
    row = by_kind(rows, "marginal")
    d = beyond_tolerance(exact, "marginal", key)
    bump(row, key, d)
    for other, sign in MARGINAL_SHIFTS[key].items():
        bump(row, other, sign * d)
    problems = checks.risk_problems(rows, verdict, RHO, N)
    assert any(f"marginal {key}" in p for p in problems), problems


def test_risk_rejects_missing_kind(risk):
    rows, verdict = copy.deepcopy(risk)
    assert "one row per kind" in " ".join(checks.risk_problems(rows[:1], verdict, RHO, N))


def test_risk_rejects_incremental_not_difference(risk):
    rows, verdict = copy.deepcopy(risk)
    bump(by_kind(rows, "marginal"), "variance_with", 1.0)
    assert "is not variance_with" in " ".join(checks.risk_problems(rows, verdict, RHO, N))


def test_risk_rejects_flipped_verdict(risk):
    rows, verdict = copy.deepcopy(risk)
    flipped = verdict.replace("true", "x").replace("false", "true").replace("x", "false")
    assert "verdict" in " ".join(checks.risk_problems(rows, flipped, RHO, N))


# --- quarter ---------------------------------------------------------------

@pytest.fixture(scope="module")
def quarter(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("quarter")
    cfg = workloads.quarter_scenario(seed=11, hours=240)
    path = tmp / "scenario.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    run_cli(["simulate-day", str(path), "--out-dir", str(tmp / "out")])
    tables = {t: json.loads((tmp / "out" / f"{t}.json").read_text(encoding="utf-8"))
              for t in ("contracts", "ledger", "totals")}
    return cfg, tables, tmp / "out"


def quarter_problems(cfg, tables):
    return (checks.quarter_problems(cfg, tables["contracts"], tables["ledger"], tables["totals"])
            + checks.quarter_coverage(cfg, tables["contracts"]))


def first(contracts, **where):
    return next(c for c in contracts if all(c[k] == v for k, v in where.items()))


def test_quarter_output_passes(quarter):
    cfg, tables, out = quarter
    assert quarter_problems(cfg, tables) == []
    assert checks.quarter_csv_problems(out, tables) == []


def test_quarter_rejects_csv_missing_rows(quarter, tmp_path):
    _, tables, out = quarter
    for name in tables:
        lines = (out / f"{name}.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        (tmp_path / f"{name}.csv").write_text("".join(lines[:-1] if name == "ledger" else lines),
                                              encoding="utf-8")
    assert "ledger.csv has" in " ".join(checks.quarter_csv_problems(tmp_path, tables))


def test_quarter_rejects_nets_not_summing_to_zero(quarter):
    cfg, tables, _ = copy.deepcopy(quarter)
    bump(tables["totals"][0], "net_cash", 1.0)
    assert "sum to" in " ".join(quarter_problems(cfg, tables))


def test_quarter_rejects_party_total_off_its_ledger(quarter):
    cfg, tables, _ = copy.deepcopy(quarter)
    bump(tables["totals"][1], "net_cash", 1.0)
    bump(tables["totals"][2], "net_cash", -1.0)
    assert "!= ledger sum" in " ".join(quarter_problems(cfg, tables))


def test_quarter_rejects_producer_net_off_settlement_rules(quarter):
    cfg, tables, _ = copy.deepcopy(quarter)
    bump(first(tables["contracts"], status="released"), "premium_price", 0.5)
    assert "producer net" in " ".join(quarter_problems(cfg, tables))


def test_quarter_rejects_cover_beyond_headroom(quarter):
    cfg, tables, _ = copy.deepcopy(quarter)
    c = first(tables["contracts"], seller="n_peak", status="released")
    bump(c, "quantity_mw", 100.0)
    assert "exceeds headroom" in " ".join(quarter_problems(cfg, tables))


def test_quarter_rejects_contract_across_congested_boundary(quarter):
    cfg, tables, _ = copy.deepcopy(quarter)
    first(tables["contracts"], seller="s_hydro")["status"] = "released"
    assert "congested boundary" in " ".join(quarter_problems(cfg, tables))


def test_quarter_rejects_execution_off_deviation(quarter):
    cfg, tables, _ = copy.deepcopy(quarter)
    bump(first(tables["contracts"], status="executed"), "executed_mw", 0.5)
    assert "executed" in " ".join(p for p in quarter_problems(cfg, tables) if "expected" in p)


def test_quarter_rejects_missing_lifecycle_step(quarter):
    cfg, tables, _ = copy.deepcopy(quarter)
    for c in tables["contracts"]:
        c["trimmed_mw"] = 0.0
    assert "no trim" in " ".join(quarter_problems(cfg, tables))


# --- traced run accounting -------------------------------------------------

def test_nesting_accepts_well_formed_spans():
    trace = [("a", 0.0, 10.0, -1), ("b", 1.0, 3.0, 0), ("c", 3.0, 9.0, 0), ("d", 4.0, 5.0, 2)]
    assert spans.check_nesting(trace) == []
    calls, total, self_s = spans.aggregate(trace)
    assert self_s["a"] + total["b"] + total["c"] == pytest.approx(total["a"])
    assert self_s["c"] == pytest.approx(5.0)


@pytest.mark.parametrize("bad, message", [
    (("b", 1.0, 11.0, 0), "leaves its parent"),
    (("b", 2.0, 5.0, 0), "overlaps a sibling"),
])
def test_nesting_rejects_broken_spans(bad, message):
    trace = [("a", 0.0, 10.0, -1), ("c", 1.0, 3.0, 0), bad]
    assert message in " ".join(spans.check_nesting(trace))
