"""Experiment scripts: each runs end to end against the library API."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, tmp_path, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )


def read_csv(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_supply_risk(tmp_path):
    out = tmp_path / "supply_risk.csv"
    correlations = ["0.0", "0.4", "0.8"]
    proc = run_script(
        "run_supply_risk.py", tmp_path,
        "--samples", "2000", "--correlations", *correlations, "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    exhaustive = proc.stdout.splitlines()[0]
    assert exhaustive.startswith("exhaustive four-outcome check: incremental variance 2500.0 ")
    rows = read_csv(out)
    assert [float(r["correlation"]) for r in rows] == [float(c) for c in correlations]
    for r in rows:
        assert r["marginal_less_risky"] in ("true", "false")
        assert math.isfinite(float(r["base_incremental"]))
        assert math.isfinite(float(r["marginal_incremental"]))


# (script, arguments, expected columns, expected row count)
TABLE_SCRIPTS = [
    (
        "run_demand_curves.py",
        ["--alphas", "0.1", "0.5", "--points", "4"],
        {"direction", "alpha", "quantity_mw", "marginal_value"},
        2 * 2 * 4,
    ),
    (
        "run_profit_sweep.py",
        ["--ratios", "0", "0.2", "0.5", "--scales", "0.5", "2.0"],
        {"variance_scale", "price_ratio", "expected_profit",
         "gross_expected_revenue", "premium_paid"},
        2 * 3,
    ),
]


@pytest.mark.parametrize(
    "script, args, columns, n_rows", TABLE_SCRIPTS, ids=[s[0] for s in TABLE_SCRIPTS]
)
def test_table_script(tmp_path, script, args, columns, n_rows):
    out = tmp_path / "table.csv"
    proc = run_script(script, tmp_path, *args, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(out)
    assert len(rows) == n_rows
    assert set(rows[0]) == columns
    assert proc.stdout.splitlines()[-1] == f"wrote {out} ({n_rows} rows)"
