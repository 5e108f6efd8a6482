"""Experiment scripts: each runs end to end through ``brsim.cli.main``, so
the CLI's flag names, checks and exit codes apply to it."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from brsim import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DAY24 = str(ROOT / "scenarios" / "day24.json")


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
        "--samples", "2000", "--correlation", ",".join(correlations), "--out", str(out),
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


def test_verdicts_are_the_cli_verdicts(tmp_path, capsys):
    flags = ["--samples", "2000", "--seed", "5"]
    correlations = ["-0.8", "0", "0.8"]
    verdicts = []
    for rho in correlations:
        assert cli.main(["supply-risk", "--unit-kind", "both", *flags, "--correlation", rho]) == 0
        verdicts.append(capsys.readouterr().out.splitlines()[-1])
    assert {v.split("=")[1] for v in verdicts} == {"true", "false"}
    # The list joined to its flag by "=", or as its own argument though it
    # starts with a minus sign.
    listed = ",".join(correlations)
    for name, correlation in [("equals", [f"--correlation={listed}"]),
                              ("space", ["--correlation", listed])]:
        out = tmp_path / f"{name}.csv"
        proc = run_script("run_supply_risk.py", tmp_path, *flags, *correlation, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert [f"verdict: marginal_less_risky={row['marginal_less_risky']}"
                for row in read_csv(out)] == verdicts, name


def test_supply_risk_tie_is_not_less_risky(tmp_path):
    # The exhaustive enumeration gives both kinds the same incremental
    # variance; the CLI's verdict is a strict "<".
    out = tmp_path / "supply_risk.csv"
    proc = run_script(
        "run_supply_risk.py", tmp_path, "--exhaustive", "--correlation", "0", "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    [row] = read_csv(out)
    assert row["base_incremental"] == row["marginal_incremental"]
    assert row["marginal_less_risky"] == "false"


# (script, arguments, expected columns, expected row count)
TABLE_SCRIPTS = [
    (
        "run_demand_curves.py",
        [DAY24, "--alpha", "0.1,0.5", "--points", "4"],
        {"direction", "alpha", "quantity_mw", "marginal_value"},
        2 * 2 * 4,
    ),
    (
        "run_profit_sweep.py",
        [DAY24, "--price-ratios", "0,0.2,0.5", "--variance-scales", "0.5,2.0"],
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


# (script, default table under out/, golden table): a default run prints
# what the golden ``<script>.stdout`` holds and writes the golden table.
DEFAULT_RUNS = [
    ("run_demand_curves.py", "demand_curves.csv", "demand_curve_day24.csv"),
    ("run_profit_sweep.py", "profit_sweep.csv", "run_profit_sweep.csv"),
    ("run_supply_risk.py", "supply_risk.csv", "run_supply_risk.csv"),
]


@pytest.mark.parametrize("script, table, golden", DEFAULT_RUNS, ids=[r[0] for r in DEFAULT_RUNS])
def test_default_run_matches_golden(tmp_path, script, table, golden):
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{script[:-3]}.stdout").read_text()
    assert (tmp_path / "out" / table).read_bytes() == (GOLDEN / golden).read_bytes()


# (script, arguments, exit code, the start of the stderr line that reports
# it): the CLI's checks, with the flag or path they name, and the scripts'
# own file errors, reported as the CLI reports them. ``afile`` is a regular
# file, so no directory can be made under it.
BAD_INPUTS = [
    ("run_demand_curves.py", ["--hour", "99"], 2, "usage error: --hour 99 "),
    ("run_demand_curves.py", ["--points", "1"], 2, "usage error: --points "),
    ("run_profit_sweep.py", ["--price-ratios", "-1"], 2, "usage error: --price-ratios "),
    ("run_profit_sweep.py", ["--price-ratios", "inf"], 2, "usage error: --price-ratios "),
    ("run_supply_risk.py", ["--samples", "1"], 2, "usage error: --samples "),
    ("run_supply_risk.py", ["--correlation", "2"], 2, "usage error: --correlation "),
    # Every run is exhaustive, which has no correlation.
    ("run_supply_risk.py", ["--exhaustive", "--correlation", "0,0.4"], 2,
     "usage error: --correlation must be 0 with --exhaustive"),
    ("run_demand_curves.py", ["nope.json"], 1,
     "error: [Errno 2] No such file or directory: 'nope.json'"),
    ("run_demand_curves.py", ["--out", "afile/x.csv"], 1, "error: [Errno 17] File exists: 'afile'"),
    ("run_profit_sweep.py", ["--out", "afile/x.csv"], 1, "error: [Errno 17] File exists: 'afile'"),
    ("run_supply_risk.py", ["--samples", "2000", "--out", "afile/x.csv"], 1,
     "error: [Errno 17] File exists: 'afile'"),
    ("run_supply_risk.py", ["--samples", "2000", "--out", "."], 1,
     "error: [Errno 21] Is a directory: '.'"),
    # A table the script cannot read back for its summary.
    ("run_profit_sweep.py", ["--out", "/dev/stdout"], 2, "usage error: --out /dev/stdout "),
]


@pytest.mark.parametrize(
    "script, args, code, message", BAD_INPUTS,
    ids=[f"{s}-{'_'.join(a)}" for s, a, _, _ in BAD_INPUTS],
)
def test_bad_input_exits_with_message(tmp_path, script, args, code, message):
    (tmp_path / "afile").write_text("")
    proc = run_script(script, tmp_path, *args)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert any(line.startswith(message) for line in proc.stderr.splitlines()), proc.stderr
    assert proc.stdout == ""
    # A failed run leaves no default out/ directory behind.
    assert not (tmp_path / "out").exists()
