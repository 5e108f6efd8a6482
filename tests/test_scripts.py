"""Experiment scripts: each takes its tables from the commands in
``brsim.cli``, so the CLI's flag names, checks, tables and exit codes apply
to it."""

import csv
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from brsim import cli

ROOT = Path(__file__).resolve().parent.parent
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


@pytest.mark.parametrize("args, message", [
    (["--exhaustive", "--correlation", "0,0.4"],
     "--correlation must be 0 with --exhaustive, whose four-outcome law has no correlation; "
     "got 0.4"),
    (["--correlation", "0,2"], "--correlation must be in [-1, 1], got 2.0"),
], ids=["exhaustive_with_correlation", "correlation_out_of_range"])
def test_supply_risk_flags_are_checked_before_the_first_run(monkeypatch, capsys, args, message):
    def run(args):
        raise AssertionError(f"a run started on {args}")

    monkeypatch.setattr(cli, "supply_risk_table", run)
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    monkeypatch.setattr(sys, "argv", ["run_supply_risk.py", *args])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(ROOT / "scripts" / "run_supply_risk.py"), run_name="__main__")
    assert exited.value.code == 2
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


# (script, its command, flags that leave none of the script's defaults in use,
# the table's columns, its row count)
TABLE_SCRIPTS = [
    ("run_demand_curves.py", "demand-curve",
     [DAY24, "--hour", "7", "--alpha", "0.1,0.5", "--points", "4"],
     {"direction", "alpha", "quantity_mw", "marginal_value"}, 2 * 2 * 4),
    ("run_profit_sweep.py", "profit-sweep",
     [DAY24, "--price-ratios", "0,0.2,0.5", "--variance-scales", "0.5,2.0"],
     {"variance_scale", "price_ratio", "expected_profit", "gross_expected_revenue",
      "premium_paid"}, 2 * 3),
]
SCRIPT_IDS = [s[0] for s in TABLE_SCRIPTS]


@pytest.mark.parametrize("script, command, flags, columns, n_rows", TABLE_SCRIPTS, ids=SCRIPT_IDS)
def test_table_script(tmp_path, script, command, flags, columns, n_rows):
    out = tmp_path / "table.csv"
    proc = run_script(script, tmp_path, *flags, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(out)
    assert len(rows) == n_rows
    assert set(rows[0]) == columns
    assert proc.stdout.splitlines()[-1] == f"wrote {out} ({n_rows} rows)"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("script, command, flags, columns, n_rows", TABLE_SCRIPTS, ids=SCRIPT_IDS)
def test_table_script_writes_the_command_table(tmp_path, script, command, flags, columns, n_rows,
                                               fmt):
    want, got = tmp_path / f"command.{fmt}", tmp_path / f"script.{fmt}"
    assert cli.main([command, *flags, "--format", fmt, "--out", str(want)]) == 0
    proc = run_script(script, tmp_path, *flags, "--format", fmt, "--out", str(got))
    assert proc.returncode == 0, proc.stderr
    assert got.read_bytes() == want.read_bytes()


def test_table_to_stdout_comes_before_the_summary(tmp_path, capsys):
    proc = run_script("run_profit_sweep.py", tmp_path, "--out", "/dev/stdout")
    assert proc.returncode == 0, proc.stderr
    assert cli.main(["profit-sweep", DAY24, "--variance-scales", "0.5,1,1.5,2"]) == 0
    table = capsys.readouterr().out
    assert proc.stdout.startswith(table)
    summary = proc.stdout[len(table):]
    assert summary.startswith("DA value of the mean profile: ")
    assert summary.endswith("\nwrote /dev/stdout (44 rows)\n")


# (script, arguments, exit code, the start of the stderr line that reports
# it): the CLI's checks, with the flag or path they name, and the scripts'
# own file errors, reported as the CLI reports them. ``afile`` is a regular
# file, so no directory can be made under it; ``bad.json`` is day24.json
# with a capacity that its schema refuses.
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
    ("run_profit_sweep.py", ["bad.json"], 1,
     "error: bad.json.vg.capacity_mw: must be > 0, got -5.0"),
    ("run_demand_curves.py", ["--out", "afile/x.csv"], 1, "error: [Errno 17] File exists: 'afile'"),
    ("run_profit_sweep.py", ["--out", "afile/x.csv"], 1, "error: [Errno 17] File exists: 'afile'"),
    ("run_supply_risk.py", ["--samples", "2000", "--out", "afile/x.csv"], 1,
     "error: [Errno 17] File exists: 'afile'"),
    ("run_supply_risk.py", ["--samples", "2000", "--out", "."], 1,
     "error: [Errno 21] Is a directory: '.'"),
]


@pytest.mark.parametrize(
    "script, args, code, message", BAD_INPUTS,
    ids=[f"{s}-{'_'.join(a)}" for s, a, _, _ in BAD_INPUTS],
)
def test_bad_input_exits_with_message(tmp_path, script, args, code, message):
    (tmp_path / "afile").write_text("")
    bad = json.loads(Path(DAY24).read_text())
    bad["vg"]["capacity_mw"] = -5
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    proc = run_script(script, tmp_path, *args)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert any(line.startswith(message) for line in proc.stderr.splitlines()), proc.stderr
    assert proc.stdout == ""
    # A failed run leaves no default out/ directory behind.
    assert not (tmp_path / "out").exists()
