"""The experiment script run_supply_risk.py: it takes its tables from
``brsim supply-risk`` in ``brsim.cli``, so the CLI's flag names, checks,
tables and exit codes apply to it."""

import csv
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from brsim import cli

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


# (script, arguments, exit code, the start of the stderr line that reports
# it): the CLI's checks, with the flag they name, and the script's own file
# errors, reported as the CLI reports them. ``afile`` is a regular file, so
# no directory can be made under it.
BAD_INPUTS = [
    ("run_supply_risk.py", ["--samples", "1"], 2, "usage error: --samples "),
    ("run_supply_risk.py", ["--correlation", "2"], 2, "usage error: --correlation "),
    # Every run is exhaustive, which has no correlation.
    ("run_supply_risk.py", ["--exhaustive", "--correlation", "0,0.4"], 2,
     "usage error: --correlation must be 0 with --exhaustive"),
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
    proc = run_script(script, tmp_path, *args)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert any(line.startswith(message) for line in proc.stderr.splitlines()), proc.stderr
    assert proc.stdout == ""
    # A failed run leaves no default out/ directory behind.
    assert not (tmp_path / "out").exists()
