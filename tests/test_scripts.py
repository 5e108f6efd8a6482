"""Experiment scripts: each runs end to end against the library API."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_run_supply_risk(tmp_path):
    out = tmp_path / "supply_risk.csv"
    correlations = ["0.0", "0.4", "0.8"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_supply_risk.py"),
         "--samples", "2000", "--correlations", *correlations, "--out", str(out)],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    exhaustive = proc.stdout.splitlines()[0]
    assert exhaustive.startswith("exhaustive four-outcome check: incremental variance 2500.0 ")
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["correlation"]) for r in rows] == [float(c) for c in correlations]
    for r in rows:
        assert r["marginal_less_risky"] in ("true", "false")
        assert math.isfinite(float(r["base_incremental"]))
        assert math.isfinite(float(r["marginal_incremental"]))
