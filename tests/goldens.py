"""The goldens under tests/golden: the one list of the runs that produce them,
and the one runner that checks them, under Tier-1 (test_goldens.py) and as
``python tests/goldens.py``. A ``brsim`` run goes through ``cli.main`` in
process, a script through a subprocess against the same ``brsim`` package. A
run must exit 0, and each pinned output must equal its golden byte for byte,
except ``WITHIN_1E12``'s. A failure names the golden and the produced file,
with the first differing line, old and new: to regenerate a golden by hand,
copy that file over it.
"""

import contextlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import brsim
from brsim import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# Compared as JSON rows within a relative 1e-12: the scalar implementation that
# wrote them summed hours in another order, and found roots where betaincinv
# now inverts, so the last bits of their full-precision values may move.
WITHIN_1E12 = {"profit_sweep_day24.json", "profit_sweep_day24_wide.json"}


class Run(NamedTuple):
    name: str
    argv: str  # brsim or a script; a scenarios/ argument names a file in the repo
    # The golden that the --out file, or else stdout, must equal; or a dict
    # golden -> "stdout", or a file that the run writes under its directory.
    pins: str | dict
    patch: dict | None = None  # merged into the scenario, one level deep

    def outputs(self):
        """``pins`` as a dict golden -> output."""
        if isinstance(self.pins, dict):
            return self.pins
        argv = self.argv.split()
        return {self.pins: argv[argv.index("--out") + 1] if "--out" in argv else "stdout"}


DAY = "scenarios/day24.json"
CURVE = f"brsim demand-curve {DAY} --hour 12 --alpha 0.1,0.3 --alpha 0.5 --points 41"
OPTIMAL, PRICES = f"brsim optimal {DAY} --hour 7", "--down-price 1.5 --up-price 2"
ABSOLUTE = {"brs_price": {"mode": "absolute", "down": 1.5, "up": 2}}  # PRICES, in day24
SWEEP = f"brsim profit-sweep {DAY}"
# The wide grid reaches the variance floor and sub-1 Beta shapes.
WIDE = f"{SWEEP} --variance-scales 0.1,0.5,1,2,5.7,15 --price-ratios 0,0.013,0.05,0.1,0.2,0.33,0.5"
# 300,000 draws span 19 chunks of the drawing.
SAMPLED = "--samples 300000 --seed 7 --correlation 0.4"
RISK = "brsim supply-risk"
BOTH = f"{RISK} --unit-kind both {SAMPLED}"
DRAWN = "supply_risk_samples300000_seed7"
TABLES = [f"{name}.{fmt}" for name in ("contracts", "ledger", "totals") for fmt in ("csv", "json")]

RUNS = [
    Run("curve-csv", f"{CURVE} --format csv", "demand_curve_day24.csv"),
    Run("curve-json", f"{CURVE} --format json", "demand_curve_day24.json"),
    Run("curve-out-csv", f"{CURVE} --out o", "demand_curve_day24.csv"),
    Run("curve-out-json", f"{CURVE} --format json --out o", "demand_curve_day24.json"),
    Run("optimal-csv", f"{OPTIMAL} --format csv", "optimal_day24_hour7.csv"),
    Run("optimal-json", f"{OPTIMAL} --format json", "optimal_day24_hour7.json"),
    Run("optimal-out-csv", f"{OPTIMAL} --out new/dir/o", "optimal_day24_hour7.csv"),
    Run("optimal-out-json", f"{OPTIMAL} --format json --out o", "optimal_day24_hour7.json"),
    Run("prices-csv", f"{OPTIMAL} {PRICES} --format csv", "optimal_day24_hour7_prices.csv"),
    Run("prices-json", f"{OPTIMAL} {PRICES} --format json", "optimal_day24_hour7_prices.json"),
    Run("prices-out-csv", f"{OPTIMAL} {PRICES} --out o", "optimal_day24_hour7_prices.csv"),
    Run("absolute-csv", f"{OPTIMAL} --format csv", "optimal_day24_hour7_prices.csv", ABSOLUTE),
    Run("absolute-json", f"{OPTIMAL} --format json", "optimal_day24_hour7_prices.json", ABSOLUTE),
    Run("sweep-csv", SWEEP, "profit_sweep_day24.csv"),
    Run("sweep-json", f"{SWEEP} --format json", "profit_sweep_day24.json"),
    Run("sweep-out-csv", f"{SWEEP} --out o", "profit_sweep_day24.csv"),
    Run("wide-csv", WIDE, "profit_sweep_day24_wide.csv"),
    Run("wide-json", f"{WIDE} --format json",
        {"profit_sweep_day24_wide.json": "stdout", "profit_sweep_day24_wide_bits.json": "stdout"}),
    Run("wide-out-csv", f"{WIDE} --out o", "profit_sweep_day24_wide.csv"),
    Run("wide-out-json", f"{WIDE} --format json --out o", "profit_sweep_day24_wide_bits.json"),
    # zonal72 reaches what day24 does not: zonal rejections, split price levels,
    # headroom trims, negative RT prices and an hour with no residual deviation.
    # escaped_ids is day24's first eight hours with party ids that hold %, a
    # quote and non-ASCII letters. The noisy claims' error is drawn once per
    # day; their tables were written when it was drawn hour by hour.
    *(Run(f"day-{day}", f"brsim simulate-day scenarios/{day}.json --out-dir .",
          {f"simulate_day_{day}_{table}": table for table in TABLES})
      for day in ("day24", "single_hour", "zonal72", "escaped_ids")),
    Run("day-noisy", f"brsim simulate-day {DAY} --out-dir .",
        {f"simulate_day_day24_noisy_{table}": table for table in TABLES},
        {"vg": {"claim_error_std_mw": 6.0}}),
    Run("exhaustive-out-csv", f"{RISK} --exhaustive --out o", "supply_risk_exhaustive.csv"),
    Run("exhaustive-out-json", f"{RISK} --exhaustive --format json --out o",
        "supply_risk_exhaustive.json"),
    # --exhaustive ignores the sampling flags.
    Run("exhaustive-sampling-flags", f"{RISK} --exhaustive --samples 1 --seed -1 --out o",
        "supply_risk_exhaustive.csv"),
    *(Run(f"exhaustive-both{name}-{fmt}",
          f"{RISK} --unit-kind both --exhaustive{rho} --format {fmt} --out o",
          f"supply_risk_exhaustive.{fmt}")
      for name, rho in (("", ""), ("-rho0", " --correlation 0")) for fmt in ("csv", "json")),
    Run("sampled-out-csv", f"{BOTH} --out o", f"{DRAWN}.csv"),
    Run("sampled-csv", f"{BOTH} --format csv --out o", f"{DRAWN}.csv"),
    Run("sampled-json", f"{BOTH} --format json --out o", f"{DRAWN}.json"),
    # One kind alone is its row of both.
    Run("marginal-json", f"{RISK} --unit-kind marginal {SAMPLED} --format json",
        f"{DRAWN}_marginal.json"),
    Run("marginal-out-json", f"{RISK} --unit-kind marginal {SAMPLED} --format json --out o",
        f"{DRAWN}_marginal.json"),
    # The paper's experiments, each listed as README's "Reproducing the paper"
    # gives it, writing under ./out.
    Run("paper-curves",
        f"brsim demand-curve {DAY} --hour 12 --points 41 --alpha 0.1,0.3,0.5"
        " --out out/demand_curves.csv", "demand_curve_day24.csv"),
    Run("paper-sweep", f"{SWEEP} --variance-scales 0.5,1,1.5,2 --out out/profit_sweep.csv",
        "profit_sweep_day24_scales.csv"),
    Run("run_supply_risk", "scripts/run_supply_risk.py",
        {"run_supply_risk.stdout": "stdout", "run_supply_risk.csv": "out/supply_risk.csv"}),
]


def close(old, new):
    """Whether two JSON rows have the same keys, and values within 1e-12."""
    return old.keys() == new.keys() and all(
        new[key] == value or abs(new[key] - value) <= 1e-12 * abs(value)
        for key, value in old.items())


def first_difference(golden, produced):
    """None if ``produced`` matches the golden by its rule, else a message that
    names both and shows the first differing line (or row), old and new."""
    if not produced.is_file():
        return f"{golden}: the run wrote no {produced}"
    want, got = (GOLDEN / golden).read_bytes(), produced.read_bytes()
    rows = golden in WITHIN_1E12
    split = json.loads if rows else (lambda text: text.splitlines(keepends=True))
    for i, (old, new) in enumerate(itertools.zip_longest(split(want), split(got)), 1):
        if old != new and (None in (old, new) or not (rows and close(old, new))):
            return (f"{golden}: {'row' if rows else 'line'} {i} of {produced} differs\n"
                    f"  old: {old!r}\n  new: {new!r}")
    return None


def check(run, workdir):
    """A message for each failure of ``run`` in the directory ``workdir``: a
    nonzero exit, or a pinned output that differs from its golden."""
    argv = [str(ROOT / arg) if arg.startswith("scenarios/") else arg for arg in run.argv.split()]
    if run.patch is not None:
        [i] = [i for i, arg in enumerate(run.argv.split()) if arg.startswith("scenarios/")]
        doc = json.loads(Path(argv[i]).read_text(encoding="utf-8"))
        doc.update({key: {**doc[key], **value} for key, value in run.patch.items()})
        argv[i] = str(workdir / "scenario.json")
        Path(argv[i]).write_text(json.dumps(doc), encoding="utf-8")
    if argv[0] == "brsim":
        out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
        try:
            os.chdir(workdir)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv[1:])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        finally:
            os.chdir(cwd)
        stdout, stderr = out.getvalue().encode("utf-8"), err.getvalue()
    else:  # PYTHONPATH: the directory that holds this process's brsim package
        env = {**os.environ, "PYTHONPATH": str(Path(brsim.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, str(ROOT / argv[0]), *argv[1:]], cwd=workdir,
                              env=env, capture_output=True, timeout=120)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")
    (workdir / "stdout").write_bytes(stdout)
    if code != 0:
        return [f"{run.name}: `{run.argv}` exited {code}\n{stderr}"]
    return [f"{run.name}: {message}" for golden, output in run.outputs().items()
            if (message := first_difference(golden, workdir / output))]


def coverage():
    """A message for each file under tests/golden that no run pins, and for
    each pinned golden that does not exist."""
    pinned = {golden for run in RUNS for golden in run.outputs()}
    files = {path.name for path in GOLDEN.iterdir()}
    return [f"{name}: no run pins it" for name in sorted(files - pinned)] + [
        f"{name}: pinned, but no such golden" for name in sorted(pinned - files)]


if __name__ == "__main__":
    root = Path(tempfile.mkdtemp(prefix="goldens-"))
    failures = coverage()
    for run in RUNS:
        (root / run.name).mkdir()
        failures += check(run, root / run.name)
    print("\n".join(failures) or f"{len(RUNS)} runs match their goldens")
    if not failures:
        shutil.rmtree(root)
    sys.exit(1 if failures else 0)
