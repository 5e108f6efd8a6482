"""Workload inputs, made from a seed.

Each workload is one `brsim` command line. ``make_workload`` writes any
input file the command needs into the work directory and returns a
``Workload``: the argv, the output files the command writes, and the units
of work one run of the command performs.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("sweep", "risk", "quarter")

# sweep: 16 variance scales x 41 premium ratios x the 24 hours of day24.json.
SWEEP_SCENARIO = "scenarios/day24.json"
SWEEP_SCALES = 16
SWEEP_RATIOS = 41
SWEEP_CHECK_CELLS = 4
# Scales reach past 5.6, where day24's hours get a Beta shape below 1.
SWEEP_SCALE_RANGE = (0.1, 15.0)
SWEEP_RATIO_MAX = 0.5

# risk: supply-risk over one scenario set shared by both unit kinds.
RISK_SAMPLES = 1_000_000

# quarter: one quarter of hourly delivery.
QUARTER_HOURS = 2160


@dataclass
class Workload:
    name: str
    argv: list[str]
    work_units: int
    stdout: Path
    # Files the command writes besides its stdout.
    outputs: list[Path]
    params: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return f"{x:.6f}".rstrip("0").rstrip(".")


def sweep_grid(seed: int) -> tuple[list[float], list[float]]:
    """Jittered geometric scales and jittered even ratios; sizes are fixed."""
    rng = random.Random(f"sweep-{seed}")
    lo, hi = SWEEP_SCALE_RANGE
    scales = []
    for i in range(SWEEP_SCALES):
        base = lo * (hi / lo) ** (i / (SWEEP_SCALES - 1))
        scales.append(float(_fmt(base * math.exp(rng.uniform(-0.08, 0.08)))))
    step = SWEEP_RATIO_MAX / (SWEEP_RATIOS - 1)
    ratios = [0.0]
    for i in range(1, SWEEP_RATIOS):
        ratios.append(float(_fmt(i * step + rng.uniform(-0.3, 0.3) * step)))
    return sorted(scales), sorted(ratios)


def make_sweep(seed: int, root: Path, work: Path) -> Workload:
    scales, ratios = sweep_grid(seed)
    rng = random.Random(f"sweep-cells-{seed}")
    # One checked cell always sits at the widest scale (sub-1 shapes).
    cells = [(scales[-1], rng.choice(ratios))]
    while len(cells) < SWEEP_CHECK_CELLS:
        cell = (rng.choice(scales), rng.choice(ratios))
        if cell not in cells:
            cells.append(cell)
    scenario = root / SWEEP_SCENARIO
    hours = json.loads(scenario.read_text(encoding="utf-8"))["horizon"]
    return Workload(
        name="sweep",
        argv=[
            "profit-sweep", str(scenario), "--format", "json",
            "--price-ratios", ",".join(_fmt(r) for r in ratios),
            "--variance-scales", ",".join(_fmt(k) for k in scales),
        ],
        work_units=len(scales) * len(ratios) * hours,
        stdout=work / "sweep.json",
        outputs=[],
        params={"scenario": scenario, "scales": scales,
                "ratios": ratios, "cells": cells},
    )


def make_risk(seed: int, root: Path, work: Path) -> Workload:
    rng = random.Random(f"risk-{seed}")
    rho = round(rng.uniform(0.2, 0.8), 3)
    return Workload(
        name="risk",
        argv=[
            "supply-risk", "--unit-kind", "both", "--samples", str(RISK_SAMPLES),
            "--seed", str(seed), "--correlation", _fmt(rho), "--format", "json",
        ],
        work_units=RISK_SAMPLES,
        stdout=work / "risk.out",
        outputs=[],
        params={"rho": rho, "samples": RISK_SAMPLES},
    )


def quarter_scenario(seed: int, hours: int = QUARTER_HOURS) -> dict:
    """A producer in zone north, three northern units and one southern unit
    behind a congested boundary, and six offers per hour.

    Per side, the southern unit offers cheapest, so its contracts are signed
    and then rejected by the zonal rule; two northern units share the next
    price level, so a level that only partly fits is split pro rata; the
    small unit ``n_peak`` offers more than its headroom now and then, so
    validation trims it. Claims are exact, so execution follows the
    realized deviation.
    """
    rng = random.Random(f"quarter-{seed}")
    cap = 100.0
    mean, sched, real, da, rt = [], [], [], [], []
    base_sched, peak_sched = [], []
    for h in range(hours):
        day = 2 * math.pi * (h % 24) / 24
        m = min(max(50 + 28 * math.sin(day + rng.uniform(-0.4, 0.4))
                    + rng.gauss(0, 6), 4.0), 96.0)
        sd = math.sqrt(0.05 * m * (cap - m))
        mean.append(round(m, 2))
        sched.append(round(min(max(m + rng.gauss(0, 1.5), 0.0), cap), 2))
        real.append(round(min(max(m + rng.gauss(0, sd), 0.0), cap), 2))
        p = max(30 + 9 * math.sin(day - 1.0) + rng.gauss(0, 3), 5.0)
        da.append(round(p, 2))
        rt.append(round(p + rng.gauss(0, 7), 2))
        base_sched.append(round(rng.uniform(120, 180), 1))
        peak_sched.append(round(rng.uniform(28, 52), 1))
    units = [
        {"id": "n_base", "kind": "base_load", "p_min_mw": 80.0, "p_max_mw": 220.0,
         "marginal_cost": 16.0, "da_schedule_mw": base_sched, "zone": "north"},
        {"id": "n_peak", "kind": "marginal", "p_min_mw": 20.0, "p_max_mw": 60.0,
         "marginal_cost": 34.0, "da_schedule_mw": peak_sched, "zone": "north"},
        {"id": "n_flex", "kind": "marginal", "p_min_mw": 0.0, "p_max_mw": 100.0,
         "marginal_cost": 28.0, "da_schedule_mw": 50.0, "rt_mode": "modified_schedule",
         "zone": "north"},
        {"id": "s_hydro", "kind": "base_load", "p_min_mw": 0.0, "p_max_mw": 200.0,
         "marginal_cost": 10.0, "da_schedule_mw": 100.0, "zone": "south"},
    ]
    offers = []
    for h in range(hours):
        for direction, partner in (("down", "n_base"), ("up", "n_flex")):
            cheap = round(rng.uniform(0.1, 0.4), 2)
            level = round(rng.uniform(0.5, 1.5), 2)
            offers.append({"seller": "s_hydro", "hour": h, "direction": direction,
                           "price": cheap, "quantity_mw": round(rng.uniform(2, 8), 1)})
            offers.append({"seller": partner, "hour": h, "direction": direction,
                           "price": level, "quantity_mw": round(rng.uniform(3, 12), 1)})
            offers.append({"seller": "n_peak", "hour": h, "direction": direction,
                           "price": level, "quantity_mw": round(rng.uniform(3, 16), 1)})
    return {
        "horizon": hours,
        "seed": seed,
        "vg": {"id": "wind", "capacity_mw": cap, "forecast_mean_mw": mean,
               "variance_coefficient": 0.05, "da_schedule_mw": sched,
               "realized_mw": real, "claim_error_std_mw": 0.0, "zone": "north"},
        "penalty": {"over": 0.3, "under": 0.4},
        "da_price": da,
        "rt_price": rt,
        "units": units,
        "offers": offers,
        "zonal_rule": {"congested_boundaries": [["north", "south"]]},
    }


def make_quarter(seed: int, root: Path, work: Path) -> Workload:
    scenario = quarter_scenario(seed)
    path = work / "quarter.json"
    path.write_text(json.dumps(scenario, separators=(",", ":")) + "\n", encoding="utf-8")
    out_dir = work / "quarter_out"
    outputs = [out_dir / f"{t}.{fmt}" for t in ("contracts", "ledger", "totals")
               for fmt in ("csv", "json")]
    return Workload(
        name="quarter",
        argv=["simulate-day", str(path), "--out-dir", str(out_dir)],
        work_units=scenario["horizon"],
        stdout=work / "quarter.out",
        outputs=outputs,
        params={"scenario": scenario, "out_dir": out_dir},
    )


MAKERS = {"sweep": make_sweep, "risk": make_risk, "quarter": make_quarter}


def make_workload(name: str, seed: int, root: Path, work: Path) -> Workload:
    return MAKERS[name](seed, root, work)
