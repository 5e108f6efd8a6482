"""Reference implementations that the tests check the library against.

They live with the tests, not in ``brsim``, so a refactor of the library
cannot change an oracle along with the code it judges.

- ``quantile`` is the bracketed root find on the regularized incomplete
  Beta, with a Newton polish near the support edges, that ``forecast``
  used before it switched to ``scipy.special.betaincinv``.
- ``pdf`` is the forecast density from ``scipy.stats``, for the quadrature
  oracles.
- ``scenario_to_dict`` and ``write_scenario`` turn a loaded config back
  into a scenario document, for round trips through the loader.
- ``read_table`` reads back a CSV or JSON table written by
  ``dataio.write_table``.
- ``JointScenario``, ``revenue_unit`` and ``revenue_unit_with_brs`` price
  one draw with scalar arithmetic, the way ``provider`` did before its
  risk moments were taken over arrays of draws.
- ``revenue_realized`` and ``revenue_with_brs`` are the producer's settled
  revenue at one realized output, the piecewise payoffs whose expectation
  ``vg.expected_revenue`` takes in closed form.
- ``ledger_net`` is one party's net over a ledger, summed entry by entry,
  for checking ``SettlementLedger.net_by_party``.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from scipy import special
from scipy.optimize import brentq
from scipy.stats import beta as _beta

from brsim.dataio import ScenarioConfig
from brsim.forecast import ForecastDistribution
from brsim.market import SettlementLedger
from brsim.provider import _MW_EPS, ContractInfeasibleError, DispatchableUnit, rt_dispatch
from brsim.vg import BrsPosition, PenaltyFactors, VgSchedule

# Normalized-scale tolerances for the quantile root find. The contract asks
# for 1e-10 absolute; brentq converges fast enough that tightening is free,
# and the relative term keeps roots near 0 accurate for sub-1 shapes whose
# density blows up at the support edge.
_QUANTILE_XTOL = 1e-15
_QUANTILE_RTOL = 4 * math.ulp(1.0)
# The xtol term dominates brentq's stopping rule everywhere on [0, 1], so a
# root near either end of the support, where a sub-1 shape makes the CDF
# steep, can be good to 1e-15 in x and still miss its level by 1e-9. A few
# Newton steps on the CDF, each kept only if it shrinks the residual, close
# that gap to the float spacing of x.
_QUANTILE_POLISH_STEPS = 3


def pdf(d: ForecastDistribution, p: float) -> float:
    """Density at output level p MW."""
    if not 0.0 <= p <= d.capacity:
        raise ValueError(f"p={p} outside [0, {d.capacity}]")
    return float(_beta.pdf(p / d.capacity, d.shape_a, d.shape_b)) / d.capacity


def quantile(d: ForecastDistribution, q: float) -> float:
    """Inverse CDF in MW, by bracketed root finding on the regularized
    incomplete Beta."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level must be in [0, 1], got {q}")
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return d.capacity
    a, b = d.shape_a, d.shape_b
    x = float(
        brentq(
            lambda t: special.betainc(a, b, t) - q,
            0.0,
            1.0,
            xtol=_QUANTILE_XTOL,
            rtol=_QUANTILE_RTOL,
        )
    )
    resid = float(special.betainc(a, b, x)) - q
    if abs(resid) <= _QUANTILE_RTOL * q:
        return x * d.capacity
    log_norm = float(special.betaln(a, b))
    for _ in range(_QUANTILE_POLISH_STEPS):
        if not 0.0 < x < 1.0:
            break
        density = math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_norm)
        if not 0.0 < density < math.inf:
            break
        step = x - resid / density
        if not 0.0 < step < 1.0:
            break
        step_resid = float(special.betainc(a, b, step)) - q
        if abs(step_resid) >= abs(resid):
            break
        x, resid = step, step_resid
    return x * d.capacity


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    vg_block: dict[str, Any] = {
        "id": cfg.vg.id,
        "capacity_mw": cfg.vg.capacity_mw,
        "forecast_mean_mw": list(cfg.vg.forecast_mean_mw),
        "variance_coefficient": cfg.vg.variance_coefficient,
        "variance_scale": cfg.vg.variance_scale,
        "da_schedule_mw": list(cfg.vg.da_schedule_mw),
        "claim_error_std_mw": cfg.vg.claim_error_std_mw,
    }
    if cfg.vg.realized_mw is not None:
        vg_block["realized_mw"] = list(cfg.vg.realized_mw)
    if cfg.vg.zone is not None:
        vg_block["zone"] = cfg.vg.zone
    out: dict[str, Any] = {
        "horizon": cfg.horizon,
        "seed": cfg.seed,
        "vg": vg_block,
        "penalty": {"over": cfg.penalty.over, "under": cfg.penalty.under},
        "da_price": list(cfg.da_price),
        "rt_price": list(cfg.rt_price),
        "brs_price": {
            "mode": cfg.brs_price.mode,
            "down": cfg.brs_price.down,
            "up": cfg.brs_price.up,
        },
        "variance_scale_factors": list(cfg.variance_scale_factors),
        "units": [
            {
                k: v
                for k, v in {
                    "id": u.id,
                    "kind": u.kind,
                    "p_min_mw": u.p_min_mw,
                    "p_max_mw": u.p_max_mw,
                    "marginal_cost": u.marginal_cost,
                    "da_schedule_mw": list(u.da_schedule_mw),
                    "rt_mode": u.rt_mode,
                    "zone": u.zone,
                }.items()
                if v is not None
            }
            for u in cfg.units
        ],
        "offers": [
            {
                k: v
                for k, v in {
                    "seller": o.seller,
                    "hour": o.hour,
                    "direction": o.direction,
                    "price": o.price,
                    "quantity_mw": o.quantity_mw,
                    "zone": o.zone,
                }.items()
                if v is not None
            }
            for o in cfg.offers
        ],
    }
    if cfg.zonal_rule is not None:
        out["zonal_rule"] = {
            "congested_boundaries": [list(p) for p in cfg.zonal_rule.congested_boundaries]
        }
    return out


def write_scenario(cfg: ScenarioConfig, path: str | Path) -> None:
    with open(Path(path), "w", newline="\n", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def _parse_cell(cell: str) -> Any:
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        pass
    if cell == "true":
        return True
    if cell == "false":
        return False
    return cell


def read_table(path: str | Path) -> list[dict]:
    """Read back a table written by write_table (format from the extension)."""
    path = Path(path)
    if path.suffix == ".json":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError(f"{path}: expected a JSON list of rows")
        return data
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return [{k: _parse_cell(v) for k, v in row.items()} for row in reader]


@dataclass(frozen=True)
class JointScenario:
    """One joint draw of prices and executed shift (signed MW, + = upward)."""

    da_price: float
    rt_price: float
    executed: float

    def __post_init__(self) -> None:
        if not self.da_price > 0.0:
            raise ValueError(f"da_price must be positive, got {self.da_price}")
        if not math.isfinite(self.rt_price) or not math.isfinite(self.executed):
            raise ValueError("rt_price and executed must be finite")


def revenue_unit(
    u: DispatchableUnit, sc: JointScenario, rt_output: float | None = None
) -> float:
    """Two-settlement revenue with no cover sold."""
    out = rt_dispatch(u, sc.rt_price) if rt_output is None else rt_output
    return sc.da_price * u.da_schedule + (out - u.da_schedule) * sc.rt_price


def revenue_unit_with_brs(
    u: DispatchableUnit, sc: JointScenario, rt_output: float | None = None
) -> float:
    """Revenue gross of premiums with sc.executed MW of shift applied to the
    settlement schedule."""
    shifted = u.da_schedule + sc.executed
    if not u.p_min - _MW_EPS <= shifted <= u.p_max + _MW_EPS:
        raise ContractInfeasibleError(
            f"shifted schedule {shifted} outside [{u.p_min}, {u.p_max}]"
        )
    out = rt_dispatch(u, sc.rt_price) if rt_output is None else rt_output
    return sc.da_price * shifted + (out - shifted) * sc.rt_price


def _check_actual(actual: float, capacity: float | None) -> None:
    if actual < 0.0 or not math.isfinite(actual):
        raise ValueError(f"actual output must be finite and >= 0, got {actual}")
    if capacity is not None and actual > capacity:
        raise ValueError(f"actual output {actual} exceeds capacity {capacity}")


def revenue_realized(
    s: VgSchedule, pf: PenaltyFactors, actual: float, capacity: float | None = None
) -> float:
    """Settled revenue with no re-dispatch cover: deviations clear at the
    penalized DA price."""
    _check_actual(actual, capacity)
    lam = s.da_price
    if actual >= s.da_quantity:
        return lam * s.da_quantity + (1.0 - pf.over) * lam * (actual - s.da_quantity)
    return lam * s.da_quantity - (1.0 + pf.under) * lam * (s.da_quantity - actual)


def revenue_with_brs(
    s: VgSchedule,
    pf: PenaltyFactors,
    pos: BrsPosition,
    actual: float,
    capacity: float | None = None,
) -> float:
    """Settled revenue gross of premiums, with the covered band [schedule -
    up_qty, schedule + down_qty] paying the full DA price."""
    _check_actual(actual, capacity)
    if pos.up_qty > s.da_quantity + 1e-9:
        raise ValueError(f"up_qty {pos.up_qty} exceeds schedule {s.da_quantity}")
    if capacity is not None and pos.down_qty > capacity - s.da_quantity + 1e-9:
        raise ValueError("down_qty exceeds headroom")
    lam = s.da_price
    hi = s.da_quantity + pos.down_qty
    lo = s.da_quantity - pos.up_qty
    if actual > hi:
        return lam * hi + (1.0 - pf.over) * lam * (actual - hi)
    if actual < lo:
        return lam * lo - (1.0 + pf.under) * lam * (lo - actual)
    return lam * actual


def ledger_net(ledger: SettlementLedger, party: str) -> float:
    """One party's net over the ledger, summed in entry order."""
    total = 0.0
    for e in ledger.entries:
        if e.payee == party:
            total += e.amount
        if e.payer == party:
            total -= e.amount
    return total
