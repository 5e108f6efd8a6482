"""Scenario-driven day runs: wires forecasts, the capacity market, claims,
and settlement into one deterministic pipeline, every step over the whole
horizon at once."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import forecast, market, provider, vg
from ._arrays import fail_where
from .dataio import Coded, ScenarioConfig
from .market import Contracts, SettlementLedger, Shifts
from .provider import DispatchableUnit
from .vg import PenaltyFactors, VgSchedule

# The most (scale, ratio, hour) cells profit_sweep evaluates at once; a
# block holds whole (scale, ratio) rows, and at least one.
_SWEEP_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class DayResult:
    """A day's market as columns: contracts, ledger entries, and the executed
    shifts with the schedules they leave, the producer's and each unit's."""

    vg_id: str
    unit_ids: tuple[str, ...]
    contracts: Contracts
    ledger: SettlementLedger
    shifts: Shifts


def _producer_inputs(cfg: ScenarioConfig, mean, schedule, price):
    d = forecast.from_mean(
        cfg.vg.capacity_mw,
        mean,
        coefficient=cfg.vg.variance_coefficient,
        scale=cfg.vg.variance_scale,
    )
    s = VgSchedule(da_quantity=schedule, da_price=price)
    return s, PenaltyFactors(over=cfg.penalty.over, under=cfg.penalty.under), d


def _horizon_inputs(cfg: ScenarioConfig):
    """Producer-side inputs with one array element per hour."""
    return _producer_inputs(cfg, cfg.vg.forecast_mean_mw, cfg.vg.da_schedule_mw, cfg.da_price)


def hour_context(
    cfg: ScenarioConfig, hour: int
) -> tuple[VgSchedule, PenaltyFactors, "forecast.ForecastDistribution"]:
    """Producer-side inputs (schedule, penalties, forecast) for one hour. An
    hour outside the horizon raises IndexError."""
    if not 0 <= hour < cfg.horizon:
        raise IndexError(f"hour {hour} outside horizon {cfg.horizon}")
    return _producer_inputs(cfg, cfg.vg.forecast_mean_mw[hour].item(),
                            cfg.vg.da_schedule_mw[hour].item(), cfg.da_price[hour].item())


def demand_curve_rows(
    s: VgSchedule, d: "forecast.ForecastDistribution", alphas: list[float], points: int
) -> dict[str, np.ndarray | Coded]:
    """Marginal value of cover against quantity at one hour (its schedule
    and forecast, as from ``hour_context``), per direction and per penalty
    factor (applied to both sides), as table columns: the down curves, then
    the up curves, each in the order of ``alphas``."""
    # Axes (direction, alpha, point): one curve per direction and factor.
    directions = np.array([vg.DOWN, vg.UP])[:, None, None]
    alpha = np.asarray(alphas, dtype=float)[:, None]
    curves = vg.demand_curve(s, PenaltyFactors(over=alpha, under=alpha), d, directions, points)
    codes = np.repeat(np.arange(len(directions), dtype=np.uint8), len(alphas) * points)
    return {
        "direction": Coded((vg.DOWN.value, vg.UP.value), codes),
        "alpha": np.tile(np.repeat(alpha, points), len(directions)),
        "quantity_mw": curves[..., 0].ravel(),
        "marginal_value": curves[..., 1].ravel(),
    }


def profit_sweep(
    cfg: ScenarioConfig, ratios: list[float], scales: list[float]
) -> dict[str, np.ndarray]:
    """Expected profit summed over the horizon at the optimal cover, for each
    forecast-variance scale and premium ratio (premium = ratio x DA price on
    both sides), as table columns. Rows are sorted by (scale, ratio), equal
    keys in grid order.

    The grid is evaluated in blocks of whole (scale, ratio) rows, at most
    _SWEEP_BLOCK cells but at least one row, so it holds one block's arrays
    and the output columns whatever the grid's size. Each row's hours are
    added in one order, so its values do not depend on the other rows."""
    s, pf, d = _horizon_inputs(cfg)
    k, r = np.asarray(scales, dtype=float), np.asarray(ratios, dtype=float)
    # A block is whole scales when every ratio fits in it, else some of one
    # scale's ratios.
    block_rows = max(1, _SWEEP_BLOCK // cfg.horizon)
    k_step = max(1, block_rows // max(1, len(r)))
    r_step = max(1, min(block_rows, len(r)))
    # Profit, gross revenue and premium per (scale, ratio).
    sums = np.empty((3, len(k), len(r)))
    for i in range(0, len(k), k_step):
        # Axes (scale, ratio, hour); the scaled forecast serves every ratio
        # block of its scales.
        dk = forecast.scale_variance(d, k[i:i + k_step, None, None])
        for j in range(0, len(r), r_step):
            price = r[j:j + r_step, None] * s.da_price
            pos = vg.optimal_position(s, pf, dk, price, price)
            gross = vg.expected_revenue(s, pf, pos, dk)
            premium = vg.premium_cost(pos)
            for total, x in zip(sums, (gross - premium, gross, premium)):
                # Summed as a C-contiguous row, whatever layout numpy gave x.
                total[i:i + k_step, j:j + r_step] = np.ascontiguousarray(x).sum(axis=-1)
    scale, ratio = np.repeat(scales, len(ratios)), np.tile(ratios, len(scales))
    order = np.lexsort((ratio, scale))
    profit, gross, premium = sums.reshape(3, -1)[:, order]
    return {
        "variance_scale": scale[order],
        "price_ratio": ratio[order],
        "expected_profit": profit,
        "gross_expected_revenue": gross,
        "premium_paid": premium,
    }


def simulate_day(cfg: ScenarioConfig) -> DayResult:
    """Run the full lifecycle for every hour of the scenario.

    Requires the scenario to declare offers and realized producer output.
    Deterministic for a fixed config (the seed only feeds the optional
    claim-time forecast error). An hour whose executions change its
    scheduled MW, whose ledger does not balance, or whose pool net is not
    what the pool owes raises AssertionError.
    """
    if cfg.vg.realized_mw is None:
        raise ValueError("vg.realized_mw: scenario declares no realized output; cannot simulate")

    # The loader makes each boundary join two distinct zones, so a unit with
    # no zone, or in the producer's own zone, never matches one.
    pairs = cfg.zonal_rule.congested_boundaries if cfg.zonal_rule is not None else ()
    boundaries = {frozenset(pair) for pair in pairs}
    blocked = frozenset(
        j for j, u in enumerate(cfg.units) if frozenset((cfg.vg.zone, u.zone)) in boundaries
    )
    # Each hour's claim: the realized output plus the claim-time error.
    noise = np.random.default_rng(cfg.seed).standard_normal(cfg.horizon)
    realized = cfg.vg.realized_mw
    claims = np.clip(realized + cfg.vg.claim_error_std_mw * noise, 0.0, cfg.vg.capacity_mw)
    units = {uc.id: DispatchableUnit(uc.kind, uc.p_min_mw, uc.p_max_mw, uc.marginal_cost,
                                     uc.da_schedule_mw)
             for uc in cfg.units}
    unit_list = list(units.values())
    s, pf, d = _horizon_inputs(cfg)

    contracts = market.match_offers(market.Book(**cfg.offers), s, pf, d)
    contracts = market.validate_contracts(contracts, unit_list, blocked)
    contracts = market.claim_execution(contracts, s.da_quantity, claims)
    shifts = market.executed_by_seller(contracts, s.da_quantity, unit_list)
    vg_modified, unit_modified = shifts.vg_modified, shifts.unit_modified
    rt_price = cfg.rt_price
    rt_output = unit_modified.copy()
    for j, (uc, u) in enumerate(zip(cfg.units, unit_list)):
        if uc.rt_mode != "modified_schedule":
            rt_output[:, j] = provider.rt_dispatch(u, rt_price)

    scheduled = s.da_quantity + sum(u.da_schedule for u in unit_list)
    shifted = vg_modified + unit_modified.sum(axis=1) - scheduled
    hours = np.arange(cfg.horizon)
    fail_where(np.abs(shifted) > 1e-9 * np.maximum(1.0, np.abs(scheduled)),
               "hour {}: executions changed the scheduled total by {} MW", hours, shifted,
               error=AssertionError)

    ledger = market.settle(
        vg_id=cfg.vg.id, da_price=s.da_price, rt_price=rt_price, penalty=pf,
        vg_schedule=s.da_quantity, vg_realized=realized, contracts=contracts, shifts=shifts,
        units=units, unit_rt_output=rt_output,
    )
    nets = ledger.hourly_nets(cfg.horizon)
    gross = np.bincount(ledger.hour, ledger.amount, minlength=cfg.horizon)
    residual = np.array([math.fsum(row) for row in nets.tolist()])
    fail_where(np.abs(residual) > 1e-9 * gross, "hour {}: ledger nets do not cancel", hours,
               error=AssertionError)
    # The pool pays each DA schedule at the DA price and clears each residual
    # deviation, the producer's at its penalized DA price, units' at RT.
    deviation = realized - vg_modified
    factor = np.where(deviation > 0.0, 1.0 - pf.over, 1.0 + pf.under)
    flows = np.column_stack((
        -s.da_price * scheduled,
        -factor * s.da_price * deviation,
        -rt_price[:, None] * (rt_output - unit_modified),
    ))
    owed = np.array([math.fsum(row) for row in flows.tolist()])
    pool_net = nets[:, ledger.parties.index(market.POOL)]
    fail_where(np.abs(pool_net - owed) > 1e-9 * np.maximum(1.0, np.abs(flows).sum(axis=1)),
               "hour {}: pool net {} differs from {} owed", hours, pool_net, owed,
               error=AssertionError)
    return DayResult(cfg.vg.id, tuple(units), contracts, ledger, shifts)


def contract_rows(result: DayResult) -> dict[str, np.ndarray | Coded]:
    """Every contract signed during the day, as table columns, in id order."""
    c = result.contracts
    return {
        "id": np.arange(len(c.hour)),
        "hour": c.hour,
        "buyer": Coded((result.vg_id,), np.zeros(len(c.hour), np.uint8)),
        "seller": Coded(result.unit_ids, c.seller),
        "direction": Coded((vg.DOWN.value, vg.UP.value), c.up.view(np.uint8)),
        "quantity_mw": c.quantity,
        "premium_price": c.price,
        "status": Coded(market.STATUSES, c.status),
        "executed_mw": c.executed,
        "trimmed_mw": c.trimmed,
    }


def ledger_rows(result: DayResult) -> dict[str, np.ndarray | Coded]:
    """Every ledger entry of the day, as table columns, in entry order."""
    led = result.ledger
    return {
        "hour": led.hour,
        "payer": Coded(led.parties, led.payer),
        "payee": Coded(led.parties, led.payee),
        "amount": led.amount,
        "tag": Coded(market.LEDGER_TAGS, led.tag),
    }


def totals_rows(result: DayResult) -> dict[str, np.ndarray | Coded]:
    """Each party's net cash over the day, as table columns."""
    nets = result.ledger.net_by_party()
    return {"party": Coded(tuple(nets), np.arange(len(nets))),
            "net_cash": np.array(list(nets.values()), dtype=float)}
