"""Scenario-driven day runs: wires forecasts, the hourly capacity market,
claims, and settlement into one deterministic pipeline."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import forecast, market, provider, vg
from .dataio import ScenarioConfig, UnitConfig
from .market import BrsContract, HourAccounts, Offer, SettlementLedger
from .provider import DispatchableUnit, UnitKind
from .vg import PenaltyFactors, VgSchedule


@dataclass(slots=True)
class HourOutcome:
    hour: int
    vg_schedule: float
    vg_modified: float
    vg_realized: float
    unit_schedules: dict[str, float]
    unit_modified: dict[str, float]
    contracts: list[BrsContract]
    ledger: SettlementLedger


@dataclass
class DayResult:
    hours: list[HourOutcome]
    # Every hour's ledger entries, in hour order.
    ledger: SettlementLedger


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
    return _producer_inputs(
        cfg,
        np.asarray(cfg.vg.forecast_mean_mw, dtype=float),
        np.asarray(cfg.vg.da_schedule_mw, dtype=float),
        np.asarray(cfg.da_price, dtype=float),
    )


def hour_context(
    cfg: ScenarioConfig, hour: int
) -> tuple[VgSchedule, PenaltyFactors, "forecast.ForecastDistribution"]:
    """Producer-side inputs (schedule, penalties, forecast) for one hour."""
    if not 0 <= hour < cfg.horizon:
        raise ValueError(f"hour {hour} outside horizon {cfg.horizon}")
    return _producer_inputs(
        cfg, cfg.vg.forecast_mean_mw[hour], cfg.vg.da_schedule_mw[hour], cfg.da_price[hour]
    )


def demand_curve_rows(
    cfg: ScenarioConfig, hour: int, alphas: list[float], points: int
) -> list[dict]:
    """Marginal value of cover against quantity at one hour, per direction
    and per penalty factor (applied to both sides)."""
    s, _, d = hour_context(cfg, hour)
    # Axes (alpha, point): one curve per penalty factor.
    alpha = np.asarray(alphas, dtype=float)[:, None]
    pf = PenaltyFactors(over=alpha, under=alpha)
    rows = []
    for direction in (vg.DOWN, vg.UP):
        curve = vg.demand_curve(s, pf, d, direction, points)
        for a, pairs in zip(alphas, curve.points.tolist()):
            rows.extend(
                {
                    "direction": direction.value,
                    "alpha": a,
                    "quantity_mw": q,
                    "marginal_value": value,
                }
                for q, value in pairs
            )
    return rows


def profit_sweep(
    cfg: ScenarioConfig, ratios: list[float], scales: list[float]
) -> list[dict]:
    """Expected profit summed over the horizon at the optimal cover, for each
    forecast-variance scale and premium ratio (premium = ratio x DA price on
    both sides). Rows are sorted by (scale, ratio)."""
    s, pf, d = _horizon_inputs(cfg)
    # Axes (scale, ratio, hour); the hour axis is summed away.
    d = forecast.scale_variance(d, np.asarray(scales, dtype=float)[:, None, None])
    price = np.asarray(ratios, dtype=float)[:, None] * s.da_price
    pos = vg.optimal_position(s, pf, d, price, price)
    gross = vg.expected_revenue(s, pf, pos, d)
    premium = vg.premium_cost(pos)
    totals = zip(
        itertools.product(scales, ratios),
        (gross - premium).sum(axis=-1).ravel().tolist(),
        gross.sum(axis=-1).ravel().tolist(),
        premium.sum(axis=-1).ravel().tolist(),
    )
    rows = [
        {
            "variance_scale": scale,
            "price_ratio": ratio,
            "expected_profit": profit,
            "gross_expected_revenue": gross_total,
            "premium_paid": premium_total,
        }
        for (scale, ratio), profit, gross_total, premium_total in totals
    ]
    rows.sort(key=lambda r: (r["variance_scale"], r["price_ratio"]))
    return rows


def _unit_hours(uc: UnitConfig) -> Iterator[DispatchableUnit]:
    """The unit at each hour of the day, its kind resolved once."""
    kind = UnitKind(uc.kind)
    for schedule in uc.da_schedule_mw:
        yield DispatchableUnit(
            kind=kind,
            p_min=uc.p_min_mw,
            p_max=uc.p_max_mw,
            marginal_cost=uc.marginal_cost,
            da_schedule=schedule,
        )


def simulate_day(cfg: ScenarioConfig) -> DayResult:
    """Run the full lifecycle for every hour of the scenario.

    Requires the scenario to declare offers and realized producer output.
    Deterministic for a fixed config (the seed only feeds the optional
    claim-time forecast error).
    """
    if cfg.vg.realized_mw is None:
        raise ValueError("scenario declares no realized output; cannot simulate")

    # The loader makes each boundary join two distinct zones, so a unit with
    # no zone, or in the producer's own zone, never matches one.
    pairs = cfg.zonal_rule.congested_boundaries if cfg.zonal_rule is not None else ()
    boundaries = {frozenset(pair) for pair in pairs}
    blocked = frozenset(u.id for u in cfg.units if frozenset((cfg.vg.zone, u.zone)) in boundaries)
    # Each hour's claim: the realized output plus the claim-time error.
    noise = np.random.default_rng(cfg.seed).standard_normal(cfg.horizon)
    claims = np.clip(
        np.asarray(cfg.vg.realized_mw) + cfg.vg.claim_error_std_mw * noise, 0.0, cfg.vg.capacity_mw
    ).tolist()
    directions = {direction.value: direction for direction in vg.Direction}
    offers = [
        Offer(
            seller=oc.seller,
            hour=oc.hour,
            direction=directions[oc.direction],
            price=oc.price,
            quantity=oc.quantity_mw,
        )
        for oc in cfg.offers
    ]
    s, pf, d = _horizon_inputs(cfg)
    # Offers per hour in posting order, which matching depends on, each with
    # the buyer's demand at its price.
    book: dict[int, tuple[list[Offer], list[float]]] = {}
    for offer, desired in zip(offers, market.buyer_demand(offers, s, pf, d)):
        posted, wants = book.setdefault(offer.hour, ([], []))
        posted.append(offer)
        wants.append(desired)

    unit_hours = [(uc.id, _unit_hours(uc)) for uc in cfg.units]
    hours: list[HourOutcome] = []
    day_ledger = SettlementLedger()
    next_contract_id = 0
    for h in range(cfg.horizon):
        schedule, da_price = cfg.vg.da_schedule_mw[h], cfg.da_price[h]
        units = {uid: next(at_hour) for uid, at_hour in unit_hours}

        posted, wants = book.get(h, ([], []))
        contracts = market.match_offers(
            posted, wants, vg.DOWN, cfg.vg.id, id_start=next_contract_id
        )
        contracts += market.match_offers(
            posted, wants, vg.UP, cfg.vg.id, id_start=next_contract_id + len(contracts)
        )
        next_contract_id += len(contracts)
        market.validate_contracts(contracts, units, blocked)

        realized = cfg.vg.realized_mw[h]
        claim = market.claim_execution(contracts, schedule, claims[h])

        rt_price = cfg.rt_price[h]
        vg_modified = schedule + claim.executed_down - claim.executed_up
        unit_modified: dict[str, float] = {}
        unit_rt_output: dict[str, float] = {}
        for uc in cfg.units:
            u = units[uc.id]
            modified = (
                u.da_schedule
                - claim.per_seller_down.get(uc.id, 0.0)
                + claim.per_seller_up.get(uc.id, 0.0)
            )
            unit_modified[uc.id] = modified
            if uc.rt_mode == "modified_schedule":
                unit_rt_output[uc.id] = modified
            else:
                unit_rt_output[uc.id] = provider.rt_dispatch(u, rt_price)
        unit_schedules = {uid: u.da_schedule for uid, u in units.items()}
        scheduled = schedule + math.fsum(unit_schedules.values())
        shifted = vg_modified + math.fsum(unit_modified.values()) - scheduled
        if abs(shifted) > 1e-9 * max(1.0, abs(scheduled)):
            raise AssertionError(
                f"hour {h}: executions changed the scheduled total by {shifted} MW"
            )

        ledger = market.settle(
            HourAccounts(
                hour=h,
                vg_id=cfg.vg.id,
                da_price=da_price,
                rt_price=rt_price,
                penalty=pf,
                vg_da_schedule=schedule,
                vg_realized=realized,
                contracts=contracts,
                units=units,
                unit_rt_output=unit_rt_output,
            )
        )
        if not ledger.is_balanced():
            raise AssertionError(f"hour {h}: ledger nets do not cancel")
        # The pool pays each DA schedule at the DA price and clears each residual
        # deviation, the producer's at its penalized DA price, units' at RT.
        residual = realized - vg_modified
        factor = 1.0 - pf.over if residual > 0.0 else 1.0 + pf.under
        flows = [-da_price * scheduled, -factor * da_price * residual]
        flows += [-rt_price * (unit_rt_output[uid] - unit_modified[uid]) for uid in unit_modified]
        pool_net, owed = ledger.net_by_party().get(market.POOL, 0.0), math.fsum(flows)
        if abs(pool_net - owed) > 1e-9 * max(1.0, math.fsum(map(abs, flows))):
            raise AssertionError(f"hour {h}: pool net {pool_net} differs from {owed} owed")
        day_ledger.extend(ledger)

        hours.append(
            HourOutcome(
                hour=h,
                vg_schedule=schedule,
                vg_modified=vg_modified,
                vg_realized=realized,
                unit_schedules=unit_schedules,
                unit_modified=unit_modified,
                contracts=contracts,
                ledger=ledger,
            )
        )

    return DayResult(hours=hours, ledger=day_ledger)


def contract_rows(result: DayResult) -> Iterator[dict]:
    """Flat table of every contract signed during the day, one row at a time."""
    for hour in result.hours:
        for c in hour.contracts:
            yield {
                "id": c.id,
                "hour": c.hour,
                "buyer": c.buyer,
                "seller": c.seller,
                "direction": c.direction.value,
                "quantity_mw": c.quantity,
                "premium_price": c.premium_price,
                "status": c.status.value,
                "executed_mw": c.executed_mw,
                "trimmed_mw": c.trimmed_mw,
            }


def ledger_rows(result: DayResult) -> Iterator[dict]:
    """Every ledger entry of the day, one row at a time."""
    for e in result.ledger.entries:
        yield {
            "hour": e.hour,
            "payer": e.payer,
            "payee": e.payee,
            "amount": e.amount,
            "tag": e.tag,
        }


def totals_rows(result: DayResult) -> Iterator[dict]:
    """Each party's net cash over the day, one row at a time."""
    for party, net in result.ledger.net_by_party().items():
        yield {"party": party, "net_cash": net}
