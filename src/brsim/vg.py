"""Variable-generation producer economics.

Two-settlement cash flows for a producer whose day-ahead schedule can miss,
with optional bilateral re-dispatch capacity (BRS) bought from dispatchable
units to absorb part of the miss. Downward BRS covers over-generation (the
counterparty backs its schedule down); upward BRS covers under-generation
(the counterparty ramps up).

The expected-revenue, marginal-value and optimum functions broadcast: any
field of the schedule, penalties, position or forecast, and any price or
depth, may be an array, and the result takes the broadcast shape. Checks
apply elementwise; a scalar call returns Python scalars.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np

from . import forecast
from ._arrays import fail_where, unwrap
from .forecast import ForecastDistribution


class Direction(str, enum.Enum):
    """Re-dispatch direction, named by what the capacity covers for the buyer."""

    DOWN_COVERS_OVER = "down"
    UP_COVERS_UNDER = "up"


DOWN = Direction.DOWN_COVERS_OVER
UP = Direction.UP_COVERS_UNDER


@dataclass(frozen=True)
class PenaltyFactors:
    """Deviation penalty fractions of the DA price: over-generation is paid
    (1-over)*price, under-generation is charged (1+under)*price."""

    over: float
    under: float

    def __post_init__(self) -> None:
        fail_where(
            np.logical_not((0.0 <= self.over) & (self.over <= 1.0)),
            "over-generation penalty factor must be in [0, 1], got {}", self.over,
        )
        fail_where(
            self.under < 0.0,
            "under-generation penalty factor must be >= 0, got {}", self.under,
        )


@dataclass(frozen=True)
class VgSchedule:
    """Cleared day-ahead position: scheduled MW and the DA energy price."""

    da_quantity: float
    da_price: float

    def __post_init__(self) -> None:
        fail_where(self.da_quantity < 0.0, "da_quantity must be >= 0, got {}", self.da_quantity)
        fail_where(
            np.logical_not(self.da_price > 0.0), "da_price must be positive, got {}", self.da_price
        )


@dataclass(frozen=True)
class BrsPosition:
    """Contracted re-dispatch capacity: quantities in MW, premiums in $/MW."""

    down_qty: float
    up_qty: float
    down_price: float
    up_price: float

    def __post_init__(self) -> None:
        fail_where((self.down_qty < 0.0) | (self.up_qty < 0.0), "position quantities must be >= 0")
        fail_where(
            (self.down_price < 0.0) | (self.up_price < 0.0), "premium prices must be >= 0"
        )


ZERO_POSITION = BrsPosition(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class OicReport:
    """Opportunity/imbalance cost breakdown for one hour."""

    gross_expected_revenue: float
    net_expected_revenue: float
    premium_paid: float
    expected_residual_penalty: float
    total_oic: float
    consumer_surplus: float


def _check_schedule_fits(s: VgSchedule, d: ForecastDistribution) -> None:
    fail_where(
        s.da_quantity > d.capacity,
        "da_quantity {} exceeds forecast capacity {}", s.da_quantity, d.capacity,
    )


def _check_position_fits(pos: BrsPosition, s: VgSchedule, d: ForecastDistribution) -> None:
    _check_schedule_fits(s, d)
    headroom = d.capacity - s.da_quantity
    fail_where(
        pos.down_qty > headroom + 1e-9, "down_qty {} exceeds headroom {}", pos.down_qty, headroom
    )
    fail_where(
        pos.up_qty > s.da_quantity + 1e-9,
        "up_qty {} exceeds schedule {}", pos.up_qty, s.da_quantity,
    )


def premium_cost(pos: BrsPosition) -> float:
    return pos.down_price * pos.down_qty + pos.up_price * pos.up_qty


def _terms_below(d: ForecastDistribution, schedule, sides):
    """(CDF, partial expectation from 0) at each (edge, cover) side's edge."""
    def terms(d, edge):
        return forecast.cdf(d, edge), forecast.partial_expectation(d, edge)

    dist = [getattr(d, f.name) for f in fields(d)]
    shape = np.broadcast(*dist, *(edge for edge, _ in sides)).shape
    at_schedule = terms(d, schedule)
    out = []
    for edge, qty in sides:
        mask = np.broadcast_to(np.not_equal(qty, 0.0), shape)
        part = ForecastDistribution(*(np.broadcast_to(v, shape)[mask] for v in dist))
        out.append([np.array(np.broadcast_to(t, shape)) for t in at_schedule])
        for spread, value in zip(out[-1], terms(part, np.broadcast_to(edge, shape)[mask])):
            spread[mask] = value
    return out


def expected_revenue(
    s: VgSchedule, pf: PenaltyFactors, pos: BrsPosition, d: ForecastDistribution
):
    """Expectation under the forecast, in closed form, of the settled
    revenue with the covered band [schedule - up_qty, schedule + down_qty]
    paid at the full DA price and deviations beyond it at the penalized DA
    price.

    Gross of premiums. Splits the support at the covered band's edges and
    reduces each piece to CDF / partial-expectation terms; the partial
    expectations of the three pieces come from the two below the edges.
    They are evaluated only at edges with cover: an uncovered edge is the
    schedule, evaluated once per forecast element and spread.
    """
    _check_position_fits(pos, s, d)
    lam = s.da_price
    lo = np.maximum(s.da_quantity - pos.up_qty, 0.0)
    hi = np.minimum(s.da_quantity + pos.down_qty, d.capacity)
    sides = ((lo, pos.up_qty), (hi, pos.down_qty))
    (f_lo, pe_below), (f_hi, pe_below_hi) = _terms_below(d, s.da_quantity, sides)
    pe_mid = pe_below_hi - pe_below
    pe_above = d.mean - pe_below_hi
    below = (1.0 + pf.under) * pe_below - pf.under * lo * f_lo
    above = pf.over * hi * (1.0 - f_hi) + (1.0 - pf.over) * pe_above
    return unwrap(lam * (below + pe_mid + above))


def marginal_utility(
    s: VgSchedule,
    pf: PenaltyFactors,
    d: ForecastDistribution,
    direction: Direction,
    r,
):
    """Marginal value ($/MW) of the next MW of cover at depth r: over-generation
    cover for DOWN, under-generation cover for UP."""
    _check_schedule_fits(s, d)
    headroom = d.capacity - s.da_quantity if direction is DOWN else s.da_quantity
    fail_where(
        np.logical_not((0.0 <= r) & (r <= headroom + 1e-9)),
        "r={} outside [0, {}]", r, headroom,
    )
    if direction is DOWN:
        return unwrap(s.da_price * pf.over * (1.0 - forecast.cdf(d, s.da_quantity + r)))
    return unwrap(s.da_price * pf.under * forecast.cdf(d, s.da_quantity - r))


def optimal_quantity(
    s: VgSchedule,
    pf: PenaltyFactors,
    d: ForecastDistribution,
    direction: Direction,
    price,
):
    """Critical-fractile optimum for one side at a flat premium price."""
    _check_schedule_fits(s, d)
    fail_where(price < 0.0, "premium price must be >= 0, got {}", price)
    factor = pf.over if direction is DOWN else pf.under
    # The first MW of cover is worth lam * factor; at or above that price
    # nothing is bought. Those cells get fractile 0, which is a valid
    # quantile level and keeps the division safe, and are zeroed below.
    first_mw = s.da_price * factor
    buys = np.logical_not((factor <= 0.0) | (price >= first_mw))
    fractile = np.where(buys, price, 0.0) / np.where(buys, first_mw, 1.0)
    if direction is DOWN:
        depth = forecast.quantile(d, 1.0 - fractile) - s.da_quantity
        headroom = d.capacity - s.da_quantity
    else:
        depth = s.da_quantity - forecast.quantile(d, fractile)
        headroom = s.da_quantity
    return unwrap(np.where(buys, np.maximum(np.minimum(depth, headroom), 0.0), 0.0))


def optimal_position(
    s: VgSchedule,
    pf: PenaltyFactors,
    d: ForecastDistribution,
    down_price,
    up_price,
) -> BrsPosition:
    """Profit-maximizing cover at flat premium prices, one side at a time
    (the objective is separable)."""
    return BrsPosition(
        down_qty=optimal_quantity(s, pf, d, DOWN, down_price),
        up_qty=optimal_quantity(s, pf, d, UP, up_price),
        down_price=down_price,
        up_price=up_price,
    )


def demand_curve(
    s: VgSchedule,
    pf: PenaltyFactors,
    d: ForecastDistribution,
    direction: Direction,
    n_points: int,
) -> np.ndarray:
    """Marginal value sampled on an even quantity grid over [0, headroom], as
    (quantity MW, marginal value $/MW) pairs of shape (..., n_points, 2).

    The grid is the second-to-last axis (``points[..., i, :]`` is the i-th
    point); array inputs broadcast against it, so give them a trailing
    length-1 axis.
    """
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    _check_schedule_fits(s, d)
    headroom = d.capacity - s.da_quantity if direction is DOWN else s.da_quantity
    step = headroom / (n_points - 1)
    q = np.minimum(np.arange(n_points) * step, headroom)
    value = marginal_utility(s, pf, d, direction, q)
    return np.stack(np.broadcast_arrays(q, value), -1)


def oic_report(
    s: VgSchedule, pf: PenaltyFactors, pos: BrsPosition, d: ForecastDistribution
) -> OicReport:
    """Opportunity/imbalance cost of a position vs. the penalty-free ideal.

    total = premiums + (ideal revenue - expected gross revenue); surplus is
    the cost saved relative to holding no cover at all.
    """
    ideal = s.da_price * d.mean
    premium = premium_cost(pos)
    gross = expected_revenue(s, pf, pos, d)
    residual = ideal - gross
    total = premium + residual
    baseline = ideal - expected_revenue(s, pf, ZERO_POSITION, d)
    return OicReport(
        gross_expected_revenue=gross,
        net_expected_revenue=gross - premium,
        premium_paid=premium,
        expected_residual_penalty=residual,
        total_oic=total,
        consumer_surplus=baseline - total,
    )
