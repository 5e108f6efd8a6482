"""Variable-generation producer economics.

Two-settlement cash flows for a producer whose day-ahead schedule can miss,
with optional bilateral re-dispatch capacity (BRS) bought from dispatchable
units to absorb part of the miss. Downward BRS covers over-generation (the
counterparty backs its schedule down); upward BRS covers under-generation
(the counterparty ramps up).

The expected-revenue, marginal-value and optimum functions broadcast: any
field of the schedule, penalties, position or forecast, any price or depth,
and the direction (a ``Direction``, its value, or an array of them) may be
an array, and the result takes the broadcast shape; one rule serves both
sides. Checks apply elementwise; a scalar call returns Python scalars.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import forecast
from ._arrays import fail_where, take, unwrap
from .forecast import ForecastDistribution

# How far (in probability) a fractile's level must lie beyond the CDF at the
# schedule, on the zero-cover side, before optimal_quantity skips its
# inverse. betaincinv meets its level to about 1e-15 at levels of 1e-12 and
# above, and forecast.quantile's tail fallback to 1e-9 below, so a skipped
# cell's inverse would land on the schedule's zero-cover side.
_SKIP_GUARD = 1e-6
# Below the smallest normal float betaincinv returns 0 or that float, not
# the quantile, so a cell is skipped only where the schedule's point on
# [0, 1] is at least twice it.
_SKIP_FLOOR = 2.0 * np.finfo(float).tiny


class Direction(str, enum.Enum):
    """Re-dispatch direction, named by what the capacity covers for the buyer."""

    DOWN_COVERS_OVER = "down"
    UP_COVERS_UNDER = "up"

    __str__ = str.__str__  # the value, also in numpy string arrays


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


def _take(mask, d: ForecastDistribution, *arrays):
    """mask broadcast against d's fields and the arrays; then, where it is
    true, d as a ForecastDistribution of 1-d fields and each array."""
    dist = [getattr(d, f.name) for f in fields(d)]
    mask = np.broadcast_to(mask, np.broadcast(mask, *dist, *arrays).shape)
    return mask, ForecastDistribution(*take(mask, *dist)), *take(mask, *arrays)


def _spread(mask, fill, value):
    """A copy of fill broadcast to mask's shape, with value where mask is true."""
    out = np.array(np.broadcast_to(fill, mask.shape), dtype=float)
    out[mask] = value
    return out


def _is_up(direction):
    """Whether each element of ``direction`` is UP; anything but DOWN or UP
    is refused."""
    side = np.asarray(direction)
    up = side == UP
    fail_where(np.logical_not(up | (side == DOWN)),
               "direction must be 'down' or 'up', got {!r}", side)
    return up


def _sides(*inputs):
    """[DOWN, UP] on a new leading axis, ahead of every axis of the inputs:
    numbers, arrays, or dataclasses of them."""
    ndim = max(np.ndim(x) for obj in inputs
               for x in (vars(obj).values() if is_dataclass(obj) else [obj]))
    return np.array([DOWN, UP]).reshape(-1, *[1] * ndim)


def _terms_below(d: ForecastDistribution, schedule, edge, cover):
    """(CDF, partial expectation from 0) at each band edge. Only edges with
    cover are evaluated; elsewhere the edge is the schedule, evaluated once
    per forecast element and spread."""
    def terms(d, p):
        return forecast.cdf(d, p), forecast.partial_expectation(d, p)

    mask, *part = _take(np.not_equal(cover, 0.0), d, edge)
    return [_spread(mask, t, v) for t, v in zip(terms(d, schedule), terms(*part))]


def expected_revenue(
    s: VgSchedule, pf: PenaltyFactors, pos: BrsPosition, d: ForecastDistribution
):
    """Expectation under the forecast, in closed form, of the settled
    revenue with the covered band [schedule - up_qty, schedule + down_qty]
    paid at the full DA price and deviations beyond it at the penalized DA
    price.

    Gross of premiums. Splits the support at the covered band's edges and
    reduces each piece to CDF / partial-expectation terms; the partial
    expectations of the three pieces come from the two below the edges,
    both edges in one evaluation.
    """
    _check_position_fits(pos, s, d)
    lam = s.da_price
    lo = np.maximum(s.da_quantity - pos.up_qty, 0.0)
    hi = np.minimum(s.da_quantity + pos.down_qty, d.capacity)
    up = _sides(s, pos, d) == UP
    (f_hi, f_lo), (pe_below_hi, pe_below) = _terms_below(
        d, s.da_quantity, np.where(up, lo, hi), np.where(up, pos.up_qty, pos.down_qty)
    )
    pe_mid = pe_below_hi - pe_below
    pe_above = d.mean - pe_below_hi
    below = (1.0 + pf.under) * pe_below - pf.under * lo * f_lo
    above = pf.over * hi * (1.0 - f_hi) + (1.0 - pf.over) * pe_above
    return unwrap(lam * (below + pe_mid + above))


def marginal_utility(
    s: VgSchedule, pf: PenaltyFactors, d: ForecastDistribution, direction: Direction, r
):
    """Marginal value ($/MW) of the next MW of cover at depth r: over-generation
    cover for DOWN, under-generation cover for UP."""
    _check_schedule_fits(s, d)
    up = _is_up(direction)
    headroom = np.where(up, s.da_quantity, d.capacity - s.da_quantity)
    fail_where(
        np.logical_not((0.0 <= r) & (r <= headroom + 1e-9)),
        "r={} outside [0, {}]", r, headroom,
    )
    below = forecast.cdf(d, np.where(up, s.da_quantity - r, s.da_quantity + r))
    factor = np.where(up, pf.under, pf.over)
    return unwrap(s.da_price * factor * np.where(up, below, 1.0 - below))


def optimal_quantity(
    s: VgSchedule, pf: PenaltyFactors, d: ForecastDistribution, direction: Direction, price
):
    """Critical-fractile optimum at a flat premium price.

    The cover is positive exactly where the fractile's level lies on the
    cover side of the CDF at the schedule, F(S): above it for DOWN, below it
    for UP. F(S) is evaluated on the forecast and schedule alone, never per
    price. The inverse CDF is taken only on cells that buy and whose level
    is not beyond F(S) on the other side by more than _SKIP_GUARD, or whose
    schedule lies below _SKIP_FLOOR of capacity; every other cell gets 0.0.
    """
    _check_schedule_fits(s, d)
    fail_where(price < 0.0, "premium price must be >= 0, got {}", price)
    up = _is_up(direction)
    factor = np.where(up, pf.under, pf.over)
    # The first MW of cover is worth lam * factor; at or above that price
    # nothing is bought. Those cells get fractile 0, which keeps the
    # division safe, and take no inverse.
    first_mw = s.da_price * factor
    buys = np.logical_not((factor <= 0.0) | (price >= first_mw))
    fractile = np.where(buys, price, 0.0) / np.where(buys, first_mw, 1.0)
    at_schedule = forecast.cdf(d, s.da_quantity)
    # Comparisons are false for nan, so a nan level is never skipped and
    # quantile still rejects it.
    level = np.where(up, fractile, 1.0 - fractile)
    skip = np.where(up, level > at_schedule + _SKIP_GUARD, level < at_schedule - _SKIP_GUARD)
    skip = skip & (s.da_quantity / d.capacity >= _SKIP_FLOOR)
    need, part, level, schedule, up = _take(buys & np.logical_not(skip), d, level, s.da_quantity, up)
    point = forecast.quantile(part, level)
    depth = np.where(up, schedule - point, point - schedule)
    headroom = np.where(up, schedule, part.capacity - schedule)
    return unwrap(_spread(need, 0.0, np.maximum(np.minimum(depth, headroom), 0.0)))


def optimal_position(
    s: VgSchedule, pf: PenaltyFactors, d: ForecastDistribution, down_price, up_price
) -> BrsPosition:
    """Profit-maximizing cover at flat premium prices, each side on its own
    (the objective is separable), both in one evaluation."""
    side = _sides(s, pf, d, down_price, up_price)
    down_qty, up_qty = optimal_quantity(s, pf, d, side, np.where(side == UP, up_price, down_price))
    return BrsPosition(unwrap(down_qty), unwrap(up_qty), down_price, up_price)


def demand_curve(
    s: VgSchedule, pf: PenaltyFactors, d: ForecastDistribution, direction: Direction, n_points: int
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
    headroom = np.where(_is_up(direction), s.da_quantity, d.capacity - s.da_quantity)
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
