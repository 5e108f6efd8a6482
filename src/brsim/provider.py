"""Dispatchable-unit economics: RT dispatch, revenue with and without
executed re-dispatch, and the incremental cash-flow risk of selling cover.

Selling re-dispatch capacity moves the unit's settlement schedule by the
executed amount while its RT market position is priced at the RT price, so
the incremental cash flow per scenario is (da_price - rt_price) * shift.
"""
from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ._arrays import fail_where, unwrap


class UnitKind(str, enum.Enum):
    BASE_LOAD = "base_load"
    MARGINAL = "marginal"


# Feasibility slack in MW. Full-headroom contracts reconstruct range edges by
# subtraction, which can land an ulp outside. The market uses the same slack,
# and treats a fill or execution share at or below it as nothing.
_MW_EPS = 1e-9


class ContractInfeasibleError(ValueError):
    """Executed shift would push the unit outside its operating range."""


@dataclass(frozen=True)
class DispatchableUnit:
    """A unit's kind (a ``UnitKind`` or its value), operating range, cost and
    DA schedule: a scalar for one hour, or an array with one value per hour
    of a day."""

    kind: UnitKind
    p_min: float
    p_max: float
    marginal_cost: float
    da_schedule: float | np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", UnitKind(self.kind))
        if not 0.0 <= self.p_min <= self.p_max:
            raise ValueError(f"need 0 <= p_min <= p_max, got [{self.p_min}, {self.p_max}]")
        inside = (self.p_min <= self.da_schedule) & (self.da_schedule <= self.p_max)
        fail_where(np.logical_not(inside), "da_schedule {} outside [{}, {}]",
                   self.da_schedule, self.p_min, self.p_max)
        if not math.isfinite(self.marginal_cost):
            raise ValueError("marginal_cost must be finite")


# Draws per chunk in risk_report's one walk and in generate_scenarios. A
# chunk's arrays are 128 kB each, so the walk's temporaries stay cache-sized,
# which pays back most of generate_scenarios' redrawn gap normals.
_RISK_CHUNK = 16_384


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """Joint draws at one DA price: draw i is (da, rt[i], executed[i]), with
    ``rt`` and ``executed`` parallel read-only float64 copies of the values
    given. An ``exhaustive`` set lists the equally likely outcomes of a
    discrete law; otherwise the set is a sample. Equality is identity;
    compare the arrays with np.array_equal."""

    da: float
    rt: np.ndarray
    executed: np.ndarray
    exhaustive: bool = False

    def __post_init__(self) -> None:
        da = float(self.da)
        if not 0.0 < da < math.inf:
            raise ValueError(f"da price must be positive and finite, got {da}")
        object.__setattr__(self, "da", da)
        for name in ("rt", "executed"):
            value = getattr(self, name)
            arr = np.array(value, dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-d, got shape {arr.shape}")
            if len(arr) != len(self.rt):
                raise ValueError(f"{name} has {len(arr)} entries, rt has {len(self.rt)}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        draw = range(len(self.rt))
        fail_where(~np.isfinite(self.rt), "scenario {}: rt price must be finite, got {}",
                   draw, self.rt)
        fail_where(~np.isfinite(self.executed), "scenario {}: executed must be finite, got {}",
                   draw, self.executed)

    def __len__(self) -> int:
        return len(self.rt)


@dataclass(frozen=True)
class RiskReport:
    expected_delta: float
    variance_without: float
    variance_with: float
    incremental_variance: float


@dataclass(frozen=True)
class ScenarioModel:
    """Joint generator for (rt_price, executed) at a flat DA price.

    The price gap da-rt and the executed shift are zero-mean; ``correlation``
    couples the RT price with the shift (shortage hours: high RT price and
    upward execution together). ``execution_limit`` clips the shift so deep
    tails cannot leave a unit's operating range.
    """

    da_price_mean: float = 30.0
    gap_std: float = 5.0
    execution_std: float = 10.0
    correlation: float = 0.0
    execution_limit: float | None = None

    def __post_init__(self) -> None:
        for name, op in (("da_price_mean", ">"), ("gap_std", ">="), ("execution_std", ">="),
                         ("execution_limit", ">")):
            value = getattr(self, name)
            if name == "execution_limit" and value is None:
                continue
            if not (math.isfinite(value) and (value > 0.0 if op == ">" else value >= 0.0)):
                raise ValueError(f"{name} must be finite and {op} 0, got {value}")
        if not -1.0 <= self.correlation <= 1.0:
            raise ValueError(f"correlation must be in [-1, 1], got {self.correlation}")


# Built-in units for the supply-risk experiment, which reads no scenario file.
# The marginal unit's cost sits above the mean RT price so its dispatch flips
# on scarcity; headroom is symmetric 50 MW and the generator clips shifts to it.
RISK_UNITS = {
    kind.value: DispatchableUnit(kind=kind, p_min=150.0, p_max=250.0, marginal_cost=cost,
                                 da_schedule=200.0)
    for kind, cost in ((UnitKind.BASE_LOAD, 15.0), (UnitKind.MARGINAL, 35.0))
}
RISK_HEADROOM = 50.0


def rt_dispatch(u: DispatchableUnit, rt_price):
    """Merit-order RT output: full range against the RT price for marginal
    units, the DA schedule regardless of price for base load. A price
    neither above nor below the marginal cost (a tie, NaN) holds the schedule.

    Elementwise over the RT prices and the schedule, selecting values
    without arithmetic; a scalar call returns a Python float."""
    rt = np.asarray(rt_price)
    if u.kind == UnitKind.BASE_LOAD:
        shape = np.broadcast_shapes(rt.shape, np.shape(u.da_schedule))
        return unwrap(np.broadcast_to(u.da_schedule, shape))
    above = rt > u.marginal_cost
    held = np.logical_not(above | (rt < u.marginal_cost))
    return unwrap(np.where(held, u.da_schedule, np.where(above, u.p_max, u.p_min)))


def _revenues(u: DispatchableUnit, da: float, rt, executed, first: int):
    """(revenue without cover, revenue with cover) for draws numbered from
    ``first``, at DA price da."""
    shifted = u.da_schedule + executed
    outside = (shifted < u.p_min - _MW_EPS) | (shifted > u.p_max + _MW_EPS)
    fail_where(outside, "scenario {}: shifted schedule outside [{}, {}], got {}",
               range(first, first + len(shifted)), u.p_min, u.p_max, shifted,
               error=ContractInfeasibleError)
    out = rt_dispatch(u, rt)
    rev0 = da * u.da_schedule + (out - u.da_schedule) * rt
    rev1 = da * shifted + (out - shifted) * rt
    return rev0, rev1


def risk_report(units: Sequence[DispatchableUnit],
                draws: Iterable[ScenarioSet]) -> list[RiskReport]:
    """Moments of each unit's incremental cash flow over the draws, an
    iterable of scenario sets read as one set in order, in one walk.

    A sample's variances divide by n - 1. An exhaustive set lists equally
    likely outcomes, so its moments are exact and its variances divide by n;
    the sets must agree on which they are. Each set is walked in chunks of
    at most _RISK_CHUNK draws: the delta's chunk sums are added with
    math.fsum, and each revenue's chunk mean and squared deviations about it
    are merged pairwise (Chan, Golub & LeVeque 1983), so one chunk gives
    exactly np.mean and np.var. A draw is named by its index in the walk.
    """
    # Per unit: its delta's chunk sums, and each revenue's [mean, M2].
    stats = [([], [0.0, 0.0], [0.0, 0.0]) for _ in units]
    seen, exhaustive = 0, None
    for scenarios in draws:
        if exhaustive not in (None, scenarios.exhaustive):
            raise ValueError("scenario sets disagree on exhaustive")
        exhaustive = scenarios.exhaustive
        for lo in range(0, len(scenarios), _RISK_CHUNK):
            rt = scenarios.rt[lo:lo + _RISK_CHUNK]
            executed = scenarios.executed[lo:lo + _RISK_CHUNK]
            k = len(rt)
            share = k / (seen + k)
            for u, (deltas, *moments) in zip(units, stats):
                rev0, rev1 = _revenues(u, scenarios.da, rt, executed, seen)
                deltas.append(float((rev1 - rev0).sum()))
                for x, mm in zip((rev0, rev1), moments):
                    mean = float(x.sum()) / k
                    x -= mean
                    x *= x
                    d = mean - mm[0]
                    mm[0] += d * share
                    mm[1] += float(x.sum()) + d * d * seen * share
            seen += k
    if seen < 2:
        raise ValueError(f"need at least 2 scenarios, got {seen}")
    div = seen if exhaustive else seen - 1
    return [RiskReport(math.fsum(deltas) / seen, m0 / div, m1 / div, m1 / div - m0 / div)
            for deltas, (_, m0), (_, m1) in stats]


def generate_scenarios(model: ScenarioModel, n: int, seed: int) -> Iterator[ScenarioSet]:
    """Seeded joint draws, as read-only sets of at most _RISK_CHUNK draws in
    order, made as they are asked for in memory that does not grow with n.
    The draws are those of default_rng(seed).standard_normal((2, n)): the
    price gap's n normals, then the shift's. The shift is built from the
    same normal factor as the price gap so corr(rt_price, executed) equals
    model.correlation."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _scenario_chunks(model, n, np.random.default_rng(seed), np.random.default_rng(seed))


def _scenario_chunks(model: ScenarioModel, n: int, gaps: np.random.Generator,
                     shifts: np.random.Generator) -> Iterator[ScenarioSet]:
    # Two generators from one seed: ``shifts`` draws the gap's n normals z1
    # into one chunk's buffer to reach the shift normals z2 after them, and
    # ``gaps`` draws z1 again a chunk at a time. A generator's normals do not
    # depend on how a count is split into calls. Rounded as
    # shift = std_e*(rho*(-z1) + sqrt(1-rho^2)*z2) and rt = da - gap*z1.
    # ScenarioSet copies what it is given, so each chunk is drawn into the
    # same two buffers.
    z1, z2 = np.empty(min(n, _RISK_CHUNK)), np.empty(min(n, _RISK_CHUNK))
    for lo in range(0, n, _RISK_CHUNK):
        shifts.standard_normal(out=z2[:n - lo])
    rho = model.correlation
    for lo in range(0, n, _RISK_CHUNK):
        k = min(_RISK_CHUNK, n - lo)
        rt = gaps.standard_normal(out=z1[:k])  # z1, made the RT price in place
        shift = shifts.standard_normal(out=z2[:k])
        shift *= math.sqrt(1.0 - rho * rho)
        shift += rt * (-rho)
        shift *= model.execution_std
        if model.execution_limit is not None:
            np.clip(shift, -model.execution_limit, model.execution_limit, out=shift)
        rt *= model.gap_std
        np.subtract(model.da_price_mean, rt, out=rt)
        yield ScenarioSet(model.da_price_mean, rt, shift)


def exhaustive_scenarios(model: ScenarioModel) -> ScenarioSet:
    """Two-point enumeration of the joint law: gap in {-gap_std, +gap_std},
    shift in {-execution_std, +execution_std}, four equally likely outcomes,
    DA price at its mean."""
    da, g, s = model.da_price_mean, model.gap_std, model.execution_std
    return ScenarioSet(da, rt=[da + g, da + g, da - g, da - g], executed=[-s, s, -s, s],
                       exhaustive=True)
