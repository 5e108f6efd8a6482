"""Dispatchable-unit economics: RT dispatch, revenue with and without
executed re-dispatch, and the incremental cash-flow risk of selling cover.

Selling re-dispatch capacity moves the unit's settlement schedule by the
executed amount while its RT market position is priced at the RT price, so
the incremental cash flow per scenario is (da_price - rt_price) * shift.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class UnitKind(str, enum.Enum):
    BASE_LOAD = "base_load"
    MARGINAL = "marginal"


# Feasibility slack in MW. Full-headroom contracts reconstruct range edges by
# subtraction, which can land an ulp outside; the same slack is used by the
# matching and settlement layers.
_MW_EPS = 1e-9


class ContractInfeasibleError(ValueError):
    """Executed shift would push the unit outside its operating range."""


@dataclass(frozen=True)
class DispatchableUnit:
    kind: UnitKind
    p_min: float
    p_max: float
    marginal_cost: float
    da_schedule: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_min <= self.p_max:
            raise ValueError(f"need 0 <= p_min <= p_max, got [{self.p_min}, {self.p_max}]")
        if not self.p_min <= self.da_schedule <= self.p_max:
            raise ValueError(
                f"da_schedule {self.da_schedule} outside [{self.p_min}, {self.p_max}]"
            )
        if not math.isfinite(self.marginal_cost):
            raise ValueError("marginal_cost must be finite")


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


def _first_bad(bad: np.ndarray, values: np.ndarray, what: str, error=ValueError) -> None:
    if bad.any():
        i = int(np.argmax(bad))
        raise error(f"scenario {i}: {what}, got {values[i]}")


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """Joint draws as parallel read-only arrays: draw i is (da[i], rt[i],
    executed[i]). ``weights`` marks an exhaustive enumeration of a discrete
    law; without it the set is a sample. Equality is identity; compare the
    arrays with np.array_equal."""

    da: np.ndarray
    rt: np.ndarray
    executed: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("da", "rt", "executed", "weights"):
            value = getattr(self, name)
            if value is None:
                continue
            arr = np.array(value, dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-d, got shape {arr.shape}")
            if len(arr) != len(self.da):
                raise ValueError(f"{name} has {len(arr)} entries, da has {len(self.da)}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        _first_bad(~(self.da > 0.0), self.da, "da price must be positive")
        _first_bad(~np.isfinite(self.rt), self.rt, "rt price must be finite")
        _first_bad(~np.isfinite(self.executed), self.executed, "executed must be finite")
        if self.weights is not None:
            _first_bad(~(self.weights >= 0.0), self.weights, "weight must be nonnegative")
            total = float(self.weights.sum())
            if not math.isclose(total, 1.0, rel_tol=1e-12):
                raise ValueError(f"weights must sum to 1, got {total!r}")

    def __len__(self) -> int:
        return len(self.da)


@dataclass(frozen=True)
class RiskReport:
    expected_delta: float
    variance_without: float
    variance_with: float
    incremental_variance: float


@dataclass(frozen=True)
class KindComparison:
    base: RiskReport
    marginal: RiskReport
    marginal_less_risky: bool


@dataclass(frozen=True)
class ScenarioModel:
    """Joint generator for (da_price, rt_price, executed).

    The price gap da-rt and the executed shift are zero-mean; ``correlation``
    couples the RT price with the shift (shortage hours: high RT price and
    upward execution together). ``execution_limit`` clips the shift so deep
    tails cannot leave a unit's operating range.
    """

    da_price_mean: float = 30.0
    da_price_std: float = 0.0
    gap_std: float = 5.0
    execution_std: float = 10.0
    correlation: float = 0.0
    execution_limit: float | None = None

    def __post_init__(self) -> None:
        if self.da_price_mean <= 0 or self.da_price_std < 0:
            raise ValueError("da price parameters out of range")
        if self.gap_std < 0 or self.execution_std < 0:
            raise ValueError("spreads must be >= 0")
        if not -1.0 <= self.correlation <= 1.0:
            raise ValueError(f"correlation must be in [-1, 1], got {self.correlation}")
        if self.execution_limit is not None and self.execution_limit <= 0:
            raise ValueError("execution_limit must be positive when set")


# Built-in units for the supply-risk experiment, which reads no scenario file.
# The marginal unit's cost sits above the mean RT price so its dispatch flips
# on scarcity; headroom is symmetric 50 MW and the generator clips shifts to it.
RISK_UNITS = {
    "base_load": DispatchableUnit(
        kind=UnitKind.BASE_LOAD, p_min=150.0, p_max=250.0,
        marginal_cost=15.0, da_schedule=200.0,
    ),
    "marginal": DispatchableUnit(
        kind=UnitKind.MARGINAL, p_min=150.0, p_max=250.0,
        marginal_cost=35.0, da_schedule=200.0,
    ),
}
RISK_HEADROOM = 50.0


def rt_dispatch(u: DispatchableUnit, rt_price: float) -> float:
    """Merit-order RT output: full range against the RT price for marginal
    units, the DA schedule regardless of price for base load. A tie between
    RT price and marginal cost holds the schedule."""
    if u.kind is UnitKind.BASE_LOAD:
        return u.da_schedule
    if rt_price > u.marginal_cost:
        return u.p_max
    if rt_price < u.marginal_cost:
        return u.p_min
    return u.da_schedule


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


def _dispatch_array(u: DispatchableUnit, rt: np.ndarray) -> np.ndarray:
    if u.kind is UnitKind.BASE_LOAD:
        return np.full_like(rt, u.da_schedule)
    return np.where(
        rt > u.marginal_cost,
        u.p_max,
        np.where(rt < u.marginal_cost, u.p_min, u.da_schedule),
    )


def risk_report(u: DispatchableUnit, scenarios: ScenarioSet) -> RiskReport:
    """Moments of the incremental cash flow over a scenario set.

    Unweighted sets are treated as samples (variance with n-1). A weighted
    set is an exhaustive enumeration of a discrete joint law; moments are
    then exact under the weights.
    """
    if len(scenarios) < 2:
        raise ValueError(f"need at least 2 scenarios, got {len(scenarios)}")
    da, rt = scenarios.da, scenarios.rt
    shifted = u.da_schedule + scenarios.executed
    outside = (shifted < u.p_min - _MW_EPS) | (shifted > u.p_max + _MW_EPS)
    _first_bad(outside, shifted, f"shifted schedule outside [{u.p_min}, {u.p_max}]",
               ContractInfeasibleError)
    out = _dispatch_array(u, rt)
    rev0 = da * u.da_schedule + (out - u.da_schedule) * rt
    rev1 = da * shifted + (out - shifted) * rt
    delta = rev1 - rev0

    w = scenarios.weights
    if w is None:
        mean_delta = float(np.mean(delta))
        var0 = float(np.var(rev0, ddof=1))
        var1 = float(np.var(rev1, ddof=1))
    else:
        mean_delta = float(w @ delta)
        var0 = float(w @ (rev0 - w @ rev0) ** 2)
        var1 = float(w @ (rev1 - w @ rev1) ** 2)
    return RiskReport(
        expected_delta=mean_delta,
        variance_without=var0,
        variance_with=var1,
        incremental_variance=var1 - var0,
    )


def compare_kinds(
    base: DispatchableUnit, marginal: DispatchableUnit, scenarios: ScenarioSet
) -> KindComparison:
    """Same scenario set applied to both unit kinds; reports whether selling
    cover adds less cash-flow variance to the marginal unit."""
    if base.kind is not UnitKind.BASE_LOAD or marginal.kind is not UnitKind.MARGINAL:
        raise ValueError("compare_kinds expects (base_load, marginal) units in that order")
    rb = risk_report(base, scenarios)
    rm = risk_report(marginal, scenarios)
    return KindComparison(
        base=rb,
        marginal=rm,
        marginal_less_risky=rm.incremental_variance < rb.incremental_variance,
    )


def generate_scenarios(model: ScenarioModel, n: int, seed: int) -> ScenarioSet:
    """Seeded joint draws. The shift is built from the same normal factor as
    the price gap so corr(rt_price, executed) equals model.correlation when
    the DA price is flat."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    z1, z2, z3 = rng.standard_normal((3, n))
    da = model.da_price_mean + model.da_price_std * z3
    rt = da - model.gap_std * z1
    rho = model.correlation
    shift = model.execution_std * (rho * (-z1) + math.sqrt(1.0 - rho * rho) * z2)
    # Free the normals before the set copies its arrays: lower peak memory.
    del z1, z2, z3
    if model.execution_limit is not None:
        shift = np.clip(shift, -model.execution_limit, model.execution_limit)
    return ScenarioSet(da, rt, shift)


def exhaustive_scenarios(model: ScenarioModel) -> ScenarioSet:
    """Two-point enumeration of the joint law: gap in {-gap_std, +gap_std},
    shift in {-execution_std, +execution_std}, equiprobable, DA price at its
    mean."""
    da, g, s = model.da_price_mean, model.gap_std, model.execution_std
    return ScenarioSet(
        da=[da] * 4, rt=[da + g, da + g, da - g, da - g], executed=[-s, s, -s, s],
        weights=[0.25] * 4,
    )
