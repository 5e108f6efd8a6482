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
# subtraction, which can land an ulp outside. The market uses the same slack,
# and treats a fill or execution share at or below it as nothing.
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


# Draws per chunk of temporaries in risk_report (about 4 MB for a chunk) and
# in generate_scenarios.
_RISK_CHUNK = 65_536


def _first_bad(bad: np.ndarray, values: np.ndarray, what: str, error=ValueError,
               start: int = 0) -> None:
    """Raise for the first flagged draw; ``start`` is the index of values[0]."""
    if bad.any():
        i = int(np.argmax(bad))
        raise error(f"scenario {start + i}: {what}, got {values[i]}")


def _shareable(value) -> bool:
    """A read-only float64 array over memory that no array can write to."""
    if not (isinstance(value, np.ndarray) and value.dtype == np.float64):
        return False
    while isinstance(value, np.ndarray):
        if value.flags.writeable:
            return False
        value = value.base
    return value is None


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """Joint draws as parallel read-only arrays: draw i is (da[i], rt[i],
    executed[i]). ``weights`` marks an exhaustive enumeration of a discrete
    law; without it the set is a sample. Equality is identity; compare the
    arrays with np.array_equal. A read-only float64 input whose ``.base``
    chain is read-only down to the array owning the memory is kept as it is;
    any other, a read-only view of a writeable array too, is copied."""

    da: np.ndarray
    rt: np.ndarray
    executed: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("da", "rt", "executed", "weights"):
            value = getattr(self, name)
            if value is None:
                continue
            arr = value if _shareable(value) else np.array(value, dtype=np.float64)
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


def _revenue_chunks(u: DispatchableUnit, scenarios: ScenarioSet):
    """(slice, revenue without cover, revenue with cover) for each chunk of
    at most _RISK_CHUNK draws, in order."""
    for lo in range(0, len(scenarios), _RISK_CHUNK):
        sl = slice(lo, lo + _RISK_CHUNK)
        da, rt = scenarios.da[sl], scenarios.rt[sl]
        shifted = u.da_schedule + scenarios.executed[sl]
        outside = (shifted < u.p_min - _MW_EPS) | (shifted > u.p_max + _MW_EPS)
        _first_bad(outside, shifted, f"shifted schedule outside [{u.p_min}, {u.p_max}]",
                   ContractInfeasibleError, lo)
        if u.kind is UnitKind.BASE_LOAD:
            out = np.full_like(rt, u.da_schedule)
        else:  # rt_dispatch over the chunk
            out = np.where(rt > u.marginal_cost, u.p_max,
                           np.where(rt < u.marginal_cost, u.p_min, u.da_schedule))
        rev0 = da * u.da_schedule + (out - u.da_schedule) * rt
        rev1 = da * shifted + (out - shifted) * rt
        yield sl, rev0, rev1


def risk_report(u: DispatchableUnit, scenarios: ScenarioSet) -> RiskReport:
    """Moments of the incremental cash flow over a scenario set.

    Unweighted sets are treated as samples (variance with n-1). A weighted
    set is an exhaustive enumeration of a discrete joint law; moments are
    then exact under the weights. Two walks over chunks, for the means and
    then the squared deviations, add their chunk sums with math.fsum; one
    chunk gives exactly np.mean, np.var(ddof=1) or the weighted dot products.
    """
    n = len(scenarios)
    if n < 2:
        raise ValueError(f"need at least 2 scenarios, got {n}")
    w = scenarios.weights
    # A sample divides by n, and by n - 1 for the variance; weights sum to 1.
    mean_div, var_div = (n, n - 1) if w is None else (1.0, 1.0)

    def chunk_sum(x: np.ndarray, sl: slice) -> float:
        return float(x.sum()) if w is None else float(w[sl] @ x)

    sums = ([], [], [])
    for sl, rev0, rev1 in _revenue_chunks(u, scenarios):
        for x, parts in zip((rev0, rev1, rev1 - rev0), sums):
            parts.append(chunk_sum(x, sl))
    mean0, mean1, mean_delta = (math.fsum(parts) / mean_div for parts in sums)
    squares = ([], [])
    for sl, rev0, rev1 in _revenue_chunks(u, scenarios):
        for x, mean, parts in zip((rev0, rev1), (mean0, mean1), squares):
            x -= mean
            x *= x
            parts.append(chunk_sum(x, sl))
    var0, var1 = (math.fsum(parts) / var_div for parts in squares)
    return RiskReport(mean_delta, var0, var1, var1 - var0)


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
    z = np.random.default_rng(seed).standard_normal((3, n))
    z1, z2, z3 = z
    # In place, rounded as shift = std_e*(rho*(-z1) + sqrt(1-rho^2)*z2),
    # da = mean + std*z3 and rt = da - gap*z1; z1*(-rho) is the only
    # temporary, one chunk at a time. The set keeps the read-only buffer.
    rho = model.correlation
    z2 *= math.sqrt(1.0 - rho * rho)
    for lo in range(0, n, _RISK_CHUNK):
        z2[lo:lo + _RISK_CHUNK] += z1[lo:lo + _RISK_CHUNK] * (-rho)
    z2 *= model.execution_std
    if model.execution_limit is not None:
        np.clip(z2, -model.execution_limit, model.execution_limit, out=z2)
    z3 *= model.da_price_std
    z3 += model.da_price_mean
    z1 *= model.gap_std
    np.subtract(z3, z1, out=z1)
    z.flags.writeable = False
    rt, shift, da = z
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
