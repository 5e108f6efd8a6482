"""Probabilistic wind-output forecasts on a bounded power interval.

A forecast is a Beta law on [0, capacity], moment-matched to a requested
(mean, variance). All public quantities are in MW on the physical scale;
shape arithmetic happens on the normalized [0, 1] scale internally.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special
from scipy.optimize import brentq
from scipy.stats import beta as _beta

# Feasible band for the normalized variance, relative to the hard Beta bound
# mu*(1-mu). Requests outside the band are pulled to the nearer edge and the
# clamping is reported on the returned distribution.
VARIANCE_FLOOR = 1e-6
VARIANCE_CEIL = 0.999

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


@dataclass(frozen=True)
class ForecastDistribution:
    """Beta-distributed power output on [0, capacity] MW.

    ``clamped`` records whether the requested variance had to be pulled into
    the feasible band at construction time.
    """

    capacity: float
    mean: float
    variance: float
    shape_a: float
    shape_b: float
    clamped: bool = False


def _clamp_normalized_variance(var_n: float, mean_n: float) -> tuple[float, bool]:
    bound = mean_n * (1.0 - mean_n)
    lo = VARIANCE_FLOOR * bound
    hi = VARIANCE_CEIL * bound
    if var_n < lo:
        return lo, True
    if var_n > hi:
        return hi, True
    return var_n, False


def from_mean_variance(capacity: float, mean: float, variance: float) -> ForecastDistribution:
    """Moment-match a Beta law to (mean, variance) on [0, capacity].

    Infeasible variances are clamped to the nearest feasible edge rather than
    rejected; the result carries ``clamped=True`` in that case.
    """
    if not math.isfinite(capacity) or capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    if not math.isfinite(mean) or not 0.0 < mean < capacity:
        raise ValueError(f"mean must lie strictly inside (0, {capacity}), got {mean}")
    if not math.isfinite(variance):
        raise ValueError(f"variance must be finite, got {variance}")

    mean_n = mean / capacity
    var_n, clamped = _clamp_normalized_variance(variance / capacity**2, mean_n)
    # Standard moment equations: a+b = mu(1-mu)/v - 1, split by the mean.
    total = mean_n * (1.0 - mean_n) / var_n - 1.0
    return ForecastDistribution(
        capacity=capacity,
        mean=mean_n * capacity,
        variance=var_n * capacity**2,
        shape_a=mean_n * total,
        shape_b=(1.0 - mean_n) * total,
        clamped=clamped,
    )


def variance_from_mean(capacity: float, mean: float, coefficient: float = 0.05) -> float:
    """Mean-conditional variance: sigma_n^2 = c * mu_n * (1 - mu_n)."""
    if coefficient <= 0:
        raise ValueError(f"variance coefficient must be positive, got {coefficient}")
    return coefficient * mean * (capacity - mean)


def from_mean(
    capacity: float,
    mean: float,
    coefficient: float = 0.05,
    scale: float = 1.0,
) -> ForecastDistribution:
    """Forecast from a point mean, with variance conditional on that mean."""
    base = variance_from_mean(capacity, mean, coefficient)
    return from_mean_variance(capacity, mean, base * scale)


def pdf(d: ForecastDistribution, p: float) -> float:
    """Density at output level p MW."""
    if not 0.0 <= p <= d.capacity:
        raise ValueError(f"p={p} outside [0, {d.capacity}]")
    return float(_beta.pdf(p / d.capacity, d.shape_a, d.shape_b)) / d.capacity


def cdf(d: ForecastDistribution, p: float) -> float:
    """P(output <= p); saturates to 0/1 outside the support."""
    if p <= 0.0:
        return 0.0
    if p >= d.capacity:
        return 1.0
    return float(special.betainc(d.shape_a, d.shape_b, p / d.capacity))


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


def partial_expectation(d: ForecastDistribution, lo: float, hi: float) -> float:
    """integral of p * f(p) dp over [lo, hi] MW.

    Uses the reduction x*Beta(a,b)(x) = mean_n * Beta(a+1,b)(x), so the value
    is a difference of incomplete-Beta terms rather than a quadrature.
    """
    if not 0.0 <= lo <= hi <= d.capacity:
        raise ValueError(f"interval [{lo}, {hi}] not within [0, {d.capacity}]")
    a, b = d.shape_a, d.shape_b
    tail = special.betainc(a + 1.0, b, hi / d.capacity) - special.betainc(
        a + 1.0, b, lo / d.capacity
    )
    return d.mean * float(tail)


def scale_variance(d: ForecastDistribution, factor: float) -> ForecastDistribution:
    """Same mean, variance multiplied by factor (clamped to the feasible band)."""
    if not math.isfinite(factor) or factor < 0:
        raise ValueError(f"scale factor must be finite and >= 0, got {factor}")
    return from_mean_variance(d.capacity, d.mean, d.variance * factor)
