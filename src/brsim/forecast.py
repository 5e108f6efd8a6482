"""Probabilistic wind-output forecasts on a bounded power interval.

A forecast is a Beta law on [0, capacity], moment-matched to a requested
(mean, variance). All public quantities are in MW on the physical scale;
shape arithmetic happens on the normalized [0, 1] scale internally.

Every function takes scalars or arrays that broadcast together, and checks
its arguments elementwise. A scalar call returns Python scalars; an array
call returns arrays, and a ``ForecastDistribution`` built from arrays holds
arrays in its fields.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from ._arrays import any_true, fail_where, take, unwrap

# Feasible band for the normalized variance, relative to the hard Beta bound
# mu*(1-mu). Requests outside the band are pulled to the nearer edge and the
# clamping is reported on the returned distribution.
VARIANCE_FLOOR = 1e-6
VARIANCE_CEIL = 0.999
# Below this level quantile checks betaincinv's point against its level.
_TAIL_LEVEL = 1e-12


@dataclass(frozen=True)
class ForecastDistribution:
    """Beta-distributed power output on [0, capacity] MW.

    ``clamped`` records, per element, whether the requested variance had to
    be pulled into the feasible band at construction time.
    """

    capacity: float | np.ndarray
    mean: float | np.ndarray
    variance: float | np.ndarray
    shape_a: float | np.ndarray
    shape_b: float | np.ndarray
    clamped: bool | np.ndarray = False


def from_mean_variance(capacity, mean, variance) -> ForecastDistribution:
    """Moment-match a Beta law to (mean, variance) on [0, capacity].

    Infeasible variances are clamped to the nearest feasible edge rather than
    rejected; ``clamped`` is true where that happened. The fields broadcast
    against each other: ``shape_a``, ``shape_b``, ``variance`` and
    ``clamped`` take the broadcast shape of the three arguments.
    """
    # Comparisons, not isfinite: they are false for nan, and a mean below
    # a finite capacity is finite.
    fail_where(
        np.logical_not((0.0 < capacity) & (capacity < np.inf)),
        "capacity must be positive, got {}", capacity,
    )
    fail_where(
        np.logical_not((0.0 < mean) & (mean < capacity)),
        "mean must lie strictly inside (0, {}), got {}", capacity, mean,
    )
    fail_where(
        np.logical_not(np.isfinite(variance)), "variance must be finite, got {}", variance
    )

    mean_n = mean / capacity
    bound = mean_n * (1.0 - mean_n)
    lo = VARIANCE_FLOOR * bound
    hi = VARIANCE_CEIL * bound
    requested = variance / capacity**2
    var_n = np.minimum(np.maximum(requested, lo), hi)
    # Standard moment equations: a+b = mu(1-mu)/v - 1, split by the mean.
    total = bound / var_n - 1.0
    return ForecastDistribution(
        capacity=capacity,
        mean=mean_n * capacity,
        variance=unwrap(var_n * capacity**2),
        shape_a=unwrap(mean_n * total),
        shape_b=unwrap((1.0 - mean_n) * total),
        clamped=unwrap((requested < lo) | (requested > hi)),
    )


def variance_from_mean(capacity, mean, coefficient=0.05):
    """Mean-conditional variance: sigma_n^2 = c * mu_n * (1 - mu_n)."""
    fail_where(
        coefficient <= 0, "variance coefficient must be positive, got {}", coefficient
    )
    return coefficient * mean * (capacity - mean)


def from_mean(capacity, mean, coefficient=0.05, scale=1.0) -> ForecastDistribution:
    """Forecast from a point mean, with variance conditional on that mean."""
    base = variance_from_mean(capacity, mean, coefficient)
    return from_mean_variance(capacity, mean, base * scale)


def cdf(d: ForecastDistribution, p):
    """P(output <= p); saturates to 0/1 outside the support."""
    x = np.minimum(np.maximum(p / d.capacity, 0.0), 1.0)
    return unwrap(special.betainc(d.shape_a, d.shape_b, x))


def quantile(d: ForecastDistribution, q):
    """Inverse CDF in MW."""
    a, b = d.shape_a, d.shape_b
    x = special.betaincinv(a, b, q)
    # betaincinv returns nan for every level outside [0, 1], so the check
    # runs only when some element is nan (the only value unequal to itself).
    lost = x != x
    if any_true(lost):
        fail_where(
            np.logical_not((0.0 <= q) & (q <= 1.0)),
            "quantile level must be in [0, 1], got {}", q,
        )
    # Far in the lower tail betaincinv also returns nan (from q = 1e-90 for
    # some shapes), a point whose CDF misses q (0 at q = 1e-290, a = 29,
    # b = 0.45), or, where the quantile lies below the smallest normal
    # float, that float or 0 whatever q (a = 0.0024, b = 0.046 up to
    # q = 0.17). There the CDF is x**a / (a * B(a, b)) to within a relative
    # O(x / a): invert that. Below the smallest normal it is taken as is,
    # since in level space the normal float can look closer; elsewhere it
    # is kept where it meets q more closely. Only those elements are taken:
    # elsewhere the exponent can overflow (at the variance ceiling's shapes)
    # for a value that is then dropped.
    below = (0.0 < q) & (x <= np.finfo(float).tiny)
    redo = lost | below | (0.0 < q) & (q < _TAIL_LEVEL)
    if any_true(redo):
        a, b, q, near, lost, below = take(redo, a, b, q, x, lost, below)
        lead = np.exp((np.log(q) + np.log(a) + special.betaln(a, b)) / a)
        closer = np.abs(special.betainc(a, b, lead) - q) < np.abs(special.betainc(a, b, near) - q)
        x = np.array(x)
        x[redo] = np.where(lost | below | closer, lead, near)
    return unwrap(x * d.capacity)


def partial_expectation(d: ForecastDistribution, p):
    """integral of x * f(x) dx over [0, p] MW.

    Uses the reduction x*Beta(a,b)(x) = mean_n * Beta(a+1,b)(x), so the value
    is an incomplete-Beta term rather than a quadrature.
    """
    fail_where(
        np.logical_not((0.0 <= p) & (p <= d.capacity)), "p {} not within [0, {}]", p, d.capacity
    )
    return unwrap(d.mean * special.betainc(d.shape_a + 1.0, d.shape_b, p / d.capacity))


def scale_variance(d: ForecastDistribution, factor) -> ForecastDistribution:
    """Same mean, variance multiplied by factor (clamped to the feasible band)."""
    fail_where(
        np.logical_not(np.isfinite(factor)) | (factor < 0),
        "scale factor must be finite and >= 0, got {}", factor,
    )
    return from_mean_variance(d.capacity, d.mean, d.variance * factor)
