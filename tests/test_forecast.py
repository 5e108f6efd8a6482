"""Bounded-output forecast distribution: moment matching, quantiles, tails."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brsim import forecast
from brsim.forecast import ForecastDistribution


def symmetric_case():
    # 100 MW plant, 50 MW mean, 500 MW^2 variance -> shapes (2, 2).
    return forecast.from_mean_variance(100.0, 50.0, 500.0)


class TestMomentMatching:
    def test_symmetric_shapes(self):
        d = symmetric_case()
        assert d.shape_a == pytest.approx(2.0, abs=1e-12)
        assert d.shape_b == pytest.approx(2.0, abs=1e-12)
        assert d.mean == 50.0
        assert d.variance == 500.0
        assert not d.clamped

    def test_uniform_limit(self):
        # Normalized variance 1/12 is the uniform law: shapes (1, 1).
        d = forecast.from_mean_variance(100.0, 50.0, 10000.0 / 12.0)
        assert d.shape_a == pytest.approx(1.0, abs=1e-12)
        assert d.shape_b == pytest.approx(1.0, abs=1e-12)

    def test_ceiling_clamp_reported(self):
        # Requested variance equals the hard bound mu(1-mu); infeasible.
        d = forecast.from_mean_variance(100.0, 50.0, 2500.0)
        assert d.clamped
        assert d.variance == pytest.approx(0.999 * 2500.0)

    def test_floor_clamp_reported(self):
        d = forecast.from_mean_variance(100.0, 50.0, 1e-9)
        assert d.clamped
        assert d.variance == pytest.approx(1e-6 * 2500.0)

    @pytest.mark.parametrize(
        "capacity,mean,variance",
        [
            (0.0, 10.0, 1.0),
            (-5.0, 10.0, 1.0),
            (100.0, 0.0, 1.0),
            (100.0, 100.0, 1.0),
            (100.0, 120.0, 1.0),
            (100.0, 50.0, float("nan")),
            (100.0, 50.0, float("inf")),
        ],
    )
    def test_rejects_bad_inputs(self, capacity, mean, variance):
        with pytest.raises(ValueError):
            forecast.from_mean_variance(capacity, mean, variance)

    def test_mean_conditional_variance(self):
        assert forecast.variance_from_mean(100.0, 50.0) == pytest.approx(125.0)
        assert forecast.variance_from_mean(100.0, 50.0, coefficient=0.2) == pytest.approx(500.0)
        with pytest.raises(ValueError):
            forecast.variance_from_mean(100.0, 50.0, coefficient=0.0)

    def test_from_mean_uses_conditional_variance(self):
        d = forecast.from_mean(100.0, 50.0, coefficient=0.2)
        assert d.variance == pytest.approx(500.0)
        wider = forecast.from_mean(100.0, 50.0, coefficient=0.2, scale=2.0)
        assert wider.variance == pytest.approx(1000.0)
        assert wider.mean == d.mean


class TestPointwise:
    def test_pdf_values(self):
        d = symmetric_case()
        # Beta(2,2) density at the midpoint is 1.5 on [0,1], so 0.015 per MW.
        assert forecast.pdf(d, 50.0) == pytest.approx(0.015, abs=1e-12)
        u = forecast.from_mean_variance(100.0, 50.0, 10000.0 / 12.0)
        assert forecast.pdf(u, 30.0) == pytest.approx(0.01, abs=1e-12)

    def test_pdf_domain(self):
        d = symmetric_case()
        with pytest.raises(ValueError):
            forecast.pdf(d, -1.0)
        with pytest.raises(ValueError):
            forecast.pdf(d, 100.5)

    def test_cdf_value_and_saturation(self):
        d = symmetric_case()
        assert forecast.cdf(d, 75.0) == pytest.approx(0.84375, abs=1e-12)
        assert forecast.cdf(d, -3.0) == 0.0
        assert forecast.cdf(d, 0.0) == 0.0
        assert forecast.cdf(d, 100.0) == 1.0
        assert forecast.cdf(d, 250.0) == 1.0

    def test_quantile_value_and_edges(self):
        d = symmetric_case()
        assert forecast.quantile(d, 0.84375) == pytest.approx(75.0, abs=1e-8)
        assert forecast.quantile(d, 0.0) == 0.0
        assert forecast.quantile(d, 1.0) == 100.0
        with pytest.raises(ValueError):
            forecast.quantile(d, -0.1)
        with pytest.raises(ValueError):
            forecast.quantile(d, 1.1)

    def test_partial_expectation_values(self):
        d = symmetric_case()
        assert forecast.partial_expectation(d, 50.0, 100.0) == pytest.approx(34.375, abs=1e-12)
        assert forecast.partial_expectation(d, 0.0, 100.0) == pytest.approx(50.0, abs=1e-12)
        assert forecast.partial_expectation(d, 30.0, 30.0) == 0.0
        with pytest.raises(ValueError):
            forecast.partial_expectation(d, 60.0, 50.0)
        with pytest.raises(ValueError):
            forecast.partial_expectation(d, -1.0, 50.0)


class TestVarianceScaling:
    def test_scale_preserves_mean_exactly(self):
        d = symmetric_case()
        wider = forecast.scale_variance(d, 2.0)
        assert wider.mean == d.mean
        assert wider.variance == pytest.approx(1000.0)
        narrower = forecast.scale_variance(d, 0.5)
        assert narrower.variance == pytest.approx(250.0)

    def test_scale_rejects_negative(self):
        d = symmetric_case()
        with pytest.raises(ValueError):
            forecast.scale_variance(d, -1.0)

    def test_scale_to_zero_hits_floor(self):
        d = symmetric_case()
        collapsed = forecast.scale_variance(d, 0.0)
        assert collapsed.clamped
        assert collapsed.variance == pytest.approx(1e-6 * 2500.0)


def forecasts(draw):
    # Drawn as shape pairs so both tails stay representable in float64.
    # Near-degenerate laws (shapes << 1) put quantiles below the smallest
    # positive double, where cdf-quantile inversion is unattainable for any
    # algorithm; those are out of scope for the numeric contract.
    capacity = draw(st.floats(min_value=1.0, max_value=5000.0))
    a = draw(st.floats(min_value=0.3, max_value=60.0))
    b = draw(st.floats(min_value=0.3, max_value=60.0))
    total = a + b
    mean = a / total * capacity
    variance = a * b / (total**2 * (total + 1.0)) * capacity**2
    return forecast.from_mean_variance(capacity, mean, variance)


forecast_dists = st.composite(forecasts)()


@given(d=forecast_dists, q1=st.floats(0.0, 1.0), q2=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_cdf_is_monotone(d: ForecastDistribution, q1: float, q2: float):
    p1 = q1 * d.capacity
    p2 = q2 * d.capacity
    if p1 > p2:
        p1, p2 = p2, p1
    assert forecast.cdf(d, p1) <= forecast.cdf(d, p2) + 1e-15


@given(d=forecast_dists, q=st.floats(0.005, 0.995))
@settings(max_examples=60, deadline=None)
def test_quantile_inverts_cdf(d: ForecastDistribution, q: float):
    # Central and moderate-tail levels; deeper tails with sub-1 shapes push
    # the root toward the floating-point floor of the support.
    p = forecast.quantile(d, q)
    assert forecast.cdf(d, p) == pytest.approx(q, abs=1e-9)


@given(d=forecast_dists)
@settings(max_examples=60, deadline=None)
def test_full_partial_expectation_is_the_mean(d: ForecastDistribution):
    assert forecast.partial_expectation(d, 0.0, d.capacity) == pytest.approx(
        d.mean, rel=1e-9
    )


@given(d=forecast_dists, lo_f=st.floats(0.0, 1.0), hi_f=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_partial_expectation_additive(d: ForecastDistribution, lo_f: float, hi_f: float):
    lo, hi = sorted((lo_f * d.capacity, hi_f * d.capacity))
    mid = 0.5 * (lo + hi)
    whole = forecast.partial_expectation(d, lo, hi)
    split = forecast.partial_expectation(d, lo, mid) + forecast.partial_expectation(d, mid, hi)
    assert whole == pytest.approx(split, abs=1e-9 * max(1.0, d.capacity))


@given(d=forecast_dists, factor=st.floats(0.2, 5.0))
@settings(max_examples=60, deadline=None)
def test_variance_scaling_preserves_mean(d: ForecastDistribution, factor: float):
    scaled = forecast.scale_variance(d, factor)
    assert scaled.mean == d.mean
    assert math.isfinite(scaled.shape_a) and scaled.shape_a > 0
    assert math.isfinite(scaled.shape_b) and scaled.shape_b > 0
