"""Bounded-output forecast distribution: moment matching, quantiles, tails."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
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
        assert oracles.pdf(d, 50.0) == pytest.approx(0.015, abs=1e-12)
        u = forecast.from_mean_variance(100.0, 50.0, 10000.0 / 12.0)
        assert oracles.pdf(u, 30.0) == pytest.approx(0.01, abs=1e-12)

    def test_pdf_domain(self):
        d = symmetric_case()
        with pytest.raises(ValueError):
            oracles.pdf(d, -1.0)
        with pytest.raises(ValueError):
            oracles.pdf(d, 100.5)

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
        upper_half = forecast.partial_expectation(d, 100.0) - forecast.partial_expectation(d, 50.0)
        assert upper_half == pytest.approx(34.375, abs=1e-12)
        assert forecast.partial_expectation(d, 100.0) == pytest.approx(50.0, abs=1e-12)
        assert forecast.partial_expectation(d, 0.0) == 0.0
        with pytest.raises(ValueError):
            forecast.partial_expectation(d, 100.5)
        with pytest.raises(ValueError):
            forecast.partial_expectation(d, -1.0)


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


def forecasts(draw, max_shape=60.0):
    # Drawn as shape pairs so both tails stay representable in float64.
    # Near-degenerate laws (shapes << 1) put quantiles below the smallest
    # positive double, where cdf-quantile inversion is unattainable for any
    # algorithm; those are out of scope for the numeric contract.
    capacity = draw(st.floats(min_value=1.0, max_value=5000.0))
    a = draw(st.floats(min_value=0.3, max_value=max_shape))
    b = draw(st.floats(min_value=0.3, max_value=max_shape))
    total = a + b
    mean = a / total * capacity
    variance = a * b / (total**2 * (total + 1.0)) * capacity**2
    return forecast.from_mean_variance(capacity, mean, variance)


forecast_dists = st.composite(forecasts)()
# Shapes in [0.3, 1]: the density is unbounded at one or both support edges.
sub_one_dists = st.composite(forecasts)(max_shape=1.0)


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


def assert_quantile_matches_oracle(d: ForecastDistribution, q: float):
    p = forecast.quantile(d, q)
    assert forecast.cdf(d, p) == pytest.approx(q, abs=1e-9)
    reference = oracles.quantile(d, q)
    # Below q ~ 1e-4 with a sub-1 shape the root find's x tolerance, not the
    # level, ends its search, so it can miss q by far more than 1e-9.
    # Wherever it meets the bound, the two quantiles are the same point
    # (they differed by at most 9e-15 x capacity over 40,000 probes).
    if abs(forecast.cdf(d, reference) - q) <= 1e-9:
        assert abs(p - reference) <= 1e-12 * d.capacity


@given(
    d=sub_one_dists,
    q=st.one_of(st.floats(1e-12, 0.005), st.floats(0.995, 0.999)),
)
@settings(max_examples=200, deadline=None)
def test_quantile_matches_oracle_near_support_edges(d: ForecastDistribution, q: float):
    assert_quantile_matches_oracle(d, q)


# Far-tail levels stop at 1e-290: below it the CDF near the quantile is
# subnormal, betainc loses its relative accuracy, and neither inversion
# can place the point.
@given(d=forecast_dists, q=st.one_of(st.floats(0.005, 0.995), st.floats(1e-290, 1e-12)))
@settings(max_examples=200, deadline=None)
def test_quantile_matches_oracle(d: ForecastDistribution, q: float):
    assert_quantile_matches_oracle(d, q)


@pytest.mark.parametrize(
    "a, b, q",
    [(3.5, 3.5, 8.6e-269), (3.5, 3.5, 1e-150), (2.0, 5.0, 1e-200), (60.0, 0.3, 1e-300),
     (0.3, 0.3, 1e-300), (1.0, 1.0, 5e-324)],
)
def test_quantile_far_in_the_lower_tail(a, b, q):
    # scipy's betaincinv gives nan at some of these levels.
    total = a + b
    d = forecast.from_mean_variance(
        10.0, a / total * 10.0, a * b / (total**2 * (total + 1.0)) * 100.0
    )
    p = forecast.quantile(d, q)
    assert 0.0 <= p <= d.capacity
    assert forecast.cdf(d, p) == pytest.approx(q, abs=1e-9)
    if p > 1e-300 * d.capacity:
        # Not lost to underflow, so the level is met to relative accuracy.
        assert forecast.cdf(d, p) == pytest.approx(q, rel=1e-9)
    assert forecast.quantile(d, np.array([0.5, q]))[1] == p


def test_quantile_where_betaincinv_misses_its_level():
    # At a = 29, b = 0.45 and q = 1e-290, betaincinv returns a finite point
    # near 6e-12 whose CDF is 0. The quantile meets the level to relative
    # accuracy instead, and agrees with the root-find oracle.
    a, b, q = 29.0, 0.45, 1e-290
    total = a + b
    d = forecast.from_mean_variance(
        10.0, a / total * 10.0, a * b / (total**2 * (total + 1.0)) * 100.0
    )
    p = forecast.quantile(d, q)
    assert forecast.cdf(d, p) == pytest.approx(q, rel=1e-9)
    assert p == pytest.approx(oracles.quantile(d, q), rel=1e-9)
    assert forecast.quantile(d, np.array([0.5, q]))[1] == p


def test_quantile_tail_leaves_other_elements_alone():
    # At the variance ceiling's shapes (a = b = 5e-4) the tail's leading-term
    # inverse overflows at levels outside the tail; it is taken only on the
    # elements in the tail or below the smallest normal float, so no
    # RuntimeWarning (an error under pytest) is raised. At 0.3 the root,
    # about 1e-444, underflows.
    d = forecast.from_mean(100.0, np.array([50.0, 50.0]), 0.05, 1000.0)
    assert d.shape_a.tolist() == d.shape_b.tolist() == pytest.approx([5e-4, 5e-4], rel=0.01)
    got = forecast.quantile(d, np.array([1e-14, 0.3]))
    assert got.tolist() == [0.0, 0.0]
    one = forecast.from_mean(100.0, 50.0, 0.05, 1000.0)
    assert got.tolist() == [forecast.quantile(one, 1e-14), forecast.quantile(one, 0.3)]


def test_quantile_below_the_smallest_normal_float():
    # Up to q = 0.17 the quantile of these shapes lies below the smallest
    # normal float, where betaincinv returns that float or 0 whatever q: the
    # leading-term root replaces it. Up to 0.147 the root underflows to 0.
    a, b = 0.0024, 0.046
    d = ForecastDistribution(1.0, a / (a + b), 0.0, a, b)
    low = np.array([1e-6, 0.01, 0.1, 0.147])
    assert forecast.quantile(d, low).tolist() == [0.0] * 4
    assert [forecast.quantile(d, q) for q in low.tolist()] == [0.0] * 4
    x = forecast.quantile(d, 0.17)
    assert 0.0 < x < np.finfo(float).tiny
    assert forecast.cdf(d, x) == pytest.approx(0.17, rel=1e-12)
    for q in (0.2, 0.5):
        assert forecast.cdf(d, forecast.quantile(d, q)) == pytest.approx(q, rel=1e-12)
    # Where the root would overflow (0.9), betaincinv's point is kept.
    ceiling = forecast.from_mean(100.0, 50.0, 0.05, 1000.0)
    assert forecast.quantile(ceiling, np.array([0.3, 0.9])).tolist() == [0.0, 100.0]


def test_quantile_replaces_the_smallest_normal_float_itself(monkeypatch):
    # No shapes were found where betaincinv returns exactly the smallest
    # normal float (below it, these shapes get the largest subnormal or 0), so
    # a stand-in returns it for one element: that element takes the
    # leading-term root too, and the others keep their points.
    tiny = np.finfo(float).tiny
    a, b = 0.0024, 0.046
    d = ForecastDistribution(10.0, a / (a + b), 0.0, a, b)
    q = np.array([0.2, 0.17, 0.5])
    before = forecast.quantile(d, q)
    real = forecast.special

    class Special:
        def __getattr__(self, name):
            return getattr(real, name)

        def betaincinv(self, a, b, q):
            x = real.betaincinv(a, b, q)
            x[1] = tiny
            return x

    monkeypatch.setattr(forecast, "special", Special())
    got = forecast.quantile(d, q)
    root = np.exp((np.log(0.17) + np.log(a) + real.betaln(a, b)) / a)
    assert 0.0 < root < tiny
    assert got[1] == pytest.approx(root * 10.0, rel=1e-12) and got[1] != tiny * 10.0
    assert forecast.cdf(d, got[1]) == pytest.approx(0.17, rel=1e-12)
    assert got[[0, 2]].tolist() == before[[0, 2]].tolist()


@given(d=forecast_dists)
@settings(max_examples=60, deadline=None)
def test_full_partial_expectation_is_the_mean(d: ForecastDistribution):
    assert forecast.partial_expectation(d, d.capacity) == pytest.approx(
        d.mean, rel=1e-9
    )


@given(d=forecast_dists, factor=st.floats(0.2, 5.0))
@settings(max_examples=60, deadline=None)
def test_variance_scaling_preserves_mean(d: ForecastDistribution, factor: float):
    scaled = forecast.scale_variance(d, factor)
    assert scaled.mean == d.mean
    assert math.isfinite(scaled.shape_a) and scaled.shape_a > 0
    assert math.isfinite(scaled.shape_b) and scaled.shape_b > 0


class TestBroadcast:
    # Means across the support and variances that hit the floor, the
    # interior and the ceiling; broadcast to a (4, 3) grid.
    MEAN = np.array([[5.0, 50.0, 95.0]])
    VARIANCE = np.array([[1e-9], [30.0], [500.0], [2500.0]])

    def test_from_mean_variance_matches_scalar_calls(self):
        d = forecast.from_mean_variance(100.0, self.MEAN, self.VARIANCE)
        assert d.shape_a.shape == d.shape_b.shape == d.variance.shape == (4, 3)
        assert d.clamped.dtype == bool and d.clamped.shape == (4, 3)
        assert d.clamped.any() and not d.clamped.all()
        for i, j in np.ndindex(4, 3):
            one = forecast.from_mean_variance(
                100.0, float(self.MEAN[0, j]), float(self.VARIANCE[i, 0])
            )
            assert d.shape_a[i, j] == one.shape_a
            assert d.shape_b[i, j] == one.shape_b
            assert d.variance[i, j] == one.variance
            assert d.clamped[i, j] == one.clamped

    def test_scalar_call_returns_python_scalars(self):
        d = symmetric_case()
        assert type(d.shape_a) is float and type(d.clamped) is bool
        assert type(forecast.cdf(d, 30.0)) is float
        assert type(forecast.quantile(d, 0.3)) is float
        assert type(forecast.partial_expectation(d, 30.0)) is float

    def test_primitives_match_scalar_calls(self):
        d = forecast.scale_variance(
            forecast.from_mean_variance(100.0, self.MEAN, 500.0), self.VARIANCE / 500.0
        )
        p = np.array([-5.0, 0.0, 20.0, 99.0, 100.0, 130.0])[:, None, None]
        q = np.array([0.0, 0.001, 0.3, 0.999, 1.0])[:, None, None]
        lo = np.array([0.0, 10.0, 60.0])
        cdf, quantile = forecast.cdf(d, p), forecast.quantile(d, q)
        pe = forecast.partial_expectation(d, 100.0 - lo / 2) - forecast.partial_expectation(d, lo)
        for i, j in np.ndindex(4, 3):
            one = forecast.from_mean_variance(100.0, d.mean[0, j], d.variance[i, j])
            for k, level in enumerate(p[:, 0, 0]):
                assert cdf[k, i, j] == forecast.cdf(one, float(level))
            for k, level in enumerate(q[:, 0, 0]):
                assert quantile[k, i, j] == forecast.quantile(one, float(level))
            hi = forecast.partial_expectation(one, float(100.0 - lo[j] / 2))
            assert pe[i, j] == hi - forecast.partial_expectation(one, float(lo[j]))


# (scalar call, the same call with the bad value inside an array)
BAD_ELEMENTS = {
    "capacity": (
        lambda: forecast.from_mean_variance(-5.0, 10.0, 1.0),
        lambda: forecast.from_mean_variance(np.array([100.0, -5.0]), 10.0, 1.0),
    ),
    "mean": (
        lambda: forecast.from_mean_variance(100.0, 120.0, 1.0),
        lambda: forecast.from_mean_variance(100.0, np.array([50.0, 120.0, 130.0]), 1.0),
    ),
    "variance": (
        lambda: forecast.from_mean_variance(100.0, 50.0, math.nan),
        lambda: forecast.from_mean_variance(100.0, 50.0, np.array([[1.0], [math.nan]])),
    ),
    "coefficient": (
        lambda: forecast.variance_from_mean(100.0, 50.0, coefficient=0.0),
        lambda: forecast.variance_from_mean(100.0, 50.0, coefficient=np.array([0.1, 0.0])),
    ),
    "quantile level": (
        lambda: forecast.quantile(symmetric_case(), 1.1),
        lambda: forecast.quantile(symmetric_case(), np.array([0.5, 1.1, -0.1])),
    ),
    "interval": (
        lambda: forecast.partial_expectation(symmetric_case(), 150.0),
        lambda: forecast.partial_expectation(symmetric_case(), np.array([50.0, 150.0, -1.0])),
    ),
    "scale factor": (
        lambda: forecast.scale_variance(symmetric_case(), -1.0),
        lambda: forecast.scale_variance(symmetric_case(), np.array([1.0, -1.0])),
    ),
}


@pytest.mark.parametrize("scalar_call, array_call", BAD_ELEMENTS.values(), ids=list(BAD_ELEMENTS))
def test_bad_element_raises_scalar_message(scalar_call, array_call):
    with pytest.raises(ValueError) as scalar:
        scalar_call()
    with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
        array_call()
