"""Producer-side economics: piecewise revenues, expectations, optimal cover."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

import oracles
from brsim import forecast, vg
from brsim.vg import (
    DOWN,
    UP,
    BrsPosition,
    PenaltyFactors,
    VgSchedule,
    ZERO_POSITION,
)


@pytest.fixture
def beta22():
    # 100 MW plant, symmetric Beta(2,2) forecast around 50 MW.
    return forecast.from_mean_variance(100.0, 50.0, 500.0)


@pytest.fixture
def mid_schedule():
    return VgSchedule(da_quantity=50.0, da_price=30.0)


PF = PenaltyFactors(over=0.3, under=0.3)


class TestDirection:
    def test_direction_values_are_wire_labels(self):
        assert DOWN.value == "down"
        assert UP.value == "up"

    def test_numpy_reads_the_values(self):
        assert np.array([DOWN, UP]).tolist() == ["down", "up"]
        assert np.where(np.array([False, True]), UP, DOWN).tolist() == ["down", "up"]

    def test_values_and_arrays_give_the_members_bits(self, mid_schedule, beta22):
        # Each side of one array call, or a value string, reads exactly as
        # a call with the member. An array of directions of shape (2, 1)
        # puts the sides ahead of the depths, prices or grid.
        def bits(x):
            return np.shape(x), np.asarray(x).tobytes()

        pf = PenaltyFactors(over=0.3, under=0.4)
        calls = {
            "marginal_utility": lambda direction: vg.marginal_utility(
                mid_schedule, pf, beta22, direction, np.array([0.0, 7.5, 30.0])),
            "optimal_quantity": lambda direction: vg.optimal_quantity(
                mid_schedule, pf, beta22, direction, np.array([0.0, 1.5, 4.0, 20.0])),
            "demand_curve": lambda direction: vg.demand_curve(
                mid_schedule, pf, beta22, direction, 5),
        }
        for name, call in calls.items():
            down, up = call(DOWN), call(UP)
            assert bits(down) != bits(up), name
            for direction, want in ((DOWN, down), (UP, up)):
                assert bits(call(direction.value)) == bits(want), name
            assert bits(call(np.array([[DOWN], [UP]]))) == bits([down, up]), name
            assert bits(call(np.array([["up"], ["down"]]))) == bits([up, down]), name

    @pytest.mark.parametrize("direction", ["sideways", "Down", 1, None, np.array(["up", "x"])])
    def test_other_directions_are_refused(self, mid_schedule, beta22, direction):
        for call in (
            lambda: vg.marginal_utility(mid_schedule, PF, beta22, direction, 1.0),
            lambda: vg.optimal_quantity(mid_schedule, PF, beta22, direction, 1.0),
            lambda: vg.demand_curve(mid_schedule, PF, beta22, direction, 3),
        ):
            with pytest.raises(ValueError, match="^direction must be 'down' or 'up', got "):
                call()


class TestValidation:
    def test_penalty_factor_ranges(self):
        with pytest.raises(ValueError):
            PenaltyFactors(over=1.2, under=0.3)
        with pytest.raises(ValueError):
            PenaltyFactors(over=-0.1, under=0.3)
        with pytest.raises(ValueError):
            PenaltyFactors(over=0.3, under=-0.5)
        PenaltyFactors(over=0.0, under=0.0)
        PenaltyFactors(over=1.0, under=2.5)

    def test_schedule_ranges(self):
        with pytest.raises(ValueError):
            VgSchedule(da_quantity=-1.0, da_price=30.0)
        with pytest.raises(ValueError):
            VgSchedule(da_quantity=10.0, da_price=0.0)

    def test_position_ranges(self):
        with pytest.raises(ValueError):
            BrsPosition(-1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            BrsPosition(0.0, 0.0, -0.5, 0.0)

    def test_position_must_fit_headroom(self, beta22):
        s = VgSchedule(da_quantity=80.0, da_price=30.0)
        too_deep = BrsPosition(down_qty=30.0, up_qty=0.0, down_price=1.0, up_price=1.0)
        with pytest.raises(ValueError):
            vg.expected_revenue(s, PF, too_deep, beta22)
        too_much_up = BrsPosition(down_qty=0.0, up_qty=90.0, down_price=1.0, up_price=1.0)
        with pytest.raises(ValueError):
            vg.expected_revenue(s, PF, too_much_up, beta22)

    def test_actual_output_checks(self):
        s = VgSchedule(da_quantity=100.0, da_price=30.0)
        with pytest.raises(ValueError):
            oracles.revenue_realized(s, PF, -5.0)
        with pytest.raises(ValueError):
            oracles.revenue_realized(s, PF, 160.0, capacity=150.0)


class TestRealizedRevenue:
    # 100 MW schedule at $30, penalties 0.3 both sides.
    S = VgSchedule(da_quantity=100.0, da_price=30.0)

    def test_on_schedule(self):
        assert oracles.revenue_realized(self.S, PF, 100.0) == pytest.approx(3000.0)

    def test_over_generation_paid_at_discount(self):
        # 20 MW over: 3000 + 0.7 * 30 * 20.
        assert oracles.revenue_realized(self.S, PF, 120.0) == pytest.approx(3420.0)

    def test_under_generation_charged_with_markup(self):
        # 20 MW short: 3000 - 1.3 * 30 * 20.
        assert oracles.revenue_realized(self.S, PF, 80.0) == pytest.approx(2220.0)

    def test_band_pays_full_price(self):
        pos = BrsPosition(down_qty=20.0, up_qty=15.0, down_price=0.5, up_price=0.5)
        assert oracles.revenue_with_brs(self.S, PF, pos, 115.0) == pytest.approx(3450.0)
        assert oracles.revenue_with_brs(self.S, PF, pos, 100.0) == pytest.approx(3000.0)

    def test_above_band_penalized_from_band_edge(self):
        pos = BrsPosition(down_qty=20.0, up_qty=15.0, down_price=0.5, up_price=0.5)
        # Band top 120: 30*120 + 0.7*30*10.
        assert oracles.revenue_with_brs(self.S, PF, pos, 130.0) == pytest.approx(3810.0)

    def test_below_band_penalized_from_band_edge(self):
        pos = BrsPosition(down_qty=20.0, up_qty=15.0, down_price=0.5, up_price=0.5)
        # Band bottom 85: 30*85 - 1.3*30*5.
        assert oracles.revenue_with_brs(self.S, PF, pos, 80.0) == pytest.approx(2355.0)

    def test_premium_cost(self):
        pos = BrsPosition(down_qty=20.0, up_qty=15.0, down_price=0.5, up_price=0.8)
        assert vg.premium_cost(pos) == pytest.approx(22.0)
        assert vg.premium_cost(ZERO_POSITION) == 0.0


class TestExpectedRevenue:
    def test_zero_position_value(self, beta22, mid_schedule):
        got = vg.expected_revenue(mid_schedule, PF, ZERO_POSITION, beta22)
        assert got == pytest.approx(1331.25, abs=1e-9)

    def test_matches_quadrature(self, beta22, mid_schedule):
        pos = BrsPosition(down_qty=20.0, up_qty=10.0, down_price=1.0, up_price=1.0)
        closed = vg.expected_revenue(mid_schedule, PF, pos, beta22)
        numeric, err = integrate.quad(
            lambda p: oracles.revenue_with_brs(mid_schedule, PF, pos, p)
            * oracles.pdf(beta22, p),
            0.0,
            beta22.capacity,
            points=[30.0, 40.0, 70.0],
            limit=200,
        )
        assert closed == pytest.approx(numeric, abs=max(1e-6, 10 * err))

    def test_net_subtracts_premiums(self, beta22, mid_schedule):
        # Net revenue is the gross expectation less 20 x 1.0 + 10 x 2.0.
        pos = BrsPosition(down_qty=20.0, up_qty=10.0, down_price=1.0, up_price=2.0)
        assert vg.premium_cost(pos) == pytest.approx(40.0)


class TestMarginalValue:
    def test_down_at_zero_depth(self, beta22, mid_schedule):
        # 30 * 0.3 * (1 - F(50)) with F(50) = 0.5.
        got = vg.marginal_utility(mid_schedule, PF, beta22, DOWN, 0.0)
        assert got == pytest.approx(4.5, abs=1e-12)

    def test_down_at_depth_25(self, beta22, mid_schedule):
        # 30 * 0.3 * (1 - F(75)) with F(75) = 0.84375.
        got = vg.marginal_utility(mid_schedule, PF, beta22, DOWN, 25.0)
        assert got == pytest.approx(1.40625, abs=1e-12)

    def test_up_mirrors_down_for_symmetric_forecast(self, beta22, mid_schedule):
        down = vg.marginal_utility(mid_schedule, PF, beta22, DOWN, 25.0)
        up = vg.marginal_utility(mid_schedule, PF, beta22, UP, 25.0)
        assert up == pytest.approx(down, abs=1e-12)

    def test_depth_range_enforced(self, beta22, mid_schedule):
        with pytest.raises(ValueError):
            vg.marginal_utility(mid_schedule, PF, beta22, DOWN, 51.0)
        with pytest.raises(ValueError):
            vg.marginal_utility(mid_schedule, PF, beta22, UP, 51.0)

    def test_finite_difference_agreement(self, beta22, mid_schedule):
        h = 1e-5
        for r in (5.0, 20.0, 35.0):
            lo = vg.expected_revenue(
                mid_schedule, PF, BrsPosition(r - h, 0.0, 0.0, 0.0), beta22
            )
            hi = vg.expected_revenue(
                mid_schedule, PF, BrsPosition(r + h, 0.0, 0.0, 0.0), beta22
            )
            fd = (hi - lo) / (2.0 * h)
            formula = vg.marginal_utility(mid_schedule, PF, beta22, DOWN, r)
            assert fd == pytest.approx(formula, abs=1e-5)


class TestOptimalCover:
    def test_critical_fractile_down(self, beta22, mid_schedule):
        # Premium 1.40625 puts the fractile at 0.84375, so the band top is the
        # 75 MW quantile: 25 MW of cover beyond the 50 MW schedule.
        got = vg.optimal_quantity(mid_schedule, PF, beta22, DOWN, 1.40625)
        assert got == pytest.approx(25.0, abs=1e-8)

    def test_critical_fractile_up(self, beta22, mid_schedule):
        got = vg.optimal_quantity(mid_schedule, PF, beta22, UP, 1.40625)
        assert got == pytest.approx(25.0, abs=1e-8)

    def test_free_cover_takes_all_headroom(self, beta22, mid_schedule):
        assert vg.optimal_quantity(mid_schedule, PF, beta22, DOWN, 0.0) == pytest.approx(50.0)
        assert vg.optimal_quantity(mid_schedule, PF, beta22, UP, 0.0) == pytest.approx(50.0)

    def test_price_at_or_above_penalty_value_buys_nothing(self, beta22, mid_schedule):
        # Marginal value is capped at price * penalty = 9.
        assert vg.optimal_quantity(mid_schedule, PF, beta22, DOWN, 9.0) == 0.0
        assert vg.optimal_quantity(mid_schedule, PF, beta22, DOWN, 50.0) == 0.0

    def test_zero_penalty_buys_nothing(self, beta22, mid_schedule):
        no_over = PenaltyFactors(over=0.0, under=0.3)
        assert vg.optimal_quantity(mid_schedule, no_over, beta22, DOWN, 0.5) == 0.0

    def test_optimal_position_bundles_both_sides(self, beta22, mid_schedule):
        pos = vg.optimal_position(mid_schedule, PF, beta22, 1.40625, 9.5)
        assert pos.down_qty == pytest.approx(25.0, abs=1e-8)
        assert pos.up_qty == 0.0
        assert pos.down_price == 1.40625

    def test_optimum_beats_neighbors(self, beta22, mid_schedule):
        price = 2.0
        best = vg.optimal_quantity(mid_schedule, PF, beta22, DOWN, price)

        def net(r):
            pos = BrsPosition(r, 0.0, price, 0.0)
            return vg.expected_revenue(mid_schedule, PF, pos, beta22) - vg.premium_cost(pos)

        for r in (best - 1.0, best - 0.1, best + 0.1, best + 1.0):
            if 0.0 <= r <= 50.0:
                assert net(best) >= net(r) - 1e-9


class TestDemandCurve:
    def test_endpoints_and_monotonicity(self, beta22, mid_schedule):
        curve = vg.demand_curve(mid_schedule, PF, beta22, DOWN, 11)
        qs = [q for q, _ in curve]
        vals = [v for _, v in curve]
        assert qs[0] == 0.0
        assert qs[-1] == pytest.approx(50.0)
        assert vals[0] == pytest.approx(4.5, abs=1e-12)
        assert vals[-1] == pytest.approx(0.0, abs=1e-12)
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_requires_two_points(self, beta22, mid_schedule):
        with pytest.raises(ValueError):
            vg.demand_curve(mid_schedule, PF, beta22, DOWN, 1)

    def test_area_under_curve_is_expected_gain(self, beta22, mid_schedule):
        # Integrating the marginal value from 0 to full headroom recovers the
        # expected-revenue lift of full cover on that side.
        gain, _ = integrate.quad(
            lambda r: vg.marginal_utility(mid_schedule, PF, beta22, DOWN, r), 0.0, 50.0
        )
        full = vg.expected_revenue(
            mid_schedule, PF, BrsPosition(50.0, 0.0, 0.0, 0.0), beta22
        )
        none = vg.expected_revenue(mid_schedule, PF, ZERO_POSITION, beta22)
        assert gain == pytest.approx(full - none, abs=1e-6)


class TestOicReport:
    def test_zero_position_baseline(self, beta22, mid_schedule):
        report = vg.oic_report(mid_schedule, PF, ZERO_POSITION, beta22)
        assert report.premium_paid == 0.0
        assert report.expected_residual_penalty == pytest.approx(168.75, abs=1e-9)
        assert report.total_oic == pytest.approx(168.75, abs=1e-9)
        assert report.consumer_surplus == pytest.approx(0.0, abs=1e-12)

    def test_optimal_position_has_nonnegative_surplus(self, beta22, mid_schedule):
        pos = vg.optimal_position(mid_schedule, PF, beta22, 1.0, 1.0)
        report = vg.oic_report(mid_schedule, PF, pos, beta22)
        assert report.consumer_surplus > 0.0
        assert report.total_oic == pytest.approx(
            report.premium_paid + report.expected_residual_penalty
        )

    def test_carries_gross_and_net_revenue(self, beta22, mid_schedule):
        pos = vg.optimal_position(mid_schedule, PF, beta22, 1.0, 1.0)
        report = vg.oic_report(mid_schedule, PF, pos, beta22)
        gross = vg.expected_revenue(mid_schedule, PF, pos, beta22)
        assert report.premium_paid > 0.0
        assert report.gross_expected_revenue == gross
        assert report.net_expected_revenue == gross - report.premium_paid


def vg_cases(draw):
    capacity = draw(st.floats(min_value=20.0, max_value=400.0))
    mean = draw(st.floats(min_value=0.2, max_value=0.8)) * capacity
    coeff = draw(st.floats(min_value=0.01, max_value=0.2))
    d = forecast.from_mean(capacity, mean, coeff)
    sched = draw(st.floats(min_value=0.1, max_value=0.9)) * capacity
    price = draw(st.floats(min_value=5.0, max_value=150.0))
    s = VgSchedule(da_quantity=sched, da_price=price)
    pf = PenaltyFactors(
        over=draw(st.floats(min_value=0.0, max_value=1.0)),
        under=draw(st.floats(min_value=0.0, max_value=1.5)),
    )
    down = draw(st.floats(min_value=0.0, max_value=1.0)) * (capacity - sched)
    up = draw(st.floats(min_value=0.0, max_value=1.0)) * sched
    pos = BrsPosition(down_qty=down, up_qty=up, down_price=0.0, up_price=0.0)
    return d, s, pf, pos


vg_case = st.composite(vg_cases)()


@given(case=vg_case, frac=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_cover_never_reduces_settled_revenue(case, frac):
    d, s, pf, pos = case
    actual = frac * d.capacity
    with_cover = oracles.revenue_with_brs(s, pf, pos, actual, capacity=d.capacity)
    without = oracles.revenue_realized(s, pf, actual, capacity=d.capacity)
    assert with_cover >= without - 1e-9 * max(1.0, abs(without))


@given(case=vg_case, f1=st.floats(0.0, 1.0), f2=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_settled_revenue_monotone_in_output(case, f1, f2):
    d, s, pf, pos = case
    a1, a2 = sorted((f1 * d.capacity, f2 * d.capacity))
    r1 = oracles.revenue_with_brs(s, pf, pos, a1, capacity=d.capacity)
    r2 = oracles.revenue_with_brs(s, pf, pos, a2, capacity=d.capacity)
    assert r2 >= r1 - 1e-9 * max(1.0, abs(r1))


@given(case=vg_case)
@example(
    # The jump below the lower edge is 50 * 2e-6, one ulp above 1e-4.
    case=(
        forecast.from_mean(20.0, 10.0, 0.1),
        VgSchedule(da_quantity=2.5, da_price=25.0),
        PenaltyFactors(over=0.0, under=1.0),
        BrsPosition(down_qty=0.0, up_qty=2.4609375, down_price=0.0, up_price=0.0),
    )
)
@settings(max_examples=60, deadline=None)
def test_revenue_continuous_at_band_edges(case):
    d, s, pf, pos = case
    eps = 1e-7 * d.capacity
    for edge in (s.da_quantity - pos.up_qty, s.da_quantity + pos.down_qty):
        if eps <= edge <= d.capacity - eps:
            below = oracles.revenue_with_brs(s, pf, pos, edge - eps)
            at = oracles.revenue_with_brs(s, pf, pos, edge)
            above = oracles.revenue_with_brs(s, pf, pos, edge + eps)
            # Lipschitz bound: the steepest slope of revenue_with_brs times
            # the step, plus rounding slack relative to the revenue.
            slope = max(1.0, abs(1.0 - pf.over), 1.0 + pf.under) * s.da_price
            bound = slope * eps + 1e-9 * max(1.0, abs(at))
            assert abs(at - below) <= bound
            assert abs(above - at) <= bound


@given(case=vg_case)
@settings(max_examples=60, deadline=None)
def test_expected_revenue_dominates_uncovered(case):
    d, s, pf, pos = case
    covered = vg.expected_revenue(s, pf, pos, d)
    uncovered = vg.expected_revenue(s, pf, ZERO_POSITION, d)
    assert covered >= uncovered - 1e-9 * max(1.0, abs(uncovered))
    assert math.isfinite(covered)


@given(case=vg_case, price=st.floats(0.0, 60.0))
@settings(max_examples=40, deadline=None)
def test_optimal_quantity_within_headroom(case, price):
    d, s, pf, _ = case
    down = vg.optimal_quantity(s, pf, d, DOWN, price)
    up = vg.optimal_quantity(s, pf, d, UP, price)
    assert 0.0 <= down <= d.capacity - s.da_quantity + 1e-9
    assert 0.0 <= up <= s.da_quantity + 1e-9


def _same(got, want) -> bool:
    """Equal, and equal in the sign of zero."""
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)))


@st.composite
def skip_cells(draw):
    """A few forecasts and schedules, one penalty factor and direction, and
    for each forecast prices whose fractile levels sit at, or 1e-16 to 1e-1
    either side of, the CDF at its schedule, F(S); plus the first MW's value,
    one ulp below it, free cover and a random price."""
    direction = draw(st.sampled_from([DOWN, UP]))
    factor = draw(st.floats(0.01, 1.0))
    pf = PenaltyFactors(over=factor, under=factor)
    capacity = draw(st.sampled_from([1.0, 100.0, 750.0]))
    n = draw(st.integers(1, 3))
    means = [capacity * draw(st.floats(0.01, 0.99)) for _ in range(n)]
    # Variance relative to the Beta bound mean * (capacity - mean): 0 pulls
    # to the floor, 2 to the ceiling, and above 0.5 the shapes are sub-1.
    rel = [draw(st.sampled_from([0.0, 2.0]) | st.floats(1e-7, 1.0)) for _ in range(n)]
    # At 0 and at capacity F(S) is 0.0 and 1.0; near them, with a narrow
    # forecast, it rounds there. Below the smallest normal float betaincinv
    # cannot place a point.
    ends = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-3, 1.0 - 1e-3, 1.0]
    schedule = [draw(st.sampled_from(ends) | st.floats(0.0, 1.0)) * capacity for _ in range(n)]
    da_price = [draw(st.floats(1.0, 100.0)) for _ in range(n)]
    offsets = [0.0] + [sign * 10.0 ** draw(st.floats(-16.0, -1.0))
                       for sign in (1.0, -1.0) for _ in range(2)]
    random_price = draw(st.floats(0.0, 1.2))
    means, rel, schedule, da_price = map(np.array, (means, rel, schedule, da_price))
    variances = rel * means * (capacity - means)
    d = forecast.from_mean_variance(capacity, means, variances)
    s = VgSchedule(schedule, da_price)
    at_schedule = forecast.cdf(d, s.da_quantity)
    first_mw = s.da_price * factor
    levels = np.clip(at_schedule + np.array(offsets)[:, None], 0.0, 1.0)
    fractile = 1.0 - levels if direction is DOWN else levels
    prices = np.vstack([
        fractile * first_mw, first_mw, np.nextafter(first_mw, 0.0),
        np.zeros(n), random_price * first_mw,
    ])
    return s, pf, d, direction, prices, variances


@given(cells=skip_cells())
@settings(max_examples=150, deadline=None)
def test_optimal_quantity_equals_inverse_everywhere(cells):
    # Skipping the inverse where the level lies beyond F(S) on the zero-cover
    # side changes no value, nor the sign of a zero.
    s, pf, d, direction, prices, variances = cells
    got = vg.optimal_quantity(s, pf, d, direction, prices)
    want = oracles.optimal_quantity(s, pf, d, direction, prices)
    assert got.shape == prices.shape
    assert _same(got, want)
    for (j, i), price in np.ndenumerate(prices):
        s1 = VgSchedule(float(s.da_quantity[i]), float(s.da_price[i]))
        d1 = forecast.from_mean_variance(d.capacity, float(d.mean[i]), float(variances[i]))
        one = vg.optimal_quantity(s1, pf, d1, direction, float(price))
        assert type(one) is float
        assert _same(one, want[j, i])
        assert _same(one, oracles.optimal_quantity(s1, pf, d1, direction, float(price)))


@pytest.mark.parametrize("direction", [DOWN, UP])
def test_optimal_quantity_equals_inverse_everywhere_on_a_grid(direction):
    # 300 forecasts from the variance floor to the ceiling, each at its mean
    # or at a random schedule, against 200 prices over the whole range and
    # 33 whose levels lie at F(S) and 1e-16 to 1e-1 either side of it:
    # 69,900 cells per side. The first ten put the schedule at the ends of
    # the support, and below, at and just above the smallest normal float
    # (relative to capacity) on a sub-1 forecast.
    rng = np.random.default_rng(20)
    mean = rng.uniform(1.0, 99.0, 300)
    rel = np.concatenate([[0.0, 0.0] + [2.0] * 8, 10.0 ** rng.uniform(-7.0, 0.0, 290)])
    d = forecast.from_mean_variance(100.0, mean, rel * mean * (100.0 - mean))
    schedule = np.where(rng.random(300) < 0.2, mean, rng.uniform(0.0, 100.0, 300))
    tiny = np.finfo(float).tiny * 100.0
    schedule[:10] = [0.0, 100.0, 0.0, 100.0, 5e-324, 1e-310, tiny / 2, tiny, 1.5 * tiny, 2 * tiny]
    s = VgSchedule(schedule, rng.uniform(10.0, 60.0, 300))
    pf = PenaltyFactors(over=0.4, under=0.7)
    first_mw = s.da_price * (pf.over if direction is DOWN else pf.under)
    offsets = 10.0 ** -np.arange(1.0, 17.0)
    levels = forecast.cdf(d, s.da_quantity) + np.concatenate([[0.0], offsets, -offsets])[:, None]
    fractile = np.clip(1.0 - levels if direction is DOWN else levels, 0.0, 1.0)
    price = np.vstack([np.broadcast_to(np.linspace(0.0, 1.1, 200)[:, None], (200, 300)), fractile])
    price = price * first_mw
    got = vg.optimal_quantity(s, pf, d, direction, price)
    assert got.shape == (233, 300)
    assert 0 < np.count_nonzero(got) < got.size
    assert _same(got, oracles.optimal_quantity(s, pf, d, direction, price))


class TestBroadcast:
    """Array calls equal the scalar calls, element by element."""

    # Axes (scale, price, hour): three hours of a 100 MW plant, variance
    # scales from the floor clamp (0) to sub-1 shapes (12), premium prices
    # from free to past both penalty factors.
    MEAN = np.array([20.0, 50.0, 85.0])
    SCHEDULE = np.array([25.0, 50.0, 70.0])
    DA_PRICE = np.array([20.0, 30.0, 45.0])
    SCALE = np.array([0.0, 0.5, 1.0, 12.0])[:, None, None]
    PRICE = np.array([0.0, 1.0, 4.0, 20.0])[:, None]
    PF = PenaltyFactors(over=0.3, under=0.5)

    def arrays(self):
        d = forecast.scale_variance(forecast.from_mean(100.0, self.MEAN), self.SCALE)
        return VgSchedule(self.SCHEDULE, self.DA_PRICE), d

    def cells(self):
        for i, j, h in np.ndindex(len(self.SCALE), len(self.PRICE), len(self.MEAN)):
            s = VgSchedule(float(self.SCHEDULE[h]), float(self.DA_PRICE[h]))
            d = forecast.scale_variance(
                forecast.from_mean(100.0, float(self.MEAN[h])), float(self.SCALE[i, 0, 0])
            )
            yield (i, j, h), s, d, float(self.PRICE[j, 0])

    def test_optimum_and_expected_revenue(self):
        s, d = self.arrays()
        pos = vg.optimal_position(s, self.PF, d, self.PRICE, 2.0 * self.PRICE)
        gross = vg.expected_revenue(s, self.PF, pos, d)
        report = vg.oic_report(s, self.PF, pos, d)
        assert gross.shape == pos.down_qty.shape == (4, 4, 3)
        assert (pos.down_qty > 0).any() and (pos.down_qty == 0).any()
        for cell, s1, d1, price in self.cells():
            one = vg.optimal_position(s1, self.PF, d1, price, 2.0 * price)
            assert (pos.down_qty[cell], pos.up_qty[cell]) == (one.down_qty, one.up_qty)
            assert gross[cell] == vg.expected_revenue(s1, self.PF, one, d1)
            assert report.total_oic[cell] == vg.oic_report(s1, self.PF, one, d1).total_oic

    def test_marginal_utility(self):
        s, d = self.arrays()
        depth = np.array([0.0, 10.0, 25.0])[:, None, None, None]
        down = vg.marginal_utility(s, self.PF, d, DOWN, depth)
        up = vg.marginal_utility(s, self.PF, d, UP, depth)
        for k, r in enumerate(depth.ravel().tolist()):
            for (i, _, h), s1, d1, _ in self.cells():
                assert down[k, i, 0, h] == vg.marginal_utility(s1, self.PF, d1, DOWN, r)
                assert up[k, i, 0, h] == vg.marginal_utility(s1, self.PF, d1, UP, r)

    def test_demand_curve_over_penalty_factors(self, beta22, mid_schedule):
        alpha = np.array([0.1, 0.3, 0.5])[:, None]
        curve = vg.demand_curve(mid_schedule, PenaltyFactors(alpha, alpha), beta22, UP, 5)
        assert curve.shape == (3, 5, 2)
        for a, pairs in zip(alpha.ravel().tolist(), curve):
            one = vg.demand_curve(mid_schedule, PenaltyFactors(a, a), beta22, UP, 5)
            assert pairs.tolist() == one.tolist()

    def test_scalar_call_returns_python_scalars(self, beta22, mid_schedule):
        pos = vg.optimal_position(mid_schedule, PF, beta22, 1.0, 9.5)
        assert type(pos.down_qty) is float and type(pos.up_qty) is float
        assert type(vg.expected_revenue(mid_schedule, PF, pos, beta22)) is float
        assert type(vg.marginal_utility(mid_schedule, PF, beta22, UP, 3.0)) is float


# A side's cover as a share of its headroom. "over" is the headroom plus
# 1e-10, inside the position checks' 1e-9 tolerance.
COVER_SHARES = st.sampled_from([0.0, 0.0, 1.0, "over"]) | st.floats(0.0, 1.0)


@st.composite
def sweep_inputs(draw):
    """A sweep-shaped call: hours, variance scales, and the cover of each
    (scale, cell, hour) of the grid as shares of headroom."""
    hours = draw(st.integers(1, 3))
    per_hour = lambda values: draw(st.lists(values, min_size=hours, max_size=hours))
    # Means within 0.1 % of either end of the support: large scales give
    # Beta shapes below 1 there. Scale 0 clamps to the variance floor, and
    # 15 or more, with the larger coefficients, to the ceiling.
    case = {
        "capacity": draw(st.floats(20.0, 400.0)),
        "coefficient": draw(st.floats(0.01, 0.2)),
        "mean": per_hour(st.sampled_from([1e-3, 0.02, 0.98, 0.999]) | st.floats(0.01, 0.99)),
        "schedule": per_hour(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        "da_price": per_hour(st.floats(5.0, 150.0)),
        "scales": draw(st.lists(st.sampled_from([0.0, 15.0, 40.0]) | st.floats(0.0, 20.0),
                                min_size=1, max_size=3)),
        "over": draw(st.floats(0.0, 1.0)),
        "under": draw(st.floats(0.0, 1.5)),
    }
    cells = len(case["scales"]) * draw(st.integers(1, 3)) * hours
    for side in ("down", "up"):
        case[side] = draw(st.lists(COVER_SHARES, min_size=cells, max_size=cells))
    return case


def _cover(share, headroom):
    return headroom + 1e-10 if share == "over" else share * headroom


@given(case=sweep_inputs())
@example(case={
    "capacity": 100.0, "coefficient": 0.2, "mean": [1e-3, 0.5, 0.999],
    "schedule": [0.0, 0.4, 1.0], "da_price": [20.0, 30.0, 45.0],
    "scales": [0.0, 1.0, 15.0, 40.0], "over": 0.3, "under": 0.5,
    "down": [0.0, 0.5, 1.0, "over"] * 6, "up": [0.0, "over", 0.0, 0.25, 1.0, 0.0] * 4,
})
@settings(max_examples=60, deadline=None)
def test_broadcast_expected_revenue_equals_scalar_calls(case):
    # Covered and uncovered sides mixed over one call, as in the sweep,
    # give every cell the scalar call's value.
    cap, k = case["capacity"], case["coefficient"]
    mean, schedule = (np.array(case[key]) * cap for key in ("mean", "schedule"))
    scales = np.array(case["scales"])
    grid = (len(scales), len(case["down"]) // (len(scales) * len(mean)), len(mean))
    down, up = np.empty(grid), np.empty(grid)
    for n, (i, j, h) in enumerate(np.ndindex(grid)):
        down[i, j, h] = _cover(case["down"][n], cap - schedule[h])
        up[i, j, h] = _cover(case["up"][n], schedule[h])
    pf = PenaltyFactors(case["over"], case["under"])
    s = VgSchedule(schedule, np.array(case["da_price"]))
    d = forecast.scale_variance(forecast.from_mean(cap, mean, k), scales[:, None, None])
    gross = vg.expected_revenue(s, pf, BrsPosition(down, up, 0.0, 0.0), d)
    assert gross.shape == grid
    for i, j, h in np.ndindex(grid):
        s1 = VgSchedule(float(schedule[h]), case["da_price"][h])
        d1 = forecast.scale_variance(forecast.from_mean(cap, float(mean[h]), k), float(scales[i]))
        pos = BrsPosition(float(down[i, j, h]), float(up[i, j, h]), 0.0, 0.0)
        assert gross[i, j, h] == vg.expected_revenue(s1, pf, pos, d1)


def _s(q=50.0, price=30.0):
    return VgSchedule(da_quantity=q, da_price=price)


def _d():
    return forecast.from_mean_variance(100.0, 50.0, 500.0)


def _pos(down=0.0, up=0.0):
    return BrsPosition(down_qty=down, up_qty=up, down_price=1.0, up_price=1.0)


# (scalar call, the same call with the bad value inside an array)
BAD_ELEMENTS = {
    "over penalty": (
        lambda: PenaltyFactors(over=1.2, under=0.3),
        lambda: PenaltyFactors(over=np.array([0.3, 1.2]), under=0.3),
    ),
    "under penalty": (
        lambda: PenaltyFactors(over=0.3, under=-0.5),
        lambda: PenaltyFactors(over=0.3, under=np.array([[0.1], [-0.5]])),
    ),
    "da_quantity": (
        lambda: _s(q=-1.0),
        lambda: _s(q=np.array([10.0, -1.0])),
    ),
    "da_price": (
        lambda: _s(price=math.nan),
        lambda: _s(price=np.array([30.0, math.nan])),
    ),
    "position quantity": (
        lambda: _pos(down=-1.0),
        lambda: _pos(down=np.array([1.0, -1.0])),
    ),
    "schedule fits": (
        lambda: vg.marginal_utility(_s(q=120.0), PF, _d(), DOWN, 0.0),
        lambda: vg.marginal_utility(_s(q=np.array([50.0, 120.0])), PF, _d(), DOWN, 0.0),
    ),
    "headroom": (
        lambda: vg.expected_revenue(_s(q=80.0), PF, _pos(down=30.0), _d()),
        lambda: vg.expected_revenue(_s(q=80.0), PF, _pos(down=np.array([5.0, 30.0])), _d()),
    ),
    "up exceeds schedule": (
        lambda: vg.expected_revenue(_s(), PF, _pos(up=51.0), _d()),
        lambda: vg.expected_revenue(_s(), PF, _pos(up=np.array([51.0, 60.0])), _d()),
    ),
    "depth": (
        lambda: vg.marginal_utility(_s(), PF, _d(), UP, 51.0),
        lambda: vg.marginal_utility(_s(), PF, _d(), UP, np.array([0.0, 51.0])),
    ),
    "premium price": (
        lambda: vg.optimal_quantity(_s(), PF, _d(), DOWN, -1.0),
        lambda: vg.optimal_quantity(_s(), PF, _d(), DOWN, np.array([1.0, -1.0])),
    ),
    "nan premium price": (
        lambda: vg.optimal_quantity(_s(), PF, _d(), UP, math.nan),
        lambda: vg.optimal_quantity(_s(), PF, _d(), UP, np.array([1.0, math.nan])),
    ),
    # A nan level is never skipped, on either side.
    "nan premium price, down": (
        lambda: vg.optimal_quantity(_s(), PF, _d(), DOWN, math.nan),
        lambda: vg.optimal_quantity(_s(), PF, _d(), DOWN, np.array([1.0, math.nan])),
    ),
}


@pytest.mark.parametrize("scalar_call, array_call", BAD_ELEMENTS.values(), ids=list(BAD_ELEMENTS))
def test_bad_element_raises_scalar_message(scalar_call, array_call):
    with pytest.raises(ValueError) as scalar:
        scalar_call()
    with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
        array_call()
