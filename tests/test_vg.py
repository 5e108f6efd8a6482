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
        got = vg.marginal_utility_down(mid_schedule, PF, beta22, 0.0)
        assert got == pytest.approx(4.5, abs=1e-12)

    def test_down_at_depth_25(self, beta22, mid_schedule):
        # 30 * 0.3 * (1 - F(75)) with F(75) = 0.84375.
        got = vg.marginal_utility_down(mid_schedule, PF, beta22, 25.0)
        assert got == pytest.approx(1.40625, abs=1e-12)

    def test_up_mirrors_down_for_symmetric_forecast(self, beta22, mid_schedule):
        down = vg.marginal_utility_down(mid_schedule, PF, beta22, 25.0)
        up = vg.marginal_utility_up(mid_schedule, PF, beta22, 25.0)
        assert up == pytest.approx(down, abs=1e-12)

    def test_depth_range_enforced(self, beta22, mid_schedule):
        with pytest.raises(ValueError):
            vg.marginal_utility_down(mid_schedule, PF, beta22, 51.0)
        with pytest.raises(ValueError):
            vg.marginal_utility_up(mid_schedule, PF, beta22, 51.0)

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
            formula = vg.marginal_utility_down(mid_schedule, PF, beta22, r)
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
        qs = [q for q, _ in curve.points]
        vals = [v for _, v in curve.points]
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
            lambda r: vg.marginal_utility_down(mid_schedule, PF, beta22, r), 0.0, 50.0
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
                assert down[k, i, 0, h] == vg.marginal_utility_down(s1, self.PF, d1, r)
                assert up[k, i, 0, h] == vg.marginal_utility_up(s1, self.PF, d1, r)

    def test_demand_curve_over_penalty_factors(self, beta22, mid_schedule):
        alpha = np.array([0.1, 0.3, 0.5])[:, None]
        curve = vg.demand_curve(mid_schedule, PenaltyFactors(alpha, alpha), beta22, UP, 5)
        assert curve.points.shape == (3, 5, 2)
        for a, pairs in zip(alpha.ravel().tolist(), curve.points):
            one = vg.demand_curve(mid_schedule, PenaltyFactors(a, a), beta22, UP, 5)
            assert pairs.tolist() == one.points.tolist()

    def test_scalar_call_returns_python_scalars(self, beta22, mid_schedule):
        pos = vg.optimal_position(mid_schedule, PF, beta22, 1.0, 9.5)
        assert type(pos.down_qty) is float and type(pos.up_qty) is float
        assert type(vg.expected_revenue(mid_schedule, PF, pos, beta22)) is float
        assert type(vg.marginal_utility_up(mid_schedule, PF, beta22, 3.0)) is float


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
        lambda: vg.marginal_utility_down(_s(q=120.0), PF, _d(), 0.0),
        lambda: vg.marginal_utility_down(_s(q=np.array([50.0, 120.0])), PF, _d(), 0.0),
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
        lambda: vg.marginal_utility_up(_s(), PF, _d(), 51.0),
        lambda: vg.marginal_utility_up(_s(), PF, _d(), np.array([0.0, 51.0])),
    ),
    "premium price": (
        lambda: vg.optimal_quantity(_s(), PF, _d(), DOWN, -1.0),
        lambda: vg.optimal_quantity(_s(), PF, _d(), DOWN, np.array([1.0, -1.0])),
    ),
    "nan premium price": (
        lambda: vg.optimal_quantity(_s(), PF, _d(), UP, math.nan),
        lambda: vg.optimal_quantity(_s(), PF, _d(), UP, np.array([1.0, math.nan])),
    ),
}


@pytest.mark.parametrize("scalar_call, array_call", BAD_ELEMENTS.values(), ids=list(BAD_ELEMENTS))
def test_bad_element_raises_scalar_message(scalar_call, array_call):
    with pytest.raises(ValueError) as scalar:
        scalar_call()
    with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
        array_call()
