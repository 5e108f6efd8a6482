"""Acceptance gate: ten end-to-end checks with stated tolerances and budgets.

Each test prints through the conftest summary as one PASS/FAIL line. Oracles
here are deliberately independent of the library code paths they judge:
vectorized special-function expressions, adaptive quadrature, grid search,
and exhaustive enumeration.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

import oracles
from brsim import forecast, market, provider, simulation, vg
from brsim.dataio import load_scenario, scenario_from_dict
from brsim.market import ContractStatus
from brsim.provider import DispatchableUnit, ScenarioModel, UnitKind
from brsim.vg import DOWN, UP, BrsPosition, PenaltyFactors, VgSchedule

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def random_setting(rng):
    """One randomized producer configuration (forecast, schedule, penalties)."""
    capacity = rng.uniform(50.0, 300.0)
    mean = rng.uniform(0.2, 0.8) * capacity
    coeff = rng.uniform(0.02, 0.15)
    d = forecast.from_mean(capacity, mean, coeff)
    s = VgSchedule(
        da_quantity=rng.uniform(0.15, 0.85) * capacity,
        da_price=rng.uniform(10.0, 80.0),
    )
    pf = PenaltyFactors(over=rng.uniform(0.05, 1.0), under=rng.uniform(0.05, 1.2))
    return d, s, pf


def oracle_expected_net(d, s, pf, direction, prices, grid):
    """Vectorized expected net profit over a cover-depth grid.

    Written directly against the regularized incomplete Beta so it shares no
    code with the closed form under test.
    """
    a, b, cap, mu = d.shape_a, d.shape_b, d.capacity, d.mean
    lam = s.da_price
    p_hat = s.da_quantity

    def cdf(x):
        return special.betainc(a, b, np.clip(x / cap, 0.0, 1.0))

    def pe0(x):
        # integral of p f(p) dp over [0, x]
        return mu * special.betainc(a + 1.0, b, np.clip(x / cap, 0.0, 1.0))

    if direction is DOWN:
        lo = np.full_like(grid, p_hat)
        hi = p_hat + grid
    else:
        lo = p_hat - grid
        hi = np.full_like(grid, p_hat)
    below = (1.0 + pf.under) * pe0(lo) - pf.under * lo * cdf(lo)
    mid = pe0(hi) - pe0(lo)
    above = pf.over * hi * (1.0 - cdf(hi)) + (1.0 - pf.over) * (mu - pe0(hi))
    return lam * (below + mid + above) - prices * grid


def test_criterion_01_grid_search_optimum():
    # Closed-form optimal quantities vs 0.1 MW grid-search argmax of expected
    # net profit: agreement within 0.5 MW per side over 200 random settings.
    start = time.perf_counter()
    rng = np.random.default_rng(20260822)
    for _ in range(200):
        d, s, pf = random_setting(rng)
        for direction in (DOWN, UP):
            alpha = pf.over if direction is DOWN else pf.under
            price = rng.uniform(0.02, 1.2) * s.da_price * alpha
            headroom = (
                d.capacity - s.da_quantity if direction is DOWN else s.da_quantity
            )
            grid = np.arange(0.0, headroom + 0.05, 0.1)
            grid[-1] = min(grid[-1], headroom)
            net = oracle_expected_net(d, s, pf, direction, price, grid)
            r_grid = float(grid[int(np.argmax(net))])
            r_impl = vg.optimal_quantity(s, pf, d, direction, price)
            assert abs(r_impl - r_grid) <= 0.5, (
                f"direction={direction.value} price={price:.4f}: "
                f"closed form {r_impl:.3f} vs grid {r_grid:.3f}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_criterion_02_finite_difference_gradients():
    # Central finite differences of the expected-revenue closed form match
    # the marginal value formulas within 1e-3 relative on 100 random points.
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    h = 1e-3
    checked = 0
    while checked < 100:
        d, s, pf = random_setting(rng)
        for direction in (DOWN, UP):
            headroom = (
                d.capacity - s.da_quantity if direction is DOWN else s.da_quantity
            )
            r = rng.uniform(0.05, 0.7) * headroom
            if r <= h:
                continue
            if direction is DOWN:
                pos = lambda x: BrsPosition(x, 0.0, 0.0, 0.0)  # noqa: E731
                formula = vg.marginal_utility_down(s, pf, d, r)
            else:
                pos = lambda x: BrsPosition(0.0, x, 0.0, 0.0)  # noqa: E731
                formula = vg.marginal_utility_up(s, pf, d, r)
            lo = vg.expected_revenue(s, pf, pos(r - h), d)
            hi = vg.expected_revenue(s, pf, pos(r + h), d)
            fd = (hi - lo) / (2.0 * h)
            assert abs(fd - formula) <= 1e-3 * abs(formula) + 1e-6, (
                f"direction={direction.value} r={r:.3f}: fd {fd:.8f} vs "
                f"formula {formula:.8f}"
            )
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"


def test_criterion_03_closed_form_vs_quadrature():
    # Closed-form expected revenue vs adaptive quadrature of the piecewise
    # settled revenue against the forecast density: 1e-4 relative, 100 configs.
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    for _ in range(100):
        d, s, pf = random_setting(rng)
        down = rng.uniform(0.0, 1.0) * (d.capacity - s.da_quantity)
        up = rng.uniform(0.0, 1.0) * s.da_quantity
        pos = BrsPosition(down_qty=down, up_qty=up, down_price=0.0, up_price=0.0)
        closed = vg.expected_revenue(s, pf, pos, d)
        breaks = sorted(
            {
                max(s.da_quantity - up, 1e-9),
                min(s.da_quantity + down, d.capacity - 1e-9),
            }
        )
        numeric, _ = integrate.quad(
            lambda p: oracles.revenue_with_brs(s, pf, pos, p) * oracles.pdf(d, p),
            0.0,
            d.capacity,
            points=breaks,
            limit=300,
        )
        assert closed == pytest.approx(numeric, rel=1e-4), (
            f"closed {closed:.6f} vs quadrature {numeric:.6f}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_04_worked_single_hour():
    # The bundled single-hour scenario: 20 MW of downward cover executes
    # against 120 MW realized, moving the schedules to exactly 120 and 180
    # with the 300 MW total conserved exactly.
    start = time.perf_counter()
    cfg = load_scenario(SCENARIOS / "single_hour.json")
    res = simulation.simulate_day(cfg)
    hour = res.hours[0]
    assert hour.contracts[0].executed_mw == pytest.approx(20.0)
    assert hour.vg_modified == 120.0
    assert hour.unit_modified["g1"] == 180.0
    assert hour.vg_modified + hour.unit_modified["g1"] == 300.0
    assert hour.vg_schedule + hour.unit_schedules["g1"] == 300.0
    assert res.ledger.is_balanced()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"


def _random_day_doc(rng, day_index):
    horizon = 4
    capacity = float(rng.uniform(80.0, 200.0))
    means = [float(rng.uniform(0.3, 0.7) * capacity) for _ in range(horizon)]
    realized = [float(rng.uniform(0.05, 0.95) * capacity) for _ in range(horizon)]
    da = [float(rng.uniform(15.0, 60.0)) for _ in range(horizon)]
    rt = [float(max(0.5, p + rng.uniform(-10.0, 10.0))) for p in da]
    units = []
    for uid, kind, cost_lo, cost_hi in (
        ("g1", "base_load", 5.0, 30.0),
        ("g2", "marginal", 25.0, 50.0),
    ):
        p_min = float(rng.uniform(10.0, 60.0))
        width = float(rng.uniform(100.0, 200.0))
        units.append(
            {
                "id": uid,
                "kind": kind,
                "p_min_mw": p_min,
                "p_max_mw": p_min + width,
                "marginal_cost": float(rng.uniform(cost_lo, cost_hi)),
                "da_schedule_mw": p_min + float(rng.uniform(0.3, 0.7)) * width,
            }
        )
    offers = []
    for h in range(horizon):
        for _ in range(int(rng.integers(2, 5))):
            offers.append(
                {
                    "seller": str(rng.choice(["g1", "g2"])),
                    "hour": h,
                    "direction": str(rng.choice(["down", "up"])),
                    "price": float(rng.uniform(0.0, 8.0)),
                    "quantity_mw": float(rng.uniform(2.0, 30.0)),
                }
            )
    return {
        "horizon": horizon,
        "seed": day_index,
        "vg": {
            "id": "w",
            "capacity_mw": capacity,
            "forecast_mean_mw": means,
            "realized_mw": realized,
        },
        "penalty": {
            "over": float(rng.uniform(0.1, 0.9)),
            "under": float(rng.uniform(0.1, 1.2)),
        },
        "da_price": da,
        "rt_price": rt,
        "units": units,
        "offers": offers,
    }


def test_criterion_05_settlement_equivalence_and_zero_sum():
    # 50 random one-day runs: each party's hourly net equals the closed-form
    # payoff (banded revenue minus premiums for the producer, shift payoff
    # plus premiums per unit) within 1e-9 relative, and every ledger's party
    # nets, summed exactly, cancel to within 1e-9 of its gross flow.
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    for day_index in range(50):
        cfg = scenario_from_dict(_random_day_doc(rng, day_index))
        res = simulation.simulate_day(cfg)
        assert res.ledger.is_balanced()
        for h, hour in enumerate(res.hours):
            assert hour.ledger.is_balanced()
            s, pf, _ = simulation.hour_context(cfg, h)
            live = [
                c for c in hour.contracts if c.status is not ContractStatus.REJECTED
            ]
            down = [c for c in live if c.direction is DOWN]
            up = [c for c in live if c.direction is UP]
            pos = BrsPosition(
                down_qty=sum(c.quantity for c in down),
                up_qty=sum(c.quantity for c in up),
                down_price=0.0,
                up_price=0.0,
            )
            premiums = sum(c.premium_price * c.quantity for c in live)
            vg_expected = (
                oracles.revenue_with_brs(s, pf, pos, hour.vg_realized) - premiums
            )
            assert oracles.ledger_net(hour.ledger, "w") == pytest.approx(
                vg_expected, rel=1e-9, abs=1e-6
            ), f"day {day_index} hour {h}: producer net mismatch"
            for uc in cfg.units:
                unit = list(simulation._unit_hours(uc))[h]
                executed = sum(c.executed_mw for c in live if c.seller == uc.id and c.direction is UP) - sum(
                    c.executed_mw for c in live if c.seller == uc.id and c.direction is DOWN
                )
                sc = oracles.JointScenario(
                    da_price=cfg.da_price[h],
                    rt_price=cfg.rt_price[h],
                    executed=executed,
                )
                unit_premiums = sum(
                    c.premium_price * c.quantity for c in live if c.seller == uc.id
                )
                unit_expected = (
                    oracles.revenue_unit_with_brs(
                        unit, sc, rt_output=provider.rt_dispatch(unit, cfg.rt_price[h])
                    )
                    + unit_premiums
                )
                assert oracles.ledger_net(hour.ledger, uc.id) == pytest.approx(
                    unit_expected, rel=1e-9, abs=1e-6
                ), f"day {day_index} hour {h}: unit {uc.id} net mismatch"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_criterion_06_demand_curves_grow_with_penalty():
    # At a fixed hour, the marginal-value curve for penalty factors 0.1, 0.3,
    # 0.5 is pointwise nondecreasing in the factor, on both sides.
    start = time.perf_counter()
    cfg = load_scenario(SCENARIOS / "day24.json")
    s, _, d = simulation.hour_context(cfg, 10)
    for direction in (DOWN, UP):
        prev = None
        for alpha in (0.1, 0.3, 0.5):
            pf = PenaltyFactors(over=alpha, under=alpha)
            curve = vg.demand_curve(s, pf, d, direction, 41)
            values = [v for _, v in curve.points]
            if prev is not None:
                assert all(
                    hi >= lo - 1e-12 for hi, lo in zip(values, prev)
                ), f"direction {direction.value}: curve fell when alpha rose to {alpha}"
            prev = values
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"


def test_criterion_07_profit_sweep_shape():
    # Expected profit at the optimal position, summed over the 24-hour
    # scenario, on ratios {0, 0.05, ..., 0.5} x variance scales
    # {0.5, 1.0, 1.5, 2.0}: nonincreasing in ratio per scale, nonincreasing
    # in scale per ratio, the 0.5-ratio column within 0.1% of the no-cover
    # expected revenue, and the 0-ratio column identical across scales at the
    # DA-price-weighted mean output.
    start = time.perf_counter()
    cfg = load_scenario(SCENARIOS / "day24.json")
    ratios = [round(0.05 * i, 2) for i in range(11)]
    scales = [0.5, 1.0, 1.5, 2.0]
    profit = {
        (r["variance_scale"], r["price_ratio"]): r["expected_profit"]
        for r in simulation.profit_sweep(cfg, ratios, scales)
    }
    no_cover = {}
    for scale in scales:
        no_cover[scale] = 0.0
        for h in range(cfg.horizon):
            s, pf, d = simulation.hour_context(cfg, h)
            d = forecast.scale_variance(d, scale)
            no_cover[scale] += vg.expected_revenue(s, pf, vg.ZERO_POSITION, d)

    for scale in scales:
        col = [profit[(scale, r)] for r in ratios]
        assert all(a >= b - 1e-6 for a, b in zip(col, col[1:])), (
            f"profit not nonincreasing in ratio at scale {scale}: {col}"
        )
        assert profit[(scale, 0.5)] == pytest.approx(no_cover[scale], rel=1e-3), (
            f"scale {scale}: 0.5-ratio profit differs from no-cover revenue"
        )
    for ratio in ratios:
        row = [profit[(scale, ratio)] for scale in scales]
        assert all(a >= b - 1e-6 for a, b in zip(row, row[1:])), (
            f"profit not nonincreasing in scale at ratio {ratio}: {row}"
        )
    ideal = sum(
        cfg.da_price[h] * cfg.vg.forecast_mean_mw[h] for h in range(cfg.horizon)
    )
    for scale in scales:
        assert profit[(scale, 0.0)] == pytest.approx(ideal, rel=1e-12), (
            f"scale {scale}: free cover should earn the DA value of the mean"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_08_shift_payoff_mean_is_centered():
    # With independent zero-mean price-gap and execution draws, the sampled
    # mean of the shift payoff stays within 3 standard errors of zero at 1e5
    # seeded samples.
    start = time.perf_counter()
    model = ScenarioModel(
        da_price_mean=30.0, gap_std=5.0, execution_std=10.0, correlation=0.0
    )
    scenarios = provider.generate_scenarios(model, 100_000, seed=2026)
    deltas = (scenarios.da - scenarios.rt) * scenarios.executed
    mean = float(deltas.mean())
    stderr = float(deltas.std(ddof=1) / np.sqrt(len(deltas)))
    assert abs(mean) <= 3.0 * stderr, f"|{mean:.4f}| > 3 * {stderr:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_09_enumeration_exact_and_ordering_stable():
    # The four-outcome enumeration prices the incremental variance of a
    # base-load seller at exactly 2500 (machine precision), and with the
    # shortage correlation on, the marginal unit adds strictly less variance
    # than base load for 20 consecutive seeds.
    start = time.perf_counter()
    model = ScenarioModel(da_price_mean=30.0, gap_std=5.0, execution_std=10.0)
    scenarios = provider.exhaustive_scenarios(model)
    base = DispatchableUnit(UnitKind.BASE_LOAD, 150.0, 250.0, 15.0, 200.0)
    marginal = DispatchableUnit(UnitKind.MARGINAL, 150.0, 250.0, 35.0, 200.0)
    rep = provider.risk_report(base, scenarios)
    weights = scenarios.weights
    deltas = (scenarios.da - scenarios.rt) * scenarios.executed
    mean = sum(w * x for w, x in zip(weights, deltas))
    exact = sum(w * (x - mean) ** 2 for w, x in zip(weights, deltas))
    assert rep.incremental_variance == exact == 2500.0

    corr_model = ScenarioModel(
        da_price_mean=30.0,
        gap_std=5.0,
        execution_std=10.0,
        correlation=0.5,
        execution_limit=45.0,
    )
    for seed in range(20):
        sampled = provider.generate_scenarios(corr_model, 20_000, seed=seed)
        cmp_ = provider.compare_kinds(base, marginal, sampled)
        assert cmp_.marginal.incremental_variance < cmp_.base.incremental_variance, (
            f"seed {seed}: ordering failed"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"took {elapsed:.1f}s, budget 20s"


def test_criterion_10_forecast_numerics():
    # 50 shape pairs: quantile/cdf inversion within 1e-8 across a quantile
    # grid, density integrating to 1 within 1e-6, and variance scaling
    # preserving the mean exactly.
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    q_grid = np.linspace(0.01, 0.99, 25)
    for _ in range(50):
        a = float(rng.uniform(0.4, 25.0))
        b = float(rng.uniform(0.4, 25.0))
        capacity = float(rng.uniform(10.0, 500.0))
        total = a + b
        mean = a / total * capacity
        variance = a * b / (total**2 * (total + 1.0)) * capacity**2
        d = forecast.from_mean_variance(capacity, mean, variance)
        assert d.shape_a == pytest.approx(a, rel=1e-9)
        assert d.shape_b == pytest.approx(b, rel=1e-9)

        for q in q_grid:
            p = forecast.quantile(d, float(q))
            assert abs(forecast.cdf(d, p) - q) <= 1e-8, (
                f"shapes ({a:.3f}, {b:.3f}), q={q:.3f}"
            )

        total_mass, _ = integrate.quad(
            lambda p: oracles.pdf(d, p), 0.0, capacity, limit=200
        )
        assert abs(total_mass - 1.0) <= 1e-6, f"shapes ({a:.3f}, {b:.3f})"

        for factor in (0.5, 2.0):
            scaled = forecast.scale_variance(d, factor)
            assert scaled.mean == d.mean
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
