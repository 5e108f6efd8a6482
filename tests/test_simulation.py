"""Day-level runs: the bundled scenarios, determinism, and table dumps."""

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from brsim import cli, forecast, market, provider, simulation, vg
from brsim.dataio import load_scenario, scenario_from_dict
from brsim.market import SettlementLedger
from brsim.provider import _MW_EPS

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
TERMINAL = {"executed", "released", "rejected"}


def day_contracts(res):
    """Every contract of the day as a row dict, in id order."""
    return oracles.table_rows(simulation.contract_rows(res))


@pytest.fixture(scope="module")
def single_hour():
    return load_scenario(SCENARIOS / "single_hour.json")


@pytest.fixture(scope="module")
def day24():
    return load_scenario(SCENARIOS / "day24.json")


class TestSingleHour:
    def test_known_outcome(self, single_hour):
        res = simulation.simulate_day(single_hour)
        vg_modified, unit_modified = res.shifts.vg_modified, res.shifts.unit_modified
        assert vg_modified.shape == (1,) and unit_modified.shape == (1, 1)
        assert res.unit_ids == ("g1",)
        assert vg_modified[0] == pytest.approx(120.0)
        assert unit_modified[0, 0] == pytest.approx(180.0)
        assert vg_modified[0] + unit_modified[0, 0] == pytest.approx(300.0)
        contracts = day_contracts(res)
        assert len(contracts) == 1
        assert contracts[0]["status"] == "executed"
        assert contracts[0]["executed_mw"] == pytest.approx(20.0)
        totals = res.ledger.net_by_party()
        assert totals["wind1"] == pytest.approx(3590.0)
        assert totals["g1"] == pytest.approx(5410.0)
        assert totals[market.POOL] == pytest.approx(-9000.0)
        assert oracles.ledger_is_balanced(res.ledger)

    def test_every_hour_reaches_settled(self, single_hour):
        res = simulation.simulate_day(single_hour)
        assert set(res.ledger.hour.tolist()) == set(range(single_hour.horizon))
        assert all(c["status"] in TERMINAL for c in day_contracts(res))

    def test_realized_output_required(self, single_hour):
        cfg = dataclasses.replace(
            single_hour, vg=dataclasses.replace(single_hour.vg, realized_mw=None)
        )
        with pytest.raises(ValueError, match="realized"):
            simulation.simulate_day(cfg)


class TestHourContext:
    def test_returns_hour_inputs(self, day24):
        s, pf, d = simulation.hour_context(day24, 5)
        assert s.da_quantity == day24.vg.da_schedule_mw[5]
        assert s.da_price == day24.da_price[5]
        assert pf.over == day24.penalty.over
        assert d.capacity == day24.vg.capacity_mw
        assert d.mean == pytest.approx(day24.vg.forecast_mean_mw[5])

    def test_hour_out_of_range(self, day24):
        with pytest.raises(IndexError, match="^hour 24 outside horizon 24$"):
            simulation.hour_context(day24, 24)
        with pytest.raises(IndexError, match="^hour -1 outside horizon 24$"):
            simulation.hour_context(day24, -1)


class TestExperiments:
    def test_profit_sweep_rows(self, day24):
        rows = oracles.table_rows(simulation.profit_sweep(day24, [0.2, 0.0], [2.0, 0.5]))
        assert [(r["variance_scale"], r["price_ratio"]) for r in rows] == [
            (0.5, 0.0), (0.5, 0.2), (2.0, 0.0), (2.0, 0.2),
        ]
        ideal = sum(p * m for p, m in zip(day24.da_price, day24.vg.forecast_mean_mw))
        for r in rows:
            assert r["expected_profit"] == pytest.approx(
                r["gross_expected_revenue"] - r["premium_paid"], rel=1e-12
            )
            if r["price_ratio"] == 0.0:
                assert r["premium_paid"] == 0.0
                assert r["expected_profit"] == pytest.approx(ideal, rel=1e-12)
            else:
                assert r["premium_paid"] > 0.0

    def test_demand_curve_rows(self, day24):
        s, _, d = simulation.hour_context(day24, 10)
        rows = oracles.table_rows(simulation.demand_curve_rows(s, d, [0.1, 0.5], 3))
        blocks = [rows[i:i + 3] for i in range(0, len(rows), 3)]
        assert len(blocks) == 4
        for block, (direction, alpha) in zip(
            blocks, [(vg.DOWN, 0.1), (vg.DOWN, 0.5), (vg.UP, 0.1), (vg.UP, 0.5)]
        ):
            pf = vg.PenaltyFactors(over=alpha, under=alpha)
            curve = vg.demand_curve(s, pf, d, direction, 3)
            assert block == [
                {"direction": direction.value, "alpha": alpha,
                 "quantity_mw": q, "marginal_value": value}
                for q, value in curve
            ]

    def test_profit_sweep_equals_scalar_loop(self, day24):
        # Scales from the variance floor (0) to sub-1 shapes (15); ratios
        # from free cover to past both penalty factors, given out of order.
        scales = [1.0, 0.0, 15.0, 0.3]
        ratios = [0.5, 0.0, 0.07, 0.2, 0.07]
        table = simulation.profit_sweep(day24, ratios, scales)
        rows = oracles.table_rows(table)
        expected = []
        for scale in scales:
            for ratio in ratios:
                profit = gross_total = premium_total = 0.0
                for h in range(day24.horizon):
                    s, pf, d = simulation.hour_context(day24, h)
                    d = forecast.scale_variance(d, scale)
                    price = ratio * s.da_price
                    pos = vg.optimal_position(s, pf, d, price, price)
                    gross = vg.expected_revenue(s, pf, pos, d)
                    premium = vg.premium_cost(pos)
                    profit += gross - premium
                    gross_total += gross
                    premium_total += premium
                expected.append((scale, ratio, profit, gross_total, premium_total))
        expected.sort(key=lambda e: e[:2])
        assert len(rows) == len(expected) == 20
        assert all(type(col) is np.ndarray and col.dtype == np.float64 for col in table.values())
        for r, (scale, ratio, profit, gross_total, premium_total) in zip(rows, expected):
            assert (r["variance_scale"], r["price_ratio"]) == (scale, ratio)
            assert r["expected_profit"] == pytest.approx(profit, rel=1e-12)
            assert r["gross_expected_revenue"] == pytest.approx(gross_total, rel=1e-12)
            assert r["premium_paid"] == pytest.approx(premium_total, rel=1e-12, abs=0.0)

    def test_profit_sweep_evaluates_covered_edges_only(self, day24, monkeypatch):
        # optimal_position takes the CDF at the schedule once for both
        # sides, on the forecast's shape. Then an uncovered side's band edge
        # is the schedule: its terms are evaluated once per forecast
        # element, not once per premium ratio, and both sides' covered edges
        # in one call. Each term is one betainc for the CDF and one for the
        # partial expectation.
        sizes, calls, betainc = [], [], forecast.special.betainc
        expected_revenue = vg.expected_revenue

        def counted(a, b, x):
            sizes.append(np.broadcast(a, b, x).size)
            return betainc(a, b, x)

        def recorded(s, pf, pos, d):
            calls.append((s, pos, d))
            return expected_revenue(s, pf, pos, d)

        monkeypatch.setattr(forecast.special, "betainc", counted)
        monkeypatch.setattr(simulation.vg, "expected_revenue", recorded)
        simulation.profit_sweep(day24, [0.5, 0.0, 0.07, 0.2], [1.0, 0.0, 15.0, 0.3])
        [(s, pos, d)] = calls
        cells = np.broadcast(d.shape_a, pos.up_qty).size
        schedule = np.broadcast(d.shape_a, s.da_quantity).size
        up, down = np.count_nonzero(pos.up_qty), np.count_nonzero(pos.down_qty)
        assert schedule == 4 * 24 and cells == 4 * schedule
        assert 0 < up < cells and 0 < down < cells
        assert sizes == [schedule] * 3 + [down + up] * 2

    def test_profit_sweep_inverts_covered_cells_only(self, day24, monkeypatch):
        # A cell that buys nothing, or whose level lies beyond the CDF at the
        # schedule on the zero-cover side by more than the guard, takes no
        # betaincinv. Up cover at ratio 0.2 has fractile 0.2 / 0.4 = 0.5,
        # and at hours 7 and 17 the schedule is the forecast mean, where
        # F(S) is 0.5 to an ulp: those 8 cells lie inside the guard and take
        # the inverse, and 4 of them get 0. Both sides invert in one call.
        sizes, calls = [], []
        betaincinv, expected_revenue = forecast.special.betaincinv, vg.expected_revenue

        def counted(a, b, q):
            sizes.append(np.broadcast(a, b, q).size)
            return betaincinv(a, b, q)

        def recorded(s, pf, pos, d):
            calls.append(pos)
            return expected_revenue(s, pf, pos, d)

        monkeypatch.setattr(forecast.special, "betaincinv", counted)
        monkeypatch.setattr(simulation.vg, "expected_revenue", recorded)
        simulation.profit_sweep(day24, [0.5, 0.0, 0.07, 0.2], [1.0, 0.0, 15.0, 0.3])
        [pos] = calls
        down, up = np.count_nonzero(pos.down_qty), np.count_nonzero(pos.up_qty)
        assert pos.up_qty.shape == (4, 4, 24)
        assert 0 < down < pos.down_qty.size and 0 < up < pos.up_qty.size
        assert np.count_nonzero(pos.up_qty[:, 3, [7, 17]] == 0) == 4
        assert sizes == [down + up + 4]

    def test_demand_curve_rows_equal_marginal_utility(self, day24):
        s, _, d = simulation.hour_context(day24, 7)
        rows = oracles.table_rows(simulation.demand_curve_rows(s, d, [0.0, 0.25, 1.0], 6))
        assert len(rows) == 2 * 3 * 6
        for r in rows:
            pf = vg.PenaltyFactors(over=r["alpha"], under=r["alpha"])
            direction = vg.Direction(r["direction"])
            assert r["marginal_value"] == vg.marginal_utility(
                s, pf, d, direction, r["quantity_mw"]
            )
            assert type(r["quantity_mw"]) is float and type(r["marginal_value"]) is float

    def test_demand_curve_hour_out_of_range(self, day24, capsys):
        # The hour has one rule: the CLI reports hour_context's own error,
        # with its flag, as a usage error.
        with pytest.raises(IndexError) as error:
            simulation.hour_context(day24, 24)
        for command in ("demand-curve", "optimal"):
            assert cli.main([command, str(SCENARIOS / "day24.json"), "--hour", "24"]) == 2
            assert capsys.readouterr().err == f"usage error: --{error.value}\n"


def _bits(table):
    """Each column's bytes: equal only when every value is bit for bit equal."""
    return {name: column.tobytes() for name, column in table.items()}


class TestSweepBlocks:
    # The variance floor (0) and sub-1 shapes (15); ratios from free cover
    # to past both penalty factors, out of order.
    SCALES = [1.0, 0.0, 15.0, 0.3]
    RATIOS = [0.5, 0.0, 0.07, 0.2, 0.33]

    @pytest.mark.parametrize("one_block", [False, True])
    def test_rows_do_not_depend_on_the_rest_of_the_grid(self, day24, monkeypatch, one_block):
        # Over 16 scales x 90 ratios at once numpy lays expected_revenue's
        # hour axis out strided, where a sum over it would add the hours in
        # another order than over one scale's rows.
        scales = np.geomspace(0.1, 15.0, 16).tolist()
        ratios = np.linspace(0.0, 0.5, 90).tolist()
        if one_block:
            monkeypatch.setattr(simulation, "_SWEEP_BLOCK",
                                len(scales) * len(ratios) * day24.horizon)
        whole = simulation.profit_sweep(day24, ratios, scales)
        for i, scale in enumerate(scales):
            alone = simulation.profit_sweep(day24, ratios, [scale])
            rows = slice(i * len(ratios), (i + 1) * len(ratios))
            assert _bits({name: col[rows] for name, col in whole.items()}) == _bits(alone)

    @pytest.mark.parametrize("block, n_scales, n_ratios, blocks", [
        (24, 1, 1, 1),  # one row
        (4 * 5 * 24, 4, 5, 1),  # exactly one block
        (4 * 5 * 24 - 1, 4, 5, 2),  # the grid one cell over a block: 3 scales, then 1
        (2 * 24, 2, 5, 6),  # ratios split across blocks within one scale
        (2 * 5 * 24, 3, 5, 2),  # whole scales a block, the last one short
        (10, 2, 3, 6),  # a horizon longer than a block: one row a block
    ])
    def test_blocks_give_the_one_block_sweep(self, day24, monkeypatch, block, n_scales,
                                             n_ratios, blocks):
        scales, ratios = self.SCALES[:n_scales], self.RATIOS[:n_ratios]
        monkeypatch.setattr(simulation, "_SWEEP_BLOCK", n_scales * n_ratios * day24.horizon)
        whole = simulation.profit_sweep(day24, ratios, scales)
        cells, expected_revenue = [], vg.expected_revenue

        def recorded(s, pf, pos, d):
            cells.append(pos.up_qty.size)
            return expected_revenue(s, pf, pos, d)

        monkeypatch.setattr(simulation.vg, "expected_revenue", recorded)
        monkeypatch.setattr(simulation, "_SWEEP_BLOCK", block)
        assert _bits(simulation.profit_sweep(day24, ratios, scales)) == _bits(whole)
        assert len(cells) == blocks and sum(cells) == n_scales * n_ratios * day24.horizon
        assert max(cells) <= max(block, day24.horizon)

    def test_memory_is_bounded_by_a_block(self, day24):
        # Held at once, the cells of the smaller grid traced about 14 MB.
        # Blocked, the peak is one block's arrays and the output columns,
        # a few bytes a cell: both grids stay under one bound.
        simulation.profit_sweep(day24, [0.1], [1.0])
        for n_scales in (8, 16):
            scales = np.geomspace(0.1, 15.0, n_scales).tolist()
            ratios = np.linspace(0.0, 0.5, 521).tolist()
            assert len(scales) * len(ratios) * day24.horizon >= 10**5
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                simulation.profit_sweep(day24, ratios, scales)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20, peak


class TestDayRun:
    def test_contract_ids_unique_across_hours(self, day24):
        res = simulation.simulate_day(day24)
        ids = [c["id"] for c in day_contracts(res)]
        assert len(ids) == len(set(ids))
        assert len(ids) > 24  # both sides transact on this profile

    def test_each_hour_is_zero_sum(self, day24):
        res = simulation.simulate_day(day24)
        for hour in range(day24.horizon):
            assert oracles.ledger_is_balanced(oracles.hour_ledger(res.ledger, hour))
        assert oracles.ledger_is_balanced(res.ledger)

    def test_deterministic_for_fixed_config(self, day24):
        a = simulation.simulate_day(day24)
        b = simulation.simulate_day(day24)
        for table in (simulation.ledger_rows, simulation.contract_rows, simulation.totals_rows):
            assert oracles.table_rows(table(a)) == oracles.table_rows(table(b))

    def test_merit_units_settle_rt_deviations(self, day24):
        res = simulation.simulate_day(day24)
        entries = oracles.ledger_entries(res.ledger)
        tags = {e.tag for e in entries}
        assert "rt_imbalance" in tags
        # g2 chases the RT price in merit mode, so it deviates most hours.
        g2_imbalance = [
            e
            for e in entries
            if e.tag == "rt_imbalance" and "g2" in (e.payer, e.payee)
        ]
        assert g2_imbalance

    def test_empty_book_signs_nothing(self):
        doc = json.loads((SCENARIOS / "day24.json").read_text(encoding="utf-8"))
        res = simulation.simulate_day(scenario_from_dict({**doc, "offers": []}))
        assert day_contracts(res) == []
        assert {e.tag for e in oracles.ledger_entries(res.ledger)} == {"da_energy", "rt_imbalance"}

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_one_sided_book_matches_as_its_side_of_the_full_book(self, day24, direction):
        # Sides never share a level, a headroom or a claim, so a book of one
        # side's offers signs and executes exactly that side's contracts.
        doc = json.loads((SCENARIOS / "day24.json").read_text(encoding="utf-8"))
        offers = [o for o in doc["offers"] if o["direction"] == direction]
        alone = simulation.simulate_day(scenario_from_dict({**doc, "offers": offers}))

        def rows(res):
            return [{k: v for k, v in c.items() if k != "id"} for c in day_contracts(res)]

        side = [c for c in rows(simulation.simulate_day(day24)) if c["direction"] == direction]
        assert side and rows(alone) == side

    def test_claim_noise_is_seeded(self, single_hour):
        # Seeds 4 and 5 draw different negative errors, so the claimed
        # deviation lands below the 20 MW cap at different depths.
        noisy_vg = dataclasses.replace(single_hour.vg, claim_error_std_mw=5.0)
        cfg_a = dataclasses.replace(single_hour, vg=noisy_vg, seed=4)
        cfg_b = dataclasses.replace(single_hour, vg=noisy_vg, seed=4)
        cfg_c = dataclasses.replace(single_hour, vg=noisy_vg, seed=5)
        rows_a = oracles.table_rows(simulation.ledger_rows(simulation.simulate_day(cfg_a)))
        rows_b = oracles.table_rows(simulation.ledger_rows(simulation.simulate_day(cfg_b)))
        rows_c = oracles.table_rows(simulation.ledger_rows(simulation.simulate_day(cfg_c)))
        assert rows_a == rows_b
        assert rows_a != rows_c

    def test_noisy_claims_never_exceed_cover(self, single_hour):
        noisy_vg = dataclasses.replace(single_hour.vg, claim_error_std_mw=50.0)
        for seed in range(6):
            cfg = dataclasses.replace(single_hour, vg=noisy_vg, seed=seed)
            res = simulation.simulate_day(cfg)
            for c in day_contracts(res):
                assert c["executed_mw"] <= c["quantity_mw"] + 1e-9
            assert oracles.ledger_is_balanced(res.ledger)


@st.composite
def small_days(draw):
    """A scenario of a few hours whose units never trim or reject cover, so
    every contract keeps the quantity matching gave it. Each side of each
    hour gets zero to five offers at prices drawn as fractions of the first
    MW's value, so levels tie, reach or pass that value, and lie beyond
    the point where the greedy walk stops."""
    horizon = draw(st.integers(1, 4))
    capacity = draw(st.floats(50.0, 300.0))
    hourly = st.lists(st.floats(0.02, 0.98), min_size=horizon, max_size=horizon)
    means = [f * capacity for f in draw(hourly)]
    schedule = [f * capacity for f in draw(hourly)]
    da_price = draw(st.lists(st.floats(5.0, 80.0), min_size=horizon, max_size=horizon))
    penalty = {"over": draw(st.floats(0.05, 1.0)), "under": draw(st.floats(0.05, 1.5))}
    levels = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.3])
    offers = []
    for h in range(horizon):
        for direction, factor in (("down", penalty["over"]), ("up", penalty["under"])):
            for _ in range(draw(st.integers(0, 5))):
                offers.append({
                    "seller": draw(st.sampled_from(["g1", "g2"])),
                    "hour": h,
                    "direction": direction,
                    "price": draw(levels) * da_price[h] * factor,
                    "quantity_mw": draw(st.floats(0.5, 0.4 * capacity)),
                })
    unit = {"kind": "base_load", "p_min_mw": 0.0, "p_max_mw": 4000.0,
            "marginal_cost": 20.0, "da_schedule_mw": 2000.0}
    return scenario_from_dict({
        "horizon": horizon,
        "vg": {"capacity_mw": capacity, "forecast_mean_mw": means,
               "da_schedule_mw": schedule, "realized_mw": means},
        "penalty": penalty,
        "da_price": da_price,
        "units": [{"id": "g1", **unit}, {"id": "g2", **unit}],
        "offers": offers,
    })


def _matched(contract):
    return (contract.id, contract.hour, contract.buyer, contract.seller,
            contract.direction, contract.quantity, contract.premium_price)


def _matched_row(row):
    return (row["id"], row["hour"], row["buyer"], row["seller"],
            vg.Direction(row["direction"]), row["quantity_mw"], row["premium_price"])


class TestDayBatchedDemand:
    @given(cfg=small_days())
    @settings(max_examples=60, deadline=None)
    def test_contracts_equal_per_hour_matching(self, cfg):
        # Reference: each hour on its own through the per-hour market, with
        # the buyer's optimum priced one offer at a time from that hour's
        # scalar inputs.
        expected = []
        for h in range(cfg.horizon):
            s, pf, d = simulation.hour_context(cfg, h)
            offers = [
                oracles.Offer(oc["seller"], h, vg.Direction(oc["direction"]), oc["price"],
                              oc["quantity_mw"])
                for oc in oracles.offer_rows(cfg)
                if oc["hour"] == h
            ]
            desired = [vg.optimal_quantity(s, pf, d, o.direction, o.price) for o in offers]
            for direction in (vg.DOWN, vg.UP):
                contracts = oracles.match_offers(
                    offers, desired, direction, cfg.vg.id, id_start=len(expected)
                )
                expected += [_matched(c) for c in contracts]
        res = simulation.simulate_day(cfg)
        assert all(c["trimmed_mw"] == 0.0 for c in day_contracts(res))
        assert [_matched_row(c) for c in day_contracts(res)] == expected


def _near(value, draw):
    """value, or one of its float neighbours."""
    return draw(st.sampled_from([value, math.nextafter(value, 0), math.nextafter(value, math.inf)]))


@st.composite
def edge_days(draw):
    """A scenario of a few hours that reaches the edges of the market rules:
    offer quantities within an ulp of _MW_EPS, headroom within an ulp of an
    offer's quantity or of _MW_EPS, deviations within an ulp of _MW_EPS,
    price levels shared across sellers, a seller across a congested
    boundary, negative RT prices, merit and modified-schedule units, and
    claim noise."""
    horizon = draw(st.integers(1, 4))
    capacity = draw(st.floats(50.0, 300.0))
    hourly = st.lists(st.floats(0.02, 0.98), min_size=horizon, max_size=horizon)
    means = [f * capacity for f in draw(hourly)]
    schedule = [f * capacity for f in draw(hourly)]
    realized = [f * capacity for f in draw(hourly)]
    for h in range(horizon):
        # From a zero schedule, a deviation of _MW_EPS is exact.
        if draw(st.booleans()):
            schedule[h] = draw(st.sampled_from([0.0, schedule[h]]))
            realized[h] = schedule[h] + draw(st.sampled_from([-1.0, 1.0])) * _near(_MW_EPS, draw)
            realized[h] = min(max(realized[h], 0.0), capacity)
    da_price = draw(st.lists(st.floats(5.0, 80.0), min_size=horizon, max_size=horizon))
    rt_price = draw(st.lists(st.floats(-40.0, 80.0), min_size=horizon, max_size=horizon))
    penalty = {"over": draw(st.floats(0.05, 1.0)), "under": draw(st.floats(0.05, 1.5))}
    quantities = st.one_of(
        st.floats(0.5, 0.4 * capacity),
        st.sampled_from([_MW_EPS, math.nextafter(_MW_EPS, 0.0), math.nextafter(_MW_EPS, 1.0),
                         2.0 * _MW_EPS]),
    )
    levels = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.3])
    sellers = ("g1", "g2", "g3")
    offers = []
    for h in range(horizon):
        for direction, factor in (("down", penalty["over"]), ("up", penalty["under"])):
            for _ in range(draw(st.integers(0, 5))):
                offers.append({
                    "seller": draw(st.sampled_from(sellers)),
                    "hour": h,
                    "direction": direction,
                    "price": draw(levels) * da_price[h] * factor,
                    "quantity_mw": draw(quantities),
                })
    units = []
    for uid in sellers:
        # Per hour, the down headroom (the schedule over p_min = 0) is a
        # free value, or within an ulp of one of the seller's offers or of
        # _MW_EPS; the up headroom is whatever p_max leaves.
        p_max = draw(st.floats(10.0, 400.0))
        sched = []
        for h in range(horizon):
            mine = [o["quantity_mw"] for o in offers if o["seller"] == uid and o["hour"] == h]
            target = draw(st.sampled_from(mine + [_MW_EPS, None]))
            if target is None:
                sched.append(draw(st.floats(0.0, 1.0)) * p_max)
            else:
                sched.append(min(_near(target, draw), p_max))
        units.append({
            "id": uid, "kind": draw(st.sampled_from(["base_load", "marginal"])),
            "p_min_mw": 0.0, "p_max_mw": p_max, "marginal_cost": draw(st.floats(-5.0, 60.0)),
            "da_schedule_mw": sched, "zone": draw(st.sampled_from(["north", "south"])),
            "rt_mode": draw(st.sampled_from(["merit", "modified_schedule"])),
        })
    return scenario_from_dict({
        "horizon": horizon,
        "seed": draw(st.integers(0, 2**16)),
        "vg": {"capacity_mw": capacity, "forecast_mean_mw": means, "zone": "north",
               "da_schedule_mw": schedule, "realized_mw": realized,
               "claim_error_std_mw": draw(st.sampled_from([0.0, 0.5, 20.0]))},
        "penalty": penalty,
        "da_price": da_price,
        "rt_price": rt_price,
        "units": units,
        "offers": offers,
        "zonal_rule": draw(st.sampled_from([None, {"congested_boundaries": [["north", "south"]]}])),
    })


class TestColumnarDay:
    @given(cfg=edge_days())
    @settings(max_examples=80, deadline=None)
    def test_day_equals_per_hour_oracle(self, cfg):
        # Contract for contract and entry for entry, bit for bit.
        contracts, entries = oracles.per_hour_day(cfg)
        res = simulation.simulate_day(cfg)
        assert [
            (c.id, c.status.value, c.quantity, c.executed_mw, c.trimmed_mw) for c in contracts
        ] == [
            (c["id"], c["status"], c["quantity_mw"], c["executed_mw"], c["trimmed_mw"])
            for c in day_contracts(res)
        ]
        assert [_matched(c) for c in contracts] == [_matched_row(c) for c in day_contracts(res)]
        assert entries == oracles.ledger_entries(res.ledger)

    @pytest.mark.parametrize("deviation", [_MW_EPS, math.nextafter(_MW_EPS, 1.0)])
    def test_execution_share_at_the_eps_is_released(self, deviation):
        # From a zero schedule the claimed deviation is exact; one contract
        # takes all of it, and a share of exactly _MW_EPS executes nothing.
        doc = json.loads((SCENARIOS / "single_hour.json").read_text(encoding="utf-8"))
        doc["vg"].update(da_schedule_mw=[0.0], realized_mw=[deviation], claim_error_std_mw=0.0)
        cfg = scenario_from_dict(doc)
        contracts, entries = oracles.per_hour_day(cfg)
        res = simulation.simulate_day(cfg)
        expected = ("released", 0.0) if deviation == _MW_EPS else ("executed", deviation)
        assert [(c["status"], c["executed_mw"]) for c in day_contracts(res)] == [
            (c.status.value, c.executed_mw) for c in contracts
        ] == [expected]
        assert entries == oracles.ledger_entries(res.ledger)

    def test_zonal72_equals_per_hour_oracle(self):
        cfg = load_scenario(SCENARIOS / "zonal72.json")
        contracts, entries = oracles.per_hour_day(cfg)
        res = simulation.simulate_day(cfg)
        assert [_matched(c) for c in contracts] == [_matched_row(c) for c in day_contracts(res)]
        assert [(c.status.value, c.executed_mw, c.trimmed_mw) for c in contracts] == [
            (c["status"], c["executed_mw"], c["trimmed_mw"]) for c in day_contracts(res)
        ]
        assert entries == oracles.ledger_entries(res.ledger)
        # Every rejection names its rule: the southern seller's are zonal.
        c = res.contracts
        rejected = c.status == market.REJECTED
        reasons = {market.REASONS[r] for r in c.reason[rejected].tolist()}
        assert reasons == {"zonal"}
        assert (c.reason[c.trimmed > 0.0] == market.HEADROOM).all()


class TestHourChecks:
    def test_unconserved_execution_raises(self, single_hour, monkeypatch):
        # The producer's schedule moves by the executed total while no unit
        # gives up the MW, so the hour's scheduled total is not conserved.
        real = market.executed_by_seller

        def lossy(contracts, vg_schedule, units):
            shifts = real(contracts, vg_schedule, units)
            down = ~shifts.up
            assert down.any()
            kept = shifts.unit_modified.copy()
            kept[shifts.hour[down], shifts.seller[down]] += shifts.mw[down]
            return dataclasses.replace(shifts, unit_modified=kept)

        monkeypatch.setattr(market, "executed_by_seller", lossy)
        with pytest.raises(AssertionError, match=r"hour 0: executions changed"):
            simulation.simulate_day(single_hour)

    def test_unbalanced_ledger_raises(self, single_hour, monkeypatch):
        real = SettlementLedger.hourly_nets

        def skewed(self, horizon):
            nets = real(self, horizon)
            nets[:, self.parties.index(market.POOL)] += 1.0
            return nets

        monkeypatch.setattr(SettlementLedger, "hourly_nets", skewed)
        with pytest.raises(AssertionError, match=r"hour 0: ledger nets do not cancel"):
            simulation.simulate_day(single_hour)

    def test_pool_flow_mismatch_raises(self, single_hour, monkeypatch):
        # Settlement pays the producer's DA energy on its realized output
        # instead of its DA schedule. Every flow still has a payer and a
        # payee, so the ledger balances, but the pool's net is wrong.
        real = market.settle

        def on_realized(**accounts):
            return real(**{**accounts, "vg_schedule": accounts["vg_realized"]})

        monkeypatch.setattr(market, "settle", on_realized)
        owed = r"hour 0: pool net -9600\.0 differs from -9000\.0 owed"
        with pytest.raises(AssertionError, match=owed):
            simulation.simulate_day(single_hour)

    def test_unit_outside_its_range_raises(self, single_hour, monkeypatch):
        # The MW are conserved, but a unit is pushed past p_max.
        real = market.executed_by_seller

        def pushed(contracts, vg_schedule, units):
            shifts = real(contracts, vg_schedule, units)
            return dataclasses.replace(shifts, vg_modified=shifts.vg_modified - 1000.0,
                                       unit_modified=shifts.unit_modified + 1000.0)

        monkeypatch.setattr(market, "executed_by_seller", pushed)
        with pytest.raises(AssertionError, match=r"^hour 0: unit g1 pushed to 1180\.0 MW"):
            simulation.simulate_day(single_hour)

    def test_non_finite_amount_names_its_flow(self, day24, monkeypatch):
        real = provider.rt_dispatch
        monkeypatch.setattr(provider, "rt_dispatch", lambda u, rt: real(u, rt) + np.inf)
        msg = r"^hour 0: rt_imbalance from 'pool' to 'g1' must be finite and >= 0, got inf$"
        with pytest.raises(ValueError, match=msg):
            simulation.simulate_day(day24)


class TestMarketCalls:
    def test_the_day_calls_the_market_through_its_module(self, day24, monkeypatch):
        # The benchmark's per-layer spans wrap these module attributes; a
        # call that bypasses them would drop out of its metrics.
        calls = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        names = ("match_offers", "validate_contracts", "claim_execution", "executed_by_seller",
                 "settle")
        for name in names:
            monkeypatch.setattr(market, name, counting(name, getattr(market, name)))
        simulation.simulate_day(day24)
        # The day runs each step once; settle reads the schedules that
        # executed_by_seller moved.
        assert calls == dict.fromkeys(names, 1)

    def test_the_day_matches_the_loaded_book_by_seller_code(self, day24, monkeypatch):
        # The market gets the config's columns as they are, and a seller is
        # its index in units: under renamed units, whose ids no offer names,
        # the day signs the same contracts.
        books, match = [], market.match_offers
        monkeypatch.setattr(market, "match_offers",
                            lambda book, *args: books.append(book) or match(book, *args))
        units = tuple(dataclasses.replace(u, id=f"x_{u.id}") for u in day24.units)
        before = simulation.simulate_day(day24)
        after = simulation.simulate_day(dataclasses.replace(day24, units=units))
        for key, col in day24.offers.items():
            assert np.shares_memory(getattr(books[0], key), col), key
        assert after.unit_ids == tuple(f"x_{uid}" for uid in before.unit_ids)
        assert len(set(before.contracts.seller.tolist())) > 1
        for f in dataclasses.fields(market.Contracts):
            assert np.array_equal(getattr(after.contracts, f.name),
                                  getattr(before.contracts, f.name)), f.name


class TestZonalRuleEndToEnd:
    def test_cross_boundary_contracts_rejected(self, single_hour):
        with open(SCENARIOS / "single_hour.json") as fh:
            doc = json.load(fh)
        doc["vg"]["zone"] = "north"
        doc["units"][0]["zone"] = "south"
        doc["zonal_rule"] = {"congested_boundaries": [["north", "south"]]}
        cfg = scenario_from_dict(doc)
        res = simulation.simulate_day(cfg)
        assert all(c["status"] == "rejected" for c in day_contracts(res))
        assert (res.contracts.reason == market.ZONAL).all()
        # Without executable cover the full 20 MW of over-generation settles
        # at the discounted price: 3000 + 0.7 * 30 * 20.
        assert res.ledger.net_by_party()["wind1"] == pytest.approx(3420.0)

    def test_only_sellers_across_a_listed_boundary_are_blocked(self):
        # A northern producer and one seller in each case: across the
        # listed boundary (given in the other order), in the producer's
        # own zone, in a zone no boundary names, and with no zone.
        zones = {"south": "south", "north": "north", "east": "east", "nowhere": None}
        doc = json.loads((SCENARIOS / "single_hour.json").read_text(encoding="utf-8"))
        doc["vg"]["zone"] = "north"
        doc["zonal_rule"] = {"congested_boundaries": [["south", "north"]]}
        unit = doc["units"][0]
        doc["units"] = [{**unit, "id": uid} | ({"zone": z} if z else {}) for uid, z in zones.items()]
        doc["offers"] = [{**doc["offers"][0], "seller": uid, "quantity_mw": 2.0} for uid in zones]
        res = simulation.simulate_day(scenario_from_dict(doc))
        status = {c["seller"]: c["status"] for c in day_contracts(res)}
        assert status.keys() == zones.keys()
        assert status.pop("south") == "rejected"
        assert set(status.values()) == {"executed"}


class TestTableDumps:
    def test_contract_rows_shape(self, single_hour):
        res = simulation.simulate_day(single_hour)
        rows = day_contracts(res)
        assert list(rows[0]) == [
            "id", "hour", "buyer", "seller", "direction", "quantity_mw",
            "premium_price", "status", "executed_mw", "trimmed_mw",
        ]
        assert rows[0]["direction"] == "down"

    def test_ledger_rows_match_entries(self, day24):
        res = simulation.simulate_day(day24)
        rows = oracles.table_rows(simulation.ledger_rows(res))
        assert len(rows) == len(res.ledger.hour)
        assert all(row["tag"] in market.LEDGER_TAGS for row in rows)
        assert rows == [dataclasses.asdict(e) for e in oracles.ledger_entries(res.ledger)]

    def test_totals_rows_sum_to_zero(self, day24):
        res = simulation.simulate_day(day24)
        rows = oracles.table_rows(simulation.totals_rows(res))
        assert sum(r["net_cash"] for r in rows) == pytest.approx(0.0, abs=1e-6)
