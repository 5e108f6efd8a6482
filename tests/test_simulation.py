"""Day-level runs: the bundled scenarios, determinism, and table dumps."""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brsim import forecast, market, simulation, vg
from brsim.dataio import load_scenario, scenario_from_dict
from brsim.market import ContractStatus, ExecutionClaim, Offer, SettlementLedger

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def day_contracts(res):
    """Every contract of the day, hour by hour."""
    return [c for hour in res.hours for c in hour.contracts]


@pytest.fixture(scope="module")
def single_hour():
    return load_scenario(SCENARIOS / "single_hour.json")


@pytest.fixture(scope="module")
def day24():
    return load_scenario(SCENARIOS / "day24.json")


class TestSingleHour:
    def test_known_outcome(self, single_hour):
        res = simulation.simulate_day(single_hour)
        assert len(res.hours) == 1
        hour = res.hours[0]
        assert hour.vg_modified == pytest.approx(120.0)
        assert hour.unit_modified["g1"] == pytest.approx(180.0)
        assert hour.vg_modified + hour.unit_modified["g1"] == pytest.approx(300.0)
        contracts = hour.contracts
        assert len(contracts) == 1
        assert contracts[0].status is ContractStatus.EXECUTED
        assert contracts[0].executed_mw == pytest.approx(20.0)
        totals = res.party_totals()
        assert totals["wind1"] == pytest.approx(3590.0)
        assert totals["g1"] == pytest.approx(5410.0)
        assert totals[market.POOL] == pytest.approx(-9000.0)
        assert res.ledger.is_balanced()

    def test_every_hour_reaches_settled(self, single_hour):
        res = simulation.simulate_day(single_hour)
        assert [h.hour for h in res.hours] == list(range(single_hour.horizon))
        assert all(h.ledger.entries for h in res.hours)
        terminal = {ContractStatus.EXECUTED, ContractStatus.RELEASED, ContractStatus.REJECTED}
        assert all(c.status in terminal for c in day_contracts(res))

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
        with pytest.raises(ValueError):
            simulation.hour_context(day24, 24)
        with pytest.raises(ValueError):
            simulation.hour_context(day24, -1)


class TestExperiments:
    def test_profit_sweep_rows(self, day24):
        rows = simulation.profit_sweep(day24, [0.2, 0.0], [2.0, 0.5])
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
        rows = simulation.demand_curve_rows(day24, 10, [0.1, 0.5], 3)
        s, _, d = simulation.hour_context(day24, 10)
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
                for q, value in curve.points
            ]

    def test_profit_sweep_equals_scalar_loop(self, day24):
        # Scales from the variance floor (0) to sub-1 shapes (15); ratios
        # from free cover to past both penalty factors, given out of order.
        scales = [1.0, 0.0, 15.0, 0.3]
        ratios = [0.5, 0.0, 0.07, 0.2, 0.07]
        rows = simulation.profit_sweep(day24, ratios, scales)
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
        for r, (scale, ratio, profit, gross_total, premium_total) in zip(rows, expected):
            assert (r["variance_scale"], r["price_ratio"]) == (scale, ratio)
            assert r["expected_profit"] == pytest.approx(profit, rel=1e-12)
            assert r["gross_expected_revenue"] == pytest.approx(gross_total, rel=1e-12)
            assert r["premium_paid"] == pytest.approx(premium_total, rel=1e-12, abs=0.0)
            assert all(type(v) is float for v in r.values())

    def test_demand_curve_rows_equal_marginal_utility(self, day24):
        rows = simulation.demand_curve_rows(day24, 7, [0.0, 0.25, 1.0], 6)
        s, _, d = simulation.hour_context(day24, 7)
        assert len(rows) == 2 * 3 * 6
        for r in rows:
            pf = vg.PenaltyFactors(over=r["alpha"], under=r["alpha"])
            direction = vg.Direction(r["direction"])
            assert r["marginal_value"] == vg.marginal_utility(
                s, pf, d, direction, r["quantity_mw"]
            )
            assert type(r["quantity_mw"]) is float and type(r["marginal_value"]) is float

    def test_demand_curve_hour_out_of_range(self, day24):
        with pytest.raises(ValueError):
            simulation.demand_curve_rows(day24, 24, [0.3], 3)


class TestDayRun:
    def test_contract_ids_unique_across_hours(self, day24):
        res = simulation.simulate_day(day24)
        ids = [c.id for c in day_contracts(res)]
        assert len(ids) == len(set(ids))
        assert len(ids) > 24  # both sides transact on this profile

    def test_each_hour_is_zero_sum(self, day24):
        res = simulation.simulate_day(day24)
        for hour in res.hours:
            assert hour.ledger.is_balanced()
        assert res.ledger.is_balanced()

    def test_deterministic_for_fixed_config(self, day24):
        a = simulation.simulate_day(day24)
        b = simulation.simulate_day(day24)
        assert list(simulation.ledger_rows(a)) == list(simulation.ledger_rows(b))
        assert list(simulation.contract_rows(a)) == list(simulation.contract_rows(b))

    def test_merit_units_settle_rt_deviations(self, day24):
        res = simulation.simulate_day(day24)
        tags = {e.tag for e in res.ledger.entries}
        assert "rt_imbalance" in tags
        # g2 chases the RT price in merit mode, so it deviates most hours.
        g2_imbalance = [
            e
            for e in res.ledger.entries
            if e.tag == "rt_imbalance" and "g2" in (e.payer, e.payee)
        ]
        assert g2_imbalance

    def test_claim_noise_is_seeded(self, single_hour):
        # Seeds 4 and 5 draw different negative errors, so the claimed
        # deviation lands below the 20 MW cap at different depths.
        noisy_vg = dataclasses.replace(single_hour.vg, claim_error_std_mw=5.0)
        cfg_a = dataclasses.replace(single_hour, vg=noisy_vg, seed=4)
        cfg_b = dataclasses.replace(single_hour, vg=noisy_vg, seed=4)
        cfg_c = dataclasses.replace(single_hour, vg=noisy_vg, seed=5)
        rows_a = list(simulation.ledger_rows(simulation.simulate_day(cfg_a)))
        rows_b = list(simulation.ledger_rows(simulation.simulate_day(cfg_b)))
        rows_c = list(simulation.ledger_rows(simulation.simulate_day(cfg_c)))
        assert rows_a == rows_b
        assert rows_a != rows_c

    def test_noisy_claims_never_exceed_cover(self, single_hour):
        noisy_vg = dataclasses.replace(single_hour.vg, claim_error_std_mw=50.0)
        for seed in range(6):
            cfg = dataclasses.replace(single_hour, vg=noisy_vg, seed=seed)
            res = simulation.simulate_day(cfg)
            for c in day_contracts(res):
                assert c.executed_mw <= c.quantity + 1e-9
            assert res.ledger.is_balanced()


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


class TestDayBatchedDemand:
    @given(cfg=small_days())
    @settings(max_examples=60, deadline=None)
    def test_contracts_equal_per_hour_matching(self, cfg):
        # Reference: each hour on its own, with the buyer's optimum priced
        # one offer at a time from that hour's scalar inputs.
        expected = []
        for h in range(cfg.horizon):
            s, pf, d = simulation.hour_context(cfg, h)
            offers = [
                Offer(oc.seller, h, vg.Direction(oc.direction), oc.price, oc.quantity_mw)
                for oc in cfg.offers
                if oc.hour == h
            ]
            desired = [vg.optimal_quantity(s, pf, d, o.direction, o.price) for o in offers]
            assert market.buyer_demand(offers, s, pf, d) == desired
            for direction in (vg.DOWN, vg.UP):
                contracts = market.match_offers(
                    offers, desired, direction, cfg.vg.id, id_start=len(expected)
                )
                expected += [_matched(c) for c in contracts]
        res = simulation.simulate_day(cfg)
        assert all(c.trimmed_mw == 0.0 for c in day_contracts(res))
        assert [_matched(c) for c in day_contracts(res)] == expected


class TestHourChecks:
    def test_unconserved_execution_raises(self, single_hour, monkeypatch):
        # The producer's schedule moves by the executed total while no unit
        # gives up the MW, so the hour's scheduled total is not conserved.
        real = market.claim_execution

        def lossy(*args, **kwargs):
            claim = real(*args, **kwargs)
            assert claim.executed_down > 0.0
            return ExecutionClaim(
                executed_down=claim.executed_down,
                executed_up=claim.executed_up,
                per_seller_down={},
                per_seller_up=claim.per_seller_up,
            )

        monkeypatch.setattr(market, "claim_execution", lossy)
        with pytest.raises(AssertionError, match=r"hour 0: executions changed"):
            simulation.simulate_day(single_hour)

    def test_unbalanced_ledger_raises(self, single_hour, monkeypatch):
        real = SettlementLedger.net_by_party

        def skewed(self):
            nets = real(self)
            nets[market.POOL] += 1.0
            return nets

        monkeypatch.setattr(SettlementLedger, "net_by_party", skewed)
        with pytest.raises(AssertionError, match=r"hour 0: ledger nets do not cancel"):
            simulation.simulate_day(single_hour)

    def test_pool_flow_mismatch_raises(self, single_hour, monkeypatch):
        # Settlement pays the producer's DA energy on its realized output
        # instead of its DA schedule. Every flow still has a payer and a
        # payee, so the ledger balances, but the pool's net is wrong.
        real = market.settle

        def on_realized(acc):
            return real(dataclasses.replace(acc, vg_da_schedule=acc.vg_realized))

        monkeypatch.setattr(market, "settle", on_realized)
        owed = r"hour 0: pool net -8820\.0 differs from -9000\.0 owed"
        with pytest.raises(AssertionError, match=owed):
            simulation.simulate_day(single_hour)


class TestMarketCalls:
    def test_each_hour_calls_the_market_through_its_module(self, day24, monkeypatch):
        # The benchmark's per-layer spans wrap these module attributes; a
        # call that bypasses them would drop out of its metrics.
        calls = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        names = ("match_offers", "validate_contracts", "claim_execution", "settle")
        for name in names:
            monkeypatch.setattr(market, name, counting(name, getattr(market, name)))
        simulation.simulate_day(day24)
        horizon = day24.horizon
        assert calls == {
            "match_offers": 2 * horizon,
            "validate_contracts": horizon,
            "claim_execution": horizon,
            "settle": horizon,
        }


class TestZonalRuleEndToEnd:
    def test_cross_boundary_contracts_rejected(self, single_hour):
        with open(SCENARIOS / "single_hour.json") as fh:
            doc = json.load(fh)
        doc["vg"]["zone"] = "north"
        doc["units"][0]["zone"] = "south"
        doc["zonal_rule"] = {"congested_boundaries": [["north", "south"]]}
        cfg = scenario_from_dict(doc)
        res = simulation.simulate_day(cfg)
        assert all(c.status is ContractStatus.REJECTED for c in day_contracts(res))
        # Without executable cover the full 20 MW of over-generation settles
        # at the discounted price: 3000 + 0.7 * 30 * 20.
        assert res.party_totals()["wind1"] == pytest.approx(3420.0)


class TestTableDumps:
    def test_contract_rows_shape(self, single_hour):
        res = simulation.simulate_day(single_hour)
        rows = list(simulation.contract_rows(res))
        assert rows[0].keys() == {
            "id", "hour", "buyer", "seller", "direction", "quantity_mw",
            "premium_price", "status", "executed_mw", "trimmed_mw",
        }
        assert rows[0]["direction"] == "down"

    def test_ledger_rows_match_entries(self, day24):
        res = simulation.simulate_day(day24)
        rows = list(simulation.ledger_rows(res))
        assert len(rows) == len(res.ledger.entries)
        assert all(row["tag"] in market.LEDGER_TAGS for row in rows)

    def test_totals_rows_sum_to_zero(self, day24):
        res = simulation.simulate_day(day24)
        rows = simulation.totals_rows(res)
        assert sum(r["net_cash"] for r in rows) == pytest.approx(0.0, abs=1e-6)
