"""Hourly capacity market: matching, validation, claims, settlement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brsim import forecast, market, provider, vg
from brsim.market import (
    BrsContract,
    ContractStatus,
    HourAccounts,
    Offer,
    PhaseError,
    SettlementLedger,
)
from brsim.provider import DispatchableUnit, UnitKind
from brsim.vg import DOWN, UP, BrsPosition, PenaltyFactors, VgSchedule
from oracles import JointScenario, ledger_net, revenue_unit_with_brs, revenue_with_brs

PF = PenaltyFactors(over=0.3, under=0.3)


def beta22():
    return forecast.from_mean_variance(100.0, 50.0, 500.0)


def mid_schedule():
    return VgSchedule(da_quantity=50.0, da_price=30.0)


def g_unit(schedule=200.0, p_min=150.0, p_max=250.0, kind=UnitKind.BASE_LOAD, cost=15.0):
    return DispatchableUnit(kind, p_min, p_max, cost, schedule)


def signed(contract_id, direction, quantity, seller="g1", price=1.0, buyer="vg"):
    return BrsContract(
        id=contract_id,
        buyer=buyer,
        seller=seller,
        hour=0,
        direction=direction,
        quantity=quantity,
        premium_price=price,
    )


class TestOfferAndContractChecks:
    def test_offer_validation(self):
        with pytest.raises(ValueError):
            Offer("g1", 0, DOWN, price=1.0, quantity=0.0)
        with pytest.raises(ValueError):
            Offer("g1", 0, DOWN, price=-1.0, quantity=5.0)
        with pytest.raises(ValueError):
            Offer("g1", -1, DOWN, price=1.0, quantity=5.0)

    def test_contract_validation(self):
        with pytest.raises(ValueError):
            signed(0, DOWN, quantity=-5.0)
        with pytest.raises(ValueError):
            BrsContract(0, "vg", "vg", 0, DOWN, 5.0, 1.0)

    def test_transitions_follow_lifecycle(self):
        c = signed(0, DOWN, 10.0)
        c.transition(ContractStatus.VALIDATED)
        c.transition(ContractStatus.EXECUTED)
        with pytest.raises(PhaseError):
            c.transition(ContractStatus.RELEASED)

    def test_illegal_jumps_rejected(self):
        c = signed(0, DOWN, 10.0)
        with pytest.raises(PhaseError):
            c.transition(ContractStatus.EXECUTED)
        c.transition(ContractStatus.REJECTED)
        with pytest.raises(PhaseError):
            c.transition(ContractStatus.VALIDATED)


class TestLedger:
    def test_entry_validation(self):
        led = SettlementLedger()
        with pytest.raises(ValueError):
            led.add(0, "a", "a", 5.0, "premium")
        with pytest.raises(ValueError):
            led.add(0, "a", "b", 5.0, "rebate")
        with pytest.raises(ValueError):
            led.add(0, "a", "b", -5.0, "premium")
        with pytest.raises(ValueError):
            led.add(0, "a", "b", float("inf"), "premium")

    def test_bad_amount_names_its_flow(self):
        led = SettlementLedger()
        msg = r"^hour 7: premium from 'a' to 'b' must be finite and >= 0, got inf$"
        with pytest.raises(ValueError, match=msg):
            led.add(7, "a", "b", float("inf"), "premium")

    def test_zero_amounts_are_dropped(self):
        led = SettlementLedger()
        led.add(0, "a", "b", 0.0, "premium")
        assert led.entries == []

    def test_net_and_parties(self):
        led = SettlementLedger()
        led.add(0, "pool", "a", 100.0, "da_energy")
        led.add(0, "a", "b", 30.0, "premium")
        assert ledger_net(led, "a") == pytest.approx(70.0)
        assert ledger_net(led, "b") == pytest.approx(30.0)
        assert ledger_net(led, "pool") == pytest.approx(-100.0)
        assert list(led.net_by_party()) == ["pool", "a", "b"]
        assert led.net_by_party() == {
            "pool": pytest.approx(-100.0),
            "a": pytest.approx(70.0),
            "b": pytest.approx(30.0),
        }

    def test_awkward_amounts_balance(self):
        led = SettlementLedger()
        for i in range(200):
            led.add(0, "a", "b", 0.1 * (i + 1) + 1e-7, "premium")
            led.add(0, "b", "pool", 0.3333333333 * (i + 1), "rt_imbalance")
        assert led.is_balanced()

    @given(
        flows=st.lists(
            st.tuples(
                st.permutations(["pool", "vg", "g1", "g2"]),
                st.floats(1e-6, 1e6),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_net_by_party_equals_each_net(self, flows):
        led = SettlementLedger()
        for (payer, payee, _, _), amount in flows:
            led.add(0, payer, payee, amount, "premium")
        first_seen = []
        for e in led.entries:
            first_seen += [p for p in (e.payer, e.payee) if p not in first_seen]
        nets = led.net_by_party()
        assert list(nets) == first_seen
        for party in first_seen:
            assert nets[party] == ledger_net(led, party)

    def test_nets_that_do_not_cancel_are_unbalanced(self, monkeypatch):
        led = SettlementLedger()
        led.add(0, "pool", "a", 100.0, "da_energy")
        led.add(0, "a", "b", 30.0, "premium")
        assert led.is_balanced()
        nets = led.net_by_party()
        monkeypatch.setattr(
            SettlementLedger, "net_by_party", lambda self: {**nets, "b": 30.0 + 1e-6}
        )
        assert not led.is_balanced()


class TestMatching:
    def test_single_offer_trimmed_to_optimum(self):
        s, d = mid_schedule(), beta22()
        offers = [Offer("g1", 0, DOWN, price=1.40625, quantity=40.0)]
        desired = market.buyer_demand(offers, s, PF, d)
        got = market.match_offers(offers, desired, DOWN, buyer="vg")
        assert len(got) == 1
        assert got[0].quantity == pytest.approx(25.0, abs=1e-6)
        assert got[0].premium_price == 1.40625
        assert got[0].status is ContractStatus.SIGNED

    def test_small_cheap_offer_taken_whole(self):
        s, d = mid_schedule(), beta22()
        offers = [Offer("g1", 0, DOWN, price=0.5, quantity=20.0)]
        desired = market.buyer_demand(offers, s, PF, d)
        got = market.match_offers(offers, desired, DOWN, buyer="vg")
        assert len(got) == 1
        assert got[0].quantity == pytest.approx(20.0)

    def test_pro_rata_within_marginal_level(self):
        s, d = mid_schedule(), beta22()
        offers = [
            Offer("g1", 0, DOWN, price=1.40625, quantity=15.0),
            Offer("g2", 0, DOWN, price=1.40625, quantity=35.0),
        ]
        desired = market.buyer_demand(offers, s, PF, d)
        got = market.match_offers(offers, desired, DOWN, buyer="vg")
        assert len(got) == 2
        fills = {c.seller: c.quantity for c in got}
        assert fills["g1"] == pytest.approx(25.0 * 15.0 / 50.0, abs=1e-6)
        assert fills["g2"] == pytest.approx(25.0 * 35.0 / 50.0, abs=1e-6)

    def test_cheaper_levels_fill_first(self):
        s, d = mid_schedule(), beta22()
        desired_at_2 = vg.optimal_quantity(s, PF, d, DOWN, 2.0)
        offers = [
            Offer("g2", 0, DOWN, price=2.0, quantity=50.0),
            Offer("g1", 0, DOWN, price=0.5, quantity=5.0),
        ]
        desired = market.buyer_demand(offers, s, PF, d)
        got = market.match_offers(offers, desired, DOWN, buyer="vg")
        assert [c.seller for c in got] == ["g1", "g2"]
        assert got[0].quantity == pytest.approx(5.0)
        assert got[1].quantity == pytest.approx(desired_at_2 - 5.0, abs=1e-6)

    def test_expensive_levels_left_untouched(self):
        s, d = mid_schedule(), beta22()
        offers = [
            Offer("g1", 0, DOWN, price=9.0, quantity=10.0),
            Offer("g2", 0, DOWN, price=12.0, quantity=10.0),
        ]
        desired = market.buyer_demand(offers, s, PF, d)
        assert market.match_offers(offers, desired, DOWN, buyer="vg") == []

    def test_other_direction_ignored(self):
        s, d = mid_schedule(), beta22()
        offers = [Offer("g1", 0, UP, price=0.5, quantity=20.0)]
        desired = market.buyer_demand(offers, s, PF, d)
        assert market.match_offers(offers, desired, DOWN, buyer="vg") == []

    def test_ids_start_where_asked(self):
        s, d = mid_schedule(), beta22()
        offers = [
            Offer("g1", 0, DOWN, price=0.5, quantity=5.0),
            Offer("g2", 0, DOWN, price=0.6, quantity=5.0),
        ]
        desired = market.buyer_demand(offers, s, PF, d)
        got = market.match_offers(offers, desired, DOWN, buyer="vg", id_start=7)
        assert [c.id for c in got] == [7, 8]

    def test_demand_must_cover_every_offer(self):
        s, d = mid_schedule(), beta22()
        offers = [Offer("g1", 0, DOWN, price=0.5, quantity=5.0)]
        desired = market.buyer_demand(offers, s, PF, d)
        with pytest.raises(ValueError, match="shorter"):
            market.match_offers(offers + offers, desired, DOWN, buyer="vg")

    def test_demand_reads_each_offer_hour(self):
        # Day-level inputs hold one element per hour; each offer is priced
        # against its own hour's schedule and forecast.
        means, schedules, prices = [30.0, 50.0, 70.0], [40.0, 50.0, 60.0], [20.0, 30.0, 40.0]
        d = forecast.from_mean(100.0, np.array(means))
        s = VgSchedule(da_quantity=np.array(schedules), da_price=np.array(prices))
        offers = [
            Offer("g1", 2, DOWN, price=1.0, quantity=5.0),
            Offer("g1", 0, UP, price=1.0, quantity=5.0),
            Offer("g1", 1, DOWN, price=2.0, quantity=5.0),
        ]
        got = market.buyer_demand(offers, s, PF, d)
        for o, mw in zip(offers, got):
            s_h = VgSchedule(da_quantity=schedules[o.hour], da_price=prices[o.hour])
            d_h = forecast.from_mean(100.0, means[o.hour])
            assert mw == vg.optimal_quantity(s_h, PF, d_h, o.direction, o.price)


class TestValidation:
    def test_straddling_contract_is_trimmed(self):
        # Down headroom is schedule - p_min = 50 MW.
        c = signed(0, DOWN, 60.0)
        market.validate_contracts([c], {"g1": g_unit()})
        assert c.status is ContractStatus.VALIDATED
        assert c.quantity == pytest.approx(50.0)
        assert c.trimmed_mw == pytest.approx(10.0)

    def test_oldest_first_newer_rejected(self):
        c0 = signed(0, DOWN, 30.0)
        c1 = signed(1, DOWN, 30.0)
        c2 = signed(2, DOWN, 5.0)
        market.validate_contracts([c2, c0, c1], {"g1": g_unit()})
        assert c0.status is ContractStatus.VALIDATED and c0.quantity == 30.0
        assert c1.status is ContractStatus.VALIDATED
        assert c1.quantity == pytest.approx(20.0)
        assert c1.trimmed_mw == pytest.approx(10.0)
        assert c2.status is ContractStatus.REJECTED

    def test_sides_consume_separate_headroom(self):
        c0 = signed(0, DOWN, 50.0)
        c1 = signed(1, UP, 50.0)
        market.validate_contracts([c0, c1], {"g1": g_unit()})
        assert c0.status is ContractStatus.VALIDATED
        assert c1.status is ContractStatus.VALIDATED

    def test_unknown_seller(self):
        c = signed(0, DOWN, 10.0, seller="ghost")
        with pytest.raises(ValueError, match="unknown seller"):
            market.validate_contracts([c], {"g1": g_unit()})

    def test_revalidation_refused(self):
        c = signed(0, DOWN, 10.0)
        market.validate_contracts([c], {"g1": g_unit()})
        with pytest.raises(PhaseError):
            market.validate_contracts([c], {"g1": g_unit()})

    def test_zonal_rule_rejects_across_boundary(self):
        c0 = signed(0, DOWN, 10.0, seller="g1")
        c1 = signed(1, DOWN, 10.0, seller="g2")
        market.validate_contracts([c0, c1], {"g1": g_unit(), "g2": g_unit()}, frozenset({"g1"}))
        assert c0.status is ContractStatus.REJECTED
        assert c0.trimmed_mw == 0.0
        assert c1.status is ContractStatus.VALIDATED

    def test_unknown_seller_is_checked_before_the_block(self):
        c = signed(0, DOWN, 10.0, seller="ghost")
        with pytest.raises(ValueError, match="unknown seller"):
            market.validate_contracts([c], {"g1": g_unit()}, frozenset({"ghost"}))


class TestClaim:
    def _validated(self, direction, quantities, sellers=None):
        sellers = sellers or ["g1"] * len(quantities)
        out = []
        for i, (q, seller) in enumerate(zip(quantities, sellers)):
            c = signed(i, direction, q, seller=seller)
            c.transition(ContractStatus.VALIDATED)
            out.append(c)
        return out

    def test_over_generation_executes_down_side(self):
        down = self._validated(DOWN, [20.0])
        up = self._validated(UP, [15.0])
        up[0].id = 99
        claim = market.claim_execution(down + up, da_quantity=100.0, claimed_output=110.0)
        assert claim.executed_down == pytest.approx(10.0)
        assert claim.executed_up == 0.0
        assert down[0].status is ContractStatus.EXECUTED
        assert down[0].executed_mw == pytest.approx(10.0)
        assert up[0].status is ContractStatus.RELEASED
        assert up[0].executed_mw == 0.0

    def test_execution_capped_by_contracted_total(self):
        down = self._validated(DOWN, [20.0])
        claim = market.claim_execution(down, da_quantity=100.0, claimed_output=130.0)
        assert claim.executed_down == pytest.approx(20.0)

    def test_pro_rata_across_sellers(self):
        down = self._validated(DOWN, [30.0, 10.0], sellers=["g1", "g2"])
        claim = market.claim_execution(down, da_quantity=100.0, claimed_output=120.0)
        assert claim.per_seller_down["g1"] == pytest.approx(15.0)
        assert claim.per_seller_down["g2"] == pytest.approx(5.0)

    def test_no_deviation_releases_everything(self):
        down = self._validated(DOWN, [20.0])
        claim = market.claim_execution(down, da_quantity=100.0, claimed_output=100.0)
        assert claim.executed_down == 0.0
        assert down[0].status is ContractStatus.RELEASED

    def test_under_generation_executes_up_side(self):
        up = self._validated(UP, [25.0])
        claim = market.claim_execution(up, da_quantity=100.0, claimed_output=90.0)
        assert claim.executed_up == pytest.approx(10.0)
        assert up[0].status is ContractStatus.EXECUTED

    def test_signed_contract_blocks_claim(self):
        c = signed(0, DOWN, 10.0)
        with pytest.raises(PhaseError):
            market.claim_execution([c], da_quantity=100.0, claimed_output=110.0)

    @pytest.mark.parametrize("status", [ContractStatus.EXECUTED, ContractStatus.RELEASED])
    def test_second_claim_refused(self, status):
        # A contract already claimed fails the claim before any other one
        # changes: the validated contract stays validated.
        fresh = self._validated(DOWN, [10.0])[0]
        claimed = self._validated(DOWN, [10.0])[0]
        claimed.id = 1
        claimed.transition(status)
        with pytest.raises(PhaseError, match=f"contract 1 is {status.value}, cannot claim"):
            market.claim_execution([fresh, claimed], da_quantity=100.0, claimed_output=110.0)
        assert fresh.status is ContractStatus.VALIDATED and fresh.executed_mw == 0.0

    def test_rejected_contracts_ignored(self):
        c = signed(0, DOWN, 10.0)
        c.transition(ContractStatus.REJECTED)
        claim = market.claim_execution([c], da_quantity=100.0, claimed_output=110.0)
        assert claim.executed_down == 0.0
        assert c.status is ContractStatus.REJECTED


def worked_hour_accounts():
    c = signed(0, DOWN, 20.0, seller="g1", price=0.5, buyer="wind1")
    c.transition(ContractStatus.VALIDATED)
    c.transition(ContractStatus.EXECUTED)
    c.executed_mw = 20.0
    unit = DispatchableUnit(UnitKind.BASE_LOAD, 100.0, 250.0, 15.0, 200.0)
    return HourAccounts(
        hour=0,
        vg_id="wind1",
        da_price=30.0,
        rt_price=30.0,
        penalty=PF,
        vg_da_schedule=100.0,
        vg_realized=120.0,
        contracts=[c],
        units={"g1": unit},
        unit_rt_output={"g1": 180.0},
    )


class TestSettle:
    def test_worked_hour_nets(self):
        led = market.settle(worked_hour_accounts())
        assert ledger_net(led, "wind1") == pytest.approx(3590.0)
        assert ledger_net(led, "g1") == pytest.approx(5410.0)
        assert ledger_net(led, market.POOL) == pytest.approx(-9000.0)
        assert led.is_balanced()

    def test_worked_hour_flows_by_tag(self):
        led = market.settle(worked_hour_accounts())
        by_tag = {}
        for e in led.entries:
            by_tag.setdefault(e.tag, []).append(e)
        assert [e.amount for e in by_tag["premium"]] == [pytest.approx(10.0)]
        assert sorted(e.amount for e in by_tag["da_energy"]) == [
            pytest.approx(3000.0),
            pytest.approx(6000.0),
        ]
        assert [(e.payer, e.payee, e.amount) for e in by_tag["brs_energy_shift"]] == [
            ("g1", "wind1", pytest.approx(600.0))
        ]
        assert "rt_imbalance" not in by_tag

    def test_released_cover_still_earns_premium(self):
        acc = worked_hour_accounts()
        c = acc.contracts[0]
        c.status = ContractStatus.RELEASED
        c.executed_mw = 0.0
        acc2 = HourAccounts(
            hour=0, vg_id="wind1", da_price=30.0, rt_price=30.0, penalty=PF,
            vg_da_schedule=100.0, vg_realized=100.0, contracts=[c],
            units=acc.units, unit_rt_output={"g1": 200.0},
        )
        led = market.settle(acc2)
        premiums = [e for e in led.entries if e.tag == "premium"]
        assert len(premiums) == 1
        assert premiums[0].amount == pytest.approx(10.0)

    def test_rejected_cover_earns_nothing(self):
        c = signed(0, DOWN, 20.0, seller="g1", price=0.5, buyer="wind1")
        c.transition(ContractStatus.REJECTED)
        acc = HourAccounts(
            hour=0, vg_id="wind1", da_price=30.0, rt_price=30.0, penalty=PF,
            vg_da_schedule=100.0, vg_realized=100.0, contracts=[c],
            units={"g1": g_unit()}, unit_rt_output={"g1": 200.0},
        )
        led = market.settle(acc)
        assert all(e.tag != "premium" for e in led.entries)

    def test_validated_contract_blocks_settlement(self):
        c = signed(0, DOWN, 20.0, seller="g1", price=0.5, buyer="wind1")
        c.transition(ContractStatus.VALIDATED)
        acc = HourAccounts(
            hour=0, vg_id="wind1", da_price=30.0, rt_price=30.0, penalty=PF,
            vg_da_schedule=100.0, vg_realized=100.0, contracts=[c],
            units={"g1": g_unit()}, unit_rt_output={"g1": 200.0},
        )
        with pytest.raises(PhaseError):
            market.settle(acc)

    def test_residual_over_generation_credited_at_discount(self):
        acc = HourAccounts(
            hour=0, vg_id="wind1", da_price=30.0, rt_price=30.0, penalty=PF,
            vg_da_schedule=100.0, vg_realized=110.0, contracts=[],
            units={}, unit_rt_output={},
        )
        led = market.settle(acc)
        imb = [e for e in led.entries if e.tag == "rt_imbalance"]
        assert len(imb) == 1
        assert imb[0].payer == market.POOL
        assert imb[0].amount == pytest.approx(0.7 * 30.0 * 10.0)

    def test_residual_under_generation_charged_with_markup(self):
        acc = HourAccounts(
            hour=0, vg_id="wind1", da_price=30.0, rt_price=30.0, penalty=PF,
            vg_da_schedule=100.0, vg_realized=90.0, contracts=[],
            units={}, unit_rt_output={},
        )
        led = market.settle(acc)
        imb = [e for e in led.entries if e.tag == "rt_imbalance"]
        assert imb[0].payee == market.POOL
        assert imb[0].amount == pytest.approx(1.3 * 30.0 * 10.0)

    def test_negative_rt_price_flips_unit_flow(self):
        acc = HourAccounts(
            hour=0, vg_id="wind1", da_price=30.0, rt_price=-5.0, penalty=PF,
            vg_da_schedule=100.0, vg_realized=100.0, contracts=[],
            units={"g1": g_unit()}, unit_rt_output={"g1": 210.0},
        )
        led = market.settle(acc)
        imb = [e for e in led.entries if e.tag == "rt_imbalance"]
        # Producing 10 MW extra at a negative price costs the unit money.
        assert imb[0].payer == "g1"
        assert imb[0].amount == pytest.approx(50.0)

    def test_missing_rt_output_is_an_error(self):
        acc = HourAccounts(
            hour=0, vg_id="wind1", da_price=30.0, rt_price=30.0, penalty=PF,
            vg_da_schedule=100.0, vg_realized=100.0, contracts=[],
            units={"g1": g_unit()}, unit_rt_output={},
        )
        with pytest.raises(ValueError, match="missing RT output"):
            market.settle(acc)


def settlement_cases(draw):
    capacity = draw(st.floats(min_value=80.0, max_value=300.0))
    mean = draw(st.floats(min_value=0.3, max_value=0.7)) * capacity
    sched_vg = draw(st.floats(min_value=0.3, max_value=0.7)) * capacity
    lam_d = draw(st.floats(min_value=10.0, max_value=60.0))
    lam_r = draw(st.floats(min_value=-10.0, max_value=80.0))
    pf = PenaltyFactors(
        over=draw(st.floats(min_value=0.05, max_value=1.0)),
        under=draw(st.floats(min_value=0.05, max_value=1.5)),
    )
    p_min = draw(st.floats(min_value=0.0, max_value=60.0))
    width = draw(st.floats(min_value=80.0, max_value=250.0))
    sched_u = p_min + draw(st.floats(min_value=0.2, max_value=0.8)) * width
    kind = draw(st.sampled_from([UnitKind.BASE_LOAD, UnitKind.MARGINAL]))
    unit = DispatchableUnit(kind, p_min, p_min + width, draw(st.floats(5.0, 50.0)), sched_u)
    n_offers = draw(st.integers(min_value=1, max_value=4))
    offers = []
    for _ in range(n_offers):
        direction = draw(st.sampled_from([DOWN, UP]))
        offers.append(
            Offer(
                "g1",
                0,
                direction,
                price=draw(st.floats(min_value=0.0, max_value=6.0)),
                quantity=draw(st.floats(min_value=1.0, max_value=40.0)),
            )
        )
    realized = draw(st.floats(min_value=0.0, max_value=1.0)) * capacity
    d = forecast.from_mean(capacity, mean)
    s = VgSchedule(da_quantity=sched_vg, da_price=lam_d)
    return d, s, pf, unit, offers, lam_r, realized


settlement_case = st.composite(settlement_cases)()


@given(case=settlement_case)
@settings(max_examples=50, deadline=None)
def test_full_hour_settlement_equivalence(case):
    # Whatever transacts, the ledger must reproduce the closed-form payoffs:
    # banded revenue minus premiums for the producer, shift payoff plus
    # premiums for the unit, and nets that cancel.
    d, s, pf, unit, offers, lam_r, realized = case
    desired = market.buyer_demand(offers, s, pf, d)
    contracts = market.match_offers(offers, desired, DOWN, "w")
    contracts += market.match_offers(offers, desired, UP, "w", id_start=len(contracts))
    market.validate_contracts(contracts, {"g1": unit})
    claim = market.claim_execution(contracts, s.da_quantity, realized)
    rt_out = provider.rt_dispatch(unit, lam_r)
    acc = HourAccounts(
        hour=0,
        vg_id="w",
        da_price=s.da_price,
        rt_price=lam_r,
        penalty=pf,
        vg_da_schedule=s.da_quantity,
        vg_realized=realized,
        contracts=contracts,
        units={"g1": unit},
        unit_rt_output={"g1": rt_out},
    )
    led = market.settle(acc)
    assert led.is_balanced()

    live = [c for c in contracts if c.status is not ContractStatus.REJECTED]
    pos = BrsPosition(
        down_qty=sum(c.quantity for c in live if c.direction is DOWN),
        up_qty=sum(c.quantity for c in live if c.direction is UP),
        down_price=0.0,
        up_price=0.0,
    )
    premiums = sum(c.premium_price * c.quantity for c in live)
    vg_expected = revenue_with_brs(s, pf, pos, realized) - premiums
    assert ledger_net(led, "w") == pytest.approx(vg_expected, rel=1e-9, abs=1e-6)

    executed = claim.executed_up - claim.executed_down
    sc = JointScenario(da_price=s.da_price, rt_price=lam_r, executed=executed)
    unit_expected = revenue_unit_with_brs(unit, sc, rt_output=rt_out) + premiums
    assert ledger_net(led, "g1") == pytest.approx(unit_expected, rel=1e-9, abs=1e-6)
