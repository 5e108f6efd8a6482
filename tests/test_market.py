"""Capacity market over a day: matching, validation, claims, settlement."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brsim import forecast, market, provider, vg
from brsim.market import (
    EXECUTED,
    HEADROOM,
    LEDGER_TAGS,
    RELEASED,
    REJECTED,
    SIGNED,
    VALIDATED,
    ZONAL,
    Book,
    Contracts,
    PhaseError,
    SettlementLedger,
)
from brsim.provider import DispatchableUnit, UnitKind
from brsim.vg import DOWN, UP, BrsPosition, PenaltyFactors, VgSchedule
from oracles import (
    JointScenario, ledger_entries, ledger_is_balanced, ledger_net, revenue_unit_with_brs,
    revenue_with_brs,
)

PF = PenaltyFactors(over=0.3, under=0.3)
SELLERS = ("g1", "g2")


def beta22():
    return forecast.from_mean_variance(100.0, 50.0, 500.0)


def mid_schedule():
    return VgSchedule(da_quantity=50.0, da_price=30.0)


def g_unit(schedule=200.0, p_min=150.0, p_max=250.0, kind=UnitKind.BASE_LOAD, cost=15.0):
    return DispatchableUnit(kind, p_min, p_max, cost, schedule)


def book(*offers):
    """A book of (seller, hour, direction, price, quantity) offers."""
    seller, hour, direction, price, quantity = zip(*offers) if offers else ((),) * 5
    return Book(
        hour=hour, up=[d is UP for d in direction], seller=[SELLERS.index(s) for s in seller],
        price=price, quantity=quantity,
    )


def matched(offers, s=None, d=None):
    b = book(*offers)
    return market.match_offers(b, s or mid_schedule(), PF, d or beta22())


def contracts(*rows, status=SIGNED):
    """Contracts in hour 0 from (direction, quantity[, seller[, price]])."""
    rows = [(direction, quantity, *rest) + ("g1", 1.0)[len(rest):]
            for direction, quantity, *rest in rows]
    return Contracts(
        hour=[0] * len(rows), up=[r[0] is UP for r in rows],
        seller=[SELLERS.index(r[2]) for r in rows],
        price=[r[3] for r in rows], quantity=[r[1] for r in rows],
        status=[status] * len(rows),
    )


def by_seller(c):
    return dict(zip((SELLERS[j] for j in c.seller.tolist()), c.quantity.tolist()))


class TestOfferAndContractChecks:
    def test_offer_validation(self):
        with pytest.raises(ValueError):
            book(("g1", 0, DOWN, 1.0, 0.0))
        with pytest.raises(ValueError):
            book(("g1", 0, DOWN, -1.0, 5.0))
        with pytest.raises(ValueError):
            book(("g1", -1, DOWN, 1.0, 5.0))
        with pytest.raises(ValueError, match=r"column price has shape \(1,\), expected \(2,\)"):
            Book(hour=[0, 0], up=[False, True], seller=[0, 0], price=[1.0], quantity=[5.0, 5.0])

    def test_contract_validation(self):
        with pytest.raises(ValueError):
            contracts((DOWN, -5.0))
        with pytest.raises(ValueError):
            contracts((DOWN, 5.0, "g1", -1.0))

    def test_transitions_follow_lifecycle(self):
        c = market.validate_contracts(contracts((DOWN, 10.0)), [g_unit()])
        assert c.status.tolist() == [VALIDATED]
        c = market.claim_execution(c, da_quantity=100.0, claimed_output=110.0)
        assert c.status.tolist() == [EXECUTED]
        with pytest.raises(PhaseError):
            market.claim_execution(c, da_quantity=100.0, claimed_output=110.0)

    def test_illegal_jumps_rejected(self):
        c = contracts((DOWN, 10.0))
        with pytest.raises(PhaseError):
            market.claim_execution(c, da_quantity=100.0, claimed_output=110.0)
        rejected = market.validate_contracts(c, [g_unit()], frozenset({0}))
        assert rejected.status.tolist() == [REJECTED]
        with pytest.raises(PhaseError):
            market.validate_contracts(rejected, [g_unit()])


def assert_each_net(led: SettlementLedger, horizon: int) -> list[str]:
    """Check that the ledger's nets, over the day and within each hour,
    equal the entry-by-entry sums bit for bit, and that net_by_party lists
    the parties in order of first appearance, payer before payee; return
    that order."""
    first_seen = []
    for e in ledger_entries(led):
        first_seen += [p for p in (e.payer, e.payee) if p not in first_seen]
    nets = led.net_by_party()
    assert list(nets) == first_seen
    for party in first_seen:
        assert nets[party] == ledger_net(led, party)
    hourly = led.hourly_nets(horizon)
    for hour in range(horizon):
        for j, party in enumerate(led.parties):
            assert hourly[hour, j] == ledger_net(led, party, hour=hour)
    return first_seen


class TestLedger:
    def test_entry_validation(self):
        parties = ("a", "b")
        with pytest.raises(ValueError):
            SettlementLedger.of(parties, [("premium", 0, 0, 0, 5.0)])
        with pytest.raises(ValueError):
            SettlementLedger.of(parties, [("rebate", 0, 0, 1, 5.0)])
        with pytest.raises(ValueError):
            SettlementLedger.of(parties, [("premium", 0, 0, 1, -5.0)])
        with pytest.raises(ValueError):
            SettlementLedger.of(parties, [("premium", 0, 0, 1, float("inf"))])

    @pytest.mark.parametrize("tag", ["penalty", "rebate", "Premium", ""])
    def test_unknown_tags_refused(self, tag):
        # The four tags settlement writes, and no other.
        assert LEDGER_TAGS == ("premium", "da_energy", "brs_energy_shift", "rt_imbalance")
        with pytest.raises(ValueError, match=f"^unknown ledger tag {tag!r}$"):
            SettlementLedger.of(("a", "b"), [("premium", 0, 0, 1, 5.0), (tag, 0, 0, 1, 5.0)])

    def test_bad_amount_names_its_flow(self):
        msg = r"^hour 7: premium from 'a' to 'b' must be finite and >= 0, got inf$"
        with pytest.raises(ValueError, match=msg):
            SettlementLedger.of(("a", "b"), [("premium", 7, 0, 1, float("inf"))])

    @pytest.mark.parametrize("amount", [5.0, 0.0])
    @pytest.mark.parametrize("hour", [-1, float("nan")])
    def test_negative_hour_refused(self, hour, amount):
        # Before net_by_party could count it, at any amount; nan would be
        # cast to the most negative int64.
        flows = [("premium", 0, 0, 1, 5.0), ("rt_imbalance", [3, hour], 1, 0, amount)]
        with pytest.raises(ValueError, match=f"^rt_imbalance hour must be >= 0, got {hour}$"):
            SettlementLedger.of(("a", "b"), flows)

    @pytest.mark.parametrize("amount", [5.0, 0.0])
    @pytest.mark.parametrize("hour", [1.5, 2.0**63 + 10, float("inf")])
    def test_hour_int64_cannot_hold_refused(self, hour, amount):
        # Before the cast to int64, which would make 1.5 hour 1 and 2**63 + 10
        # the most negative int64.
        flows = [("premium", 0, 0, 1, 5.0), ("rt_imbalance", [3, hour], 1, 0, amount)]
        msg = rf"^rt_imbalance hour must be an integer below 2\*\*63, got {re.escape(str(hour))}$"
        with pytest.raises(ValueError, match=msg):
            SettlementLedger.of(("a", "b"), flows)

    def test_integral_hours_pass(self):
        flows = [("premium", np.array([0, 2, 2**62]), 0, 1, 5.0),
                 ("da_energy", np.array([1.0, 3.0]), 1, 0, 2.0)]
        ledger = SettlementLedger.of(("a", "b"), flows)
        assert ledger.hour.tolist() == [0, 1, 2, 3, 2**62]
        assert ledger.tag.tolist() == [0, 1, 0, 1, 0]

    def test_self_payment_refused_at_any_amount(self):
        # Zero amounts are dropped, but every entry is checked first, and an
        # unknown tag anywhere is named before a self-payment.
        flows = [("premium", 0, 0, 1, 5.0), ("premium", [0, 1], [0, 1], 1, [2.0, 0.0])]
        with pytest.raises(ValueError, match=r"^payer and payee must differ, both 'b'$"):
            SettlementLedger.of(("a", "b"), flows)
        with pytest.raises(ValueError, match=r"^unknown ledger tag 'rebate'$"):
            SettlementLedger.of(("a", "b"), [*flows, ("rebate", 0, 0, 1, 1.0)])

    def test_zero_amounts_are_dropped(self):
        led = SettlementLedger.of(("a", "b"), [("premium", 0, 0, 1, [0.0, 2.0, -0.0])])
        assert led.amount.tolist() == [2.0]

    def test_net_and_parties(self):
        led = SettlementLedger.of(
            ("pool", "a", "b"), [("da_energy", 0, 0, 1, 100.0), ("premium", 0, 1, 2, 30.0)]
        )
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
        flows = []
        for i in range(200):
            flows.append(("premium", 0, 0, 1, 0.1 * (i + 1) + 1e-7))
            flows.append(("rt_imbalance", 0, 1, 2, 0.3333333333 * (i + 1)))
        assert ledger_is_balanced(SettlementLedger.of(("a", "b", "pool"), flows))

    def test_entries_run_by_hour_then_group(self):
        led = SettlementLedger.of(("pool", "a", "b"), [
            ("premium", [0, 2], 1, 2, [1.0, 2.0]),
            ("da_energy", [0, 1, 2], 0, 1, [3.0, 4.0, 5.0]),
        ])
        assert led.hour.tolist() == [0, 0, 1, 2, 2]
        assert led.amount.tolist() == [1.0, 3.0, 4.0, 2.0, 5.0]

    @given(
        flows=st.lists(
            st.tuples(
                st.permutations(["pool", "vg", "g1", "g2"]),
                st.floats(1e-6, 1e6),
                st.integers(0, 3),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_net_by_party_equals_each_net(self, flows):
        # np.add.at adds the amounts in input order, so the columnar nets
        # equal the entry-by-entry sums bit for bit, over the day and within
        # each hour.
        parties = ("pool", "vg", "g1", "g2")
        led = SettlementLedger.of(parties, [
            ("premium", hour, parties.index(payer), parties.index(payee), amount)
            for (payer, payee, _, _), amount, hour in flows
        ])
        assert_each_net(led, 4)

    @pytest.mark.parametrize("slices, extra", [(0, 0), (1, -1), (1, 0), (1, 1), (2, 1)])
    def test_net_by_party_equals_each_net_across_slices(self, slices, extra):
        # The nets are summed a slice of entries at a time: around one and
        # two slices' worth of entries they still equal the entry-by-entry
        # sums bit for bit. The last entry brings in two new parties, so
        # across a slice boundary they come last, the payer first.
        n = slices * market._NET_SLICE + extra
        parties = ("pool", "vg", "g1", "g2", "g3")
        rng = np.random.default_rng(n)
        payer = rng.integers(0, 3, n)
        payee = (payer + rng.integers(1, 3, n)) % 3
        payer[-1:], payee[-1:] = 4, 3
        # Amounts over twelve decades, so the order of the sums shows in the bits.
        amount = 10.0 ** rng.uniform(-6, 6, n)
        led = SettlementLedger.of(
            parties, [("premium", np.sort(rng.integers(0, 4, n)), payer, payee, amount)])
        assert len(led.amount) == n
        assert assert_each_net(led, 4)[-2:] == (["g3", "g2"] if n else [])

    def test_nets_take_memory_bounded_by_a_slice(self):
        # 100,000 entries: temporaries over the whole ledger would take 32
        # bytes per entry, 3.2 MB.
        n, horizon = 100_000, 24
        rng = np.random.default_rng(5)
        payer = rng.integers(0, 3, n)
        led = SettlementLedger.of(("pool", "vg", "g1"), [
            ("da_energy", np.sort(rng.integers(0, horizon, n)), payer,
             (payer + rng.integers(1, 3, n)) % 3, rng.uniform(1.0, 2.0, n)),
        ])
        bound = 80 * market._NET_SLICE
        for nets in (led.net_by_party, lambda: led.hourly_nets(horizon)):
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                nets()
                peak = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
            assert peak < bound, (nets, peak, bound)

    def test_codes_take_one_byte_per_entry(self):
        parties = ("pool", "vg", *(f"g{j}" for j in range(250)))
        led = SettlementLedger.of(parties, [
            ("premium", [0, 0, 1], [1, 1, 1], [2, 251, 30], [1.0, 2.0, 3.0]),
            ("rt_imbalance", [0, 1], 0, [1, 251], [4.0, 5.0]),
        ])
        for codes in (led.payer, led.payee, led.tag):
            assert codes.dtype == np.uint8 and codes.nbytes == len(led.amount) == 5
        assert led.payee.tolist() == [2, 251, 1, 30, 251]
        assert led.tag.tolist() == [0, 0, 3, 0, 3]
        wide = SettlementLedger.of((*parties, *(f"h{j}" for j in range(10))),
                                   [("premium", 0, 1, 261, 1.0)])
        assert wide.payee.dtype == np.uint16 and wide.payee.tolist() == [261]
        assert wide.tag.dtype == np.uint8

    @pytest.mark.parametrize("code", [-1, 2, 256])
    def test_party_codes_outside_the_parties_refused(self, code):
        with pytest.raises(ValueError, match=f"^party code {code} outside 2 parties$"):
            SettlementLedger.of(("a", "b"), [("premium", [0, 0], [0, 1], [1, code], 5.0)])

    @pytest.mark.parametrize("horizon", [0, 2])
    def test_hourly_nets_refuse_hours_outside_the_horizon(self, horizon):
        led = SettlementLedger.of(("a", "b"), [("premium", [0, 2], 0, 1, 5.0)])
        with pytest.raises(ValueError, match=f"^hours 0 to 2 outside horizon {horizon}$"):
            led.hourly_nets(horizon)
        assert led.hourly_nets(3).tolist() == [[-5.0, 5.0], [0.0, 0.0], [-5.0, 5.0]]

    def test_nets_that_do_not_cancel_are_unbalanced(self, monkeypatch):
        led = SettlementLedger.of(
            ("pool", "a", "b"), [("da_energy", 0, 0, 1, 100.0), ("premium", 0, 1, 2, 30.0)]
        )
        assert ledger_is_balanced(led)
        nets = led.net_by_party()
        monkeypatch.setattr(
            SettlementLedger, "net_by_party", lambda self: {**nets, "b": 30.0 + 1e-6}
        )
        assert not ledger_is_balanced(led)


class TestMatching:
    def test_single_offer_trimmed_to_optimum(self):
        got = matched([("g1", 0, DOWN, 1.40625, 40.0)])
        assert len(got.hour) == 1
        assert got.quantity[0] == pytest.approx(25.0, abs=1e-6)
        assert got.price[0] == 1.40625
        assert got.status[0] == SIGNED

    def test_small_cheap_offer_taken_whole(self):
        got = matched([("g1", 0, DOWN, 0.5, 20.0)])
        assert len(got.hour) == 1
        assert got.quantity[0] == pytest.approx(20.0)

    def test_pro_rata_within_marginal_level(self):
        got = matched([("g1", 0, DOWN, 1.40625, 15.0), ("g2", 0, DOWN, 1.40625, 35.0)])
        assert len(got.hour) == 2
        fills = by_seller(got)
        assert fills["g1"] == pytest.approx(25.0 * 15.0 / 50.0, abs=1e-6)
        assert fills["g2"] == pytest.approx(25.0 * 35.0 / 50.0, abs=1e-6)

    def test_cheaper_levels_fill_first(self):
        s, d = mid_schedule(), beta22()
        desired_at_2 = vg.optimal_quantity(s, PF, d, DOWN, 2.0)
        got = matched([("g2", 0, DOWN, 2.0, 50.0), ("g1", 0, DOWN, 0.5, 5.0)])
        assert [SELLERS[j] for j in got.seller] == ["g1", "g2"]
        assert got.quantity[0] == pytest.approx(5.0)
        assert got.quantity[1] == pytest.approx(desired_at_2 - 5.0, abs=1e-6)

    def test_expensive_levels_left_untouched(self):
        got = matched([("g1", 0, DOWN, 9.0, 10.0), ("g2", 0, DOWN, 12.0, 10.0)])
        assert len(got.hour) == 0

    def test_other_direction_ignored(self):
        # Upward offers neither take from nor add to the downward side.
        down = [("g1", 0, DOWN, 1.40625, 40.0)]
        alone = matched(down)
        both = matched(down + [("g2", 0, UP, 0.5, 20.0)])
        side = ~both.up
        assert both.quantity[side].tolist() == alone.quantity.tolist()
        assert [SELLERS[j] for j in both.seller[both.up]] == ["g2"]

    def test_ids_run_by_hour_side_and_price(self):
        got = matched([
            ("g1", 1, DOWN, 0.5, 5.0),
            ("g2", 0, UP, 0.5, 5.0),
            ("g2", 0, DOWN, 0.6, 5.0),
            ("g1", 0, DOWN, 0.5, 5.0),
        ], s=VgSchedule(da_quantity=np.array([50.0, 50.0]), da_price=np.array([30.0, 30.0])),
           d=forecast.from_mean_variance(100.0, np.array([50.0, 50.0]), 500.0))
        assert got.hour.tolist() == [0, 0, 0, 1]
        assert got.up.tolist() == [False, False, True, False]
        assert got.price.tolist() == [0.5, 0.6, 0.5, 0.5]

    def test_demand_reads_each_offer_hour(self):
        # Day-level inputs hold one element per hour; each level is priced
        # against its own hour's schedule and forecast. One offer per level,
        # larger than any optimum, fills exactly that optimum: the fill
        # room * qty / level_qty is room when qty is the level's quantity.
        means, schedules, prices = [30.0, 50.0, 70.0], [40.0, 50.0, 60.0], [20.0, 30.0, 40.0]
        d = forecast.from_mean(100.0, np.array(means))
        s = VgSchedule(da_quantity=np.array(schedules), da_price=np.array(prices))
        offers = [("g1", 2, DOWN, 1.0, 64.0), ("g1", 0, UP, 1.0, 64.0), ("g1", 1, DOWN, 2.0, 64.0)]
        got = matched(offers, s=s, d=d)
        expected = [
            (hour, price, vg.optimal_quantity(
                VgSchedule(da_quantity=schedules[hour], da_price=prices[hour]), PF,
                forecast.from_mean(100.0, means[hour]), direction, price))
            for _, hour, direction, price, _ in sorted(offers, key=lambda o: o[1])
        ]
        assert all(mw > 0.0 for *_, mw in expected)
        assert list(zip(got.hour.tolist(), got.price.tolist(), got.quantity.tolist())) == expected

    def test_demand_prices_each_level_once(self, monkeypatch):
        # Offers equal in hour, side and price share one evaluation, and one
        # call prices every level of both sides. Each level is alone on its
        # hour and side and split in power-of-two halves, so its fills add
        # up to the buyer's optimum at its price exactly.
        priced, evaluate = [], vg.optimal_quantity

        def optimal_quantity(s, pf, d, direction, price):
            priced.append(np.size(price))
            return evaluate(s, pf, d, direction, price)

        monkeypatch.setattr(market.vg_econ, "optimal_quantity", optimal_quantity)
        s = VgSchedule(da_quantity=np.array([50.0, 50.0]), da_price=np.array([30.0, 30.0]))
        d = forecast.from_mean_variance(100.0, np.array([50.0, 60.0]), 500.0)
        offers = [
            ("g1", 0, DOWN, 0.5, 32.0), ("g2", 0, DOWN, 0.5, 32.0), ("g1", 1, DOWN, 0.5, 64.0),
            ("g2", 0, UP, 0.5, 32.0), ("g1", 1, UP, 0.6, 64.0), ("g1", 0, UP, 0.5, 32.0),
        ]
        got = matched(offers, s=s, d=d)
        assert priced == [4]
        filled = {}
        for hour, up, price, mw in zip(got.hour.tolist(), got.up.tolist(), got.price.tolist(),
                                       got.quantity.tolist()):
            key = (hour, UP if up else DOWN, price)
            filled[key] = filled.get(key, 0.0) + mw
        expected = {
            (hour, direction, price): evaluate(
                VgSchedule(da_quantity=50.0, da_price=30.0), PF,
                forecast.from_mean_variance(100.0, [50.0, 60.0][hour], 500.0), direction, price)
            for _, hour, direction, price, _ in offers
        }
        assert len(expected) == 4
        assert filled == expected


def match_cases(draw):
    capacity = draw(st.floats(min_value=50.0, max_value=300.0))
    d = forecast.from_mean(capacity, draw(st.floats(min_value=0.2, max_value=0.8)) * capacity)
    s = VgSchedule(da_quantity=draw(st.floats(min_value=0.2, max_value=0.8)) * capacity,
                   da_price=draw(st.floats(min_value=10.0, max_value=60.0)))
    pf = PenaltyFactors(over=draw(st.floats(min_value=0.05, max_value=1.0)),
                        under=draw(st.floats(min_value=0.05, max_value=1.5)))
    direction = draw(st.sampled_from([DOWN, UP]))
    # Prices as shares of the first MW's value, from a short list so that
    # offers share levels; at 1.1 nothing is worth buying.
    first_mw = s.da_price * (pf.over if direction is DOWN else pf.under)
    offers = draw(st.lists(st.tuples(
        st.sampled_from(SELLERS), st.sampled_from([0.05, 0.2, 0.4, 0.7, 1.1]),
        st.floats(min_value=0.5, max_value=0.4 * capacity),
    ), min_size=1, max_size=5))
    return s, pf, d, direction, [(g, 0, direction, share * first_mw, q) for g, share, q in offers]


@given(case=st.composite(match_cases)())
@settings(max_examples=100, deadline=None)
def test_match_maximises_net_expected_revenue(case):
    # Over every total the stack can be filled to, cheapest level first and
    # within the buyer's headroom, no grid point earns more, expected revenue
    # minus premiums, than the match. Pro rata is one of several optimal
    # splits within a level, so only the level totals are compared.
    s, pf, d, direction, offers = case
    b = book(*offers)
    c = market.match_offers(b, s, pf, d)
    prices, at = np.unique([o[3] for o in offers], return_inverse=True)
    level_qty = np.bincount(at, [o[4] for o in offers])
    matched = np.bincount(np.searchsorted(prices, c.price), c.quantity, minlength=len(prices))

    def fills(total):
        before = np.cumsum(level_qty) - level_qty
        return np.clip(np.asarray(total)[..., None] - before, 0.0, level_qty)

    def net(total):
        cover = (total, 0.0) if direction is DOWN else (0.0, total)
        gross = vg.expected_revenue(s, pf, BrsPosition(*cover, 0.0, 0.0), d)
        return gross - fills(total) @ prices

    headroom = d.capacity - s.da_quantity if direction is DOWN else s.da_quantity
    grid = np.linspace(0.0, min(level_qty.sum(), headroom), 2001)
    objective = net(grid)
    total = matched.sum()
    assert matched == pytest.approx(fills(total), abs=1e-6)
    tol = 1e-9 * s.da_price * d.capacity
    assert net(total) >= objective.max() - tol
    best = grid[objective >= objective.max() - tol]
    step = grid[1] - grid[0]
    assert best.min() - step - 1e-9 <= total <= best.max() + step + 1e-9


class TestValidation:
    def test_straddling_contract_is_trimmed(self):
        # Down headroom is schedule - p_min = 50 MW.
        c = market.validate_contracts(contracts((DOWN, 60.0)), [g_unit()])
        assert c.status[0] == VALIDATED
        assert c.quantity[0] == pytest.approx(50.0)
        assert c.trimmed[0] == pytest.approx(10.0)
        assert c.reason[0] == HEADROOM

    def test_oldest_first_newer_rejected(self):
        c = market.validate_contracts(
            contracts((DOWN, 30.0), (DOWN, 30.0), (DOWN, 5.0)), [g_unit()]
        )
        assert c.status[0] == VALIDATED and c.quantity[0] == 30.0
        assert c.status[1] == VALIDATED
        assert c.quantity[1] == pytest.approx(20.0)
        assert c.trimmed[1] == pytest.approx(10.0)
        assert c.status[2] == REJECTED
        assert c.reason.tolist() == [market.NO_REASON, HEADROOM, HEADROOM]

    def test_sides_consume_separate_headroom(self):
        c = market.validate_contracts(contracts((DOWN, 50.0), (UP, 50.0)), [g_unit()])
        assert c.status.tolist() == [VALIDATED, VALIDATED]

    def test_hours_consume_separate_headroom(self):
        # Each hour reads its own schedule: 50 MW of down headroom in hour
        # 0, 10 MW in hour 1.
        c = dataclasses.replace(contracts((DOWN, 30.0), (DOWN, 30.0)), hour=[0, 1])
        c = market.validate_contracts(c, [g_unit(schedule=np.array([200.0, 160.0]))])
        assert c.quantity.tolist() == [30.0, 10.0]
        assert c.trimmed.tolist() == [0.0, 20.0]

    def test_unknown_seller(self):
        c = dataclasses.replace(contracts((DOWN, 10.0)), seller=[1])
        with pytest.raises(ValueError, match="unknown seller"):
            market.validate_contracts(c, [g_unit()])

    def test_revalidation_refused(self):
        c = market.validate_contracts(contracts((DOWN, 10.0)), [g_unit()])
        with pytest.raises(PhaseError):
            market.validate_contracts(c, [g_unit()])

    def test_zonal_rule_rejects_across_boundary(self):
        c = market.validate_contracts(
            contracts((DOWN, 10.0, "g1"), (DOWN, 10.0, "g2")), [g_unit(), g_unit()],
            frozenset({0}),
        )
        assert c.status[0] == REJECTED
        assert c.trimmed[0] == 0.0
        assert c.reason[0] == ZONAL
        assert c.status[1] == VALIDATED

    def test_unknown_seller_is_checked_before_the_block(self):
        c = dataclasses.replace(contracts((DOWN, 10.0)), seller=[1])
        with pytest.raises(ValueError, match="unknown seller"):
            market.validate_contracts(c, [g_unit()], frozenset({1}))


def validated(*rows):
    return contracts(*rows, status=VALIDATED)


def executed_mw(c, direction):
    return sum(c.executed[c.up == (direction is UP)].tolist())


class TestClaim:
    def test_over_generation_executes_down_side(self):
        c = market.claim_execution(
            validated((DOWN, 20.0), (UP, 15.0)), da_quantity=100.0, claimed_output=110.0
        )
        assert executed_mw(c, DOWN) == pytest.approx(10.0)
        assert executed_mw(c, UP) == 0.0
        assert c.status[0] == EXECUTED
        assert c.executed[0] == pytest.approx(10.0)
        assert c.status[1] == RELEASED
        assert c.executed[1] == 0.0

    def test_execution_capped_by_contracted_total(self):
        c = market.claim_execution(validated((DOWN, 20.0)), da_quantity=100.0, claimed_output=130.0)
        assert executed_mw(c, DOWN) == pytest.approx(20.0)

    def test_pro_rata_across_sellers(self):
        c = market.claim_execution(
            validated((DOWN, 30.0, "g1"), (DOWN, 10.0, "g2")), da_quantity=100.0,
            claimed_output=120.0,
        )
        shifts = market.executed_by_seller(c, np.array([100.0]), [g_unit(), g_unit()])
        per_seller = dict(zip((SELLERS[j] for j in shifts.seller), shifts.mw.tolist()))
        assert per_seller["g1"] == pytest.approx(15.0)
        assert per_seller["g2"] == pytest.approx(5.0)

    def test_no_deviation_releases_everything(self):
        c = market.claim_execution(validated((DOWN, 20.0)), da_quantity=100.0, claimed_output=100.0)
        assert executed_mw(c, DOWN) == 0.0
        assert c.status[0] == RELEASED

    def test_under_generation_executes_up_side(self):
        c = market.claim_execution(validated((UP, 25.0)), da_quantity=100.0, claimed_output=90.0)
        assert executed_mw(c, UP) == pytest.approx(10.0)
        assert c.status[0] == EXECUTED

    def test_each_hour_claims_its_own_deviation(self):
        c = dataclasses.replace(validated((DOWN, 20.0), (DOWN, 20.0)), hour=[0, 1])
        c = market.claim_execution(
            c, da_quantity=np.array([100.0, 100.0]), claimed_output=np.array([105.0, 130.0])
        )
        assert c.executed.tolist() == [5.0, 20.0]

    def test_signed_contract_blocks_claim(self):
        with pytest.raises(PhaseError):
            market.claim_execution(contracts((DOWN, 10.0)), da_quantity=100.0, claimed_output=110.0)

    @pytest.mark.parametrize("status", ["executed", "released"])
    def test_second_claim_refused(self, status):
        # A contract already claimed fails the claim before any other one
        # changes: the validated contract stays validated.
        c = validated((DOWN, 10.0), (DOWN, 10.0))
        c = dataclasses.replace(c, status=[VALIDATED, market.STATUSES.index(status)])
        with pytest.raises(PhaseError, match=f"contract 1 is {status}, cannot claim"):
            market.claim_execution(c, da_quantity=100.0, claimed_output=110.0)
        assert c.status[0] == VALIDATED and c.executed[0] == 0.0

    def test_rejected_contracts_ignored(self):
        c = contracts((DOWN, 10.0), status=REJECTED)
        c = market.claim_execution(c, da_quantity=100.0, claimed_output=110.0)
        assert executed_mw(c, DOWN) == 0.0
        assert c.status[0] == REJECTED


def hour_accounts(c=None, *, vg_realized=120.0, rt_price=30.0, units=None, rt_output=(180.0,)):
    """One hour's settle arguments for producer wind1 (schedule 100 MW at 30)."""
    if c is None:
        c = dataclasses.replace(
            contracts((DOWN, 20.0, "g1", 0.5), status=EXECUTED), executed=[20.0]
        )
    if units is None:
        units = {"g1": DispatchableUnit(UnitKind.BASE_LOAD, 100.0, 250.0, 15.0, 200.0)}
    return dict(
        vg_id="wind1",
        da_price=np.array([30.0]),
        rt_price=np.array([rt_price]),
        penalty=PF,
        vg_schedule=np.array([100.0]),
        vg_realized=np.array([vg_realized]),
        contracts=c,
        shifts=market.executed_by_seller(c, np.array([100.0]), list(units.values())),
        units=units,
        unit_rt_output=np.array([rt_output]).reshape(1, -1),
    )


def no_contracts():
    return contracts()


class TestSettle:
    def test_worked_hour_nets(self):
        led = market.settle(**hour_accounts())
        assert ledger_net(led, "wind1") == pytest.approx(3590.0)
        assert ledger_net(led, "g1") == pytest.approx(5410.0)
        assert ledger_net(led, market.POOL) == pytest.approx(-9000.0)
        assert ledger_is_balanced(led)

    def test_worked_hour_flows_by_tag(self):
        led = market.settle(**hour_accounts())
        by_tag = {}
        for e in ledger_entries(led):
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
        c = contracts((DOWN, 20.0, "g1", 0.5), status=RELEASED)
        led = market.settle(**hour_accounts(c, vg_realized=100.0, rt_output=(200.0,)))
        premiums = [e for e in ledger_entries(led) if e.tag == "premium"]
        assert len(premiums) == 1
        assert premiums[0].amount == pytest.approx(10.0)

    def test_rejected_cover_earns_nothing(self):
        c = contracts((DOWN, 20.0, "g1", 0.5), status=REJECTED)
        led = market.settle(**hour_accounts(c, vg_realized=100.0, units={"g1": g_unit()},
                                            rt_output=(200.0,)))
        assert all(e.tag != "premium" for e in ledger_entries(led))

    def test_validated_contract_blocks_settlement(self):
        c = contracts((DOWN, 20.0, "g1", 0.5), status=VALIDATED)
        with pytest.raises(PhaseError):
            market.settle(**hour_accounts(c, vg_realized=100.0, units={"g1": g_unit()},
                                          rt_output=(200.0,)))

    def test_residual_over_generation_credited_at_discount(self):
        led = market.settle(**hour_accounts(no_contracts(), vg_realized=110.0, units={},
                                            rt_output=()))
        imb = [e for e in ledger_entries(led) if e.tag == "rt_imbalance"]
        assert len(imb) == 1
        assert imb[0].payer == market.POOL
        assert imb[0].amount == pytest.approx(0.7 * 30.0 * 10.0)

    def test_residual_under_generation_charged_with_markup(self):
        led = market.settle(**hour_accounts(no_contracts(), vg_realized=90.0, units={},
                                            rt_output=()))
        imb = [e for e in ledger_entries(led) if e.tag == "rt_imbalance"]
        assert imb[0].payee == market.POOL
        assert imb[0].amount == pytest.approx(1.3 * 30.0 * 10.0)

    def test_negative_rt_price_flips_unit_flow(self):
        led = market.settle(**hour_accounts(no_contracts(), vg_realized=100.0, rt_price=-5.0,
                                            units={"g1": g_unit()}, rt_output=(210.0,)))
        imb = [e for e in ledger_entries(led) if e.tag == "rt_imbalance"]
        # Producing 10 MW extra at a negative price costs the unit money.
        assert imb[0].payer == "g1"
        assert imb[0].amount == pytest.approx(50.0)

    def test_missing_rt_output_is_an_error(self):
        acc = hour_accounts(no_contracts(), vg_realized=100.0, units={"g1": g_unit()},
                            rt_output=())
        with pytest.raises(ValueError, match="missing RT output"):
            market.settle(**acc)

    def test_unit_pushed_out_of_range_is_an_assertion(self):
        # Unvalidated cover takes g1 from 200 MW to 50, below its p_min.
        c = dataclasses.replace(
            contracts((DOWN, 150.0, "g1", 0.5), status=EXECUTED), executed=[150.0]
        )
        with pytest.raises(AssertionError, match=r"^hour 0: unit g1 pushed to 50\.0 MW despite"):
            market.settle(**hour_accounts(c))

    @pytest.mark.parametrize("schedule, units, shape", [
        ([100.0, 100.0], [g_unit()], r"\(1,\), got \(2,\)"),
        ([100.0], [g_unit(), g_unit()], r"\(1, 1\), got \(1, 2\)"),
    ])
    def test_shifts_of_another_day_are_refused(self, schedule, units, shape):
        acc = hour_accounts(units={"g1": g_unit()})
        acc["shifts"] = market.executed_by_seller(acc["contracts"], np.array(schedule), units)
        with pytest.raises(ValueError, match=f"shifts of another day: need shape {shape}"):
            market.settle(**acc)


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
            (
                "g1",
                0,
                direction,
                draw(st.floats(min_value=0.0, max_value=6.0)),
                draw(st.floats(min_value=1.0, max_value=40.0)),
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
    b = book(*offers)
    c = market.match_offers(b, s, pf, d)
    c = market.validate_contracts(c, [unit])
    c = market.claim_execution(c, s.da_quantity, realized)
    rt_out = provider.rt_dispatch(unit, lam_r)
    led = market.settle(
        vg_id="w",
        da_price=np.array([s.da_price]),
        rt_price=np.array([lam_r]),
        penalty=pf,
        vg_schedule=np.array([s.da_quantity]),
        vg_realized=np.array([realized]),
        contracts=c,
        shifts=market.executed_by_seller(c, np.array([s.da_quantity]), [unit]),
        units={"g1": unit},
        unit_rt_output=np.array([[rt_out]]),
    )
    assert ledger_is_balanced(led)

    live = c.status != REJECTED
    pos = BrsPosition(
        down_qty=sum(c.quantity[live & ~c.up].tolist()),
        up_qty=sum(c.quantity[live & c.up].tolist()),
        down_price=0.0,
        up_price=0.0,
    )
    premiums = sum((c.price * c.quantity)[live].tolist())
    vg_expected = revenue_with_brs(s, pf, pos, realized) - premiums
    assert ledger_net(led, "w") == pytest.approx(vg_expected, rel=1e-9, abs=1e-6)

    executed = executed_mw(c, UP) - executed_mw(c, DOWN)
    sc = JointScenario(da_price=s.da_price, rt_price=lam_r, executed=executed)
    unit_expected = revenue_unit_with_brs(unit, sc, rt_output=rt_out) + premiums
    assert ledger_net(led, "g1") == pytest.approx(unit_expected, rel=1e-9, abs=1e-6)
