"""Bilateral re-dispatch capacity market for one delivery hour.

Lifecycle: DA clearing happens elsewhere. Each hour runs four functions in
order: ``match_offers`` (the capacity window, once per side),
``validate_contracts`` (seller headroom), ``claim_execution`` (realized
output) and ``settle`` (a closed zero-sum ledger against the settlement
pool). Each contract's status enforces that order: an operation on a
contract in the wrong status raises PhaseError.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import vg as vg_econ
from .forecast import ForecastDistribution
from .provider import _MW_EPS, DispatchableUnit
from .vg import DOWN, UP, Direction, PenaltyFactors, VgSchedule

POOL = "pool"

LEDGER_TAGS = ("premium", "da_energy", "brs_energy_shift", "rt_imbalance", "penalty")


class PhaseError(RuntimeError):
    """Operation attempted on a contract outside its lifecycle status."""


class ContractStatus(str, enum.Enum):
    SIGNED = "signed"
    VALIDATED = "validated"
    REJECTED = "rejected"
    EXECUTED = "executed"
    RELEASED = "released"


_LEGAL_TRANSITIONS = {
    ContractStatus.SIGNED: {ContractStatus.VALIDATED, ContractStatus.REJECTED},
    ContractStatus.VALIDATED: {ContractStatus.EXECUTED, ContractStatus.RELEASED},
    ContractStatus.REJECTED: set(),
    ContractStatus.EXECUTED: set(),
    ContractStatus.RELEASED: set(),
}


@dataclass(frozen=True, slots=True)
class Offer:
    """Standing sell offer for re-dispatch capacity in one hour."""

    seller: str
    hour: int
    direction: Direction
    price: float
    quantity: float
    zone: str | None = None

    def __post_init__(self) -> None:
        if self.quantity <= 0.0:
            raise ValueError(f"offer quantity must be positive, got {self.quantity}")
        if self.price < 0.0:
            raise ValueError(f"offer price must be >= 0, got {self.price}")
        if self.hour < 0:
            raise ValueError(f"hour must be >= 0, got {self.hour}")


@dataclass(slots=True)
class BrsContract:
    """Signed cover for one hour. executed_mw is set when the claim lands;
    trimmed_mw records quantity removed at validation."""

    id: int
    buyer: str
    seller: str
    hour: int
    direction: Direction
    quantity: float
    premium_price: float
    status: ContractStatus = ContractStatus.SIGNED
    executed_mw: float = 0.0
    trimmed_mw: float = 0.0

    def __post_init__(self) -> None:
        if self.quantity <= 0.0:
            raise ValueError(f"contract quantity must be positive, got {self.quantity}")
        if self.premium_price < 0.0:
            raise ValueError(f"premium price must be >= 0, got {self.premium_price}")
        if self.buyer == self.seller:
            raise ValueError("buyer and seller must differ")

    def transition(self, new_status: ContractStatus) -> None:
        if new_status not in _LEGAL_TRANSITIONS[self.status]:
            raise PhaseError(
                f"contract {self.id}: illegal transition "
                f"{self.status.value} -> {new_status.value}"
            )
        self.status = new_status


@dataclass(frozen=True)
class ZonalRule:
    """Binary prohibition: no contracts across the flagged zone boundaries."""

    congested_boundaries: frozenset[frozenset[str]]

    @classmethod
    def from_pairs(cls, pairs) -> "ZonalRule":
        boundaries = set()
        for a, b in pairs:
            if a == b:
                raise ValueError(f"boundary must join two distinct zones, got ({a}, {b})")
            boundaries.add(frozenset((a, b)))
        return cls(congested_boundaries=frozenset(boundaries))

    def blocks(self, zone_a: str | None, zone_b: str | None) -> bool:
        if zone_a is None or zone_b is None or zone_a == zone_b:
            return False
        return frozenset((zone_a, zone_b)) in self.congested_boundaries


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    hour: int
    payer: str
    payee: str
    amount: float
    tag: str


class SettlementLedger:
    """Append-only double-entry ledger. Every flow names a payer and a payee,
    so the parties' nets sum to zero up to rounding."""

    def __init__(self) -> None:
        self.entries: list[LedgerEntry] = []

    def add(self, hour: int, payer: str, payee: str, amount: float, tag: str) -> None:
        if payer == payee:
            raise ValueError(f"payer and payee must differ, both {payer!r}")
        if tag not in LEDGER_TAGS:
            raise ValueError(f"unknown ledger tag {tag!r}")
        if amount < 0.0 or not math.isfinite(amount):
            raise ValueError(
                f"hour {hour}: {tag} from {payer!r} to {payee!r} must be finite "
                f"and >= 0, got {amount}"
            )
        if amount == 0.0:
            return
        self.entries.append(LedgerEntry(hour, payer, payee, amount, tag))

    def extend(self, other: "SettlementLedger") -> None:
        self.entries.extend(other.entries)

    def net_by_party(self) -> dict[str, float]:
        """Each party's net, in order of first appearance (payer before
        payee), summed in entry order."""
        nets: dict[str, float] = {}
        for e in self.entries:
            nets[e.payer] = nets.get(e.payer, 0.0) - e.amount
            nets[e.payee] = nets.get(e.payee, 0.0) + e.amount
        return nets

    def is_balanced(self) -> bool:
        """Whether the parties' nets, summed exactly, cancel to within 1e-9
        of the gross flow."""
        residual = math.fsum(self.net_by_party().values())
        return abs(residual) <= 1e-9 * math.fsum(e.amount for e in self.entries)


@dataclass(frozen=True)
class ExecutionClaim:
    """Outcome of claiming execution against (near-)RT output."""

    executed_down: float
    executed_up: float
    per_seller_down: dict[str, float]
    per_seller_up: dict[str, float]


def _at_hours(x, hours):
    """A per-hour input at each offer's hour: an array is indexed by hour,
    a scalar holds for every hour."""
    return np.asarray(x)[hours] if np.ndim(x) else x


def buyer_demand(
    offers: list[Offer],
    s: VgSchedule,
    pf: PenaltyFactors,
    d: ForecastDistribution,
) -> list[float]:
    """The buyer's optimal total cover on each offer's side at the offer's
    price, in offer order: the MW that matching takes up to at that price.

    One ``vg.optimal_quantity`` evaluation per direction. The fields of
    ``s`` and ``d`` are scalars for one hour, or arrays over the horizon
    that are read at each offer's hour; ``pf`` holds for every offer.
    """
    desired = [0.0] * len(offers)
    for direction in (DOWN, UP):
        at = [i for i, o in enumerate(offers) if o.direction is direction]
        if not at:
            continue
        hours = np.array([offers[i].hour for i in at])
        side_s = VgSchedule(
            da_quantity=_at_hours(s.da_quantity, hours),
            da_price=_at_hours(s.da_price, hours),
        )
        side_d = ForecastDistribution(**{k: _at_hours(v, hours) for k, v in vars(d).items()})
        prices = np.array([offers[i].price for i in at])
        mw = vg_econ.optimal_quantity(side_s, pf, side_d, direction, prices)
        for i, q in zip(at, mw.tolist()):
            desired[i] = q
    return desired


def match_offers(
    offers: list[Offer],
    desired: list[float],
    direction: Direction,
    buyer: str,
    id_start: int = 0,
) -> list[BrsContract]:
    """Greedy price-priority match of one side of the book against the
    buyer's marginal-value curve.

    ``desired`` is ``buyer_demand`` of the offers, which all belong to one
    hour. Walks price levels ascending; each level is taken up to the
    buyer's optimal total at that price (beyond it the marginal value is
    below the price). A level that only partially fits is allocated
    pro-rata by offer quantity.
    """
    book = sorted(
        [(o, mw) for o, mw in zip(offers, desired, strict=True) if o.direction is direction],
        key=lambda pair: pair[0].price,
    )
    contracts: list[BrsContract] = []
    taken = 0.0
    next_id = id_start
    for price, level_iter in itertools.groupby(book, key=lambda pair: pair[0].price):
        level, wants = zip(*level_iter)
        room = wants[0] - taken
        if room <= _MW_EPS:
            break
        level_qty = sum(o.quantity for o in level)
        if level_qty <= room:
            fills = [(o, o.quantity) for o in level]
        else:
            fills = [(o, room * o.quantity / level_qty) for o in level]
        for o, mw in fills:
            if mw <= _MW_EPS:
                continue
            contracts.append(
                BrsContract(
                    id=next_id,
                    buyer=buyer,
                    seller=o.seller,
                    hour=o.hour,
                    direction=direction,
                    quantity=mw,
                    premium_price=price,
                )
            )
            next_id += 1
            taken += mw
        if level_qty > room:
            break
    return contracts


def validate_contracts(
    contracts: list[BrsContract],
    units: dict[str, DispatchableUnit],
    buyer_zone: str | None = None,
    unit_zones: dict[str, str] | None = None,
    zonal_rule: ZonalRule | None = None,
) -> None:
    """Physical validation against seller headroom, oldest contracts first.

    Upward cover consumes p_max - da_schedule, downward consumes
    da_schedule - p_min. A contract that straddles the remaining headroom is
    trimmed (the overflow MW are rejected); strictly newer contracts on an
    exhausted side are rejected whole. Optional zonal rule rejects contracts
    across flagged boundaries outright.
    """
    used: dict[tuple[str, Direction], float] = {}
    for c in sorted(contracts, key=lambda c: c.id):
        if c.status is not ContractStatus.SIGNED:
            raise PhaseError(f"contract {c.id} already {c.status.value}, cannot validate")
        if c.seller not in units:
            raise ValueError(f"contract {c.id}: unknown seller {c.seller!r}")
        seller_zone = (unit_zones or {}).get(c.seller)
        if zonal_rule is not None and zonal_rule.blocks(buyer_zone, seller_zone):
            c.transition(ContractStatus.REJECTED)
            continue
        u = units[c.seller]
        if c.direction is UP:
            headroom = u.p_max - u.da_schedule
        else:
            headroom = u.da_schedule - u.p_min
        key = (c.seller, c.direction)
        room = headroom - used.get(key, 0.0)
        if room <= _MW_EPS:
            c.transition(ContractStatus.REJECTED)
            continue
        if c.quantity > room:
            c.trimmed_mw = c.quantity - room
            c.quantity = room
        used[key] = used.get(key, 0.0) + c.quantity
        c.transition(ContractStatus.VALIDATED)


def claim_execution(
    contracts: list[BrsContract],
    da_quantity: float,
    claimed_output: float,
) -> ExecutionClaim:
    """Turn a near-RT output claim into per-contract executions.

    Only the deviation side executes, capped by the contracted total, and the
    cap is shared pro-rata by contract quantity. Remainders are released.
    """
    validated = [c for c in contracts if c.status is ContractStatus.VALIDATED]
    for c in contracts:
        if c.status is ContractStatus.SIGNED:
            raise PhaseError(f"contract {c.id} not validated, cannot claim")
    deviation = claimed_output - da_quantity
    per_seller: dict[Direction, dict[str, float]] = {DOWN: {}, UP: {}}
    totals = {DOWN: 0.0, UP: 0.0}
    for direction in (DOWN, UP):
        side = [c for c in validated if c.direction is direction]
        side_qty = sum(c.quantity for c in side)
        want = max(deviation, 0.0) if direction is DOWN else max(-deviation, 0.0)
        total = min(want, side_qty)
        for c in side:
            mw = total * (c.quantity / side_qty) if side_qty > 0.0 else 0.0
            if mw > _MW_EPS:
                c.executed_mw = mw
                c.transition(ContractStatus.EXECUTED)
                bucket = per_seller[direction]
                bucket[c.seller] = bucket.get(c.seller, 0.0) + mw
            else:
                c.transition(ContractStatus.RELEASED)
        totals[direction] = sum(per_seller[direction].values())
    return ExecutionClaim(
        executed_down=totals[DOWN],
        executed_up=totals[UP],
        per_seller_down=per_seller[DOWN],
        per_seller_up=per_seller[UP],
    )


@dataclass(frozen=True)
class HourAccounts:
    """Everything settle needs for one hour, after claims are applied."""

    hour: int
    vg_id: str
    da_price: float
    rt_price: float
    penalty: PenaltyFactors
    vg_da_schedule: float
    vg_realized: float
    contracts: list[BrsContract]
    units: dict[str, DispatchableUnit]
    unit_rt_output: dict[str, float]


def settle(acc: HourAccounts) -> SettlementLedger:
    """Cash out one hour into a zero-sum ledger.

    Premiums are owed on the full validated quantity (released cover is still
    paid for). DA energy is settled on original schedules, with a bilateral
    transfer at the DA price moving the executed MW so both sides effectively
    settle on modified schedules. Residual deviations clear against the pool:
    the producer at the penalized DA price, units at the RT price.
    """
    lam_d, lam_r = acc.da_price, acc.rt_price
    ledger = SettlementLedger()

    executed_down: dict[str, float] = {}
    executed_up: dict[str, float] = {}
    for c in acc.contracts:
        if c.status is ContractStatus.REJECTED:
            continue
        if c.status not in (ContractStatus.EXECUTED, ContractStatus.RELEASED):
            raise PhaseError(f"contract {c.id} still {c.status.value} at settlement")
        ledger.add(acc.hour, c.buyer, c.seller, c.premium_price * c.quantity, "premium")
        if c.status is ContractStatus.EXECUTED:
            side = executed_down if c.direction is DOWN else executed_up
            side[c.seller] = side.get(c.seller, 0.0) + c.executed_mw

    # DA energy on original schedules.
    ledger.add(acc.hour, POOL, acc.vg_id, lam_d * acc.vg_da_schedule, "da_energy")
    for uid, u in acc.units.items():
        ledger.add(acc.hour, POOL, uid, lam_d * u.da_schedule, "da_energy")

    # Bilateral transfer of the executed MW at the DA price.
    vg_shift = 0.0
    for uid, mw in executed_down.items():
        ledger.add(acc.hour, uid, acc.vg_id, lam_d * mw, "brs_energy_shift")
        vg_shift += mw
    for uid, mw in executed_up.items():
        ledger.add(acc.hour, acc.vg_id, uid, lam_d * mw, "brs_energy_shift")
        vg_shift -= mw

    # Producer residual deviation vs the pool at the penalized DA price.
    vg_modified = acc.vg_da_schedule + vg_shift
    residual = acc.vg_realized - vg_modified
    if residual > 0.0:
        ledger.add(
            acc.hour, POOL, acc.vg_id, (1.0 - acc.penalty.over) * lam_d * residual,
            "rt_imbalance",
        )
    elif residual < 0.0:
        ledger.add(
            acc.hour, acc.vg_id, POOL, (1.0 + acc.penalty.under) * lam_d * (-residual),
            "rt_imbalance",
        )

    # Unit deviations from modified schedules vs the pool at the RT price.
    for uid, u in acc.units.items():
        modified = u.da_schedule - executed_down.get(uid, 0.0) + executed_up.get(uid, 0.0)
        if not u.p_min - _MW_EPS <= modified <= u.p_max + _MW_EPS:
            raise AssertionError(
                f"unit {uid} pushed to {modified} MW despite validation"
            )
        if uid not in acc.unit_rt_output:
            raise ValueError(f"missing RT output for unit {uid!r}")
        dev = acc.unit_rt_output[uid] - modified
        if lam_r >= 0.0:
            if dev > 0.0:
                ledger.add(acc.hour, POOL, uid, lam_r * dev, "rt_imbalance")
            elif dev < 0.0:
                ledger.add(acc.hour, uid, POOL, lam_r * (-dev), "rt_imbalance")
        else:
            # Negative RT price flips who owes whom for the same deviation.
            if dev > 0.0:
                ledger.add(acc.hour, uid, POOL, -lam_r * dev, "rt_imbalance")
            elif dev < 0.0:
                ledger.add(acc.hour, POOL, uid, -lam_r * (-dev), "rt_imbalance")

    return ledger
