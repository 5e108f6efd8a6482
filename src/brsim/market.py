"""Bilateral re-dispatch capacity market over the delivery hours of a day.

The day is held as columns, one row per offer, contract or ledger entry,
and each step runs every hour at once (DA clearing happens elsewhere):
``match_offers`` prices the book's levels and fills them,
``validate_contracts`` applies the zonal rule and seller headroom,
``claim_execution`` executes the producer's near-RT claims,
``executed_by_seller`` sums the executions and moves the schedules, once
for the day, and ``settle`` writes a zero-sum ledger against the
settlement pool on them. A step given contracts in the wrong status raises
PhaseError. The rules are stated per hour; where one adds MW or cash a
term at a time, the columns add in that order too (``_in_order``), so
every value keeps its bits.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import vg as vg_econ
from ._arrays import fail_where
from .dataio import POOL
from .forecast import ForecastDistribution
from .provider import _MW_EPS, DispatchableUnit
from .vg import DOWN, UP, PenaltyFactors, VgSchedule

LEDGER_TAGS = ("premium", "da_energy", "brs_energy_shift", "rt_imbalance")
# Contract status codes, and the rule behind a trim or a rejection.
STATUSES = ("signed", "validated", "rejected", "executed", "released")
SIGNED, VALIDATED, REJECTED, EXECUTED, RELEASED = range(len(STATUSES))
REASONS = ("", "headroom", "zonal")
NO_REASON, HEADROOM, ZONAL = range(len(REASONS))
# Ledger party codes: the pool, the producer, then the units in order.
_POOL, _VG, _UNITS = 0, 1, 2
# Ledger entries summed into nets at a time: bounds the sums' temporaries.
_NET_SLICE = 4096


class PhaseError(RuntimeError):
    """Operation attempted on a contract outside its lifecycle status."""


# Each column's dtype, and the value a contract starts with.
_COLUMNS = {
    "hour": (np.int64, 0), "up": (bool, False), "seller": (np.int64, 0),
    "price": (float, 0.0), "quantity": (float, 0.0), "status": (np.int8, SIGNED),
    "trimmed": (float, 0.0), "executed": (float, 0.0), "reason": (np.int8, NO_REASON),
}


def _runs(*keys: np.ndarray) -> np.ndarray:
    """The first row of each run of rows equal in every key column."""
    new = np.zeros(len(keys[0]), dtype=bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(new)


def _groups(rows: np.ndarray, *keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` sorted stably by the key columns, the first key first, and
    the first position of each run of rows equal in every key."""
    order = rows[np.lexsort([key[rows] for key in reversed(keys)])]
    return order, _runs(*(key[order] for key in keys))


def _in_order(starts: np.ndarray, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For k = 0, 1, ...: the runs of more than k rows (indices into
    ``starts``) and each one's k-th row. Every run's rows come in row
    order, as in a loop over one run, each step for all runs at once."""
    sizes = np.diff(np.append(starts, n))
    live = np.arange(len(starts))
    k = 0
    while len(live):
        yield live, starts[live] + k
        k += 1
        live = live[sizes[live] > k]


def _sums(starts: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Within each run of ``x``: the sum of the rows before each row, and
    the run's total on each row, added one row at a time from 0.0."""
    before, total = np.empty_like(x), np.zeros(len(starts))
    for live, at in _in_order(starts, len(x)):
        before[at] = total[live]
        total[live] += x[at]
    return before, np.repeat(total, np.diff(np.append(starts, len(x))))


def _at_hours(x, hours):
    """A per-hour input at each row's hour: an array is indexed by hour, a
    scalar holds for every hour."""
    return np.asarray(x)[hours] if np.ndim(x) else x


@dataclass(frozen=True, eq=False)
class Book:
    """Standing sell offers of re-dispatch capacity, one row per offer in
    posting order. ``seller`` indexes the day's units, and ``up`` marks
    upward cover."""

    hour: np.ndarray
    up: np.ndarray
    seller: np.ndarray
    price: np.ndarray
    quantity: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.hour)
        for field in dataclasses.fields(self):
            dtype, start = _COLUMNS[field.name]
            value = getattr(self, field.name)
            col = np.full(n, start, dtype) if value is None else np.asarray(value, dtype)
            if col.shape != (n,):
                raise ValueError(f"column {field.name} has shape {col.shape}, expected ({n},)")
            object.__setattr__(self, field.name, col)
        fail_where(~(self.quantity > 0.0), "quantity must be positive, got {}", self.quantity)
        fail_where(~(self.price >= 0.0), "price must be >= 0, got {}", self.price)
        fail_where(self.hour < 0, "hour must be >= 0, got {}", self.hour)


@dataclass(frozen=True, eq=False)
class Contracts(Book):
    """Signed cover, one row per contract, a row's index its id: the
    producer buys at the premium ``price``. ``trimmed`` holds the MW cut at
    validation, ``reason`` the rule (``REASONS``) behind a trim or a
    rejection, and ``executed`` the MW a claim executed."""

    status: np.ndarray | None = None
    trimmed: np.ndarray | None = None
    executed: np.ndarray | None = None
    reason: np.ndarray | None = None


def _require(c: Contracts, allowed: tuple[int, ...], step: str) -> None:
    names = np.array(STATUSES, dtype=object)[c.status]
    fail_where(~np.isin(c.status, allowed), f"contract {{}} is {{}}, cannot {step}",
               np.arange(len(names)), names, error=PhaseError)


def match_offers(
    book: Book, s: VgSchedule, pf: PenaltyFactors, d: ForecastDistribution
) -> Contracts:
    """Greedy price-priority match of every hour's book, both sides, against
    the buyer's marginal-value curve.

    Per hour and side, price levels are walked ascending; each is taken up
    to the buyer's optimal total cover at its price (beyond it the marginal
    value is below the price), one ``vg.optimal_quantity`` evaluation over
    every level of both sides. The fields of ``s`` and ``d`` are scalars, or
    arrays over the horizon read at each level's hour; ``pf`` holds for
    every level. A level with no room ends the walk, as does one that only
    partially fits, allocated pro rata by offer quantity. A fill at or
    below _MW_EPS signs nothing. Contract ids run by hour, the downward
    side first, by price, then in posting order.
    """
    # A stable sort keeps posting order within a price level.
    order, levels = _groups(np.arange(len(book.hour)), book.hour, book.up, book.price)
    hour, up, price, qty = book.hour[order], book.up[order], book.price[order], book.quantity[order]
    level = np.repeat(np.arange(len(levels)), np.diff(np.append(levels, len(order))))
    level_qty = _sums(levels, qty)[1][levels]
    # The buyer's optimal total cover at each level's price.
    hours = hour[levels]
    at_s = VgSchedule(_at_hours(s.da_quantity, hours), _at_hours(s.da_price, hours))
    at_d = ForecastDistribution(**{k: _at_hours(v, hours) for k, v in vars(d).items()})
    demand = vg_econ.optimal_quantity(at_s, pf, at_d, np.where(up[levels], UP, DOWN), price[levels])
    # The MW taken before each offer if every level before it filled whole.
    sides = _runs(hour, up)
    taken = _sums(sides, np.where(qty > _MW_EPS, qty, 0.0))[0][levels]
    room = demand - taken
    stops = (room <= _MW_EPS) | (level_qty > room)
    # A level is reached if no earlier level of its side stopped the walk.
    reached = _sums(np.searchsorted(levels, sides), stops.astype(float))[0] == 0.0
    whole, split = reached & ~stops, reached & stops & (room > _MW_EPS)
    fill = np.where(whole[level], qty, 0.0)
    fill = np.where(split[level], room[level] * qty / level_qty[level], fill)
    at = np.flatnonzero(fill > _MW_EPS)
    return Contracts(hour=hour[at], up=up[at], seller=book.seller[order][at],
                     price=price[levels][level][at], quantity=fill[at])


def validate_contracts(
    contracts: Contracts, units: Sequence[DispatchableUnit], blocked: frozenset[int] = frozenset()
) -> Contracts:
    """Physical validation against seller headroom, oldest contracts first.

    Per hour, upward cover consumes its seller's p_max - da_schedule (a
    scalar or one value per hour), downward cover da_schedule - p_min. A
    contract straddling the remaining headroom is trimmed; newer ones on an
    exhausted side are rejected whole. A ``blocked`` seller (an index into
    ``units``), across a congested zone boundary from the buyer, has its
    contracts rejected outright.
    """
    c = contracts
    _require(c, (SIGNED,), "validate")
    fail_where((c.seller < 0) | (c.seller >= len(units)), "contract {}: unknown seller {}",
               np.arange(len(c.hour)), c.seller)
    headroom = np.empty(len(c.hour))
    for j, u in enumerate(units):
        mine = np.flatnonzero(c.seller == j)
        schedule = _at_hours(u.da_schedule, c.hour[mine])
        headroom[mine] = np.where(c.up[mine], u.p_max - schedule, schedule - u.p_min)
    zonal = np.isin(c.seller, list(blocked))
    status, reason = np.where(zonal, REJECTED, VALIDATED), np.where(zonal, ZONAL, NO_REASON)
    quantity, trimmed = c.quantity.copy(), c.trimmed.copy()
    # Headroom is used per hour, seller and side, in id order.
    order, starts = _groups(np.flatnonzero(~zonal), c.hour, c.seller, c.up)
    used = np.zeros(len(starts))
    for runs, at in _in_order(starts, len(order)):
        i = order[at]
        room = headroom[i] - used[runs]
        full = room <= _MW_EPS
        over = ~full & (quantity[i] > room)
        status[i[full]] = REJECTED
        reason[i[full | over]] = HEADROOM
        trimmed[i[over]] = quantity[i[over]] - room[over]
        quantity[i[over]] = room[over]
        used[runs] += np.where(full, 0.0, quantity[i])
    return dataclasses.replace(c, quantity=quantity, trimmed=trimmed, status=status, reason=reason)


def claim_execution(contracts: Contracts, da_quantity, claimed_output) -> Contracts:
    """Turn the producer's near-RT output claims into executions.

    Per hour, only the deviation side executes, capped by its validated
    total, and the cap is shared pro rata by contract quantity; a share at
    or below _MW_EPS is released. ``da_quantity`` and ``claimed_output``
    are the producer's schedule and claim, scalars or one value per hour.
    """
    c = contracts
    _require(c, (VALIDATED, REJECTED), "claim")
    # Contract quantities are positive, so no side total is zero.
    live, sides = _groups(np.flatnonzero(c.status == VALIDATED), c.hour, c.up)
    hours, up, qty = c.hour[live], c.up[live], c.quantity[live]
    side_qty = _sums(sides, qty)[1]
    deviation = _at_hours(claimed_output, hours) - _at_hours(da_quantity, hours)
    want = np.maximum(np.where(up, -deviation, deviation), 0.0)
    mw = np.minimum(want, side_qty) * (qty / side_qty)
    hit = mw > _MW_EPS
    executed, status = c.executed.copy(), c.status.copy()
    executed[live[hit]] = mw[hit]
    status[live] = np.where(hit, EXECUTED, RELEASED)
    return dataclasses.replace(c, executed=executed, status=status)


@dataclass(frozen=True, eq=False)
class Shifts:
    """Executed MW per hour, side and seller, one row each: by hour, the
    downward side first, then in the order of each seller's first executed
    contract. Each row adds up its contracts' MW in id order. With them come
    the schedules they leave: the producer's per hour (``vg_modified``), and
    each unit's, one column per unit (``unit_modified``)."""

    hour: np.ndarray
    up: np.ndarray
    seller: np.ndarray
    mw: np.ndarray
    vg_modified: np.ndarray
    unit_modified: np.ndarray


def executed_by_seller(
    contracts: Contracts, vg_schedule: np.ndarray, units: Sequence[DispatchableUnit]
) -> Shifts:
    """The executed contracts summed into shifts, with the producer's DA
    ``vg_schedule`` (one value per hour) and the units' DA schedules moved
    by them. Executed downward cover raises the producer's schedule by the
    MW its seller's falls, upward cover the reverse; the producer's shift
    adds the sellers' MW in shift order (bincount adds in input order)."""
    c = contracts
    order, starts = _groups(np.flatnonzero(c.status == EXECUTED), c.hour, c.up, c.seller)
    mw = _sums(starts, c.executed[order])[1][starts]
    first = order[starts]
    rows = np.lexsort((first, c.up[first], c.hour[first]))
    first, mw = first[rows], mw[rows]
    hour, up, seller = c.hour[first], c.up[first], c.seller[first]
    horizon = len(vg_schedule)
    vg_shift = np.bincount(hour, np.where(up, -mw, mw), minlength=horizon)
    moved = np.zeros((2, horizon, len(units)))
    moved[up.astype(int), hour, seller] = mw
    return Shifts(hour, up, seller, mw, vg_schedule + vg_shift,
                  _schedules(units, horizon) - moved[0] + moved[1])


def _schedules(units: Sequence[DispatchableUnit], horizon: int) -> np.ndarray:
    """The units' DA schedules, one row per hour and one column per unit."""
    return np.array([np.broadcast_to(u.da_schedule, horizon) for u in units]).reshape(-1, horizon).T


@dataclass(frozen=True, eq=False)
class SettlementLedger:
    """Append-only double-entry ledger, one row per entry: in ``hour``,
    ``amount`` moves from ``parties[payer]`` to ``parties[payee]`` under
    ``LEDGER_TAGS[tag]``. Every flow names a payer and a payee, so the
    parties' nets sum to zero up to rounding. ``payer``, ``payee`` and
    ``tag`` are codes of the smallest unsigned integer type that indexes
    their tuple (uint8 for any real day). Build one with ``of``."""

    parties: tuple[str, ...]
    hour: np.ndarray
    payer: np.ndarray
    payee: np.ndarray
    amount: np.ndarray
    tag: np.ndarray

    @classmethod
    def of(cls, parties: Sequence[str], flows: Iterable[tuple]) -> "SettlementLedger":
        """The ledger of ``flows``: (tag, hour, payer, payee, amount) groups
        of columns or scalars that broadcast, each in hour order, with
        payer and payee indexing ``parties``. Entries run by hour, and
        within an hour in the order of the groups, then of their rows.
        Zero amounts are dropped; an unknown tag, a negative hour or one
        that int64 cannot hold, a party code outside ``parties``, a payer
        that is its own payee, or an amount that is negative or not finite
        is refused."""
        groups = []
        for tag, *columns in flows:
            if tag not in LEDGER_TAGS:
                raise ValueError(f"unknown ledger tag {tag!r}")
            groups.append(np.broadcast_arrays(*map(np.atleast_1d, columns), LEDGER_TAGS.index(tag)))
        for hour, payer, payee, _, tag in groups:
            if (bad := ~(hour >= 0)).any():
                raise ValueError(f"{LEDGER_TAGS[tag[0]]} hour must be >= 0, got {hour[bad][0]}")
            # The hour must survive the cast to int64 unchanged.
            if (bad := (hour != np.trunc(hour)) | (hour >= 2**63)).any():
                raise ValueError(
                    f"{LEDGER_TAGS[tag[0]]} hour must be an integer below 2**63, got {hour[bad][0]}")
            for code in (payer, payee):
                if (bad := (code < 0) | (code >= len(parties))).any():
                    raise ValueError(f"party code {code[bad][0]} outside {len(parties)} parties")
            if (same := payer == payee).any():
                raise ValueError(f"payer and payee must differ, both {parties[payer[same][0]]!r}")

        def column(k: int, dtype) -> np.ndarray:
            # The party codes were checked, so the unsafe cast keeps them.
            return np.concatenate([group[k] for group in groups] or [np.zeros(0)],
                                  dtype=dtype, casting="unsafe")

        # The kept entries in hour order; then one column at a time is
        # concatenated and cut to them.
        hour = column(0, np.int64)
        nonzero = np.concatenate([group[3] != 0.0 for group in groups] or [np.zeros(0, bool)])
        keep = np.argsort(hour, kind="stable")
        keep = keep[nonzero[keep]]
        hour = hour[keep]
        amount = column(3, float)[keep]
        party = np.min_scalar_type(max(len(parties) - 1, 0))
        payer, payee = column(1, party)[keep], column(2, party)[keep]
        tag = column(4, np.min_scalar_type(len(LEDGER_TAGS) - 1))[keep]
        if (bad := ~(amount >= 0.0) | (amount == math.inf)).any():
            i = int(np.argmax(bad))
            raise ValueError(f"hour {hour[i]}: {LEDGER_TAGS[tag[i]]} from {parties[payer[i]]!r} to "
                             f"{parties[payee[i]]!r} must be finite and >= 0, got {amount[i]}")
        return cls(tuple(parties), hour, payer, payee, amount, tag)

    def _flows(self, stride: int = 0) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """The entries in slices of at most _NET_SLICE, each as (start,
        keys, amounts): every entry's payer with minus its amount, then its
        payee with its amount, the first key at ``start`` in that sequence
        over the whole ledger. A key is the party's code plus ``stride``
        times the entry's hour. Each slice is written over the last."""
        size = min(len(self.amount), _NET_SLICE)
        keys, amounts = np.empty((size, 2), np.int64), np.empty((size, 2))
        for lo in range(0, len(self.amount), _NET_SLICE):
            at = slice(lo, lo + _NET_SLICE)
            k = len(self.amount[at])
            keys[:k, 0], keys[:k, 1] = self.payer[at], self.payee[at]
            if stride:
                keys[:k] += (self.hour[at] * stride)[:, None]
            np.negative(self.amount[at], out=amounts[:k, 0])
            amounts[:k, 1] = self.amount[at]
            yield 2 * lo, keys[:k].ravel(), amounts[:k].ravel()

    def net_by_party(self) -> dict[str, float]:
        """Each party's net, in order of first appearance (payer before
        payee), summed in entry order."""
        never = 2 * len(self.amount)
        nets, first = np.zeros(len(self.parties)), np.full(len(self.parties), never)
        for start, keys, amounts in self._flows():
            # add.at adds one element at a time, in input order.
            np.add.at(nets, keys, amounts)
            np.minimum.at(first, keys, np.arange(start, start + len(keys)))
        nets, first = nets.tolist(), first.tolist()
        seen = sorted((p for p, at in enumerate(first) if at < never), key=first.__getitem__)
        return {self.parties[p]: nets[p] for p in seen}

    def hourly_nets(self, horizon: int) -> np.ndarray:
        """Each party's (column's) net within each hour (row), in entry order."""
        if len(self.hour) and not 0 <= self.hour.min() <= self.hour.max() < horizon:
            raise ValueError(
                f"hours {self.hour.min()} to {self.hour.max()} outside horizon {horizon}")
        nets = np.zeros((horizon, len(self.parties)))
        for _, keys, amounts in self._flows(len(self.parties)):
            np.add.at(nets.reshape(-1), keys, amounts)
        return nets


def settle(
    *, vg_id: str, da_price: np.ndarray, rt_price: np.ndarray, penalty: PenaltyFactors,
    vg_schedule: np.ndarray, vg_realized: np.ndarray, contracts: Contracts, shifts: Shifts,
    units: dict[str, DispatchableUnit], unit_rt_output: np.ndarray,
) -> SettlementLedger:
    """Cash out the day into a zero-sum ledger.

    The hourly inputs hold one value per hour, ``unit_rt_output`` one column
    per unit too, and ``shifts`` (``executed_by_seller``) the day's moved
    schedules. Premiums are owed on the full validated quantity (released
    cover is still paid for). DA energy is settled on original schedules,
    and a transfer at the DA price moves the executed MW, so both sides
    settle on modified schedules. Residual deviations clear against the
    pool: the producer's at the penalized DA price, units' at the RT price.
    Each hour's entries run in that order: premiums by contract id, DA
    energy (the producer first), transfers in shift order, then imbalances
    (the producer first).
    """
    c, s = contracts, shifts
    _require(c, (EXECUTED, RELEASED, REJECTED), "settle")
    ids, units = tuple(units), tuple(units.values())
    horizon, lam_d, lam_r = len(da_price), da_price, rt_price
    for what, value, shape in (("missing RT output", unit_rt_output, (horizon, len(units))),
                               ("shifts of another day", s.vg_modified, (horizon,)),
                               ("shifts of another day", s.unit_modified, (horizon, len(units)))):
        if np.shape(value) != shape:
            raise ValueError(f"{what}: need shape {shape}, got {np.shape(value)}")
    lo = np.array([u.p_min for u in units]) - _MW_EPS
    hi = np.array([u.p_max for u in units]) + _MW_EPS
    hours = np.arange(horizon)
    fail_where(~((lo <= s.unit_modified) & (s.unit_modified <= hi)),
               "hour {}: unit {} pushed to {} MW despite validation",
               hours[:, None], np.array(ids, dtype=object), s.unit_modified, error=AssertionError)
    unit_hours = np.repeat(hours, len(units))
    unit_party = np.tile(_UNITS + np.arange(len(units)), horizon)
    live = np.flatnonzero(c.status != REJECTED)
    residual = vg_realized - s.vg_modified
    over = residual > 0.0
    vg_owed = np.where(over, (1.0 - penalty.over) * lam_d * residual,
                       (1.0 + penalty.under) * lam_d * -residual)
    # The pool pays a positive value and is paid a negative one, so a
    # negative RT price flips who owes whom for the same deviation.
    value = (lam_r[:, None] * (unit_rt_output - s.unit_modified)).ravel()
    return SettlementLedger.of((POOL, vg_id, *ids), [
        ("premium", c.hour[live], _VG, _UNITS + c.seller[live], c.price[live] * c.quantity[live]),
        ("da_energy", hours, _POOL, _VG, lam_d * vg_schedule),
        ("da_energy", unit_hours, _POOL, unit_party,
         (lam_d[:, None] * _schedules(units, horizon)).ravel()),
        ("brs_energy_shift", s.hour, *_either(s.up, _VG, _UNITS + s.seller), lam_d[s.hour] * s.mw),
        ("rt_imbalance", hours, *_either(over, _POOL, _VG), vg_owed),
        ("rt_imbalance", unit_hours, *_either(value > 0.0, _POOL, unit_party), np.abs(value)),
    ])


def _either(forward: np.ndarray, a, b) -> tuple[np.ndarray, np.ndarray]:
    """(payer, payee): a pays b where ``forward`` is set, b pays a elsewhere."""
    return np.where(forward, a, b), np.where(forward, b, a)
