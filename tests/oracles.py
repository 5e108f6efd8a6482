"""Reference implementations that the tests check the library against.

They live with the tests, not in ``brsim``, so a refactor of the library
cannot change an oracle along with the code it judges.

- ``quantile`` is the bracketed root find on the regularized incomplete
  Beta, with a Newton polish near the support edges, that ``forecast``
  used before it switched to ``scipy.special.betaincinv``.
- ``pdf`` is the forecast density from ``scipy.stats``, for the quadrature
  oracles.
- ``optimal_quantity`` is ``vg.optimal_quantity`` as it was before it
  skipped the inverse CDF on cells whose cover is 0: the inverse at every
  cell's level, then the clip.
- ``scenario_to_dict`` and ``write_scenario`` turn a loaded config back
  into a scenario document, for round trips through the loader;
  ``offer_rows`` reads its coded offer book back as the document's offers.
- ``read_table`` reads back a CSV or JSON table written by
  ``dataio.write_table``; ``table_rows`` turns a table of columns into row
  dicts.
- ``reference_format_table`` is the table writer as it was before it
  rendered each batch with one %-template: a call per column of a batch,
  chosen by the exact type of its cells, or a call per cell, then a join
  or a %-format per row.
- ``JointScenario``, ``revenue_unit`` and ``revenue_unit_with_brs`` price
  one draw with scalar arithmetic, the way ``provider`` did before its
  risk moments were taken over arrays of draws.
- ``whole_scenarios`` is ``provider.generate_scenarios`` as it was before
  it yielded its draws in chunks: both rows of normals drawn at once and
  turned in place into one set over a read-only ``(2, n)`` buffer.
  ``joined`` is one set of the draws of consecutive sets.
- ``revenue_realized`` and ``revenue_with_brs`` are the producer's settled
  revenue at one realized output, the piecewise payoffs whose expectation
  ``vg.expected_revenue`` takes in closed form.
- ``ledger_net`` is one party's net over a ledger, summed entry by entry,
  for checking ``SettlementLedger.net_by_party`` and ``hourly_nets``;
  ``ledger_is_balanced`` checks that a ledger's nets cancel; and
  ``ledger_entries`` and ``hour_ledger`` read a columnar ledger entry by
  entry and hour by hour.
- The per-hour market is the hourly lifecycle that ``market`` ran before it
  held the day as columns: one ``Offer``, ``BrsContract`` and
  ``LedgerEntry`` object each, a status machine on every contract, and
  ``match_offers``, ``validate_contracts``, ``claim_execution`` and
  ``settle`` called hour by hour by ``per_hour_day``. Its sums add one term
  at a time, as Python 3.11's ``sum`` of floats does.
- ``compile_schema`` is the scenario schema interpreter that ``dataio``
  ran one value at a time before it checked each list a column at a time,
  and ``check_rules`` the cross-field rules it read from row dicts;
  ``check_scenario`` runs both on a document, as the loader did.
"""
from __future__ import annotations

import csv
import enum
import functools
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterator, Mapping, Sequence

from scipy import special
from scipy.optimize import brentq
from scipy.stats import beta as _beta

import numpy as np

from brsim import forecast, simulation, vg
from brsim._arrays import unwrap
from brsim.dataio import (
    _BATCH_ROWS, _SIG_DIGITS_FORMAT, POOL, TABLE_FORMATS, Coded, ScenarioConfig, ScenarioError,
    _format_cell, _format_float,
)
from brsim.forecast import ForecastDistribution
from brsim.market import LEDGER_TAGS, SettlementLedger
from brsim.provider import (
    _MW_EPS, _RISK_CHUNK, ContractInfeasibleError, DispatchableUnit, ScenarioModel, ScenarioSet,
    UnitKind, rt_dispatch,
)
from brsim.vg import DOWN, UP, BrsPosition, Direction, PenaltyFactors, VgSchedule

# Normalized-scale tolerances for the quantile root find. The contract asks
# for 1e-10 absolute; brentq converges fast enough that tightening is free,
# and the relative term keeps roots near 0 accurate for sub-1 shapes whose
# density blows up at the support edge.
_QUANTILE_XTOL = 1e-15
_QUANTILE_RTOL = 4 * math.ulp(1.0)
# The xtol term dominates brentq's stopping rule everywhere on [0, 1], so a
# root near either end of the support, where a sub-1 shape makes the CDF
# steep, can be good to 1e-15 in x and still miss its level by 1e-9. A few
# Newton steps on the CDF, each kept only if it shrinks the residual, close
# that gap to the float spacing of x.
_QUANTILE_POLISH_STEPS = 3


def pdf(d: ForecastDistribution, p: float) -> float:
    """Density at output level p MW."""
    if not 0.0 <= p <= d.capacity:
        raise ValueError(f"p={p} outside [0, {d.capacity}]")
    return float(_beta.pdf(p / d.capacity, d.shape_a, d.shape_b)) / d.capacity


def quantile(d: ForecastDistribution, q: float) -> float:
    """Inverse CDF in MW, by bracketed root finding on the regularized
    incomplete Beta."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level must be in [0, 1], got {q}")
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return d.capacity
    a, b = d.shape_a, d.shape_b
    x = float(
        brentq(
            lambda t: special.betainc(a, b, t) - q,
            0.0,
            1.0,
            xtol=_QUANTILE_XTOL,
            rtol=_QUANTILE_RTOL,
        )
    )
    resid = float(special.betainc(a, b, x)) - q
    if abs(resid) <= _QUANTILE_RTOL * q:
        return x * d.capacity
    log_norm = float(special.betaln(a, b))
    for _ in range(_QUANTILE_POLISH_STEPS):
        if not 0.0 < x < 1.0:
            break
        density = math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_norm)
        if not 0.0 < density < math.inf:
            break
        step = x - resid / density
        if not 0.0 < step < 1.0:
            break
        step_resid = float(special.betainc(a, b, step)) - q
        if abs(step_resid) >= abs(resid):
            break
        x, resid = step, step_resid
    return x * d.capacity


def optimal_quantity(s: VgSchedule, pf: PenaltyFactors, d: ForecastDistribution,
                     direction: Direction, price):
    """Critical-fractile optimum for one side, broadcasting like the library,
    with ``forecast.quantile`` taken on every cell."""
    factor = pf.over if direction is DOWN else pf.under
    first_mw = s.da_price * factor
    buys = np.logical_not((factor <= 0.0) | (price >= first_mw))
    fractile = np.where(buys, price, 0.0) / np.where(buys, first_mw, 1.0)
    if direction is DOWN:
        depth = forecast.quantile(d, 1.0 - fractile) - s.da_quantity
        headroom = d.capacity - s.da_quantity
    else:
        depth = s.da_quantity - forecast.quantile(d, fractile)
        headroom = s.da_quantity
    return unwrap(np.where(buys, np.maximum(np.minimum(depth, headroom), 0.0), 0.0))


def offer_rows(cfg: ScenarioConfig) -> list[dict]:
    """The config's offer book as scenario offers, in posting order: each
    seller code read as the unit's id and each ``up`` flag as a direction.
    No offer names a zone, which the loader checks and does not keep."""
    ids = [u.id for u in cfg.units]
    columns = (cfg.offers[k].tolist() for k in ("seller", "hour", "up", "price", "quantity"))
    return [
        {"seller": ids[j], "hour": h, "direction": UP.value if up else DOWN.value, "price": p,
         "quantity_mw": q}
        for j, h, up, p, q in zip(*columns)
    ]


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    vg_block: dict[str, Any] = {
        "id": cfg.vg.id,
        "capacity_mw": cfg.vg.capacity_mw,
        "forecast_mean_mw": cfg.vg.forecast_mean_mw.tolist(),
        "variance_coefficient": cfg.vg.variance_coefficient,
        "variance_scale": cfg.vg.variance_scale,
        "da_schedule_mw": cfg.vg.da_schedule_mw.tolist(),
        "claim_error_std_mw": cfg.vg.claim_error_std_mw,
    }
    if cfg.vg.realized_mw is not None:
        vg_block["realized_mw"] = cfg.vg.realized_mw.tolist()
    if cfg.vg.zone is not None:
        vg_block["zone"] = cfg.vg.zone
    out: dict[str, Any] = {
        "horizon": cfg.horizon,
        "seed": cfg.seed,
        "vg": vg_block,
        "penalty": {"over": cfg.penalty.over, "under": cfg.penalty.under},
        "da_price": cfg.da_price.tolist(),
        "rt_price": cfg.rt_price.tolist(),
        "brs_price": {
            "mode": cfg.brs_price.mode,
            "down": cfg.brs_price.down,
            "up": cfg.brs_price.up,
        },
        "variance_scale_factors": list(cfg.variance_scale_factors),
        "units": [
            {
                k: v
                for k, v in {
                    "id": u.id,
                    "kind": u.kind,
                    "p_min_mw": u.p_min_mw,
                    "p_max_mw": u.p_max_mw,
                    "marginal_cost": u.marginal_cost,
                    "da_schedule_mw": u.da_schedule_mw.tolist(),
                    "rt_mode": u.rt_mode,
                    "zone": u.zone,
                }.items()
                if v is not None
            }
            for u in cfg.units
        ],
        "offers": offer_rows(cfg),
    }
    if cfg.zonal_rule is not None:
        out["zonal_rule"] = {
            "congested_boundaries": [list(p) for p in cfg.zonal_rule.congested_boundaries]
        }
    return out


def write_scenario(cfg: ScenarioConfig, path: str | Path) -> None:
    with open(Path(path), "w", newline="\n", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def _parse_cell(cell: str) -> Any:
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        pass
    if cell == "true":
        return True
    if cell == "false":
        return False
    return cell


def read_table(path: str | Path) -> list[dict]:
    """Read back a table written by write_table (format from the extension)."""
    path = Path(path)
    if path.suffix == ".json":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError(f"{path}: expected a JSON list of rows")
        return data
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return [{k: _parse_cell(v) for k, v in row.items()} for row in reader]


@dataclass(frozen=True)
class JointScenario:
    """One joint draw of prices and executed shift (signed MW, + = upward)."""

    da_price: float
    rt_price: float
    executed: float

    def __post_init__(self) -> None:
        if not self.da_price > 0.0:
            raise ValueError(f"da_price must be positive, got {self.da_price}")
        if not math.isfinite(self.rt_price) or not math.isfinite(self.executed):
            raise ValueError("rt_price and executed must be finite")


def revenue_unit(
    u: DispatchableUnit, sc: JointScenario, rt_output: float | None = None
) -> float:
    """Two-settlement revenue with no cover sold."""
    out = rt_dispatch(u, sc.rt_price) if rt_output is None else rt_output
    return sc.da_price * u.da_schedule + (out - u.da_schedule) * sc.rt_price


def revenue_unit_with_brs(
    u: DispatchableUnit, sc: JointScenario, rt_output: float | None = None
) -> float:
    """Revenue gross of premiums with sc.executed MW of shift applied to the
    settlement schedule."""
    shifted = u.da_schedule + sc.executed
    if not u.p_min - _MW_EPS <= shifted <= u.p_max + _MW_EPS:
        raise ContractInfeasibleError(
            f"shifted schedule {shifted} outside [{u.p_min}, {u.p_max}]"
        )
    out = rt_dispatch(u, sc.rt_price) if rt_output is None else rt_output
    return sc.da_price * shifted + (out - shifted) * sc.rt_price


def whole_scenarios(model: ScenarioModel, n: int, seed: int) -> ScenarioSet:
    """n seeded joint draws in one set, over one read-only (2, n) buffer."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    z = np.random.default_rng(seed).standard_normal((2, n))
    z1, z2 = z
    rho = model.correlation
    z2 *= math.sqrt(1.0 - rho * rho)
    for lo in range(0, n, _RISK_CHUNK):
        z2[lo:lo + _RISK_CHUNK] += z1[lo:lo + _RISK_CHUNK] * (-rho)
    z2 *= model.execution_std
    if model.execution_limit is not None:
        np.clip(z2, -model.execution_limit, model.execution_limit, out=z2)
    z1 *= model.gap_std
    np.subtract(model.da_price_mean, z1, out=z1)
    z.flags.writeable = False
    rt, shift = z
    return ScenarioSet(model.da_price_mean, rt, shift)


def joined(sets) -> ScenarioSet:
    """The draws of consecutive sets, at the first one's DA price, as one set."""
    sets = list(sets)
    return ScenarioSet(sets[0].da, np.concatenate([s.rt for s in sets]),
                       np.concatenate([s.executed for s in sets]), sets[0].exhaustive)


def _check_actual(actual: float, capacity: float | None) -> None:
    if actual < 0.0 or not math.isfinite(actual):
        raise ValueError(f"actual output must be finite and >= 0, got {actual}")
    if capacity is not None and actual > capacity:
        raise ValueError(f"actual output {actual} exceeds capacity {capacity}")


def revenue_realized(
    s: VgSchedule, pf: PenaltyFactors, actual: float, capacity: float | None = None
) -> float:
    """Settled revenue with no re-dispatch cover: deviations clear at the
    penalized DA price."""
    _check_actual(actual, capacity)
    lam = s.da_price
    if actual >= s.da_quantity:
        return lam * s.da_quantity + (1.0 - pf.over) * lam * (actual - s.da_quantity)
    return lam * s.da_quantity - (1.0 + pf.under) * lam * (s.da_quantity - actual)


def revenue_with_brs(
    s: VgSchedule,
    pf: PenaltyFactors,
    pos: BrsPosition,
    actual: float,
    capacity: float | None = None,
) -> float:
    """Settled revenue gross of premiums, with the covered band [schedule -
    up_qty, schedule + down_qty] paying the full DA price."""
    _check_actual(actual, capacity)
    if pos.up_qty > s.da_quantity + 1e-9:
        raise ValueError(f"up_qty {pos.up_qty} exceeds schedule {s.da_quantity}")
    if capacity is not None and pos.down_qty > capacity - s.da_quantity + 1e-9:
        raise ValueError("down_qty exceeds headroom")
    lam = s.da_price
    hi = s.da_quantity + pos.down_qty
    lo = s.da_quantity - pos.up_qty
    if actual > hi:
        return lam * hi + (1.0 - pf.over) * lam * (actual - hi)
    if actual < lo:
        return lam * lo - (1.0 + pf.under) * lam * (lo - actual)
    return lam * actual


def _csv_floats(values: list) -> list[str]:
    # The format writes an integral value as str(int(value)) does, except in
    # exponent form (from 1e6 on) and -0.0 as "-0"; only then does a batch
    # take the rule value by value.
    text = list(map(_SIG_DIGITS_FORMAT, values))
    joined = ",".join(text) + ","
    return list(map(_format_float, values)) if "e" in joined or "-0," in joined else text


def _json_floats(values: list) -> list[str]:
    if not all(map(math.isfinite, values)):
        raise ValueError("Out of range float values are not JSON compliant")
    return list(map(float.__repr__, values))


def _bools(values: list) -> list[str]:
    return ["true" if v else "false" for v in values]


# The text of a column whose cells all have one of these exact types (so a
# bool never takes the int path), made in one call; any other column is
# written cell by cell.
_CSV_TEXT = {str: lambda v: v, int: lambda v: list(map(str, v)), float: _csv_floats, bool: _bools}
_JSON_TEXT = {
    str: lambda v: list(map(encode_basestring_ascii, v)), int: lambda v: list(map(int.__repr__, v)),
    float: _json_floats, bool: _bools, type(None): lambda v: ["null"] * len(v),
}


def _column_text(values: list, by_type: dict, cell: Callable[[Any], str]) -> list[str]:
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    return by_type[kind](values) if kind in by_type else list(map(cell, values))


def _batches(table: Mapping[str, Sequence]) -> tuple[list[str], Iterator[list]]:
    """The column names, and the table ``_BATCH_ROWS`` rows at a time, one
    list of cells per column, each sliced from its column as it is asked
    for."""
    cols, data = list(table), list(table.values())
    n = len(data[0]) if data else 0
    if any(len(col) != n for col in data):
        raise ValueError(f"columns {cols} differ in length")
    parts = ([col[lo:lo + _BATCH_ROWS] for col in data] for lo in range(0, n, _BATCH_ROWS))
    return cols, ([p.tolist() if hasattr(p, "tolist") else p for p in batch] for batch in parts)


def reference_table_chunks(table: Mapping[str, Sequence], fmt: str) -> Iterator[str]:
    """The text of a table, a batch of rows at a time, each column of a
    batch formatted by one call chosen by the type of its cells."""
    if fmt not in TABLE_FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {TABLE_FORMATS}")
    cols, batches = _batches(table)
    if fmt == "csv":
        yield ",".join(cols) + "\n"
        for batch in batches:
            text = [_column_text(cells, _CSV_TEXT, _format_cell) for cells in batch]
            yield "\n".join(map(",".join, zip(*text))) + "\n"
        return
    # Each batch is the text json.dumps gives its rows, without the list's
    # brackets; joined by the separator json.dumps puts between items, the
    # batches read as json.dumps of all the rows.
    cell = functools.partial(json.dumps, allow_nan=False)
    row = "{" + ", ".join(json.dumps(c).replace("%", "%%") + ": %s" for c in cols) + "}"
    yield "["
    separator = ""
    for batch in batches:
        text = [_column_text(cells, _JSON_TEXT, cell) for cells in batch]
        yield separator
        yield ", ".join(map(row.__mod__, zip(*text)))
        separator = ", "
    yield "]\n"


def reference_format_table(table: Mapping[str, Sequence], fmt: str) -> str:
    """``dataio.format_table`` by the reference writer; a coded column is
    given to it as its list of labels."""
    table = {k: col.tolist() if isinstance(col, Coded) else col for k, col in table.items()}
    return "".join(reference_table_chunks(table, fmt))


def table_rows(table: dict) -> list[dict]:
    """A table of columns as row dicts of Python scalars."""
    columns = [col.tolist() if hasattr(col, "tolist") else list(col) for col in table.values()]
    return [dict(zip(table, row)) for row in zip(*columns)]


def ledger_is_balanced(ledger: SettlementLedger) -> bool:
    """Whether the parties' nets, summed exactly, cancel to within 1e-9 of
    the gross flow."""
    residual = math.fsum(ledger.net_by_party().values())
    return abs(residual) <= 1e-9 * math.fsum(ledger.amount.tolist())


def hour_ledger(ledger: SettlementLedger, hour: int) -> SettlementLedger:
    """The entries of one hour, as a ledger of their own."""
    at = ledger.hour == hour
    return SettlementLedger(
        ledger.parties, ledger.hour[at], ledger.payer[at], ledger.payee[at],
        ledger.amount[at], ledger.tag[at],
    )


def ledger_entries(ledger: SettlementLedger) -> list[LedgerEntry]:
    """A columnar ledger's entries as objects, in entry order."""
    names = ledger.parties
    return [
        LedgerEntry(h, names[payer], names[payee], amount, LEDGER_TAGS[tag])
        for h, payer, payee, amount, tag in zip(
            ledger.hour.tolist(), ledger.payer.tolist(), ledger.payee.tolist(),
            ledger.amount.tolist(), ledger.tag.tolist(),
        )
    ]


def ledger_net(ledger, party: str, hour: int | None = None) -> float:
    """One party's net over a columnar or per-entry ledger, or over its
    entries in one hour, summed in entry order."""
    entries = ledger.entries if isinstance(ledger, EntryLedger) else ledger_entries(ledger)
    total = 0.0
    for e in entries:
        if hour is not None and e.hour != hour:
            continue
        if e.payee == party:
            total += e.amount
        if e.payer == party:
            total -= e.amount
    return total


# ---------------------------------------------------------------------------
# the per-hour market
# ---------------------------------------------------------------------------

def _added(values) -> float:
    """The sum of values added one at a time from 0.0."""
    return functools.reduce(operator.add, values, 0.0)


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


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    hour: int
    payer: str
    payee: str
    amount: float
    tag: str


class EntryLedger:
    """Append-only double-entry ledger of one object per entry."""

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


@dataclass(frozen=True)
class ExecutionClaim:
    """Outcome of claiming execution against (near-)RT output."""

    executed_down: float
    executed_up: float
    per_seller_down: dict[str, float]
    per_seller_up: dict[str, float]


def match_offers(
    offers: list[Offer],
    desired: list[float],
    direction: Direction,
    buyer: str,
    id_start: int = 0,
) -> list[BrsContract]:
    """Greedy price-priority match of one side of one hour's book against
    the buyer's optimal total at each offer's price."""
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
        level_qty = _added(o.quantity for o in level)
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
    blocked: frozenset[str] = frozenset(),
) -> None:
    """Physical validation against seller headroom, oldest contracts first;
    a blocked seller's contracts are rejected outright."""
    used: dict[tuple[str, Direction], float] = {}
    for c in sorted(contracts, key=lambda c: c.id):
        if c.status is not ContractStatus.SIGNED:
            raise PhaseError(f"contract {c.id} already {c.status.value}, cannot validate")
        if c.seller not in units:
            raise ValueError(f"contract {c.id}: unknown seller {c.seller!r}")
        if c.seller in blocked:
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
    """Turn a near-RT output claim into per-contract executions, pro rata
    on the deviation side up to its validated total."""
    for c in contracts:
        if c.status not in (ContractStatus.VALIDATED, ContractStatus.REJECTED):
            raise PhaseError(f"contract {c.id} is {c.status.value}, cannot claim")
    validated = [c for c in contracts if c.status is ContractStatus.VALIDATED]
    deviation = claimed_output - da_quantity
    per_seller: dict[Direction, dict[str, float]] = {DOWN: {}, UP: {}}
    totals = {DOWN: 0.0, UP: 0.0}
    for direction in (DOWN, UP):
        side = [c for c in validated if c.direction is direction]
        side_qty = _added(c.quantity for c in side)
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
        totals[direction] = _added(per_seller[direction].values())
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


def settle(acc: HourAccounts) -> EntryLedger:
    """Cash out one hour into a zero-sum ledger."""
    lam_d, lam_r = acc.da_price, acc.rt_price
    ledger = EntryLedger()

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

    ledger.add(acc.hour, POOL, acc.vg_id, lam_d * acc.vg_da_schedule, "da_energy")
    for uid, u in acc.units.items():
        ledger.add(acc.hour, POOL, uid, lam_d * u.da_schedule, "da_energy")

    vg_shift = 0.0
    for uid, mw in executed_down.items():
        ledger.add(acc.hour, uid, acc.vg_id, lam_d * mw, "brs_energy_shift")
        vg_shift += mw
    for uid, mw in executed_up.items():
        ledger.add(acc.hour, acc.vg_id, uid, lam_d * mw, "brs_energy_shift")
        vg_shift -= mw

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

    for uid, u in acc.units.items():
        modified = u.da_schedule - executed_down.get(uid, 0.0) + executed_up.get(uid, 0.0)
        if not u.p_min - _MW_EPS <= modified <= u.p_max + _MW_EPS:
            raise AssertionError(f"unit {uid} pushed to {modified} MW despite validation")
        if uid not in acc.unit_rt_output:
            raise ValueError(f"missing RT output for unit {uid!r}")
        value = lam_r * (acc.unit_rt_output[uid] - modified)
        if value > 0.0:
            ledger.add(acc.hour, POOL, uid, value, "rt_imbalance")
        elif value < 0.0:
            ledger.add(acc.hour, uid, POOL, -value, "rt_imbalance")

    return ledger


def per_hour_day(cfg: ScenarioConfig) -> tuple[list[BrsContract], list[LedgerEntry]]:
    """Every contract and ledger entry of the day, run hour by hour through
    the per-hour market, with the buyer's demand priced one offer at a time
    from the hour's scalar inputs."""
    pairs = cfg.zonal_rule.congested_boundaries if cfg.zonal_rule is not None else ()
    boundaries = {frozenset(pair) for pair in pairs}
    blocked = frozenset(u.id for u in cfg.units if frozenset((cfg.vg.zone, u.zone)) in boundaries)
    noise = np.random.default_rng(cfg.seed).standard_normal(cfg.horizon)
    claims = np.clip(
        np.asarray(cfg.vg.realized_mw) + cfg.vg.claim_error_std_mw * noise, 0.0, cfg.vg.capacity_mw
    ).tolist()
    contracts: list[BrsContract] = []
    entries: list[LedgerEntry] = []
    book = offer_rows(cfg)
    for h in range(cfg.horizon):
        s, pf, d = simulation.hour_context(cfg, h)
        offers = [
            Offer(oc["seller"], h, Direction(oc["direction"]), oc["price"], oc["quantity_mw"])
            for oc in book
            if oc["hour"] == h
        ]
        desired = [vg.optimal_quantity(s, pf, d, o.direction, o.price) for o in offers]
        units = {
            uc.id: DispatchableUnit(
                UnitKind(uc.kind), uc.p_min_mw, uc.p_max_mw, uc.marginal_cost, uc.da_schedule_mw[h]
            )
            for uc in cfg.units
        }
        hour = match_offers(offers, desired, DOWN, cfg.vg.id, id_start=len(contracts))
        hour += match_offers(offers, desired, UP, cfg.vg.id, id_start=len(contracts) + len(hour))
        validate_contracts(hour, units, blocked)
        claim = claim_execution(hour, s.da_quantity, claims[h])
        rt_output = {}
        for uc in cfg.units:
            u = units[uc.id]
            modified = (
                u.da_schedule
                - claim.per_seller_down.get(uc.id, 0.0)
                + claim.per_seller_up.get(uc.id, 0.0)
            )
            merit = uc.rt_mode != "modified_schedule"
            rt_output[uc.id] = rt_dispatch(u, cfg.rt_price[h]) if merit else modified
        ledger = settle(
            HourAccounts(
                hour=h, vg_id=cfg.vg.id, da_price=s.da_price, rt_price=cfg.rt_price[h],
                penalty=pf, vg_da_schedule=s.da_quantity, vg_realized=cfg.vg.realized_mw[h],
                contracts=hour, units=units, unit_rt_output=rt_output,
            )
        )
        contracts += hour
        entries += ledger.entries
    return contracts, entries


# ---------------------------------------------------------------------------
# the scenario loader, one value at a time
# ---------------------------------------------------------------------------

_BOUNDS = {"minimum": -math.inf, "exclusiveMinimum": -math.inf, "maximum": math.inf}
# The keywords each type interprets. "type", "enum", "oneOf" and the
# annotations may appear anywhere; the interpreter refuses any other keyword.
_KEYWORDS = {
    "object": {"properties", "required", "additionalProperties"},
    "array": {"items", "minItems", "maxItems"},
    "number": set(_BOUNDS), "integer": set(_BOUNDS), "string": set(), "null": set(),
}
_ANYWHERE = {"type", "enum", "oneOf", "default", "$schema", "$id", "title", "description"}
_NAMES = {"object": "an object", "array": "a list", "integer": "an integer", "null": "null"}


@dataclass(eq=False)
class Invalid(Exception):
    """A broken rule at ``path``, the keys from the document root down."""
    reason: str
    path: list = field(default_factory=list)


def compile_schema(node: dict) -> Callable[[Any], Any]:
    """The check of one subschema. It returns a normalized copy of a value
    (numbers as float, integers as int, arrays as tuples, objects with each
    absent field's default) or raises Invalid. It refuses what it cannot
    interpret, so the schema cannot outgrow it unnoticed."""
    types = [node["type"]] if isinstance(node.get("type"), str) else node.get("type", [])
    kind = next((t for t in types if t != "null"), None)
    branches = [compile_schema(branch) for branch in node.get("oneOf", ())]
    # At most one type besides null, and none beside oneOf.
    if not set(types) <= _KEYWORDS.keys() or len(set(types) - {"null"}) > 1 or branches and types:
        raise ValueError(f"unsupported schema type {types}")
    unsupported = node.keys() - _ANYWHERE.union(*(_KEYWORDS[t] for t in types))
    if unsupported:
        raise ValueError(f"unsupported schema keyword(s) {sorted(unsupported)}")
    wanted = " or ".join(_NAMES.get(t, "a " + t) for t in types)
    enum = node.get("enum")
    lo, above, hi = (node.get(key, default) for key, default in _BOUNDS.items())
    items = compile_schema(node.get("items", {})) if kind == "array" else None
    min_items, max_items = node.get("minItems", 0), node.get("maxItems", math.inf)
    props = {key: compile_schema(sub) for key, sub in node.get("properties", {}).items()}
    required, closed = set(node.get("required", ())), node.get("additionalProperties") is False
    defaults = {key: sub["default"] for key, sub in node.get("properties", {}).items()
                if "default" in sub}

    def check(x):
        if enum is not None and x not in enum:
            raise Invalid(f"expected one of {enum}, got {x!r}")
        if branches:
            passed, failed = [], []
            for branch in branches:
                try:
                    passed.append(branch(x))
                except Invalid as exc:
                    failed.append(exc)
            if len(passed) == 1:
                return passed[0]
            if passed:
                raise Invalid(f"matches {len(passed)} alternatives, expected exactly one")
            # The alternative that got furthest into the value explains best.
            raise max(failed, key=lambda exc: len(exc.path))
        if not types or x is None and "null" in types or kind == "string" and isinstance(x, str):
            return x
        if isinstance(x, (int, float)) and not isinstance(x, bool) and (
                kind == "number" or kind == "integer" and x % 1 == 0):
            big = abs(x) > sys.float_info.max  # float() of so large an int overflows
            x = int(x) if kind == "integer" else math.inf if big else float(x)
            if not -math.inf < x < math.inf:
                raise Invalid("expected a finite number")
            if x < lo:
                raise Invalid(f"must be >= {lo}, got {x}")
            if x <= above:
                raise Invalid(f"must be > {above}, got {x}")
            if x > hi:
                raise Invalid(f"must be <= {hi}, got {x}")
            return x
        if kind == "array" and isinstance(x, list):
            if not min_items <= len(x) <= max_items:
                bound = f"at least {min_items}" if len(x) < min_items else f"at most {max_items}"
                raise Invalid(f"expected {bound} entries, got {len(x)}")
            pairs = enumerate(x)
        elif kind == "object" and isinstance(x, dict):
            if closed and not x.keys() <= props.keys():
                raise Invalid(f"unknown field(s) {sorted(x.keys() - props.keys())}")
            if not required <= x.keys():
                raise Invalid(f"missing required field(s) {sorted(required - x.keys())}")
            # An absent field is checked with its default, after the fields given.
            pairs = {**x, **{k: v for k, v in defaults.items() if k not in x}}.items()
        else:
            raise Invalid(f"expected {wanted}, got {type(x).__name__}")
        out = {}
        try:
            for key, value in pairs:
                out[key] = items(value) if items else props[key](value) if key in props else value
        except Invalid as exc:
            exc.path.insert(0, key)
            raise
        return tuple(out.values()) if items else out

    return check


def check_rules(doc: dict) -> None:
    """The cross-field rules of docs/schemas.md, on a schema-checked copy."""
    horizon, vg, units = doc["horizon"], doc["vg"], doc["units"]
    hourly = [(["da_price"], doc["da_price"]), (["rt_price"], doc.get("rt_price"))]
    for key in ("forecast_mean_mw", "da_schedule_mw", "realized_mw"):
        hourly.append((["vg", key], vg.get(key)))
    hourly += [(["units", i, "da_schedule_mw"], u["da_schedule_mw"]) for i, u in enumerate(units)]
    for path, values in hourly:
        if isinstance(values, tuple) and len(values) != horizon:
            raise Invalid(f"expected {horizon} entries, got {len(values)}", path)
    cap = vg["capacity_mw"]
    for i, mw in enumerate(vg["forecast_mean_mw"]):
        if not 0.0 < mw < cap:
            path = ["vg", "forecast_mean_mw", i]
            raise Invalid(f"mean must lie strictly inside (0, {cap})", path)
    for key, what in (("da_schedule_mw", "schedule"), ("realized_mw", "realized output")):
        for i, mw in enumerate(vg.get(key, ())):
            if mw > cap:
                raise Invalid(f"{what} {mw} exceeds capacity {cap}", ["vg", key, i])
    for i, unit in enumerate(units):
        lo, hi, schedule = unit["p_min_mw"], unit["p_max_mw"], unit["da_schedule_mw"]
        if hi < lo:
            raise Invalid(f"p_max_mw {hi} below p_min_mw {lo}", ["units", i, "p_max_mw"])
        for j, mw in enumerate(schedule if isinstance(schedule, tuple) else (schedule,)):
            if not lo <= mw <= hi:
                path = ["units", i, "da_schedule_mw", j]
                raise Invalid(f"schedule {mw} outside [{lo}, {hi}]", path)
    ids = [unit["id"] for unit in units]
    if len(set(ids)) != len(ids):
        duplicates = sorted({i for i in ids if ids.count(i) > 1})
        raise Invalid(f"duplicate unit ids {duplicates}", ["units"])
    # Ledgers name parties by id, so the producer, each unit and the pool
    # need distinct ones.
    vg_id = vg["id"]
    if vg_id == POOL:
        raise Invalid(f"id {POOL!r} is reserved for the settlement pool", ["vg", "id"])
    for i, uid in enumerate(ids):
        if uid in (POOL, vg_id):
            owner = "the settlement pool" if uid == POOL else "the producer"
            raise Invalid(f"id {uid!r} is taken by {owner}", ["units", i, "id"])
    zones = {unit["id"]: unit.get("zone") for unit in units}
    for i, offer in enumerate(doc["offers"]):
        if offer["hour"] >= horizon:
            path = ["offers", i, "hour"]
            raise Invalid(f"hour {offer['hour']} outside horizon {horizon}", path)
        if offer["seller"] not in zones:
            raise Invalid(f"unknown unit id {offer['seller']!r}", ["offers", i, "seller"])
        zone, seller_zone = offer.get("zone"), zones[offer["seller"]]
        if zone is not None and zone != seller_zone:
            path = ["offers", i, "zone"]
            raise Invalid(f"zone {zone!r} differs from the seller's zone {seller_zone!r}", path)
    for i, (a, b) in enumerate((doc.get("zonal_rule") or {}).get("congested_boundaries", ())):
        if a == b:
            path = ["zonal_rule", "congested_boundaries", i]
            raise Invalid(f"boundary must join two distinct zones, got {a!r} twice", path)


@functools.cache
def _scenario_check():
    text = (resources.files("brsim") / "scenario.schema.json").read_text(encoding="utf-8")
    return compile_schema(json.loads(text))


def check_scenario(data: Any, source: str = "scenario") -> dict:
    """The checked copy of a scenario document that the loader made before
    it checked a column at a time (objects as dicts, arrays as tuples), or
    the ScenarioError it raised."""
    try:
        doc = _scenario_check()(data)
        check_rules(doc)
    except Invalid as exc:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in exc.path)
        raise ScenarioError(f"{source}{where}: {exc.reason}") from None
    return doc
