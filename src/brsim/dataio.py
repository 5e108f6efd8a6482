"""File formats: JSON scenario configs and result tables.

The field names here are a compatibility surface; see docs/schemas.md.
Scenario validation is strict: unknown fields are rejected with the full
field path, every parse error names its location.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

TABLE_FORMATS = ("csv", "json")

# Numeric CSV cells are written with this many significant digits.
_CSV_SIG_DIGITS = 6


class ScenarioError(ValueError):
    """Scenario config problem; message carries the offending field path."""


# ---------------------------------------------------------------------------
# scenario config
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PenaltyConfig:
    over: float
    under: float


@dataclass(frozen=True)
class VgParams:
    id: str
    capacity_mw: float
    forecast_mean_mw: tuple[float, ...]
    variance_coefficient: float = 0.05
    variance_scale: float = 1.0
    da_schedule_mw: tuple[float, ...] = ()
    realized_mw: tuple[float, ...] | None = None
    claim_error_std_mw: float = 0.0
    zone: str | None = None


@dataclass(frozen=True)
class UnitConfig:
    id: str
    kind: str
    p_min_mw: float
    p_max_mw: float
    marginal_cost: float
    da_schedule_mw: tuple[float, ...]
    rt_mode: str = "merit"
    zone: str | None = None


@dataclass(frozen=True)
class OfferConfig:
    seller: str
    hour: int
    direction: str
    price: float
    quantity_mw: float
    zone: str | None = None


@dataclass(frozen=True)
class BrsPriceModel:
    """Premium prices either absolute ($/MW) or as a ratio of the DA price."""

    mode: str = "ratio"
    down: float = 0.1
    up: float = 0.1

    def prices_at(self, da_price: float) -> tuple[float, float]:
        if self.mode == "ratio":
            return self.down * da_price, self.up * da_price
        return self.down, self.up


@dataclass(frozen=True)
class ZonalRuleConfig:
    congested_boundaries: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class ScenarioConfig:
    horizon: int
    vg: VgParams
    penalty: PenaltyConfig
    da_price: tuple[float, ...]
    rt_price: tuple[float, ...]
    brs_price: BrsPriceModel = BrsPriceModel()
    units: tuple[UnitConfig, ...] = ()
    offers: tuple[OfferConfig, ...] = ()
    zonal_rule: ZonalRuleConfig | None = None
    variance_scale_factors: tuple[float, ...] = (1.0,)
    seed: int = 0


class _Checker:
    """Tiny recursive validator that tracks the field path for messages."""

    def __init__(self, data: Any, path: str):
        self.data = data
        self.path = path

    def fail(self, reason: str):
        raise ScenarioError(f"{self.path}: {reason}")

    def mapping(self, required: set[str], optional: set[str]) -> dict:
        if not isinstance(self.data, dict):
            self.fail(f"expected an object, got {type(self.data).__name__}")
        unknown = set(self.data) - required - optional
        if unknown:
            self.fail(f"unknown field(s) {sorted(unknown)}")
        missing = required - set(self.data)
        if missing:
            self.fail(f"missing required field(s) {sorted(missing)}")
        return self.data

    def child(self, key: str | int) -> "_Checker":
        label = f"[{key}]" if isinstance(key, int) else f".{key}"
        return _Checker(self.data[key], f"{self.path}{label}" if self.path else str(key))


def _check_number(c: _Checker, *, positive=False, nonnegative=False) -> float:
    if isinstance(c.data, bool) or not isinstance(c.data, (int, float)):
        c.fail(f"expected a number, got {type(c.data).__name__}")
    value = float(c.data)
    if not math.isfinite(value):
        c.fail("expected a finite number")
    if positive and value <= 0:
        c.fail(f"must be > 0, got {value}")
    if nonnegative and value < 0:
        c.fail(f"must be >= 0, got {value}")
    return value


def _check_int(c: _Checker, *, positive=False, nonnegative=False) -> int:
    if isinstance(c.data, bool) or not isinstance(c.data, int):
        c.fail(f"expected an integer, got {type(c.data).__name__}")
    if positive and c.data <= 0:
        c.fail(f"must be > 0, got {c.data}")
    if nonnegative and c.data < 0:
        c.fail(f"must be >= 0, got {c.data}")
    return c.data


def _check_str(c: _Checker, allowed: tuple[str, ...] | None = None) -> str:
    if not isinstance(c.data, str):
        c.fail(f"expected a string, got {type(c.data).__name__}")
    if allowed is not None and c.data not in allowed:
        c.fail(f"expected one of {list(allowed)}, got {c.data!r}")
    return c.data


def _check_number_list(c: _Checker, length: int | None = None, **kw) -> tuple[float, ...]:
    if not isinstance(c.data, list):
        c.fail(f"expected a list, got {type(c.data).__name__}")
    if length is not None and len(c.data) != length:
        c.fail(f"expected {length} entries, got {len(c.data)}")
    return tuple(_check_number(c.child(i), **kw) for i in range(len(c.data)))


def _parse_vg(c: _Checker, horizon: int) -> VgParams:
    c.mapping(
        required={"capacity_mw", "forecast_mean_mw"},
        optional={
            "id", "variance_coefficient", "variance_scale", "da_schedule_mw",
            "realized_mw", "claim_error_std_mw", "zone",
        },
    )
    capacity = _check_number(c.child("capacity_mw"), positive=True)
    means = _check_number_list(c.child("forecast_mean_mw"), length=horizon)
    for i, m in enumerate(means):
        if not 0.0 < m < capacity:
            _Checker(m, f"{c.path}.forecast_mean_mw[{i}]").fail(
                f"mean must lie strictly inside (0, {capacity})"
            )
    schedule = (
        _check_number_list(c.child("da_schedule_mw"), length=horizon, nonnegative=True)
        if "da_schedule_mw" in c.data
        else means
    )
    for i, s in enumerate(schedule):
        if s > capacity:
            _Checker(s, f"{c.path}.da_schedule_mw[{i}]").fail(
                f"schedule {s} exceeds capacity {capacity}"
            )
    realized = (
        _check_number_list(c.child("realized_mw"), length=horizon, nonnegative=True)
        if "realized_mw" in c.data
        else None
    )
    if realized is not None:
        for i, r in enumerate(realized):
            if r > capacity:
                _Checker(r, f"{c.path}.realized_mw[{i}]").fail(
                    f"realized output {r} exceeds capacity {capacity}"
                )
    return VgParams(
        id=_check_str(c.child("id")) if "id" in c.data else "vg",
        capacity_mw=capacity,
        forecast_mean_mw=means,
        variance_coefficient=(
            _check_number(c.child("variance_coefficient"), positive=True)
            if "variance_coefficient" in c.data
            else 0.05
        ),
        variance_scale=(
            _check_number(c.child("variance_scale"), nonnegative=True)
            if "variance_scale" in c.data
            else 1.0
        ),
        da_schedule_mw=schedule,
        realized_mw=realized,
        claim_error_std_mw=(
            _check_number(c.child("claim_error_std_mw"), nonnegative=True)
            if "claim_error_std_mw" in c.data
            else 0.0
        ),
        zone=_check_str(c.child("zone")) if "zone" in c.data else None,
    )


def _parse_unit(c: _Checker, horizon: int) -> UnitConfig:
    c.mapping(
        required={"id", "kind", "p_min_mw", "p_max_mw", "marginal_cost", "da_schedule_mw"},
        optional={"rt_mode", "zone"},
    )
    sched_c = c.child("da_schedule_mw")
    if isinstance(sched_c.data, list):
        schedule = _check_number_list(sched_c, length=horizon, nonnegative=True)
    else:
        schedule = (_check_number(sched_c, nonnegative=True),) * horizon
    p_min = _check_number(c.child("p_min_mw"), nonnegative=True)
    p_max = _check_number(c.child("p_max_mw"), nonnegative=True)
    if p_max < p_min:
        c.child("p_max_mw").fail(f"p_max_mw {p_max} below p_min_mw {p_min}")
    for i, s in enumerate(schedule):
        if not p_min <= s <= p_max:
            _Checker(s, f"{c.path}.da_schedule_mw[{i}]").fail(
                f"schedule {s} outside [{p_min}, {p_max}]"
            )
    return UnitConfig(
        id=_check_str(c.child("id")),
        kind=_check_str(c.child("kind"), allowed=("base_load", "marginal")),
        p_min_mw=p_min,
        p_max_mw=p_max,
        marginal_cost=_check_number(c.child("marginal_cost")),
        da_schedule_mw=schedule,
        rt_mode=(
            _check_str(c.child("rt_mode"), allowed=("merit", "modified_schedule"))
            if "rt_mode" in c.data
            else "merit"
        ),
        zone=_check_str(c.child("zone")) if "zone" in c.data else None,
    )


def _parse_offer(c: _Checker, horizon: int, unit_ids: set[str]) -> OfferConfig:
    c.mapping(
        required={"seller", "hour", "direction", "price", "quantity_mw"},
        optional={"zone"},
    )
    hour = _check_int(c.child("hour"), nonnegative=True)
    if hour >= horizon:
        c.child("hour").fail(f"hour {hour} outside horizon {horizon}")
    seller = _check_str(c.child("seller"))
    if seller not in unit_ids:
        c.child("seller").fail(f"unknown unit id {seller!r}")
    return OfferConfig(
        seller=seller,
        hour=hour,
        direction=_check_str(c.child("direction"), allowed=("down", "up")),
        price=_check_number(c.child("price"), nonnegative=True),
        quantity_mw=_check_number(c.child("quantity_mw"), positive=True),
        zone=_check_str(c.child("zone")) if "zone" in c.data else None,
    )


def scenario_from_dict(data: Any, source: str = "scenario") -> ScenarioConfig:
    root = _Checker(data, source)
    root.mapping(
        required={"horizon", "vg", "penalty", "da_price"},
        optional={
            "rt_price", "brs_price", "units", "offers", "zonal_rule",
            "variance_scale_factors", "seed",
        },
    )
    horizon = _check_int(root.child("horizon"), positive=True)

    pc = root.child("penalty")
    pc.mapping(required={"over", "under"}, optional=set())
    over = _check_number(pc.child("over"), nonnegative=True)
    if over > 1.0:
        pc.child("over").fail(f"over-generation penalty factor must be <= 1, got {over}")
    penalty = PenaltyConfig(over=over, under=_check_number(pc.child("under"), nonnegative=True))

    da_price = _check_number_list(root.child("da_price"), length=horizon, positive=True)
    rt_price = (
        _check_number_list(root.child("rt_price"), length=horizon)
        if "rt_price" in data
        else da_price
    )

    if "brs_price" in data:
        bc = root.child("brs_price")
        bc.mapping(required={"mode", "down", "up"}, optional=set())
        brs_price = BrsPriceModel(
            mode=_check_str(bc.child("mode"), allowed=("ratio", "absolute")),
            down=_check_number(bc.child("down"), nonnegative=True),
            up=_check_number(bc.child("up"), nonnegative=True),
        )
    else:
        brs_price = BrsPriceModel()

    units: list[UnitConfig] = []
    if "units" in data:
        uc = root.child("units")
        if not isinstance(uc.data, list):
            uc.fail(f"expected a list, got {type(uc.data).__name__}")
        units = [_parse_unit(uc.child(i), horizon) for i in range(len(uc.data))]
        ids = [u.id for u in units]
        if len(set(ids)) != len(ids):
            uc.fail(f"duplicate unit ids {sorted({i for i in ids if ids.count(i) > 1})}")

    offers: list[OfferConfig] = []
    if "offers" in data:
        oc = root.child("offers")
        if not isinstance(oc.data, list):
            oc.fail(f"expected a list, got {type(oc.data).__name__}")
        unit_ids = {u.id for u in units}
        offers = [_parse_offer(oc.child(i), horizon, unit_ids) for i in range(len(oc.data))]

    zonal_rule = None
    if "zonal_rule" in data and data["zonal_rule"] is not None:
        zc = root.child("zonal_rule")
        zc.mapping(required={"congested_boundaries"}, optional=set())
        bc = zc.child("congested_boundaries")
        if not isinstance(bc.data, list):
            bc.fail(f"expected a list, got {type(bc.data).__name__}")
        pairs = []
        for i, pair in enumerate(bc.data):
            item = bc.child(i)
            if not isinstance(pair, list) or len(pair) != 2:
                item.fail("expected a [zone_a, zone_b] pair")
            a = _check_str(item.child(0))
            b = _check_str(item.child(1))
            if a == b:
                item.fail(f"boundary must join two distinct zones, got {a!r} twice")
            pairs.append((a, b))
        zonal_rule = ZonalRuleConfig(congested_boundaries=tuple(pairs))

    vg_params = _parse_vg(root.child("vg"), horizon)

    scales = (
        _check_number_list(root.child("variance_scale_factors"), nonnegative=True)
        if "variance_scale_factors" in data
        else (1.0,)
    )
    if "variance_scale_factors" in data and not scales:
        root.child("variance_scale_factors").fail("must not be empty")

    return ScenarioConfig(
        horizon=horizon,
        vg=vg_params,
        penalty=penalty,
        da_price=da_price,
        rt_price=rt_price,
        brs_price=brs_price,
        units=tuple(units),
        offers=tuple(offers),
        zonal_rule=zonal_rule,
        variance_scale_factors=scales,
        seed=_check_int(root.child("seed"), nonnegative=True) if "seed" in data else 0,
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    return scenario_from_dict(data, source=str(path))


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    vg_block: dict[str, Any] = {
        "id": cfg.vg.id,
        "capacity_mw": cfg.vg.capacity_mw,
        "forecast_mean_mw": list(cfg.vg.forecast_mean_mw),
        "variance_coefficient": cfg.vg.variance_coefficient,
        "variance_scale": cfg.vg.variance_scale,
        "da_schedule_mw": list(cfg.vg.da_schedule_mw),
        "claim_error_std_mw": cfg.vg.claim_error_std_mw,
    }
    if cfg.vg.realized_mw is not None:
        vg_block["realized_mw"] = list(cfg.vg.realized_mw)
    if cfg.vg.zone is not None:
        vg_block["zone"] = cfg.vg.zone
    out: dict[str, Any] = {
        "horizon": cfg.horizon,
        "seed": cfg.seed,
        "vg": vg_block,
        "penalty": {"over": cfg.penalty.over, "under": cfg.penalty.under},
        "da_price": list(cfg.da_price),
        "rt_price": list(cfg.rt_price),
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
                    "da_schedule_mw": list(u.da_schedule_mw),
                    "rt_mode": u.rt_mode,
                    "zone": u.zone,
                }.items()
                if v is not None
            }
            for u in cfg.units
        ],
        "offers": [
            {
                k: v
                for k, v in {
                    "seller": o.seller,
                    "hour": o.hour,
                    "direction": o.direction,
                    "price": o.price,
                    "quantity_mw": o.quantity_mw,
                    "zone": o.zone,
                }.items()
                if v is not None
            }
            for o in cfg.offers
        ],
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


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------

def _format_number(value: Any) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.{_CSV_SIG_DIGITS}g}"
    return str(value)


def format_table(rows: list[dict], fmt: str, columns: list[str] | None = None) -> str:
    """Render homogeneous row dicts as CSV or JSON text.

    CSV numbers carry 6 significant digits; JSON keeps full precision.
    ``columns`` is only required when rows is empty (CSV still gets a header).
    """
    if fmt not in TABLE_FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {TABLE_FORMATS}")
    if not rows and columns is None:
        raise ValueError("empty table needs an explicit column list")
    cols = columns if columns is not None else list(rows[0].keys())
    for i, row in enumerate(rows):
        if set(row.keys()) != set(cols):
            raise ValueError(f"row {i} columns {sorted(row)} differ from {sorted(cols)}")
    if fmt == "csv":
        lines = [",".join(cols)]
        lines.extend(
            ",".join(_format_number(row[c]) for c in cols) for row in rows
        )
        return "\n".join(lines) + "\n"
    ordered = [{c: row[c] for c in cols} for row in rows]
    return json.dumps(ordered, indent=2) + "\n"


def write_table(
    rows: list[dict], path: str | Path, fmt: str, columns: list[str] | None = None
) -> None:
    """format_table to a file with LF endings."""
    text = format_table(rows, fmt, columns)
    with open(Path(path), "w", newline="\n", encoding="utf-8") as fh:
        fh.write(text)


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
