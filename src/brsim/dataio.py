"""File formats: JSON scenario configs and result tables.

The field names here are a compatibility surface; see docs/schemas.md. A
scenario is checked against the packaged ``scenario.schema.json``, then
against the cross-field rules, and every error names its field path.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

TABLE_FORMATS = ("csv", "json")

# Numeric CSV cells are written with this many significant digits.
_CSV_SIG_DIGITS = 6
# JSON tables are encoded this many rows at a time, which bounds the rows
# and the text held while a table is written.
_JSON_BATCH_ROWS = 2048


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
    capacity_mw: float
    forecast_mean_mw: tuple[float, ...]
    id: str = "vg"
    variance_coefficient: float = 0.05
    variance_scale: float = 1.0
    da_schedule_mw: tuple[float, ...] = ()  # the loader's default: the means
    realized_mw: tuple[float, ...] | None = None
    claim_error_std_mw: float = 0.0
    zone: str | None = None


@dataclass(frozen=True, slots=True)
class UnitConfig:
    id: str
    kind: str
    p_min_mw: float
    p_max_mw: float
    marginal_cost: float
    da_schedule_mw: tuple[float, ...]
    rt_mode: str = "merit"
    zone: str | None = None


@dataclass(frozen=True, slots=True)
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


# ---------------------------------------------------------------------------
# loading: the packaged JSON Schema, the cross-field rules, the dataclasses
# ---------------------------------------------------------------------------

_BOUNDS = {"minimum": -math.inf, "exclusiveMinimum": -math.inf, "maximum": math.inf}
# The keywords each type interprets. "type", "enum", "oneOf" and the
# annotations may appear anywhere; the interpreter refuses any other keyword.
_KEYWORDS = {
    "object": {"properties", "required", "additionalProperties"},
    "array": {"items", "minItems", "maxItems"},
    "number": set(_BOUNDS), "integer": set(_BOUNDS), "string": set(), "null": set(),
}
_ANYWHERE = {"type", "enum", "oneOf", "$schema", "$id", "title", "description"}
_NAMES = {"object": "an object", "array": "a list", "integer": "an integer", "null": "null"}


@dataclass(eq=False)
class _Invalid(Exception):
    """A broken rule at ``path``, the keys from the document root down."""
    reason: str
    path: list = field(default_factory=list)


def _compile(node: dict) -> Callable[[Any], Any]:
    """The check of one subschema. It returns a normalized copy of a value
    (numbers as float, integers as int, arrays as tuples) or raises
    _Invalid. It refuses what it cannot interpret, so the schema cannot
    outgrow it unnoticed."""
    types = [node["type"]] if isinstance(node.get("type"), str) else node.get("type", [])
    kind = next((t for t in types if t != "null"), None)
    branches = [_compile(branch) for branch in node.get("oneOf", ())]
    # At most one type besides null, and none beside oneOf.
    if not set(types) <= _KEYWORDS.keys() or len(set(types) - {"null"}) > 1 or branches and types:
        raise ValueError(f"unsupported schema type {types}")
    unsupported = node.keys() - _ANYWHERE.union(*(_KEYWORDS[t] for t in types))
    if unsupported:
        raise ValueError(f"unsupported schema keyword(s) {sorted(unsupported)}")
    wanted = " or ".join(_NAMES.get(t, "a " + t) for t in types)
    enum = node.get("enum")
    lo, above, hi = (node.get(key, default) for key, default in _BOUNDS.items())
    items = _compile(node.get("items", {})) if kind == "array" else None
    min_items, max_items = node.get("minItems", 0), node.get("maxItems", math.inf)
    props = {key: _compile(sub) for key, sub in node.get("properties", {}).items()}
    required, closed = set(node.get("required", ())), node.get("additionalProperties") is False

    def check(x):
        if enum is not None and x not in enum:
            raise _Invalid(f"expected one of {enum}, got {x!r}")
        if branches:
            passed, failed = [], []
            for branch in branches:
                try:
                    passed.append(branch(x))
                except _Invalid as exc:
                    failed.append(exc)
            if len(passed) == 1:
                return passed[0]
            if passed:
                raise _Invalid(f"matches {len(passed)} alternatives, expected exactly one")
            # The alternative that got furthest into the value explains best.
            raise max(failed, key=lambda exc: len(exc.path))
        if not types or x is None and "null" in types or kind == "string" and isinstance(x, str):
            return x
        if isinstance(x, (int, float)) and not isinstance(x, bool) and (
                kind == "number" or kind == "integer" and x % 1 == 0):
            big = abs(x) > sys.float_info.max  # float() of so large an int overflows
            x = int(x) if kind == "integer" else math.inf if big else float(x)
            if not -math.inf < x < math.inf:
                raise _Invalid("expected a finite number")
            if x < lo:
                raise _Invalid(f"must be >= {lo}, got {x}")
            if x <= above:
                raise _Invalid(f"must be > {above}, got {x}")
            if x > hi:
                raise _Invalid(f"must be <= {hi}, got {x}")
            return x
        if kind == "array" and isinstance(x, list):
            if not min_items <= len(x) <= max_items:
                bound = f"at least {min_items}" if len(x) < min_items else f"at most {max_items}"
                raise _Invalid(f"expected {bound} entries, got {len(x)}")
            pairs = enumerate(x)
        elif kind == "object" and isinstance(x, dict):
            if closed and not x.keys() <= props.keys():
                raise _Invalid(f"unknown field(s) {sorted(x.keys() - props.keys())}")
            if not required <= x.keys():
                raise _Invalid(f"missing required field(s) {sorted(required - x.keys())}")
            pairs = x.items()
        else:
            raise _Invalid(f"expected {wanted}, got {type(x).__name__}")
        out = {}
        try:
            for key, value in pairs:
                out[key] = items(value) if items else props[key](value) if key in props else value
        except _Invalid as exc:
            exc.path.insert(0, key)
            raise
        return tuple(out.values()) if items else out

    return check


@cache
def _scenario_schema() -> Callable[[Any], Any]:
    text = (resources.files(__package__) / "scenario.schema.json").read_text(encoding="utf-8")
    return _compile(json.loads(text))


def _check_rules(doc: dict) -> None:
    """The cross-field rules of docs/schemas.md, on a schema-checked copy."""
    horizon, vg, units = doc["horizon"], doc["vg"], doc.get("units", ())
    hourly = [(["da_price"], doc["da_price"]), (["rt_price"], doc.get("rt_price"))]
    for key in ("forecast_mean_mw", "da_schedule_mw", "realized_mw"):
        hourly.append((["vg", key], vg.get(key)))
    hourly += [(["units", i, "da_schedule_mw"], u["da_schedule_mw"]) for i, u in enumerate(units)]
    for path, values in hourly:
        if isinstance(values, tuple) and len(values) != horizon:
            raise _Invalid(f"expected {horizon} entries, got {len(values)}", path)
    cap = vg["capacity_mw"]
    for i, mw in enumerate(vg["forecast_mean_mw"]):
        if not 0.0 < mw < cap:
            path = ["vg", "forecast_mean_mw", i]
            raise _Invalid(f"mean must lie strictly inside (0, {cap})", path)
    for key, what in (("da_schedule_mw", "schedule"), ("realized_mw", "realized output")):
        for i, mw in enumerate(vg.get(key, ())):
            if mw > cap:
                raise _Invalid(f"{what} {mw} exceeds capacity {cap}", ["vg", key, i])
    for i, unit in enumerate(units):
        lo, hi, schedule = unit["p_min_mw"], unit["p_max_mw"], unit["da_schedule_mw"]
        if hi < lo:
            raise _Invalid(f"p_max_mw {hi} below p_min_mw {lo}", ["units", i, "p_max_mw"])
        for j, mw in enumerate(schedule if isinstance(schedule, tuple) else (schedule,)):
            if not lo <= mw <= hi:
                path = ["units", i, "da_schedule_mw", j]
                raise _Invalid(f"schedule {mw} outside [{lo}, {hi}]", path)
    ids = [unit["id"] for unit in units]
    if len(set(ids)) != len(ids):
        duplicates = sorted({i for i in ids if ids.count(i) > 1})
        raise _Invalid(f"duplicate unit ids {duplicates}", ["units"])
    for i, offer in enumerate(doc.get("offers", ())):
        if offer["hour"] >= horizon:
            path = ["offers", i, "hour"]
            raise _Invalid(f"hour {offer['hour']} outside horizon {horizon}", path)
        if offer["seller"] not in ids:
            raise _Invalid(f"unknown unit id {offer['seller']!r}", ["offers", i, "seller"])
    for i, (a, b) in enumerate((doc.get("zonal_rule") or {}).get("congested_boundaries", ())):
        if a == b:
            path = ["zonal_rule", "congested_boundaries", i]
            raise _Invalid(f"boundary must join two distinct zones, got {a!r} twice", path)


def scenario_from_dict(data: Any, source: str = "scenario") -> ScenarioConfig:
    """The config of a parsed scenario document, or a ScenarioError naming
    the field path below ``source``."""
    try:
        doc = _scenario_schema()(data)
        _check_rules(doc)
    except _Invalid as exc:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in exc.path)
        raise ScenarioError(f"{source}{where}: {exc.reason}") from None
    # The checked copy becomes the config; only derived defaults are filled in.
    doc["vg"].setdefault("da_schedule_mw", doc["vg"]["forecast_mean_mw"])
    doc.setdefault("rt_price", doc["da_price"])
    for unit in doc.get("units", ()):
        if not isinstance(unit["da_schedule_mw"], tuple):
            unit["da_schedule_mw"] = (unit["da_schedule_mw"],) * doc["horizon"]
    for key, cls in (("vg", VgParams), ("penalty", PenaltyConfig),
                     ("brs_price", BrsPriceModel), ("zonal_rule", ZonalRuleConfig)):
        if doc.get(key) is not None:
            doc[key] = cls(**doc[key])
    for key, cls in (("units", UnitConfig), ("offers", OfferConfig)):
        if key in doc:
            doc[key] = tuple(cls(**entry) for entry in doc[key])
    return ScenarioConfig(**doc)


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise ScenarioError(f"{path}: invalid JSON: nested too deeply") from None
    return scenario_from_dict(data, source=str(path))


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------

def _format_float(value: float) -> str:
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.{_CSV_SIG_DIGITS}g}"


def _format_other(value: Any) -> str:
    # A float subclass, such as numpy's float64, keeps the float rule.
    return _format_float(value) if isinstance(value, float) else str(value)


# The CSV text of a cell by its exact type, so that a bool never takes the
# int path.
_CELL_TEXT: dict[type, Callable[[Any], str]] = {
    str: str,
    int: str,
    float: _format_float,
    bool: lambda value: "true" if value else "false",
}


def _format_cell(value: Any) -> str:
    return _CELL_TEXT.get(type(value), _format_other)(value)


def _in_order(i: int, row: dict, cols: list[str]) -> dict:
    if set(row) != set(cols):
        raise ValueError(f"row {i} columns {sorted(row)} differ from {sorted(cols)}")
    return {c: row[c] for c in cols}


def _table_chunks(
    rows: Iterable[dict], fmt: str, columns: Sequence[str] | None
) -> Iterator[str]:
    """The text of a table in pieces: CSV line by line, JSON
    ``_JSON_BATCH_ROWS`` rows at a time. Rows are read as the pieces are
    asked for, so no more than one batch of them is held."""
    if fmt not in TABLE_FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {TABLE_FORMATS}")
    rows = iter(rows)
    if columns is None:
        first = next(rows, None)
        if first is None:
            raise ValueError("empty table needs an explicit column list")
        cols = list(first)
        rows = itertools.chain((first,), rows)
    else:
        cols = list(columns)
    # Rows whose keys already come in column order are used as they are.
    rows = (row if list(row) == cols else _in_order(i, row, cols) for i, row in enumerate(rows))
    if fmt == "csv":
        yield ",".join(cols) + "\n"
        for row in rows:
            yield ",".join(map(_format_cell, row.values())) + "\n"
        return
    # Each batch is a JSON list without its brackets; joined by the
    # separator json.dumps puts between items, the batches read as
    # json.dumps of all the rows.
    yield "["
    separator = ""
    while batch := list(itertools.islice(rows, _JSON_BATCH_ROWS)):
        yield separator + json.dumps(batch, allow_nan=False)[1:-1]
        separator = ", "
    yield "]\n"


def format_table(
    rows: Iterable[dict], fmt: str, columns: Sequence[str] | None = None
) -> str:
    """Render homogeneous row dicts as CSV or JSON text.

    CSV numbers carry 6 significant digits; JSON keeps full precision.
    ``columns`` is only required when rows is empty (CSV still gets a header).
    A non-finite number is written as ``inf``, ``-inf`` or ``nan`` in CSV and
    raises ``ValueError`` in JSON, which has no such values.
    """
    return "".join(_table_chunks(rows, fmt, columns))


def write_table(
    rows: Iterable[dict], path: str | Path, fmt: str, columns: Sequence[str] | None = None
) -> None:
    """format_table to a file with LF endings, written as the rows arrive.

    A regular file, or a path where nothing exists yet, is written to a
    temporary file beside it that replaces it once complete, so a failed
    write leaves the target as it was. Other targets, such as a symlink, a
    pipe or ``/dev/stdout``, are written in place.
    """
    chunks = _table_chunks(rows, fmt, columns)
    path = Path(path)
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    # Mode "x" creates the file with the permissions a new target gets.
    fh = open(temp, "x", newline="\n", encoding="utf-8")
    try:
        with fh:
            if mode is not None:
                os.chmod(temp, stat.S_IMODE(mode))
            fh.writelines(chunks)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise
