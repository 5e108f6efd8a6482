"""File formats: JSON scenario configs and result tables.

The field names here are a compatibility surface; see docs/schemas.md. A
scenario is checked against the packaged ``scenario.schema.json``, each
list a column at a time, then against the cross-field rules; an error
names the path of the first bad value in document order. A loaded config
holds each hourly series, and the offer book as ``market.Book``'s columns,
in read-only arrays.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
import stat
import sys
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from ._arrays import fail_where

TABLE_FORMATS = ("csv", "json")
# The settlement pool's party name in ledgers; no unit or producer may take it.
POOL = "pool"

# Numeric CSV cells are written with this many significant digits.
_CSV_SIG_DIGITS = 6
_SIG_DIGITS_FORMAT = f"{{:.{_CSV_SIG_DIGITS}g}}".format
# Tables are formatted this many rows at a time, which bounds the rows and
# the text held while a table is written: a batch's cell and row strings
# take several times its text.
_BATCH_ROWS = 256


class ScenarioError(ValueError):
    """Scenario config problem; message carries the offending field path."""


# ---------------------------------------------------------------------------
# scenario config
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PenaltyConfig:
    over: float
    under: float


@dataclass(frozen=True, eq=False)
class VgParams:
    capacity_mw: float
    forecast_mean_mw: np.ndarray
    id: str
    variance_coefficient: float
    variance_scale: float
    da_schedule_mw: np.ndarray
    claim_error_std_mw: float
    realized_mw: np.ndarray | None = None
    zone: str | None = None


@dataclass(frozen=True, eq=False, slots=True)
class UnitConfig:
    id: str
    kind: str
    p_min_mw: float
    p_max_mw: float
    marginal_cost: float
    da_schedule_mw: np.ndarray
    rt_mode: str
    zone: str | None = None


@dataclass(frozen=True)
class BrsPriceModel:
    """Premium prices either absolute ($/MW) or as a ratio of the DA price."""

    mode: str
    down: float
    up: float

    def prices_at(self, da_price: float) -> tuple[float, float]:
        if self.mode == "ratio":
            return self.down * da_price, self.up * da_price
        return self.down, self.up


@dataclass(frozen=True)
class ZonalRuleConfig:
    congested_boundaries: tuple[tuple[str, str], ...]


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """A checked scenario. Each hourly series is a read-only float64 array
    over the horizon. The offer book is ``market.Book``'s columns, each a
    read-only array in posting order: ``hour`` int64, ``up`` bool (an
    upward offer), ``seller`` int64 (the seller's index in ``units``), and
    ``price`` and ``quantity`` float64 (the offer's ``quantity_mw``)."""

    horizon: int
    vg: VgParams
    penalty: PenaltyConfig
    da_price: np.ndarray
    rt_price: np.ndarray
    offers: Mapping[str, np.ndarray]
    brs_price: BrsPriceModel
    units: tuple[UnitConfig, ...]
    variance_scale_factors: tuple[float, ...]
    seed: int
    zonal_rule: ZonalRuleConfig | None = None


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
_ANYWHERE = {"type", "enum", "oneOf", "default", "$schema", "$id", "title", "description"}
_NAMES = {"object": "an object", "array": "a list", "integer": "an integer", "null": "null"}
_TYPES = {"object": dict, "array": list, "number": (int, float), "integer": (int, float),
          "string": str, "null": type(None)}
_ABSENT = object()  # an object's field that is not there


@dataclass(eq=False)
class _Invalid(Exception):
    """A broken rule at ``path``, the keys from the checked value down."""
    reason: str
    path: list = field(default_factory=list)


def _skipping(check: Callable[[list], list], xs: list, skip) -> list:
    """``check`` of the values of ``xs`` that are not ``skip``, each in its
    place; a skipped place reads None."""
    if skip not in xs:
        return check(xs)
    values = iter(check([x for x in xs if x is not skip]))
    return [None if x is skip else next(values) for x in xs]


def _rows(table: Mapping[str, Sequence], n: int = 0) -> list[dict]:
    """The rows of a table as dicts, without the fields that read None; a
    table without columns has ``n`` rows."""
    rows = zip(*table.values()) if table else [()] * n
    return [{k: v for k, v in zip(table, row) if v is not None} for row in rows]


def _compile(node: dict) -> Callable[..., list | dict]:
    """The check of one subschema over a list of values, a lone value being
    a list of one. It returns normalized copies (numbers as float, integers
    as int, arrays as tuples, objects as dicts with each absent field's
    default and without the fields that read None, or with ``columns=True``
    as one table with None where a field is absent), or raises _Invalid at
    the first bad value in document order. Each rule runs over the whole
    list; only a list that fails is checked again in halves. It refuses what
    it cannot interpret, so the schema cannot outgrow it unnoticed."""
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
    accepted = tuple(_TYPES[t] for t in types)
    enum = node.get("enum")
    lo, above, hi = (node.get(key, default) for key, default in _BOUNDS.items())
    items = _compile(node.get("items", {})) if kind == "array" else None
    min_items, max_items = node.get("minItems", 0), node.get("maxItems", math.inf)
    props = {key: _compile(sub) for key, sub in node.get("properties", {}).items()}
    required, closed = set(node.get("required", ())), node.get("additionalProperties") is False
    # An absent field reads its default, which is checked as a written value is.
    fills = {key: sub.get("default", _ABSENT) for key, sub in node.get("properties", {}).items()}

    # On a list of one, each rule names the value's first broken rule.
    def numbers(xs: list) -> list:
        kinds = set(map(type, xs))
        if kind == "integer":
            if not kinds <= {int} and not all(x % 1 == 0 for x in xs):
                raise _Invalid(f"expected {wanted}, got {type(xs[0]).__name__}")
            out = xs if kinds <= {int} else list(map(int, xs))
        else:
            # float() of an int beyond the largest float overflows or rounds down.
            big = sys.float_info.max
            out = xs if kinds <= {float} else [math.inf if abs(x) > big else float(x) for x in xs]
            if not all(map(math.isfinite, out)):
                raise _Invalid("expected a finite number")
        low, high = min(out, default=math.inf), max(out, default=-math.inf)
        for broken, bound, x in ((low < lo, f">= {lo}", low), (low <= above, f"> {above}", low),
                                 (high > hi, f"<= {hi}", high)):
            if broken:
                raise _Invalid(f"must be {bound}, got {x}")
        return out

    def arrays(xs: list) -> list:
        sizes = list(map(len, xs))
        if min(sizes, default=min_items) < min_items or max(sizes, default=0) > max_items:
            bound = f"at least {min_items}" if sizes[0] < min_items else f"at most {max_items}"
            raise _Invalid(f"expected {bound} entries, got {sizes[0]}")
        # The items of all the arrays are checked as one list.
        values = items(list(itertools.chain.from_iterable(xs)), columns=True)
        spans = list(itertools.pairwise(itertools.accumulate(sizes, initial=0)))
        if isinstance(values, dict):
            return [{k: tuple(col[a:b]) for k, col in values.items()} for a, b in spans]
        return [tuple(values[a:b]) for a, b in spans]

    def table(xs: list) -> dict[str, list]:
        keys = set().union(*xs)
        if closed and not keys <= props.keys():
            raise _Invalid(f"unknown field(s) {sorted(keys - props.keys())}")
        try:
            cols = {k: list(map(operator.itemgetter(k), xs)) if k in required
                    else list(map(dict.get, xs, itertools.repeat(k),
                                  itertools.repeat(fills.get(k, _ABSENT))))
                    for k in [*props, *sorted(keys - props.keys())]}
        except KeyError:
            raise _Invalid(f"missing required field(s) {sorted(required - xs[0].keys())}") from None
        # Each field is checked as one list, a lone object's in its key order.
        for k in {**(xs[0] if xs else {}), **cols}:
            field_check = props.get(k, lambda xs: xs)
            try:
                cols[k] = (field_check(cols[k]) if k in required
                           else _skipping(field_check, cols[k], _ABSENT))
            except _Invalid as exc:
                exc.path[0] = k
                raise
        return cols

    def one_of(x):
        passed, failed = [], []
        for branch in branches:
            try:
                passed += branch([x])
            except _Invalid as exc:
                del exc.path[0]
                # A kept traceback would make a cycle through this frame and
                # its callers' frames, which hold the whole parsed document.
                failed.append(exc.with_traceback(None))
        if len(passed) == 1:
            return passed[0]
        if passed:
            raise _Invalid(f"matches {len(passed)} alternatives, expected exactly one")
        # The alternative that got furthest into the value explains best.
        raise max(failed, key=lambda exc: len(exc.path))

    by_kind = {"number": numbers, "integer": numbers, "array": arrays,
               "object": lambda xs: _rows(table(xs), len(xs))}.get(kind, lambda xs: xs)

    def checked(xs: list, columns: bool) -> list | dict:
        if enum is not None:
            try:
                distinct = set(xs)  # each value tested once
            except TypeError:  # a list or an object cannot be hashed
                distinct = xs
            if not all(map(enum.__contains__, distinct)):
                raise _Invalid(f"expected one of {enum}, got {xs[0]!r}")
        if branches:
            return list(map(one_of, xs))
        if types and not all(t is not bool and issubclass(t, accepted) for t in set(map(type, xs))):
            raise _Invalid(f"expected {wanted}, got {type(xs[0]).__name__}")
        if "null" in types:
            return _skipping(by_kind, xs, None)
        return table(xs) if columns and kind == "object" else by_kind(xs)

    def check(xs: list, columns: bool = False) -> list | dict:
        try:
            return checked(xs, columns)
        except _Invalid as exc:
            if len(xs) == 1:
                exc.path.insert(0, 0)
                raise
        # The first bad value lies in the first half that fails.
        half = len(xs) // 2
        check(xs[:half], columns)
        try:
            check(xs[half:], columns)
        except _Invalid as exc:
            exc.path[0] += half
            raise

    return check


@cache
def _scenario_schema() -> Callable[[list], list]:
    text = (resources.files(__package__) / "scenario.schema.json").read_text(encoding="utf-8")
    return _compile(json.loads(text))


def _array(values, dtype=np.float64) -> np.ndarray:
    """A read-only array of ``values``."""
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _hourly(doc: dict) -> Iterator[tuple[list, dict, str]]:
    """The path of each hourly series, the object that holds it and its key."""
    yield ["da_price"], doc, "da_price"
    yield ["rt_price"], doc, "rt_price"
    for key in ("forecast_mean_mw", "da_schedule_mw", "realized_mw"):
        yield ["vg", key], doc["vg"], key
    for i, unit in enumerate(doc["units"]):
        yield ["units", i, "da_schedule_mw"], unit, "da_schedule_mw"


def _refuse_first(bad: np.ndarray, reason: Callable[[int], str], path: list) -> None:
    """_Invalid at the first true element of ``bad``, with ``reason`` of its
    index, which ends the path."""
    if bad.any():
        i = int(np.argmax(bad))
        raise _Invalid(reason(i), [*path, i])


def _check_rules(doc: dict) -> None:
    """The cross-field rules of docs/schemas.md, on a schema-checked copy
    whose hourly series are arrays, 0-d for a unit's one-number schedule.
    The offers become columns (``_offer_columns``)."""
    horizon, vg, units = doc["horizon"], doc["vg"], doc["units"]
    for path, block, key in _hourly(doc):
        values = block.get(key)
        if values is not None and values.ndim and len(values) != horizon:
            raise _Invalid(f"expected {horizon} entries, got {len(values)}", path)
    cap, mean = vg["capacity_mw"], vg["forecast_mean_mw"]
    _refuse_first(~((0.0 < mean) & (mean < cap)),
                  lambda i: f"mean must lie strictly inside (0, {cap})", ["vg", "forecast_mean_mw"])
    for key, what in (("da_schedule_mw", "schedule"), ("realized_mw", "realized output")):
        if (mw := vg.get(key)) is not None:
            _refuse_first(mw > cap, lambda i: f"{what} {mw[i].item()} exceeds capacity {cap}",
                          ["vg", key])
    for i, unit in enumerate(units):
        lo, hi, schedule = unit["p_min_mw"], unit["p_max_mw"], unit["da_schedule_mw"]
        if hi < lo:
            raise _Invalid(f"p_max_mw {hi} below p_min_mw {lo}", ["units", i, "p_max_mw"])
        schedule = np.atleast_1d(schedule)
        _refuse_first(~((lo <= schedule) & (schedule <= hi)),
                      lambda j: f"schedule {schedule[j].item()} outside [{lo}, {hi}]",
                      ["units", i, "da_schedule_mw"])
    ids = [unit["id"] for unit in units]
    if len(set(ids)) != len(ids):
        duplicates = sorted({i for i in ids if ids.count(i) > 1})
        raise _Invalid(f"duplicate unit ids {duplicates}", ["units"])
    # Ledgers name parties by id, so the producer, each unit and the pool
    # need distinct ones.
    vg_id = vg["id"]
    if vg_id == POOL:
        raise _Invalid(f"id {POOL!r} is reserved for the settlement pool", ["vg", "id"])
    for i, uid in enumerate(ids):
        if uid in (POOL, vg_id):
            owner = "the settlement pool" if uid == POOL else "the producer"
            raise _Invalid(f"id {uid!r} is taken by {owner}", ["units", i, "id"])
    doc["offers"] = _offer_columns(doc["offers"], units, horizon)
    for i, (a, b) in enumerate((doc.get("zonal_rule") or {}).get("congested_boundaries", ())):
        if a == b:
            path = ["zonal_rule", "congested_boundaries", i]
            raise _Invalid(f"boundary must join two distinct zones, got {a!r} twice", path)


def _offer_columns(offers: dict, units: list[dict], horizon: int) -> dict[str, np.ndarray]:
    """The schema-checked offer book in ``market.Book``'s read-only columns,
    once each offer passes its rules in turn: its hour, its seller, then its
    zone. The zone is not kept."""
    try:
        hour = _array(offers["hour"], np.int64)
    except OverflowError:  # an hour past int64, which the horizon rule refuses
        hour = _array(offers["hour"], object)
    index = {unit["id"]: j for j, unit in enumerate(units)}
    # Each seller's index in units, and -1 for an unknown one.
    seller = np.fromiter(map(index.get, offers["seller"], itertools.repeat(-1)), np.int64,
                         len(hour))
    # Each seller's zone, and None for an unknown one.
    zones = np.array([unit.get("zone") for unit in units] + [None], dtype=object)[seller]
    zone = np.array(offers["zone"], dtype=object)
    hour_bad, seller_bad = hour >= horizon, seller < 0
    zone_bad = np.not_equal(zone, None) & ~seller_bad & (zone != zones)
    bad = hour_bad | seller_bad | zone_bad
    if bad.any():
        i = int(np.argmax(bad))
        if hour_bad[i]:
            raise _Invalid(f"hour {hour[i]} outside horizon {horizon}", ["offers", i, "hour"])
        if seller_bad[i]:
            raise _Invalid(f"unknown unit id {offers['seller'][i]!r}", ["offers", i, "seller"])
        path = ["offers", i, "zone"]
        raise _Invalid(f"zone {zone[i]!r} differs from the seller's zone {zones[i]!r}", path)
    seller.flags.writeable = False
    up = np.fromiter(map("up".__eq__, offers["direction"]), bool, len(hour))
    up.flags.writeable = False
    return {"hour": hour, "up": up, "seller": seller, "price": _array(offers["price"]),
            "quantity": _array(offers["quantity_mw"])}


def scenario_from_dict(data: Any, source: str = "scenario") -> ScenarioConfig:
    """The config of a parsed scenario document, or a ScenarioError naming
    the field path below ``source``. The config keeps no value of ``data``
    that varies by hour or by offer."""
    try:
        [doc] = _scenario_schema()([data])
        doc["units"] = _rows(doc["units"])
        for _, block, key in _hourly(doc):
            if key in block:
                block[key] = _array(block[key])
        _check_rules(doc)
    except _Invalid as exc:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in exc.path)
        # A schema path starts at the document's index in its list of one.
        raise ScenarioError(f"{source}{where.removeprefix('[0]')}: {exc.reason}") from None
    # The checked copy becomes the config; only derived defaults are filled in.
    doc["vg"].setdefault("da_schedule_mw", doc["vg"]["forecast_mean_mw"])
    doc.setdefault("rt_price", doc["da_price"])
    for unit in doc["units"]:
        unit["da_schedule_mw"] = np.broadcast_to(unit["da_schedule_mw"], doc["horizon"])
    for key, cls in (("vg", VgParams), ("penalty", PenaltyConfig),
                     ("brs_price", BrsPriceModel), ("zonal_rule", ZonalRuleConfig)):
        if doc.get(key) is not None:
            doc[key] = cls(**doc[key])
    doc["units"] = tuple(UnitConfig(**unit) for unit in doc["units"])
    return ScenarioConfig(**doc)


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: invalid UTF-8 at byte {exc.start}: {exc.reason}") from None
    except RecursionError:
        raise ScenarioError(f"{path}: invalid JSON: nested too deeply") from None
    return scenario_from_dict(data, source=str(path))


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------

def _format_float(value: float) -> str:
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return _SIG_DIGITS_FORMAT(value)


_BOOL_TEXT = np.array(["false", "true"], dtype=object)


@dataclass(frozen=True, eq=False)
class Coded:
    """A table column of ``str`` labels held as codes, a 1-d integer array:
    row i reads ``labels[codes[i]]``. The writer encodes each label once per
    table: as is in CSV, by ``json.dumps`` in JSON."""

    labels: tuple
    codes: np.ndarray

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes)
        if codes.ndim != 1 or codes.dtype.kind not in "iu":
            raise TypeError(f"codes must be a 1-d integer array, got {codes.dtype} "
                            f"of shape {codes.shape}")
        labels = tuple(self.labels)
        for label in labels:
            if type(label) is not str:
                raise TypeError(f"labels must be str, got {type(label).__name__} {label!r}")
        fail_where((codes < 0) | (codes >= len(labels)), "code {} outside {} labels", codes,
                   len(labels))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "codes", codes)

    def __len__(self) -> int:
        return len(self.codes)


def _by_code(texts: np.ndarray, codes: np.ndarray) -> Callable[[int, int], tuple[str, list]]:
    return lambda lo, hi: ("%s", texts[codes[lo:hi]].tolist())


def _csv_floats(col: np.ndarray, lo: int, hi: int) -> tuple[str, list]:
    # The conversion writes an integral value as _format_float does, except
    # in exponent form (from 1e6 on) and -0.0 as "-0"; only a batch that
    # holds a value of at least 1e6 or a -0.0 takes the rule value by value.
    part = col[lo:hi]
    if ((np.abs(part) >= 1e6) | ((part == 0.0) & np.signbit(part))).any():
        return "%s", list(map(_format_float, part.tolist()))
    return f"%.{_CSV_SIG_DIGITS}g", part.tolist()


def _json_floats(col: np.ndarray, lo: int, hi: int) -> tuple[str, list]:
    part = col[lo:hi]
    if not np.isfinite(part).all():
        raise ValueError("Out of range float values are not JSON compliant")
    return "%r", part.tolist()


def _column_cells(name: str, col, fmt: str) -> Callable[[int, int], tuple[str, list]]:
    """The template conversion of a column's rows ``lo`` to ``hi``, and the
    values it takes: a 1-d numpy column's chosen by its dtype, and a coded
    column's label text by code."""
    if isinstance(col, Coded):
        texts = col.labels if fmt == "csv" else map(json.dumps, col.labels)
        return _by_code(np.array(list(texts), dtype=object), col.codes)
    kind = col.dtype.kind if isinstance(col, np.ndarray) and col.ndim == 1 else None
    if kind == "b":
        return _by_code(_BOOL_TEXT, col.view(np.uint8))
    if kind in ("i", "u"):
        return lambda lo, hi: ("%d", col[lo:hi].tolist())
    if kind == "f":
        return functools.partial(_csv_floats if fmt == "csv" else _json_floats, col)
    raise TypeError(f"column {name!r} must be a 1-d bool, integer or float array or Coded, "
                    f"got {type(col).__name__}")


def table_text(table: Mapping[str, np.ndarray | Coded], fmt: str) -> Iterator[str]:
    """The text of a table, a mapping of column names to equally long
    columns in column order, as CSV or JSON, ``_BATCH_ROWS`` rows at a time.

    A column is a 1-d bool, integer or float array, or ``Coded``; any other
    raises ``TypeError``. CSV numbers carry 6 significant digits; JSON
    keeps full precision. Zero-length columns give a CSV header and an
    empty JSON list. A non-finite number is written as ``inf``, ``-inf`` or
    ``nan`` in CSV and raises ``ValueError`` in JSON, which has no such
    values. Each batch is one %-template, its row's conversions once per
    row, applied to the batch's values, laid out row by row a column at a
    time.
    """
    if fmt not in TABLE_FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {TABLE_FORMATS}")
    cols, data = list(table), list(table.values())
    columns = [_column_cells(name, col, fmt) for name, col in table.items()]
    n = len(data[0]) if data else 0
    if any(len(col) != n for col in data):
        raise ValueError(f"columns {cols} differ in length")
    m = len(columns)
    if fmt == "csv":
        head, between, tail = ",".join(cols) + "\n", "", ""

        def template(convs: list[str], k: int) -> str:
            return (",".join(convs) + "\n") * k
    else:
        # Each batch is the text json.dumps gives its rows, without the
        # list's brackets; joined by the separator json.dumps puts between
        # items, the batches read as json.dumps of all the rows.
        keys = [json.dumps(c).replace("%", "%%") + ": " for c in cols]
        head, between, tail = "[", ", ", "]\n"

        def template(convs: list[str], k: int) -> str:
            return ", ".join(["{" + ", ".join(map(operator.add, keys, convs)) + "}"] * k)

    yield head
    for lo in range(0, n, _BATCH_ROWS):
        k = min(n - lo, _BATCH_ROWS)
        values, convs = [None] * (k * m), []
        for j, column in enumerate(columns):
            conv, values[j::m] = column(lo, lo + k)
            convs.append(conv)
        if lo:
            yield between
        yield template(convs, k) % tuple(values)
    yield tail


def write_table(table: Mapping[str, np.ndarray | Coded], path: str | Path, fmt: str) -> None:
    """``table_text`` to a file with LF endings, written a batch at a time.

    Missing parent directories are created. A regular file, or a path where
    nothing exists yet, is written to a temporary file beside it that
    replaces it once complete, so a failed write leaves the target as it
    was. Other targets, such as a symlink, a pipe or ``/dev/stdout``, are
    written in place.
    """
    chunks = table_text(table, fmt)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    # The temporary name's length does not depend on the target's.
    temp = path.with_name(f".brsim-{os.urandom(6).hex()}.tmp")
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
