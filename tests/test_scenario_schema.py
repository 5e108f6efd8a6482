"""The scenario loader and src/brsim/scenario.schema.json accept and reject
the same documents, the schema's defaults are the loader's, and the field
tables of docs/schemas.md are the schema's.

Each shipped scenario, and day24 with every optional block filled in, is
mutated one field at a time: a wrong type, a number from a fixed set of
probes or just outside the schema's documented range, a list emptied or
one item too long, an unknown field, a deleted field, and null. Both the
schema and ``dataio.scenario_from_dict`` judge every mutant.
"""

import copy
import dataclasses
import json
import re
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from brsim import dataio, market
from brsim.dataio import ScenarioError, scenario_from_dict

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads(
    (ROOT / "src" / "brsim" / "scenario.schema.json").read_text(encoding="utf-8")
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def _load(name):
    return json.loads((ROOT / "scenarios" / name).read_text(encoding="utf-8"))


def _day24_full():
    doc = _load("day24.json")
    doc["vg"].update(variance_scale=1.5, claim_error_std_mw=2.0)
    doc["zonal_rule"] = {"congested_boundaries": [["north", "south"]]}
    doc["variance_scale_factors"] = [0.5, 1.0]
    return doc


BASES = {
    "single_hour": _load("single_hour.json"),
    "day24": _load("day24.json"),
    "day24_full": _day24_full(),
}

# Loader messages of the cross-field rules that the schema says it cannot
# express: per-hour list lengths, means and schedules against capacity and
# unit ranges, offer hours and sellers. A mutant that breaks only such a
# rule is valid to the schema and rejected by the loader, so these
# rejections are not compared.
CROSS_FIELD = re.compile(
    r"expected \d+ entries|mean must lie strictly inside|exceeds capacity"
    r"|below p_min_mw|outside \[|outside horizon|unknown unit id"
)
NUMBER_PROBES = (-1, 0, 0.5, 2)


def _subschema(path):
    node = SCHEMA
    for key in path:
        if isinstance(key, int):
            if "oneOf" in node:
                node = next(b for b in node["oneOf"] if b.get("type") == "array")
            node = node["items"]
        else:
            node = node["properties"][key]
    return node


def _probes(value, node):
    """The fixed probes for a number, values just past every bound the
    schema states, and for a list an empty one and one item too many."""
    if "enum" in node:
        yield "bogus"
    if isinstance(value, list):
        node = next((b for b in node.get("oneOf", ()) if b.get("type") == "array"), node)
        if "minItems" in node or "maxItems" in node:
            yield []
            yield [value[0]] * (node.get("maxItems", len(value)) + 1)
    if not isinstance(value, (int, float)):
        return
    if node.get("type") == "integer":
        # An integral float such as 1.0 is an integer to JSON Schema, and to
        # the loader, so each integer probe is also tried as a float.
        integer_probes = [p for p in NUMBER_PROBES if isinstance(p, int)]
        yield from integer_probes
        yield from (float(p) for p in integer_probes)
    else:
        yield from NUMBER_PROBES
    if "minimum" in node:
        yield node["minimum"] - 1
    if "exclusiveMinimum" in node:
        yield node["exclusiveMinimum"]
    if "maximum" in node:
        yield node["maximum"] + 1


def _wrong_types(value, node):
    if isinstance(value, int) and node.get("type") == "integer":
        return ["1", True, 0.5]
    if isinstance(value, (int, float)):
        return ["1", True]
    if isinstance(value, str):
        return [1]
    if isinstance(value, list):
        return ["x", {}]
    return [[], "x"]


def _mutations(value, path=()):
    """(label, path, op, arg) for every single-field change below value.
    Lists are entered through their first item only: all items share one
    subschema."""
    if isinstance(value, dict):
        yield "unknown field", path, "set", ("bogus_field", 1)
        for key, child in value.items():
            yield "deleted field", path, "delete", key
            yield from _mutations(child, path + (key,))
    elif isinstance(value, list) and value:
        yield from _mutations(value[0], path + (0,))
    if not path:
        return
    node = _subschema(path)
    yield "null", path[:-1], "set", (path[-1], None)
    for wrong in _wrong_types(value, node):
        yield "wrong type", path[:-1], "set", (path[-1], wrong)
    for probe in _probes(value, node):
        yield "probe", path[:-1], "set", (path[-1], probe)


def _apply(doc, parent, op, arg):
    out = copy.deepcopy(doc)
    target = out
    for key in parent:
        target = target[key]
    if op == "delete":
        del target[arg]
    else:
        key, value = arg
        target[key] = value
    return out


def _loader_verdict(doc):
    """(accepted, rejection message)"""
    try:
        scenario_from_dict(doc)
    except ScenarioError as exc:
        return False, str(exc)
    return True, ""


@pytest.mark.parametrize("base", sorted(BASES))
def test_schema_and_loader_agree(base):
    doc = BASES[base]
    assert VALIDATOR.is_valid(doc) and _loader_verdict(doc)[0]
    disagreements = []
    counts = {}
    for label, parent, op, arg in _mutations(doc):
        mutant = _apply(doc, parent, op, arg)
        schema_ok = VALIDATOR.is_valid(mutant)
        loader_ok, message = _loader_verdict(mutant)
        if schema_ok and not loader_ok and CROSS_FIELD.search(message):
            continue
        counts[(label, schema_ok)] = counts.get((label, schema_ok), 0) + 1
        if schema_ok != loader_ok:
            disagreements.append(
                f"{label} at {list(parent)} {op} {arg!r}: "
                f"schema {'accepts' if schema_ok else 'rejects'}, "
                f"loader {'accepts' if loader_ok else 'rejects'}"
            )
    assert not disagreements, "\n".join(disagreements)
    # Every kind of mutation was tried and rejected at least once.
    for label in ("unknown field", "deleted field", "null", "wrong type", "probe"):
        assert counts.get((label, False), 0) > 0, label


def test_null_zonal_rule_is_accepted():
    doc = dict(BASES["day24"], zonal_rule=None)
    assert VALIDATOR.is_valid(doc)
    assert scenario_from_dict(doc).zonal_rule is None


# ---------------------------------------------------------------------------
# docs/schemas.md's field tables, rendered from the schema
# ---------------------------------------------------------------------------

_PLURALS = {"integer": "integers", "number": "numbers", "string": "strings", "object": "objects"}
_SUPERSCRIPTS = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")


def _number(x):
    """A bound as the docs write it: 10⁶ for 1e6, 1 for 1.0."""
    if x % 1:
        return repr(x)
    digits = str(abs(int(x)))
    if len(digits) > 3 and digits.rstrip("0") == "1":
        return "-" * (x < 0) + "10" + str(len(digits) - 1).translate(_SUPERSCRIPTS)
    return str(int(x))


def _values(node, plural=False):
    """The values a subschema takes, in words, from its keywords alone."""
    if "enum" in node:
        return " or ".join(f"`{json.dumps(v)}`" for v in node["enum"])
    if "oneOf" in node:
        return " or ".join(map(_values, node["oneOf"]))
    kind, *rest = [node["type"]] if isinstance(node["type"], str) else node["type"]
    if kind == "array":
        least, most = node.get("minItems", 0), node.get("maxItems")
        size = {(0, None): "", (1, None): "non-empty "}.get((least, most))
        if size is None and least != most:
            raise ValueError(f"no words for {least} to {most} items")
        text = (size or "") + ("lists" if plural else "list") + " of "
        text += f"{most} " * (least == most) + _values(node["items"], plural=True)
    else:
        text = _PLURALS[kind] if plural else kind
        lo = next(((k, node[k]) for k in ("minimum", "exclusiveMinimum") if k in node), None)
        hi = node.get("maximum")
        if lo and hi is not None:
            text += f" in {'[(' [lo[0] != 'minimum']}{_number(lo[1])}, {_number(hi)}]"
        elif lo:
            text += f" {'>=' if lo[0] == 'minimum' else '>'} {_number(lo[1])}"
        elif hi is not None:
            text += f" <= {_number(hi)}"
    return " or ".join([text, *rest])


def field_tables(schema):
    """The Markdown table of each object's fields: the document's, then each
    object field's (an object or a list of objects), breadth first in the
    schema's order. The required flag, the values and the default come
    from the keywords, the meaning from ``description``."""
    tables, nodes = [], [schema]
    for node in nodes:
        required = set(node.get("required", ()))
        rows = [("field", "required", "values", "default", "meaning")]
        for key, sub in node["properties"].items():
            default = f"`{json.dumps(sub['default'])}`" if "default" in sub else ""
            rows.append((f"`{key}`", "yes" if key in required else "no", _values(sub), default,
                         sub["description"]))
            if "properties" in sub.get("items", sub):
                nodes.append(sub.get("items", sub))
        widths = [max(map(len, col)) for col in zip(*rows)]
        widths[-1] = 0  # the last column is not padded
        rows.insert(1, ["-" * max(w, len(h)) for w, h in zip(widths, rows[0])])
        tables.append("\n".join(
            "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |" for row in rows))
    return tables


def test_docs_field_tables_are_the_schemas():
    text = (ROOT / "docs" / "schemas.md").read_text(encoding="utf-8")
    # Each run of table lines whose header starts with "| field " is a field table.
    committed = [table for table in re.findall(r"(?m)(?:^\|.*\n?)+", text)
                 if table.startswith("| field ")]
    assert [table.rstrip("\n") for table in committed] == field_tables(SCHEMA)


# ---------------------------------------------------------------------------
# defaults
# ---------------------------------------------------------------------------

def _defaults(node, path=()):
    """(path, subschema) of every subschema that states a default."""
    if "default" in node:
        yield path, node
    for key, sub in node.get("properties", {}).items():
        yield from _defaults(sub, path + (key,))
    if "items" in node:
        yield from _defaults(node["items"], path + (0,))


DEFAULTS = dict(_defaults(SCHEMA))
DEFAULT = {path: node["default"] for path, node in DEFAULTS.items()}


def test_the_optional_fields_with_a_fixed_default():
    assert set(DEFAULTS) == {
        ("seed",), ("vg", "id"), ("vg", "variance_coefficient"), ("vg", "variance_scale"),
        ("vg", "claim_error_std_mw"), ("brs_price",), ("units",), ("units", 0, "rt_mode"),
        ("offers",), ("variance_scale_factors",),
    }


@pytest.mark.parametrize("path", DEFAULTS, ids=lambda path: ".".join(map(str, path)))
def test_each_default_passes_its_own_subschema(path):
    node = DEFAULTS[path]
    jsonschema.Draft202012Validator(node).validate(node["default"])
    dataio._compile(node)([node["default"]])


def _required_only(value, node):
    return {k: v for k, v in value.items() if k in node["required"]}


def test_required_fields_alone_load_to_the_schema_defaults():
    # day24's required fields, and one unit with only its required fields.
    day24, props = _load("day24.json"), SCHEMA["properties"]
    doc = dict(_required_only(day24, SCHEMA), vg=_required_only(day24["vg"], props["vg"]))
    unit = _required_only(day24["units"][0], props["units"]["items"])
    assert VALIDATOR.is_valid(doc) and VALIDATOR.is_valid({**doc, "units": [unit]})
    cfg = scenario_from_dict(doc)
    assert cfg.seed == DEFAULT["seed",] and type(cfg.seed) is int
    for key in ("id", "variance_coefficient", "variance_scale", "claim_error_std_mw"):
        value = getattr(cfg.vg, key)
        assert value == DEFAULT["vg", key] and type(value) is type(DEFAULT["vg", key]), key
    assert cfg.brs_price == dataio.BrsPriceModel(**DEFAULT["brs_price",])
    assert cfg.units == tuple(DEFAULT["units",])
    assert DEFAULT["offers",] == [] and {k: col.tolist() for k, col in cfg.offers.items()} == \
        dict.fromkeys((f.name for f in dataclasses.fields(market.Book)), [])
    assert cfg.variance_scale_factors == tuple(DEFAULT["variance_scale_factors",])
    # The derived defaults.
    assert np.array_equal(cfg.vg.da_schedule_mw, cfg.vg.forecast_mean_mw)
    assert np.array_equal(cfg.rt_price, cfg.da_price)
    [loaded] = scenario_from_dict({**doc, "units": [unit]}).units
    assert loaded.rt_mode == DEFAULT["units", 0, "rt_mode"]


def test_config_classes_hold_no_default_but_none():
    # Every fixed default is the schema's; a dataclass may only mark an
    # absent field with None.
    for cls in (dataio.PenaltyConfig, dataio.VgParams, dataio.UnitConfig, dataio.BrsPriceModel,
                dataio.ZonalRuleConfig, dataio.ScenarioConfig):
        for f in dataclasses.fields(cls):
            assert f.default in (None, dataclasses.MISSING), (cls.__name__, f.name)
            assert f.default_factory is dataclasses.MISSING, (cls.__name__, f.name)
