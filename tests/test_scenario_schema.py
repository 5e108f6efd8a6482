"""The scenario loader and src/brsim/scenario.schema.json accept and reject
the same documents.

Each shipped scenario, and day24 with every optional block filled in, is
mutated one field at a time: a wrong type, a number from a fixed set of
probes or just outside the schema's documented range, a list emptied or
one item too long, an unknown field, a deleted field, and null. Both the
schema and ``dataio.scenario_from_dict`` judge every mutant.
"""

import copy
import json
import re
from pathlib import Path

import jsonschema
import pytest

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
