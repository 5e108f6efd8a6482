"""Scenario configs, the packaged schema, and table writers/readers."""

import dataclasses
import gc
import json
import math
import os
import stat
import sys
import threading
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from brsim import dataio, market
from brsim.dataio import (
    ScenarioError,
    format_table,
    load_scenario,
    scenario_from_dict,
    write_table,
)
import oracles
from oracles import read_table, scenario_to_dict, table_rows, write_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def minimal_doc():
    return {
        "horizon": 2,
        "vg": {
            "id": "w",
            "capacity_mw": 100.0,
            "forecast_mean_mw": [60.0, 40.0],
        },
        "penalty": {"over": 0.3, "under": 0.4},
        "da_price": [30.0, 28.0],
        "units": [
            {
                "id": "g1",
                "kind": "base_load",
                "p_min_mw": 50.0,
                "p_max_mw": 150.0,
                "marginal_cost": 12.0,
                "da_schedule_mw": 100.0,
            }
        ],
        "offers": [
            {"seller": "g1", "hour": 0, "direction": "down", "price": 0.5, "quantity_mw": 10.0}
        ],
    }


class TestScenarioParsing:
    def test_bundled_scenarios_load(self):
        cfg = load_scenario(SCENARIOS / "single_hour.json")
        assert cfg.horizon == 1
        assert cfg.vg.id == "wind1"
        assert cfg.units[0].rt_mode == "modified_schedule"
        cfg24 = load_scenario(SCENARIOS / "day24.json")
        assert cfg24.horizon == 24
        assert {len(col) for col in cfg24.offers.values()} == {96}

    def test_defaults_fill_in(self):
        cfg = scenario_from_dict(minimal_doc())
        assert np.array_equal(cfg.vg.da_schedule_mw, cfg.vg.forecast_mean_mw)
        assert np.array_equal(cfg.rt_price, cfg.da_price)
        assert cfg.vg.realized_mw is None
        assert cfg.seed == 0
        assert cfg.variance_scale_factors == (1.0,)
        assert cfg.brs_price.mode == "ratio"
        schedule = cfg.units[0].da_schedule_mw
        assert schedule.dtype == np.float64 and schedule.tolist() == [100.0, 100.0]

    def test_offers_load_as_columns(self):
        doc = minimal_doc()
        doc["units"][0]["zone"] = "north"
        doc["units"].append(dict(doc["units"][0], id="g2"))
        doc["offers"].append(dict(doc["offers"][0], hour=1.0, direction="up", zone="north"))
        doc["offers"].append(dict(doc["offers"][0], seller="g2", price=0.25))
        cfg = scenario_from_dict(doc)
        # Book's own columns: each seller's index in units, and an up flag.
        assert {k: col.tolist() for k, col in cfg.offers.items()} == {
            "hour": [0, 1, 0], "up": [False, True, False], "seller": [0, 0, 1],
            "price": [0.5, 0.5, 0.25], "quantity": [10.0, 10.0, 10.0],
        }
        assert {k: col.dtype for k, col in cfg.offers.items()} == {
            "hour": np.int64, "up": bool, "seller": np.int64,
            "price": np.float64, "quantity": np.float64,
        }
        assert list(cfg.offers) == [f.name for f in dataclasses.fields(market.Book)]
        # The market takes the columns as they are, without a copy.
        book = market.Book(**cfg.offers)
        for key, col in cfg.offers.items():
            assert np.shares_memory(getattr(book, key), col), key
        assert oracles.offer_rows(cfg) == [
            {"seller": "g1", "hour": 0, "direction": "down", "price": 0.5, "quantity_mw": 10.0},
            {"seller": "g1", "hour": 1, "direction": "up", "price": 0.5, "quantity_mw": 10.0},
            {"seller": "g2", "hour": 0, "direction": "down", "price": 0.25, "quantity_mw": 10.0},
        ]
        del doc["offers"]
        empty = scenario_from_dict(doc).offers
        assert {k: col.tolist() for k, col in empty.items()} == dict.fromkeys(cfg.offers, [])

    def test_unknown_key_rejected(self):
        doc = minimal_doc()
        doc["surprise"] = 1
        with pytest.raises(ScenarioError, match="unknown field"):
            scenario_from_dict(doc)

    def test_missing_key_rejected(self):
        doc = minimal_doc()
        del doc["penalty"]
        with pytest.raises(ScenarioError, match="missing required field"):
            scenario_from_dict(doc)

    def test_penalty_bounds(self):
        doc = minimal_doc()
        doc["penalty"]["over"] = 1.5
        with pytest.raises(ScenarioError, match="penalty.over"):
            scenario_from_dict(doc)

    def test_series_length_must_match_horizon(self):
        doc = minimal_doc()
        doc["da_price"] = [30.0]
        with pytest.raises(ScenarioError, match="da_price"):
            scenario_from_dict(doc)

    def test_offer_must_name_known_unit(self):
        doc = minimal_doc()
        doc["offers"][0]["seller"] = "ghost"
        with pytest.raises(ScenarioError, match="offers\\[0\\]"):
            scenario_from_dict(doc)

    def test_offer_hour_within_horizon(self):
        doc = minimal_doc()
        doc["offers"][0]["hour"] = 2
        with pytest.raises(ScenarioError, match="hour"):
            scenario_from_dict(doc)

    def test_realized_capped_by_capacity(self):
        doc = minimal_doc()
        doc["vg"]["realized_mw"] = [120.0, 40.0]
        with pytest.raises(ScenarioError, match="capacity"):
            scenario_from_dict(doc)

    def test_schedule_capped_by_capacity(self):
        doc = minimal_doc()
        doc["vg"]["da_schedule_mw"] = [150.0, 40.0]
        with pytest.raises(ScenarioError, match="capacity"):
            scenario_from_dict(doc)

    def test_unit_schedule_within_unit_range(self):
        doc = minimal_doc()
        doc["units"][0]["da_schedule_mw"] = [100.0, 20.0]
        with pytest.raises(
            ScenarioError, match=r"units\[0\]\.da_schedule_mw\[1\]: schedule 20.0 outside"
        ):
            scenario_from_dict(doc)

    def test_unit_range_ordered(self):
        doc = minimal_doc()
        doc["units"][0]["p_max_mw"] = 40.0
        with pytest.raises(ScenarioError, match=r"units\[0\]\.p_max_mw: .* below p_min_mw"):
            scenario_from_dict(doc)

    def test_unit_ids_unique(self):
        doc = minimal_doc()
        doc["units"].append(dict(doc["units"][0]))
        with pytest.raises(ScenarioError, match=r"scenario\.units: duplicate unit ids \['g1'\]"):
            scenario_from_dict(doc)

    def test_mean_inside_capacity(self):
        doc = minimal_doc()
        doc["vg"]["forecast_mean_mw"] = [60.0, 100.0]
        with pytest.raises(ScenarioError, match=r"forecast_mean_mw\[1\]: mean must lie"):
            scenario_from_dict(doc)

    def test_list_sizes(self):
        doc = minimal_doc()
        doc["variance_scale_factors"] = []
        with pytest.raises(ScenarioError, match=r"variance_scale_factors: expected at least 1"):
            scenario_from_dict(doc)
        doc = minimal_doc()
        doc["zonal_rule"] = {"congested_boundaries": [["a", "b", "c"]]}
        with pytest.raises(ScenarioError, match=r"boundaries\[0\]: expected at most 2"):
            scenario_from_dict(doc)

    def test_zonal_boundaries_must_differ(self):
        doc = minimal_doc()
        doc["zonal_rule"] = {"congested_boundaries": [["a", "a"]]}
        with pytest.raises(ScenarioError, match="distinct"):
            scenario_from_dict(doc)

    def test_dict_round_trip(self):
        cfg = load_scenario(SCENARIOS / "day24.json")
        again = scenario_from_dict(scenario_to_dict(cfg))
        assert scenario_to_dict(again) == scenario_to_dict(cfg)

    def test_file_round_trip(self, tmp_path):
        cfg = load_scenario(SCENARIOS / "single_hour.json")
        p = tmp_path / "copy.json"
        write_scenario(cfg, p)
        assert scenario_to_dict(load_scenario(p)) == scenario_to_dict(cfg)

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{\n  "horizon": 1,\n  oops\n}\n', encoding="utf-8")
        with pytest.raises(ScenarioError, match=r"broken.json:3: invalid JSON"):
            load_scenario(p)

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict([1, 2, 3])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400])
    def test_non_finite_number_rejected(self, value):
        doc = minimal_doc()
        doc["vg"]["capacity_mw"] = value
        with pytest.raises(ScenarioError, match=r"^scenario\.vg\.capacity_mw: expected a finite"):
            scenario_from_dict(doc)

    def test_integral_float_is_an_integer(self):
        doc = minimal_doc()
        doc["seed"] = 1.0
        cfg = scenario_from_dict(doc)
        assert cfg.seed == 1 and type(cfg.seed) is int
        doc["offers"][0]["hour"] = 0.5
        with pytest.raises(
            ScenarioError, match=r"^scenario\.offers\[0\]\.hour: expected an integer, got float$"
        ):
            scenario_from_dict(doc)


class TestSchemaInterpreter:
    def test_unsupported_keyword_rejected_on_load(self):
        schema = {"type": "object", "properties": {"id": {"type": "string", "pattern": "^g"}}}
        with pytest.raises(ValueError, match=r"unsupported schema keyword\(s\) \['pattern'\]"):
            dataio._compile(schema)

    def test_keyword_of_another_type_rejected_on_load(self):
        with pytest.raises(ValueError, match=r"\['minimum'\]"):
            dataio._compile({"type": "string", "minimum": 0})
        with pytest.raises(ValueError, match="unsupported schema type"):
            dataio._compile({"type": ["string", "number"]})
        with pytest.raises(ValueError, match="unsupported schema type"):
            dataio._compile({"type": "null", "oneOf": [{"type": "number"}]})

    def test_one_of_needs_exactly_one_match(self):
        check = dataio._compile(
            {"oneOf": [{"type": "number"}, {"type": "number", "minimum": 0}]}
        )
        assert check([-1]) == [-1.0]
        with pytest.raises(dataio._Invalid, match="matches 2 alternatives"):
            check([1])

    def test_one_of_reports_the_closest_alternative(self):
        doc = minimal_doc()
        doc["units"][0]["da_schedule_mw"] = -1.0
        with pytest.raises(ScenarioError, match=r"\.da_schedule_mw: must be >= 0, got -1.0$"):
            scenario_from_dict(doc)
        doc["units"][0]["da_schedule_mw"] = [100.0, -1.0]
        with pytest.raises(ScenarioError, match=r"\.da_schedule_mw\[1\]: must be >= 0"):
            scenario_from_dict(doc)

    def test_schema_ships_in_the_package(self):
        assert (resources.files("brsim") / "scenario.schema.json").is_file()
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
        assert "scenario.schema.json" in package_data["brsim"]


def many_offers(n=8):
    doc = minimal_doc()
    doc["offers"] = [{"seller": "g1", "hour": i % 2, "direction": ("down", "up")[i % 2],
                      "price": 0.5, "quantity_mw": 10.0} for i in range(n)]
    return doc


def _first_error_cases():
    doc = many_offers()
    doc["offers"][7]["price"] = -1.0
    doc["offers"][3]["quantity_mw"] = 0.0
    yield "lowest item first", doc, "offers[3].quantity_mw: must be > 0, got 0.0"
    doc = many_offers()
    doc["offers"][5]["bogus"] = 1
    doc["offers"][2]["hour"] = -1
    yield "bound before later unknown key", doc, "offers[2].hour: must be >= 0, got -1"
    # Two bad fields in one item: its own key order decides, not the schema's.
    bad = {"price": 0.5, "quantity_mw": -2.0, "hour": 0, "direction": "sideways"}
    for first in ("quantity_mw", "direction"):
        doc = many_offers()
        doc["offers"][4] = {"seller": "g1", first: bad[first], **bad}
        reason = {"quantity_mw": "must be > 0, got -2.0",
                  "direction": "expected one of ['down', 'up'], got 'sideways'"}[first]
        yield f"key order, {first} first", doc, f"offers[4].{first}: {reason}"
    # A bad hourly value at an index below a bad offer's: the document's key
    # order decides.
    doc = many_offers()
    doc["da_price"][1] = -5.0
    doc["offers"][5]["price"] = -1.0
    yield "hourly series first", doc, "da_price[1]: must be > 0, got -5.0"
    yield "offers first", {"offers": doc.pop("offers"), **doc}, \
        "offers[5].price: must be >= 0, got -1.0"
    doc = many_offers()
    doc["offers"][6].update(hour=5, seller="ghost2")
    doc["offers"][2]["seller"] = "ghost"
    yield "cross-field rules", doc, "offers[2].seller: unknown unit id 'ghost'"
    doc = many_offers()
    doc["offers"][1].update(zone="south", seller="ghost")
    yield "seller before zone", doc, "offers[1].seller: unknown unit id 'ghost'"
    # The enum rule tests a column's distinct values at once; a value that
    # cannot be hashed, or one bad value among thousands, is still named.
    doc = many_offers()
    doc["offers"][6]["direction"] = {"up": 1}
    doc["offers"][5]["direction"] = ["up"]
    yield "unhashable enum value", doc, \
        "offers[5].direction: expected one of ['down', 'up'], got ['up']"
    doc = many_offers(5000)
    doc["offers"][4321]["direction"] = "sideways"
    yield "enum value deep in a long column", doc, \
        "offers[4321].direction: expected one of ['down', 'up'], got 'sideways'"


class TestFirstErrorInDocumentOrder:
    @pytest.mark.parametrize("doc, message", [case[1:] for case in _first_error_cases()],
                             ids=[case[0] for case in _first_error_cases()])
    def test_message(self, doc, message):
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(doc)
        assert str(info.value) == f"scenario.{message}"

    @pytest.mark.parametrize("changes, message", [
        # Within an offer: the hour, then the seller, then the zone.
        ({5: dict(hour=2, seller="ghost", zone="x")}, "offers[5].hour: hour 2 outside horizon 2"),
        ({5: dict(seller="ghost", zone="x")}, "offers[5].seller: unknown unit id 'ghost'"),
        # The first offer that breaks any rule, whichever rule it breaks.
        ({6: dict(hour=9), 4: dict(zone="south"), 5: dict(seller="ghost")},
         "offers[4].zone: zone 'south' differs from the seller's zone None"),
        # An empty zone is a zone, and no unit gives one here.
        ({3: dict(zone="")}, "offers[3].zone: zone '' differs from the seller's zone None"),
        # An hour past int64 is named whole.
        ({7: dict(hour=10**30)}, f"offers[7].hour: hour {10**30} outside horizon 2"),
    ], ids=["hour first", "seller before zone", "first offer", "empty zone", "hour past int64"])
    def test_offer_rules(self, changes, message):
        doc = many_offers()
        for i, change in changes.items():
            doc["offers"][i].update(change)
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(doc)
        assert str(info.value) == f"scenario.{message}"

    def test_offer_zone_is_the_sellers(self):
        doc = many_offers()
        doc["units"][0]["zone"] = ""
        doc["offers"][2]["zone"] = ""
        cfg = scenario_from_dict(doc)
        # The zone is checked and then dropped: the book is as if none were given.
        del doc["offers"][2]["zone"]
        assert oracles.offer_rows(cfg) == oracles.offer_rows(scenario_from_dict(doc))


def _long_doc(repeats=10):
    """day24 repeated: 240 hours and 960 offers."""
    doc = json.loads((SCENARIOS / "day24.json").read_text(encoding="utf-8"))
    horizon = doc["horizon"]
    for block in (doc, doc["vg"], *doc["units"]):
        for key, value in block.items():
            if isinstance(value, list) and len(value) == horizon:
                block[key] = value * repeats
    doc["offers"] = [dict(offer, hour=offer["hour"] + horizon * r)
                     for r in range(repeats) for offer in doc["offers"]]
    doc["horizon"] = horizon * repeats
    return doc


BASE_DOCS = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(SCENARIOS.glob("*.json"))]
BASE_DOCS.append(_long_doc())
PROBES = [
    None, True, False, 0, 1, -1, 2, 5, 0.5, 1.0, -0.0, 100.0, 1e6, 1e6 + 1, -1e6 - 1, 10**400,
    int(sys.float_info.max) + 1, float("nan"), float("inf"), "1", "down", "up", "g1", "north",
    [], [1.0], [0.5, 2.0], ["a", "a"], {}, {"seller": "g1"},
]


@st.composite
def mutated_docs(draw):
    """A shipped or long scenario with up to four changes, each at a random
    place: a value set to a probe, a field or item deleted, or an unknown
    field or extra item added. Containers on a change's path are copied."""
    doc = draw(st.sampled_from(BASE_DOCS))
    for _ in range(draw(st.integers(0, 4))):
        doc = _mutate(doc, draw)
    return doc


def _mutate(node, draw):
    node = dict(node) if isinstance(node, dict) else list(node)
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    key = draw(st.sampled_from(keys)) if keys else None
    if key is not None and isinstance(node[key], (dict, list)) and draw(st.integers(0, 3)):
        node[key] = _mutate(node[key], draw)
        return node
    op = draw(st.sampled_from(["set"] * 6 + ["delete", "add"] if keys else ["add"]))
    if op == "set":
        node[key] = draw(st.sampled_from(PROBES))
    elif op == "delete":
        del node[key]
    elif isinstance(node, dict):
        node["bogus"] = draw(st.sampled_from(PROBES))
    else:
        node.append(draw(st.sampled_from(PROBES + node[:1])))
    return node


def _json_text(doc: dict) -> str:
    """A checked document with its arrays of objects as rows and without
    the fields that read None, as JSON text: 1 and 1.0 differ."""
    doc = {k: v for k, v in doc.items() if v is not None}
    for key in ("units", "offers"):
        if isinstance(doc.get(key), dict):
            doc[key] = [{k: v for k, v in row.items() if v is not None}
                        for row in table_rows(doc[key])]
    return json.dumps(doc, sort_keys=True)


class TestAgainstReferenceInterpreter:
    @given(doc=mutated_docs())
    @settings(max_examples=200, deadline=None)
    def test_same_values_or_same_error(self, doc):
        try:
            expected = _json_text(oracles.check_scenario(doc))
        except ScenarioError as exc:
            expected = str(exc)
        try:
            scenario_from_dict(doc)
            [checked] = dataio._scenario_schema()([doc])
            got = _json_text(checked)
        except ScenarioError as exc:
            got = str(exc)
        assert got == expected


def _zoned_long_doc(path: Path) -> Path:
    """day24 repeated 50 times (1,200 hours and 4,800 offers), every other
    offer naming its seller's zone, written to ``path``."""
    doc = _long_doc(repeats=50)
    zones = {unit["id"]: unit["zone"] for unit in doc["units"]}
    for offer in doc["offers"][1::2]:
        offer["zone"] = zones[offer["seller"]]
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestLoadedConfigMemory:
    def test_config_holds_read_only_arrays(self, tmp_path):
        path = _zoned_long_doc(tmp_path / "long.json")
        load_scenario(path)  # compiles and caches the schema
        gc.collect()
        tracemalloc.start()
        try:
            cfg = load_scenario(path)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        n = len(cfg.offers["hour"])
        # Decoded values kept in tuples held about 290 bytes an offer here,
        # and string columns about 59; the book's columns take 33.
        assert n == 4800 and held < 50 * n, f"{held / n:.0f} bytes an offer"
        series = [cfg.da_price, cfg.rt_price, cfg.vg.forecast_mean_mw, cfg.vg.da_schedule_mw,
                  cfg.vg.realized_mw, *(unit.da_schedule_mw for unit in cfg.units)]
        for col in series:
            assert col.dtype == np.float64 and col.shape == (cfg.horizon,)
        for col in [*series, *cfg.offers.values()]:
            assert isinstance(col, np.ndarray) and not col.flags.writeable
        # The book holds no string the JSON decoder made for an offer.
        assert all(col.dtype != object for col in cfg.offers.values())

    def test_load_leaves_no_cycles(self, tmp_path):
        # A cycle through the loader's frames would keep the whole parsed
        # document until the next collection.
        path = _zoned_long_doc(tmp_path / "long.json")
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            load_scenario(path)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestTables:
    TABLE = {
        "id": [0, 1],
        "name": ["alpha", "beta"],
        "mw": [12.5, 30.0],
        "flag": [True, False],
    }
    ROWS = table_rows(TABLE)

    def test_csv_formatting(self):
        text = format_table(self.TABLE, "csv")
        lines = text.splitlines()
        assert lines[0] == "id,name,mw,flag"
        assert lines[1] == "0,alpha,12.5,true"
        assert lines[2] == "1,beta,30,false"

    def test_csv_six_significant_digits(self):
        text = format_table({"x": [1234.56789]}, "csv")
        assert text.splitlines()[1] == "1234.57"

    def test_json_keeps_full_precision(self):
        text = format_table({"x": [1234.56789]}, "json")
        assert json.loads(text) == [{"x": 1234.56789}]

    def test_csv_writes_non_finite_numbers(self):
        table = {"x": [float("inf"), float("-inf"), float("nan")]}
        assert format_table(table, "csv") == "x\ninf\n-inf\nnan\n"

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_json_rejects_non_finite_numbers(self, value):
        # A list goes through the json module; a float64 array is checked
        # before it is rendered.
        for column in ([1.0, value], np.array([1.0, value])):
            with pytest.raises(ValueError, match="not JSON compliant"):
                format_table({"x": column}, "json")

    @pytest.mark.parametrize("column", [[], np.array([])])
    def test_zero_length_columns_give_a_header_only(self, column):
        assert format_table({"a": column, "b": []}, "csv") == "a,b\n"
        assert format_table({"a": column, "b": []}, "json") == "[]\n"

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            format_table({"a": [1, 2], "b": [3]}, "csv")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            format_table(self.TABLE, "xml")

    def test_csv_file_round_trip(self, tmp_path):
        p = tmp_path / "table.csv"
        write_table(self.TABLE, p, "csv")
        assert read_table(p) == self.ROWS

    def test_json_file_round_trip(self, tmp_path):
        p = tmp_path / "table.json"
        write_table(self.TABLE, p, "json")
        assert read_table(p) == self.ROWS

    def test_json_reader_rejects_non_list(self, tmp_path):
        p = tmp_path / "table.json"
        p.write_text('{"a": 1}', encoding="utf-8")
        with pytest.raises(ValueError, match="JSON list"):
            read_table(p)

    def test_csv_cells_follow_their_type(self):
        # A float subclass keeps the float rule; other types are written as str.
        table = {"f": [np.float64(1234.56789)], "i": [np.int64(7)], "none": [None]}
        assert format_table(table, "csv") == "f,i,none\n1234.57,7,None\n"
        # A column of mixed types is written cell by cell, each by its own rule.
        assert format_table({"mixed": [True, 2, 0.5, "x"]}, "csv") == "mixed\ntrue\n2\n0.5\nx\n"

    def test_coded_columns_write_their_labels(self):
        table = {"who": dataio.Coded(("a%s", 'b"é'), np.array([1, 0, 1], np.int8)),
                 "ok": np.array([True, False, True])}
        assert table_rows(table) == [{"who": 'b"é', "ok": True}, {"who": "a%s", "ok": False},
                                     {"who": 'b"é', "ok": True}]
        assert format_table(table, "csv") == 'who,ok\nb"é,true\na%s,false\nb"é,true\n'
        assert format_table(table, "json") == json.dumps(table_rows(table)) + "\n"

    @pytest.mark.parametrize("codes, bad", [([0, 2], 2), (np.array([0, -1], np.int8), -1)])
    def test_code_outside_the_labels_refused(self, codes, bad):
        with pytest.raises(ValueError, match=f"^code {bad} outside 2 labels$"):
            dataio.Coded(("a", "b"), codes)

    @pytest.mark.parametrize("codes", [np.array([0.0, 1.0]), np.array([True]), np.zeros((1, 1), int),
                                       np.int64(0)])
    def test_codes_must_be_a_1d_integer_array(self, codes):
        with pytest.raises(TypeError, match="^codes must be a 1-d integer array"):
            dataio.Coded(("a", "b"), codes)


# The edges of the CSV float rule: integral values from 1e6 on (exponent
# form under %.6g, whole digits by the rule), -0.0, six-digit rounding up
# to an exponent, and subnormals.
EDGE_FLOATS = [-0.0, 0.0, 999999.0, 999999.5, 1e6, -1e6, 123456789.0, 1e15, -1e15, 1e16,
               9.99995e-05, 1e-4, 0.1, -2.5, 5e-324, -1e-310, 2.2250738585072014e-308]
NON_FINITE = [math.inf, -math.inf, math.nan]
# Names and labels with %, quotes, backslashes and non-ASCII.
TEXT = st.text(alphabet='ab%sdr"\\é€ü ,', max_size=6)
B = dataio._BATCH_ROWS


@st.composite
def mixed_tables(draw):
    """A table of every kind of column the writer takes, at a batch edge:
    int64, uint8, bool, float64 and object arrays, float, string and mixed
    lists, and coded columns. Each column draws a few values and repeats
    them in a random order."""
    n = draw(st.sampled_from([0, 1, B - 1, B, B + 1, 2 * B + 1]))
    floats = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        floats |= st.sampled_from(NON_FINITE)
    names = draw(st.lists(TEXT, min_size=1, max_size=6, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def spread(pool):
        return [pool[i] for i in rng.integers(0, len(pool), n)]

    def pool(values):
        return draw(st.lists(values, min_size=1, max_size=5))

    kinds = {
        "int64": lambda: np.array(spread(pool(st.integers(-2**63, 2**63 - 1))), np.int64),
        "uint8": lambda: np.array(spread(pool(st.integers(0, 255))), np.uint8),
        "bool": lambda: np.array(spread(pool(st.booleans())), bool),
        "float64": lambda: np.array(spread(pool(floats)), np.float64),
        "object": lambda: np.array(spread(pool(TEXT)), dtype=object),
        "floats": lambda: spread(pool(floats)),
        "strings": lambda: spread(pool(TEXT)),
        "mixed": lambda: spread(pool(st.none() | st.booleans() | st.integers() | floats | TEXT)),
        "coded": lambda: dataio.Coded(
            (labels := pool(TEXT)),
            np.array(spread(range(len(labels))), draw(st.sampled_from([np.uint8, np.int8, np.int64])))),
    }
    return {name: kinds[draw(st.sampled_from(sorted(kinds)))]() for name in names}


def _rendered(render, table, fmt):
    """The text of a table, or the type and message of the ValueError."""
    try:
        return render(table, fmt)
    except ValueError as exc:
        return type(exc), str(exc)


class TestAgainstReferenceWriter:
    # No shrink phase: shrinking the up-to-513-row tables of a failing
    # example took minutes, so a broken writer is reported as first drawn.
    @given(table=mixed_tables())
    @settings(max_examples=80, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @pytest.mark.parametrize("fmt", dataio.TABLE_FORMATS)
    def test_same_text_as_the_per_cell_writer(self, table, fmt):
        assert (_rendered(format_table, table, fmt)
                == _rendered(oracles.reference_format_table, table, fmt))

    @pytest.mark.parametrize("fmt", dataio.TABLE_FORMATS)
    def test_rule_edges(self, fmt):
        # Each edge alone in a batch, after a batch of ordinary values, and
        # all together.
        ordinary = [0.5 + i for i in range(B)]
        edges = EDGE_FLOATS + (NON_FINITE if fmt == "csv" else [])
        for column in (*([*ordinary, x] for x in edges), edges):
            table = {'x%s"é': np.array(column), "y": column,
                     "who": dataio.Coded(('w%indé', '50%s "q"'), np.arange(len(column)) % 2)}
            assert format_table(table, fmt) == oracles.reference_format_table(table, fmt)


def _ledger_like(n):
    """Columns shaped like simulate-day's ledger."""
    rows = range(n)
    return {
        "hour": [i // 13 for i in rows],
        "payer": ["pool" if i % 3 else f"g{i % 7}" for i in rows],
        "payee": [f"u{i % 11}" for i in rows],
        "amount": [1000.0 + i / 7.0 for i in rows],
        "tag": ["da_energy"] * n,
    }


def _ledger_columns(n):
    """Columns shaped like simulation.ledger_rows: numpy columns and coded
    labels."""
    rows = np.arange(n)
    parties = ("pool", "wind", *(f"g{i}" for i in range(11)))
    return {
        "hour": rows // 13,
        "payer": dataio.Coded(parties, np.where(rows % 3, 0, 2 + rows % 7).astype(np.uint8)),
        "payee": dataio.Coded(parties, (2 + rows % 11).astype(np.uint8)),
        "amount": 1000.0 + rows / 7.0,
        "tag": dataio.Coded(market.LEDGER_TAGS, (rows % 4).astype(np.uint8)),
    }


class TestStreamedTables:
    B = dataio._BATCH_ROWS

    @pytest.mark.parametrize("fmt", dataio.TABLE_FORMATS)
    # The first batch's boundaries, and the same boundaries a few batches in.
    @pytest.mark.parametrize(
        "n",
        [0, 1, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 4 * B - 1, 4 * B,
         4 * B + 1, 8 * B - 1, 8 * B, 8 * B + 1, 16 * B + 1],
    )
    def test_batch_boundaries(self, tmp_path, fmt, n):
        p = tmp_path / f"table.{fmt}"
        table = _ledger_like(n)
        write_table(table, p, fmt)
        text = format_table(table, fmt)
        assert p.read_bytes() == text.encode("utf-8")
        if fmt == "json":
            assert text == json.dumps(table_rows(table)) + "\n"
        else:
            assert text.count("\n") == n + 1
        assert os.listdir(tmp_path) == [p.name]

    @pytest.mark.parametrize("fmt", dataio.TABLE_FORMATS)
    def test_memory_is_bounded_by_a_batch(self, tmp_path, fmt):
        # List columns, and the numpy and coded columns simulate-day writes.
        for table in (_ledger_like(50_000), _ledger_columns(50_000)):
            size = len(format_table(table, fmt))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                write_table(table, tmp_path / f"table.{fmt}", fmt)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < size / 4, (peak, size)

    @pytest.mark.parametrize(
        "fmt, table, match",
        [
            # A ragged column, and a NaN in the third JSON batch.
            ("csv", lambda: {"x": list(range(6_000)), "y": list(range(5_000))},
             "columns .* differ in length"),
            ("json", lambda: {"x": [i / 2 if i != 2 * dataio._BATCH_ROWS + 100 else float("nan")
                                    for i in range(6_000)]},
             "not JSON compliant"),
        ],
    )
    def test_failed_write_leaves_target_as_it_was(self, tmp_path, fmt, table, match):
        p = tmp_path / f"table.{fmt}"
        p.write_text("old content\n", encoding="utf-8")
        with pytest.raises(ValueError, match=match):
            write_table(table(), p, fmt)
        assert p.read_text(encoding="utf-8") == "old content\n"
        assert os.listdir(tmp_path) == [p.name]

    def test_rewrite_keeps_file_mode(self, tmp_path):
        p = tmp_path / "table.csv"
        p.write_text("old content\n", encoding="utf-8")
        p.chmod(0o640)
        write_table(TestTables.TABLE, p, "csv")
        assert stat.S_IMODE(p.stat().st_mode) == 0o640
        assert read_table(p) == TestTables.ROWS

    def test_symlink_stays_a_link(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old content\n", encoding="utf-8")
        link.symlink_to(target)
        write_table(TestTables.TABLE, link, "csv")
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8") == format_table(TestTables.TABLE, "csv")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_pipe_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(
            target=lambda: got.append(fifo.read_text(encoding="utf-8")), daemon=True
        )
        reader.start()
        write_table(TestTables.TABLE, fifo, "csv")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [format_table(TestTables.TABLE, "csv")]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


@given(
    rows=st.lists(
        st.fixed_dictionaries(
            {
                "n": st.integers(min_value=-(10**9), max_value=10**9),
                "q": st.integers(min_value=-3999, max_value=3999).map(lambda k: k / 4.0),
                # Leading underscore keeps labels away from the spellings the
                # CSV cell parser types as booleans or numbers.
                "label": st.text(
                    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12
                ).map(lambda s: "_" + s),
                "ok": st.booleans(),
            }
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=15, deadline=None)
def test_table_round_trip_typed(tmp_path_factory, rows):
    base = tmp_path_factory.mktemp("tables")
    for fmt in ("csv", "json"):
        p = base / f"t.{fmt}"
        write_table({key: [row[key] for row in rows] for key in rows[0]}, p, fmt)
        back = read_table(p)
        assert len(back) == len(rows)
        for got, want in zip(back, rows):
            assert got["n"] == want["n"]
            assert got["label"] == want["label"]
            assert got["ok"] is want["ok"]
            assert float(got["q"]) == want["q"]
