"""Command line interface: outputs, formats, exit codes."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from brsim import cli, provider, simulation, vg
from brsim.cli import main
from brsim.dataio import load_scenario
from goldens import RUNS, check
from oracles import read_table, table_rows

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
SINGLE = str(SCENARIOS / "single_hour.json")
DAY = str(SCENARIOS / "day24.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def assert_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: brsim ")
    for command in ("demand-curve", "optimal", "profit-sweep", "simulate-day", "supply-risk"):
        assert command in proc.stdout


class TestDemandCurve:
    def test_default_table(self, capsys):
        code, out, err = run_cli(capsys, "demand-curve", SINGLE, "--points", "5")
        assert code == 0
        assert err == ""
        rows = parse_csv(out)
        assert len(rows) == 2 * 5  # both directions, one alpha
        assert rows[0].keys() == {"direction", "alpha", "quantity_mw", "marginal_value"}
        assert {r["direction"] for r in rows} == {"down", "up"}

    def test_multiple_alphas(self, capsys):
        code, out, _ = run_cli(
            capsys, "demand-curve", SINGLE, "--points", "3",
            "--alpha", "0.1,0.3", "--alpha", "0.5",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2 * 3 * 3
        assert {r["alpha"] for r in rows} == {"0.1", "0.3", "0.5"}

    def test_alpha_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "demand-curve", SINGLE, "--alpha", "1.5")
        assert code == 2
        assert "usage error" in err

    @pytest.mark.parametrize("value, message", [
        ("x", "expected comma-separated numbers, got 'x'"),
        (",", "expected at least one number"),
    ])
    def test_alpha_that_is_no_list_of_numbers(self, capsys, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["demand-curve", DAY, f"--alpha={value}"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f": error: argument --alpha: {message}\n")

    def test_grid_bound_is_checked_before_the_scenario_is_read(self, capsys, tmp_path):
        points = cli._CELLS_MAX // 4 + 1  # two alphas, two directions
        code, out, err = run_cli(capsys, "demand-curve", str(tmp_path / "missing.json"),
                                 "--alpha", "0.1,0.2", "--points", str(points))
        assert code == 2 and out == ""
        assert err == (f"usage error: --points ({points}) x --alpha (2) x 2 directions "
                       f"exceeds {cli._CELLS_MAX} cells\n")

    def test_hour_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "demand-curve", SINGLE, "--hour", "5")
        assert code == 2
        assert "usage error" in err

    def test_missing_scenario_file(self, capsys):
        code, _, err = run_cli(capsys, "demand-curve", "nope.json")
        assert code == 1
        assert err.startswith("error:")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli(capsys, "demand-curve", SINGLE, "--out", str(target))
        assert code == 0
        assert f"wrote {target}" in out
        assert target.exists()
        assert parse_csv(target.read_text())


class TestOptimal:
    def test_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "optimal", SINGLE, "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        cfg = load_scenario(SINGLE)
        s, pf, d = simulation.hour_context(cfg, 0)
        down_price, up_price = cfg.brs_price.prices_at(s.da_price)
        pos = vg.optimal_position(s, pf, d, down_price, up_price)
        assert row["down_qty_mw"] == pytest.approx(pos.down_qty)
        assert row["up_qty_mw"] == pytest.approx(pos.up_qty)
        assert row["gross_expected_revenue"] == pytest.approx(
            vg.expected_revenue(s, pf, pos, d)
        )
        assert row["total_oic"] == pytest.approx(
            row["premium_paid"] + row["expected_residual_penalty"]
        )

    def test_evaluates_expected_revenue_twice(self, capsys, monkeypatch):
        # Once at the position and once at no cover, both inside oic_report.
        calls = []

        def counted(*args):
            calls.append(args)
            return expected_revenue(*args)

        expected_revenue = vg.expected_revenue
        monkeypatch.setattr(vg, "expected_revenue", counted)
        code, _, _ = run_cli(capsys, "optimal", DAY, "--hour", "7")
        assert code == 0
        assert len(calls) == 2

    def test_out_file_in_new_directory(self, capsys, tmp_path):
        target = tmp_path / "new" / "dir" / "x.csv"
        code, out, _ = run_cli(capsys, "optimal", DAY, "--hour", "7", "--out", str(target))
        assert code == 0
        assert out == f"wrote {target}\n"
        assert target.is_file()

    def test_price_overrides(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimal", SINGLE, "--format", "json",
            "--down-price", "9.0", "--up-price", "9.0",
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["down_qty_mw"] == 0.0
        assert row["up_qty_mw"] == 0.0

    def test_negative_price_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "optimal", SINGLE, "--down-price", "-1")
        assert code == 2
        assert "usage error" in err


class TestProfitSweep:
    def test_default_grid(self, capsys):
        code, out, _ = run_cli(capsys, "profit-sweep", SINGLE)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 11  # ratios 0.0 .. 0.5 at the scenario's one scale
        ratios = [float(r["price_ratio"]) for r in rows]
        assert ratios == sorted(ratios)

    def test_explicit_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "profit-sweep", DAY, "--format", "json",
            "--price-ratios", "0,0.2", "--variance-scales", "0.5,2.0",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4
        # Free cover is worth at least as much as priced cover, hour by hour.
        by_scale = {}
        for r in rows:
            by_scale.setdefault(r["variance_scale"], {})[r["price_ratio"]] = r[
                "expected_profit"
            ]
        for scale_rows in by_scale.values():
            assert scale_rows[0.0] >= scale_rows[0.2] - 1e-9

    # The runs that pin tables of the scalar implementation that the broadcast
    # sweep replaced; the wide grid reaches the variance floor and sub-1 shapes.
    @pytest.mark.parametrize("name", ["profit_sweep_day24", "profit_sweep_day24_wide"])
    def test_matches_scalar_implementation(self, tmp_path, name):
        runs = [run for run in RUNS if {f"{name}.csv", f"{name}.json"} & run.outputs().keys()]
        assert runs
        for run in runs:
            (tmp_path / run.name).mkdir()
            failures = check(run, tmp_path / run.name)
            assert not failures, "\n".join(failures)

    def test_wide_grid_keeps_its_bits(self, tmp_path, monkeypatch):
        # The full-precision JSON of the wide grid (6 scales x 7 ratios x 24
        # hours), byte for byte, in blocks of one row, of part of one scale's
        # ratios, of two whole scales, and of the whole grid.
        [run] = [run for run in RUNS if run.name == "wide-json"]
        for block in (24, 3 * 24, 14 * 24, simulation._SWEEP_BLOCK):
            monkeypatch.setattr(simulation, "_SWEEP_BLOCK", block)
            (tmp_path / str(block)).mkdir()
            failures = check(run, tmp_path / str(block))
            assert not failures, f"block {block}: " + "\n".join(failures)

    def test_grid_bound_is_checked_before_any_array(self, capsys, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("swept")

        monkeypatch.setattr(simulation, "profit_sweep", no_sweep)
        # day24's 24 hours, and one scale-ratio pair more than the bound allows.
        n = cli._CELLS_MAX // 24 // 1000 + 1
        scales, ratios = ",".join(["1"] * 1000), ",".join(["0.1"] * n)
        code, out, err = run_cli(capsys, "profit-sweep", DAY, "--variance-scales", scales,
                                 "--price-ratios", ratios)
        assert code == 2 and out == ""
        assert err == (f"usage error: --variance-scales (1000) x --price-ratios ({n}) x "
                       f"24 hours exceeds {cli._CELLS_MAX} cells\n")

    def test_negative_ratio_rejected(self, capsys):
        code, _, err = run_cli(capsys, "profit-sweep", SINGLE, "--price-ratios", "-0.1")
        assert code == 2
        assert "usage error" in err


class TestSimulateDay:
    def test_writes_all_tables(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "simulate-day", SINGLE, "--out-dir", str(out_dir))
        assert code == 0
        names = {f"{name}.{fmt}" for name in ("contracts", "ledger", "totals")
                 for fmt in ("csv", "json")}
        assert {p.name for p in out_dir.iterdir()} == names
        assert out.count("wrote ") == 6

        contracts = read_table(out_dir / "contracts.csv")
        assert len(contracts) == 1
        assert contracts[0]["executed_mw"] == 20
        totals = read_table(out_dir / "totals.json")
        assert sum(r["net_cash"] for r in totals) == pytest.approx(0.0, abs=1e-9)
        ledger = read_table(out_dir / "ledger.json")
        cfg = load_scenario(SINGLE)
        assert ledger == table_rows(simulation.ledger_rows(simulation.simulate_day(cfg)))

    def test_out_dir_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate-day", SINGLE])
        assert exc.value.code == 2


class TestSupplyRisk:
    def test_exhaustive_enumeration(self, capsys):
        code, out, _ = run_cli(capsys, "supply-risk", "--exhaustive")
        assert code == 0
        rows = parse_csv(out.split("verdict:")[0])
        assert {r["kind"] for r in rows} == {"base_load", "marginal"}
        for r in rows:
            assert float(r["incremental_variance"]) == 2500.0
        assert "verdict: marginal_less_risky=false" in out

    def test_correlated_sampling_flips_verdict(self, capsys):
        # A negative correlation, passed as its own argument, is a value.
        for rho, verdict in [("0.5", "true"), ("-0.8", "false")]:
            code, out, _ = run_cli(
                capsys, "supply-risk", "--correlation", rho,
                "--samples", "20000", "--seed", "3",
            )
            assert code == 0
            assert out.endswith(f"verdict: marginal_less_risky={verdict}\n"), rho

    def test_single_kind_has_no_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "supply-risk", "--exhaustive", "--unit-kind", "marginal"
        )
        assert code == 0
        assert "verdict" not in out
        assert len(parse_csv(out)) == 1

    def test_correlation_bounds(self, capsys):
        code, _, err = run_cli(capsys, "supply-risk", "--correlation", "2.0")
        assert code == 2
        assert "usage error" in err

    def test_sample_floor(self, capsys):
        code, _, err = run_cli(capsys, "supply-risk", "--samples", "1")
        assert code == 2
        assert "usage error" in err

    def test_exhaustive_ignores_sampling_flags(self, capsys, tmp_path):
        path = tmp_path / "risk.csv"
        code, out, err = run_cli(capsys, "supply-risk", "--exhaustive", "--samples", "1",
                                 "--seed", "-1", "--out", str(path))
        assert (code, out, err) == (0, f"wrote {path}\nverdict: marginal_less_risky=false\n", "")
        code, _, err = run_cli(capsys, "supply-risk", "--samples", "1")
        assert code == 2
        assert err == "usage error: --samples must be in [2, 100000000], got 1\n"

    @pytest.mark.parametrize("rho", ["0.8", "-1", "nan"])
    def test_exhaustive_refuses_a_correlation_before_any_work(self, capsys, monkeypatch, rho):
        def no_work(*args):
            raise AssertionError("enumerated scenarios")

        monkeypatch.setattr(provider, "exhaustive_scenarios", no_work)
        code, out, err = run_cli(capsys, "supply-risk", "--exhaustive", f"--correlation={rho}")
        assert code == 2 and out == ""
        assert err == (f"usage error: --correlation must be 0 with --exhaustive, whose "
                       f"four-outcome law has no correlation; got {float(rho)}\n")

    def test_negative_seed_is_checked_before_any_draw(self, capsys, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew scenarios")

        monkeypatch.setattr(provider, "generate_scenarios", no_draws)
        code, out, err = run_cli(capsys, "supply-risk", "--seed", "-1")
        assert code == 2
        assert err == "usage error: --seed must be >= 0, got -1\n"
        assert out == ""

    @pytest.mark.parametrize("samples", ["100000001", "10000000000000"])
    def test_samples_bound_is_checked_before_any_draw(self, capsys, monkeypatch, samples):
        def no_draws(*args):
            raise AssertionError("drew scenarios")

        monkeypatch.setattr(provider, "generate_scenarios", no_draws)
        code, out, err = run_cli(capsys, "supply-risk", "--samples", samples)
        assert code == 2
        assert err == f"usage error: --samples must be in [2, 100000000], got {samples}\n"
        assert out == ""

    def test_single_kind_is_its_row_of_both(self, capsys):
        # JSON keeps every bit; 300,000 draws span 19 chunks.
        flags = ["--samples", "300000", "--seed", "7", "--correlation", "0.4", "--format", "json"]
        _, both, _ = run_cli(capsys, "supply-risk", "--unit-kind", "both", *flags)
        rows = []
        for kind in ("base_load", "marginal"):
            code, out, _ = run_cli(capsys, "supply-risk", "--unit-kind", kind, *flags)
            assert code == 0 and out.startswith("[") and out.endswith("]\n")
            rows.append(out[1:-2])
        assert both.startswith("[" + ", ".join(rows) + "]\nverdict: ")

    def test_seed_changes_sampled_rows(self, capsys):
        _, out_a, _ = run_cli(capsys, "supply-risk", "--samples", "500", "--seed", "1")
        _, out_b, _ = run_cli(capsys, "supply-risk", "--samples", "500", "--seed", "1")
        _, out_c, _ = run_cli(capsys, "supply-risk", "--samples", "500", "--seed", "2")
        assert out_a == out_b
        assert out_a != out_c


def write_doc(tmp_path, name, edit):
    """single_hour.json with ``edit`` applied to its parsed document."""
    doc = json.loads(Path(SINGLE).read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestBadScenario:
    def test_missing_realized_output_names_its_path(self, capsys, tmp_path):
        path = write_doc(tmp_path, "unrealized.json", lambda doc: doc["vg"].pop("realized_mw"))
        out_dir = tmp_path / "run"
        code, out, err = run_cli(capsys, "simulate-day", path, "--out-dir", str(out_dir))
        assert code == 1
        assert err.startswith("error: vg.realized_mw: ")
        assert out == ""
        assert not out_dir.exists()

    def test_deeply_nested_document(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, out, err = run_cli(capsys, "optimal", str(path))
        assert code == 1
        assert err == f"error: {path}: invalid JSON: nested too deeply\n"
        assert "Traceback" not in err and out == ""

    # A finite number too large for the cash flows fails at load, with its
    # JSON path, instead of overflowing to inf or nan.
    @pytest.mark.parametrize("command", ["optimal", "profit-sweep", "simulate-day"])
    def test_huge_da_price(self, capsys, tmp_path, command):
        path = write_doc(tmp_path, "huge.json", lambda doc: doc.update(da_price=[1e308]))
        out_dir = ["--out-dir", str(tmp_path)] if command == "simulate-day" else []
        code, out, err = run_cli(capsys, command, path, *out_dir)
        assert code == 1
        assert err == f"error: {path}.da_price[0]: must be <= 1000000.0, got 1e+308\n"
        assert out == ""

    # Ledgers name parties by id: a unit may not share the producer's id,
    # and neither may take the pool's. Without offers such a day used to
    # run, and merge the two parties' totals into one row.
    @pytest.mark.parametrize("vg_id, unit_id, where, reason", [
        ("wind1", "wind1", ".units[0].id", "id 'wind1' is taken by the producer"),
        ("wind1", "pool", ".units[0].id", "id 'pool' is taken by the settlement pool"),
        ("pool", "g1", ".vg.id", "id 'pool' is reserved for the settlement pool"),
    ], ids=["unit-is-producer", "unit-is-pool", "producer-is-pool"])
    def test_colliding_party_ids(self, capsys, tmp_path, vg_id, unit_id, where, reason):
        def edit(doc):
            doc["vg"]["id"] = vg_id
            doc["units"][0]["id"] = unit_id
            del doc["offers"]

        path = write_doc(tmp_path, "ids.json", edit)
        code, out, err = run_cli(capsys, "simulate-day", path, "--out-dir", str(tmp_path))
        assert code == 1
        assert err == f"error: {path}{where}: {reason}\n"
        assert out == ""

    def test_offer_zone_must_be_its_sellers(self, capsys, tmp_path):
        def edit(doc):
            doc["units"][0]["zone"] = "north"
            doc["offers"][0]["zone"] = "south"

        path = write_doc(tmp_path, "zones.json", edit)
        code, out, err = run_cli(capsys, "simulate-day", path, "--out-dir", str(tmp_path))
        assert code == 1
        assert err == (
            f"error: {path}.offers[0].zone: zone 'south' differs from the seller's zone 'north'\n"
        )
        assert out == ""

    def test_huge_negative_rt_price(self, capsys, tmp_path):
        path = write_doc(tmp_path, "huge.json", lambda doc: doc.update(rt_price=[-1e308]))
        code, out, err = run_cli(capsys, "simulate-day", path, "--out-dir", str(tmp_path))
        assert code == 1
        assert err == f"error: {path}.rt_price[0]: must be >= -1000000.0, got -1e+308\n"
        assert out == ""


# Bad flag values exit 2 with the flag's name, before any library call.
BAD_FLAGS = [
    ("--price-ratios", ["profit-sweep", DAY], ["nan", "inf", "-0.1", "0.1,-inf", "1e308"]),
    ("--variance-scales", ["profit-sweep", DAY], ["nan", "inf", "-1", "1,nan", "1e308"]),
    ("--down-price", ["optimal", DAY], ["nan", "inf", "-1", "1000001", "1e308"]),
    ("--up-price", ["optimal", DAY], ["nan", "-inf", "-1", "1000001", "1e308"]),
    ("--points", ["demand-curve", DAY],
     ["0", "1", "-3", str(cli._CELLS_MAX // 2 + 1), "1000000000"]),
    ("--alpha", ["demand-curve", DAY], ["nan", "1.5"]),
    ("--correlation", ["supply-risk", "--samples", "100"], ["nan", "2.0"]),
    ("--seed", ["supply-risk", "--samples", "100"], ["-1", "-12345678901234567890"]),
]


@pytest.mark.parametrize(
    "flag, command, value",
    [(flag, command, v) for flag, command, values in BAD_FLAGS for v in values],
    ids=[f"{flag}={v}" for flag, _, values in BAD_FLAGS for v in values],
)
def test_bad_flag_value_is_usage_error(capsys, flag, command, value):
    code, out, err = run_cli(capsys, *command, f"{flag}={value}")
    assert code == 2
    assert err.startswith("usage error: ") and flag in err
    assert out == ""


@pytest.mark.parametrize(
    "flag, command, value",
    [(flag, command[0], values[0]) for flag, command, values in BAD_FLAGS if DAY in command],
    ids=[flag for flag, command, _ in BAD_FLAGS if DAY in command],
)
def test_bad_flag_value_is_reported_before_the_scenario_is_read(capsys, tmp_path, flag, command,
                                                                value):
    code, out, err = run_cli(capsys, command, str(tmp_path / "missing.json"), f"{flag}={value}")
    assert code == 2
    assert err.startswith(f"usage error: {flag}")
    assert out == ""


# A table that cannot be written to --out exits 1 with the OS's message.
# ``afile`` is a regular file, so no directory can be made under it.
@pytest.mark.parametrize("out, message", [
    ("afile/x.csv", "[Errno 17] File exists: 'afile'"),
    (".", "[Errno 21] Is a directory: '.'"),
], ids=["under-a-file", "a-directory"])
@pytest.mark.parametrize("command", [["demand-curve", DAY], ["profit-sweep", DAY],
                                     ["supply-risk", "--exhaustive"]],
                         ids=["demand-curve", "profit-sweep", "supply-risk"])
def test_unwritable_out_is_an_error(capsys, tmp_path, monkeypatch, command, out, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    assert run_cli(capsys, *command, "--out", out) == (1, "", f"error: {message}\n")


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_console_script_installed(self):
        # Check the console script an install would create, without installing:
        # read the declared entry point and call it the way pip's wrapper does.
        with open(ROOT / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "brsim" in scripts
        wrapper = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            "ep = EntryPoint('brsim', sys.argv[1], 'console_scripts')\n"
            "sys.argv = ['brsim', '--help']\n"
            "sys.exit(ep.load()())\n"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, scripts["brsim"]],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert_help(proc)

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["supply-risk", "--samples", "1"], 2),
    ], ids=["help", "usage error"])
    def test_python_m_brsim(self, argv, code):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "brsim", *argv], capture_output=True, text=True, timeout=60,
            env=env,
        )
        if code == 0:
            assert_help(proc)
        else:
            assert proc.returncode == code and proc.stdout == ""
            assert proc.stderr.startswith("usage error:"), proc.stderr

    @pytest.mark.skipif(shutil.which("brsim") is None, reason="brsim is not installed on PATH")
    def test_console_script_on_path(self):
        proc = subprocess.run(
            ["brsim", "--help"], capture_output=True, text=True, timeout=60
        )
        assert_help(proc)
