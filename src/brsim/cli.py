"""Command line front end.

Subcommands: demand-curve, optimal, profit-sweep, simulate-day, supply-risk.
Exit codes: 0 success, 1 domain error (bad files, infeasible inputs),
2 usage error. Tables go to --out when given, else CSV to stdout.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from . import dataio, provider, simulation, vg
from .dataio import ScenarioError
from .market import PhaseError
from .provider import RISK_HEADROOM, RISK_UNITS, ScenarioModel

DEFAULT_PRICE_RATIOS = tuple(round(0.05 * i, 2) for i in range(11))  # 0 .. 0.5
# The largest value a price, ratio or scale flag takes. It is the scenario
# schema's bound on prices and factors, which keeps every cash flow and
# variance finite (see docs/schemas.md).
_FLAG_MAX = 1e6

CONTRACT_COLUMNS = [
    "id", "hour", "buyer", "seller", "direction", "quantity_mw",
    "premium_price", "status", "executed_mw", "trimmed_mw",
]
LEDGER_COLUMNS = ["hour", "payer", "payee", "amount", "tag"]
TOTALS_COLUMNS = ["party", "net_cash"]


class UsageError(ValueError):
    """Bad argument values caught after argparse (maps to exit code 2)."""


def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _emit(rows, args) -> None:
    if args.out is None:
        sys.stdout.write(dataio.format_table(rows, args.format))
        return
    dataio.write_table(rows, args.out, args.format)
    print(f"wrote {args.out}")


def _check_nonnegative(flag: str, value: float) -> None:
    if not 0.0 <= value <= _FLAG_MAX:
        raise UsageError(f"{flag} must be in [0, {_FLAG_MAX:g}], got {value}")


def _check_hour(cfg: dataio.ScenarioConfig, hour: int) -> int:
    if not 0 <= hour < cfg.horizon:
        raise UsageError(f"--hour {hour} outside scenario horizon {cfg.horizon}")
    return hour


def cmd_demand_curve(args) -> None:
    cfg = dataio.load_scenario(args.scenario)
    hour = _check_hour(cfg, args.hour)
    alphas = [a for chunk in args.alpha for a in chunk] if args.alpha else [
        cfg.penalty.over
    ]
    for a in alphas:
        if not 0.0 <= a <= 1.0:
            raise UsageError(f"--alpha values must be in [0, 1], got {a}")
    if args.points < 2:
        raise UsageError(f"--points must be >= 2, got {args.points}")
    _emit(simulation.demand_curve_rows(cfg, hour, alphas, args.points), args)


def cmd_optimal(args) -> None:
    cfg = dataio.load_scenario(args.scenario)
    hour = _check_hour(cfg, args.hour)
    s, pf, d = simulation.hour_context(cfg, hour)
    for flag, price in (("--down-price", args.down_price), ("--up-price", args.up_price)):
        if price is not None:
            _check_nonnegative(flag, price)
    model_down, model_up = cfg.brs_price.prices_at(s.da_price)
    down_price = args.down_price if args.down_price is not None else model_down
    up_price = args.up_price if args.up_price is not None else model_up
    pos = vg.optimal_position(s, pf, d, down_price, up_price)
    report = vg.oic_report(s, pf, pos, d)
    gross = vg.expected_revenue(s, pf, pos, d)
    rows = [
        {
            "hour": hour,
            "down_qty_mw": pos.down_qty,
            "up_qty_mw": pos.up_qty,
            "down_price": pos.down_price,
            "up_price": pos.up_price,
            "gross_expected_revenue": gross,
            "net_expected_revenue": gross - report.premium_paid,
            "premium_paid": report.premium_paid,
            "expected_residual_penalty": report.expected_residual_penalty,
            "total_oic": report.total_oic,
            "consumer_surplus": report.consumer_surplus,
        }
    ]
    _emit(rows, args)


def cmd_profit_sweep(args) -> None:
    cfg = dataio.load_scenario(args.scenario)
    ratios = (
        [r for chunk in args.price_ratios for r in chunk]
        if args.price_ratios
        else list(DEFAULT_PRICE_RATIOS)
    )
    scales = (
        [k for chunk in args.variance_scales for k in chunk]
        if args.variance_scales
        else list(cfg.variance_scale_factors)
    )
    for r in ratios:
        _check_nonnegative("--price-ratios", r)
    for k in scales:
        _check_nonnegative("--variance-scales", k)
    _emit(simulation.profit_sweep(cfg, ratios, scales), args)


def cmd_simulate_day(args) -> None:
    cfg = dataio.load_scenario(args.scenario)
    result = simulation.simulate_day(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Each table is built again for each format, so none is held whole.
    tables = (
        ("contracts", simulation.contract_rows, CONTRACT_COLUMNS),
        ("ledger", simulation.ledger_rows, LEDGER_COLUMNS),
        ("totals", simulation.totals_rows, TOTALS_COLUMNS),
    )
    for name, rows, columns in tables:
        for fmt in ("csv", "json"):
            path = out_dir / f"{name}.{fmt}"
            dataio.write_table(rows(result), path, fmt, columns)
            print(f"wrote {path}")


def cmd_supply_risk(args) -> None:
    if not -1.0 <= args.correlation <= 1.0:
        raise UsageError(f"--correlation must be in [-1, 1], got {args.correlation}")
    if args.samples < 2:
        raise UsageError(f"--samples must be >= 2, got {args.samples}")
    model = ScenarioModel(correlation=args.correlation, execution_limit=RISK_HEADROOM)
    if args.exhaustive:
        scenarios = provider.exhaustive_scenarios(model)
    else:
        scenarios = provider.generate_scenarios(model, args.samples, args.seed)
    if args.unit_kind == "both":
        base, marginal = RISK_UNITS["base_load"], RISK_UNITS["marginal"]
        cmp_ = provider.compare_kinds(base, marginal, scenarios)
        reports = {"base_load": cmp_.base, "marginal": cmp_.marginal}
    else:
        reports = {args.unit_kind: provider.risk_report(RISK_UNITS[args.unit_kind], scenarios)}
    rows = [{"kind": kind, **asdict(report)} for kind, report in reports.items()]
    _emit(rows, args)
    if args.unit_kind == "both":
        print(f"verdict: marginal_less_risky={str(cmp_.marginal_less_risky).lower()}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brsim",
        description="Bilateral re-dispatch capacity market tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--out", type=Path, default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=dataio.TABLE_FORMATS, default="csv")

    p = sub.add_parser("demand-curve", help="marginal value of cover vs quantity")
    p.add_argument("scenario", type=Path)
    p.add_argument("--hour", type=int, default=0)
    p.add_argument("--alpha", type=_float_list, action="append",
                   help="penalty factor(s), comma-separated and/or repeated")
    p.add_argument("--points", type=int, default=21)
    add_output_flags(p)
    p.set_defaults(func=cmd_demand_curve)

    p = sub.add_parser("optimal", help="optimal cover and its cost report")
    p.add_argument("scenario", type=Path)
    p.add_argument("--hour", type=int, default=0)
    p.add_argument("--down-price", type=float, default=None)
    p.add_argument("--up-price", type=float, default=None)
    add_output_flags(p)
    p.set_defaults(func=cmd_optimal)

    p = sub.add_parser("profit-sweep", help="expected profit over premium ratios and variance scales")
    p.add_argument("scenario", type=Path)
    p.add_argument("--price-ratios", type=_float_list, action="append",
                   help=f"premium/DA-price ratios (default {','.join(str(r) for r in DEFAULT_PRICE_RATIOS)})")
    p.add_argument("--variance-scales", type=_float_list, action="append",
                   help="variance scale factors (default: scenario's variance_scale_factors)")
    add_output_flags(p)
    p.set_defaults(func=cmd_profit_sweep)

    p = sub.add_parser("simulate-day", help="run the full lifecycle and dump ledger/contracts")
    p.add_argument("scenario", type=Path)
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=cmd_simulate_day)

    p = sub.add_parser("supply-risk", help="incremental cash-flow risk of selling cover")
    p.add_argument("--unit-kind", choices=["both", "base_load", "marginal"], default="both")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--correlation", type=float, default=0.0)
    p.add_argument("--exhaustive", action="store_true",
                   help="replace sampling with the two-point joint enumeration")
    add_output_flags(p)
    p.set_defaults(func=cmd_supply_risk)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ScenarioError, PhaseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
