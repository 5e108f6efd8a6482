"""Command line front end.

Subcommands: demand-curve, optimal, profit-sweep, simulate-day, supply-risk.
Exit codes: 0 success, 1 domain error (bad files, infeasible inputs),
2 usage error. Tables go to --out when given, else to stdout, in --format
(CSV by default).
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import dataio, provider, simulation, vg
from .provider import RISK_HEADROOM, RISK_UNITS, RiskReport, ScenarioModel

DEFAULT_PRICE_RATIOS = tuple(round(0.05 * i, 2) for i in range(11))  # 0 .. 0.5
# The largest value a price, ratio or scale flag takes. It is the scenario
# schema's bound on prices and factors, which keeps every cash flow and
# variance finite (see docs/schemas.md).
_FLAG_MAX = 1e6
# The most draws supply-risk takes. Its memory does not grow with the draws,
# so this bounds run time: 10**7 draws for both kinds took about 0.8 s on a
# 2-core machine.
_SAMPLES_MAX = 10**8
# The most cells demand-curve's (direction, alpha, point) grid and
# profit-sweep's (scale, ratio, hour) grid take. Above a base of about 56 MB,
# a demand-curve cell costs about 43 bytes (peak RSS on day24, in either
# format, to stdout or --out), so its largest grid takes about 230 MB, and
# the cap bounds its time: about 7 s in CSV and 13 s in JSON on a 2-core
# machine. profit-sweep holds one block of cells
# (simulation._SWEEP_BLOCK) and about 110 bytes per output row (71 MB at
# the cap on day24), so for it the cap bounds time: about 3 s per 1.6 M
# cells on a 2-core machine.
_CELLS_MAX = 4 * 10**6


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


def _emit(table, args) -> None:
    if args.out is None:
        sys.stdout.writelines(dataio.table_text(table, args.format))
        return
    dataio.write_table(table, args.out, args.format)
    print(f"wrote {args.out}")


def _check_nonnegative(flag: str, value: float) -> None:
    if not 0.0 <= value <= _FLAG_MAX:
        raise UsageError(f"{flag} must be in [0, {_FLAG_MAX:g}], got {value}")


def _hour_context(cfg: dataio.ScenarioConfig, hour: int):
    """``simulation.hour_context``, with an hour outside the horizon a usage
    error."""
    try:
        return simulation.hour_context(cfg, hour)
    except IndexError as exc:
        raise UsageError(f"--{exc}") from None


# A table command's function takes the parsed flags and returns the table's
# columns. It checks every flag it can before any work.
def demand_curve_table(args) -> dict:
    for a in args.alpha or ():
        if not 0.0 <= a <= 1.0:
            raise UsageError(f"--alpha values must be in [0, 1], got {a}")
    if args.points < 2:
        raise UsageError(f"--points must be >= 2, got {args.points}")
    n_alpha = len(args.alpha or [None])  # without --alpha, the scenario's penalty
    if 2 * n_alpha * args.points > _CELLS_MAX:
        raise UsageError(f"--points ({args.points}) x --alpha ({n_alpha}) x 2 directions "
                         f"exceeds {_CELLS_MAX} cells")
    cfg = dataio.load_scenario(args.scenario)
    s, _, d = _hour_context(cfg, args.hour)
    alphas = args.alpha or [cfg.penalty.over]
    return simulation.demand_curve_rows(s, d, alphas, args.points)


def optimal_table(args) -> dict:
    for flag, price in (("--down-price", args.down_price), ("--up-price", args.up_price)):
        if price is not None:
            _check_nonnegative(flag, price)
    cfg = dataio.load_scenario(args.scenario)
    s, pf, d = _hour_context(cfg, args.hour)
    model_down, model_up = cfg.brs_price.prices_at(s.da_price)
    down_price = args.down_price if args.down_price is not None else model_down
    up_price = args.up_price if args.up_price is not None else model_up
    pos = vg.optimal_position(s, pf, d, down_price, up_price)
    row = {"hour": args.hour, "down_qty_mw": pos.down_qty, "up_qty_mw": pos.up_qty,
           "down_price": pos.down_price, "up_price": pos.up_price,
           **vars(vg.oic_report(s, pf, pos, d))}
    return {name: np.array([value]) for name, value in row.items()}


def profit_sweep_table(args) -> dict:
    for r in args.price_ratios or ():
        _check_nonnegative("--price-ratios", r)
    for k in args.variance_scales or ():
        _check_nonnegative("--variance-scales", k)
    cfg = dataio.load_scenario(args.scenario)
    ratios = args.price_ratios or list(DEFAULT_PRICE_RATIOS)
    scales = args.variance_scales or list(cfg.variance_scale_factors)
    if len(scales) * len(ratios) * cfg.horizon > _CELLS_MAX:
        raise UsageError(f"--variance-scales ({len(scales)}) x --price-ratios ({len(ratios)}) x "
                         f"{cfg.horizon} hours exceeds {_CELLS_MAX} cells")
    return simulation.profit_sweep(cfg, ratios, scales)


def cmd_table(args) -> None:
    _emit(args.table(args), args)


def cmd_simulate_day(args) -> None:
    # The config is dropped before the tables are written.
    result = simulation.simulate_day(dataio.load_scenario(args.scenario))
    tables = {"contracts": simulation.contract_rows, "ledger": simulation.ledger_rows,
              "totals": simulation.totals_rows}
    for name, table in tables.items():
        columns = table(result)
        for fmt in ("csv", "json"):
            path = args.out_dir / f"{name}.{fmt}"
            dataio.write_table(columns, path, fmt)
            print(f"wrote {path}")
        # Released before the next table's columns are built.
        del columns


def supply_risk_table(args) -> dict:
    if args.exhaustive and args.correlation != 0.0:
        raise UsageError(f"--correlation must be 0 with --exhaustive, whose four-outcome law "
                         f"has no correlation; got {args.correlation}")
    try:
        model = ScenarioModel(correlation=args.correlation, execution_limit=RISK_HEADROOM)
    except ValueError as exc:  # the correlation is the one argument a user sets
        raise UsageError(f"--{exc}") from None
    if args.exhaustive:
        draws = [provider.exhaustive_scenarios(model)]
    else:
        if not 2 <= args.samples <= _SAMPLES_MAX:
            raise UsageError(f"--samples must be in [2, {_SAMPLES_MAX}], got {args.samples}")
        if args.seed < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        draws = provider.generate_scenarios(model, args.samples, args.seed)
    kinds = tuple(RISK_UNITS) if args.unit_kind == "both" else (args.unit_kind,)
    reports = provider.risk_report([RISK_UNITS[k] for k in kinds], draws)
    # Row i is kind i.
    table = {"kind": dataio.Coded(kinds, np.arange(len(kinds)))}
    for f in fields(RiskReport):
        table[f.name] = np.array([getattr(report, f.name) for report in reports])
    return table


def cmd_supply_risk(args) -> None:
    table = supply_risk_table(args)
    _emit(table, args)
    if args.unit_kind == "both":
        # Selling cover adds less cash-flow variance to the marginal unit than
        # to the base-load one: a strict "<", so a tie is not less risky.
        incremental = dict(zip(table["kind"].labels, table["incremental_variance"].tolist()))
        less = incremental["marginal"] < incremental["base_load"]
        print(f"verdict: marginal_less_risky={str(less).lower()}")


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
    p.add_argument("--alpha", type=_float_list, action="extend",
                   help="penalty factor(s), comma-separated and/or repeated")
    p.add_argument("--points", type=int, default=21)
    add_output_flags(p)
    p.set_defaults(func=cmd_table, table=demand_curve_table)

    p = sub.add_parser("optimal", help="optimal cover and its cost report")
    p.add_argument("scenario", type=Path)
    p.add_argument("--hour", type=int, default=0)
    p.add_argument("--down-price", type=float, default=None)
    p.add_argument("--up-price", type=float, default=None)
    add_output_flags(p)
    p.set_defaults(func=cmd_table, table=optimal_table)

    p = sub.add_parser("profit-sweep", help="expected profit over premium ratios and variance scales")
    p.add_argument("scenario", type=Path)
    p.add_argument("--price-ratios", type=_float_list, action="extend",
                   help=f"premium/DA-price ratios (default {','.join(str(r) for r in DEFAULT_PRICE_RATIOS)})")
    p.add_argument("--variance-scales", type=_float_list, action="extend",
                   help="variance scale factors (default: scenario's variance_scale_factors)")
    add_output_flags(p)
    p.set_defaults(func=cmd_table, table=profit_sweep_table)

    p = sub.add_parser("simulate-day", help="run the full lifecycle and dump ledger/contracts")
    p.add_argument("scenario", type=Path)
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=cmd_simulate_day)

    p = sub.add_parser("supply-risk", help="incremental cash-flow risk of selling cover")
    p.add_argument("--unit-kind", choices=["both", "base_load", "marginal"], default="both")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--correlation", type=float, default=0.0,
                   help="price/shortage correlation of the sampled law (default 0)")
    p.add_argument("--exhaustive", action="store_true",
                   help="replace sampling with the four-outcome enumeration, which ignores "
                        "--samples and --seed and has no correlation: --correlation must be 0")
    add_output_flags(p)
    p.set_defaults(func=cmd_supply_risk)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
