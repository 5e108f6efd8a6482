"""Demand curves for re-dispatch cover at one hour, swept over penalty factors.

Writes one table with both directions nested by penalty factor. The curves
for larger factors dominate pointwise, which is the first thing to eyeball
in the output.
"""
import argparse
from pathlib import Path

from brsim import dataio, simulation

REPO = Path(__file__).resolve().parent.parent
DEFAULT_SCENARIO = REPO / "scenarios" / "day24.json"
DEFAULT_ALPHAS = (0.1, 0.3, 0.5)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", type=Path, default=DEFAULT_SCENARIO)
    ap.add_argument("--hour", type=int, default=12)
    ap.add_argument("--alphas", type=float, nargs="+", default=list(DEFAULT_ALPHAS))
    ap.add_argument("--points", type=int, default=41)
    ap.add_argument("--out", type=Path, default=Path("out/demand_curves.csv"))
    args = ap.parse_args()

    cfg = dataio.load_scenario(args.scenario)
    table = simulation.demand_curve_rows(cfg, args.hour, args.alphas, args.points)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    dataio.write_table(table, args.out, args.out.suffix.lstrip("."))
    schedule, price = cfg.vg.da_schedule_mw[args.hour], cfg.da_price[args.hour]
    print(f"hour {args.hour}: schedule {schedule:.1f} MW at {price:.2f} $/MWh")
    for alpha in args.alphas:
        # The down curves come first, so an alpha's first row is its down
        # curve at q = 0.
        head = table["marginal_value"][table["alpha"].index(alpha)]
        print(f"  alpha={alpha}: willingness to pay at q=0 is {head:.3f} $/MW")
    print(f"wrote {args.out} ({len(table['alpha'])} rows)")


if __name__ == "__main__":
    main()
