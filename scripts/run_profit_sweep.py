"""Expected daily profit at the optimal cover, over premium ratios and
forecast-variance scales.

Reproduces the two limits worth checking by hand: at ratio 0 every scale
collapses onto the DA value of the mean (cover is free, the hedge is
perfect), and once the ratio clears both penalty factors the position is
zero and each scale sits at its own no-cover revenue.
"""
import argparse
from pathlib import Path

from brsim import dataio, simulation
from brsim.cli import DEFAULT_PRICE_RATIOS

REPO = Path(__file__).resolve().parent.parent
DEFAULT_SCENARIO = REPO / "scenarios" / "day24.json"
DEFAULT_SCALES = (0.5, 1.0, 1.5, 2.0)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", type=Path, default=DEFAULT_SCENARIO)
    ap.add_argument("--ratios", type=float, nargs="+", default=list(DEFAULT_PRICE_RATIOS))
    ap.add_argument("--scales", type=float, nargs="+", default=list(DEFAULT_SCALES))
    ap.add_argument("--out", type=Path, default=Path("out/profit_sweep.csv"))
    args = ap.parse_args()

    cfg = dataio.load_scenario(args.scenario)
    table = simulation.profit_sweep(cfg, args.ratios, args.scales)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    dataio.write_table(table, args.out, args.out.suffix.lstrip("."))

    ideal = sum(
        cfg.da_price[h] * cfg.vg.forecast_mean_mw[h] for h in range(cfg.horizon)
    )
    print(f"DA value of the mean profile: {ideal:,.0f} $")
    profit, ratio = table["expected_profit"], table["price_ratio"]
    for scale in sorted(args.scales):
        at = [i for i, k in enumerate(table["variance_scale"]) if k == scale]
        first, last = at[0], at[-1]
        # Once the ratio clears both penalty factors no cover is bought, so
        # the gross revenue is the no-cover revenue.
        print(
            f"  scale {scale}: profit {profit[first]:,.0f} $ at "
            f"ratio {ratio[first]} falling to {profit[last]:,.0f} $ "
            f"at ratio {ratio[last]} "
            f"(no-cover level {table['gross_expected_revenue'][last]:,.0f} $)"
        )
    print(f"wrote {args.out} ({len(profit)} rows)")


if __name__ == "__main__":
    main()
