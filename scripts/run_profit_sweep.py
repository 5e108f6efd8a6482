"""Expected daily profit at the optimal cover, over premium ratios and
forecast-variance scales: ``brsim profit-sweep`` on day24.json for scales
0.5, 1, 1.5 and 2, into out/profit_sweep.csv; its flags override.

Reproduces the two limits worth checking by hand: at ratio 0 every scale
collapses onto the DA value of the mean (cover is free, the hedge is
perfect), and once the ratio clears both penalty factors the position is
zero and each scale sits at its own no-cover revenue.
"""

from _run import run_command
from brsim import cli, dataio


def main() -> None:
    args, table = run_command("profit-sweep", "--out out/profit_sweep.csv",
                              "--variance-scales", "0.5,1,1.5,2")
    cfg = dataio.load_scenario(args.scenario)
    ideal = sum(cfg.da_price[h] * cfg.vg.forecast_mean_mw[h] for h in range(cfg.horizon))
    print(f"DA value of the mean profile: {ideal:,.0f} $")
    # The rows are sorted by (scale, ratio).
    rows = [dict(zip(table, cells)) for cells in zip(*table.values())]
    first = {row["variance_scale"]: row for row in reversed(rows)}
    for scale, last in {row["variance_scale"]: row for row in rows}.items():
        # Past both penalty factors no cover is bought: gross is the no-cover revenue.
        print(f"  scale {scale}: profit {first[scale]['expected_profit']:,.0f} $ at ratio "
              f"{first[scale]['price_ratio']} falling to {last['expected_profit']:,.0f} $ at ratio "
              f"{last['price_ratio']} (no-cover level {last['gross_expected_revenue']:,.0f} $)")
    print(f"wrote {args.out} ({len(rows)} rows)")


if __name__ == "__main__":
    raise SystemExit(cli.exit_code(main))
