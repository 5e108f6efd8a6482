"""Demand curves for re-dispatch cover at one hour, swept over penalty factors:
``brsim demand-curve`` on day24.json at hour 12 for alphas 0.1, 0.3 and 0.5,
41 points, into out/demand_curves.csv; its flags override. The curves for
larger factors dominate pointwise, which is the first thing to eyeball.
"""

from _run import exit_code, run_command
from brsim import dataio


def main() -> int:
    args, code, rows = run_command("demand-curve", "--hour 12 --points 41 --out out/demand_curves.csv",
                                   "--alpha", "0.1,0.3,0.5")
    if code:
        return code
    cfg = dataio.load_scenario(args.scenario)
    schedule, price = cfg.vg.da_schedule_mw[args.hour], cfg.da_price[args.hour]
    print(f"hour {args.hour}: schedule {schedule:.1f} MW at {price:.2f} $/MWh")
    # The down curves come first, one per alpha, each from q = 0.
    for row in rows[: len(rows) // 2 : args.points]:
        print(f"  alpha={float(row['alpha'])}: willingness to pay at q=0 is "
              f"{float(row['marginal_value']):.3f} $/MW")
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(exit_code(main))
