"""Incremental cash-flow variance from selling re-dispatch cover, swept over
the price/shortage correlation: ``brsim supply-risk`` per correlation, and
exhaustive as a check. Every other flag goes to each run; ``--format`` also
sets this table's format.

At zero correlation the two unit kinds are indistinguishable (the covariance
term in the variance delta vanishes). As the correlation grows the marginal
unit, whose RT dispatch already tracks the price, absorbs part of the shift
payoff and its increment drops below the base-load unit's.
"""
import argparse
import sys
from pathlib import Path

from brsim import cli, dataio


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--correlation", action="append", help="default 0,0.2,0.4,0.6,0.8")
    ap.add_argument("--out", type=Path, default=Path("out/supply_risk.csv"))
    argv = sys.argv[1:]
    # argparse reads a list that starts with a minus sign ("-0.8,0") as a
    # flag; joined to its flag, it is a value.
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--correlation":
            argv[i:i + 2] = [f"--correlation={argv[i + 1]}"]
    own, rest = ap.parse_known_args(argv)
    rhos = ",".join(own.correlation or ["0,0.2,0.4,0.6,0.8"]).split(",")
    parser = cli.build_parser()
    runs = [parser.parse_args(["supply-risk", *rest, *flags])
            for flags in [["--exhaustive", "--unit-kind", "base_load"],
                          *(["--correlation", rho, "--unit-kind", "both"] for rho in rhos)]]
    # Every run's flags pass cli's checks before the first run starts.
    for args in runs:
        cli.supply_risk_model(args)
    exhaustive, *swept = (cli.supply_risk_table(args) for args in runs)
    incremental = [dict(zip(run["kind"], run["incremental_variance"])) for run in swept]
    table = {"correlation": [float(rho) for rho in rhos],
             "base_incremental": [run["base_load"] for run in incremental],
             "marginal_incremental": [run["marginal"] for run in incremental],
             "marginal_less_risky": [cli.marginal_less_risky(run) for run in swept]}
    dataio.write_table(table, own.out, runs[0].format)
    print("exhaustive four-outcome check: incremental variance {incremental_variance:.1f} $^2 "
          "(expected delta {expected_delta:+.1f})".format(
              **{name: column[0] for name, column in exhaustive.items()}))
    for row in zip(*table.values()):
        print("  rho={:.1f}: base {:9.1f} $^2, marginal {:9.1f} $^2, "
              "marginal less risky: {}".format(*row))
    print(f"wrote {own.out} ({len(rhos)} rows)")


if __name__ == "__main__":
    raise SystemExit(cli.exit_code(main))
