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
import contextlib
import io
import json
import sys
from pathlib import Path

from _run import exit_code
from brsim import cli, dataio


def main() -> int:
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
    fmt = parser.parse_args(["supply-risk", *rest]).format
    runs = [["supply-risk", *rest, *flags, "--format", "json"]
            for flags in [["--exhaustive", "--unit-kind", "base_load"],
                          *(["--correlation", rho, "--unit-kind", "both"] for rho in rhos)]]
    # Every run's flags pass cli's checks before the first run starts.
    for argv in runs:
        cli.supply_risk_model(parser.parse_args(argv))
    reports, verdicts = [], []
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = cli.main(argv)
        if code:
            return code
        # The table at full precision, then the verdict line of a run on both kinds.
        rows, end = json.JSONDecoder().raw_decode(text.getvalue())
        reports.append({row["kind"]: row for row in rows})
        verdicts.append(text.getvalue()[end:].strip() == "verdict: marginal_less_risky=true")
    table = {"correlation": [float(rho) for rho in rhos],
             "base_incremental": [r["base_load"]["incremental_variance"] for r in reports[1:]],
             "marginal_incremental": [r["marginal"]["incremental_variance"] for r in reports[1:]],
             "marginal_less_risky": verdicts[1:]}
    dataio.write_table(table, own.out, fmt)
    print("exhaustive four-outcome check: incremental variance {incremental_variance:.1f} $^2 "
          "(expected delta {expected_delta:+.1f})".format(**reports[0]["base_load"]))
    for row in zip(*table.values()):
        print("  rho={:.1f}: base {:9.1f} $^2, marginal {:9.1f} $^2, "
              "marginal less risky: {}".format(*row))
    print(f"wrote {own.out} ({len(rhos)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(exit_code(main))
