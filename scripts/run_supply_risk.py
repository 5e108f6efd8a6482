"""Incremental cash-flow variance from selling re-dispatch cover, swept over
the price/shortage correlation.

At zero correlation the two unit kinds are indistinguishable (the covariance
term in the variance delta vanishes). As the correlation grows the marginal
unit, whose RT dispatch already tracks the price, absorbs part of the shift
payoff and its increment drops below the base-load unit's.
"""
import argparse
from pathlib import Path

from brsim import dataio, provider
from brsim.provider import RISK_HEADROOM, RISK_UNITS, ScenarioModel


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--correlations", type=float, nargs="+",
                    default=[0.0, 0.2, 0.4, 0.6, 0.8])
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=Path("out/supply_risk.csv"))
    args = ap.parse_args()

    base, marginal = RISK_UNITS["base_load"], RISK_UNITS["marginal"]
    exact = provider.risk_report(base, provider.exhaustive_scenarios(ScenarioModel()))
    print(
        "exhaustive four-outcome check: incremental variance "
        f"{exact.incremental_variance:.1f} $^2 (expected delta {exact.expected_delta:+.1f})"
    )

    runs = []
    for rho in args.correlations:
        model = ScenarioModel(correlation=rho, execution_limit=RISK_HEADROOM)
        sampled = provider.generate_scenarios(model, args.samples, args.seed)
        cmp_ = provider.compare_kinds(base, marginal, sampled)
        runs.append(cmp_)
        print(
            f"  rho={rho:.1f}: base {cmp_.base.incremental_variance:9.1f} $^2, "
            f"marginal {cmp_.marginal.incremental_variance:9.1f} $^2, "
            f"marginal less risky: {cmp_.marginal_less_risky}"
        )

    table = {
        "correlation": args.correlations,
        "base_incremental": [c.base.incremental_variance for c in runs],
        "marginal_incremental": [c.marginal.incremental_variance for c in runs],
        "marginal_less_risky": [c.marginal_less_risky for c in runs],
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    dataio.write_table(table, args.out, args.out.suffix.lstrip("."))
    print(f"wrote {args.out} ({len(runs)} rows)")


if __name__ == "__main__":
    main()
