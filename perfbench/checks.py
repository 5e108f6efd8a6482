"""Output checks for each workload.

Every check recomputes what the output should be apart from brsim, or
tests a property the method must have; none compares against a stored
copy of an earlier output. Each ``*_problems`` function returns a list of
messages, empty when the output passes.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from collections import defaultdict
from pathlib import Path

from scipy import integrate, special

# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# Rounding slack for properties that hold exactly in real arithmetic.
SWEEP_REL_TOL = 1e-9
# Agreement with the quadrature recomputation of a cell.
SWEEP_CELL_REL_TOL = 2e-7


def _beta_hour(cfg: dict, hour: int, scale: float) -> tuple[float, float, float]:
    """(capacity, shape a, shape b) of the moment-matched Beta forecast,
    with the variance clamped to [1e-6, 0.999] of its Beta bound."""
    vg = cfg["vg"]
    cap = float(vg["capacity_mw"])
    mu = vg["forecast_mean_mw"][hour] / cap
    bound = mu * (1.0 - mu)
    var = vg.get("variance_coefficient", 0.05) * bound * vg.get("variance_scale", 1.0) * scale
    var = min(max(var, 1e-6 * bound), 0.999 * bound)
    total = bound / var - 1.0
    return cap, mu * total, (1.0 - mu) * total


def hour_profit(cfg: dict, hour: int, scale: float, ratio: float) -> tuple[float, float]:
    """(expected gross revenue, premium) for one hour of the sweep.

    Quantities come from the critical fractile with ``betaincinv``; the
    expected revenue is a quadrature of the banded revenue against the
    Beta density (QAWS, whose weight is the density's own edge behaviour,
    so sub-1 shapes integrate cleanly).
    """
    cap, a, b = _beta_hour(cfg, hour, scale)
    lam = float(cfg["da_price"][hour])
    x = float(cfg["vg"].get("da_schedule_mw", cfg["vg"]["forecast_mean_mw"])[hour])
    over, under = cfg["penalty"]["over"], cfg["penalty"]["under"]
    price = ratio * lam
    down = up = 0.0
    if over > 0 and price < lam * over:
        level = cap * special.betaincinv(a, b, 1.0 - price / (lam * over))
        down = min(max(level - x, 0.0), cap - x)
    if under > 0 and price < lam * under:
        level = cap * special.betaincinv(a, b, price / (lam * under))
        up = min(max(x - level, 0.0), x)
    hi, lo = x + down, x - up

    def revenue(t: float) -> float:
        p = cap * t
        if p > hi:
            return lam * hi + (1.0 - over) * lam * (p - hi)
        if p < lo:
            return lam * lo - (1.0 + under) * lam * (lo - p)
        return lam * p

    if min(a, b) < 1.0:
        with warnings.catch_warnings():
            # QAWS flags roundoff near its tolerance; the agreement it
            # reaches was measured within 3e-8 relative on whole cells.
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(revenue, 0.0, 1.0, weight="alg", wvar=(a - 1.0, b - 1.0),
                                    epsabs=0.0, epsrel=1e-11, limit=200)
        return val / special.beta(a, b), price * (down + up)
    log_norm = special.betaln(a, b)

    def weighted(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return revenue(t) * math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_norm)

    mode = (a - 1.0) / (a + b - 2.0) if a + b > 2.0 else 0.5
    val, _ = integrate.quad(weighted, 0.0, 1.0, points=sorted({lo / cap, hi / cap, mode}),
                            epsabs=0.0, epsrel=1e-11, limit=200)
    return val, price * (down + up)


def sweep_problems(rows: list[dict], cfg: dict, scales: list[float],
                   ratios: list[float], cells: list[tuple[float, float]]) -> list[str]:
    problems = []
    cell = {(r["variance_scale"], r["price_ratio"]): r for r in rows}
    expected = {(k, r) for k in scales for r in ratios}
    if len(rows) != len(expected) or set(cell) != expected:
        return [f"sweep: {len(rows)} rows do not cover the {len(expected)} grid cells once"]
    for (k, r), row in cell.items():
        net = row["gross_expected_revenue"] - row["premium_paid"]
        if not math.isclose(row["expected_profit"], net, rel_tol=SWEEP_REL_TOL):
            problems.append(f"sweep: profit {row['expected_profit']} != gross - premium "
                            f"{net} at scale {k}, ratio {r}")
    zero_premium_from = max(cfg["penalty"]["over"], cfg["penalty"]["under"])
    for k in scales:
        prev = None
        for r in ratios:
            row = cell[(k, r)]
            profit = row["expected_profit"]
            if prev is not None and profit > prev + SWEEP_REL_TOL * abs(prev):
                problems.append(f"sweep: profit rises from {prev} to {profit} at scale {k}, "
                                f"ratio {r}")
            prev = profit
            if r >= zero_premium_from and row["premium_paid"] != 0.0:
                problems.append(f"sweep: premium {row['premium_paid']} paid at ratio {r} "
                                f">= both penalty factors (scale {k})")
    for k, r in cells:
        gross = premium = 0.0
        for h in range(cfg["horizon"]):
            g, p = hour_profit(cfg, h, k, r)
            gross += g
            premium += p
        got = cell[(k, r)]["expected_profit"]
        if not math.isclose(got, gross - premium, rel_tol=SWEEP_CELL_REL_TOL):
            problems.append(f"sweep: profit {got} at scale {k}, ratio {r} differs from the "
                            f"recomputed {gross - premium}")
    return problems


# ---------------------------------------------------------------------------
# risk
# ---------------------------------------------------------------------------

# The supply-risk command's scenario model and built-in units.
RISK_DA = 30.0
RISK_GAP_STD = 5.0
RISK_EXEC_STD = 10.0
RISK_UNITS = {
    # kind: (p_min, p_max, marginal_cost, da_schedule)
    "base_load": (150.0, 250.0, 15.0, 200.0),
    "marginal": (150.0, 250.0, 35.0, 200.0),
}
# Sampled moments must lie within this many standard errors of the exact ones.
RISK_SE = 5.0


def _normal_expect(f, cut: float | None) -> float:
    """E[f(Z)] for a standard normal Z, split at a kink of f."""
    g = lambda z: f(z) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)  # noqa: E731
    pieces = [(-math.inf, math.inf)] if cut is None else [(-math.inf, cut), (cut, math.inf)]
    return sum(integrate.quad(g, lo, hi, epsabs=0.0, epsrel=1e-11, limit=200)[0]
               for lo, hi in pieces)


def risk_exact(kind: str, rho: float) -> dict:
    """Exact moments of one unit's cash flows, by quadrature over the
    price-gap factor z (gap = 5 z; given z the shift is normal).

    Returns means, variances and the standard errors of their sample
    estimates at one draw; divide by sqrt(n) for n draws.
    """
    p_min, p_max, mc, sched = RISK_UNITS[kind]
    sg, se = RISK_GAP_STD, RISK_EXEC_STD

    def rev0(z):
        rt = RISK_DA - sg * z
        if kind == "base_load":
            out = sched
        else:
            out = p_max if rt > mc else p_min if rt < mc else sched
        return RISK_DA * sched + (out - sched) * rt

    cut = None if kind == "base_load" else (RISK_DA - mc) / sg
    # Given z, the incremental cash flow gap * shift is normal:
    dmean = lambda z: sg * z * (-rho * se * z)  # noqa: E731
    dvar = lambda z: (sg * z) ** 2 * se * se * (1.0 - rho * rho)  # noqa: E731
    E = lambda f: _normal_expect(f, cut)  # noqa: E731

    mu_d = E(dmean)
    mu0 = E(rev0)
    mu1 = mu0 + mu_d
    var0 = E(lambda z: (rev0(z) - mu0) ** 2)
    m4_0 = E(lambda z: (rev0(z) - mu0) ** 4)

    def normal_moments(m, v):
        return m * m + v, m ** 4 + 6 * m * m * v + 3 * v * v

    var1 = E(lambda z: normal_moments(rev0(z) + dmean(z) - mu1, dvar(z))[0])
    m4_1 = E(lambda z: normal_moments(rev0(z) + dmean(z) - mu1, dvar(z))[1])
    var_d = E(lambda z: normal_moments(dmean(z) - mu_d, dvar(z))[0])
    # Incremental variance = mean of W = dc^2 + 2 r dc, with dc the centred
    # increment and r the centred rev0; W = (dc + r)^2 - r^2.
    def w_moments(z):
        r = rev0(z) - mu0
        u2, u4 = normal_moments(dmean(z) - mu_d + r, dvar(z))
        return u2 - r * r, u4 - 2 * r * r * u2 + r ** 4

    mean_w = E(lambda z: w_moments(z)[0])
    var_w = E(lambda z: w_moments(z)[1]) - mean_w ** 2
    return {
        "expected_delta": mu_d, "expected_delta_se": math.sqrt(var_d),
        "variance_without": var0, "variance_without_se": math.sqrt(max(m4_0 - var0 ** 2, 0.0)),
        "variance_with": var1, "variance_with_se": math.sqrt(max(m4_1 - var1 ** 2, 0.0)),
        "incremental_variance": mean_w, "incremental_variance_se": math.sqrt(max(var_w, 0.0)),
    }


def risk_problems(rows: list[dict], verdict: str | None, rho: float, n: int) -> list[str]:
    problems = []
    by_kind = {r["kind"]: r for r in rows}
    if sorted(by_kind) != sorted(RISK_UNITS) or len(rows) != len(RISK_UNITS):
        return [f"risk: expected one row per kind {sorted(RISK_UNITS)}, got {sorted(by_kind)}"]
    base, marg = by_kind["base_load"], by_kind["marginal"]
    sg, se = RISK_GAP_STD, RISK_EXEC_STD
    root_n = math.sqrt(n)

    rev0 = RISK_DA * RISK_UNITS["base_load"][3]
    if abs(base["variance_without"]) > 1e-9 * rev0 * rev0:
        problems.append(f"risk: base-load variance_without {base['variance_without']} is not 0")

    # Isserlis: E[gap*shift] = -rho sg se, Var = sg^2 se^2 (1 + rho^2).
    isserlis = {"expected_delta": -rho * sg * se,
                "incremental_variance": sg * sg * se * se * (1.0 + rho * rho)}
    exact = {kind: risk_exact(kind, rho) for kind in RISK_UNITS}
    for key, want in isserlis.items():
        tol = RISK_SE * exact["base_load"][key + "_se"] / root_n
        if abs(base[key] - want) > tol:
            problems.append(f"risk: base-load {key} {base[key]} is more than {RISK_SE} SE "
                            f"({tol:.4g}) from {want}")
    if not math.isclose(base["expected_delta"], marg["expected_delta"],
                        rel_tol=1e-9, abs_tol=1e-9 * sg * se):
        problems.append(f"risk: expected_delta differs between kinds: "
                        f"{base['expected_delta']} vs {marg['expected_delta']}")
    for key in ("expected_delta", "variance_without", "variance_with", "incremental_variance"):
        want = exact["marginal"][key]
        tol = RISK_SE * exact["marginal"][key + "_se"] / root_n
        if abs(marg[key] - want) > tol:
            problems.append(f"risk: marginal {key} {marg[key]} is more than {RISK_SE} SE "
                            f"({tol:.4g}) from the quadrature value {want}")
    for kind, row in by_kind.items():
        diff = row["variance_with"] - row["variance_without"]
        if not math.isclose(row["incremental_variance"], diff, rel_tol=1e-9, abs_tol=1e-6):
            problems.append(f"risk: {kind} incremental_variance is not variance_with - "
                            f"variance_without")
    less = marg["incremental_variance"] < base["incremental_variance"]
    if verdict != f"marginal_less_risky={str(less).lower()}":
        problems.append(f"risk: verdict {verdict!r} disagrees with the incremental variances")
    return problems


def risk_output(text: str) -> tuple[list[dict], str | None]:
    """The JSON table and the verdict from supply-risk's stdout."""
    table, _, tail = text.rpartition("]")
    verdict = None
    for line in tail.splitlines():
        if line.startswith("verdict: "):
            verdict = line[len("verdict: "):].strip()
    return json.loads(table + "]"), verdict


# ---------------------------------------------------------------------------
# quarter
# ---------------------------------------------------------------------------

QUARTER_MW_TOL = 1e-6
QUARTER_CASH_REL_TOL = 1e-9
LIVE = ("executed", "released")


def _per_hour(value, horizon: int) -> list[float]:
    return list(value) if isinstance(value, list) else [value] * horizon


def quarter_problems(cfg: dict, contracts: list[dict], ledger: list[dict],
                     totals: list[dict]) -> list[str]:
    problems = []
    horizon = cfg["horizon"]
    vg = cfg["vg"]
    vg_id = vg.get("id", "vg")
    over, under = cfg["penalty"]["over"], cfg["penalty"]["under"]
    sched = vg.get("da_schedule_mw", vg["forecast_mean_mw"])
    realized = vg["realized_mw"]
    lam = cfg["da_price"]
    units = {u["id"]: u for u in cfg["units"]}
    blocked = {frozenset(p) for p in cfg.get("zonal_rule", {}).get("congested_boundaries", [])}
    unit_sched = {uid: _per_hour(u["da_schedule_mw"], horizon) for uid, u in units.items()}

    # Zero sum and per-party totals, summed exactly.
    net = {t["party"]: t["net_cash"] for t in totals}
    gross = math.fsum(e["amount"] for e in ledger)
    if abs(math.fsum(net.values())) > QUARTER_CASH_REL_TOL * gross:
        problems.append(f"quarter: party nets sum to {math.fsum(net.values())}, not 0 "
                        f"(gross flow {gross})")
    flows = defaultdict(list)
    for e in ledger:
        flows[e["payee"]].append(e["amount"])
        flows[e["payer"]].append(-e["amount"])
    if set(flows) != set(net):
        problems.append(f"quarter: totals parties {sorted(net)} != ledger parties {sorted(flows)}")
    for party, amounts in flows.items():
        want = math.fsum(amounts)
        scale = math.fsum(abs(a) for a in amounts)
        if abs(net.get(party, math.nan) - want) > QUARTER_CASH_REL_TOL * scale or party not in net:
            problems.append(f"quarter: {party} total {net.get(party)} != ledger sum {want}")

    by_hour = defaultdict(list)
    for c in contracts:
        by_hour[c["hour"]].append(c)

    # Producer cash from the settlement rules.
    parts = []
    for h in range(horizon):
        cs = by_hour[h]
        ex_down = math.fsum(c["executed_mw"] for c in cs
                            if c["status"] == "executed" and c["direction"] == "down")
        ex_up = math.fsum(c["executed_mw"] for c in cs
                          if c["status"] == "executed" and c["direction"] == "up")
        residual = realized[h] - (sched[h] + ex_down - ex_up)
        parts += [lam[h] * sched[h], lam[h] * ex_down, -lam[h] * ex_up]
        if residual > 0:
            parts.append((1.0 - over) * lam[h] * residual)
        else:
            parts.append((1.0 + under) * lam[h] * residual)
        parts += [-c["premium_price"] * c["quantity_mw"] for c in cs if c["status"] in LIVE]
    want = math.fsum(parts)
    if abs(net.get(vg_id, math.nan) - want) > QUARTER_CASH_REL_TOL * math.fsum(map(abs, parts)) \
            or vg_id not in net:
        problems.append(f"quarter: producer net {net.get(vg_id)} != recomputed {want}")

    for h in range(horizon):
        cs = by_hour[h]
        # Validated cover within each seller's headroom.
        cover = defaultdict(float)
        for c in cs:
            if c["status"] in LIVE:
                cover[(c["seller"], c["direction"])] += c["quantity_mw"]
        for (seller, direction), mw in cover.items():
            u = units[seller]
            room = (u["p_max_mw"] - unit_sched[seller][h] if direction == "up"
                    else unit_sched[seller][h] - u["p_min_mw"])
            if mw > room + 1e-9:
                problems.append(f"quarter: hour {h} {seller} {direction} cover {mw} "
                                f"exceeds headroom {room}")
        # Exact claims: executed = min(deviation, validated cover) per side.
        deviation = {"down": max(realized[h] - sched[h], 0.0),
                     "up": max(sched[h] - realized[h], 0.0)}
        for direction, dev in deviation.items():
            side = [c for c in cs if c["direction"] == direction and c["status"] in LIVE]
            want_mw = min(dev, math.fsum(c["quantity_mw"] for c in side))
            got_mw = math.fsum(c["executed_mw"] for c in side if c["status"] == "executed")
            if abs(got_mw - want_mw) > QUARTER_MW_TOL:
                problems.append(f"quarter: hour {h} executed {direction} {got_mw} MW, "
                                f"expected {want_mw}")

    for c in contracts:
        seller_zone = units[c["seller"]].get("zone")
        if (frozenset((vg.get("zone"), seller_zone)) in blocked
                and c["status"] != "rejected"):
            problems.append(f"quarter: contract {c['id']} crosses a congested boundary "
                            f"but is {c['status']}")
    return problems


def quarter_coverage(cfg: dict, contracts: list[dict]) -> list[str]:
    """The scenario must make every step of the lifecycle happen."""
    offered = {(o["hour"], o["seller"], o["direction"]): o["quantity_mw"] for o in cfg["offers"]}
    seen = {
        "pro-rata fill": any(c["quantity_mw"] + c["trimmed_mw"]
                             < offered[(c["hour"], c["seller"], c["direction"])] - 1e-9
                             for c in contracts),
        "trim": any(c["trimmed_mw"] > 0 for c in contracts),
        "zonal rejection": any(c["status"] == "rejected" for c in contracts),
        "execution": any(c["status"] == "executed" for c in contracts),
        "release": any(c["status"] == "released" for c in contracts),
    }
    return [f"quarter: no {what} in the whole run" for what, ok in seen.items() if not ok]


def quarter_csv_problems(out_dir: Path, tables: dict[str, list[dict]]) -> list[str]:
    """Each CSV table has the rows of its JSON twin."""
    problems = []
    for name, rows in tables.items():
        with open(out_dir / f"{name}.csv", newline="", encoding="utf-8") as fh:
            n = sum(1 for _ in csv.reader(fh)) - 1
        if n != len(rows):
            problems.append(f"quarter: {name}.csv has {n} rows, {name}.json {len(rows)}")
    return problems


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def check(workload) -> list[str]:
    """Read a workload's output files and check them."""
    p = workload.params
    if workload.name == "sweep":
        rows = json.loads(workload.stdout.read_text(encoding="utf-8"))
        cfg = json.loads(Path(p["scenario"]).read_text(encoding="utf-8"))
        return sweep_problems(rows, cfg, p["scales"], p["ratios"], p["cells"])
    if workload.name == "risk":
        rows, verdict = risk_output(workload.stdout.read_text(encoding="utf-8"))
        return risk_problems(rows, verdict, p["rho"], p["samples"])
    if workload.name == "quarter":
        out = p["out_dir"]
        tables = {t: json.loads((out / f"{t}.json").read_text(encoding="utf-8"))
                  for t in ("contracts", "ledger", "totals")}
        return (quarter_csv_problems(out, tables)
                + quarter_problems(p["scenario"], tables["contracts"], tables["ledger"],
                                   tables["totals"])
                + quarter_coverage(p["scenario"], tables["contracts"]))
    raise ValueError(f"unknown workload {workload.name!r}")
