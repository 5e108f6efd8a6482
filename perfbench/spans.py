"""Spans around brsim's public functions, and the per-layer metrics made
from them.

The child process installs a ``Tracer`` before running the CLI: every
public function defined in a brsim module is replaced on its module by a
wrapper that records (name, start, end, parent). brsim calls its functions
through module attributes (``market.match_offers``, ``forecast.quantile``
from ``vg``), so the wrappers see the calls made inside the library as
well as those made by the CLI. Spans stay in memory and are written out
once, when the command has returned.
"""
from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("dataio", "forecast", "vg", "provider", "market", "simulation")
# Only main is wrapped in cli, so the sweep loop counts as cli self time.
CLI_FUNCTIONS = ("main",)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack = [-1]
        self.bytes_written = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)

        return traced

    def install(self, brsim) -> None:
        for modname in MODULES:
            mod = getattr(brsim, modname)
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                setattr(mod, attr, self.wrap(f"{modname}.{attr}", obj))
        for attr in CLI_FUNCTIONS:
            setattr(brsim.cli, attr, self.wrap(f"cli.{attr}", getattr(brsim.cli, attr)))

        traced_write = brsim.dataio.write_table

        def write_table(rows, path, *args, **kwargs):
            traced_write(rows, path, *args, **kwargs)
            self.bytes_written += os.path.getsize(path)

        brsim.dataio.write_table = write_table

    def dump(self, times_path: str) -> dict:
        path = Path(times_path).with_suffix(".spans")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{n}\t{s!r}\t{e!r}\t{p}\n" for n, s, e, p in self.spans)
        return {"spans_file": str(path), "bytes_written": self.bytes_written}


class MemoryProbe:
    """tracemalloc peak from the first scenario generation through the
    last risk report."""

    def __init__(self) -> None:
        self.peak = 0

    def install(self, brsim) -> None:
        import tracemalloc

        provider = brsim.provider

        def probed(fn, start):
            def call(*args, **kwargs):
                if start and not tracemalloc.is_tracing():
                    tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    if tracemalloc.is_tracing():
                        self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])
            return call

        provider.generate_scenarios = probed(provider.generate_scenarios, True)
        provider.risk_report = probed(provider.risk_report, False)

    def dump(self, times_path: str) -> dict:
        return {"traced_peak_mb": self.peak / 2.0**20}


def read_spans(path: str | Path) -> list[tuple[str, float, float, int]]:
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            n, s, e, p = line.rstrip("\n").split("\t")
            spans.append((n, float(s), float(e), int(p)))
    return spans


def check_nesting(spans) -> list[str]:
    """Every child lies inside its parent and siblings do not overlap, so a
    span's self time plus its children's time is its duration."""
    problems = []
    last_end: dict[int, float] = {}
    for i, (name, s, e, p) in enumerate(spans):
        if e < s:
            problems.append(f"span {i} {name} ends before it starts")
        if p < 0:
            continue
        ps, pe = spans[p][1], spans[p][2]
        if not (ps <= s and e <= pe):
            problems.append(f"span {i} {name} leaves its parent {spans[p][0]}")
        if s < last_end.get(p, ps):
            problems.append(f"span {i} {name} overlaps a sibling")
        last_end[p] = e
    return problems


def aggregate(spans) -> tuple[dict, dict, dict]:
    """Calls, inclusive seconds and self seconds per span name."""
    children = [0.0] * len(spans)
    for name, s, e, p in spans:
        if p >= 0:
            children[p] += e - s
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, s, e, p) in enumerate(spans):
        calls[name] += 1
        total[name] += e - s
        self_s[name] += (e - s) - children[i]
    return calls, total, self_s


# Per-layer metric -> (kind, span names). Kinds: calls, total, self, and
# children (total minus self: the time timed children cover).
SPAN_METRICS = {
    "dataio.load_scenario_s": ("total", ["dataio.load_scenario"]),
    "dataio.write_table_s": ("total", ["dataio.write_table"]),
    "forecast.quantile_calls": ("calls", ["forecast.quantile"]),
    "forecast.quantile_s": ("total", ["forecast.quantile"]),
    "forecast.cdf_calls": ("calls", ["forecast.cdf"]),
    "forecast.cdf_s": ("total", ["forecast.cdf"]),
    "forecast.partial_expectation_calls": ("calls", ["forecast.partial_expectation"]),
    "forecast.partial_expectation_s": ("total", ["forecast.partial_expectation"]),
    "forecast.from_mean_variance_calls": ("calls", ["forecast.from_mean_variance"]),
    "forecast.from_mean_variance_s": ("total", ["forecast.from_mean_variance"]),
    "vg.optimal_position_calls": ("calls", ["vg.optimal_position"]),
    "vg.optimal_position_self_s": ("self", ["vg.optimal_position"]),
    "vg.expected_revenue_calls": ("calls", ["vg.expected_revenue"]),
    "vg.expected_revenue_self_s": ("self", ["vg.expected_revenue"]),
    "vg.optimal_quantity_calls": ("calls", ["vg.optimal_quantity"]),
    "provider.generate_scenarios_s": ("total", ["provider.generate_scenarios"]),
    "provider.risk_report_s": ("total", ["provider.risk_report"]),
    "market.match_offers_calls": ("calls", ["market.match_offers"]),
    "market.match_offers_self_s": ("self", ["market.match_offers"]),
    "market.validate_contracts_s": ("total", ["market.validate_contracts"]),
    "market.claim_execution_s": ("total", ["market.claim_execution"]),
    "market.settle_s": ("total", ["market.settle"]),
    "simulation.simulate_day_s": ("total", ["simulation.simulate_day"]),
    "simulation.simulate_day_self_s": ("self", ["simulation.simulate_day"]),
    "simulation.simulate_day_children_s": ("children", ["simulation.simulate_day"]),
    "simulation.tables_s": ("total", ["simulation.contract_rows",
                                      "simulation.ledger_rows",
                                      "simulation.totals_rows"]),
    "simulation.hour_context_calls": ("calls", ["simulation.hour_context"]),
    "simulation.hour_context_s": ("total", ["simulation.hour_context"]),
    "cli.main_s": ("total", ["cli.main"]),
    "cli.self_s": ("self", ["cli.main"]),
}


def span_metrics(spans) -> dict[str, float]:
    calls, total, self_s = aggregate(spans)
    children = {n: total[n] - self_s[n] for n in total}
    table = {"calls": calls, "total": total, "self": self_s, "children": children}
    out = {}
    for metric, (kind, names) in SPAN_METRICS.items():
        out[metric] = sum(table[kind].get(n, 0) for n in names)
    out["trace.spans"] = len(spans)
    return out
