"""brsim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {sweep,risk,quarter} --seed N \
        --seconds S --trace {0,1}

One operation is one run of the workload's `brsim` command in a fresh
interpreter (``child.py`` calling ``brsim.cli.main``), started one at a
time with numeric-library threads pinned to one. Operations repeat until
starting another would run past ``--seconds`` (at least MIN_OPS of them),
and each metric is the median over them. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics. The last line of stdout is the result as JSON.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORK = HERE / "work"
CHILD = HERE / "child.py"
MIN_OPS = 3
IMPORTTIME_RUNS = 3
OP_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    # Bytecode is written once, by the warm-up, as an install would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path, env: dict) -> tuple[float, float, int]:
    """Run the interpreter on argv to completion; return (start, end, exit code)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(OP_TIMEOUT_S)
    try:
        _, status = os.waitpid(pid, 0)
    finally:
        signal.alarm(0)
    end = time.perf_counter()
    return start, end, os.waitstatus_to_exitcode(status)


def run_op(w: workloads.Workload, mode: str, env: dict) -> dict:
    """One run of the workload's command; timings in seconds."""
    times = WORK / w.name / f"op.{mode}.json"
    times.unlink(missing_ok=True)
    start, end, rc = spawn([str(CHILD), str(times), mode, *w.argv],
                                w.stdout, w.stdout.with_suffix(".err"), env)
    op = {"mode": mode, "rc": rc, "wall_s": end - start}
    if rc == 0:
        rec = json.loads(times.read_text(encoding="utf-8"))
        op.update(rec)
        op["setup_s"] = rec["t_imported"] - start
        op["work_per_s"] = w.work_units / (rec["t_done"] - rec["t_imported"])
    return op


def digest(w: workloads.Workload) -> str:
    h = hashlib.sha256()
    for path in [w.stdout, *w.outputs]:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


class Checker:
    """Checks each distinct output once; identical outputs share a verdict."""

    def __init__(self, w: workloads.Workload) -> None:
        self.w = w
        self.seen: set[str] = set()
        self.problems: list[str] = []

    def __call__(self) -> None:
        key = digest(self.w)
        if key in self.seen:
            return
        self.seen.add(key)
        try:
            self.problems += checks.check(self.w)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            self.problems.append(f"{self.w.name}: output unreadable: {exc!r}")


def median(ops: list[dict], key: str) -> float:
    return statistics.median(op[key] for op in ops)


def rounds(seconds: float, one_round) -> None:
    """Run rounds until the next one would end past ``seconds`` (judged by
    the median round so far), and at least MIN_OPS of them."""
    start = time.perf_counter()
    took = []
    while True:
        t = time.perf_counter()
        one_round()
        took.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(took) >= MIN_OPS and elapsed + statistics.median(took) > seconds:
            return


def end_to_end(w, env, seconds, checker) -> tuple[dict, list[dict]]:
    ops = []

    def one_round():
        op = run_op(w, "plain", env)
        ops.append(op)
        log(w.name, op)
        if op["rc"] == 0:
            checker()

    rounds(seconds, one_round)
    ok = [op for op in ops if op["rc"] == 0]
    metrics = {}
    if ok:
        metrics = {
            "wall_s": (median(ok, "wall_s"), "s"),
            "setup_s": (median(ok, "setup_s"), "s"),
            "work_per_s": (median(ok, "work_per_s"), "1/s"),
            "peak_rss_mb": (median(ok, "peak_rss_mb"), "MB"),
        }
    return metrics, ops


def import_times(env: dict) -> tuple[float, float]:
    """(`import brsim`, scipy's share of it) in seconds, from -X importtime.
    scipy's share is the cumulative time of each scipy import made directly
    by a non-scipy module."""
    err = WORK / "importtime.err"
    _, _, rc = spawn(["-X", "importtime", "-c", "import brsim"], WORK / "importtime.out",
                     err, env)
    if rc != 0:
        raise RuntimeError("python -X importtime -c 'import brsim' failed")
    rows = []
    for line in err.read_text(encoding="utf-8").splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((int(m.group(1)), len(m.group(2)) // 2, m.group(3)))
    # Children are printed before their parent, one level deeper.
    brsim_us = scipy_us = 0
    path = {}
    for cumulative, depth, name in reversed(rows):
        path[depth] = name
        parent = path.get(depth - 1, "")
        if name == "brsim" and depth == 0:
            brsim_us = cumulative
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_us += cumulative
    return brsim_us / 1e6, scipy_us / 1e6


def layer_unit(metric: str) -> str:
    if metric.endswith("_calls") or metric == "trace.spans":
        return "count"
    return "bytes" if metric.endswith("_bytes") else "s"


def per_layer(w, env, seconds, checker) -> tuple[dict, list[dict]]:
    """Alternate untraced and traced operations; report the span metrics of
    the median traced one."""
    plain, traced, layer_runs = [], [], []

    def one_round():
        for mode, bucket in (("plain", plain), ("trace", traced)):
            op = run_op(w, mode, env)
            bucket.append(op)
            log(w.name, op)
            if op["rc"] != 0:
                continue
            checker()
            if mode == "trace":
                trace = spans.read_spans(op["spans_file"])
                checker.problems += spans.check_nesting(trace)
                m = spans.span_metrics(trace)
                m["dataio.write_table_bytes"] = op["bytes_written"]
                layer_runs.append(m)

    rounds(seconds, one_round)
    ok_plain = [op for op in plain if op["rc"] == 0]
    ok_traced = [op for op in traced if op["rc"] == 0]
    ops = plain + traced
    if not (ok_plain and layer_runs):
        return {}, ops
    # Every span metric comes from one traced operation, the one with the
    # median cli.main_s, so that self and children times add up to spans.
    layer_runs.sort(key=lambda m: m["cli.main_s"])
    chosen = layer_runs[(len(layer_runs) - 1) // 2]
    metrics = {key: (value, layer_unit(key)) for key, value in chosen.items()}

    peak = 0.0
    if metrics["provider.generate_scenarios_s"][0] > 0 or metrics["provider.risk_report_s"][0] > 0:
        op = run_op(w, "memory", env)
        ops.append(op)
        log(w.name, op)
        if op["rc"] == 0:
            checker()
            peak = op["traced_peak_mb"]
    metrics["provider.traced_peak_mb"] = (peak, "MB")
    imports = [import_times(env) for _ in range(IMPORTTIME_RUNS)]
    metrics["import.brsim_s"] = (statistics.median(i[0] for i in imports), "s")
    metrics["import.scipy_s"] = (statistics.median(i[1] for i in imports), "s")
    metrics["trace.overhead_s"] = (median(ok_traced, "wall_s") - median(ok_plain, "wall_s"), "s")
    return metrics, ops


def log(name: str, op: dict) -> None:
    parts = [f"{name} {op['mode']:5s} rc={op['rc']} wall={op['wall_s']:.3f}s"]
    if op["rc"] == 0:
        parts.append(f"setup={op['setup_s']:.3f}s work/s={op['work_per_s']:.1f} "
                     f"rss={op['peak_rss_mb']:.1f}MB")
    print(" ".join(parts), file=sys.stderr, flush=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="brsim benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "brsim" / "__init__.py").is_file():
        print(f"error: no brsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    # Byte-compile brsim and warm the file cache before anything is timed.
    _, _, rc = spawn(["-c", "import brsim"], work / "warmup.out", work / "warmup.err", env)
    if rc != 0:
        print("error: `import brsim` fails; see " + str(work / "warmup.err"), file=sys.stderr)
        return 1
    w = workloads.make_workload(args.workload, args.seed, ROOT, work)
    checker = Checker(w)

    measure = per_layer if args.trace else end_to_end
    metrics, ops = measure(w, env, args.seconds, checker)
    failed = sum(1 for op in ops if op["rc"] != 0)
    if not metrics:
        print(f"error: every operation failed; see {w.stdout.with_suffix('.err')}",
              file=sys.stderr)
        return 1
    problems = checker.problems
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
