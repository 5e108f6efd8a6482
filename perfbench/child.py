"""One operation: import brsim, run its CLI once, report the timestamps.

Usage: python3 child.py TIMES_FILE MODE BRSIM_ARGV...

MODE is ``plain`` (no instrumentation), ``trace`` (a span around every
public function of the brsim modules, dumped next to TIMES_FILE) or
``memory`` (tracemalloc peak over scenario generation and the risk
reports). TIMES_FILE gets one JSON object with ``perf_counter`` stamps,
which share the parent's clock (CLOCK_MONOTONIC on Linux), and the
peak resident set.
"""
import json
import sys
import time


def peak_rss_mb() -> float:
    """VmHWM of this process image. getrusage's ru_maxrss is not used: it
    keeps the high-water mark of the image exec replaced, which after
    posix_spawn is the parent's."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    times_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import brsim
    t_imported = time.perf_counter()

    hook = None
    if mode == "trace":
        import spans
        hook = spans.Tracer()
        hook.install(brsim)
    elif mode == "memory":
        import spans
        hook = spans.MemoryProbe()
        hook.install(brsim)
    elif mode != "plain":
        raise SystemExit(f"unknown mode {mode!r}")

    rc = brsim.cli.main(argv)
    t_done = time.perf_counter()
    sys.stdout.flush()

    record = {"t_imported": t_imported, "t_done": t_done, "rc": rc,
              "peak_rss_mb": peak_rss_mb()}
    if hook is not None:
        record.update(hook.dump(times_path))
    with open(times_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
