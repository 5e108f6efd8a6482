"""Shared by the experiment scripts, which run brsim's commands through
``brsim.cli.main``: its flags, checks and exit codes apply."""
import contextlib
import csv
import io
import json
import sys
from pathlib import Path

from brsim import cli


def run_command(command: str, defaults: str, flag: str, value: str):
    """``brsim command`` on ``defaults`` overridden by the script's arguments
    (a scenario first, else day24.json), and on ``flag value`` unless they
    extend the list ``flag``. Returns the flags, exit code and table rows."""
    argv = sys.argv[1:]
    if not argv or argv[0].startswith("-"):
        argv = [str(Path(__file__).resolve().parents[1] / "scenarios" / "day24.json"), *argv]
    argv = [command, *defaults.split(), *argv]
    args = cli.build_parser().parse_args(argv)
    if getattr(args, flag[2:].replace("-", "_")) is None:
        argv += [flag, value]
    if args.out.exists() and not args.out.is_file():  # a pipe or device: no reading back
        print(f"usage error: --out {args.out} is not a regular file", file=sys.stderr)
        return args, 2, []
    with contextlib.redirect_stdout(io.StringIO()):  # its "wrote" line
        code = cli.main(argv)
    if code:
        return args, code, []
    with open(args.out, newline="") as fh:  # CSV cells are read as text
        return args, code, json.load(fh) if args.format == "json" else list(csv.DictReader(fh))


def exit_code(main) -> int:
    """``main()``, with an OSError reported as ``cli.main`` reports it: exit 1."""
    try:
        return main()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
