"""Shared by the experiment scripts, which take their tables from brsim's
commands in ``brsim.cli``: the commands' flags, checks and exit codes apply."""
import sys
from pathlib import Path

from brsim import cli, dataio


def run_command(command: str, defaults: str, flag: str, value: str):
    """``brsim command`` on ``defaults`` overridden by the script's arguments
    (a scenario first, else day24.json), and on ``flag value`` unless they
    extend the list ``flag``. Writes its table to ``--out`` as the command
    does and returns the flags and the table's columns at full precision."""
    argv = sys.argv[1:]
    if not argv or argv[0].startswith("-"):
        argv = [str(Path(__file__).resolve().parents[1] / "scenarios" / "day24.json"), *argv]
    parser = cli.build_parser()
    argv = [command, *defaults.split(), *argv]
    args = parser.parse_args(argv)
    if getattr(args, flag[2:].replace("-", "_")) is None:
        args = parser.parse_args([*argv, flag, value])
    table = args.table(args)
    dataio.write_table(table, args.out, args.format)
    return args, table
