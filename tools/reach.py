"""The lines of src/brsim that the Tier-1 suite never runs.

Runs the suite in this process under a ``sys.settrace`` line probe that
follows only frames of files under src/brsim, then lists each module's
unrun lines. A line that holds a ``raise`` statement or a ``fail_where``
call is marked as a check site: a check that never runs is not known to be
able to fail. A ``fail_where`` call that runs but never raises is listed
apart. Tests that run brsim in a subprocess are not seen.

    python tools/reach.py [pytest arguments]

It exits 1 when the suite fails or a check site is unrun, else 0. Only
the standard library and the test dependencies are used.
"""
from __future__ import annotations

import ast
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "brsim"


def executable_lines(path: Path) -> set[int]:
    """The lines that hold an instruction of the module or of any code
    object inside it."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def check_sites(path: Path) -> dict[int, str]:
    """The first line of each ``raise`` statement and ``fail_where`` call."""
    sites = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise):
            sites[node.lineno] = "raise"
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "fail_where":
            sites[node.lineno] = "fail_where"
    return sites


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]], set[tuple[str, int]]]:
    """The suite's exit code, the lines run per file under src/brsim, and the
    (file, line) of each ``fail_where`` call that raised."""
    arrays = PACKAGE / "_arrays.py"
    fail_where = next(node for node in ast.parse(arrays.read_text(encoding="utf-8")).body
                      if isinstance(node, ast.FunctionDef) and node.name == "fail_where")
    raise_line = next(node.lineno for node in ast.walk(fail_where) if isinstance(node, ast.Raise))
    hits, fired, ours = defaultdict(set), set(), {}

    def line_probe(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
            if frame.f_lineno == raise_line and Path(frame.f_code.co_filename) == arrays:
                caller = frame.f_back
                fired.add((str(Path(caller.f_code.co_filename).resolve()), caller.f_lineno))
        return line_probe

    def call_probe(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(name).resolve().is_relative_to(PACKAGE)
        return line_probe if ours[name] else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(call_probe)
    sys.settrace(call_probe)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                            *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {str(Path(k).resolve()): v for k, v in hits.items()}, fired


def main(argv: list[str]) -> int:
    code, hits, fired = traced_run(argv or [str(ROOT / "tests")])
    unrun_sites = []
    print("\nLines of src/brsim that the suite never runs (! marks a check site):")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        sites, name = check_sites(path), path.relative_to(ROOT).as_posix()
        run = hits.get(str(path.resolve()), set())
        for line in sorted(executable_lines(path) - run):
            site = sites.get(line)
            print(f"  {'! ' + site if site else '':<12} {name}:{line}: {source[line - 1].strip()}")
            if site:
                unrun_sites.append(f"{name}:{line}")
        never = [line for line, site in sorted(sites.items()) if site == "fail_where"
                 and line in run and (str(path.resolve()), line) not in fired]
        for line in never:
            print(f"  {'never fails':<12} {name}:{line}: {source[line - 1].strip()}")
    if unrun_sites:
        print(f"unrun check sites: {', '.join(unrun_sites)}")
    return int(bool(code or unrun_sites))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
