"""What ``import brsim`` costs: the heavy scipy subpackages stay out; and
no module imports a name that it never uses."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# scipy.stats alone took about half a second to import; scipy.optimize
# about a quarter. The library needs neither.
HEAVY = ("scipy.stats", "scipy.optimize")


def test_import_leaves_out_heavy_scipy_subpackages():
    probe = (
        "import json, sys\n"
        "import brsim\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({HEAVY!r}))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def _unused_imports(path: Path) -> list[str]:
    """The names that ``path`` imports and never reads. A name listed in the
    module's ``__all__`` counts as read; ``__future__`` imports are skipped."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


def test_no_unused_imports():
    paths = sorted(
        path for folder in ("src/brsim", "scripts", "tests")
        for path in (ROOT / folder).rglob("*.py")
    )
    assert paths
    assert [entry for path in paths for entry in _unused_imports(path)] == []
