"""What ``import brsim`` costs: the heavy scipy subpackages stay out; no
module imports a name that it never uses; and no library or script code
tests a direction or unit kind by identity."""

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


# The string enums' members. A value string equals its member but is not it,
# so an identity test against one silently takes the other branch.
MEMBERS = {"DOWN", "UP"}
ENUMS = {"Direction", "UnitKind"}


def _is_member(node: ast.expr) -> bool:
    """``DOWN``, ``UP``, ``x.DOWN``, ``x.UP``, or ``[x.]Direction.*`` or
    ``[x.]UnitKind.*``."""
    if isinstance(node, ast.Name):
        return node.id in MEMBERS
    if not isinstance(node, ast.Attribute):
        return False
    owner = node.value
    owner = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
    return node.attr in MEMBERS or owner in ENUMS


def _identity_tests(source: str) -> list[str]:
    """Each ``is`` or ``is not`` comparison in ``source`` against an enum
    member, as ``line: comparison``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if any(isinstance(op, (ast.Is, ast.IsNot)) and (_is_member(a) or _is_member(b))
               for op, a, b in zip(node.ops, operands, operands[1:])):
            hits.append(f"{node.lineno}: {ast.unparse(node)}")
    return hits


def test_no_identity_tests_against_enum_members():
    paths = sorted(
        path for folder in ("src/brsim", "scripts") for path in (ROOT / folder).rglob("*.py")
    )
    assert paths
    assert [f"{path.relative_to(ROOT)}:{hit}" for path in paths
            for hit in _identity_tests(path.read_text(encoding="utf-8"))] == []


def test_identity_check_reads_every_spelling():
    source = ("a is DOWN\nUP is not a\na is vg.UP\na is Direction.UP_COVERS_UNDER\n"
              "a is provider.UnitKind.MARGINAL\na == DOWN\na is None\na is b.kind\n"
              "a.direction is vg.Direction.DOWN_COVERS_OVER\n")
    assert _identity_tests(source) == [
        "1: a is DOWN", "2: UP is not a", "3: a is vg.UP", "4: a is Direction.UP_COVERS_UNDER",
        "5: a is provider.UnitKind.MARGINAL", "9: a.direction is vg.Direction.DOWN_COVERS_OVER",
    ]
