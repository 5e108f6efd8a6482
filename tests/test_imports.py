"""What ``import brsim`` costs: the heavy scipy subpackages stay out."""

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
