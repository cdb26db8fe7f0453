"""Smoke test: every experiment script in scripts/ runs on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["demo_local_global.py"],
    ["experiment_discriminants.py", "--instances", "2", "--samples", "2000"],
    ["search_nonconvex_union.py", "--count", "1"],
])
def test_script_runs(argv):
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:]],
        cwd=REPO, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
