"""The acceptance suite once more under `python -O`, which strips asserts:
every check the library relies on must raise a typed error instead."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_acceptance_suite_under_python_O():
    out = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_acceptance.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    assert "10 passed" in out.stdout
