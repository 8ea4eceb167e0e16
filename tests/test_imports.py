"""`import zii` stays light: sympy, numpy and scipy load only when used."""

from __future__ import annotations

import os
import subprocess
import sys

from conftest import REPO_ROOT

SRC = str(REPO_ROOT / "src")
HEAVY = ("sympy", "numpy", "scipy")


def run_python(code: str) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        cwd=REPO_ROOT, timeout=120,
    )


def test_import_leaves_heavy_modules_out():
    code = (
        "import sys, zii, zii.cli\n"
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_numeric_names_load_on_first_use():
    code = (
        "import sys\n"
        "from zii import numeric_density\n"
        "assert callable(numeric_density)\n"
        "assert 'numpy' in sys.modules\n"
        "from zii import *\n"
        "import zii\n"
        "missing = [n for n in zii.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
        "assert NumericDensity is zii.numeric.NumericDensity\n"
        "try:\n"
        "    zii.no_such_name\n"
        "except AttributeError:\n"
        "    print('ok')\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
