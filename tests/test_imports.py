"""`import zii` stays light: sympy loads only when used, numpy and scipy never.

sympy is only the general gcd fallback, which no built-in family reaches.
numpy and scipy serve only the float reference `zii.numeric`, which
nothing under `zii` imports.
"""

from __future__ import annotations

import os
import subprocess
import sys

from conftest import REPO_ROOT
from test_cli import golden_commands

SRC = str(REPO_ROOT / "src")
HEAVY = ("sympy", "numpy", "scipy")


def run_python(code: str, timeout: float = 120) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        cwd=REPO_ROOT, timeout=timeout,
    )


def test_import_leaves_heavy_modules_out():
    code = (
        "import sys, zii, zii.cli\n"
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_star_import_covers_all():
    code = (
        "from zii import *\n"
        "import zii\n"
        "missing = [n for n in zii.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
        "print('ok')\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_golden_commands_run_without_numpy_and_scipy(tmp_path):
    # None in sys.modules makes every import of the name fail
    jobs = [
        ([*args, "--out", str(tmp_path / path.name)] if uses_out else args, str(path), uses_out)
        for args, path, uses_out in golden_commands()
    ]
    assert any(args[0] == "check" and "--degree" in args for args, _, _ in jobs)
    code = (
        "import contextlib, io, pathlib, sys\n"
        "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
        "from zii import cli\n"
        f"for argv, golden, uses_out in {jobs!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    got = pathlib.Path(argv[-1]).read_text() if uses_out else out.getvalue()\n"
        "    assert got == pathlib.Path(golden).read_text(), argv\n"
        "print(sorted(m for m in ('numpy', 'scipy') if sys.modules[m] is not None))\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_equations_of_builtins_leave_sympy_out():
    code = (
        "import sys\n"
        "from zii import BUILTIN_FAMILIES, zii_equations\n"
        "for name, family in sorted(BUILTIN_FAMILIES.items()):\n"
        "    for d in (1, 2, 3):\n"
        "        zii_equations(family(), d)\n"
        "zii_equations(BUILTIN_FAMILIES['disk-quadratic'](), 4)\n"
        "print('sympy' in sys.modules)\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_golden_equations_and_collapse_commands_leave_sympy_out(tmp_path):
    argvs = [
        [*args, "--out", str(tmp_path / "out.json")] if uses_out else args
        for args, _, uses_out in golden_commands()
        if args[0] in ("equations", "collapse")
    ]
    assert len(argvs) == 5
    code = (
        "import contextlib, io, sys\n"
        "from zii import cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print('sympy' in sys.modules)\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_box_residuals_leave_scipy_special_out():
    # only the orthant quadrature and the correlated gamma density use it
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import zii.numeric\n"
        "before = 'scipy.special' in sys.modules\n"
        "from zii import BUILTIN_FAMILIES\n"
        "from zii.numeric import numeric_density, numeric_zii_residuals\n"
        "family = BUILTIN_FAMILIES['bilinear-box']()\n"
        "point = {'a00': Fraction(1), 'a01': Fraction(1, 4), 'a10': Fraction(1, 4), 'a11': 0}\n"
        "numeric_zii_residuals(numeric_density(family, point), 2)\n"
        "print(before, 'scipy.special' in sys.modules)\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False False"
