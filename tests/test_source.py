"""Source-level guards over the mofgd package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mofgd"


def test_no_assert_statements_in_package():
    """Checks must raise typed errors: `python -O` strips assert statements."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/mofgd: {found}"


def test_cli_import_leaves_scipy_optimize_unloaded():
    """Importing the CLI must not load scipy.optimize (about 0.3 s and 20 MB)."""
    code = "import sys, mofgd.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
