"""Source-level guards over the mofgd package."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "mofgd"


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


def test_no_module_imports_warnings():
    """A coordinate below its terminal is reported in its node stack's notes
    and nowhere else, so no module of the package imports warnings."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "warnings"
                                                for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "warnings"
    ]
    assert not found, f"warnings imports in src/mofgd: {found}"


def _run(args, **kw):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          **kw)


def test_cli_import_loads_no_scipy():
    """Importing the CLI must load no scipy module (scipy.special alone costs
    about 0.25 s of set-up)."""
    code = ("import sys, mofgd.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = _run(["-c", code], check=True)
    assert out.stdout.strip() == "[]"


# Runs the CLI with every import of scipy failing, so that an import made
# lazily inside a command fails the run too.
BLOCKED_SCIPY_CLI = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
from mofgd.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", [
    ["fixtures"],
    ["solve", "--config", str(REPO / "configs" / "example2.yaml")],
])
def test_cli_runs_without_scipy(command, tmp_path):
    out = _run(["-c", BLOCKED_SCIPY_CLI, *command, "--out", str(tmp_path / "out")],
               cwd=tmp_path)
    assert out.returncode == 0, out.stderr


def test_building_fixture_objectives_loads_no_numpy_random():
    """Parsing a fixture config and building its objectives validates each
    gradient on deterministic points, without importing numpy.random."""
    code = ("import sys; from mofgd.cli import parse_config; "
            f"parse_config({str(REPO / 'configs' / 'example2_pair.yaml')!r})[0].objectives(); "
            "print([m for m in sys.modules if m == 'numpy.random' or m.startswith('numpy.random.')])")
    out = _run(["-c", code], check=True)
    assert out.stdout.strip() == "[]"


def _ledger_names():
    """The construct named first in each row of README's "Speed constructs"
    table, as `module.name` or `module.Class.attribute`."""
    lines = (REPO / "README.md").read_text().splitlines()
    start = lines.index("### Speed constructs")
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("#"):
            break
        if line.startswith("| `"):
            rows.append(line.split("`")[1])
    return rows


def test_ledger_names_exist_in_the_package():
    """Every construct the README's speed ledger keeps is still in src/mofgd."""
    names = _ledger_names()
    assert len(names) >= 5
    missing = []
    for name in names:
        module, *attributes = name.split(".")
        obj = importlib.import_module(f"mofgd.{module}")
        for attribute in attributes:
            obj = getattr(obj, attribute, None)
        if obj is None:
            missing.append(name)
    assert not missing, f"ledger rows without a construct in src/mofgd: {missing}"
