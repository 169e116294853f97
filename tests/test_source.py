"""Source-level guards over the mofgd package."""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mofgd.cli import COMMANDS

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


# The shipped config each CLI command runs on; fixtures reads none.
SHIPPED_CONFIGS = {"solve": "example2.yaml", "pareto": "example2_pair.yaml",
                   "compare": "paper_quadratic.yaml", "verify-t5": "paper_quadratic.yaml",
                   "verify-t6": "paper_quadratic.yaml", "fixtures": None}


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_runs_without_scipy(command, tmp_path):
    """Every command runs on its shipped config with scipy blocked."""
    config = SHIPPED_CONFIGS[command]
    args = [] if config is None else ["--config", str(REPO / "configs" / config)]
    out = _run(["-c", BLOCKED_SCIPY_CLI, command, *args, "--out", str(tmp_path / "out")],
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


def test_perfbench_workloads_prepare_and_set_up(monkeypatch):
    """Every benchmark workload's untimed prepare and its set-up, under a
    timer that times nothing, run against the package: they unpack three
    values from parse_config on the shipped configs and build each
    workload's objectives, frac_smooth's as
    ObjectiveModel(value, gradient, hessian, kind=..., dim=...).  The module
    is loaded from its source without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert set(workloads.WORKLOADS) == {"pareto_pair", "compare_n100", "frac_smooth",
                                        "theory_checks"}
    for workload in workloads.WORKLOADS.values():
        assert workload.prepare(REPO, 1)["key"]
        workload.setup(REPO, 1, lambda *names: contextlib.nullcontext())


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


# Tracer layers whose function the package no longer has; the traced
# benchmark run reports them as missing.
DEAD_TRACER_TARGETS = {("mofgd.problems", "quadratic_effective_gradient")}

# The functions whose traced calls give perfbench's per-layer counts.
TRACER_SEAMS = (("mofgd.descent", "run_single_stage"), ("mofgd.descent", "armijo_step"),
                ("mofgd.direction", "solve_direction"),
                ("mofgd.fractional", "modified_fractional_gradient"))


def _tracer_targets():
    """FUNCTIONS and TO_CSV of perfbench/tracer.py, read from its source
    without importing it."""
    tree = ast.parse((REPO / "perfbench" / "tracer.py").read_text())
    found = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and len(node.targets) == 1
             and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in ("FUNCTIONS", "TO_CSV")}
    return found["FUNCTIONS"], found["TO_CSV"]


def test_tracer_targets_exist_in_the_package():
    """Every function and method that perfbench's tracer wraps is still
    where it looks, so no traced layer silently reads zero calls."""
    functions, (module, cls, attribute, _) = _tracer_targets()
    assert set(TRACER_SEAMS) <= {(m, a) for m, a, _ in functions}
    missing = [f"{m}.{a}" for m, a, _ in functions
               if (m, a) not in DEAD_TRACER_TARGETS
               and not callable(getattr(importlib.import_module(m), a, None))]
    assert not missing, f"tracer targets without a function in src/mofgd: {missing}"
    assert callable(getattr(getattr(importlib.import_module(module), cls), attribute))


def test_tracer_seams_are_looked_up_at_call_time(monkeypatch):
    """Wrappers put into every mofgd module that binds a seam, as the tracer
    puts its own, see every call of a two-stage fractional run: the seams
    are looked up through module globals at call time.  run_single_stage
    binds cfg and trace by name and returns the trace, and armijo_step
    returns its backtrack count third."""
    import numpy as np

    from mofgd.descent import SolverConfig, StageSchedule, run_adaptive
    from mofgd.fixtures import example3_objective

    seen = {}
    originals = {}
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "mofgd" or name.startswith("mofgd."))]
    for module_name, attribute in TRACER_SEAMS:
        original = originals[attribute] = getattr(importlib.import_module(module_name), attribute)

        def wrapper(*args, original=original, calls=seen.setdefault(attribute, []), **kwargs):
            result = original(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)

    cfg = SolverConfig()
    schedule = StageSchedule.from_gammas([0.5, 0.7], [0.1, 0.0], [20, 20], terminal=0.0)
    trace = run_adaptive([example3_objective()], np.array([3.0, 2.0]), cfg, schedule)
    assert [s.termination for s in trace.stages] == ["tolerance", "tolerance"]
    assert all(s.iterations > 0 for s in trace.stages)

    signature = inspect.signature(originals["run_single_stage"])
    assert len(seen["run_single_stage"]) == 2
    for args, kwargs, result in seen["run_single_stage"]:
        bound = signature.bind(*args, **kwargs).arguments
        assert bound["cfg"] is cfg and bound["trace"] is result is trace

    assert len(seen["armijo_step"]) == trace.iterations
    for (_, _, result), record in zip(seen["armijo_step"], trace.records):
        eta, _, backtracks, _ = result
        assert backtracks == record.backtracks and eta == cfg.backtrack ** backtracks

    # One direction solve and one fractional gradient per iterate.
    iterates = trace.iterations + len(trace.stages)
    assert len(seen["solve_direction"]) == len(seen["modified_fractional_gradient"]) == iterates


# Functions that run once or more per solver step, and numpy helpers whose
# Python-level wrapping costs more than their arithmetic at the step's sizes.
STEP_FUNCTIONS = {"direction.py": ("solve_direction", "_solve_pair"),
                  "descent.py": ("armijo_step",),
                  "problems.py": ("_piece_values", "subgradient")}
STEP_FREE_HELPERS = {"atleast_2d", "stack", "mean"}


def test_step_functions_call_no_numpy_wrapper_helper():
    """The per-step functions reach the step's arrays without np.atleast_2d,
    np.stack or np.mean: each wraps microseconds of Python around work
    that a reshape, np.array or a sum does with the same bits."""
    found, seen = [], set()
    for module, names in STEP_FUNCTIONS.items():
        tree = ast.parse((PACKAGE / module).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in names:
                seen.add((module, node.name))
                found += [f"{module}:{call.lineno} {node.name} calls np.{call.func.attr}"
                          for call in ast.walk(node)
                          if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                          and isinstance(call.func.value, ast.Name)
                          and call.func.value.id == "np"
                          and call.func.attr in STEP_FREE_HELPERS]
    assert seen == {(m, n) for m, names in STEP_FUNCTIONS.items() for n in names}
    assert not found, found


# The functions that run once or more per Armijo step of a stage.
ARMIJO_STEP_FUNCTIONS = {"direction.py": ("solve_direction", "_solve_pair", "_result_from"),
                         "descent.py": ("armijo_step", "run_single_stage")}


def _stacks_rows(node) -> bool:
    """Whether node indexes with a None axis, as R[:, None, :] does."""
    if not isinstance(node, ast.Subscript):
        return False
    index = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    return any(isinstance(i, ast.Constant) and i.value is None for i in index)


def test_line_search_reads_the_direction_slopes_and_one_curvature_product():
    """A line search reads the slopes that its direction was solved with
    and forms its curvatures as the rows of one matrix-vector product:
    `descent._slopes_and_curvatures` is gone, and no step function forms
    a stacked row product R[:, None, :] @ v."""
    import mofgd.descent as descent

    assert not hasattr(descent, "_slopes_and_curvatures")
    found, seen = [], set()
    for module, names in ARMIJO_STEP_FUNCTIONS.items():
        tree = ast.parse((PACKAGE / module).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in names:
                seen.add((module, node.name))
                found += [f"{module}:{op.lineno} {node.name}" for op in ast.walk(node)
                          if isinstance(op, ast.BinOp) and isinstance(op.op, ast.MatMult)
                          and (_stacks_rows(op.left) or _stacks_rows(op.right))]
    assert seen == {(m, n) for m, names in ARMIJO_STEP_FUNCTIONS.items() for n in names}
    assert not found, found


def test_one_active_piece_rule():
    """Which pieces of a piecewise-max objective are active is one rule:
    `problems.ACTIVE_TOLERANCE` is assigned once in the package, no
    `PiecewiseMaxObjective` method holds a float literal of its own, and
    `_active` is a plain argmax, with no tie rule's norms, argmin, where or
    indices."""
    assigned = [f"{path.name}:{node.lineno}"
                for path in sorted(PACKAGE.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "ACTIVE_TOLERANCE"
                        for t in node.targets)]
    assert len(assigned) == 1 and assigned[0].startswith("problems.py:"), assigned
    tree = ast.parse((PACKAGE / "problems.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "PiecewiseMaxObjective")
    floats = [node.lineno for node in ast.walk(cls)
              if isinstance(node, ast.Constant) and isinstance(node.value, float)]
    assert not floats, f"float literals in PiecewiseMaxObjective at lines {floats}"
    active = next(node for node in cls.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_active")
    attributes = {node.attr for node in ast.walk(active) if isinstance(node, ast.Attribute)}
    assert "argmax" in attributes
    assert not attributes & {"argmin", "where", "indices", "moveaxis", "norm"}, attributes
