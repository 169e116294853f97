"""Command-line entry point: config-driven runs emitting CSV/JSON artifacts.

Commands
--------
solve      run experiment.method from the first grid start
pareto     sweep all starts with experiment.method, emit the nondominated
           fronts (and the mogd baseline's front for moaocfgd)
compare    gamma-comparison table (outer vs diagonal regularizer)
verify-t5  linear-rate check against the closed-form regularized solution
verify-t6  staged error-bound recursion check
fixtures   reproduction report for the three analytic examples (reads no
           config: each example runs its own fixed settings)

Every other command reads its instance, including a random instance's
seed, its solver settings and its schedule from --config alone.
experiment.method picks the schedule that solve and pareto run
(`_method_schedule`): moaocfgd the config's schedule, mogd the one
classical stage of `mogd_baseline`.  compare, verify-t5 and verify-t6 run
no method and read the config's schedule.

--jobs sets pareto's sweep worker processes; pareto is the only command
that starts workers, so every other command takes --jobs 1 alone.  `main`
passes argparse's values straight to `run(command, config_path,
output_dir, force=False, jobs=1)`, which tests call directly.

Exit codes: 0 success, 1 verification failure, 2 usage/config error.
Artifacts are byte-reproducible given the config and the BLAS thread
count: the mogd rows of comparison.csv come from ill-conditioned runs that
amplify last-bit rounding, so they change with it.  Wall-clock timings and
timestamps appear only in summary.json and comparison.csv's wall_seconds,
and no wall-clock field decides an exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .descent import SolverConfig, StageSchedule, run_adaptive
from .fixtures import (
    DEFAULT_ALPHAS,
    DEFAULT_GAMMAS,
    DEFAULT_ITERATIONS,
    EXAMPLE1_FRACTIONAL_ALPHA,
    EXAMPLE1_MATRIX,
    EXAMPLE1_OFFSET,
    EXAMPLE1_PAPER_POINT,
    FIXTURE_NAMES,
    classical_critical_point,
    default_schedule,
    example3_objective,
    fixture_objectives,
    fractional_critical_point,
    recover_terminal,
)
from .lab import (
    DEFAULT_START_COUNT,
    DEFAULT_START_LB,
    DEFAULT_START_UB,
    PAPER_GAMMA_VALUES,
    ExperimentSpec,
    FrontPoint,
    _classical_schedule,
    adrs,
    comparison_table,
    mogd_baseline,
    nondominated_filter,
    pareto_sweep,
    subgradient_baseline,
    verify_rate_theorem5,
    verify_staged_theorem6,
)
from .problems import QuadraticMop, random_quadratic_mop, save_mop

__all__ = ["ConfigError", "parse_config", "run", "main"]

COMMANDS = ("solve", "pareto", "compare", "verify-t5", "verify-t6", "fixtures")
NEEDS_MOP = ("compare", "verify-t5", "verify-t6")  # need a random quadratic instance

# PyYAML's libyaml scanner when it is built, with the same safe constructor
# and resolver as SafeLoader.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Config validation failure; the message names the offending field."""


# The keys each config section accepts; parse_config refuses any other, so a
# misspelt key cannot fall back to its default.
_KEYS = {
    "config": ("instance", "solver", "schedule", "experiment"),
    "instance": ("name", "n", "m_data", "m", "seed"),
    "solver": ("sigma", "r", "epsilon", "max_iterations", "eta"),
    "schedule": ("alphas", "gammas", "iterations", "terminal"),
    "experiment": ("method", "gamma_values", "start_grid"),
    "experiment.start_grid": ("lb", "ub", "count"),
}


def _section(doc, where: str, keys=None) -> dict:
    """doc, after refusing a non-mapping and any key outside keys (_KEYS[where])."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(doc).__name__}")
    for key in doc:
        if key not in (keys or _KEYS[where]):
            raise ConfigError(f"{where}.{key}: unknown key")
    return doc


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where}.{key}: missing required key")
    return doc[key]


def _integer(value, where: str) -> int:
    """value as an int: an integer, or a float of integral value; ConfigError
    naming where for anything else (a bool, a string, a list, or a float
    that int() would truncate)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _float(value, where: str) -> float:
    """value as a finite float: a number, or a numeric string such as 1e-4,
    which PyYAML reads as a string for want of a dot; ConfigError naming
    where for anything else (a bool, a list, a NaN or an infinity)."""
    if not isinstance(value, bool):
        try:
            if math.isfinite(number := float(value)):
                return number
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{where}: expected a finite number, got {value!r}")


def _list(value, where: str, read=_float) -> list:
    """Each entry of the list value read by read (`_float`, or `_integer`);
    ConfigError naming where for anything but a list, or for an entry that
    read refuses."""
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    return [read(v, where) for v in value]


def _vec(value, n: int, where: str) -> np.ndarray:
    """A number or a list of them, each read by `_float`, as a float
    n-vector, a single number broadcast to n entries; ConfigError naming
    where for anything else or another length."""
    arr = np.array(_list(value if isinstance(value, list) else [value], where))
    if arr.size == 1:
        arr = np.full(n, arr[0])
    if arr.size != n:
        raise ConfigError(f"{where}: expected {n} entries, got {arr.size}")
    return arr


def parse_config(path) -> tuple[ExperimentSpec, SolverConfig, StageSchedule]:
    """Load and validate a YAML experiment config.

    Sections: instance (a fixture name, or n, m_data, m and seed of a random
    quadratic), solver (sigma, r, epsilon, max_iterations, eta),
    schedule (alphas, gammas, iterations, terminal), experiment (method,
    gamma_values, start_grid with lb, ub and count).  alphas, gammas and
    iterations describe one schedule, so they default together: a config
    that gives any of them gives all three.  Every float, whether
    a key's value or a list's entry, is read by one rule (`_float`): a
    number or a numeric string such as 1e-4, never a bool.  n, m_data, m,
    seed, max_iterations, each of iterations and count are integers
    (`_integer`).  Any other key, a NaN, an infinity or a bool where a
    number goes, and an empty gamma_values, is a ConfigError that names it
    as <section>.<key>.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    with open(path) as fh:
        try:
            doc = yaml.load(fh, Loader=_YAML_LOADER) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not well-formed YAML: {exc}") from exc
    _section(doc, "config")

    inst_doc = _section(_need(doc, "instance", "config"), "instance")
    if "name" in inst_doc:
        _section(inst_doc, "instance", ("name",))
        instance = inst_doc["name"]
        if instance not in FIXTURE_NAMES:
            raise ConfigError(f"instance.name: unknown fixture {instance!r}")
        dim = 2
    else:
        n, m_data, m = (_integer(_need(inst_doc, key, "instance"), f"instance.{key}")
                        for key in ("n", "m_data", "m"))
        seed = _integer(inst_doc.get("seed", 0), "instance.seed")
        if min(n, m_data, m) < 1:
            raise ConfigError("instance: n, m_data and m must be positive")
        if seed < 0:
            raise ConfigError(f"instance.seed: expected a non-negative integer, got {seed}")
        instance = random_quadratic_mop(n, m_data, m, seed)
        dim = n

    # An absent key takes the dataclass default, read from its class
    # attribute, except that the CLI stops at 1e-4 after at most 2000
    # iterations.
    sol_doc = _section(doc.get("solver", {}), "solver")
    max_iterations = _integer(sol_doc.get("max_iterations", 2000), "solver.max_iterations")
    sigma, backtrack, tolerance, eta = (
        _float(sol_doc.get(key, default), f"solver.{key}")
        for key, default in (("sigma", SolverConfig.sigma), ("r", SolverConfig.backtrack),
                             ("epsilon", 1e-4), ("eta", SolverConfig.eta)))
    try:
        solver = SolverConfig(sigma=sigma, backtrack=backtrack, tolerance=tolerance,
                              max_iterations=max_iterations, eta=eta)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc

    sch_doc = _section(doc.get("schedule", {}), "schedule")
    stage_defaults = {"alphas": list(DEFAULT_ALPHAS), "gammas": list(DEFAULT_GAMMAS),
                      "iterations": list(DEFAULT_ITERATIONS)}
    if stage_defaults.keys().isdisjoint(sch_doc):
        sch_doc = {**stage_defaults, **sch_doc}
    alphas, gammas = (_list(_need(sch_doc, key, "schedule"), f"schedule.{key}")
                      for key in ("alphas", "gammas"))
    iterations = _list(_need(sch_doc, "iterations", "schedule"), "schedule.iterations",
                       read=_integer)
    for key, values in (("iterations", iterations), ("gammas", gammas)):
        if len(values) != len(alphas):
            raise ConfigError(f"schedule.{key}: length must match schedule.alphas")
    terminal = _vec(sch_doc.get("terminal", 0.0), dim, "schedule.terminal")
    try:
        schedule = StageSchedule.from_gammas(alphas, gammas, iterations, terminal=terminal)
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}") from exc

    exp_doc = _section(doc.get("experiment", {}), "experiment")
    grid_doc = _section(exp_doc.get("start_grid", {}), "experiment.start_grid")
    lb = _vec(grid_doc.get("lb", DEFAULT_START_LB), dim, "experiment.start_grid.lb")
    ub = _vec(grid_doc.get("ub", DEFAULT_START_UB), dim, "experiment.start_grid.ub")
    count = _integer(grid_doc.get("count", DEFAULT_START_COUNT), "experiment.start_grid.count")
    gamma_values = tuple(_list(exp_doc.get("gamma_values", list(PAPER_GAMMA_VALUES)),
                               "experiment.gamma_values"))
    if not gamma_values:  # compare would write a table without rows
        raise ConfigError("experiment.gamma_values: expected at least one value, got []")
    try:
        spec = ExperimentSpec(
            instance=instance,
            gamma_values=gamma_values,
            start_grid=(lb, ub, count),
            method=str(exp_doc.get("method", ExperimentSpec.method)),
        )
    except ValueError as exc:
        raise ConfigError(f"experiment: {exc}") from exc
    return spec, solver, schedule


class _Writer:
    """Single funnel for artifact writes; records every file for the summary."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: list[str] = []

    def path(self, name: str) -> Path:
        self.files.append(name)
        return self.out_dir / name

    def write_csv(self, name: str, header: list[str], rows) -> None:
        with open(self.path(name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(row)

    def write_text(self, name: str, text: str) -> None:
        with open(self.path(name), "w") as fh:
            fh.write(text)

    def write_summary(self, payload: dict) -> None:
        """summary.json as strict JSON: a non-finite float is written as null."""
        payload = dict(payload)
        payload["written_files"] = sorted(set(self.files))
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        with open(self.out_dir / "summary.json", "w") as fh:
            json.dump(_finite(payload), fh, indent=1, allow_nan=False)


def _finite(value):
    """value with every non-finite float, nested at any depth, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_front(writer: _Writer, name: str, front: list[FrontPoint]) -> None:
    """One row per front point: f_1 ... f_m, then its start index (an empty
    front has no objective count, so its header is start_index alone)."""
    m = front[0].objectives.size if front else 0
    writer.write_csv(name, [f"f_{j}" for j in range(1, m + 1)] + ["start_index"],
                     ([_fmt(v) for v in p.objectives] + [p.start_index] for p in front))


def _method_schedule(method: str, solver: SolverConfig,
                     schedule: StageSchedule) -> StageSchedule:
    """The schedule that experiment.method runs: moaocfgd the config's
    schedule, mogd the one classical stage of `mogd_baseline`."""
    return schedule if method == "moaocfgd" else _classical_schedule(solver)


def _cmd_solve(spec, solver, schedule, writer: _Writer) -> tuple[int, dict]:
    objectives = spec.objectives()
    trace = run_adaptive(objectives, spec.starts()[0], solver,
                         _method_schedule(spec.method, solver, schedule))
    trace.to_csv(writer.path("trace.csv"), m=len(objectives))
    payload = trace.summary()
    # The raw objectives at final_x, not a stage merit at an earlier iterate.
    payload["final_f"] = [float(obj.value(trace.final_x)) for obj in objectives]
    ok = trace.termination != "error"
    return (0 if ok else 1), {"solve": payload}


def _starts_summary(ends: list) -> dict:
    """How a sweep's starts ended: the count of each termination, and the
    largest final ||d|| over the starts that have one (None if none has)."""
    return {"terminations": dict(sorted(Counter(t for t, _ in ends).items())),
            "max_final_norm_d": max((n for _, n in ends if n is not None), default=None)}


def _weights_summary(front: list[FrontPoint]) -> Optional[dict]:
    """Each lambda_j's smallest and largest value over a front's points,
    the weights that its starts reach (None for an empty front)."""
    if not front:
        return None
    lam = np.array([p.multipliers for p in front])
    return {"min": lam.min(axis=0).tolist(), "max": lam.max(axis=0).tolist()}


def _cmd_pareto(spec, solver, schedule, writer: _Writer, jobs: int) -> tuple[int, dict]:
    """The front of experiment.method and, for moaocfgd, the mogd
    baseline's front, which both score against their union."""
    failures: list = []
    ends, fronts = {}, {}
    for method in (spec.method, "mogd") if spec.method == "moaocfgd" else (spec.method,):
        ends[method] = []
        fronts[method] = pareto_sweep(spec, solver, _method_schedule(method, solver, schedule),
                                      failures=failures, jobs=jobs, ends=ends[method])
        _write_front(writer, f"front_{method}.csv", fronts[method])
    front = fronts[spec.method]
    payload = {
        "front_size": len(front),
        "max_norm_d": max((p.norm_d for p in front), default=0.0),
        "criticality_tolerance": solver.tolerance,
        "failed_starts": [{"start_index": i, "reason": r} for i, r in failures],
        "starts": {method: _starts_summary(e) for method, e in ends.items()},
        "weights": {method: _weights_summary(f) for method, f in fronts.items()},
    }
    if len(fronts) == 2 and all(fronts.values()):
        reference = [p.objectives for p in nondominated_filter(front + fronts["mogd"])]
        payload["adrs"] = {method: adrs([p.objectives for p in f], reference)
                           for method, f in fronts.items()}
        payload["adrs"]["normalization"] = "per-objective range of the union reference front"
    # An empty front (every start failed) verifies nothing.
    ok = bool(front) and all(p.norm_d < solver.tolerance * 10 for p in front)
    return (0 if ok else 1), {"pareto": payload}


def _cmd_compare(spec, solver, schedule, writer: _Writer) -> tuple[int, dict]:
    rows = comparison_table(spec.instance, spec.gamma_values, solver,
                            x0=spec.starts()[0])
    columns = ["gamma", "method", "condition_number", "iterations", "wall_seconds",
               "final_error", "termination"]
    floats = ("gamma", "condition_number", "wall_seconds", "final_error")
    writer.write_csv("comparison.csv", columns, (
        [_fmt(r[k]) if k in floats else r[k] for k in columns] for r in rows))
    save_mop(spec.instance, writer.path("instance.json"))
    finite = all(np.isfinite(r["condition_number"]) for r in rows)
    pairs = [(_row(rows, g, "mogd"), _row(rows, g, "moaocfgd")) for g in spec.gamma_values]
    won = sum(fr["iterations"] <= gd["iterations"] for gd, fr in pairs)
    payload = {
        "condition_numbers_finite": finite,
        "fractional_iteration_wins": won,
        "gamma_count": len(spec.gamma_values),
        "max_iter_rows": sum(r["termination"] == "max_iter" for r in rows),
        "both_tolerance": sum(gd["termination"] == fr["termination"] == "tolerance"
                              for gd, fr in pairs),
        "note": ("mogd rows: classical descent on outer-product-regularized objectives; "
                 "moaocfgd rows: classical descent on diagonal-regularized objectives, "
                 "which a fractional stage of weight gamma is for a quadratic"),
    }
    ok = finite and won >= max(1, 2 * len(spec.gamma_values) // 3)
    return (0 if ok else 1), {"compare": payload}


def _row(rows, gamma, method):
    return next(r for r in rows if r["gamma"] == gamma and r["method"] == method)


def _cmd_verify_t5(spec, solver, schedule, writer: _Writer) -> tuple[int, dict]:
    mop = spec.instance
    lam = np.full(mop.n_objectives, 1.0 / mop.n_objectives)
    report = verify_rate_theorem5(mop, solver, schedule.stages[0].gamma, schedule.terminal,
                                  lam, k_max=solver.max_iterations)
    writer.write_csv("rate_errors.csv", ["k", "error"],
                     ([k, _fmt(e)] for k, e in enumerate(report.errors)))
    payload = {
        "kappa": report.kappa,
        "sigma_max": report.sigma_max,
        "fitted_rate": report.fitted_rate,
        "monotone_geometric": report.geometric,
        "rate_violation": report.rate_violation,
        "final_error": report.final_error,
        "literal_growth_factor_note": (
            "the stated factor (1 + eta/kappa)^k grows with k; the observed decay "
            f"matches the contraction interpretation (fitted rate {report.fitted_rate:.6f})"
        ),
    }
    ok = report.geometric and not report.rate_violation and report.final_error < 1e-6
    return (0 if ok else 1), {"verify_t5": payload}


def _cmd_verify_t6(spec, solver, schedule, writer: _Writer) -> tuple[int, dict]:
    bound, report = verify_staged_theorem6(spec.instance, schedule, solver)
    writer.write_csv(
        "stage_bounds.csv",
        ["stage", "gamma", "iterations", "rate", "R", "epsilon", "e_next", "bound"],
        ([s, _fmt(bound.gammas[s]), bound.iterations[s], _fmt(bound.rates[s]),
          _fmt(bound.R[s]), _fmt(bound.epsilon[s]),
          _fmt(bound.e[s]) if s < len(bound.e) else "",
          _fmt(bound.bound[s])]
         for s in range(len(bound.gammas))),
    )
    payload = {
        "B_max": bound.b_max,
        "C": bound.c_const,
        "recursion_ok": report["recursion_ok"],
        "lipschitz_ok": report["lipschitz_ok"],
        "bound_ok": report["bound_ok"],
        "final_error": report["final_error"],
        "final_bound_ok": report["final_bound_ok"],
    }
    ok = report["recursion_ok"] and report["lipschitz_ok"] and report["bound_ok"] and (
        report["final_bound_ok"] in (True, None)
    )
    return (0 if ok else 1), {"verify_t6": payload}


def _cmd_fixtures(writer: _Writer) -> tuple[int, dict]:
    lines = []
    checks = {}

    # Example 1: classical critical point and a distinct plain-fractional one.
    x_cls, _ = classical_critical_point(EXAMPLE1_MATRIX, EXAMPLE1_OFFSET)
    cfg1 = SolverConfig(tolerance=1e-8, max_iterations=2000)
    obj1 = fixture_objectives("example1")[0]
    trace1 = mogd_baseline([obj1], np.array([1.0, 1.0]), cfg1)
    cls_err = float(np.linalg.norm(trace1.final_x - x_cls))
    c_rec = recover_terminal(EXAMPLE1_MATRIX, EXAMPLE1_OFFSET,
                             EXAMPLE1_FRACTIONAL_ALPHA, EXAMPLE1_PAPER_POINT)
    x_frac = fractional_critical_point(EXAMPLE1_MATRIX, EXAMPLE1_OFFSET,
                                       EXAMPLE1_FRACTIONAL_ALPHA, c_rec)
    dist = float(np.linalg.norm(x_frac - x_cls))
    checks["example1"] = {
        "classical_point": [float(v) for v in trace1.final_x],
        "classical_value": float(obj1.value(trace1.final_x)),
        "classical_error": cls_err,
        "recovered_terminal": [float(v) for v in c_rec],
        "fractional_point": [float(v) for v in x_frac],
        "fractional_vs_classical_distance": dist,
        "ok": cls_err < 1e-4 and dist > 1e-2,
    }
    lines.append(f"example1: classical {trace1.final_x} (err {cls_err:.2e}), "
                 f"fractional {x_frac} at recovered c {c_rec}, separation {dist:.3f}")

    # Example 2: staged run reaches the classical optimal value.
    trace2 = run_adaptive(fixture_objectives("example2"), np.array([1.0, 1.0]),
                          SolverConfig(tolerance=1e-8, max_iterations=2000), default_schedule())
    obj2 = fixture_objectives("example2")[0]
    f2 = obj2.value(trace2.final_x)
    checks["example2"] = {
        "final_x": [float(v) for v in trace2.final_x],
        "final_value": f2,
        "target_value": -7.0 / 3.0,
        "ok": abs(f2 - (-7.0 / 3.0)) < 0.01,
    }
    lines.append(f"example2: staged value {f2:.6f} at {trace2.final_x} (target -2.3333)")

    # Example 3: fractional stages vs subgradient on the nonsmooth fixture.
    obj3 = example3_objective()
    trace3 = run_adaptive([obj3], np.array([3.0, 3.0]),
                          SolverConfig(tolerance=1e-6, max_iterations=2000), default_schedule())
    f3_hits = [k for k, r in enumerate(trace3.records) if r.f_values[0] <= 1e-3]
    frac_iters = f3_hits[0] if f3_hits else (
        trace3.iterations if obj3.value(trace3.final_x) <= 1e-3 else None
    )
    sub_iters = subgradient_baseline(obj3, np.array([3.0, 3.0]), steps=2000)
    checks["example3"] = {
        "fractional_iterations_to_1e-3": frac_iters,
        "subgradient_iterations_to_1e-3": sub_iters,
        "final_value": float(obj3.value(trace3.final_x)),
        "ok": (frac_iters is not None and sub_iters is not None and frac_iters < sub_iters
               and trace3.termination != "error"),
        "termination": trace3.termination,
    }
    lines.append(f"example3: fractional {frac_iters} vs subgradient {sub_iters} iterations")

    writer.write_text("fixtures_report.txt", "\n".join(lines) + "\n")
    ok = all(c["ok"] for c in checks.values())
    return (0 if ok else 1), {"fixtures": checks}


def run(command: str, config_path: Optional[str], output_dir: str, force: bool = False,
        jobs: int = 1) -> int:
    """Execute one command; returns the process exit code.

    An unknown command, a jobs below 1, and a jobs other than 1 for any
    command but pareto (the only one that starts workers) raise ConfigError
    before the file system is touched.
    """
    if command not in COMMANDS:
        raise ConfigError(f"command: unknown command {command!r}")
    if jobs < 1:
        raise ConfigError(f"jobs: must be >= 1, got {jobs}")
    if jobs > 1 and command != "pareto":
        raise ConfigError(f"jobs: only pareto starts workers, so {command} takes 1, got {jobs}")
    out_dir = Path(output_dir)
    if out_dir.exists() and any(out_dir.iterdir()) and not force:
        print(f"error: output directory {out_dir} is not empty (use --force)", file=sys.stderr)
        return 2

    # The config and the instance the command needs are checked first, so a
    # refused run creates no directory.
    fixtures = command == "fixtures"
    if fixtures != (config_path is None):
        print("error: fixtures takes no --config" if fixtures
              else "error: --config is required for this command", file=sys.stderr)
        return 2
    if not fixtures:
        spec, solver, schedule = parse_config(config_path)
        if command in NEEDS_MOP and not isinstance(spec.instance, QuadraticMop):
            raise ConfigError(f"experiment: {command} needs a random quadratic instance")

    out_dir.mkdir(parents=True, exist_ok=True)
    writer = _Writer(out_dir)
    started = time.perf_counter()
    if command == "solve":
        code, payload = _cmd_solve(spec, solver, schedule, writer)
    elif command == "pareto":
        code, payload = _cmd_pareto(spec, solver, schedule, writer, jobs)
    elif command == "compare":
        code, payload = _cmd_compare(spec, solver, schedule, writer)
    elif command == "verify-t5":
        code, payload = _cmd_verify_t5(spec, solver, schedule, writer)
    elif command == "verify-t6":
        code, payload = _cmd_verify_t6(spec, solver, schedule, writer)
    else:
        code, payload = _cmd_fixtures(writer)

    payload.update({
        "command": command,
        "exit_code": code,
        "wall_seconds": time.perf_counter() - started,
        "config": config_path,
    })
    writer.write_summary(payload)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mofgd",
        description="Multi-objective fractional gradient descent experiments",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="YAML experiment config")
    parser.add_argument("--out", default="runs/latest", help="output directory")
    parser.add_argument("--force", action="store_true", help="allow writing into a non-empty directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="pareto sweep worker processes (every other command takes 1)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return run(args.command, args.config, args.out, args.force, args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
