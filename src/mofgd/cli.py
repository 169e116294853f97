"""Command-line entry point: config-driven runs emitting CSV/JSON artifacts.

Commands
--------
solve      run the staged fractional method from the first grid start
pareto     sweep all starts, emit the nondominated front and plot data
compare    gamma-comparison table (classical vs fractional)
verify-t5  linear-rate check against the closed-form regularized solution
verify-t6  staged error-bound recursion check
fixtures   reproduction report for the three analytic examples

Exit codes: 0 success, 1 verification failure, 2 usage/config error.
Artifacts are byte-reproducible given (config, seed) and the BLAS thread
count: the mogd rows of comparison.csv come from ill-conditioned runs that
amplify last-bit rounding, so they change with it.  Wall-clock timings and
timestamps appear only in summary.json and comparison.csv's wall_seconds,
and no wall-clock field decides an exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, replace
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

__all__ = ["RunManifest", "ConfigError", "parse_config", "run", "main"]

COMMANDS = ("solve", "pareto", "compare", "verify-t5", "verify-t6", "fixtures")

# PyYAML's libyaml scanner when it is built, with the same safe constructor
# and resolver as SafeLoader.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Config validation failure; the message names the offending field."""


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_path: Optional[str]
    output_dir: str
    seed: Optional[int] = None
    force: bool = False
    jobs: int = 1
    verbose: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"command: unknown command {self.command!r}")
        if self.jobs < 1:
            raise ConfigError(f"jobs: must be >= 1, got {self.jobs}")


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


def _vec(value, n: Optional[int], where: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if n is not None and arr.size == 1:
        arr = np.full(n, float(arr[0]))
    if n is not None and arr.size != n:
        raise ConfigError(f"{where}: expected {n} entries, got {arr.size}")
    return arr


def parse_config(path) -> tuple[ExperimentSpec, SolverConfig, StageSchedule]:
    """Load and validate a YAML experiment config.

    Sections: instance (a fixture name, or n, m_data, m and seed of a random
    quadratic), solver (sigma, r, epsilon, max_iterations, eta),
    schedule (alphas, gammas, iterations, terminal), experiment (method,
    gamma_values, start_grid with lb, ub and count).  Any other key is a
    ConfigError that names it as <section>.<key>.
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
        n = int(_need(inst_doc, "n", "instance"))
        m_data = int(_need(inst_doc, "m_data", "instance"))
        m = int(_need(inst_doc, "m", "instance"))
        seed = int(inst_doc.get("seed", 0))
        if min(n, m_data, m) < 1:
            raise ConfigError("instance: n, m_data and m must be positive")
        instance = random_quadratic_mop(n, m_data, m, seed)
        dim = n

    # An absent key takes the dataclass default, read from its class
    # attribute, except that the CLI stops at 1e-4 after at most 2000
    # iterations.
    sol_doc = _section(doc.get("solver", {}), "solver")
    try:
        solver = SolverConfig(
            sigma=float(sol_doc.get("sigma", SolverConfig.sigma)),
            backtrack=float(sol_doc.get("r", SolverConfig.backtrack)),
            tolerance=float(sol_doc.get("epsilon", 1e-4)),
            max_iterations=int(sol_doc.get("max_iterations", 2000)),
            eta=float(sol_doc.get("eta", SolverConfig.eta)),
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc

    sch_doc = _section(doc.get("schedule", {}), "schedule")
    alphas = list(sch_doc.get("alphas", DEFAULT_ALPHAS))
    iterations = list(sch_doc.get("iterations", DEFAULT_ITERATIONS))
    if len(iterations) != len(alphas):
        raise ConfigError("schedule.iterations: length must match schedule.alphas")
    gammas = list(sch_doc.get("gammas", DEFAULT_GAMMAS[: len(alphas)]))
    if len(gammas) != len(alphas):
        raise ConfigError("schedule.gammas: length must match schedule.alphas")
    terminal = _vec(sch_doc.get("terminal", 0.0), dim, "schedule.terminal")
    try:
        schedule = StageSchedule.from_gammas(alphas, gammas, iterations, terminal=terminal)
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}") from exc

    exp_doc = _section(doc.get("experiment", {}), "experiment")
    grid_doc = _section(exp_doc.get("start_grid", {}), "experiment.start_grid")
    lb = _vec(grid_doc.get("lb", DEFAULT_START_LB), dim, "experiment.start_grid.lb")
    ub = _vec(grid_doc.get("ub", DEFAULT_START_UB), dim, "experiment.start_grid.ub")
    count = int(grid_doc.get("count", DEFAULT_START_COUNT))
    try:
        spec = ExperimentSpec(
            instance=instance,
            gamma_values=tuple(exp_doc.get("gamma_values", PAPER_GAMMA_VALUES)),
            start_grid=(lb, ub, count),
            method=str(exp_doc.get("method", ExperimentSpec.method)),
            schedule=schedule,
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
        payload = dict(payload)
        payload["written_files"] = sorted(set(self.files))
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        with open(self.out_dir / "summary.json", "w") as fh:
            json.dump(payload, fh, indent=1, default=_jsonable)


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _fmt(x: float) -> str:
    return repr(float(x))


PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render the emitted front/table CSVs (run from the artifact directory).\"\"\"
import csv
import sys
from pathlib import Path

import matplotlib.pyplot as plt

for front_csv in sorted(Path(".").glob("front_*.csv")):
    with open(front_csv) as fh:
        rows = list(csv.DictReader(fh))
    # An empty front, or one of a single objective, has no f_2 to plot.
    if not rows or "f_2" not in rows[0]:
        continue
    f1 = [float(r["f_1"]) for r in rows]
    f2 = [float(r["f_2"]) for r in rows]
    plt.plot(f1, f2, "o-", label=front_csv.stem)
plt.xlabel("f_1")
plt.ylabel("f_2")
plt.legend()
plt.savefig("fronts.png", dpi=150)
print("wrote fronts.png")
"""


def _write_front(writer: _Writer, name: str, front: list[FrontPoint]) -> None:
    """One row per front point: f_1 ... f_m, then its start index (an empty
    front has no objective count, so its header is start_index alone)."""
    m = front[0].objectives.size if front else 0
    writer.write_csv(name, [f"f_{j}" for j in range(1, m + 1)] + ["start_index"],
                     ([_fmt(v) for v in p.objectives] + [p.start_index] for p in front))


def _cmd_solve(spec, solver, schedule, writer: _Writer) -> tuple[int, dict]:
    objectives = spec.objectives()
    trace = run_adaptive(objectives, spec.starts()[0], solver, schedule)
    trace.to_csv(writer.path("trace.csv"))
    payload = trace.summary()
    # The raw objectives at final_x, not a stage merit at an earlier iterate.
    payload["final_f"] = [float(obj.value(trace.final_x)) for obj in objectives]
    ok = trace.termination != "error"
    return (0 if ok else 1), {"solve": payload}


def _cmd_pareto(spec, solver, schedule, writer: _Writer, jobs: int) -> tuple[int, dict]:
    failures: list = []
    front = pareto_sweep(spec, solver, failures=failures, jobs=jobs)
    _write_front(writer, f"front_{spec.method}.csv", front)
    baseline_front = []
    if spec.method == "moaocfgd" and (not isinstance(spec.instance, str)
                                      or spec.instance != "example3_nonsmooth"):
        baseline_front = pareto_sweep(replace(spec, method="mogd"), solver,
                                      failures=failures, jobs=jobs)
        _write_front(writer, "front_mogd.csv", baseline_front)
    writer.write_text("plot_fronts.py", PLOT_SCRIPT)
    payload = {
        "front_size": len(front),
        "max_norm_d": max((p.norm_d for p in front), default=0.0),
        "criticality_tolerance": solver.tolerance,
        "failed_starts": [{"start_index": i, "reason": r} for i, r in failures],
    }
    if front and baseline_front:
        reference = nondominated_filter(list(front) + list(baseline_front))
        payload["adrs"] = {
            spec.method: adrs([p.objectives for p in front],
                              [p.objectives for p in reference]),
            "mogd": adrs([p.objectives for p in baseline_front],
                         [p.objectives for p in reference]),
            "normalization": "per-objective range of the union reference front",
        }
    # An empty front (every start failed) verifies nothing.
    ok = bool(front) and all(p.norm_d < solver.tolerance * 10 for p in front)
    return (0 if ok else 1), {"pareto": payload}


def _cmd_compare(spec, solver, schedule, writer: _Writer) -> tuple[int, dict]:
    if not isinstance(spec.instance, QuadraticMop):
        raise ConfigError("experiment: compare needs a random quadratic instance")
    rows = comparison_table(spec.instance, spec.gamma_values, solver,
                            x0=spec.starts()[0])
    writer.write_csv(
        "comparison.csv",
        ["gamma", "method", "condition_number", "iterations", "wall_seconds", "final_error"],
        ([_fmt(r["gamma"]), r["method"], _fmt(r["condition_number"]),
          r["iterations"], _fmt(r["wall_seconds"]), _fmt(r["final_error"])]
         for r in rows),
    )
    save_mop(spec.instance, writer.path("instance.json"))
    finite = all(np.isfinite(r["condition_number"]) for r in rows)
    won = sum(
        1 for g in spec.gamma_values
        if _row(rows, g, "moaocfgd")["iterations"] <= _row(rows, g, "mogd")["iterations"]
    )
    payload = {
        "condition_numbers_finite": finite,
        "fractional_iteration_wins": won,
        "gamma_count": len(spec.gamma_values),
        "note": ("mogd rows: classical descent on outer-product-regularized objectives; "
                 "moaocfgd rows: diagonal regularizer induced by (alpha, beta)"),
    }
    ok = finite and won >= max(1, 2 * len(spec.gamma_values) // 3)
    return (0 if ok else 1), {"compare": payload}


def _row(rows, gamma, method):
    return next(r for r in rows if r["gamma"] == gamma and r["method"] == method)


def _cmd_verify_t5(spec, solver, schedule, writer: _Writer) -> tuple[int, dict]:
    if not isinstance(spec.instance, QuadraticMop):
        raise ConfigError("experiment: verify-t5 needs a random quadratic instance")
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
    ok = report.geometric and not report.rate_violation and report.fixed_point_gap < 1e-6
    return (0 if ok else 1), {"verify_t5": payload}


def _cmd_verify_t6(spec, solver, schedule, writer: _Writer) -> tuple[int, dict]:
    if not isinstance(spec.instance, QuadraticMop):
        raise ConfigError("experiment: verify-t6 needs a random quadratic instance")
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


def _cmd_fixtures(spec, solver, schedule, writer: _Writer) -> tuple[int, dict]:
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
    sched2 = schedule if isinstance(spec.instance, str) and spec.instance == "example2" else default_schedule()
    trace2 = run_adaptive(fixture_objectives("example2"), np.array([1.0, 1.0]),
                          SolverConfig(tolerance=1e-8, max_iterations=2000), sched2)
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
    sched3 = default_schedule()
    trace3 = run_adaptive([obj3], np.array([3.0, 3.0]),
                          SolverConfig(tolerance=1e-6, max_iterations=2000), sched3)
    f3_hits = [r.k for r in trace3.records if r.f_values[0] <= 1e-3]
    frac_iters = f3_hits[0] if f3_hits else (
        trace3.iterations if obj3.value(trace3.final_x) <= 1e-3 else None
    )
    sub = subgradient_baseline(obj3, np.array([3.0, 3.0]), steps=2000)
    sub_iters = sub.iterations if sub.termination == "tolerance" else None
    checks["example3"] = {
        "fractional_iterations_to_1e-3": frac_iters,
        "subgradient_iterations_to_1e-3": sub_iters,
        "final_value": float(obj3.value(trace3.final_x)),
        "ok": frac_iters is not None and sub_iters is not None and frac_iters < sub_iters,
    }
    lines.append(f"example3: fractional {frac_iters} vs subgradient {sub_iters} iterations")

    writer.write_text("fixtures_report.txt", "\n".join(lines) + "\n")
    ok = all(c["ok"] for c in checks.values())
    return (0 if ok else 1), {"fixtures": checks}


def run(manifest: RunManifest) -> int:
    """Execute one command; returns the process exit code."""
    out_dir = Path(manifest.output_dir)
    if out_dir.exists() and any(out_dir.iterdir()) and not manifest.force:
        print(f"error: output directory {out_dir} is not empty (use --force)", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)

    if manifest.command == "fixtures" and manifest.config_path is None:
        spec = ExperimentSpec(instance="example2", schedule=default_schedule(),
                              start_grid=((DEFAULT_START_LB,) * 2, (DEFAULT_START_UB,) * 2, 1))
        solver, schedule = SolverConfig(), spec.schedule
    else:
        if manifest.config_path is None:
            print("error: --config is required for this command", file=sys.stderr)
            return 2
        spec, solver, schedule = parse_config(manifest.config_path)
    if manifest.seed is not None:
        if not isinstance(spec.instance, QuadraticMop):
            raise ConfigError("--seed: only a random quadratic instance takes a seed")
        mop = spec.instance
        spec = replace(spec, instance=random_quadratic_mop(
            mop.dim, mop.factors[0].shape[1], mop.n_objectives, manifest.seed))

    writer = _Writer(out_dir)
    started = time.perf_counter()
    if manifest.command == "solve":
        code, payload = _cmd_solve(spec, solver, schedule, writer)
    elif manifest.command == "pareto":
        code, payload = _cmd_pareto(spec, solver, schedule, writer, manifest.jobs)
    elif manifest.command == "compare":
        code, payload = _cmd_compare(spec, solver, schedule, writer)
    elif manifest.command == "verify-t5":
        code, payload = _cmd_verify_t5(spec, solver, schedule, writer)
    elif manifest.command == "verify-t6":
        code, payload = _cmd_verify_t6(spec, solver, schedule, writer)
    else:
        code, payload = _cmd_fixtures(spec, solver, schedule, writer)

    payload.update({
        "command": manifest.command,
        "exit_code": code,
        "wall_seconds": time.perf_counter() - started,
        "config": manifest.config_path,
        "seed_override": manifest.seed,
    })
    writer.write_summary(payload)
    if manifest.verbose:
        print(json.dumps(payload, indent=1, default=_jsonable))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mofgd",
        description="Multi-objective fractional gradient descent experiments",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="YAML experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the instance seed")
    parser.add_argument("--out", default="runs/latest", help="output directory")
    parser.add_argument("--force", action="store_true", help="allow writing into a non-empty directory")
    parser.add_argument("--jobs", type=int, default=1, help="pareto sweep worker processes")
    parser.add_argument("--verbose", action="store_true")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        manifest = RunManifest(command=args.command, config_path=args.config,
                               output_dir=args.out, seed=args.seed,
                               force=args.force, jobs=args.jobs, verbose=args.verbose)
        return run(manifest)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
