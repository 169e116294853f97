"""Desk-scale experiment harness: baselines, rate/bound verification, sweeps.

Reproduces the quadratic benchmark study: classical-gradient baselines, the
linear-rate check against the closed-form Tikhonov solution, the staged
error-bound recursion, Pareto-front sweeps from a grid of starts, the
gamma-comparison table, and the average-distance-from-reference-set (ADRS)
front metric.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .descent import (
    IterationRecord,
    IterationTrace,
    SolverConfig,
    Stage,
    StageSchedule,
    run_adaptive,
    run_single_stage,
)
from .direction import DirectionAccuracyError, solve_direction
from .fixtures import fixture_objectives
from .problems import (
    ObjectiveModel,
    PiecewiseMaxObjective,
    QuadraticMop,
    regularized,
    tikhonov_solve,
)

__all__ = [
    "ExperimentSpec",
    "StageErrorBound",
    "RateReport",
    "FrontPoint",
    "mogd_baseline",
    "subgradient_baseline",
    "verify_rate_theorem5",
    "verify_staged_theorem6",
    "pareto_sweep",
    "adrs",
    "comparison_table",
    "PAPER_GAMMA_VALUES",
]

PAPER_GAMMA_VALUES = (0.15, 0.25, 0.5, 0.75, 1.0, 10.0)
# The default start segment: every coordinate runs from 1.01 to 10 over 100 starts.
DEFAULT_START_LB, DEFAULT_START_UB, DEFAULT_START_COUNT = 1.01, 10.0, 100
DOMINANCE_SLACK = 1e-9
DUPLICATE_RTOL = 1e-5  # relative part of the duplicate test; see nondominated_filter


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: instance, regularizers, starts, method, schedule.

    instance is a QuadraticMop or a named analytic fixture ("example1",
    "example2", "example2_pair", "example3_nonsmooth").  start_grid is
    (lb, ub, count): count points uniformly subdividing the segment lb -> ub.
    method is "moaocfgd" (the staged schedule) or "mogd" (classical descent).
    """

    instance: Union[QuadraticMop, str]
    gamma_values: tuple[float, ...] = PAPER_GAMMA_VALUES
    start_grid: tuple = ((DEFAULT_START_LB,) * 2, (DEFAULT_START_UB,) * 2, DEFAULT_START_COUNT)
    method: str = "moaocfgd"
    schedule: Optional[StageSchedule] = None

    def __post_init__(self):
        if self.method not in ("moaocfgd", "mogd"):
            raise ValueError(f"unknown method {self.method!r}")
        lb, ub, count = self.start_grid
        lb = np.asarray(lb, dtype=float)
        ub = np.asarray(ub, dtype=float)
        if count < 1:
            raise ValueError("start_grid count must be >= 1")
        if not np.all(lb < ub):
            raise ValueError("start_grid lower bound must be below the upper bound")
        if any(g < 0 for g in self.gamma_values):
            raise ValueError("gamma values must be nonnegative")
        object.__setattr__(self, "start_grid", (lb, ub, int(count)))
        object.__setattr__(self, "gamma_values", tuple(float(g) for g in self.gamma_values))

    def objectives(self) -> list[ObjectiveModel]:
        if isinstance(self.instance, QuadraticMop):
            return self.instance.objectives()
        return fixture_objectives(self.instance)

    def starts(self) -> np.ndarray:
        lb, ub, count = self.start_grid
        if count == 1:
            return lb[None, :].copy()
        ts = np.linspace(0.0, 1.0, count)
        return lb[None, :] + ts[:, None] * (ub - lb)[None, :]


@dataclass(frozen=True)
class StageErrorBound:
    """Per-stage quantities of the staged error recursion.

    rates[s] is the per-iteration contraction of the squared error at stage
    s; R[s] = rates[s]^(k_s/2) is the per-stage factor, so the recursion
    epsilon_{s+1} <= R_s epsilon_s + e_s chains stage starts.  bound[s] is
    the recursion unrolled from epsilon_1.
    """

    gammas: tuple[float, ...]
    iterations: tuple[int, ...]
    rates: tuple[float, ...]
    R: tuple[float, ...]
    epsilon: tuple[float, ...]
    e: tuple[float, ...]
    bound: tuple[float, ...]
    b_max: float
    c_const: float


@dataclass(frozen=True)
class RateReport:
    errors: np.ndarray
    ratios: np.ndarray
    fitted_rate: float
    monotone: bool
    geometric: bool
    rate_violation: bool
    kappa: float
    sigma_max: float
    final_error: float
    fixed_point_gap: float
    final_x: np.ndarray


@dataclass(frozen=True)
class FrontPoint:
    objectives: np.ndarray
    start_index: int
    norm_d: float


def mogd_baseline(objectives: Sequence[ObjectiveModel], x0: np.ndarray,
                  cfg: SolverConfig) -> IterationTrace:
    """Classical multi-objective steepest descent: the alpha=1, gamma=0 stage,
    whose merits and gradients read no terminal."""
    return run_single_stage(list(objectives), x0, cfg, Stage(1.0, 0.0, cfg.max_iterations), 0.0)


def subgradient_baseline(f: ObjectiveModel, x0: np.ndarray, steps: int) -> IterationTrace:
    """Scalar subgradient descent with diminishing steps 0.5/(k+1).

    A PiecewiseMaxObjective steps along its active-set average subgradient
    (see PiecewiseMaxObjective.subgradient).  The run stops with termination
    "tolerance" at the first iterate with f <= 1e-3, so trace.iterations is
    then that iterate's index.
    """
    x = np.asarray(x0, dtype=float).copy()
    trace = IterationTrace()
    for k in range(steps):
        fx = f.value(x)
        if fx <= 1e-3:
            trace.termination = "tolerance"
            trace.final_x = x.copy()
            break
        if isinstance(f, PiecewiseMaxObjective):
            g = f.subgradient(x)
        else:
            g = np.asarray(f.gradient(x), dtype=float)
        eta = 0.5 / (k + 1.0)
        trace.records.append(IterationRecord(
            k=k, stage=0, x=x.copy(), values=[fx],
            t_value=float(-g @ g), norm_d=float(np.linalg.norm(g)),
            eta=eta, backtracks=0,
        ))
        x = x - eta * g
        trace.final_x = x.copy()
    else:
        trace.termination = "max_iter"
    return trace


def _frozen_fixed_steps(merit: Sequence[ObjectiveModel], lam: np.ndarray, step: float,
                        x0: np.ndarray, tolerance: float, k: int) -> list[np.ndarray]:
    """x0 and the iterates of x <- x + step d, d = -sum_j lam_j grad merit_j(x),
    up to k steps or until ||d|| < tolerance."""
    xs = [np.asarray(x0, dtype=float)]
    for _ in range(k):
        G = np.array([m.gradient(xs[-1]) for m in merit])
        d = -G.T @ lam
        if math.sqrt(d @ d) < tolerance:
            break
        xs.append(xs[-1] + step * d)
    return xs


def verify_rate_theorem5(mop: QuadraticMop, cfg: SolverConfig, gamma: float, terminal,
                         multipliers: np.ndarray, x0: Optional[np.ndarray] = None,
                         k_max: int = 2000, stop_error: float = 1e-7) -> RateReport:
    """Frozen-multiplier fixed-step run checked against the closed-form solution.

    The run descends on the merits of the `tikhonov_solve` system for the
    regularizer weight gamma (ValueError when negative) and the terminal,
    taking up to k_max steps of size cfg.eta / sigma_max, where sigma_max
    is that system's largest singular value; of cfg it reads only eta.  It stops
    once ||d|| < sigma_min stop_error, which puts the error to x_Tik below
    stop_error.  Reports per-iteration distances to x_Tik, the fitted
    geometric rate, the condition number and largest singular value of the
    effective matrix, and whether the decay is monotone geometric (the
    error ratios of the last 100 iterations have a standard deviation
    under 5% of their mean).  Divergence (error ratio
    > 1 for 50 consecutive iterations) is reported as rate_violation, not
    raised.
    """
    lam = np.asarray(multipliers, dtype=float)
    sol = tikhonov_solve(mop, gamma, lam, terminal)

    rng = np.random.default_rng(0)
    x0 = (sol.x_tik + rng.normal(0, 1.0, mop.dim)) if x0 is None else np.asarray(x0, dtype=float)

    # Stop once the true error is below stop_error: ||d|| >= sigma_min * error.
    tol_d = max(sol.sigma_min * stop_error, 1e-300)
    xs = _frozen_fixed_steps(sol.merits, lam, cfg.eta / sol.sigma_max, x0, tol_d, k_max)
    errors = np.array([np.linalg.norm(x - sol.x_tik) for x in xs])
    live = errors[:-1] > 1e-13 * (1.0 + np.linalg.norm(sol.x_tik))
    ratios = np.where(live, errors[1:] / np.maximum(errors[:-1], 1e-300), np.nan)
    valid = ratios[~np.isnan(ratios)]
    fitted = float(np.exp(np.mean(np.log(np.maximum(valid, 1e-300))))) if valid.size else 0.0
    last = valid[-100:] if valid.size else np.array([1.0])
    ratio_std = float(np.std(last))
    monotone = bool(np.all(errors[1:] <= errors[:-1] * (1.0 + 1e-10)))

    run_len = 0
    violation = False
    for r in valid:
        run_len = run_len + 1 if r > 1.0 else 0
        if run_len >= 50:
            violation = True
            break

    return RateReport(
        errors=errors,
        ratios=ratios,
        fitted_rate=fitted,
        monotone=monotone,
        geometric=bool(monotone and valid.size and ratio_std < 0.05 * max(np.mean(last), 1e-300)),
        rate_violation=violation,
        kappa=sol.kappa,
        sigma_max=sol.sigma_max,
        final_error=float(errors[-1]),
        fixed_point_gap=float(np.linalg.norm(xs[-1] - sol.x_tik)),
        final_x=xs[-1],
    )


def verify_staged_theorem6(mop: QuadraticMop, schedule: StageSchedule,
                           cfg: SolverConfig, x0: Optional[np.ndarray] = None
                           ) -> tuple[StageErrorBound, dict]:
    """Staged frozen-multiplier run checked against the stage error recursion.

    Stage s takes its k_s steps of size cfg.eta / sigma_max, where
    sigma_max is that of the stage's `tikhonov_solve` system at uniform
    multipliers and the schedule's terminal; of cfg it reads only eta.
    Measures epsilon_s (start-of-stage distance to the stage's regularized
    solution), e_s (drift between consecutive regularized solutions), the
    per-stage contraction factors, and the instance constants B_max and C;
    validates epsilon_{s+1} <= R_s epsilon_s + e_s + 1e-8 and
    e_s <= C |gamma_s - gamma_{s+1}| at every stage.
    """
    m = mop.n_objectives
    lam = np.full(m, 1.0 / m)
    c = schedule.terminal if schedule.terminal is not None else np.zeros(mop.dim)
    gammas = schedule.gammas
    iterations = tuple(s.iterations for s in schedule.stages)
    x_star = mop.least_squares_solution()

    rng = np.random.default_rng(1)
    x = (x_star + rng.normal(0, 1.0, mop.dim)) if x0 is None else np.asarray(x0, dtype=float).copy()

    sols = [tikhonov_solve(mop, g, lam, c) for g in gammas]
    eps, rates, Rs, stage_end_err = [], [], [], []
    for s, k_s in enumerate(iterations):
        eps.append(float(np.linalg.norm(x - sols[s].x_tik)))
        rho = max(abs(1.0 - cfg.eta), abs(1.0 - cfg.eta / sols[s].kappa))
        rates.append(rho * rho)
        Rs.append(rho ** k_s)
        x = _frozen_fixed_steps(sols[s].merits, lam, cfg.eta / sols[s].sigma_max,
                                x, 1e-300, k_s)[-1]
        stage_end_err.append(float(np.linalg.norm(x - x_star)))

    e = [float(np.linalg.norm(sols[s].x_tik - sols[s + 1].x_tik))
         for s in range(len(gammas) - 1)]

    sys0 = sum(lam[j] * mop.gram[j] for j in range(m))
    eigs = np.linalg.eigvalsh(sys0)
    if eigs[0] <= 0:
        raise ValueError("staged bound needs a positive definite weighted Gram sum")
    b_max = 1.0 / float(eigs[0])
    c_const = (b_max ** 2
               * float(np.linalg.norm(sum(mop.gram), 2))
               * float(np.linalg.norm(sum(mop.rtilde)) ** 2)
               * float(np.linalg.norm(x_star - c)))

    bound = [eps[0]]
    for s in range(len(gammas) - 1):
        bound.append(Rs[s] * bound[s] + e[s])

    recursion_ok = all(
        eps[s + 1] <= Rs[s] * eps[s] + e[s] + 1e-8 for s in range(len(gammas) - 1)
    )
    lipschitz_ok = all(
        e[s] <= c_const * abs(gammas[s] - gammas[s + 1]) + 1e-12 for s in range(len(e))
    )
    bound_ok = all(eps[s] <= bound[s] + 1e-8 for s in range(len(eps)))
    final_error = stage_end_err[-1]
    final_bound_ok = (final_error <= 1.1 * c_const * gammas[-1]) if gammas[-1] > 0 else None

    report = {
        "recursion_ok": recursion_ok,
        "lipschitz_ok": lipschitz_ok,
        "bound_ok": bound_ok,
        "final_error": final_error,
        "final_bound_ok": final_bound_ok,
        "stage_end_error_to_x_star": stage_end_err,
    }
    return StageErrorBound(
        gammas=tuple(gammas), iterations=iterations, rates=tuple(rates),
        R=tuple(Rs), epsilon=tuple(eps), e=tuple(e), bound=tuple(bound),
        b_max=b_max, c_const=c_const,
    ), report


def nondominated_filter(points: list[FrontPoint]) -> list[FrontPoint]:
    """The points no other point dominates, less near-duplicates, sorted by
    objective vector.

    q dominates p when f(q) <= f(p) + DOMINANCE_SLACK on every objective and
    f(q) < f(p) - DOMINANCE_SLACK on some objective.  A nondominated p is a
    duplicate of an earlier kept q when, on every objective,
    |f(q) - f(p)| <= DOMINANCE_SLACK + DUPLICATE_RTOL |f(p)| (np.isclose).
    The relative part merges final points of neighbouring starts that reach
    one critical point but stop up to about 1e-6 apart.  Closeness is not
    transitive, so duplicates are dropped greedily in input order.
    """
    n = len(points)
    F = np.array([p.objectives for p in points], dtype=float)
    # [q, p] entries, built one objective at a time so temporaries stay n x n.
    no_worse = np.ones((n, n), dtype=bool)
    better = np.zeros((n, n), dtype=bool)
    close = np.ones((n, n), dtype=bool)
    for col in F.T:
        fq, fp = col[:, None], col[None, :]
        no_worse &= fq <= fp + DOMINANCE_SLACK
        better |= fq < fp - DOMINANCE_SLACK
        close &= np.isclose(fq, fp, rtol=DUPLICATE_RTOL, atol=DOMINANCE_SLACK)
    dominated = (no_worse & better).any(axis=0)
    kept: list[int] = []
    for i in np.flatnonzero(~dominated):
        if not close[kept, i].any():
            kept.append(i)
    return sorted((points[i] for i in kept), key=lambda p: tuple(p.objectives))


def _sweep_starts(spec: ExperimentSpec, cfg: SolverConfig,
                  indices) -> tuple[list[FrontPoint], list[tuple[int, str]]]:
    """Run the chosen method from the starts with the given indices.

    Returns the final points of the runs that ended without error and the
    (start_index, reason) of those that failed, both in start order.
    """
    objectives = spec.objectives()
    starts = spec.starts()
    points, failures = [], []
    for idx in map(int, indices):
        x0 = starts[idx]
        try:
            if spec.method == "mogd":
                trace = mogd_baseline(objectives, x0, cfg)
            elif spec.schedule is None:
                raise ValueError("moaocfgd sweep needs a schedule")
            else:
                trace = run_adaptive(objectives, x0, cfg, spec.schedule)
            if trace.termination == "error":
                failures.append((idx, trace.error or "run error"))
                continue
            fvals = np.array([obj.value(trace.final_x) for obj in objectives])
            points.append(FrontPoint(objectives=fvals, start_index=idx,
                                     norm_d=float(trace.final_norm_d)))
        except Exception as exc:
            failures.append((idx, str(exc)))
    return points, failures


def pareto_sweep(spec: ExperimentSpec, cfg: Optional[SolverConfig] = None,
                 failures: Optional[list] = None, jobs: int = 1) -> list[FrontPoint]:
    """Run the chosen method from every start and return the sorted
    nondominated subset of final objective vectors.

    Individual run failures are recorded (appended to `failures` as
    (start_index, reason) when a list is passed) and excluded, never fatal.
    jobs > 1 runs contiguous chunks of starts in worker processes and gathers
    them in start order, so the front is the same for every jobs.
    """
    cfg = cfg or SolverConfig(tolerance=1e-5, max_iterations=2000)
    indices = np.arange(spec.start_grid[2])
    jobs = min(jobs, indices.size)
    if jobs == 1:
        parts = [_sweep_starts(spec, cfg, indices)]
    else:
        # Imported here so that importing mofgd does not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        chunks = np.array_split(indices, jobs)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_sweep_starts, [spec] * jobs, [cfg] * jobs, chunks))
    if failures is not None:
        failures.extend(f for _, part_failures in parts for f in part_failures)
    return nondominated_filter([p for points, _ in parts for p in points])


def adrs(front: Sequence[np.ndarray], reference: Sequence[np.ndarray]) -> float:
    """Mean over reference points of the minimum range-normalized Chebyshev
    distance to the front.

    Normalization is the per-objective range of the reference set (1 where
    the range is zero); 0 exactly when every reference point appears in the
    front.  Front and reference must have the same number of objectives.
    """
    ref = np.atleast_2d(np.asarray(list(reference), dtype=float))
    if ref.size == 0:
        raise ValueError("reference set must be nonempty")
    fr = np.atleast_2d(np.asarray(list(front), dtype=float))
    if fr.size == 0:
        raise ValueError("front must be nonempty")
    spread = ref.max(axis=0) - ref.min(axis=0)
    spread = np.where(spread > 0, spread, 1.0)
    # [reference, front] Chebyshev distances, one objective column at a time.
    cheb = np.zeros((len(ref), len(fr)))
    for r, f, s in zip(ref.T, fr.T, spread, strict=True):
        np.maximum(cheb, np.abs(f[None, :] - r[:, None]) / s, out=cheb)
    return float(np.mean(cheb.min(axis=1)))


def comparison_table(mop: QuadraticMop, gamma_values: Sequence[float],
                     cfg: Optional[SolverConfig] = None,
                     x0: Optional[np.ndarray] = None) -> list[dict]:
    """Rows (gamma, method, condition_number, iterations, wall_seconds,
    final_error) comparing classical descent on the outer-product-regularized
    objectives against the fractional method (diagonal regularizer).

    Condition numbers are those of each method's own effective system matrix
    at uniform multipliers; final_error is the distance to the Tikhonov
    solution consistent with the run's final multipliers.
    """
    cfg = cfg or SolverConfig(tolerance=1e-4, max_iterations=2000)
    x0 = np.full(mop.dim, 5.5) if x0 is None else np.asarray(x0, dtype=float)
    m = mop.n_objectives
    lam_uniform = np.full(m, 1.0 / m)
    c = np.zeros(mop.dim)
    objectives = mop.objectives()
    rows = []
    for gamma in gamma_values:
        for method, reg in (("mogd", "outer"), ("moaocfgd", "diag")):
            merit = [regularized(obj, gamma, c, reg) for obj in objectives]
            system = sum(w * merit_j.hessian(c) for w, merit_j in zip(lam_uniform, merit))
            t0 = time.perf_counter()
            if method == "mogd":
                # Classical gradient descent on the outer-product Tikhonov objectives.
                trace = mogd_baseline(merit, x0, cfg)
            else:
                # Fractional method: an alpha = 0.5 stage inducing gamma.
                trace = run_single_stage(objectives, x0, cfg,
                                         Stage(0.5, gamma, cfg.max_iterations), c)
            wall = time.perf_counter() - t0
            lam_final = _final_multipliers(merit, trace, m)
            sol = tikhonov_solve(mop, gamma, lam_final, c, regularizer=reg)
            rows.append({
                "gamma": gamma, "method": method,
                "condition_number": float(np.linalg.cond(system)),
                "iterations": trace.iterations, "wall_seconds": wall,
                "final_error": float(np.linalg.norm(trace.final_x - sol.x_tik)),
            })
    return rows


def _final_multipliers(objectives, trace: IterationTrace, m: int) -> np.ndarray:
    """Subproblem multipliers at the run's final point; uniform when the final
    gradients are not finite (a diverged run) or the subproblem misses its
    accuracy.  Any other error propagates."""
    grads = np.array([obj.gradient(trace.final_x) for obj in objectives])
    if not np.all(np.isfinite(grads)):
        return np.full(m, 1.0 / m)
    try:
        return solve_direction(grads).multipliers
    except DirectionAccuracyError:
        return np.full(m, 1.0 / m)
