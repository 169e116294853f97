"""Desk-scale experiment harness: baselines, rate/bound verification, sweeps.

Reproduces the quadratic benchmark study: classical-gradient baselines, the
linear-rate check against the closed-form Tikhonov solution, the staged
error-bound recursion, Pareto-front sweeps from a grid of starts, the
gamma-comparison table, and the average-distance-from-reference-set (ADRS)
front metric.  Each check and sweep returns its whole outcome:
`verify_staged_theorem6` one `StageErrorBound` with its verdicts, and
`pareto_sweep` the front with every start's end.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .descent import (
    IterationTrace,
    SolverConfig,
    Stage,
    StageSchedule,
    _check_count,
    run_adaptive,
    schedule_setup,
)
from .fixtures import fixture_objectives
from .fractional import terminals
from .problems import (
    ObjectiveModel,
    PiecewiseMaxObjective,
    QuadraticMop,
    SingularSystemError,
    quadratic_stack,
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
    """One experiment: instance, regularizers, starts and method.

    instance is a QuadraticMop or a named analytic fixture ("example1",
    "example2", "example2_pair", "example3_nonsmooth").  start_grid is
    (lb, ub, count): count points uniformly subdividing the segment lb -> ub,
    whose ends are vectors of one length, and count a positive integer, as
    a stage's iterations are (`descent._check_count`).  gamma_values must
    be finite and nonnegative, as a `Stage`'s gamma.  ValueError otherwise.
    method is "moaocfgd" (the staged schedule) or "mogd" (classical
    descent); the CLI maps it to the schedule that a run is handed.
    """

    instance: Union[QuadraticMop, str]
    gamma_values: tuple[float, ...] = PAPER_GAMMA_VALUES
    start_grid: tuple = ((DEFAULT_START_LB,) * 2, (DEFAULT_START_UB,) * 2, DEFAULT_START_COUNT)
    method: str = "moaocfgd"

    def __post_init__(self):
        if self.method not in ("moaocfgd", "mogd"):
            raise ValueError(f"unknown method {self.method!r}")
        lb, ub, count = self.start_grid
        lb = np.asarray(lb, dtype=float)
        ub = np.asarray(ub, dtype=float)
        if lb.ndim != 1 or lb.shape != ub.shape:
            raise ValueError(f"start_grid lb and ub must be vectors of one length, "
                             f"got shapes {lb.shape} and {ub.shape}")
        _check_count(count, "start_grid count")
        if not np.all(lb < ub):
            raise ValueError("start_grid lower bound must be below the upper bound")
        if not all(0.0 <= g < math.inf for g in self.gamma_values):
            raise ValueError(f"gamma values must be nonnegative and finite, "
                             f"got {self.gamma_values}")
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
    """Per-stage quantities of the staged error recursion and its verdicts.

    rates[s] is the per-iteration contraction of the squared error at stage
    s; R[s] = rates[s]^(k_s/2) is the per-stage factor, so the recursion
    epsilon_{s+1} <= R_s epsilon_s + e_s chains stage starts.  bound[s] is
    the recursion unrolled from epsilon_1.  end_errors[s] is the distance
    from stage s's last iterate to the least-squares solution x*, and
    final_error the last of them.  The verdicts are those that
    `verify_staged_theorem6` documents; final_bound_ok is None when the
    last gamma is 0, which bounds nothing.
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
    end_errors: tuple[float, ...]
    recursion_ok: bool
    lipschitz_ok: bool
    bound_ok: bool
    final_bound_ok: Optional[bool]

    @property
    def final_error(self) -> float:
        return self.end_errors[-1]


@dataclass(frozen=True)
class RateReport:
    """The fixed-step run of `verify_rate_theorem5` against x_Tik.

    errors[k] is ||x_k - x_Tik||, so final_error, errors[-1], is the
    distance from the run's last iterate, final_x, to the fixed point.
    """

    errors: np.ndarray
    ratios: np.ndarray
    fitted_rate: float
    monotone: bool
    geometric: bool
    rate_violation: bool
    kappa: float
    sigma_max: float
    final_error: float
    final_x: np.ndarray


@dataclass(frozen=True)
class FrontPoint:
    """A start's final point on a front: its objective vector, start index,
    final ||d|| and the multipliers of the direction solved there, which
    at a Pareto-critical point are the weights it reaches."""

    objectives: np.ndarray
    start_index: int
    norm_d: float
    multipliers: np.ndarray


def _classical_schedule(cfg: SolverConfig) -> StageSchedule:
    """The one-stage alpha = 1, gamma = 0 schedule of cfg's iteration budget:
    classical descent, whose merits and gradients read no terminal."""
    return StageSchedule((Stage(1.0, 0.0, cfg.max_iterations),))


def mogd_baseline(objectives: Sequence[ObjectiveModel], x0: np.ndarray,
                  cfg: SolverConfig) -> IterationTrace:
    """Classical multi-objective steepest descent (Fliege and Svaiter, 2000):
    `run_adaptive` on `_classical_schedule(cfg)`, the schedule that the
    "mogd" method runs."""
    return run_adaptive(objectives, x0, cfg, _classical_schedule(cfg))


def subgradient_baseline(f: PiecewiseMaxObjective, x0: np.ndarray,
                         steps: int) -> Optional[int]:
    """Scalar subgradient descent x <- x - 0.5/(k+1) g_k, g_k f's active-set
    average subgradient (`PiecewiseMaxObjective.subgradient`): the index of
    the first iterate with f <= 1e-3, or None if none of the first steps
    iterates reaches it."""
    x = np.asarray(x0, dtype=float)
    for k in range(steps):
        if f.value(x) <= 1e-3:
            return k
        x = x - 0.5 / (k + 1.0) * f.subgradient(x)
    return None


def _frozen_fixed_steps(merit: Sequence[ObjectiveModel], lam: np.ndarray, step: float,
                        x0: np.ndarray, tolerance: float, k: int) -> list[np.ndarray]:
    """x0 and the iterates of x <- x + step d, d = -sum_j lam_j grad merit_j(x),
    up to k steps or until ||d|| < tolerance.  The merit gradients at x are
    A @ x + B on the merits' `quadratic_stack`, as in a stage."""
    xs = [np.asarray(x0, dtype=float)]
    (a, b), neg_lam = quadratic_stack(merit, xs[0]), -lam
    for _ in range(k):
        g = a @ xs[-1]
        g += b
        d = g.T @ neg_lam
        if math.sqrt(d @ d) < tolerance:
            break
        xs.append(xs[-1] + step * d)
    return xs


def verify_rate_theorem5(mop: QuadraticMop, cfg: SolverConfig, gamma: float, terminal,
                         multipliers: np.ndarray, x0: Optional[np.ndarray] = None,
                         k_max: int = 2000, stop_error: float = 1e-7) -> RateReport:
    """Frozen-multiplier fixed-step run checked against the closed-form solution.

    The run descends on the merits of the `tikhonov_solve` system for the
    regularizer weight gamma (ValueError unless finite and nonnegative) and
    the terminal c, which `fractional.terminals` reads (zeros when None),
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
        final_x=xs[-1],
    )


def verify_staged_theorem6(mop: QuadraticMop, schedule: StageSchedule,
                           cfg: SolverConfig) -> StageErrorBound:
    """Staged frozen-multiplier run checked against the stage error recursion.

    One gamma = 0 `tikhonov_solve` at uniform multipliers and the
    schedule's terminal c comes first.  It refuses an instance whose
    weighted Gram sum is singular by the solve's one rank rule, raising
    SingularSystemError before any step; otherwise B_max is 1 / sigma_min
    of its system, and its x_tik is x* when the instance stores no ground
    truth.  The run starts at x* plus a seeded standard normal draw.
    Stage s takes its k_s steps of size cfg.eta / sigma_max, where
    sigma_max is that of the stage's `tikhonov_solve` system at
    uniform multipliers and the schedule's terminal c, read by
    `fractional.terminals` (zeros when None); of cfg it reads only eta.
    Measures epsilon_s (start-of-stage distance to the stage's regularized
    solution), e_s (drift between consecutive regularized solutions), the
    per-stage contraction factors, and the instance constants B_max and C;
    its verdicts are epsilon_{s+1} <= R_s epsilon_s + e_s + 1e-8
    (recursion_ok) and e_s <= C |gamma_s - gamma_{s+1}| (lipschitz_ok) at
    every stage, epsilon_s within the unrolled bound (bound_ok), and a
    final error within 1.1 C gamma_last (final_bound_ok).
    """
    lam = np.full(mop.n_objectives, 1.0 / mop.n_objectives)
    c = terminals(schedule.terminal, mop.dim)
    gammas = schedule.gammas
    iterations = tuple(s.iterations for s in schedule.stages)
    unregularized = tikhonov_solve(mop, 0.0, lam, c)
    x_star = unregularized.x_tik if mop.x_star is None else mop.x_star

    x = x_star + np.random.default_rng(1).normal(0, 1.0, mop.dim)

    sols = [tikhonov_solve(mop, g, lam, c) for g in gammas]
    eps, rates, Rs, end_errors = [], [], [], []
    for s, k_s in enumerate(iterations):
        eps.append(float(np.linalg.norm(x - sols[s].x_tik)))
        rho = max(abs(1.0 - cfg.eta), abs(1.0 - cfg.eta / sols[s].kappa))
        rates.append(rho * rho)
        Rs.append(rho ** k_s)
        x = _frozen_fixed_steps(sols[s].merits, lam, cfg.eta / sols[s].sigma_max,
                                x, 1e-300, k_s)[-1]
        end_errors.append(float(np.linalg.norm(x - x_star)))

    e = [float(np.linalg.norm(sols[s].x_tik - sols[s + 1].x_tik))
         for s in range(len(gammas) - 1)]

    b_max = 1.0 / unregularized.sigma_min
    c_const = (b_max ** 2
               * float(np.linalg.norm(sum(mop.gram), 2))
               * float(np.linalg.norm(sum(mop.rtilde)) ** 2)
               * float(np.linalg.norm(x_star - c)))

    bound = [eps[0]]
    for s in range(len(gammas) - 1):
        bound.append(Rs[s] * bound[s] + e[s])

    return StageErrorBound(
        gammas=tuple(gammas), iterations=iterations, rates=tuple(rates),
        R=tuple(Rs), epsilon=tuple(eps), e=tuple(e), bound=tuple(bound),
        b_max=b_max, c_const=c_const, end_errors=tuple(end_errors),
        recursion_ok=all(eps[s + 1] <= Rs[s] * eps[s] + e[s] + 1e-8
                         for s in range(len(gammas) - 1)),
        lipschitz_ok=all(e[s] <= c_const * abs(gammas[s] - gammas[s + 1]) + 1e-12
                         for s in range(len(e))),
        bound_ok=all(eps[s] <= bound[s] + 1e-8 for s in range(len(eps))),
        final_bound_ok=(end_errors[-1] <= 1.1 * c_const * gammas[-1]) if gammas[-1] > 0 else None,
    )


def nondominated_filter(points: list[FrontPoint]) -> list[FrontPoint]:
    """The points no other point dominates, less near-duplicates, sorted by
    objective vector.

    q dominates p when f(q) <= f(p) + DOMINANCE_SLACK on every objective and
    f(q) < f(p) - DOMINANCE_SLACK on some objective.  A nondominated p is a
    duplicate of an earlier kept q when, on every objective,
    |f(q) - f(p)| <= DOMINANCE_SLACK + DUPLICATE_RTOL |f(p)| (np.isclose).
    The relative part merges final points of neighbouring starts that reach
    one critical point but stop up to about 1e-6 apart.  Closeness is not
    transitive, so duplicates are dropped greedily in input order.  A point
    with no close earlier nondominated point is kept without that pass,
    which then runs over the rest alone.
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
    candidates = np.flatnonzero(~(no_worse & better).any(axis=0))
    # close_earlier[a, b]: candidate a comes before candidate b and is close to it.
    close_earlier = np.triu(close[np.ix_(candidates, candidates)], 1)
    keep = ~close_earlier.any(axis=0)
    for b in np.flatnonzero(~keep):
        keep[b] = not close_earlier[keep, b].any()
    return sorted((points[i] for i in candidates[keep]), key=lambda p: tuple(p.objectives))


def _sweep_starts(spec: ExperimentSpec, cfg: SolverConfig, schedule: StageSchedule, indices
                  ) -> tuple[list[FrontPoint], list[tuple]]:
    """Run schedule from the starts with the given indices.

    Every start is one `run_adaptive` call on schedule.  The objectives
    are `spec.objectives()`, built once per call.  The schedule's
    `schedule_setup` (its terminal check, every stage's merits, their
    quadratic stack and stop rule) is built once, before any start runs,
    and every run reads it; a failing set-up raises.  The runs that ended
    without error are scored together: each objective's value is one call
    on the stack of their final points, whose rows have the bits of one
    call per point; should that call raise, every scored run fails with
    its message.
    Returns the front points of the scored runs and every start's end, in
    start order (see `pareto_sweep`).
    """
    objectives = spec.objectives()
    starts = spec.starts()
    setup = schedule_setup(objectives, schedule, starts.shape[1])
    indices = [int(i) for i in indices]
    # ends[k] is the end of start indices[k]; finals holds the (k, final x,
    # final ||d||, final multipliers) of the runs without error.
    ends, finals = [], []
    for k, idx in enumerate(indices):
        try:
            trace = run_adaptive(objectives, starts[idx], cfg, schedule, setup)
        except Exception as exc:
            ends.append(("error", None, str(exc)))
            continue
        failed = trace.termination == "error"
        ends.append((trace.termination, trace.final_norm_d,
                     (trace.error or "run error") if failed else None))
        if not failed:
            finals.append((k, trace.final_x, float(trace.final_norm_d),
                           trace.final_multipliers))
    if not finals:
        return [], ends
    X = np.array([x for _, x, _, _ in finals])
    try:
        rows = np.stack([obj.value(X) for obj in objectives], axis=1)
    except Exception as exc:
        for k, *_ in finals:
            ends[k] = (*ends[k][:2], str(exc))
        return [], ends
    points = [FrontPoint(objectives=row, start_index=indices[k], norm_d=norm_d, multipliers=lam)
              for row, (k, _, norm_d, lam) in zip(rows, finals)]
    return points, ends


def pareto_sweep(spec: ExperimentSpec, cfg: SolverConfig, schedule: StageSchedule,
                 jobs: int = 1) -> tuple[list[FrontPoint], list[tuple]]:
    """Run schedule from every start of spec with the solver settings cfg;
    return the sorted nondominated subset of final objective vectors and
    every start's end.

    ends[i] is start i's (termination, final ||d||, error).  error is the
    message when the run raised (its end is ("error", None, message)),
    when it ended "error", or when the value call that scores it raised
    (it keeps its own termination); otherwise None, and the start is
    scored.  A failed start is excluded from the front, never fatal; a
    sweep that cannot run at all (a terminal of the wrong length, or a
    jobs that is not a positive integer) raises ValueError before any
    start runs.  jobs > 1 hands the schedule to worker processes, each
    running contiguous chunks of starts and building the objectives and
    the sweep's set-up once, and gathers them in start order, so the front
    and the ends are the same for every jobs.
    """
    _check_count(jobs, "jobs")
    indices = np.arange(spec.start_grid[2])
    jobs = min(jobs, indices.size)
    if jobs == 1:
        parts = [_sweep_starts(spec, cfg, schedule, indices)]
    else:
        # Imported here so that importing mofgd does not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        chunks = np.array_split(indices, jobs)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_sweep_starts, [spec] * jobs, [cfg] * jobs,
                                  [schedule] * jobs, chunks))
    return (nondominated_filter([p for points, _ in parts for p in points]),
            [end for _, ends in parts for end in ends])


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
                     cfg: SolverConfig, x0: np.ndarray) -> list[dict]:
    """Rows (gamma, method, condition_number, iterations, wall_seconds,
    final_error, termination) comparing classical descent on the
    outer-product-regularized objectives (mogd) against classical descent
    on the diagonal-regularized ones (moaocfgd), each run from x0 with the
    solver settings cfg.

    For a quadratic, a fractional stage of weight gamma is classical descent
    on its diagonal-regularized merit, bit for bit, whatever its order, so
    both rows run `mogd_baseline`.  Both regularizers are centred on
    c = 0; the table reads no schedule.  A row's merits and condition
    number are those of its regularizer's `tikhonov_solve` at uniform
    multipliers; final_error is the distance to the Tikhonov solution at
    the run's final multipliers (uniform when its last direction solve
    failed).  A row whose system at uniform multipliers is singular
    (`tikhonov_solve` raises SingularSystemError) runs nothing and reads
    termination "singular", condition_number inf, iterations 0,
    wall_seconds 0 and final_error nan; the other rows still run.  A run
    that ends at multipliers whose system is singular, such as a vertex of
    the simplex on a rank-deficient objective, has no one Tikhonov
    solution there: it keeps its termination and reads final_error nan.
    """
    m = mop.n_objectives
    uniform = np.full(m, 1.0 / m)
    c = np.zeros(mop.dim)
    rows = []
    for gamma in gamma_values:
        for method, reg in (("mogd", "outer"), ("moaocfgd", "diag")):
            try:
                system = tikhonov_solve(mop, gamma, uniform, c, regularizer=reg)
            except SingularSystemError:
                rows.append({"gamma": gamma, "method": method, "condition_number": math.inf,
                             "iterations": 0, "wall_seconds": 0.0, "final_error": math.nan,
                             "termination": "singular"})
                continue
            t0 = time.perf_counter()
            trace = mogd_baseline(system.merits, x0, cfg)
            wall = time.perf_counter() - t0
            lam_final = uniform if trace.final_multipliers is None else trace.final_multipliers
            try:
                x_tik = tikhonov_solve(mop, gamma, lam_final, c, regularizer=reg).x_tik
            except SingularSystemError:  # no one Tikhonov solution at lam_final
                x_tik = math.nan
            rows.append({
                "gamma": gamma, "method": method,
                "condition_number": system.kappa,
                "iterations": trace.iterations, "wall_seconds": wall,
                "final_error": float(np.linalg.norm(trace.final_x - x_tik)),
                "termination": trace.termination,
            })
    return rows
