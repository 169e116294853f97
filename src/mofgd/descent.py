"""Descent iteration with fractional gradients, Armijo backtracking and stages.

One iteration at x: evaluate the per-objective (fractional) gradients, solve
the direction subproblem for (t, d, lambda), stop if ||d|| < tolerance, pick
a step by Armijo backtracking over {1, r, r^2, ...} and move to x + eta*d.

Stages: a schedule of (alpha_s, gamma_s, k_s) triples runs the iteration in
segments, each continuing from the previous stage's final point, with one
fixed terminal c.  Stage s takes beta_s = gamma_s + (1-alpha_s)/(2-alpha_s)
(`Stage.beta`, the one place beta is formed), so that it induces the
regularizer weight gamma_s.
Callers pass raw objectives; the stage adds the regularizer.

Every stage but the last stops early, at the first iterate with

    ||d|| < max(tolerance, (gamma_s - gamma_{s+1}) ||d_0||),

where ||d_0|| is ||d|| at the stage's first iterate; the last stage, and a
stage whose gamma does not fall, stop at the tolerance.  The reason is the
drift between consecutive regularized solutions.  For quadratics the merits
of stages s and s+1 differ by a pull whose gradient is
(gamma_s - gamma_{s+1}) D_j (x - c), D_j = diag(H_j), so at stage s+1's
critical point x*, with multipliers lambda, stage s's ||d|| is at most
(gamma_s - gamma_{s+1}) ||sum_j lambda_j D_j (x* - c)||.  The next stage has
to cover a drift of that order however far below it stage s was solved.
||d_0|| puts the drift on the scale of the stage's own directions, so the
rule adds no parameter.  This is inexact continuation as in Hale, Yin and
Zhang, "Fixed-point continuation for l1-minimization" (SIAM J. Optim.,
2008).

For a quadratic f_j the stage's modified fractional gradient is exactly the
gradient of the stage-regularized merit

    f_j(x) + gamma_s/2 * sum_i H_ii (x_i - c_i)^2,

so the stage builds that merit once (`problems.regularized`) and takes the
direction input and the line-search test from it.
Non-quadratic objectives use singular-quadrature gradients and raw values.

For every kind, the Armijo test uses the slope max_j grad merit_j(x)^T d of
the merit it tests, which equals the subproblem's t bit for bit for
quadratics.  A stage whose t < 0 meets a merit slope >= 0 ends as
"model_mismatch".  A quadratic merit with curvature q_j = d^T H_j d > 0
along d is tested on its exact expansion

    eta s_j + eta^2 q_j / 2 <= sigma eta slope,   s_j = grad merit_j(x)^T d,

which needs no value evaluation and holds exactly for eta <= eta_j* =
2 (sigma slope - s_j) / q_j, so the scan starts one step before the first
power of r at or below min_j eta_j*; every other merit is tested on its
evaluated values.

Per iteration each merit's gradient at x is evaluated once.  A value is
evaluated only where something reads it: the line search evaluates f_j(x)
and the trial values of the merits it cannot expand, and returns the
values at the accepted step, which the next iteration reuses.  A record
keeps the values the stage had and the stage's merits, and evaluates the
others when its f_values are first read, so a quadratic stage with
positive curvatures evaluates no value while it runs.  In an
all-quadratic stage the merit gradients are the direction inputs and the
slope is t, so neither is formed a second time.  Only the modified
fractional gradients run under a warning recorder, which moves their
RuntimeWarnings into the trace notes.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import ClassVar, Optional, Sequence

import numpy as np

from .direction import DirectionAccuracyError, DirectionResult, solve_direction
from .fractional import modified_fractional_gradient, order_shift, terminals
from .problems import ObjectiveModel, regularized

__all__ = [
    "LineSearchError",
    "SolverConfig",
    "Stage",
    "StageSchedule",
    "IterationRecord",
    "StageReport",
    "IterationTrace",
    "armijo_step",
    "run_single_stage",
    "run_adaptive",
]

MAX_BACKTRACKS = 60


class LineSearchError(RuntimeError):
    """No Armijo-acceptable step within 60 halvings (gradient/model mismatch)."""


@dataclass(frozen=True)
class SolverConfig:
    """Armijo and termination parameters of one solver run.

    Stages take Armijo steps only; eta is the step factor of the fixed-step
    verify runs in `lab`.
    """

    # Not a field or an option: perfbench/tracer.py reads it to count the
    # iterations that take Armijo steps, which every stage iteration does.
    step_mode: ClassVar[str] = "backtracking"

    sigma: float = 0.1
    backtrack: float = 0.5
    tolerance: float = 1e-6
    max_iterations: int = 1000
    eta: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise ValueError(f"sigma must lie in (0, 1), got {self.sigma}")
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError(f"backtrack ratio must lie in (0, 1), got {self.backtrack}")
        if self.tolerance <= 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not 0.0 < self.eta < 2.0:
            raise ValueError(f"eta must lie in (0, 2), got {self.eta}")


@dataclass(frozen=True)
class Stage:
    """One stage: order alpha, regularizer weight gamma >= 0 and an
    iteration budget.  The stage merit takes gamma itself, and the modified
    fractional gradients take alpha and beta."""

    alpha: float
    gamma: float
    iterations: int

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"stage alpha must lie in (0, 1], got {self.alpha}")
        if self.gamma < 0.0:
            raise ValueError(
                f"stage gamma must be >= 0, that is beta >= (1-alpha)/(2-alpha) = "
                f"{order_shift(self.alpha):.6g}, got gamma = {self.gamma}"
            )
        if self.iterations < 1:
            raise ValueError("stage iteration count must be positive")

    @property
    def beta(self) -> float:
        """gamma + (1-alpha)/(2-alpha), the order-(1+alpha) weight inducing gamma."""
        return self.gamma + order_shift(self.alpha)


@dataclass(frozen=True)
class StageSchedule:
    """Sequence of (alpha_s, gamma_s, k_s) with one fixed terminal (zeros when
    None), kept as a read-only copy of the caller's array."""

    stages: tuple[Stage, ...]
    terminal: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.stages:
            raise ValueError("schedule needs at least one stage")
        object.__setattr__(self, "stages", tuple(self.stages))
        if self.terminal is not None:
            t = np.array(self.terminal, dtype=float)
            t.flags.writeable = False
            object.__setattr__(self, "terminal", t)

    @property
    def gammas(self) -> tuple[float, ...]:
        return tuple(s.gamma for s in self.stages)

    @classmethod
    def from_gammas(cls, alphas: Sequence[float], gammas: Sequence[float],
                    iterations: Sequence[int], terminal=None) -> "StageSchedule":
        """Build stages from the three sequences, which must be equally
        long; ValueError otherwise."""
        stages = tuple(
            Stage(a, float(g), int(k)) for a, g, k in zip(alphas, gammas, iterations, strict=True)
        )
        return cls(stages=stages, terminal=terminal)


@dataclass(frozen=True)
class IterationRecord:
    """One accepted iteration at x.

    values[j] is f_j(x) where the run already had it and None where it did
    not; merit[j] is then the objective that f_values evaluates at x on
    first read, and caches.  A record that knows every value needs no merit.
    """

    k: int
    stage: int
    x: np.ndarray
    values: Sequence[Optional[float]]
    t_value: float
    norm_d: float
    eta: float
    backtracks: int
    merit: Optional[Sequence[ObjectiveModel]] = None

    @functools.cached_property
    def f_values(self) -> np.ndarray:
        return np.array([self.merit[j].value(self.x) if v is None else v
                         for j, v in enumerate(self.values)])


@dataclass(frozen=True)
class StageReport:
    """How one stage run ended: the records it added, its termination, the
    stop tolerance it used and the trace's final ||d|| at its end (None
    while no stage of the trace has solved a direction)."""

    stage: int
    iterations: int
    termination: str
    tolerance: float
    final_norm_d: Optional[float]


@dataclass
class IterationTrace:
    """Per-iteration history of one run.

    termination: tolerance (||d|| < the stage's stop tolerance, or t >= 0) |
    max_iter | model_mismatch (t < 0 but the merit slope
    max_j grad merit_j^T d >= 0; the notes give ||g - grad merit||) | error
    (see error).  It is the last stage's; stages holds one StageReport per
    stage run, in order.
    """

    records: list[IterationRecord] = field(default_factory=list)
    stages: list[StageReport] = field(default_factory=list)
    termination: str = "max_iter"
    error: Optional[str] = None
    notes: list[str] = field(default_factory=list)
    final_x: Optional[np.ndarray] = None
    final_norm_d: Optional[float] = None

    @property
    def iterations(self) -> int:
        return len(self.records)

    def to_csv(self, path) -> None:
        """Column order: k, s, eta, t, norm_d, f_1..f_m, x_1..x_n."""
        if not self.records:
            raise ValueError("empty trace")
        m = self.records[0].f_values.size
        n = self.records[0].x.size
        header = (["k", "s", "eta", "t", "norm_d"]
                  + [f"f_{j + 1}" for j in range(m)]
                  + [f"x_{i + 1}" for i in range(n)])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for r in self.records:
                writer.writerow(
                    [r.k, r.stage, repr(r.eta), repr(r.t_value), repr(r.norm_d)]
                    + [repr(float(v)) for v in r.f_values]
                    + [repr(float(v)) for v in r.x]
                )

    def summary(self) -> dict:
        out = {
            "iterations": self.iterations,
            "termination": self.termination,
            "error": self.error,
            "final_norm_d": self.final_norm_d,
            "notes": list(self.notes),
        }
        if self.final_x is not None:
            out["final_x"] = [float(v) for v in self.final_x]
        out["stages"] = [asdict(s) for s in self.stages]
        return out


def armijo_step(objectives: Sequence[ObjectiveModel], x: np.ndarray,
                direction: DirectionResult, cfg: SolverConfig,
                values: list[Optional[float]], gradients: Sequence[np.ndarray],
                ) -> tuple[float, np.ndarray, int, list]:
    """First eta in {1, r, r^2, ...} with f_j(x + eta d) <= f_j(x) + sigma*eta*t for all j.

    gradients are grad f_j(x), which the caller has already evaluated, and
    values[j] is f_j(x) or None.  A quadratic f_j with curvature
    q_j = d^T H_j d > 0 along d is tested on its exact expansion
    eta s_j + eta^2 q_j / 2 <= sigma eta t, where s_j = gradients[j]^T d,
    so none of its values is evaluated.  Every other objective (smooth,
    piecewise, or a quadratic with q_j <= 0) is tested on its evaluated
    values, and only at trial steps that pass the expansions; where its
    values[j] is None, f_j(x) is evaluated here and written into values.
    The scan starts at the closed-form first trial (`_first_trial`) and
    returns what the scan from eta = 1 returns.

    Returns (eta, x_next, backtrack_count, trial_values), where
    trial_values[j] is f_j(x_next) for an objective tested on its values and
    None for one tested on its expansion; raises LineSearchError after 60
    rejected halvings.
    """
    if not direction.t_value < 0.0:
        raise ValueError("line search requires a descent direction (t < 0)")
    d, t = direction.direction, direction.t_value
    expanded, evaluated = [], []  # (s_j, q_j) and (j, f_j, f_j(x))
    for j, (obj, g) in enumerate(zip(objectives, gradients)):
        q = float(d @ obj.hessian(x) @ d) if obj.kind == "quadratic" else 0.0
        if q > 0.0:
            # One dot per row: rows of G @ d can differ in the last bit, which
            # would move the steps that pass only by rounding.
            expanded.append((float(g @ d), q))
        else:
            if values[j] is None:
                values[j] = obj.value(x)
            evaluated.append((j, obj, values[j]))
    for backtracks in range(_first_trial(expanded, cfg, t), MAX_BACKTRACKS + 1):
        eta = cfg.backtrack ** backtracks
        bound = cfg.sigma * eta * t
        if all(eta * s + 0.5 * eta ** 2 * q <= bound for s, q in expanded):
            x_next = x + eta * d
            trial_values = [None] * len(objectives)
            for j, obj, f0 in evaluated:
                trial_values[j] = obj.value(x_next)
                if not trial_values[j] <= f0 + bound:
                    break
            else:
                return eta, x_next, backtracks, trial_values
    raise LineSearchError(
        f"no acceptable step within {MAX_BACKTRACKS} halvings at x = {x} "
        "(direction is not a descent direction for the merit objectives)"
    )


def _first_trial(expanded: Sequence[tuple[float, float]], cfg: SolverConfig,
                 t: float) -> int:
    """Backtrack count at which the Armijo scan may start without changing its result.

    The expansion of merit j holds exactly for eta <= eta_j* = 2 (sigma t -
    s_j) / q_j.  When every eta_j* is finite and positive, the scan starts
    one step before the first power of r at or below min_j eta_j*;
    otherwise it starts at eta = 1.  Every skipped trial is at least two
    steps before that power, so it exceeds the smallest eta_j* by more than
    a factor 1/r, and that merit's exact margin eta s_j + eta^2 q_j / 2 -
    sigma eta t is more than a factor 1/r - 1 of its terms: far above their
    rounding, so the scan from eta = 1 rejects the trial as well and both
    return the same step, bit for bit.  The one step of slack covers the
    trial just above the bound, which rounding may accept, and a logarithm
    that rounds across an integer.
    """
    bounds = [2.0 * (cfg.sigma * t - s) / q for s, q in expanded]
    if not bounds or not all(0.0 < b < math.inf for b in bounds):
        return 0
    return max(0, math.ceil(math.log(min(bounds)) / math.log(cfg.backtrack)) - 1)


def _stage_merit(objectives, gamma: float, terminal) -> list[ObjectiveModel]:
    """The stage merit of each objective: quadratics gain the pull of weight gamma."""
    return [regularized(obj, gamma, terminal) if obj.kind == "quadratic" else obj
            for obj in objectives]


def run_single_stage(objectives: Sequence[ObjectiveModel],
                     x0: np.ndarray,
                     cfg: SolverConfig,
                     stage: Stage,
                     terminal,
                     stage_index: int = 0,
                     trace: Optional[IterationTrace] = None,
                     gamma_drop: float = 0.0) -> IterationTrace:
    """Iterate x <- x + eta*d for up to stage.iterations Armijo steps or
    until ||d|| < tolerance.

    The stop tolerance is max(cfg.tolerance, gamma_drop * ||d_0||), with
    ||d_0|| the ||d|| at the first iterate; gamma_drop is the fall
    gamma_s - gamma_{s+1} that `run_adaptive` passes, and its default 0
    stops at cfg.tolerance.  The run appends one StageReport to
    trace.stages.

    objectives are raw; the stage adds the regularizer itself, centred on
    terminal, the lower terminal c (a scalar or an n-vector).  Each
    quadratic objective becomes its stage merit with weight stage.gamma
    (see `_stage_merit`), whose gradient is the direction input, whose
    exact expansion the line search tests and whose values the trace's f
    columns record; in an all-quadratic stage the Armijo slope is therefore
    the subproblem's t, bit for bit.  Other kinds take the
    singular-quadrature gradients of order stage.alpha and weight
    stage.beta and raw values, and the Armijo slope comes from the merit
    gradients.  Each iteration evaluates every merit's gradient at x once.
    It hands `armijo_step` the values that the previous line search
    evaluated at its accepted step, None for the others, and the line
    search evaluates the ones it tests.  The record keeps those values and
    the stage's merits, and evaluates the rest when its f_values are first
    read.  So a quadratic stage makes one gradient call per objective per
    iteration and no value call while curvatures are positive, and a
    smooth stage evaluates each value once per point.  The merit is built
    once, from the fixed terminal.  Records are numbered by their position
    in trace.records, so a trace passed in continues its numbering.
    Neither a record's x nor the terminal may be written into before the
    record's f_values are read.

    Only the modified fractional gradients run under a warning recorder,
    whose RuntimeWarnings (the terminal clamp) go to trace.notes; any other
    warning, such as an overflowing quadratic matvec, reaches the caller's
    filters.  Every iterate is a new array that nothing writes into, so the
    records and trace.final_x hold the iterates themselves, not copies.
    """
    x = np.asarray(x0, dtype=float).copy()
    trace = trace if trace is not None else IterationTrace()
    start = trace.iterations
    tolerance = cfg.tolerance
    merit = _stage_merit(objectives, stage.gamma, terminal)
    quadratic = all(obj.kind == "quadratic" for obj in objectives)

    values = [None] * len(merit)  # merit values at x from the accepted trial
    trace.termination = "max_iter"
    for k in range(stage.iterations + 1):
        # A quadratic's modified fractional gradient is its merit's gradient;
        # the others run under the recorder of the terminal clamp's warnings.
        grads = [m.gradient(x) if obj.kind == "quadratic" else None
                 for obj, m in zip(objectives, merit)]
        if not quadratic:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                grads = [modified_fractional_gradient(obj, x, stage.alpha, stage.beta, terminal)
                         if g is None else g for obj, g in zip(objectives, grads)]
            trace.notes.extend(str(w.message) for w in caught)
        grads = np.array(grads)

        try:
            direction = solve_direction(grads)
        except DirectionAccuracyError as exc:
            trace.termination = "error"
            trace.error = str(exc)
            trace.final_x = x
            break

        norm_d = direction.norm
        if k == 0:
            tolerance = max(tolerance, gamma_drop * norm_d)
        trace.final_x = x
        trace.final_norm_d = norm_d
        # t >= 0: the subproblem finds no descent direction to its precision,
        # so x is critical even if ||d|| is still above the tolerance.
        if norm_d < tolerance or not direction.t_value < 0.0:
            trace.termination = "tolerance"
            break
        # Armijo tests the merit, so its slope is max_j grad merit_j^T d;
        # a quadratic's direction input already is its merit gradient.
        if quadratic:
            merit_grads, slope = grads, direction.t_value
        else:
            merit_grads = np.array([g if obj.kind == "quadratic" else m.gradient(x)
                                    for obj, m, g in zip(objectives, merit, grads)])
            slope = float((merit_grads @ direction.direction).max())
        if not slope < 0.0:
            trace.termination = "model_mismatch"
            trace.notes.append(
                f"model_mismatch: merit slope {slope:.3e} >= 0 along d with t = "
                f"{direction.t_value:.3e}; ||g - grad merit|| = "
                f"{np.linalg.norm(grads - merit_grads):.3e}")
            break
        if k == stage.iterations:
            trace.termination = "max_iter"
            break

        searched = (direction if slope == direction.t_value
                    else replace(direction, t_value=slope))
        try:
            eta, x_next, backtracks, trial_values = armijo_step(
                merit, x, searched, cfg, values, merit_grads)
        except (LineSearchError, ValueError) as exc:
            trace.termination = "error"
            trace.error = str(exc)
            break

        trace.records.append(IterationRecord(
            k=len(trace.records), stage=stage_index, x=x, values=values,
            t_value=direction.t_value, norm_d=norm_d,
            eta=eta, backtracks=backtracks, merit=merit,
        ))
        x, values = x_next, trial_values
        trace.final_x = x
    trace.stages.append(StageReport(stage_index, trace.iterations - start,
                                    trace.termination, tolerance, trace.final_norm_d))
    return trace


def run_adaptive(objectives: Sequence[ObjectiveModel],
                 x0: np.ndarray,
                 cfg: SolverConfig,
                 schedule: StageSchedule) -> IterationTrace:
    """Run the stages of a schedule sequentially, chaining the iterates.

    objectives are raw; each stage adds its own regularizer, centred on the
    schedule's fixed terminal c (zeros(n) when omitted), the c that
    `tikhonov_solve` and the verify runs use.  A terminal whose length is
    neither 1 nor n raises ValueError, for every objective kind, before any
    stage runs.  Each stage but the last
    passes its fall gamma_s - gamma_{s+1}, where positive, to
    `run_single_stage` as gamma_drop (the stop rule of the module
    docstring); the others stop at cfg.tolerance.
    """
    x = np.asarray(x0, dtype=float)
    c = terminals(0.0 if schedule.terminal is None else schedule.terminal, x.size)
    gammas = schedule.gammas
    trace = IterationTrace()
    for s, stage in enumerate(schedule.stages):
        drop = gammas[s] - gammas[s + 1] if s + 1 < len(gammas) else 0.0
        run_single_stage(objectives, x, cfg, stage, c, stage_index=s,
                         trace=trace, gamma_drop=max(drop, 0.0))
        x = trace.final_x
        if trace.termination == "error":
            return trace
    return trace
