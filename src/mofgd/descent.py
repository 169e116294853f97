"""Descent iteration with fractional gradients, Armijo backtracking and stages.

One iteration at x: evaluate the per-objective (fractional) gradients, solve
the direction subproblem for (t, d, lambda), stop if ||d|| < tolerance, pick
a step by Armijo backtracking over {1, r, r^2, ...} and move to x + eta*d.

A kinked (piecewise) merit's gradient is that of its largest piece, which
alone would let d ascend another piece active at a kink.  So each of its
other pieces within `problems.ACTIVE_TOLERANCE` of the max at x
(`PiecewiseMaxObjective.active_gradients`) adds its classical gradient as
one more row of the subproblem, and the multipliers of those rows are
summed into the merit's, so the reported lambda keeps length m.  At a
minimizer of the max the hull of the rows holds 0, and the stage stops at
the tolerance; this is the epsilon-active set of the bundle and
subgradient-sampling descent methods (Kiwiel, LNM 1133, 1985; Gebken and
Peitz, JOTA 2021).  A stage without a piecewise merit adds no row.

Stages: a schedule of (alpha_s, gamma_s, k_s) triples runs the iteration in
segments, each continuing from the previous stage's final point, with one
fixed terminal c.  Stage s takes beta_s = gamma_s + (1-alpha_s)/(2-alpha_s)
(`Stage.beta`, the one place beta is formed), so that it induces the
regularizer weight gamma_s.
Callers pass raw objectives; the set-up adds the regularizer.  Every run is
`run_adaptive` on a schedule, a one-stage run on a one-stage schedule, and
`run_single_stage` is its loop over one stage, which reads that stage's
set-up alone.

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

so the stage takes the direction input and the line-search test from that
merit (`problems.regularized`).  `schedule_setup` is the one place a
stage's merits, terminal and stop rule are built: once per run, before its
first iterate, and once for all the starts of a sweep.
Non-quadratic objectives use singular-quadrature gradients and raw values.
The stage builds their quadrature node stacks (`fractional.node_stack`)
once per iterate: one per distinct kink locator, None for the kink-free
objectives, built when the first objective with that locator needs it and
read by every other.  A classical stage, alpha = 1, builds none: it takes
gamma = 0, so every merit is its raw objective, the direction inputs are
the merits' gradients for every kind, as in an all-quadratic stage, and
the stage is the multi-objective steepest descent of Fliege and Svaiter
(Math. Meth. Oper. Res. 51, 2000).  A quadratic stage reads gamma but not
alpha.

For every kind, the Armijo test reads the slopes s_j = grad merit_j(x)^T d
of the merits it tests, and the max over them and over a kinked merit's
extra rows is its slope, so a kinked merit is tested against the largest
slope of its active pieces.  In an all-quadratic or a classical stage the
direction inputs are the merit gradients, so the slopes are the
subproblem's own, the rows of its one product G d, and the slope is its t,
bit for bit; a fractional stage forms them as the rows of one product of
its merit gradients and extra rows with d.  A stage whose t < 0 meets a
merit slope >= 0 (or NaN) ends as "model_mismatch".  A quadratic merit
with curvature q_j = d^T H_j d > 0 along d is tested on its exact
expansion

    eta s_j + eta^2 q_j / 2 <= sigma eta slope,

which needs no value evaluation; every other merit is tested on its
evaluated values.  The set-up reads each quadratic merit's constant
Hessian A_j and gradient at 0, B_j, once into one read-only stack
(`problems.quadratic_stack`, zeros for the other kinds).  Each iterate
forms the quadratic merits' gradients as A @ x + B, however their
gradients are written.  Each line search of a stage with a quadratic
merit forms its m curvatures as the rows of the one product (d @ A) d; a
stage without one forms none, since every curvature would be 0.  The 61
trials (eta, sigma eta, eta^2 / 2) of a (sigma, r) pair are built once.

Per iteration each other merit's gradient at x is evaluated once: in a
fractional stage a smooth or piecewise one's is row 0, x itself, of its
fractional gradient's stacked call, so such an objective makes one stacked
gradient call per iterate and no single-point one.  A value is evaluated only
where something reads it: the line search evaluates f_j(x) and the trial
values of the merits it cannot expand, and returns the values at the
accepted step, which the next iteration reuses.  A record keeps the values
the stage had and the stage's merits, and evaluates the others when its
f_values are read, so a quadratic stage with positive curvatures evaluates
no value while it runs.  In an all-quadratic or a classical stage the
merit gradients are the direction inputs and the slopes and t are the
subproblem's, so none of them is formed a second time.  The trace notes
take the stacks' notes, one per coordinate below its terminal.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import ClassVar, Optional, Sequence

import numpy as np

from .direction import DirectionAccuracyError, solve_direction
from .fractional import modified_fractional_gradient, node_stack, order_shift, terminals
from .problems import ObjectiveModel, quadratic_stack, regularized

__all__ = [
    "LineSearchError",
    "SolverConfig",
    "Stage",
    "StageSchedule",
    "IterationRecord",
    "StageReport",
    "IterationTrace",
    "armijo_step",
    "run_adaptive",
    "schedule_setup",
]

MAX_BACKTRACKS = 60


class LineSearchError(RuntimeError):
    """No Armijo-acceptable step within 60 halvings (gradient/model mismatch)."""


def _check_count(value, name: str) -> None:
    """ValueError naming name unless value is a positive integer; a bool
    or a float, even a whole one, is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


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
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        _check_count(self.max_iterations, "max_iterations")
        if not 0.0 < self.eta < 2.0:
            raise ValueError(f"eta must lie in (0, 2), got {self.eta}")


@dataclass(frozen=True)
class Stage:
    """One stage: order alpha, regularizer weight gamma >= 0 and an
    iteration budget.  The stage merit takes gamma itself, and the modified
    fractional gradients take alpha and beta.  alpha = 1 is the classical
    stage, which takes gamma = 0 only."""

    alpha: float
    gamma: float
    iterations: int

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"stage alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(
                f"stage gamma must be finite and >= 0, that is beta >= (1-alpha)/(2-alpha) = "
                f"{order_shift(self.alpha):.6g}, got gamma = {self.gamma}"
            )
        if self.alpha == 1.0 and self.gamma != 0.0:
            raise ValueError(f"stage alpha = {self.alpha} is the classical stage, which takes "
                             f"gamma = 0, got gamma = {self.gamma}")
        _check_count(self.iterations, "stage iterations")

    @property
    def beta(self) -> float:
        """gamma + (1-alpha)/(2-alpha), the order-(1+alpha) weight inducing gamma."""
        return self.gamma + order_shift(self.alpha)


@dataclass(frozen=True)
class StageSchedule:
    """Sequence of (alpha_s, gamma_s, k_s) with one fixed terminal.

    A terminal other than None is kept as `fractional.terminals` returns it
    for its own length, a read-only vector of its own, so a NaN or an
    infinite entry is refused here, as `Stage` refuses a non-finite gamma.
    None stays None, and the set-up reads it as zeros(n).
    """

    stages: tuple[Stage, ...]
    terminal: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.stages:
            raise ValueError("schedule needs at least one stage")
        object.__setattr__(self, "stages", tuple(self.stages))
        if self.terminal is not None:
            object.__setattr__(self, "terminal",
                               terminals(self.terminal, np.size(self.terminal)))

    def __reduce__(self):
        # Unpickled through the constructor, so the terminal is read-only
        # again: pickle does not keep numpy's writeable flag.
        return type(self), (self.stages, self.terminal)

    @property
    def gammas(self) -> tuple[float, ...]:
        return tuple(s.gamma for s in self.stages)

    @classmethod
    def from_gammas(cls, alphas: Sequence[float], gammas: Sequence[float],
                    iterations: Sequence[int], terminal=None) -> "StageSchedule":
        """Build stages from the three sequences, which must be equally
        long; ValueError otherwise.  Each count is handed to its Stage as
        given, so a count that is not an integer is refused there."""
        stages = tuple(
            Stage(a, float(g), k) for a, g, k in zip(alphas, gammas, iterations, strict=True)
        )
        return cls(stages=stages, terminal=terminal)


@dataclass(slots=True)
class IterationRecord:
    """One accepted iteration at x, numbered by its position in
    IterationTrace.records.

    values[j] is f_j(x) where the run already had it and None where it did
    not; merit[j] is then the objective that f_values evaluates at x on
    every read.  A record that knows every value needs no merit.  Nothing
    writes to a record, as nothing writes to its x.  It is slotted but not
    frozen: a frozen dataclass sets each field through object.__setattr__,
    which more than doubles the cost of the build that every accepted step
    makes.
    """

    stage: int
    x: np.ndarray
    values: Sequence[Optional[float]]
    t_value: float
    norm_d: float
    eta: float
    backtracks: int
    merit: Optional[Sequence[ObjectiveModel]] = None

    @property
    def f_values(self) -> np.ndarray:
        return np.array([self.merit[j].value(self.x) if v is None else v
                         for j, v in enumerate(self.values)])


@dataclass(slots=True)
class StageReport:
    """How one stage run ended: the records it added, its termination, the
    stop tolerance it used and the trace's final ||d|| at its end (None
    while no stage of the trace has solved a direction, and after a failed
    solve).  Nothing writes to a report; like the other records
    it is slotted and not frozen."""

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
    stage run, in order.  final_norm_d and final_multipliers are the ||d||
    and the subproblem multipliers of the direction solved at final_x;
    both are None when that solve failed (a direction error, or a gradient
    that is not finite).
    """

    records: list[IterationRecord] = field(default_factory=list)
    stages: list[StageReport] = field(default_factory=list)
    termination: str = "max_iter"
    error: Optional[str] = None
    notes: list[str] = field(default_factory=list)
    final_x: Optional[np.ndarray] = None
    final_norm_d: Optional[float] = None
    final_multipliers: Optional[np.ndarray] = None

    @property
    def iterations(self) -> int:
        return len(self.records)

    def to_csv(self, path, m: Optional[int] = None) -> None:
        """Column order: k, s, eta, t, norm_d, f_1..f_m, x_1..x_n, with k a
        record's position in records.

        m and n are read from the records.  A trace without records (a run
        that started at a critical point) writes the header alone, for the
        objective count m and the length of final_x; ValueError if either
        is missing.
        """
        if self.records:
            m, n = len(self.records[0].values), self.records[0].x.size
        elif m is None or self.final_x is None:
            raise ValueError("a trace without records needs m and final_x for its header")
        else:
            n = self.final_x.size
        header = (["k", "s", "eta", "t", "norm_d"]
                  + [f"f_{j + 1}" for j in range(m)]
                  + [f"x_{i + 1}" for i in range(n)])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k, r in enumerate(self.records):
                writer.writerow(
                    [k, r.stage, repr(r.eta), repr(r.t_value), repr(r.norm_d)]
                    + [repr(v) for v in r.f_values.tolist()]
                    + [repr(v) for v in r.x.tolist()]
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
                d: np.ndarray, t: float, cfg: SolverConfig,
                values: list[Optional[float]], slopes: Sequence[float],
                hessians: Optional[np.ndarray]) -> tuple[float, np.ndarray, int, list]:
    """First eta in {1, r, r^2, ...} with f_j(x + eta d) <= f_j(x) + sigma*eta*t for all j.

    d is the direction, slopes[j] is s_j = grad f_j(x)^T d, which the
    caller has already formed (entries past the m objectives', a kinked
    merit's extra rows, are not read), and t is the max of all of them, the
    merit slope, which must be negative (ValueError otherwise).  values[j]
    is f_j(x) or None.
    hessians is the A of `problems.quadratic_stack(objectives, x)`, which
    `schedule_setup` builds once per stage, or None when no objective is
    quadratic, as `run_single_stage` passes it: every q_j is then 0, as on
    the stack's zeros, and no product is formed.  Otherwise the curvatures
    q_j = d^T H_j d are the rows of the one product (d @ A) d.  A quadratic
    f_j with q_j > 0 is tested on its exact expansion
    eta s_j + eta^2 q_j / 2 <= sigma eta t, so none of its values is
    evaluated.  Every other objective (smooth, piecewise, or a quadratic
    with q_j <= 0) is tested on its evaluated values, and only at trial
    steps that pass the expansions; where its values[j] is None, f_j(x) is
    evaluated here and written into values.  The trials are `_trials` of
    (cfg.sigma, cfg.backtrack), built once per pair.

    Returns (eta, x_next, backtrack_count, trial_values), where
    trial_values[j] is f_j(x_next) for an objective tested on its values and
    None for one tested on its expansion; raises LineSearchError after 60
    rejected halvings.
    """
    if not t < 0.0:
        raise ValueError("line search requires a descent direction (t < 0)")
    if hessians is None:
        curvatures = [0.0] * len(objectives)
    else:
        curvatures = (d @ hessians).dot(d).tolist()
    expanded, evaluated = [], []  # (s_j, q_j) and (j, f_j, f_j(x))
    for j, (obj, s, q) in enumerate(zip(objectives, slopes, curvatures)):
        if q > 0.0:
            expanded.append((s, q))
        else:
            if values[j] is None:
                values[j] = obj.value(x)
            evaluated.append((j, obj, values[j]))
    for backtracks, (eta, sigma_eta, half_eta2) in enumerate(_trials(cfg.sigma, cfg.backtrack)):
        bound = sigma_eta * t
        for s, q in expanded:
            if not eta * s + half_eta2 * q <= bound:
                break
        else:  # every expansion passes: test the evaluated values
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


@functools.cache
def _trials(sigma: float, ratio: float) -> tuple[tuple[float, float, float], ...]:
    """The 61 trials (eta, sigma eta, eta^2 / 2) of the scan, eta = ratio^k
    for k = 0..60, built once per (sigma, ratio).  The bound sigma eta t is
    formed left to right, so (sigma eta) t has its bits."""
    return tuple((eta, sigma * eta, 0.5 * eta ** 2)
                 for eta in (ratio ** k for k in range(MAX_BACKTRACKS + 1)))


def schedule_setup(objectives: Sequence[ObjectiveModel], schedule: StageSchedule,
                   n: int) -> list[tuple]:
    """Every stage's set-up, the one that `run_adaptive` builds before its
    first iterate: per stage, everything the stage reads besides x0, cfg,
    the Stage and the trace.  That is (merit, A, B, c, gamma_drop): its
    merits, their `problems.quadratic_stack` (A, B), the schedule's
    terminal c as `fractional.terminals` reads it for n (zeros when None;
    ValueError unless of length 1 or n), and the stage's fall
    max(gamma_s - gamma_{s+1}, 0), 0 for the last stage (the stop rule of
    the module docstring).  A quadratic's merit gains the pull of weight
    gamma_s about c (`problems.regularized`); every other objective is its
    own merit, the objective itself.  The stack is read at c and holds at
    every x.  The set-up reads only the objectives, the gammas and c, so a
    sweep builds it once for all starts.
    """
    c = terminals(schedule.terminal, n)
    gammas = schedule.gammas
    setups = []
    for s, stage in enumerate(schedule.stages):
        merit = tuple(regularized(obj, stage.gamma, c) if obj.kind == "quadratic" else obj
                      for obj in objectives)
        drop = max(gammas[s] - gammas[s + 1], 0.0) if s + 1 < len(gammas) else 0.0
        setups.append((merit, *quadratic_stack(merit, c), c, drop))
    return setups


def run_single_stage(x0: np.ndarray, cfg: SolverConfig, stage: Stage, stage_index: int,
                     trace: IterationTrace, setup: tuple) -> IterationTrace:
    """Stage stage_index of a `run_adaptive` run: iterate x <- x + eta*d
    from x0 for up to stage.iterations Armijo steps or until ||d|| is below
    the stop tolerance, appending records and one StageReport to trace,
    which it returns.

    setup is the stage's (merit, A, B, c, gamma_drop) from
    `schedule_setup`, which the stage reads alone.  The stop tolerance is
    max(cfg.tolerance, gamma_drop * ||d_0||), with ||d_0|| the ||d|| at
    the first iterate (a gamma_drop of 0 stops at cfg.tolerance).

    Each quadratic merit carries the stage's pull; its gradient is the
    direction input, its exact expansion is what the line search tests
    and its values are what the trace's f columns record, so in an
    all-quadratic stage the Armijo slopes are the subproblem's own and the
    slope is its t, bit for bit.  So they are in a classical stage
    (stage.alpha = 1, decided here once), whose other merits' direction
    inputs are their gradients.  In a fractional stage each other merit,
    which is its objective, takes the singular-quadrature gradient of
    order stage.alpha and weight stage.beta on its own kink locator, and
    raw values, and the Armijo slopes are the rows of one product of the
    merit gradients with d, whose max is the slope.  Each iterate forms
    the quadratic merits' gradients as A @ x + B and evaluates each other
    merit's gradient at x once; in a fractional stage it is the row-0
    gradient that `modified_fractional_gradient` writes into its
    gradient_out.
    It hands `armijo_step` A, or None in a stage without a quadratic merit
    (decided once per stage), and the values that the previous line search
    evaluated at its accepted step, None for the others, and the line
    search evaluates the ones it tests.  The record keeps those values and
    the stage's merits, and evaluates the rest whenever its f_values are
    read.  So a quadratic stage calls no gradient and, while curvatures
    are positive, no value, and a smooth stage evaluates each value once
    per point.  Records are numbered by their position in trace.records.
    Neither a record's x nor the terminal may be written into, since a
    record's f_values are evaluated at its x on every read.

    Which merits are piecewise is decided here once.  At each iterate the
    stage appends, for each of them, the classical gradients of its pieces
    other than the largest within `problems.ACTIVE_TOLERANCE` of its max
    at x (`PiecewiseMaxObjective.active_gradients`) as extra rows of both
    the direction inputs and the merit gradients.  So the Armijo slope is
    the max over all rows, and trace.final_multipliers sums each extra
    row's multiplier into its merit's, keeping length m.  A stage without
    a piecewise merit adds no row.

    In a fractional stage each iterate builds one node stack per distinct
    kink locator of the non-quadratic objectives (None for the kink-free
    ones), on first use, and every objective with that locator reduces it;
    a coordinate below its terminal adds its stack's note to trace.notes,
    so once per iterate and locator.  Every warning, such as an
    overflowing quadratic matvec, reaches the caller's filters.  Every
    iterate is a new array that nothing writes into, so the records and
    trace.final_x hold the iterates themselves, not copies.

    perfbench's tracer wraps this function by name in this module and
    counts a stage's iterations from its cfg and trace arguments and the
    trace it returns.
    """
    x = np.asarray(x0, dtype=float).copy()
    start = trace.iterations
    tolerance = cfg.tolerance
    merit, hessians, offsets, terminal, gamma_drop = setup
    # A classical stage's direction inputs are its merits' gradients, as a
    # quadratic's are; the other kinds take fractional gradients, those
    # with one kink locator sharing one node stack per iterate.
    classical = stage.alpha == 1.0
    others = [j for j, m in enumerate(merit) if m.kind != "quadratic"]
    # With no quadratic merit every curvature is 0, so the line search
    # takes no stack and forms no products.
    search_hessians = None if len(others) == len(merit) else hessians
    fractional = [] if classical else [(j, merit[j].kink_locator) for j in others]
    piecewise = [j for j, m in enumerate(merit) if m.kind == "piecewise"]

    values = [None] * len(merit)  # merit values at x from the accepted trial
    trace.termination = "max_iter"
    for k in range(stage.iterations + 1):
        # Row j of merit_grads is merit j's gradient at x: A x + B for a
        # quadratic; the others' rows are written below.
        merit_grads = hessians @ x
        merit_grads += offsets
        grads = merit_grads
        if classical:
            for j in others:
                merit_grads[j] = merit[j].gradient(x)
        elif fractional:
            grads = merit_grads.copy()
            stacks = {}
            for j, locator in fractional:
                if locator not in stacks:
                    stacks[locator] = node_stack(x, stage.alpha, terminal, locator)
                    trace.notes.extend(stacks[locator].notes)
                grads[j] = modified_fractional_gradient(
                    merit[j], stacks[locator], stage.beta, gradient_out=merit_grads[j])
        # A kinked merit's other active pieces enter as rows of their own,
        # their classical gradients in both arrays; owners[i] is the merit
        # of extra row i.
        owners, rows = [], []
        for j in piecewise:
            near = merit[j].active_gradients(x)[1:]
            owners += [j] * len(near)
            rows.extend(near)
        if rows:
            merits_are_inputs = grads is merit_grads
            merit_grads = np.concatenate((merit_grads, rows))
            grads = merit_grads if merits_are_inputs else np.concatenate((grads, rows))

        try:
            direction = solve_direction(grads)
        except (DirectionAccuracyError, ValueError) as exc:
            trace.termination = "error"
            trace.error = str(exc)
            trace.final_x = x
            trace.final_norm_d = trace.final_multipliers = None
            break

        norm_d = direction.norm
        if k == 0:
            tolerance = max(tolerance, gamma_drop * norm_d)
        trace.final_x = x
        trace.final_norm_d = norm_d
        trace.final_multipliers = direction.multipliers
        if owners:  # each extra row's multiplier is summed into its merit's
            trace.final_multipliers = np.bincount([*range(len(merit)), *owners],
                                                  direction.multipliers)
        # t >= 0: the subproblem finds no descent direction to its precision,
        # so x is critical even if ||d|| is still above the tolerance.
        if norm_d < tolerance or not direction.t_value < 0.0:
            trace.termination = "tolerance"
            break
        # Armijo tests the merit, so its slopes are grad merit_j^T d and its
        # slope their max: the subproblem's own slopes and t where the
        # direction inputs are the merit gradients, one product otherwise.
        # numpy's max keeps a NaN, which ends the stage below.
        if grads is merit_grads:
            slopes, slope = direction.slopes, direction.t_value
        else:
            products = merit_grads @ direction.direction
            slopes, slope = products.tolist(), float(products.max())
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

        try:
            eta, x_next, backtracks, trial_values = armijo_step(
                merit, x, direction.direction, slope, cfg, values, slopes, search_hessians)
        except (LineSearchError, ValueError) as exc:
            trace.termination = "error"
            trace.error = str(exc)
            break

        trace.records.append(IterationRecord(
            stage=stage_index, x=x, values=values,
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
                 schedule: StageSchedule,
                 setup: Optional[list] = None) -> IterationTrace:
    """Run the stages of a schedule sequentially, chaining the iterates; a
    one-stage run is the schedule StageSchedule((stage,), terminal).

    objectives are raw; each stage adds its own regularizer, centred on the
    schedule's fixed terminal c (zeros(n) when omitted), the c that
    `tikhonov_solve` and the verify runs use.  x0 must be a finite vector
    of each objective's dim, and setup is
    `schedule_setup(objectives, schedule, x0.size)`, which a sweep builds
    once for all its starts; None builds it here.  So an x0 of another
    length or with a non-finite entry, and a terminal whose length is
    neither 1 nor n, raise ValueError before any stage runs; the schedule
    has refused a non-finite terminal when it was built.  Each stage is one
    `run_single_stage` on its own set-up.  The run stops at the first
    stage that ends in error.
    """
    x = np.asarray(x0, dtype=float)
    finite = np.isfinite(x).all()
    for obj in objectives:
        if not finite or x.shape != (obj.dim,):
            raise ValueError(f"x0 must be a finite vector of dim {obj.dim}, got {x}")
    setup = setup or schedule_setup(objectives, schedule, x.size)
    trace = IterationTrace()
    for s, stage in enumerate(schedule.stages):
        x = run_single_stage(x, cfg, stage, s, trace, setup[s]).final_x
        if trace.termination == "error":
            break
    return trace
