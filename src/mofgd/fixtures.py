"""Named analytic benchmark problems used by the lab and CLI.

example1:  f(x) = 4 x1^2 + x2^2 - 2 x1 x2 - 3 x1 + 4 x2
           classical critical point (-1/6, -13/6), value -49/12.
example2:  f(x) = x1^2 + 4 x2^2 - 2 x1 x2 - 3 x1 + 4 x2
           classical critical point (4/3, -1/6), value -7/3.
           The Pareto fixture pairs example1 and example2.
example3_nonsmooth:  f(x) = max(5 x1 + x2, x1^2 + x2^2)
           global minimum 0 at the origin (the max dominates ||x||^2 and
           both pieces vanish there).
"""

from __future__ import annotations

import math

import numpy as np

from .descent import StageSchedule
from .fractional import order_shift
from .problems import ObjectiveModel, PiecewiseMaxObjective, quadratic_objective, regularized

__all__ = [
    "EXAMPLE1_MATRIX",
    "EXAMPLE1_OFFSET",
    "EXAMPLE2_MATRIX",
    "EXAMPLE2_OFFSET",
    "example1_objective",
    "example2_objective",
    "example3_objective",
    "pareto_pair",
    "FIXTURE_NAMES",
    "fixture_objectives",
    "classical_critical_point",
    "fractional_critical_point",
    "recover_terminal",
    "default_schedule",
    "EXAMPLE1_PAPER_POINT",
    "EXAMPLE1_FRACTIONAL_ALPHA",
]

EXAMPLE1_MATRIX = np.array([[8.0, -2.0], [-2.0, 2.0]])
EXAMPLE1_OFFSET = np.array([-3.0, 4.0])
EXAMPLE2_MATRIX = np.array([[2.0, -2.0], [-2.0, 8.0]])
EXAMPLE2_OFFSET = np.array([-3.0, 4.0])

# Reported plain-fractional critical point at alpha = 0.5 (terminal unstated;
# see recover_terminal for the terminal consistent with it).
EXAMPLE1_PAPER_POINT = np.array([0.34313689, -0.12745096])
EXAMPLE1_FRACTIONAL_ALPHA = 0.5

# The stages of default_schedule, and parse_config's schedule defaults.
DEFAULT_ALPHAS = (0.5, 0.7, 0.9)
DEFAULT_GAMMAS = (0.1, 0.01, 0.0)
DEFAULT_ITERATIONS = (50, 50, 100)


def example1_objective() -> ObjectiveModel:
    return quadratic_objective(EXAMPLE1_MATRIX, EXAMPLE1_OFFSET)


def example2_objective() -> ObjectiveModel:
    return quadratic_objective(EXAMPLE2_MATRIX, EXAMPLE2_OFFSET)


def example3_objective() -> PiecewiseMaxObjective:
    """max(5 x1 + x2, x1^2 + x2^2) with analytic piece derivatives, each
    taking a point or a stack of points over the last axis."""
    linear = (
        lambda x: 5.0 * x[..., 0] + x[..., 1],
        lambda x: np.broadcast_to([5.0, 1.0], np.shape(x)),
        lambda x: np.zeros(np.shape(x) + (2,)),
    )
    quad = (
        lambda x: x[..., 0] ** 2 + x[..., 1] ** 2,
        lambda x: 2.0 * np.asarray(x, dtype=float),
        lambda x: np.broadcast_to(2.0 * np.eye(2), np.shape(x)[:-1] + (2, 2)),
    )
    return PiecewiseMaxObjective([linear, quad], dim=2, kink_locator=_example3_kinks)


def _example3_kinks(x, i, lo, hi) -> tuple[float, ...]:
    """The restriction kinks solve a quadratic equation exactly."""
    other = float(x[1 - i])
    # 5 t + other = t^2 + other^2 (i = 0) or 5 other + t = other^2 + t^2.
    if i == 0:
        a, b, c = 1.0, -5.0, other ** 2 - other
    else:
        a, b, c = 1.0, -1.0, other ** 2 - 5.0 * other
    disc = b * b - 4.0 * a * c
    roots = []
    if disc >= 0.0:
        # b is -5 or -1, so q != 0 and neither root cancels nearly equal numbers.
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots = sorted((q / a, c / q))
    return tuple(t for t in roots if lo < t < hi)


def pareto_pair() -> list[ObjectiveModel]:
    """Bi-objective fixture: example1 and example2 share their linear term,
    so their minimizers differ and the efficient set is a curve between them."""
    return [example1_objective(), example2_objective()]


_FIXTURES = {
    "example1": lambda: [example1_objective()],
    "example2": lambda: [example2_objective()],
    "example2_pair": pareto_pair,
    "example3_nonsmooth": lambda: [example3_objective()],
}
FIXTURE_NAMES = tuple(_FIXTURES)


def fixture_objectives(name: str) -> list[ObjectiveModel]:
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}")
    return _FIXTURES[name]()


def classical_critical_point(a_matrix: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve grad f = A x + b = 0 and return (x*, f(x*))."""
    x = np.linalg.solve(a_matrix, -b)
    return x, float(0.5 * x @ a_matrix @ x + b @ x)


def fractional_critical_point(a_matrix: np.ndarray, b: np.ndarray, alpha: float,
                              terminal: np.ndarray) -> np.ndarray:
    """Root of the plain (beta = 0) fractional gradient of a quadratic.

    That gradient, (A x + b) - order_shift(alpha) diag(diag(A)) (x - c), is
    the gradient of the stage merit regularized(f, -order_shift(alpha), c),
    so the root is the merit's critical point: H x = -grad merit(0).
    """
    merit = regularized(quadratic_objective(a_matrix, b), -order_shift(alpha), terminal)
    zero = np.zeros(np.size(b))
    return np.linalg.solve(merit.hessian(zero), -merit.gradient(zero))


def recover_terminal(a_matrix: np.ndarray, b: np.ndarray, alpha: float,
                     x_point: np.ndarray) -> np.ndarray:
    """Terminal c making x_point a root of the plain fractional gradient.

    Coordinate-wise inversion of the root equation:
    c_i = x_i - (A x + b)_i / (order_shift(alpha) A_ii).
    """
    x_point = np.asarray(x_point, dtype=float)
    g = a_matrix @ x_point + b
    return x_point - g / (order_shift(alpha) * np.diag(a_matrix))


def default_schedule(terminal=None, iterations=DEFAULT_ITERATIONS) -> StageSchedule:
    """The three-stage alpha = {0.5, 0.7, 0.9} schedule with regularizers
    {0.1, 0.01, 0} (nonincreasing to zero, as the staged theory requires);
    `run_adaptive` reads a terminal of None as zeros(n), for any n."""
    return StageSchedule.from_gammas(
        alphas=DEFAULT_ALPHAS,
        gammas=DEFAULT_GAMMAS,
        iterations=iterations,
        terminal=terminal,
    )
