"""Multi-objective optimization with adaptive-order Caputo fractional gradients.

Modules
-------
fractional   Caputo derivatives and (modified) fractional gradients
problems     objective models, quadratic least-squares family, Tikhonov solves
direction    min-norm common descent direction over the gradient hull
descent      Armijo-backtracked iteration and staged adaptive-order driver
lab          baselines, rate/bound verification, Pareto sweeps, ADRS
fixtures     the named analytic benchmark problems
cli          command-line experiment runner
"""

from .direction import (
    DirectionAccuracyError,
    DirectionResult,
    solve_direction,
)
from .descent import (
    IterationTrace,
    LineSearchError,
    SolverConfig,
    Stage,
    StageSchedule,
    armijo_step,
    run_adaptive,
    run_single_stage,
)
from .fractional import modified_fractional_gradient
from .lab import (
    ExperimentSpec,
    StageErrorBound,
    adrs,
    comparison_table,
    mogd_baseline,
    pareto_sweep,
    subgradient_baseline,
    verify_rate_theorem5,
    verify_staged_theorem6,
)
from .problems import (
    ObjectiveModel,
    PiecewiseMaxObjective,
    QuadraticMop,
    SingularSystemError,
    TikhonovSolution,
    quadratic_objective,
    random_quadratic_mop,
    save_mop,
    tikhonov_solve,
)

__version__ = "0.1.0"
