"""Tests for the Armijo line search, single-stage runs and the staged driver."""

import dataclasses
import itertools
import math
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest

import mofgd.descent as descent
import mofgd.problems as problems
from mofgd import (
    DirectionAccuracyError,
    LineSearchError,
    ObjectiveModel,
    SolverConfig,
    Stage,
    StageSchedule,
    armijo_step,
    mogd_baseline,
    quadratic_objective,
    random_quadratic_mop,
    run_adaptive,
    solve_direction,
)
from mofgd.cli import parse_config
from mofgd.fixtures import default_schedule, example3_objective, fixture_objectives, pareto_pair
from mofgd.fractional import NodeStack, modified_fractional_gradient, node_stack
from mofgd.problems import PiecewiseMaxObjective, QuadraticGradient, regularized
from oracles import matvec_rows, norm_order, segment_min_norm, solve_slopes

REPO = Path(__file__).resolve().parents[1]


def classical(iterations):
    """The alpha = 1, gamma = 0 stage: classical steepest descent."""
    return Stage(1.0, 0.0, iterations)


def one_stage(objectives, x0, cfg, stage, terminal):
    """A one-stage run: `run_adaptive` on the schedule (stage,) with terminal."""
    return run_adaptive(objectives, x0, cfg, StageSchedule((stage,), terminal))


def stage_setup(objectives, stage, terminal):
    """The merits and their (A, B) that `schedule_setup` builds for the
    one-stage schedule (stage,) with terminal."""
    schedule = StageSchedule((stage,), terminal)
    return descent.schedule_setup(objectives, schedule, objectives[0].dim)[0][:3]


def l1_norm(center=(0.0, 0.0)) -> PiecewiseMaxObjective:
    """|x1 - a1| + |x2 - a2| as the max of its four pieces
    s1 (x1 - a1) + s2 (x2 - a2), kinked where a coordinate is a_i."""
    a = np.asarray(center, dtype=float)
    pieces = [(lambda x, s=s: (x[..., 0] - a[0]) * s[0] + (x[..., 1] - a[1]) * s[1],
               lambda x, s=s: np.broadcast_to(s, np.shape(x)))
              for s in ([1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0])]
    return PiecewiseMaxObjective(
        pieces, dim=2, kink_locator=lambda x, i, lo, hi: (a[i],) if lo < a[i] < hi else ())


def logistic_losses():
    """Three regularized logistic losses in n=4, vectorized over the last axis."""
    def logistic(features, labels, mu=0.1):
        def margins(x):
            return -labels * (np.asarray(x, dtype=float) @ features.T)

        def gradient(x):
            prob = 0.5 * (1.0 + np.tanh(0.5 * margins(x)))
            return -(prob * labels) @ features / labels.size + mu * np.asarray(x, dtype=float)

        def hessian(x):
            prob = 0.5 * (1.0 + np.tanh(0.5 * margins(x)))
            weights = prob * (1.0 - prob) / labels.size
            return (features.T * weights[..., None, :]) @ features + mu * np.eye(4)

        return ObjectiveModel(
            lambda x: (np.logaddexp(0.0, margins(x)).mean(axis=-1)
                       + 0.5 * mu * (np.asarray(x, dtype=float) ** 2).sum(axis=-1)),
            gradient, hessian, kind="smooth", dim=4)

    rng = np.random.default_rng(42)
    objectives = []
    for _ in range(3):
        features = rng.normal(size=(16, 4))
        truth = rng.normal(size=4)
        noise = 0.5 * rng.normal(size=16)
        objectives.append(logistic(features, np.where(features @ truth + noise >= 0.0, 1.0, -1.0)))
    return objectives


def evaluated_armijo(objectives, x, direction, cfg):
    """Reference line search on evaluated values: the first eta in
    {1, r, r^2, ...} with f_j(x + eta d) <= f_j(x) + sigma eta t for all j.

    Returns (eta, x_next, backtracks, margin), where margin is the smallest
    |sigma eta t| / |f_j(x)| over the trials, so a caller can check that no
    trial was decided by rounding.
    """
    d, t = direction.direction, direction.t_value
    f0 = [obj.value(x) for obj in objectives]
    margin = np.inf
    for backtracks in range(descent.MAX_BACKTRACKS + 1):
        eta = cfg.backtrack ** backtracks
        bound = cfg.sigma * eta * t
        margin = min(margin, min(abs(bound) / abs(f) for f in f0))
        x_next = x + eta * d
        if all(obj.value(x_next) <= f + bound for obj, f in zip(objectives, f0)):
            return eta, x_next, backtracks, margin
    raise AssertionError("the reference found no step")


def scanned_expansions(objectives, x, direction, cfg, gradients):
    """Reference line search on the exact expansions of quadratic merits: the
    first eta in {1, r, r^2, ...}, tried one by one from eta = 1, with
    eta s_j + eta^2 q_j / 2 <= sigma eta t for all j.

    The slopes g_j^T d are the rows of one product of the stacked
    gradients with d, and the curvatures d^T H_j d the rows of one product
    of the stacked d^T H_j, each H_j fetched from its objective.  Returns
    (eta, x_next, backtracks), or None when no trial passes.
    """
    d, t = direction.direction, direction.t_value
    terms = list(zip(matvec_rows(gradients, d),
                     matvec_rows([d @ obj.hessian(x) for obj in objectives], d)))
    for backtracks in range(descent.MAX_BACKTRACKS + 1):
        eta = cfg.backtrack ** backtracks
        if all(eta * s + 0.5 * eta ** 2 * q <= cfg.sigma * eta * t for s, q in terms):
            return eta, x + eta * d, backtracks
    return None


def closed_form_first_trial(expanded, cfg, t):
    """Backtrack count one step before the first power of r at or below
    min_j eta_j*, where eta_j* = 2 (sigma t - s_j) / q_j bounds the steps at
    which the expansion of merit j (s_j, q_j) passes exactly; 0 unless every
    eta_j* is finite and positive.  No trial before it passes."""
    bounds = [2.0 * (cfg.sigma * t - s) / q for s, q in expanded]
    if not bounds or not all(0.0 < b < math.inf for b in bounds):
        return 0
    return max(0, math.ceil(math.log(min(bounds)) / math.log(cfg.backtrack)) - 1)


def counting_calls(obj, name="value"):
    """obj with its callable `name` counting its calls in the returned list."""
    calls = []
    original = getattr(obj, name)

    def counted(x):
        calls.append(1)
        return original(x)

    return dataclasses.replace(obj, **{name: counted}, validate=False), calls


class TestSolverConfig:
    @pytest.mark.parametrize("bad", [
        dict(sigma=1.5), dict(sigma=0.0), dict(backtrack=1.0),
        dict(tolerance=0.0), dict(max_iterations=0),
        dict(sigma=1.0), dict(backtrack=0.0),
        dict(eta=0.0), dict(eta=2.5),
        dict(tolerance=math.nan), dict(tolerance=math.inf),
    ])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            SolverConfig(**bad)

    @pytest.mark.parametrize("count", [2.5, 3.0, True, "3"])
    def test_max_iterations_is_an_integer(self, count):
        """A float, even a whole one, a bool or a string is refused by name
        when the config is built, not when a run reaches range()."""
        with pytest.raises(ValueError, match="max_iterations must be a positive integer"):
            SolverConfig(max_iterations=count)
        assert SolverConfig(max_iterations=np.int64(3)).max_iterations == 3


class TestStageSchedule:
    def test_beta_lower_bound_enforced(self):
        """A negative gamma puts beta below (1-alpha)/(2-alpha)."""
        with pytest.raises(ValueError, match="beta"):
            Stage(alpha=0.9, gamma=-0.01, iterations=10)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma_refused(self, gamma):
        with pytest.raises(ValueError, match="finite"):
            Stage(alpha=0.5, gamma=gamma, iterations=10)

    @pytest.mark.parametrize("terminal", [math.nan, [0.0, math.inf]])
    def test_non_finite_terminal_refused_before_any_stage(self, terminal):
        """The schedule refuses a non-finite terminal when it is built, as
        a stage refuses a non-finite gamma; the set-up, which reads the
        terminal through the same rule, refuses one written past it."""
        objectives = fixture_objectives("example2")
        with pytest.raises(ValueError, match="terminal must be finite"):
            default_schedule(terminal=terminal)
        schedule = default_schedule()
        object.__setattr__(schedule, "terminal", np.array(terminal, dtype=float))
        with pytest.raises(ValueError, match="terminal must be finite"):
            descent.schedule_setup(objectives, schedule, 2)
        with pytest.raises(ValueError, match="terminal must be finite"):
            run_adaptive(objectives, np.ones(2), SolverConfig(), schedule)

    @pytest.mark.parametrize("count", [2.5, 3.0, True, False])
    def test_iteration_counts_are_integers(self, count):
        """A stage's count is an integer when built: a float, even a whole
        one, or a bool is refused by name, and from_gammas hands its counts
        on unchanged, so 2.5 is refused there too, not truncated to 2."""
        with pytest.raises(ValueError, match="stage iterations must be a positive integer"):
            Stage(0.5, 0.1, count)
        with pytest.raises(ValueError, match="stage iterations must be a positive integer"):
            StageSchedule.from_gammas([0.5], [0.1], [count])
        assert Stage(0.5, 0.1, np.int64(3)).iterations == 3
        assert StageSchedule.from_gammas([0.5], [0.1], [np.int64(3)]).stages[0].iterations == 3

    @pytest.mark.parametrize("gamma", [0.1, 1e-12])
    def test_classical_stage_takes_gamma_zero_only(self, gamma):
        """alpha = 1 is the classical stage, whose merits are the raw
        objectives: a gamma > 0 with it is refused, naming both values."""
        with pytest.raises(ValueError, match=f"alpha = 1.0 .* gamma = {gamma}"):
            Stage(alpha=1.0, gamma=gamma, iterations=10)
        with pytest.raises(ValueError, match=f"alpha = 1.0 .* gamma = {gamma}"):
            StageSchedule.from_gammas([0.5, 1.0], [0.2, gamma], [5, 5])
        assert Stage(alpha=1.0, gamma=0.0, iterations=10).beta == 0.0

    def test_gammas(self):
        """A stage keeps its gamma as given and derives beta from it."""
        sched = StageSchedule.from_gammas([0.5, 0.7], [0.2, 0.0], [5, 5])
        assert sched.gammas == (0.2, 0.0)
        assert sched.stages[0].beta == pytest.approx(0.2 + 1.0 / 3.0)
        assert sched.stages[1].beta == pytest.approx(0.3 / 1.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StageSchedule(stages=())

    def test_terminal_is_a_read_only_copy(self):
        c = np.zeros(3)
        sched = StageSchedule(stages=(Stage(0.5, 0.5, 5),), terminal=c)
        assert c.flags.writeable
        assert not sched.terminal.flags.writeable
        c[0] = 1.0
        assert sched.terminal[0] == 0.0

    def test_terminal_stays_read_only_through_pickle(self):
        """pareto --jobs N pickles its schedule to the workers: the schedule
        comes back through its constructor, so the terminal keeps its
        values and stays read-only, and a None terminal stays None."""
        sched = default_schedule(terminal=np.array([0.5, -1.0]))
        back = pickle.loads(pickle.dumps(sched))
        assert back.stages == sched.stages
        np.testing.assert_array_equal(back.terminal, sched.terminal)
        assert not back.terminal.flags.writeable
        assert pickle.loads(pickle.dumps(default_schedule())).terminal is None

    @pytest.mark.parametrize("alphas, gammas, iterations", [
        ([0.5, 0.7, 0.9], [0.1, 0.0], [5, 5, 5]),
        ([0.5, 0.7], [0.1, 0.01, 0.0], [5, 5, 5]),
        ([0.5, 0.7, 0.9], [0.1, 0.01, 0.0], [5, 5]),
    ])
    def test_from_gammas_refuses_unequal_lengths(self, alphas, gammas, iterations):
        """Mismatched sequences raise instead of dropping stages."""
        with pytest.raises(ValueError):
            StageSchedule.from_gammas(alphas, gammas, iterations)


def softplus_sum() -> ObjectiveModel:
    """sum_i log(1 + exp(x_i)) in n = 2: a smooth objective without kinks."""
    return ObjectiveModel(lambda x: np.logaddexp(0.0, np.asarray(x, dtype=float)).sum(axis=-1),
                          lambda x: 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float))),
                          kind="smooth", dim=2)


class TestScheduleSetup:
    """A stage reads its set-up alone: schedule_setup hands each stage its
    merits, their (A, B), the checked terminal and its gamma drop."""

    SCHEDULE = StageSchedule.from_gammas([0.5, 0.7, 0.9, 1.0], [0.1, 0.01, 0.05, 0.0],
                                         [15, 15, 15, 30], terminal=-1.0)

    @staticmethod
    def mixed():
        """A quadratic, a smooth and a piecewise objective in n = 2."""
        return [quadratic_objective(np.diag([2.0, 1.0]), np.array([1.0, -1.0])),
                softplus_sum(), l1_norm((0.5, -0.5))]

    def test_a_non_quadratic_merit_is_its_objective(self):
        """In every stage, merit j is objective j itself whenever objective
        j is not quadratic, so the stage needs no objectives of its own;
        each set-up holds the schedule's checked terminal, and each stage's
        drop is max(gamma_s - gamma_{s+1}, 0), 0 for the last stage."""
        objectives = self.mixed()
        setups = descent.schedule_setup(objectives, self.SCHEDULE, 2)
        assert len(setups) == len(self.SCHEDULE.stages)
        for merit, a, b, c, drop in setups:
            assert [m.kind for m in merit] == ["quadratic", "smooth", "piecewise"]
            assert merit[1] is objectives[1] and merit[2] is objectives[2]
            assert not a[1:].any() and not b[1:].any()
            assert c.tolist() == [-1.0, -1.0] and not c.flags.writeable
        assert [setup[4] for setup in setups] == [0.1 - 0.01, 0.0, 0.05, 0.0]

    def test_run_adaptive_chains_the_stages_on_their_set_ups(self):
        """run_adaptive is the chain of run_single_stage calls on the
        stages' set-ups, bit for bit, for the mixed objectives, from a start
        where every stage iterates and a coordinate passes below the
        terminal."""
        objectives, x0, cfg = self.mixed(), np.array([3.0, -2.0]), SolverConfig(tolerance=1e-6)
        trace = run_adaptive(objectives, x0, cfg, self.SCHEDULE)
        reference, x = descent.IterationTrace(), x0
        for s, (stage, setup) in enumerate(zip(self.SCHEDULE.stages,
                                               descent.schedule_setup(objectives,
                                                                      self.SCHEDULE, 2))):
            x = descent.run_single_stage(x, cfg, stage, s, reference, setup).final_x
        assert all(s.iterations > 0 for s in trace.stages) and trace.notes
        assert record_bits(trace) == record_bits(reference)
        assert trace.notes == reference.notes


class TestArmijoStep:
    def test_hand_evaluated_quadratic(self):
        """f = ||x||^2/2 at (1,0): d = (-1,0), t = -1, eta = 1 accepted for sigma <= 1/2."""
        obj = quadratic_objective(np.eye(2), np.zeros(2))
        x = np.array([1.0, 0.0])
        direction = solve_direction([obj.gradient(x)])
        cfg = SolverConfig(sigma=0.4)
        eta, x_next, backtracks, trial_values = armijo_step(
            [obj], x, direction.direction, direction.t_value, cfg,
            [obj.value(x)], direction.slopes, problems.quadratic_stack([obj], x)[0])
        assert eta == 1.0
        assert trial_values == [None]  # tested on its expansion
        assert backtracks == 0
        np.testing.assert_allclose(x_next, [0.0, 0.0])

    def test_accepted_step_decreases_every_objective(self):
        rng = np.random.default_rng(0)
        mop = random_quadratic_mop(4, 6, 2, seed=12)
        objs = mop.objectives()
        cfg = SolverConfig(sigma=0.2)
        for _ in range(25):
            x = rng.normal(size=4) * 2.0
            grads = [objs[j].gradient(x) for j in range(2)]
            direction = solve_direction(grads)
            if direction.norm < 1e-9:
                continue
            eta, x_next, _, _ = armijo_step(objs, x, direction.direction, direction.t_value, cfg,
                                            [obj.value(x) for obj in objs], direction.slopes,
                                            problems.quadratic_stack(objs, x)[0])
            for j, obj in enumerate(objs):
                assert obj.value(x_next) <= obj.value(x) + cfg.sigma * eta * direction.t_value + 1e-12
                assert obj.value(x_next) <= obj.value(x)

    def test_backtrack_count_obeys_curvature_bound(self):
        """Halvings stay under the Taylor-model bound.

        For stage-regularized quadratic merits the merit Hessian satisfies
        em(H + gamma_ab diag(H)) <= (1/(2-alpha) + beta) em(H), so acceptance
        happens once eta <= 2 (1-sigma) |t| / (c2 em ||d||^2) and the number
        of halvings is at most ceil(log_r of that threshold).
        """
        rng = np.random.default_rng(7)
        cfg = SolverConfig(sigma=0.1, backtrack=0.5)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            mop = random_quadratic_mop(n, n + 3, 2, seed=int(rng.integers(0, 10 ** 6)))
            stage = Stage(0.5, float(rng.uniform(0, 0.5)), 1)
            merit = [regularized(o, stage.gamma, np.zeros(n)) for o in mop.objectives()]
            em = max(np.linalg.eigvalsh(m.hessian(np.zeros(n)))[-1] for m in merit)
            x = rng.normal(size=n) * 3.0
            grads = [m.gradient(x) for m in merit]
            direction = solve_direction(grads)
            if direction.t_value >= -1e-10:
                continue
            eta, _, backtracks, _ = armijo_step(merit, x,
                                                direction.direction, direction.t_value, cfg,
                                                [m.value(x) for m in merit], direction.slopes,
                                                problems.quadratic_stack(merit, x)[0])
            eta_ok = 2.0 * (1 - cfg.sigma) * (-direction.t_value) / (em * direction.norm ** 2)
            bound = 0 if eta_ok >= 1 else int(np.ceil(np.log(eta_ok) / np.log(cfg.backtrack)))
            assert backtracks <= bound + 1
            # The second-order Taylor coefficient 1/(2 - alpha) + beta
            # dominates the regularized curvature blow-up.
            raw_em = max(np.linalg.eigvalsh(A)[-1] for A in mop.gram)
            assert em <= (1.0 / (2.0 - stage.alpha) + stage.beta) * raw_em + 1e-9

    def test_requires_descent_direction(self):
        obj = quadratic_objective(np.eye(2), np.zeros(2))
        bad = solve_direction([np.zeros(2)])
        with pytest.raises(ValueError, match="descent"):
            armijo_step([obj], np.ones(2), bad.direction, bad.t_value, SolverConfig(),
                        [obj.value(np.ones(2))], bad.slopes,
                        problems.quadratic_stack([obj], np.ones(2))[0])

    def test_inconsistent_direction_fails_line_search(self):
        """A steep ascent direction with a fake negative t exhausts the halvings.

        The inconsistency must be large relative to f for the cap to trigger:
        at eta = 2^-60 a tiny |t| underflows against f0 and the <= test would
        accept by rounding, which is exactly why 60 halvings signal a bug.
        """
        obj = quadratic_objective(np.eye(2), np.zeros(2))
        x, d = np.array([1.0, 0.0]), np.array([1e6, 0.0])
        with pytest.raises(LineSearchError):
            armijo_step([obj], x, d, -1e12,
                        SolverConfig(), [obj.value(x)], [float(obj.gradient(x) @ d)],
                        problems.quadratic_stack([obj], x)[0])

    @pytest.mark.parametrize("reg", ["diag", "outer"])
    @pytest.mark.parametrize("n", [2, 20, 100])
    def test_matches_evaluated_reference(self, reg, n):
        """Far from the minimizer every trial's sigma*eta*t is far above the
        rounding of f, so the exact expansion accepts the same step as the
        evaluated rule."""
        rng = np.random.default_rng(n)
        cfg = SolverConfig(sigma=0.1, backtrack=0.5)
        for seed in range(5):
            mop = random_quadratic_mop(n, n + 3, 2, seed=seed)
            merit = [regularized(o, 0.3, np.zeros(n), reg) for o in mop.objectives()]
            x = mop.x_star + 10.0 * rng.normal(size=n)
            grads = [m.gradient(x) for m in merit]
            direction = solve_direction(grads)
            eta, x_next, backtracks, _ = armijo_step(merit, x,
                                                     direction.direction, direction.t_value, cfg,
                                                     [m.value(x) for m in merit], direction.slopes,
                                                     problems.quadratic_stack(merit, x)[0])
            ref_eta, ref_next, ref_backtracks, margin = evaluated_armijo(merit, x, direction, cfg)
            assert margin > 1e-10
            assert (eta, backtracks) == (ref_eta, ref_backtracks)
            np.testing.assert_array_equal(x_next, ref_next)

    def test_mixed_quadratic_and_smooth(self):
        """A smooth objective is tested on its values; a quadratic beside it
        on its expansion, without one value evaluation."""
        mop = random_quadratic_mop(4, 7, 1, seed=3)
        raw = [regularized(mop.objectives()[0], 0.3, np.zeros(4)), ObjectiveModel(
            lambda x: np.cosh(x).sum(axis=-1), np.sinh,
            lambda x: np.cosh(x)[..., None] * np.eye(4), kind="smooth", dim=4)]
        (quad, quad_calls), (smooth, smooth_calls) = map(counting_calls, raw)
        objectives = [quad, smooth]
        cfg = SolverConfig(sigma=0.1, backtrack=0.5)
        rng = np.random.default_rng(11)
        backtracked = 0
        for _ in range(10):
            x = 3.0 * rng.normal(size=4)
            grads = [obj.gradient(x) for obj in objectives]
            direction = solve_direction(grads)
            eta, x_next, backtracks, trial_values = armijo_step(
                objectives, x,
                direction.direction, direction.t_value, cfg, [obj.value(x) for obj in raw],
                direction.slopes,
                problems.quadratic_stack(objectives, x)[0])
            assert not quad_calls and smooth_calls
            # The smooth objective's value at the accepted step comes back.
            assert trial_values == [None, raw[1].value(x_next)]
            ref_eta, ref_next, ref_backtracks, margin = evaluated_armijo(
                objectives, x, direction, cfg)
            assert margin > 1e-10
            assert (eta, backtracks) == (ref_eta, ref_backtracks)
            np.testing.assert_array_equal(x_next, ref_next)
            for obj in objectives:
                assert obj.value(x_next) <= obj.value(x) + cfg.sigma * eta * direction.t_value
            backtracked += backtracks > 0
            quad_calls.clear()
        assert backtracked

    @pytest.mark.parametrize("backtrack", [0.5, 0.3, 0.8])
    def test_eta_is_the_ratio_to_the_backtrack_count(self, backtrack):
        mop = random_quadratic_mop(6, 9, 2, seed=5)
        objectives = mop.objectives()
        cfg = SolverConfig(sigma=0.1, backtrack=backtrack)
        rng = np.random.default_rng(4)
        counts = set()
        for _ in range(10):
            x = 4.0 * rng.normal(size=6)
            grads = [obj.gradient(x) for obj in objectives]
            direction = solve_direction(grads)
            eta, _, backtracks, _ = armijo_step(objectives, x,
                                                direction.direction, direction.t_value, cfg,
                                                [obj.value(x) for obj in objectives],
                                                direction.slopes,
                                                problems.quadratic_stack(objectives, x)[0])
            assert eta == backtrack ** backtracks
            counts.add(backtracks)
        assert max(counts) > 0


    @pytest.mark.parametrize("backtrack", [0.5, 0.3, 0.8])
    @pytest.mark.parametrize("distance", [10.0, 1e-6])
    def test_closed_form_start_matches_the_scan_from_one(self, backtrack, distance):
        """The line search returns the step of the reference scan from
        eta = 1, bit for bit, and that step is at most one trial past the
        closed-form first trial of the expansions (`closed_form_first_trial`):
        far from x* and within 1e-6 of it, on raw and regularized merits."""
        cfg = SolverConfig(sigma=0.1, backtrack=backtrack)
        rng = np.random.default_rng(17)
        compared = 0
        for seed in range(12):
            n = (2, 20, 100)[seed % 3]
            mop = random_quadratic_mop(n, n + 3, 2, seed=seed)
            merit = [regularized(o, 0.3 * (seed % 2), np.zeros(n)) for o in mop.objectives()]
            unit = rng.normal(size=n)
            x = mop.x_star + distance * unit / np.linalg.norm(unit)
            grads = [m.gradient(x) for m in merit]
            direction = solve_direction(grads)
            if not direction.t_value < 0.0:
                continue
            eta, x_next, backtracks, _ = armijo_step(merit, x,
                                                     direction.direction, direction.t_value, cfg,
                                                     [m.value(x) for m in merit], direction.slopes,
                                                     problems.quadratic_stack(merit, x)[0])
            ref_eta, ref_next, ref_backtracks = scanned_expansions(merit, x, direction, cfg,
                                                                   grads)
            assert (eta, backtracks) == (ref_eta, ref_backtracks)
            np.testing.assert_array_equal(x_next, ref_next)
            d = direction.direction
            start = closed_form_first_trial(
                [(float(g @ d), float(d @ m.hessian(x) @ d)) for m, g in zip(merit, grads)],
                cfg, direction.t_value)
            assert backtracks - 1 <= start <= backtracks
            compared += 1
        assert compared >= 10

    @pytest.mark.parametrize("s, q, t, backtrack, sigma, accepted", [
        # bound 2 (sigma t - s) / q = 0: the scan starts at eta = 1, and
        # the expansion passes only by rounding, at eta = 2^-54
        (-0.5, 1.0, -1.0, 0.5, 0.5, 54),
        # an ascent direction, bound < 0: no step passes
        (0.5, 1.0, -1.0, 0.5, 0.5, None),
        # bound 0.7 - 2e-16: the trial eta = 0.7 just above it passes by rounding
        (-0.769875021791665, 2.0415444471067565, -0.553344653043004, 0.7, 0.1, 1),
    ])
    def test_trials_decided_by_rounding(self, s, q, t, backtrack, sigma, accepted):
        """Steps that pass only by rounding are found as the scan from eta = 1
        finds them: f = q x^2 / 2 + s x at x = 0 along d = 1, so the slope
        that the direction hands over is s_j = s, and q_j = q."""
        from mofgd.direction import DirectionResult
        obj = quadratic_objective(np.array([[q]]), np.array([s]))
        x = np.zeros(1)
        cfg = SolverConfig(sigma=sigma, backtrack=backtrack)
        direction = DirectionResult(t_value=t, direction=np.ones(1),
                                    multipliers=np.ones(1), kkt_residual=0.0, theta=0.0,
                                    norm=1.0, slopes=[s])
        values, gradients = [obj.value(x)], [obj.gradient(x)]
        hessians = problems.quadratic_stack([obj], x)[0]
        reference = scanned_expansions([obj], x, direction, cfg, gradients)
        if accepted is None:
            assert reference is None
            with pytest.raises(LineSearchError):
                armijo_step([obj], x, direction.direction, direction.t_value, cfg, values,
                            direction.slopes, hessians)
            return
        eta, x_next, backtracks, _ = armijo_step([obj], x, direction.direction, direction.t_value,
                                                 cfg, values, direction.slopes, hessians)
        assert (eta, x_next.tolist(), backtracks) == (reference[0], reference[1].tolist(),
                                                      accepted)


class TestStackedProducts:
    """A line search reads its slopes from the direction it searches along,
    the rows of the one product G d whose max is t, and forms its
    curvatures as the rows of the one product (d @ A) d, from the quadratic
    merits' Hessians that its stage stacks once."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 100])
    def test_stacked_products_match_per_objective_products(self, m, n):
        """The rule the line search and its references share, pinned on
        seeded draws over twelve decades: the direction's slopes are the
        rows of one product G d (on the rows sorted by norm for m != 2,
        `solve_slopes`), with t their max, bit for bit, and the rows of the
        stacked d @ A have the bits of the per-objective d @ H_j, so the
        curvatures (d @ A) d are `matvec_rows` of the per-objective rows,
        which the references form from Hessians fetched one by one."""
        rng = np.random.default_rng(100 * m + n)
        for _ in range(300):
            scale = 10.0 ** rng.uniform(-6.0, 6.0, size=3)
            A = rng.standard_normal((m, n, n))
            hessians = np.array([scale[0] * (H + H.T) for H in A])
            G = scale[1] * rng.standard_normal((m, n))
            direction = solve_direction(G)
            assert direction.slopes == solve_slopes(G, direction.direction)
            assert (np.float64(direction.t_value).tobytes()
                    == np.float64(max(direction.slopes)).tobytes())
            d = scale[2] * rng.standard_normal(n)
            assert (d @ hessians).dot(d).tolist() == matvec_rows([d @ H for H in hessians], d)

    @staticmethod
    def steps(trace):
        """(x, eta, t, ||d||, backtracks) of every record, as bytes and counts."""
        return (np.array([[*r.x, r.eta, r.t_value, r.norm_d] for r in trace.records]).tobytes(),
                [r.backtracks for r in trace.records])

    @staticmethod
    def reference(merits, x0, cfg, iterations):
        from oracles import per_objective_quadratic_stage
        steps = per_objective_quadratic_stage(merits, x0, cfg.sigma, cfg.backtrack,
                                              cfg.tolerance, iterations)
        return (np.array([[*x, eta, t, norm] for x, eta, t, norm, _ in steps]).tobytes(),
                [backtracks for *_, backtracks in steps])

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("reg", ["diag", "outer"])
    def test_stage_matches_per_objective_reference(self, m, reg):
        """Records bit for bit as the per-objective reference loop, on the
        stage's own diag merits and on outer merits passed to a gamma = 0
        stage."""
        mop = random_quadratic_mop(5, 8, m, seed=31 + m)
        c, x0 = np.full(5, -1.0), np.full(5, 3.0)
        cfg = SolverConfig(tolerance=1e-9)
        merits = [regularized(obj, 0.3, c, reg) for obj in mop.objectives()]
        if reg == "diag":
            trace = one_stage(mop.objectives(), x0, cfg, Stage(0.5, 0.3, 80), c)
        else:
            trace = one_stage(merits, x0, cfg, classical(80), c)
        assert trace.iterations > 10
        assert self.steps(trace) == self.reference(merits, x0, cfg, 80)

    @staticmethod
    def quadratics(variant, mop, c):
        """mop's quadratics A_j x + b_j of another make, each behind a
        counter of its gradient calls: plain `quadratic_objective`s, behind
        a second counting wrapper, built from a lambda, already regularized
        about c, or on a Fortran-ordered matrix.  Returns the objectives
        and their call lists."""
        plain = [quadratic_objective(A, b) for A, b in zip(mop.gram, mop.offsets)]
        if variant == "counted":
            plain = [counting_calls(obj, "gradient")[0] for obj in plain]
        elif variant == "lambda":
            plain = [dataclasses.replace(obj, gradient=lambda x, A=A, b=b: A @ x + b,
                                         validate=False)
                     for obj, A, b in zip(plain, mop.gram, mop.offsets)]
        elif variant == "twice_regularized":
            plain = [regularized(obj, 0.1, c) for obj in plain]
        elif variant == "fortran":
            plain = [quadratic_objective(np.asfortranarray(A), b)
                     for A, b in zip(mop.gram, mop.offsets)]
        counted = [counting_calls(obj, "gradient") for obj in plain]
        return [obj for obj, _ in counted], [calls for _, calls in counted]

    def assert_same_run(self, variant, gamma):
        """The stage on the variant's quadratics calls each gradient once,
        at set-up, and gives the records of the per-objective reference on
        its merits and, but for the twice regularized quadratics, the
        records, final_x and final multipliers of the plain quadratics'
        stage, bit for bit.  The stack is C-ordered, so a Fortran-ordered
        merit's rows have the bits of the plain merit's gradient calls."""
        mop = random_quadratic_mop(5, 8, 2, seed=31)
        c, x0, stage = np.full(5, -1.0), np.full(5, 3.0), Stage(0.5, gamma, 80)
        cfg = SolverConfig(tolerance=1e-9)
        plain = self.quadratics("plain", mop, c)[0]
        objectives, calls = self.quadratics(variant, mop, c)
        merits, a, b = stage_setup(objectives, stage, c)
        if variant == "fortran":
            merits = stage_setup(plain, stage, c)[0]
        assert [len(k) for k in calls] == [1, 1]
        for x in np.random.default_rng(5).uniform(-3.0, 3.0, (20, 5)):
            assert (a @ x + b).tobytes() == np.array([m.gradient(x) for m in merits]).tobytes()
        objectives, calls = self.quadratics(variant, mop, c)
        trace = one_stage(objectives, x0, cfg, stage, c)
        assert trace.iterations > 10
        assert [len(k) for k in calls] == [1, 1]
        assert self.steps(trace) == self.reference(merits, x0, cfg, 80)
        if variant != "twice_regularized":
            expected = one_stage(plain, x0, cfg, stage, c)
            assert self.steps(trace) == self.steps(expected)
            assert trace.final_x.tobytes() == expected.final_x.tobytes()
            assert trace.final_multipliers.tobytes() == expected.final_multipliers.tobytes()

    @pytest.mark.parametrize("variant", ["counted", "lambda", "fortran"])
    def test_raw_quadratics_of_every_make_stack(self, variant):
        """At gamma = 0 the merits are the raw objectives, and they stack
        whatever their gradient callables or the order of their matrix."""
        self.assert_same_run(variant, 0.0)

    @pytest.mark.parametrize("variant", ["counted", "lambda", "twice_regularized", "fortran"])
    def test_merits_of_every_quadratic_stack(self, variant):
        """At gamma > 0 the merits of counted, lambda-built, already
        regularized and Fortran-ordered quadratics stack."""
        self.assert_same_run(variant, 0.3)

    def test_merits_with_nonpositive_curvature_are_tested_on_values(self):
        """A linear merit (q = 0) and a concave one (q < 0) next to a convex
        one: the line search tests those two on their values, as the
        reference does, and the convex one on its expansion."""
        objectives = [quadratic_objective(np.diag([2.0, 1.0, 3.0]), np.zeros(3)),
                      quadratic_objective(np.zeros((3, 3)), np.array([1.0, -0.5, 0.2])),
                      quadratic_objective(-0.05 * np.eye(3), np.array([-0.3, 0.4, 0.1]))]
        x0, cfg = np.array([2.0, -1.5, 1.0]), SolverConfig(tolerance=1e-9)
        trace = one_stage(objectives, x0, cfg, classical(40), 0.0)
        assert trace.iterations > 5
        assert all(r.values[0] is None and None not in r.values[1:] for r in trace.records)
        assert self.steps(trace) == self.reference(objectives, x0, cfg, 40)

    def test_stage_fetches_each_merit_hessian_once(self):
        """A stage fetches each quadratic merit's Hessian once, however many
        line searches it runs, also next to a smooth objective, whose
        Hessian the line search does not read."""
        raw = random_quadratic_mop(4, 6, 2, seed=5).objectives()
        counted = [counting_calls(obj, "hessian") for obj in raw]
        trace = one_stage([obj for obj, _ in counted], np.full(4, 2.0),
                          SolverConfig(tolerance=1e-9), classical(50), 0.0)
        assert trace.iterations > 5
        assert [len(calls) for _, calls in counted] == [1, 1]
        quadratic, calls = counting_calls(quadratic_objective(np.eye(4), np.zeros(4)), "hessian")
        smooth, smooth_calls = counting_calls(logistic_losses()[0], "hessian")
        trace = one_stage([quadratic, smooth], np.full(4, 2.0), SolverConfig(),
                          classical(5), 0.0)
        assert trace.iterations == 5
        assert (len(calls), len(smooth_calls)) == (1, 0)


    def test_smooth_merits_stack_zero_hessians(self):
        """A smooth merit's slot of the Hessian stack is zeros, alone or next
        to a quadratic merit."""
        smooth = logistic_losses()
        a, b = problems.quadratic_stack(smooth, np.ones(4))
        assert (a.tobytes(), b.tobytes()) == (bytes(3 * 16 * 8), bytes(3 * 4 * 8))
        assert not stage_setup(smooth, Stage(0.5, 0.1, 1), np.zeros(4))[1].any()
        mixed, _ = problems.quadratic_stack(
            [quadratic_objective(np.eye(4), np.zeros(4)), smooth[0]], np.ones(4))
        assert mixed.shape == (2, 4, 4) and not mixed[1].any()

    @staticmethod
    def count_products(monkeypatch):
        """Counts of line searches and of those handed a Hessian stack, the
        ones that form the curvature product."""
        counts = {"armijo": 0, "products": 0}
        armijo = descent.armijo_step

        def spy_armijo(*args):
            counts["armijo"] += 1
            counts["products"] += args[-1] is not None
            return armijo(*args)

        monkeypatch.setattr(descent, "armijo_step", spy_armijo)
        return counts

    def test_every_line_search_forms_its_products_once(self, monkeypatch):
        """A smooth stage's line searches, fractional or classical, form no
        slope and curvature products, since every curvature would be 0; a
        mixed quadratic-and-smooth stage's form them once per search."""
        counts = self.count_products(monkeypatch)
        for stage in (Stage(0.5, 0.1, 20), classical(20)):
            trace = one_stage(logistic_losses(), np.array([1.0, 5.0, 2.0, 8.0]),
                              SolverConfig(), stage, np.zeros(4))
            assert trace.iterations > 1
            assert counts == {"armijo": trace.iterations, "products": 0}
            counts["armijo"] = 0
        mixed = [quadratic_objective(np.eye(4), np.zeros(4))] + logistic_losses()[:2]
        trace = one_stage(mixed, np.full(4, 2.0), SolverConfig(), Stage(0.5, 0.1, 20),
                          np.zeros(4))
        assert trace.iterations > 1
        assert counts == {"armijo": trace.iterations, "products": trace.iterations}

    def test_smooth_line_search_equals_the_one_with_zero_curvatures(self):
        """On smooth merits, the zero Hessian stack's curvatures 0, and the
        None that a stage without a quadratic merit passes, send every merit
        to its values, so the step is the reference search's on evaluated
        values: eta, x_next, backtracks and trial values, bit for bit."""
        merits = logistic_losses()
        cfg = SolverConfig()
        points = (np.array([1.0, 5.0, 2.0, 8.0]), np.full(4, 0.3), np.array([-2.0, 1.0, 0.5, 3.0]))
        for x, zeros in itertools.product(points, (True, False)):
            gradients = np.array([m.gradient(x) for m in merits])
            direction = solve_direction(gradients)
            assert direction.t_value < 0.0
            hessians = problems.quadratic_stack(merits, x)[0] if zeros else None
            values = [None] * 3
            eta, x_next, backtracks, trial = armijo_step(
                merits, x, direction.direction, direction.t_value, cfg, values, direction.slopes,
                hessians)
            eta0, x_next0, backtracks0, _ = evaluated_armijo(merits, x, direction, cfg)
            assert (eta, backtracks) == (eta0, backtracks0)
            assert x_next.tobytes() == x_next0.tobytes()
            assert trial == [m.value(x_next0) for m in merits]
            assert values == [m.value(x) for m in merits]


class TestRunSingleStage:
    def test_critical_start_stops_immediately(self):
        mop = random_quadratic_mop(3, 5, 1, seed=7)
        objs = mop.objectives()
        cfg = SolverConfig(tolerance=1e-6)
        trace = one_stage(objs, mop.x_star, cfg, classical(50), 0.0)
        assert trace.termination == "tolerance"
        assert trace.iterations == 0

    def test_fixed_step_mode_is_rejected(self):
        """A stage takes Armijo steps only, so step_mode is a class constant
        for the benchmark tracer, not a keyword."""
        assert SolverConfig().step_mode == "backtracking"
        with pytest.raises(TypeError, match="step_mode"):
            SolverConfig(step_mode="fixed", eta=1.0)

    def test_classical_reduction_matches_reference_steepest_descent(self):
        """alpha=1, beta=0 reproduces a hand-rolled steepest descent trace."""
        mop = random_quadratic_mop(3, 5, 1, seed=9)
        obj = mop.objectives()[0]
        cfg = SolverConfig(sigma=0.1, backtrack=0.5, tolerance=1e-8)
        x0 = np.array([2.0, -1.0, 0.5])
        trace = one_stage([obj], x0, cfg, classical(100), 0.0)

        x = x0.copy()
        reference = [x.copy()]
        for _ in range(100):
            g = obj.gradient(x)
            if np.linalg.norm(g) < cfg.tolerance:
                break
            t = -float(g @ g)
            eta = 1.0
            while obj.value(x - eta * g) > obj.value(x) + cfg.sigma * eta * t:
                eta *= cfg.backtrack
            x = x - eta * g
            reference.append(x.copy())

        mine = [r.x for r in trace.records] + [trace.final_x]
        assert len(mine) == len(reference)
        for a, b in zip(mine, reference):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_classical_two_objective_matches_closed_form_reference(self):
        """m=2 classical trace vs an independent loop using the closed-form dual."""
        mop = random_quadratic_mop(3, 5, 2, seed=23)
        objs = mop.objectives()
        cfg = SolverConfig(sigma=0.1, backtrack=0.5, tolerance=1e-7)
        x0 = np.array([1.5, -0.5, 2.0])
        trace = one_stage(objs, x0, cfg, classical(200), 0.0)

        x = x0.copy()
        reference = [x.copy()]
        for _ in range(200):
            res = segment_min_norm(objs[0].gradient(x), objs[1].gradient(x))
            if res.norm < cfg.tolerance:
                break
            eta = 1.0
            while not all(o.value(x + eta * res.direction)
                          <= o.value(x) + cfg.sigma * eta * res.t_value for o in objs):
                eta *= cfg.backtrack
            x = x + eta * res.direction
            reference.append(x.copy())

        mine = [r.x for r in trace.records] + [trace.final_x]
        assert len(mine) == len(reference)
        for a, b in zip(mine, reference):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_no_descent_direction_ends_as_tolerance(self, monkeypatch):
        """A subproblem result with t >= 0 and ||d|| above the tolerance ends
        the stage as critical (termination tolerance) with the true ||d||."""
        solve = descent.solve_direction

        def no_descent(grads):
            result = solve(grads)
            return dataclasses.replace(result, t_value=0.0)

        monkeypatch.setattr(descent, "solve_direction", no_descent)
        mop = random_quadratic_mop(3, 5, 2, seed=3)
        cfg = SolverConfig(tolerance=1e-6)
        trace = one_stage(mop.objectives(), np.ones(3), cfg, classical(40), 0.0)
        assert trace.termination == "tolerance"
        assert trace.iterations == 0
        grads = [mop.objectives()[j].gradient(np.ones(3)) for j in range(2)]
        assert trace.final_norm_d == solve(grads).norm
        assert trace.final_norm_d > cfg.tolerance

    def test_stage_warnings_reach_the_caller(self, monkeypatch):
        """No warning becomes a trace note: in a fractional stage, a modified
        fractional gradient's RuntimeWarning reaches the caller's filters, as
        a quadratic gradient's does from its one call, at set-up."""
        fractional = descent.modified_fractional_gradient

        def warning_fractional(*args, **out):
            warnings.warn("from the fractional gradient", RuntimeWarning)
            return fractional(*args, **out)

        def warning_gradient(x):
            warnings.warn("from the quadratic gradient", RuntimeWarning)
            return raw.gradient(x)

        monkeypatch.setattr(descent, "modified_fractional_gradient", warning_fractional)
        raw = quadratic_objective(np.eye(4), np.zeros(4))
        quadratic = dataclasses.replace(raw, gradient=warning_gradient, validate=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace = one_stage([quadratic, logistic_losses()[0]], np.full(4, 2.0),
                              SolverConfig(), Stage(0.5, 0.0, 3), 0.0)
        assert trace.iterations == 3
        assert [str(w.message) for w in caught] == (
            ["from the quadratic gradient"] + ["from the fractional gradient"] * 4)
        assert trace.notes == []

    def test_overflowed_gradients_end_the_stage_in_error(self):
        """Gradients whose squared norms overflow end the stage with
        termination error, not as a converged (t >= 0) stage."""
        objectives = [quadratic_objective(np.diag(h), np.zeros(2))
                      for h in ([1e200, 0.0], [0.0, 1e200])]
        with np.errstate(all="ignore"):
            trace = one_stage(objectives, np.ones(2), SolverConfig(), classical(10), 0.0)
        assert trace.termination == "error"
        assert "gradient scale" in trace.error
        assert trace.iterations == 0
        np.testing.assert_array_equal(trace.final_x, np.ones(2))

    def test_direction_error_leaves_no_stale_norm_or_multipliers(self, monkeypatch):
        """A direction error after accepted steps moves final_x to the new
        iterate, so the trace's and the stage report's final ||d|| and the
        final multipliers are None, not those of the previous iterate."""
        calls = []

        def failing_third(grads):
            calls.append(grads)
            result = solve_direction(grads)
            if len(calls) == 3:
                raise DirectionAccuracyError("scaled duality gap")
            return result

        monkeypatch.setattr(descent, "solve_direction", failing_third)
        trace = one_stage(pareto_pair(), np.array([2.0, 2.0]), SolverConfig(),
                          classical(50), 0.0)
        assert (trace.termination, trace.iterations) == ("error", 2)
        assert not np.array_equal(trace.final_x, trace.records[-1].x)
        assert trace.final_norm_d is None and trace.final_multipliers is None
        assert trace.stages[-1].final_norm_d is None

    def test_error_termination_on_bad_model(self):
        """A badly scaled wrong gradient fails the line search; trace says so."""
        bad = quadratic_objective(np.eye(2), np.zeros(2))
        object.__setattr__(bad, "gradient", lambda x: -1e6 * x)  # steep ascent
        object.__setattr__(bad, "hessian", lambda x: -1e6 * np.eye(2))
        cfg = SolverConfig(tolerance=1e-10)
        trace = one_stage([bad], np.array([1.0, 1.0]), cfg,
                          classical(50), 0.0)
        assert trace.termination == "error"
        assert "halvings" in trace.error


    @pytest.mark.parametrize("frac, k_max", [
        (classical(500), 500),
        (Stage(0.5, 0.3, 500), 500),
        (Stage(0.5, 0.3, 7), 7),
    ])
    def test_quadratic_stage_evaluates_each_merit_once(self, monkeypatch, frac, k_max):
        """A quadratic iterate calls no gradient: the set-up reads each
        merit's gradient at 0 once, and, at gamma > 0, `regularized` reads
        each objective's once before it, however many iterates run.  With
        every curvature positive no value is called while the stage runs.
        Objectives behind a counting wrapper give the same records, each
        gradient called once.  Each read of a record's f_values makes one
        value call per objective, since a record caches nothing, and the
        values are those of the stage merit at the record's x, bit for
        bit."""
        gradient_calls = []
        gradient_call = QuadraticGradient.__call__
        monkeypatch.setattr(QuadraticGradient, "__call__",
                            lambda self, x: gradient_calls.append(1) or gradient_call(self, x))
        raw = random_quadratic_mop(5, 8, 2, seed=21).objectives()
        plain = [counting_calls(obj, "value") for obj in raw]
        trace = one_stage([obj for obj, _ in plain], np.full(5, 3.0),
                          SolverConfig(tolerance=1e-8), frac, np.zeros(5))
        assert trace.iterations > 0
        assert len(gradient_calls) == len(raw) * (2 if frac.gamma else 1)
        assert not any(values for _, values in plain)
        stacked_steps = TestStackedProducts.steps(trace)

        counted = []
        for obj in raw:
            obj, values = counting_calls(obj, "value")
            obj, grads = counting_calls(obj, "gradient")
            counted.append((obj, values, grads))
        objectives = [obj for obj, *_ in counted]
        merit, *_ = stage_setup(objectives, frac, np.zeros(5))
        assert all(np.linalg.eigvalsh(m.hessian(np.zeros(5)))[0] > 0.0 for m in merit)
        for _, _, grads in counted:
            grads.clear()
        trace = one_stage(objectives, np.full(5, 3.0),
                          SolverConfig(tolerance=1e-8), frac, np.zeros(5))
        assert trace.termination == ("max_iter" if k_max == 7 else "tolerance")
        assert trace.iterations > 0
        assert TestStackedProducts.steps(trace) == stacked_steps
        for _, values, grads in counted:
            assert len(grads) == 1
            assert not values
        first = [record.f_values for record in trace.records]
        for _, values, _ in counted:
            assert len(values) == trace.iterations
        second = [record.f_values for record in trace.records]
        for _, values, _ in counted:
            assert len(values) == 2 * trace.iterations
        for record, f, again in zip(trace.records, first, second):
            assert again.tobytes() == f.tobytes()
            assert f.tolist() == [m.value(record.x) for m in merit]

    def test_smooth_stage_evaluates_each_value_once_per_iterate(self, monkeypatch):
        """Each smooth merit's value is evaluated once per point, and only
        inside a line search: the first one evaluates it at x0, every one at
        its trial steps, and the next iteration reuses the accepted trial's
        values, which are the records' f values bit for bit."""
        calls, searching_from = [], []  # (j, x, start of the running line search)
        armijo = descent.armijo_step

        def spy_armijo(merit, x, *args):
            searching_from.append(np.array(x))
            try:
                return armijo(merit, x, *args)
            finally:
                searching_from.pop()

        def counted(j, obj):
            def value(x):
                calls.append((j, np.array(x), searching_from[-1] if searching_from else None))
                return obj.value(x)
            return dataclasses.replace(obj, value=value, validate=False)

        monkeypatch.setattr(descent, "armijo_step", spy_armijo)
        raw = logistic_losses()
        objectives = [counted(j, obj) for j, obj in enumerate(raw)]
        trace = one_stage(objectives, np.array([1.0, 5.0, 2.0, 8.0]), SolverConfig(),
                          Stage(0.5, 0.1, 30), np.zeros(4))
        assert trace.iterations > 1
        for j in range(len(objectives)):
            points = [x.tobytes() for i, x, _ in calls if i == j]
            assert len(points) == len(set(points))
            assert all(start is not None for i, _, start in calls if i == j)
            at_starts = [x for i, x, start in calls if i == j and np.array_equal(x, start)]
            np.testing.assert_array_equal(at_starts, [trace.records[0].x])
        for record in trace.records:
            assert record.f_values.tolist() == [float(obj.value(record.x)) for obj in raw]
        trials = [x for _, x, start in calls if not np.array_equal(x, start)]
        assert len(trials) >= trace.iterations


class TestTraceExport:
    def test_csv_columns_and_reproducibility(self, tmp_path):
        mop = random_quadratic_mop(3, 5, 2, seed=3)
        cfg = SolverConfig(tolerance=1e-6)
        trace = one_stage(mop.objectives(), np.ones(3), cfg,
                          classical(40), 0.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        trace.to_csv(p1)
        trace.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0].split(",")
        assert header == ["k", "s", "eta", "t", "norm_d", "f_1", "f_2", "x_1", "x_2", "x_3"]

    def test_trace_without_records_writes_its_header(self, tmp_path):
        """A stage that starts at a critical point writes the header alone,
        given the objective count; without it the trace cannot name its f
        columns."""
        mop = random_quadratic_mop(3, 5, 2, seed=3)
        trace = one_stage(mop.objectives(), np.ones(3), SolverConfig(tolerance=1e3),
                          classical(40), 0.0)
        assert trace.iterations == 0 and trace.termination == "tolerance"
        with pytest.raises(ValueError, match="without records"):
            trace.to_csv(tmp_path / "trace.csv")
        trace.to_csv(tmp_path / "trace.csv", m=2)
        assert (tmp_path / "trace.csv").read_text().splitlines() == [
            "k,s,eta,t,norm_d,f_1,f_2,x_1,x_2,x_3"]

    def test_csv_numbers_are_the_repr_of_each_float(self, tmp_path):
        """f and x columns are repr(float(v)) of each float64 entry: -0.0,
        subnormals and values that need 17 significant digits."""
        x = np.array([-0.0, 5e-324, 2.2250738585072014e-308 / 3, 0.1 + 0.2, 1.0 / 3.0])
        values = [2.0 / 3.0, -1e-310, 1e300 * 3.0 ** 0.5]
        trace = descent.IterationTrace(records=[descent.IterationRecord(
            stage=0, x=x, values=values, t_value=-0.5, norm_d=0.25, eta=1.0, backtracks=0)])
        trace.to_csv(tmp_path / "trace.csv")
        row = (tmp_path / "trace.csv").read_text().splitlines()[1].split(",")
        assert row[5:] == [repr(float(v)) for v in np.array(values)] + [repr(float(v)) for v in x]
        assert row[5:] == ["0.6666666666666666", "-1e-310", "1.7320508075688774e+300",
                           "-0.0", "5e-324", "7.41691286169067e-309", "0.30000000000000004",
                           "0.3333333333333333"]

    def test_monotone_objectives_along_trace(self):
        mop = random_quadratic_mop(4, 6, 2, seed=5)
        cfg = SolverConfig(tolerance=1e-8)
        trace = one_stage(mop.objectives(), np.full(4, 2.0), cfg,
                          classical(200), 0.0)
        f = np.array([r.f_values for r in trace.records])
        assert np.all(np.diff(f, axis=0) <= 1e-12)

    def test_records_and_stage_reports_pickle(self):
        """A slotted IterationRecord and StageReport have no __dict__ and
        survive a pickle round trip field by field; dataclasses.replace
        still works.  The record is pickled with its values and no merit,
        since a merit may hold lambdas."""
        trace = run_adaptive(pareto_pair(), np.array([3.0, 2.0]), SolverConfig(),
                             default_schedule())
        first = trace.records[0]
        record = dataclasses.replace(first, values=first.f_values.tolist(), merit=None)
        assert record.x is first.x and record.t_value == first.t_value
        for item in (record, trace.stages[0]):
            assert not hasattr(item, "__dict__")
            back = pickle.loads(pickle.dumps(item))
            assert type(back) is type(item)
            for f in dataclasses.fields(item):
                got, want = getattr(back, f.name), getattr(item, f.name)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                else:
                    assert got == want
        report = dataclasses.replace(trace.stages[0], termination="max_iter")
        assert report.termination == "max_iter" and report.stage == 0


class TestObjectiveOrder:
    """The abstract's claim that the method needs no ordering information of
    the objectives.  For three or more objectives it holds bit for bit, as
    the direction solve reads its rows by norm; the m = 2 solve holds it to
    rounding, as it meets its two gradients in the order given."""

    @staticmethod
    def stage_ends(trace):
        return [(s.iterations, s.termination) for s in trace.stages]

    @staticmethod
    def run_bytes(trace, order):
        """Each record's x, t, ||d|| and eta, the final x and the final
        multipliers, these in the order of the objectives before order
        permuted them, as bytes."""
        lam = np.empty(len(order))
        lam[list(order)] = trace.final_multipliers
        return (np.array([[*r.x, r.t_value, r.norm_d, r.eta] for r in trace.records]).tobytes()
                + trace.final_x.tobytes() + lam.tobytes())

    def test_every_order_of_the_smooth_losses_runs_alike(self, monkeypatch):
        """From 10 seeded starts on [1.01, 10]^4, all six orders of the three
        logistic losses give one run bit for bit, end every stage alike,
        and run the active-set loop as often."""
        import mofgd.direction as direction

        loops, nnls = [], direction._nnls_weights
        monkeypatch.setattr(direction, "_nnls_weights",
                            lambda gram, scale: loops.append(1) or nnls(gram, scale))
        losses, schedule = logistic_losses(), default_schedule(terminal=np.zeros(4))
        starts = [np.random.default_rng(seed).uniform(1.01, 10.0, size=4) for seed in range(1, 11)]
        runs = {}
        for order in itertools.permutations(range(3)):
            loops.clear()
            traces = [run_adaptive([losses[j] for j in order], x0, SolverConfig(), schedule)
                      for x0 in starts]
            assert all(trace.iterations > 0 for trace in traces)
            runs[order] = ([self.stage_ends(trace) for trace in traces],
                           [self.run_bytes(trace, order) for trace in traces], len(loops))
        reference = runs[(0, 1, 2)]
        assert reference[2] > 0
        assert all(run == reference for run in runs.values())

    def test_reversed_pair_runs_alike(self):
        """The reversed pareto pair from (3, 2) takes the same 7 iterations
        over the same stages, ends within 1e-15 (5.6e-17 measured), and
        reaches the same weights in reverse order."""
        x0, schedule = np.array([3.0, 2.0]), default_schedule()
        forward = run_adaptive(pareto_pair(), x0, SolverConfig(), schedule)
        reverse = run_adaptive(pareto_pair()[::-1], x0, SolverConfig(), schedule)
        assert forward.iterations == 7
        assert self.stage_ends(reverse) == self.stage_ends(forward)
        assert np.abs(reverse.final_x - forward.final_x).max() <= 1e-15
        np.testing.assert_allclose(reverse.final_multipliers[::-1], forward.final_multipliers,
                                   rtol=0.0, atol=1e-12)


def overflowing_pair():
    """f_1 = exp(x_1^2) + x_2^2, whose gradient overflows at x_1 = 30, and
    f_2 = ||x||^2."""
    def value(x):
        x = np.asarray(x, dtype=float)
        return np.exp(x[..., 0] ** 2) + x[..., 1] ** 2

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return np.stack([2.0 * x[..., 0] * np.exp(x[..., 0] ** 2), 2.0 * x[..., 1]], axis=-1)

    return [ObjectiveModel(value, gradient, kind="smooth", dim=2),
            quadratic_objective(2.0 * np.eye(2), np.zeros(2))]


class TestNonFiniteGradient:
    """A gradient that overflows ends its stage in error, with the message
    of the solve that refused it, as a failed solve does."""

    @pytest.mark.parametrize("stage", [classical(5), Stage(0.5, 0.1, 5)],
                             ids=["classical", "fractional"])
    def test_overflowing_gradient_ends_the_stage_in_error(self, stage):
        x0 = np.array([30.0, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            trace = one_stage(overflowing_pair(), x0, SolverConfig(), stage, np.zeros(2))
        assert (trace.termination, trace.error) == ("error", "gradients must be finite")
        assert trace.final_norm_d is None and trace.final_multipliers is None
        assert trace.records == [] and trace.final_x.tolist() == x0.tolist()
        assert [(s.iterations, s.termination, s.final_norm_d)
                for s in trace.stages] == [(0, "error", None)]


class TestRunAdaptive:
    @pytest.mark.parametrize("x0", [
        np.ones(3), np.ones((1, 2)), np.array([1.0, math.nan]), np.array([math.inf, 1.0]),
    ], ids=["length_3", "matrix", "nan", "inf"])
    def test_x0_refused_before_any_stage(self, x0, monkeypatch):
        """An x0 that is not a finite vector of the objectives' dim is
        refused by name before any stage runs, with or without a set-up
        built beforehand."""
        stages = []
        monkeypatch.setattr(descent, "run_single_stage", lambda *args: stages.append(args))
        objectives, schedule = pareto_pair(), default_schedule()
        for setup in (None, descent.schedule_setup(objectives, schedule, 2)):
            with pytest.raises(ValueError, match="x0 must be a finite vector of dim 2"):
                run_adaptive(objectives, x0, SolverConfig(), schedule, setup)
        assert stages == []

    @pytest.mark.parametrize("stage", [classical(5), Stage(0.5, 0.1, 5)])
    @pytest.mark.parametrize("terminal, match", [
        (math.nan, "terminal must be finite"),
        (np.zeros(3), "terminal has length 3, but x has length 2"),
    ], ids=["nan", "length_3"])
    def test_one_stage_run_refuses_a_bad_terminal(self, stage, terminal, match):
        """A one-stage run checks its terminal as every schedule does, also
        in a classical stage, which reads no terminal."""
        with pytest.raises(ValueError, match=match):
            one_stage(pareto_pair(), np.ones(2), SolverConfig(), stage, terminal)

    def test_iterates_are_not_shared(self):
        """Records and final_x hold the iterates without copies, so no two of
        them, and none of them and x0, may share memory: writing into x0 or
        into any record's x changes no other record, final_x or a later
        stage's start."""
        x0 = np.full(3, 2.0)
        sched = StageSchedule.from_gammas([0.5, 0.7, 0.9], [0.1, 0.01, 0.0], [4, 4, 40],
                                          terminal=np.zeros(3))
        trace = run_adaptive(random_quadratic_mop(3, 5, 2, seed=3).objectives(), x0,
                             SolverConfig(tolerance=1e-6), sched)
        assert len({r.stage for r in trace.records}) == 3
        arrays = [x0] + [r.x for r in trace.records] + [trace.final_x]
        before = [a.copy() for a in arrays]
        for i, written in enumerate(arrays[:-1]):
            written += 1.0
            for j, other in enumerate(arrays):
                if j != i:
                    np.testing.assert_array_equal(other, before[j])
            written[:] = before[i]

    def test_example2_staged_value(self):
        """Three alpha stages on the second quadratic reach the -2.33 optimum."""
        objs = fixture_objectives("example2")
        cfg = SolverConfig(tolerance=1e-8, max_iterations=2000)
        trace = run_adaptive(objs, np.array([1.0, 1.0]), cfg, default_schedule())
        value = objs[0].value(trace.final_x)
        assert value == pytest.approx(-7.0 / 3.0, abs=1e-6)
        np.testing.assert_allclose(trace.final_x, [4.0 / 3.0, -1.0 / 6.0], atol=1e-4)

    def test_example3_staged_run_notes_classical_partials(self):
        """Example 3 from (3, 3): its iterates cross the zero terminal, where
        the kinked objective's coordinates take the classical partial, as a
        kink-free objective's do; each is noted, and every stage ends at its
        tolerance."""
        trace = run_adaptive([example3_objective()], np.array([3.0, 3.0]),
                             SolverConfig(tolerance=1e-6, max_iterations=2000),
                             default_schedule())
        assert [(s.iterations, s.termination) for s in trace.stages] == [
            (2, "tolerance"), (1, "tolerance"), (0, "tolerance")]
        assert len(trace.notes) == 3
        assert all(note.startswith("degenerate coordinate: x = ")
                   and note.endswith("<= terminal 0.0; classical partial derivative taken")
                   for note in trace.notes)

    def test_example3_from_its_minimizer_does_not_end_in_error(self):
        trace = run_adaptive([example3_objective()], np.zeros(2),
                             SolverConfig(tolerance=1e-6, max_iterations=2000),
                             default_schedule())
        assert trace.termination != "error", trace.error

    def test_gamma_tail_to_zero_reaches_unregularized_solution(self):
        """Shrinking regularizers drive the iterate to the ground truth."""
        mop = random_quadratic_mop(5, 8, 2, seed=77)
        sched = StageSchedule.from_gammas(
            [0.5, 0.5, 0.5, 0.5], [0.5, 0.1, 0.01, 0.0], [150, 150, 150, 300],
            terminal=np.zeros(5))
        cfg = SolverConfig(tolerance=1e-10, max_iterations=1000)
        trace = run_adaptive(mop.objectives(), np.full(5, 2.0), cfg, sched)
        # gamma -> 0: the fixed point is the least-squares truth
        assert np.linalg.norm(trace.final_x - mop.x_star) <= 1e-4

    def test_no_descent_direction_is_critical_not_error(self):
        """At tolerance 1e-10, near the subproblem's precision, the last stage
        does not end in error and reports the true ||d||, no larger than the
        4.72e-9 the projected-gradient solver stopped at."""
        mop = random_quadratic_mop(5, 8, 2, seed=6)
        sched = StageSchedule.from_gammas(
            [0.5, 0.5, 0.5, 0.5], [0.5, 0.1, 0.01, 0.0], [150, 150, 150, 300],
            terminal=np.zeros(5))
        cfg = SolverConfig(tolerance=1e-10, max_iterations=1000)
        trace = run_adaptive(mop.objectives(), np.full(5, 2.0), cfg, sched)
        assert trace.termination != "error", trace.error
        grads = [mop.objectives()[j].gradient(trace.final_x) for j in range(2)]
        assert trace.final_norm_d == solve_direction(grads).norm
        assert trace.final_norm_d <= 4.72e-9

    def test_smooth_losses_at_tight_tolerance_do_not_error(self):
        """Three logistic losses in n=4 at tolerance 1e-8 end without error."""
        objectives = logistic_losses()
        x0 = np.random.default_rng(0).uniform(1.01, 10.0, 4)
        trace = run_adaptive(objectives, x0, SolverConfig(tolerance=1e-8),
                             default_schedule(terminal=np.zeros(4)))
        assert trace.termination != "error", trace.error

    @pytest.mark.parametrize("n", [3, 4])
    def test_default_schedule_runs_at_any_n(self, n):
        """default_schedule() leaves the terminal to run_adaptive, which
        takes zeros(n): the run is the one with an explicit zeros(n)."""
        objectives = (random_quadratic_mop(3, 5, 2, seed=3).objectives() if n == 3
                      else logistic_losses())
        x0 = np.full(n, 2.0)
        trace = run_adaptive(objectives, x0, SolverConfig(), default_schedule())
        want = run_adaptive(objectives, x0, SolverConfig(),
                            default_schedule(terminal=np.zeros(n)))
        assert trace.termination != "error", trace.error
        assert trace.iterations > 0
        assert [r.x.tolist() for r in trace.records] == [r.x.tolist() for r in want.records]
        np.testing.assert_array_equal(trace.final_x, want.final_x)

    def test_stage_boundaries_recorded(self):
        objs = fixture_objectives("example2")
        cfg = SolverConfig(tolerance=1e-12)
        trace = run_adaptive(objs, np.array([1.0, 1.0]), cfg, default_schedule())
        stages = {r.stage for r in trace.records}
        assert stages == {0, 1, 2}
        assert trace.records[0].stage == 0

    def test_backtracking_staged_on_mop_with_live_multipliers(self):
        """Benchmark mode: live multipliers, Armijo, regularized merits."""
        mop = random_quadratic_mop(6, 9, 2, seed=15)
        sched = StageSchedule.from_gammas([0.5, 0.7, 0.9], [0.1, 0.01, 0.0],
                                          [80, 80, 200], terminal=np.zeros(6))
        cfg = SolverConfig(tolerance=1e-7, max_iterations=1000)
        trace = run_adaptive(mop.objectives(), np.full(6, 4.0), cfg, sched)
        assert trace.termination != "error"
        grads = np.array([mop.objectives()[j].gradient(trace.final_x) for j in range(2)])
        assert solve_direction(grads).norm < 1e-4

    def test_stages_stop_below_the_drift_to_the_next_stage(self):
        """On example2_pair grid starts, each stage s but the last stops at
        the first iterate with ||d|| < max(eps, (gamma_s - gamma_{s+1}) ||d_0||),
        or at its budget; the last stops at eps, and the stage reports add
        up to the run."""
        spec, solver, schedule = parse_config(REPO / "configs" / "example2_pair.yaml")
        objectives, gammas = spec.objectives(), schedule.gammas
        loosened = 0
        for x0 in spec.starts()[::20]:
            trace = run_adaptive(objectives, x0, solver, schedule)
            assert [s.stage for s in trace.stages] == [0, 1, 2]
            assert sum(s.iterations for s in trace.stages) == trace.iterations
            for s in trace.stages[:-1]:
                records = [r for r in trace.records if r.stage == s.stage]
                assert len(records) == s.iterations
                drop = gammas[s.stage] - gammas[s.stage + 1]
                assert s.tolerance == max(solver.tolerance, drop * records[0].norm_d)
                assert all(r.norm_d >= s.tolerance for r in records)
                assert ((s.termination == "tolerance" and s.final_norm_d < s.tolerance)
                        or (s.termination == "max_iter"
                            and s.iterations == schedule.stages[s.stage].iterations))
                loosened += s.tolerance > solver.tolerance
            last = trace.stages[-1]
            assert last.tolerance == solver.tolerance
            assert (last.termination, last.final_norm_d) == (trace.termination,
                                                             trace.final_norm_d)
        assert loosened > 0

    @pytest.mark.parametrize("gammas", [(0.0, 0.01, 0.1), (0.05, 0.05, 0.05)])
    def test_schedule_whose_gamma_does_not_fall_stops_every_stage_at_tolerance(self, gammas):
        """Without a fall in gamma, every stage's set-up has gamma_drop 0,
        and run_adaptive is the chain of stages, each run on its set-up
        with gamma_drop 0, at cfg.tolerance, bit for bit."""
        objectives = random_quadratic_mop(4, 6, 2, seed=5).objectives()
        c, x0 = np.zeros(4), np.full(4, 2.0)
        schedule = StageSchedule.from_gammas([0.5, 0.7, 0.9], gammas, [30, 30, 60],
                                             terminal=c)
        cfg = SolverConfig(tolerance=1e-6)
        trace = run_adaptive(objectives, x0, cfg, schedule)
        reference, x = descent.IterationTrace(), x0
        setups = descent.schedule_setup(objectives, schedule, 4)
        assert [setup[4] for setup in setups] == [0.0] * 3
        for s, stage in enumerate(schedule.stages):
            x = descent.run_single_stage(x, cfg, stage, s, reference,
                                         (*setups[s][:4], 0.0)).final_x
        assert [s.tolerance for s in trace.stages] == [cfg.tolerance] * 3
        assert trace.stages == reference.stages
        assert len(trace.records) == len(reference.records)
        for got, want in zip(trace.records, reference.records):
            np.testing.assert_array_equal(got.x, want.x)
            assert (got.norm_d, got.t_value, got.eta) == (want.norm_d, want.t_value, want.eta)
        np.testing.assert_array_equal(trace.final_x, reference.final_x)


class TestStageMerit:
    """The stage direction is the gradient of the merit the line search tests."""

    @staticmethod
    def spy(monkeypatch):
        """Record (merit, x, stage gradients) for every Armijo line search."""
        seen, checks = {}, []
        solve, armijo = descent.solve_direction, descent.armijo_step

        def spy_solve(grads):
            seen["grads"] = np.array(grads, dtype=float)
            return solve(grads)

        def spy_armijo(merit, x, d, t, cfg, values, slopes, hessians):
            # The stage hands over its quadratic merits' Hessians, stacked once.
            np.testing.assert_array_equal(hessians, [m.hessian(x) for m in merit])
            result = armijo(merit, x, d, t, cfg, values, slopes, hessians)
            checks.append((list(merit), np.array(x), seen["grads"], result[2]))
            return result

        monkeypatch.setattr(descent, "solve_direction", spy_solve)
        monkeypatch.setattr(descent, "armijo_step", spy_armijo)
        return checks

    @pytest.mark.parametrize("problem", ["example1", "example2", "example2_pair", "mop"])
    def test_stage_gradients_are_merit_gradients(self, problem, monkeypatch):
        if problem == "mop":
            objectives = random_quadratic_mop(4, 6, 2, seed=11).objectives()
        else:
            objectives = fixture_objectives(problem)
        n = objectives[0].dim
        checks = self.spy(monkeypatch)
        schedule = default_schedule(terminal=np.zeros(n), iterations=(1, 1, 1))
        rng = np.random.default_rng(2024)
        for _ in range(20):
            run_adaptive(objectives, rng.uniform(-3.0, 3.0, n), SolverConfig(tolerance=1e-12),
                         schedule)
        assert len(checks) == 20 * len(schedule.stages)
        h = 1e-5
        for merit, x, grads, _ in checks:
            fd = np.array([[(m.value(x + h * e) - m.value(x - h * e)) / (2 * h)
                            for e in np.eye(n)] for m in merit])
            np.testing.assert_allclose(grads, fd, rtol=1e-6, atol=1e-6)

    def test_stage_merit_takes_the_configured_gamma(self):
        """An alpha = 0.5, gamma = 0.1 stage on example2_pair takes the
        iterates, bit for bit, of classical descent on the objectives
        regularized with gamma = 0.1 itself: the merit's gamma is not
        recovered from beta."""
        objectives, c, x0 = pareto_pair(), np.zeros(2), np.array([2.0, 3.0])
        cfg = SolverConfig(tolerance=1e-10)
        staged = one_stage(objectives, x0, cfg, Stage(0.5, 0.1, 200), c)
        merits = [regularized(obj, 0.1, c) for obj in objectives]
        reference = one_stage(merits, x0, cfg, Stage(1.0, 0.0, 200), c)
        assert staged.termination == reference.termination == "tolerance"
        assert staged.iterations == reference.iterations > 1
        for got, want in zip(staged.records, reference.records):
            np.testing.assert_array_equal(got.x, want.x)
        np.testing.assert_array_equal(staged.final_x, reference.final_x)

    def test_shipped_pair_sweep_backtracks_and_terminations(self, monkeypatch):
        """The 100-start example2_pair.yaml sweep: median backtracks <= 5 and
        every run ends with tolerance."""
        spec, solver, schedule = parse_config(REPO / "configs" / "example2_pair.yaml")
        checks = self.spy(monkeypatch)
        objectives = spec.objectives()
        terminations = [run_adaptive(objectives, x0, solver, schedule).termination
                        for x0 in spec.starts()]
        assert terminations == ["tolerance"] * 100
        assert np.median([backtracks for *_, backtracks in checks]) <= 5


class TestMeritSlope:
    """The Armijo test takes its slope from the merit it tests, for every kind."""

    @staticmethod
    def spy(monkeypatch):
        """Record (merit, x, direction and slope passed to Armijo, subproblem
        t) for every line search."""
        checks, solved = [], {}
        solve, armijo = descent.solve_direction, descent.armijo_step

        def spy_solve(grads):
            result = solve(grads)
            solved["t"] = result.t_value
            return result

        def spy_armijo(merit, x, d, t, cfg, values, slopes, hessians):
            checks.append((list(merit), np.array(x), d, t, solved["t"]))
            return armijo(merit, x, d, t, cfg, values, slopes, hessians)

        monkeypatch.setattr(descent, "solve_direction", spy_solve)
        monkeypatch.setattr(descent, "armijo_step", spy_armijo)
        return checks

    @pytest.mark.parametrize("kind", ["quadratic", "smooth", "piecewise"])
    def test_slope_is_central_difference_of_the_merit(self, kind, monkeypatch):
        if kind == "quadratic":
            objectives, starts = pareto_pair(), [np.array([2.0, 3.0]), np.array([-1.0, 4.0])]
        elif kind == "smooth":
            objectives, starts = logistic_losses(), [np.full(4, 3.0), np.array([1.0, 5.0, 2.0, 8.0])]
        else:
            objectives = fixture_objectives("example3_nonsmooth")
            starts = [np.array([3.0, 2.0]), np.array([2.5, 3.5])]
        checks = self.spy(monkeypatch)
        schedule = default_schedule(terminal=np.full(objectives[0].dim, -1.0),
                                    iterations=(3, 3, 3))
        for x0 in starts:
            run_adaptive(objectives, x0, SolverConfig(tolerance=1e-12), schedule)
        h = 1e-6
        compared = 0
        for merit, x, d, slope, t in checks:
            if kind == "quadratic":
                assert slope == t  # bit for bit
            ahead = [(m.value(x + h * d) - m.value(x)) / h for m in merit]
            behind = [(m.value(x) - m.value(x - h * d)) / h for m in merit]
            if not np.allclose(ahead, behind, rtol=1e-3, atol=1e-3):
                continue  # the stencil straddles a kink
            fd = max((a + b) / 2 for a, b in zip(ahead, behind))
            assert slope == pytest.approx(fd, rel=1e-5, abs=1e-8)
            compared += 1
        assert compared >= len(checks) // 2 > 0

    @pytest.mark.parametrize("kind", ["quadratic", "classical_smooth", "fractional_smooth",
                                      "mixed"])
    def test_slope_is_the_max_of_the_slopes(self, kind, monkeypatch):
        """Every line search tests the slope max_j s_j of the slopes it is
        handed, bit for bit, one per merit.  Where the direction inputs are
        the merit gradients, in an all-quadratic and in a classical stage,
        those are the subproblem's own slopes and t."""
        searched, solved = [], {}
        solve, armijo = descent.solve_direction, descent.armijo_step

        def spy_solve(grads):
            solved["result"] = solve(grads)
            return solved["result"]

        def spy_armijo(merit, x, d, t, cfg, values, slopes, hessians):
            searched.append((len(merit), t, slopes, solved["result"]))
            return armijo(merit, x, d, t, cfg, values, slopes, hessians)

        monkeypatch.setattr(descent, "solve_direction", spy_solve)
        monkeypatch.setattr(descent, "armijo_step", spy_armijo)
        x0, stage = np.full(4, 2.0), Stage(0.5, 0.1, 30)
        if kind == "quadratic":
            objectives = random_quadratic_mop(4, 6, 3, seed=8).objectives()
        elif kind == "classical_smooth":
            objectives, stage = logistic_losses(), classical(30)
        elif kind == "fractional_smooth":
            objectives = logistic_losses()
        else:
            objectives = [quadratic_objective(np.eye(4), np.zeros(4))] + logistic_losses()[:2]
        trace = one_stage(objectives, x0, SolverConfig(), stage, np.zeros(4))
        assert trace.termination != "error"
        assert len(searched) == trace.iterations > 1
        for m, t, slopes, result in searched:
            assert len(slopes) == m
            assert np.float64(t).tobytes() == np.float64(max(slopes)).tobytes()
            if kind in ("quadratic", "classical_smooth"):
                assert slopes is result.slopes and t == result.t_value

    def test_logistic_stage_outcomes(self):
        """Each stage's (iterations, termination) of the logistic run from
        three fixed starts, one of them below the terminal: a change to the
        smooth path that moves them shows here."""
        want = {
            (3.0, 3.0, 3.0, 3.0): [(14, "tolerance"), (29, "tolerance"), (6, "model_mismatch")],
            (1.0, 5.0, 2.0, 8.0): [(17, "tolerance"), (31, "tolerance"), (5, "model_mismatch")],
            (-2.0, 0.5, 3.0, -1.0): [(10, "tolerance"), (19, "tolerance"),
                                     (5, "model_mismatch")],
        }
        for x0, stages in want.items():
            trace = run_adaptive(logistic_losses(), np.array(x0), SolverConfig(),
                                 default_schedule(terminal=np.zeros(4)))
            assert [(s.iterations, s.termination) for s in trace.stages] == stages

    def test_logistic_losses_take_few_backtracks(self):
        """Median backtracks <= 5, every f_j non-increasing, no error."""
        objectives = logistic_losses()
        for seed in range(3):
            x0 = np.random.default_rng(seed).uniform(1.01, 10.0, 4)
            trace = run_adaptive(objectives, x0, SolverConfig(),
                                 default_schedule(terminal=np.zeros(4)))
            assert trace.termination != "error", trace.error
            assert np.median([r.backtracks for r in trace.records]) <= 5
            f = np.array([r.f_values for r in trace.records])
            assert np.all(np.diff(f, axis=0) <= 0.0)

    @pytest.mark.parametrize("terminal", [(-1.0, -1.0), (-0.5, 0.7), (-2.0, -3.0)])
    def test_example3_beats_subgradient_from_off_minimizer_terminals(self, terminal):
        from mofgd import subgradient_baseline
        obj = fixture_objectives("example3_nonsmooth")[0]
        x0 = np.array([3.0, 3.0])
        trace = run_adaptive([obj], x0, SolverConfig(tolerance=1e-6, max_iterations=2000),
                             default_schedule(terminal=np.array(terminal)))
        xs = [r.x for r in trace.records] + [trace.final_x]
        frac_hit = next(k for k, x in enumerate(xs) if obj.value(x) <= 1e-3)
        sub_hit = subgradient_baseline(obj, x0, steps=2000)
        assert sub_hit is not None
        assert frac_hit < sub_hit

    def test_uphill_merit_slope_ends_as_model_mismatch(self, monkeypatch):
        """A direction input pointing uphill gives t < 0 but a positive merit
        slope: the stage ends with model_mismatch and notes the mismatch."""
        def uphill(f, stack, beta, *, gradient_out):
            gradient_out[...] = f.gradient(stack.z[0])
            return -gradient_out

        monkeypatch.setattr(descent, "modified_fractional_gradient", uphill)
        objectives = logistic_losses()
        trace = one_stage(objectives, np.full(4, 2.0), SolverConfig(),
                          Stage(0.5, 0.0, 10), np.zeros(4))
        assert trace.termination == "model_mismatch"
        assert trace.iterations == 0
        assert any(n.startswith("model_mismatch") and "||g - grad merit||" in n
                   for n in trace.notes)


class TestActivePieceRows:
    """A piecewise merit's other pieces within ACTIVE_TOLERANCE of its max
    enter the direction subproblem as rows of their own.  With the largest
    piece alone, each run below ended in error at its minimizer, its line
    search failing after 60 halvings; with the rows it stops there at the
    tolerance."""

    @staticmethod
    def assert_stops_at_minimizer(trace, objectives, f_bound):
        assert trace.termination == "tolerance", trace.error
        assert [s.termination for s in trace.stages] == ["tolerance"] * len(trace.stages)
        assert all(obj.value(trace.final_x) <= f_bound for obj in objectives)
        # The extra rows' multipliers are folded into their merits'.
        lam = trace.final_multipliers
        assert lam.shape == (len(objectives),) and lam.min() >= 0.0
        assert abs(lam.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("terminal", [0.0, -1.0])
    @pytest.mark.parametrize("x0", [(3.0, 2.0), (2.5, -1.3)])
    def test_default_schedule_on_l1_stops_at_its_minimizer(self, terminal, x0):
        obj = l1_norm()
        trace = run_adaptive([obj], np.array(x0), SolverConfig(),
                             default_schedule(terminal=terminal))
        self.assert_stops_at_minimizer(trace, [obj], 1e-6)

    def test_mogd_baseline_on_l1_stops_at_its_minimizer(self):
        obj = l1_norm()
        trace = mogd_baseline([obj], np.array([2.5, -1.3]), SolverConfig())
        self.assert_stops_at_minimizer(trace, [obj], 1e-6)

    @pytest.mark.parametrize("terminal,last_alpha", [
        (-1.0, 0.6), (-1.0, 0.9), ((-0.5, 0.7), 0.6), ((-2.0, -3.0), 0.6)])
    def test_example3_below_its_kink_stops_at_its_minimizer(self, terminal, last_alpha):
        obj = example3_objective()
        schedule = StageSchedule.from_gammas((0.5, last_alpha), (0.1, 0.0), (20, 20),
                                             terminal=terminal)
        trace = run_adaptive([obj], np.array([3.0, 2.0]), SolverConfig(), schedule)
        self.assert_stops_at_minimizer(trace, [obj], 1e-12)

    def test_rows_join_the_subproblem_and_the_line_search_slope(self, monkeypatch):
        """mogd on |x| and |x - (1, 0.5)|, whose Pareto set is the box the
        two centres span: some subproblems see more rows than the m = 2
        objectives, each line search's t is the max of all the rows'
        slopes, and the run ends on the box with m multipliers."""
        solve, armijo, solved = descent.solve_direction, descent.armijo_step, []

        def spy_solve(grads):
            solved.append(solve(grads))
            return solved[-1]

        def spy_armijo(merit, x, d, t, cfg, values, slopes, hessians):
            assert t == solved[-1].t_value == max(solved[-1].slopes)
            return armijo(merit, x, d, t, cfg, values, slopes, hessians)

        monkeypatch.setattr(descent, "solve_direction", spy_solve)
        monkeypatch.setattr(descent, "armijo_step", spy_armijo)
        objectives = [l1_norm(), l1_norm((1.0, 0.5))]
        trace = mogd_baseline(objectives, np.array([-1.0, 2.0]), SolverConfig(tolerance=1e-5))
        assert max(len(r.slopes) for r in solved) > 2
        assert trace.termination == "tolerance"
        np.testing.assert_allclose(sum(obj.value(trace.final_x) for obj in objectives), 1.5)
        lam = trace.final_multipliers
        assert lam.shape == (2,) and abs(lam.sum() - 1.0) <= 1e-12


def record_bits(trace):
    """Every float of a trace's records and final point, as bytes, with the
    terminations: equal only for bit-identical runs."""
    floats = [np.concatenate([r.x, r.f_values, [r.t_value, r.norm_d, r.eta]])
              for r in trace.records]
    return (np.concatenate(floats + [trace.final_x]).tobytes(),
            [r.backtracks for r in trace.records], trace.stages)


class TestSharedNodeStack:
    """The stage builds one quadrature node stack per iterate for each
    distinct kink locator, None for the kink-free objectives, and hands it
    to every fractional gradient with that locator."""

    @staticmethod
    def own_stacks(monkeypatch, terminal, notes):
        """Make every fractional gradient drop the stack that the stage hands
        it and reduce one built for it alone, whose notes go to notes."""
        def own(f, stack, beta, **out):
            stack = node_stack(stack.z[0], stack.alpha, terminal, f.kink_locator)
            notes.extend(stack.notes)
            return modified_fractional_gradient(f, stack, beta, **out)

        monkeypatch.setattr(descent, "modified_fractional_gradient", own)

    @staticmethod
    def spy(monkeypatch):
        """Record the locator of every node_stack call and every stack that
        a fractional gradient is handed."""
        built, handed = [], []

        def counted(x, alpha, terminal, locator=None):
            built.append(locator)
            return node_stack(x, alpha, terminal, locator)

        def reduced(f, stack, beta, **out):
            handed.append(stack)
            return modified_fractional_gradient(f, stack, beta, **out)

        monkeypatch.setattr(descent, "node_stack", counted)
        monkeypatch.setattr(descent, "modified_fractional_gradient", reduced)
        return built, handed

    @staticmethod
    def scaled_example3(scale, locator):
        """scale times example 3, max(5 x1 + x2, x1^2 + x2^2), whose kinks
        locator finds."""
        return PiecewiseMaxObjective(
            [(lambda x: scale * (5.0 * x[..., 0] + x[..., 1]),
              lambda x: np.broadcast_to([5.0 * scale, scale], np.shape(x))),
             (lambda x: scale * (x[..., 0] ** 2 + x[..., 1] ** 2),
              lambda x: 2.0 * scale * np.asarray(x, dtype=float))],
            dim=2, kink_locator=locator)

    @staticmethod
    def smooth_pair():
        return [ObjectiveModel(lambda x, a=a: np.cosh(x - a).sum(axis=-1),
                               lambda x, a=a: np.sinh(x - a),
                               lambda x, a=a: np.cosh(x - a)[..., None] * np.eye(2),
                               kind="smooth", dim=2)
                for a in ([0.0, 1.0], [1.0, 0.0])]

    def test_records_match_per_objective_stacks_with_one_note_per_coordinate(self,
                                                                            monkeypatch):
        """m = 3 logistic losses with coordinate 4 below its terminal: the
        shared stack gives the records of per-objective stacks bit for bit,
        and one note per iterate instead of one per objective."""
        args = (np.full(4, 2.0), SolverConfig(), Stage(0.5, 0.2, 15),
                np.array([-5.0, -5.0, -5.0, 5.0]))
        shared = one_stage(logistic_losses(), *args)
        own_notes = []
        self.own_stacks(monkeypatch, args[3], own_notes)
        own = one_stage(logistic_losses(), *args)
        assert shared.iterations > 0
        assert record_bits(shared) == record_bits(own)
        iterates = [r.x for r in shared.records] + [shared.final_x]
        degenerate = [note for note in shared.notes if note.startswith("degenerate")]
        assert len(degenerate) == len(iterates)
        for note, x in zip(degenerate, iterates):
            assert note == (f"degenerate coordinate: x = {x[3]} <= terminal 5.0; "
                            "classical partial derivative taken")
        assert own.notes == shared.notes
        assert own_notes == [note for note in degenerate for _ in range(3)]

    def test_kinked_objective_builds_its_own_stack(self, monkeypatch):
        """Next to two smooth objectives, which share one stack per iterate,
        an objective with a kink locator is handed a stack of its own."""
        objectives = [example3_objective()] + self.smooth_pair()
        args = (np.array([2.0, 1.5]), SolverConfig(), Stage(0.6, 0.1, 8), np.full(2, -1.0))
        _, handed = self.spy(monkeypatch)
        shared = one_stage(objectives, *args)
        assert shared.iterations > 0
        assert len(handed) == 3 * (shared.iterations + 1)
        for kinked, first, second in zip(*[iter(handed)] * 3):
            assert isinstance(kinked, NodeStack) and kinked is not first
            assert isinstance(first, NodeStack) and second is first
            assert not first.z.flags.writeable and not kinked.z.flags.writeable
        self.own_stacks(monkeypatch, args[3], [])
        assert record_bits(one_stage(objectives, *args)) == record_bits(shared)

    def test_objectives_that_share_a_locator_share_one_stack(self, monkeypatch):
        """Example 3 and twice example 3 have one kink locator: each iterate
        builds one stack for both and one for the two smooth objectives, in
        the order of first use, and notes the coordinate below its terminal
        once per stack."""
        example3 = example3_objective()
        twice = self.scaled_example3(2.0, example3.kink_locator)
        smooth = self.smooth_pair()
        objectives = [example3, smooth[0], twice, smooth[1]]
        built, handed = self.spy(monkeypatch)
        trace = one_stage(objectives, np.array([2.0, 1.5]), SolverConfig(),
                          Stage(0.6, 0.1, 8), np.array([-1.0, 5.0]))
        assert trace.iterations > 0 and trace.termination != "error"
        iterates = trace.iterations + 1
        assert built == [example3.kink_locator, None] * iterates
        assert len(handed) == 4 * iterates
        for kinked, first, kinked_again, second in zip(*[iter(handed)] * 4):
            assert kinked_again is kinked and second is first and kinked is not first
        degenerate = [note for note in trace.notes if note.startswith("degenerate")]
        assert len(degenerate) == 2 * iterates

    def test_distinct_locators_build_one_stack_each(self, monkeypatch):
        """Example 3 and twice example 3 with two distinct, if equivalent,
        kink locators: each iterate builds one stack for each."""
        example3 = example3_objective()
        copy = self.scaled_example3(2.0, lambda *args: example3.kink_locator(*args))
        built, handed = self.spy(monkeypatch)
        trace = one_stage([example3, copy], np.array([2.0, 1.5]), SolverConfig(),
                          Stage(0.6, 0.1, 8), np.full(2, -1.0))
        assert trace.iterations > 0
        assert built == [example3.kink_locator, copy.kink_locator] * (trace.iterations + 1)
        assert all(a is not b for a, b in zip(handed[::2], handed[1::2]))


class TestSmoothStageCalls:
    """Each iterate of a smooth stage answers a kink-free objective with one
    stacked gradient call and reads no Hessian, and the merit gradient that
    the Armijo slope reads is row 0 of that gradient call, x itself."""

    @staticmethod
    def recorded(obj, calls):
        """obj with gradient and Hessian appending (name, argument, result) to calls."""
        def wrap(name, fn):
            def inner(x):
                result = fn(x)
                calls.append((name, np.array(x), np.array(result)))
                return result
            return inner

        return dataclasses.replace(obj, gradient=wrap("gradient", obj.gradient),
                                   hessian=wrap("hessian", obj.hessian), validate=False)

    def test_one_stacked_call_each_per_iterate_and_row_zero_for_the_slope(self, monkeypatch):
        calls = [[] for _ in range(3)]
        objectives = [self.recorded(obj, c) for obj, c in zip(logistic_losses(), calls)]
        searched = []
        armijo = descent.armijo_step

        def spy_armijo(merit, x, d, t, cfg, values, slopes, hessians):
            searched.append((d, t, slopes))
            return armijo(merit, x, d, t, cfg, values, slopes, hessians)

        monkeypatch.setattr(descent, "armijo_step", spy_armijo)
        trace = one_stage(objectives, np.array([1.0, 5.0, 2.0, 8.0]), SolverConfig(),
                          Stage(0.5, 0.1, 20), np.zeros(4))
        assert trace.iterations > 1 and len(searched) == trace.iterations
        iterates = [r.x for r in trace.records] + [trace.final_x]
        for obj_calls in calls:
            assert [(name, z.ndim) for name, z, _ in obj_calls] == [("gradient", 2)] * len(iterates)
            for (_, z, _), x in zip(obj_calls, iterates):
                assert z[0].tobytes() == x.tobytes()
        # The slopes are the rows of one product of the row-0 gradients with d.
        for k, (d, t, slopes) in enumerate(searched):
            assert slopes == solve_slopes([obj_calls[k][2][0] for obj_calls in calls], d)
            assert t == max(slopes)

    def test_objective_without_hessian_runs_a_fractional_stage(self, monkeypatch):
        """A smooth objective is a value and a gradient: with hessian=None a
        fractional stage runs to the records of the same objectives with
        Hessians, bit for bit, and each modified gradient makes exactly one
        objective call, a stacked gradient call."""
        calls = []

        def counted(obj):
            def gradient(x):
                calls.append(np.ndim(x))
                return obj.gradient(x)
            return dataclasses.replace(obj, gradient=gradient, hessian=None, validate=False)

        per_call = []

        def spy(*args, **kwargs):
            before = len(calls)
            result = modified_fractional_gradient(*args, **kwargs)
            per_call.append(calls[before:])
            return result

        monkeypatch.setattr(descent, "modified_fractional_gradient", spy)
        args = (np.array([1.0, 5.0, 2.0, 8.0]), SolverConfig(), Stage(0.7, 0.05, 30), np.zeros(4))
        without = one_stage([counted(obj) for obj in logistic_losses()], *args)
        assert without.iterations > 1 and without.termination != "error"
        assert len(per_call) == 3 * (without.iterations + 1)
        assert per_call == [[2]] * len(per_call)
        assert len(calls) == len(per_call)
        assert record_bits(without) == record_bits(one_stage(logistic_losses(), *args))

    def test_active_set_loop_runs_only_off_a_vertex(self, monkeypatch):
        """In a staged run on the three losses most solves end at a vertex,
        and `_nnls_weights` runs only for the solves that do not, on their
        rows sorted by norm."""
        import mofgd.direction as direction

        loops, solves = [], []
        nnls, solve = direction._nnls_weights, descent.solve_direction

        def spy_nnls(gram, scale):
            loops.append(nnls(gram, scale))
            return loops[-1]

        def spy_solve(gradients):
            solves.append((np.array(gradients), solve(gradients)))
            return solves[-1][1]

        monkeypatch.setattr(direction, "_nnls_weights", spy_nnls)
        monkeypatch.setattr(descent, "solve_direction", spy_solve)
        x0 = np.random.default_rng(1).uniform(1.01, 10.0, 4)
        trace = run_adaptive(logistic_losses(), x0, SolverConfig(),
                             default_schedule(terminal=np.zeros(4)))
        assert trace.termination != "error"
        off_vertex = [(G, r.multipliers) for G, r in solves
                      if np.count_nonzero(r.multipliers) > 1]
        assert len(solves) > 2 * len(off_vertex) > 0
        # The loop runs on the rows sorted by norm, so its weights are the
        # multipliers in that order.
        assert ([lam.tobytes() for lam in loops]
                == [lam[norm_order(G)].tobytes() for G, lam in off_vertex])


class TestClassicalStage:
    """An alpha = 1, beta = 0 stage is classical descent for every kind: its
    direction inputs are its merits' gradients and its Armijo slope is the
    subproblem's t, so it makes no fractional gradient and builds no node
    stack."""

    @staticmethod
    def spy(monkeypatch):
        """Count fractional gradients and node stacks, and record (slope
        passed to Armijo, subproblem t) for every line search."""
        calls, slopes, solved = [], [], {}
        for name in ("modified_fractional_gradient", "node_stack"):
            def counted(*args, real=getattr(descent, name), name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(descent, name, counted)
        solve, armijo = descent.solve_direction, descent.armijo_step

        def spy_solve(grads):
            result = solve(grads)
            solved["t"] = result.t_value
            return result

        def spy_armijo(merit, x, d, t, *rest):
            slopes.append((t, solved["t"]))
            return armijo(merit, x, d, t, *rest)

        monkeypatch.setattr(descent, "solve_direction", spy_solve)
        monkeypatch.setattr(descent, "armijo_step", spy_armijo)
        return calls, slopes

    @pytest.mark.parametrize("kind", ["logistic", "example3", "mixed"])
    def test_no_fractional_gradient_and_the_slope_is_t(self, kind, monkeypatch):
        if kind == "logistic":
            objectives, x0 = logistic_losses(), np.full(4, 3.0)
        elif kind == "example3":
            objectives, x0 = [example3_objective()], np.array([3.0, 3.0])
        else:
            objectives = [quadratic_objective(np.array([[2.0, 0.5], [0.5, 1.0]]),
                                              np.array([-1.0, 0.5])), example3_objective()]
            x0 = np.array([3.0, 2.0])
        calls, slopes = self.spy(monkeypatch)
        trace = one_stage(objectives, x0, SolverConfig(), classical(30), 0.0)
        assert trace.iterations > 0 and trace.termination != "error"
        assert calls == []
        assert len(slopes) == trace.iterations
        assert all(slope == t for slope, t in slopes)
        # The counters see a fractional stage's calls.
        one_stage(objectives, x0, SolverConfig(), Stage(0.5, 0.0, 2), 0.0)
        assert {"modified_fractional_gradient", "node_stack"} <= set(calls)

    @pytest.mark.parametrize("gamma, alphas", [(0.1, (0.3, 0.5, 0.9)),
                                               (0.0, (0.3, 0.9, 1.0))])
    def test_quadratic_stage_reads_gamma_not_alpha(self, gamma, alphas, monkeypatch):
        """A quadratic stage runs on its merits, which take gamma alone: any
        alpha with the same gamma gives bit-identical runs, the classical
        alpha = 1 at gamma = 0 included, and none evaluates the quadrature."""
        calls, _ = self.spy(monkeypatch)
        objectives = random_quadratic_mop(4, 6, 2, seed=11).objectives()
        c = np.array([0.5, -0.5, 0.0, 0.25])
        runs = [record_bits(one_stage(objectives, np.full(4, 2.0), SolverConfig(),
                                      Stage(alpha, gamma, 200), c))
                for alpha in alphas]
        assert runs[0][1] and all(run == runs[0] for run in runs[1:])
        assert calls == []


class TestMogdBaseline:
    def test_single_objective_is_gradient_descent(self):
        mop = random_quadratic_mop(2, 4, 1, seed=31)
        cfg = SolverConfig(tolerance=1e-8)
        trace = mogd_baseline(mop.objectives(), np.array([1.0, 1.0]), cfg)
        assert trace.termination == "tolerance"
        np.testing.assert_allclose(trace.final_x, mop.x_star, atol=1e-5)

    def test_two_objective_criticality(self):
        objs = fixture_objectives("example2_pair")
        cfg = SolverConfig(tolerance=1e-6, max_iterations=3000)
        trace = mogd_baseline(objs, np.array([3.0, 3.0]), cfg)
        assert trace.termination == "tolerance"
        assert trace.final_norm_d < 1e-6
