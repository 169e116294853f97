"""Tests for the Armijo line search, single-stage runs and the staged driver."""

import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

import mofgd.descent as descent
from mofgd import (
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
    run_single_stage,
    solve_direction,
)
from mofgd.cli import parse_config
from mofgd.fixtures import default_schedule, fixture_objectives, pareto_pair
from mofgd.problems import regularized
from oracles import segment_min_norm

REPO = Path(__file__).resolve().parents[1]


def classical(iterations):
    """The alpha = 1, gamma = 0 stage: classical steepest descent."""
    return Stage(1.0, 0.0, iterations)


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

    Returns (eta, x_next, backtracks), or None when no trial passes.
    """
    d, t = direction.direction, direction.t_value
    terms = [(float(g @ d), float(d @ obj.hessian(x) @ d))
             for obj, g in zip(objectives, gradients)]
    for backtracks in range(descent.MAX_BACKTRACKS + 1):
        eta = cfg.backtrack ** backtracks
        if all(eta * s + 0.5 * eta ** 2 * q <= cfg.sigma * eta * t for s, q in terms):
            return eta, x + eta * d, backtracks
    return None


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
    ])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


class TestStageSchedule:
    def test_beta_lower_bound_enforced(self):
        """A negative gamma puts beta below (1-alpha)/(2-alpha)."""
        with pytest.raises(ValueError, match="beta"):
            Stage(alpha=0.9, gamma=-0.01, iterations=10)

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

    @pytest.mark.parametrize("alphas, gammas, iterations", [
        ([0.5, 0.7, 0.9], [0.1, 0.0], [5, 5, 5]),
        ([0.5, 0.7], [0.1, 0.01, 0.0], [5, 5, 5]),
        ([0.5, 0.7, 0.9], [0.1, 0.01, 0.0], [5, 5]),
    ])
    def test_from_gammas_refuses_unequal_lengths(self, alphas, gammas, iterations):
        """Mismatched sequences raise instead of dropping stages."""
        with pytest.raises(ValueError):
            StageSchedule.from_gammas(alphas, gammas, iterations)


class TestArmijoStep:
    def test_hand_evaluated_quadratic(self):
        """f = ||x||^2/2 at (1,0): d = (-1,0), t = -1, eta = 1 accepted for sigma <= 1/2."""
        obj = quadratic_objective(np.eye(2), np.zeros(2))
        x = np.array([1.0, 0.0])
        direction = solve_direction([obj.gradient(x)])
        cfg = SolverConfig(sigma=0.4)
        eta, x_next, backtracks, trial_values = armijo_step([obj], x, direction, cfg,
                                                            [obj.value(x)], [obj.gradient(x)])
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
            eta, x_next, _, _ = armijo_step(objs, x, direction, cfg,
                                            [obj.value(x) for obj in objs], grads)
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
            eta, _, backtracks, _ = armijo_step(merit, x, direction, cfg,
                                                [m.value(x) for m in merit], grads)
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
            armijo_step([obj], np.ones(2), bad, SolverConfig(),
                        [obj.value(np.ones(2))], [obj.gradient(np.ones(2))])

    def test_inconsistent_direction_fails_line_search(self):
        """A steep ascent direction with a fake negative t exhausts the halvings.

        The inconsistency must be large relative to f for the cap to trigger:
        at eta = 2^-60 a tiny |t| underflows against f0 and the <= test would
        accept by rounding, which is exactly why 60 halvings signal a bug.
        """
        from mofgd.direction import DirectionResult
        obj = quadratic_objective(np.eye(2), np.zeros(2))
        x = np.array([1.0, 0.0])
        fake = DirectionResult(t_value=-1e12, direction=np.array([1e6, 0.0]),
                               multipliers=np.array([1.0]), kkt_residual=0.0,
                               theta=0.0)
        with pytest.raises(LineSearchError):
            armijo_step([obj], x, fake, SolverConfig(), [obj.value(x)], [obj.gradient(x)])

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
            eta, x_next, backtracks, _ = armijo_step(merit, x, direction, cfg,
                                                     [m.value(x) for m in merit], grads)
            ref_eta, ref_next, ref_backtracks, margin = evaluated_armijo(merit, x, direction, cfg)
            assert margin > 1e-10
            assert (eta, backtracks) == (ref_eta, ref_backtracks)
            np.testing.assert_array_equal(x_next, ref_next)

    def test_mixed_quadratic_and_smooth(self):
        """A smooth objective is tested on its values; a quadratic beside it
        on its expansion, without one value evaluation."""
        mop = random_quadratic_mop(4, 7, 1, seed=3)
        raw = [regularized(mop.objectives()[0], 0.3, np.zeros(4)), ObjectiveModel(
            lambda x: float(np.cosh(x).sum()), np.sinh,
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
                objectives, x, direction, cfg, [obj.value(x) for obj in raw], grads)
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
            eta, _, backtracks, _ = armijo_step(objectives, x, direction, cfg,
                                                [obj.value(x) for obj in objectives], grads)
            assert eta == backtrack ** backtracks
            counts.add(backtracks)
        assert max(counts) > 0


    @pytest.mark.parametrize("backtrack", [0.5, 0.3, 0.8])
    @pytest.mark.parametrize("distance", [10.0, 1e-6])
    def test_closed_form_start_matches_the_scan_from_one(self, backtrack, distance):
        """Starting at the closed-form first trial returns the step of the
        scan from eta = 1, bit for bit, and leaves at most two trials: far
        from x* and within 1e-6 of it, on raw and regularized merits."""
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
            eta, x_next, backtracks, _ = armijo_step(merit, x, direction, cfg,
                                                     [m.value(x) for m in merit], grads)
            ref_eta, ref_next, ref_backtracks = scanned_expansions(merit, x, direction, cfg,
                                                                   grads)
            assert (eta, backtracks) == (ref_eta, ref_backtracks)
            np.testing.assert_array_equal(x_next, ref_next)
            d = direction.direction
            start = descent._first_trial(
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
        finds them: f = q x^2 / 2 + s x at x = 0 along d = 1, so s_j = s and
        q_j = q."""
        from mofgd.direction import DirectionResult
        obj = quadratic_objective(np.array([[q]]), np.array([s]))
        x = np.zeros(1)
        cfg = SolverConfig(sigma=sigma, backtrack=backtrack)
        direction = DirectionResult(t_value=t, direction=np.ones(1),
                                    multipliers=np.ones(1), kkt_residual=0.0, theta=0.0)
        values, gradients = [obj.value(x)], [obj.gradient(x)]
        reference = scanned_expansions([obj], x, direction, cfg, gradients)
        if accepted is None:
            assert reference is None
            with pytest.raises(LineSearchError):
                armijo_step([obj], x, direction, cfg, values, gradients)
            return
        eta, x_next, backtracks, _ = armijo_step([obj], x, direction, cfg, values, gradients)
        assert (eta, x_next.tolist(), backtracks) == (reference[0], reference[1].tolist(),
                                                      accepted)


class TestRunSingleStage:
    def test_critical_start_stops_immediately(self):
        mop = random_quadratic_mop(3, 5, 1, seed=7)
        objs = mop.objectives()
        cfg = SolverConfig(tolerance=1e-6)
        trace = run_single_stage(objs, mop.x_star, cfg, classical(50), 0.0)
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
        trace = run_single_stage([obj], x0, cfg, classical(100), 0.0)

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
        trace = run_single_stage(objs, x0, cfg, classical(200), 0.0)

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
        trace = run_single_stage(mop.objectives(), np.ones(3), cfg, classical(40), 0.0)
        assert trace.termination == "tolerance"
        assert trace.iterations == 0
        grads = [mop.objectives()[j].gradient(np.ones(3)) for j in range(2)]
        assert trace.final_norm_d == solve(grads).norm
        assert trace.final_norm_d > cfg.tolerance

    def test_warning_recorder_covers_fractional_gradients_only(self, monkeypatch):
        """A modified fractional gradient's RuntimeWarning becomes a trace
        note; a quadratic gradient's reaches the caller's filters."""
        fractional = descent.modified_fractional_gradient

        def clamping(obj, x, *stage):
            warnings.warn("from the fractional gradient", RuntimeWarning)
            return fractional(obj, x, *stage)

        def warning_gradient(x):
            warnings.warn("from the quadratic gradient", RuntimeWarning)
            return raw.gradient(x)

        monkeypatch.setattr(descent, "modified_fractional_gradient", clamping)
        raw = quadratic_objective(np.eye(4), np.zeros(4))
        quadratic = dataclasses.replace(raw, gradient=warning_gradient, validate=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace = run_single_stage([quadratic, logistic_losses()[0]], np.full(4, 2.0),
                                     SolverConfig(), classical(3), 0.0)
        assert trace.iterations == 3
        assert [str(w.message) for w in caught] == ["from the quadratic gradient"] * 4
        assert trace.notes == ["from the fractional gradient"] * 4

    def test_overflowed_gradients_end_the_stage_in_error(self):
        """Gradients whose squared norms overflow end the stage with
        termination error, not as a converged (t >= 0) stage."""
        objectives = [quadratic_objective(np.diag(h), np.zeros(2))
                      for h in ([1e200, 0.0], [0.0, 1e200])]
        with np.errstate(all="ignore"):
            trace = run_single_stage(objectives, np.ones(2), SolverConfig(), classical(10), 0.0)
        assert trace.termination == "error"
        assert "gradient scale" in trace.error
        assert trace.iterations == 0
        np.testing.assert_array_equal(trace.final_x, np.ones(2))

    def test_error_termination_on_bad_model(self):
        """A badly scaled wrong gradient fails the line search; trace says so."""
        bad = quadratic_objective(np.eye(2), np.zeros(2))
        object.__setattr__(bad, "gradient", lambda x: -1e6 * x)  # steep ascent
        object.__setattr__(bad, "hessian", lambda x: -1e6 * np.eye(2))
        cfg = SolverConfig(tolerance=1e-10)
        trace = run_single_stage([bad], np.array([1.0, 1.0]), cfg,
                                 classical(50), 0.0)
        assert trace.termination == "error"
        assert "halvings" in trace.error


    @pytest.mark.parametrize("frac, k_max", [
        (classical(500), 500),
        (Stage(0.5, 0.3, 500), 500),
        (Stage(0.5, 0.3, 7), 7),
    ])
    def test_quadratic_stage_evaluates_each_merit_once(self, frac, k_max):
        """One gradient call per objective per iteration (the final check at
        the last iterate included) and, with every curvature positive, no
        value call while the stage runs.  Reading a record's f_values makes
        one value call per objective, a second read makes none, and the
        values are those of the stage merit at the record's x, bit for bit."""
        counted = []
        for obj in random_quadratic_mop(5, 8, 2, seed=21).objectives():
            obj, values = counting_calls(obj, "value")
            obj, grads = counting_calls(obj, "gradient")
            counted.append((obj, values, grads))
        objectives = [obj for obj, *_ in counted]
        merit = descent._stage_merit(objectives, frac.gamma, np.zeros(5))
        assert all(np.linalg.eigvalsh(m.hessian(np.zeros(5)))[0] > 0.0 for m in merit)
        trace = run_single_stage(objectives, np.full(5, 3.0),
                                 SolverConfig(tolerance=1e-8), frac, np.zeros(5))
        assert trace.termination == ("max_iter" if k_max == 7 else "tolerance")
        assert trace.iterations > 0
        for _, values, grads in counted:
            assert len(grads) == trace.iterations + 1
            assert not values
        first = [record.f_values for record in trace.records]
        for _, values, _ in counted:
            assert len(values) == trace.iterations
        second = [record.f_values for record in trace.records]
        for _, values, _ in counted:
            assert len(values) == trace.iterations
        for record, f, again in zip(trace.records, first, second):
            assert again is f
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
        trace = run_single_stage(objectives, np.array([1.0, 5.0, 2.0, 8.0]), SolverConfig(),
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
        trace = run_single_stage(mop.objectives(), np.ones(3), cfg,
                                 classical(40), 0.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        trace.to_csv(p1)
        trace.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0].split(",")
        assert header == ["k", "s", "eta", "t", "norm_d", "f_1", "f_2", "x_1", "x_2", "x_3"]

    def test_monotone_objectives_along_trace(self):
        mop = random_quadratic_mop(4, 6, 2, seed=5)
        cfg = SolverConfig(tolerance=1e-8)
        trace = run_single_stage(mop.objectives(), np.full(4, 2.0), cfg,
                                 classical(200), 0.0)
        f = np.array([r.f_values for r in trace.records])
        assert np.all(np.diff(f, axis=0) <= 1e-12)


class TestRunAdaptive:
    def test_single_stage_schedule_equals_run_single_stage(self):
        mop = random_quadratic_mop(3, 5, 2, seed=8)
        objs = mop.objectives()
        cfg = SolverConfig(tolerance=1e-9)
        sched = StageSchedule(stages=(Stage(1.0, 0.0, 60),), terminal=np.zeros(3))
        t1 = run_adaptive(objs, np.ones(3), cfg, sched)
        t2 = run_single_stage(objs, np.ones(3), cfg, classical(60), 0.0)
        assert t1.iterations == t2.iterations
        np.testing.assert_allclose(t1.final_x, t2.final_x, atol=1e-12)

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
        """Without a fall in gamma, run_adaptive is the chain of stages run at
        cfg.tolerance, bit for bit."""
        objectives = random_quadratic_mop(4, 6, 2, seed=5).objectives()
        c, x0 = np.zeros(4), np.full(4, 2.0)
        schedule = StageSchedule.from_gammas([0.5, 0.7, 0.9], gammas, [30, 30, 60],
                                             terminal=c)
        cfg = SolverConfig(tolerance=1e-6)
        trace = run_adaptive(objectives, x0, cfg, schedule)
        reference, x = descent.IterationTrace(), x0
        for s, stage in enumerate(schedule.stages):
            x = run_single_stage(objectives, x, cfg, stage, c, stage_index=s,
                                 trace=reference).final_x
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

        def spy_armijo(merit, x, direction, cfg, values, gradients):
            result = armijo(merit, x, direction, cfg, values, gradients)
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
        staged = run_single_stage(objectives, x0, cfg, Stage(0.5, 0.1, 200), c)
        merits = [regularized(obj, 0.1, c) for obj in objectives]
        reference = run_single_stage(merits, x0, cfg, Stage(1.0, 0.0, 200), c)
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
        """Record (merit, x, direction passed to Armijo, subproblem t) for
        every line search."""
        checks, solved = [], {}
        solve, armijo = descent.solve_direction, descent.armijo_step

        def spy_solve(grads):
            result = solve(grads)
            solved["t"] = result.t_value
            return result

        def spy_armijo(merit, x, direction, cfg, values, gradients):
            checks.append((list(merit), np.array(x), direction, solved["t"]))
            return armijo(merit, x, direction, cfg, values, gradients)

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
        for merit, x, direction, t in checks:
            if kind == "quadratic":
                assert direction.t_value == t  # bit for bit
            d = direction.direction
            ahead = [(m.value(x + h * d) - m.value(x)) / h for m in merit]
            behind = [(m.value(x) - m.value(x - h * d)) / h for m in merit]
            if not np.allclose(ahead, behind, rtol=1e-3, atol=1e-3):
                continue  # the stencil straddles a kink
            fd = max((a + b) / 2 for a, b in zip(ahead, behind))
            assert direction.t_value == pytest.approx(fd, rel=1e-5, abs=1e-8)
            compared += 1
        assert compared >= len(checks) // 2 > 0

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
        sub = subgradient_baseline(obj, x0, steps=2000)
        assert sub.termination == "tolerance"
        sub_hit = sub.iterations
        assert frac_hit < sub_hit

    def test_uphill_merit_slope_ends_as_model_mismatch(self, monkeypatch):
        """A direction input pointing uphill gives t < 0 but a positive merit
        slope: the stage ends with model_mismatch and notes the mismatch."""
        monkeypatch.setattr(descent, "modified_fractional_gradient",
                            lambda f, x, *stage: -f.gradient(x))
        objectives = logistic_losses()
        trace = run_single_stage(objectives, np.full(4, 2.0), SolverConfig(),
                                 Stage(0.5, 0.0, 10), np.zeros(4))
        assert trace.termination == "model_mismatch"
        assert trace.iterations == 0
        assert any(n.startswith("model_mismatch") and "||g - grad merit||" in n
                   for n in trace.notes)


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
