"""Tests for baselines, theorem verification, sweeps, table and ADRS."""

import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mofgd.descent as descent
import mofgd.lab as lab
from mofgd import (
    ExperimentSpec,
    SolverConfig,
    StageSchedule,
    adrs,
    comparison_table,
    mogd_baseline,
    random_quadratic_mop,
    run_adaptive,
    solve_direction,
    subgradient_baseline,
    tikhonov_solve,
    verify_rate_theorem5,
    verify_staged_theorem6,
)
from mofgd.fixtures import (
    classical_critical_point,
    default_schedule,
    example3_objective,
    fixture_objectives,
    EXAMPLE2_MATRIX,
    EXAMPLE2_OFFSET,
)
from mofgd.cli import parse_config
from mofgd.lab import pareto_sweep
from mofgd.problems import ObjectiveModel, QuadraticMop, regularized
from oracles import loop_adrs, per_objective_fixed_steps

REPO = Path(__file__).resolve().parents[1]
# Solver settings of the sweeps and tables below: the stop tolerances of
# example2_pair.yaml and paper_quadratic.yaml, at most 2000 iterations.
SWEEP_CFG = SolverConfig(tolerance=1e-5, max_iterations=2000)
TABLE_CFG = SolverConfig(tolerance=1e-4, max_iterations=2000)


class TestMogdBaselineLab:
    def test_example2_pair_reaches_criticality(self):
        spec_objs = [
            # example1 and example2 quadratics
        ]
        from mofgd.fixtures import pareto_pair
        cfg = SolverConfig(tolerance=1e-6, max_iterations=3000)
        trace = mogd_baseline(pareto_pair(), np.array([2.0, 2.0]), cfg)
        assert trace.termination == "tolerance"
        assert trace.final_norm_d < 1e-6

    def test_recovers_example2_minimum(self):
        from mofgd.fixtures import fixture_objectives
        cfg = SolverConfig(tolerance=1e-8, max_iterations=3000)
        trace = mogd_baseline(fixture_objectives("example2"), np.array([1.0, 1.0]), cfg)
        x_ref, f_ref = classical_critical_point(EXAMPLE2_MATRIX, EXAMPLE2_OFFSET)
        np.testing.assert_allclose(trace.final_x, x_ref, atol=1e-5)


class TestSubgradientBaseline:
    def test_converges_toward_origin(self):
        """The returned index is the first iterate with f <= 1e-3: the run
        replayed by hand is above it before that index and at or below it
        there."""
        obj = example3_objective()
        hit = subgradient_baseline(obj, np.array([3.0, 3.0]), steps=2000)
        assert hit is not None and 0 < hit < 2000
        x = np.array([3.0, 3.0])
        for k in range(hit):
            assert obj.value(x) > 1e-3
            x = x - 0.5 / (k + 1.0) * obj.subgradient(x)
        assert obj.value(x) <= 1e-3

    def test_start_at_optimum_stops_immediately(self):
        obj = example3_objective()
        assert subgradient_baseline(obj, np.zeros(2), steps=100) == 0

    def test_too_few_steps_return_none(self):
        obj = example3_objective()
        hit = subgradient_baseline(obj, np.array([3.0, 3.0]), steps=2000)
        assert subgradient_baseline(obj, np.array([3.0, 3.0]), steps=hit) is None
        assert subgradient_baseline(obj, np.array([3.0, 3.0]), steps=hit + 1) == hit

    def test_slower_than_staged_fractional(self):
        """The memory-driven method needs strictly fewer iterations."""
        from mofgd.descent import run_adaptive
        obj = example3_objective()
        sub_hit = subgradient_baseline(obj, np.array([3.0, 3.0]), steps=2000)
        assert sub_hit is not None
        cfg = SolverConfig(tolerance=1e-6, max_iterations=2000)
        trace = run_adaptive([obj], np.array([3.0, 3.0]), cfg, default_schedule())
        xs = [r.x for r in trace.records] + [trace.final_x]
        frac_hit = next(k for k, x in enumerate(xs) if obj.value(x) <= 1e-3)
        assert frac_hit < sub_hit


class TestVerifyRateTheorem5:
    def setup_method(self):
        self.mop = random_quadratic_mop(5, 6, 2, seed=4)
        self.gamma = 0.02
        self.c = np.zeros(5)
        self.lam = np.array([0.5, 0.5])

    def test_geometric_decay_to_fixed_point(self):
        rep = verify_rate_theorem5(self.mop, SolverConfig(eta=1.0),
                                   self.gamma, self.c, self.lam)
        assert rep.monotone
        assert not rep.rate_violation
        assert rep.final_error <= 1e-6
        assert rep.fitted_rate < 1.0

    def test_eta_near_two_still_converges(self):
        rep = verify_rate_theorem5(self.mop, SolverConfig(eta=1.99),
                                   self.gamma, self.c, self.lam)
        assert not rep.rate_violation
        assert rep.final_error <= 1e-6

    def test_fixed_point_independent_of_start(self):
        rng = np.random.default_rng(9)
        reps = [
            verify_rate_theorem5(self.mop, SolverConfig(eta=1.0),
                                 self.gamma, self.c, self.lam, x0=rng.normal(size=5) * 5)
            for _ in range(2)
        ]
        assert np.linalg.norm(reps[0].final_x - reps[1].final_x) <= 1e-6

    def test_rate_matches_condition_number_prediction(self):
        """Tail ratio equals max(|1-eta|, |1-eta/kappa|) for the frozen system."""
        rep = verify_rate_theorem5(self.mop, SolverConfig(eta=1.0),
                                   self.gamma, self.c, self.lam)
        v = rep.ratios[~np.isnan(rep.ratios)]
        predicted = 1.0 - 1.0 / rep.kappa
        assert v[-1] == pytest.approx(predicted, rel=1e-3)

    def test_fixed_step_converges_to_tikhonov_solution(self):
        """Frozen-lambda fixed-step iteration lands on the closed-form solution."""
        mop = random_quadratic_mop(5, 8, 2, seed=42)
        gamma = 0.3
        lam = np.array([0.5, 0.5])
        c = np.zeros(5)
        sol = tikhonov_solve(mop, gamma, lam, c)
        rep = verify_rate_theorem5(mop, SolverConfig(eta=1.0), gamma, c, lam,
                                   x0=np.full(5, 3.0), k_max=500, stop_error=1e-12)
        assert np.linalg.norm(rep.final_x - sol.x_tik) <= 1e-6
        assert np.all(rep.ratios[5:] < 1.0)

    def test_errors_have_the_bits_of_linalg_norm(self, monkeypatch):
        """errors[k] is np.linalg.norm(x_k - x_Tik) for every iterate x_k, by
        bytes."""
        runs = []

        def recorded(*args):
            runs.append(fixed_steps(*args))
            return runs[-1]

        fixed_steps = lab._frozen_fixed_steps
        monkeypatch.setattr(lab, "_frozen_fixed_steps", recorded)
        for gamma, x0 in ((self.gamma, None), (0.3, np.full(5, 3.0))):
            rep = verify_rate_theorem5(self.mop, SolverConfig(eta=1.0), gamma, self.c,
                                       self.lam, x0=x0)
            x_tik = tikhonov_solve(self.mop, gamma, self.lam, self.c).x_tik
            want = np.array([np.linalg.norm(x - x_tik) for x in runs[-1]])
            assert len(want) > 10
            assert rep.errors.tobytes() == want.tobytes()

    def test_eta_outside_zero_two_rejected(self):
        """A fixed step of eta / sigma_max diverges for eta >= 2, so it is refused."""
        with pytest.raises(ValueError, match="eta"):
            verify_rate_theorem5(self.mop, SolverConfig(eta=2.5), self.gamma, self.c, self.lam)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            verify_rate_theorem5(self.mop, SolverConfig(eta=1.0), -1.0 / 3.0, self.c, self.lam)


class TestVerifyStagedTheorem6:
    def test_recursion_and_lipschitz_hold(self):
        mop = random_quadratic_mop(5, 8, 2, seed=101)
        sched = StageSchedule.from_gammas([0.5] * 4, [0.5, 0.1, 0.01, 0.001],
                                          [400] * 4, terminal=np.zeros(5))
        cfg = SolverConfig(eta=1.0, max_iterations=400)
        bound, report = verify_staged_theorem6(mop, sched, cfg)
        assert report["recursion_ok"]
        assert report["lipschitz_ok"]
        assert report["bound_ok"]
        assert report["final_bound_ok"]
        assert bound.b_max > 0 and bound.c_const > 0
        # error decreases toward the unregularized truth as gamma shrinks
        errs = report["stage_end_error_to_x_star"]
        assert errs[-1] < errs[0]

    def test_constant_schedule_plateaus_at_bias(self):
        """With gamma fixed, the error to x* plateaus at the Tikhonov bias."""
        mop = random_quadratic_mop(5, 8, 2, seed=55)
        gamma = 0.2
        sched = StageSchedule.from_gammas([0.5] * 3, [gamma] * 3, [300] * 3,
                                          terminal=np.zeros(5))
        cfg = SolverConfig(eta=1.0, max_iterations=300)
        bound, report = verify_staged_theorem6(mop, sched, cfg)
        lam = np.full(2, 0.5)
        bias = np.linalg.norm(
            tikhonov_solve(mop, gamma, lam, np.zeros(5)).x_tik - mop.x_star)
        assert report["final_error"] == pytest.approx(bias, abs=1e-6)
        assert report["final_error"] <= bound.c_const * gamma * 1.1


class TestFrozenFixedSteps:
    """The verify runs' fixed steps evaluate the merit gradients as one
    stacked product, with the bits of one gradient call per merit."""

    @pytest.mark.parametrize("reg", ["diag", "outer"])
    @pytest.mark.parametrize("n", [2, 100])
    def test_fixed_steps_match_per_objective_steps(self, reg, n):
        """The steps have the bits of the per-objective steps, and each
        merit's gradient is read once, at set-up, however many steps run."""
        mop = random_quadratic_mop(n, n + 2, 3, seed=n)
        lam = np.array([0.2, 0.3, 0.5])
        sol = tikhonov_solve(mop, 0.25, lam, np.full(n, 0.5), reg)
        calls = []

        def counted(merit):
            def gradient(x):
                calls.append(1)
                return merit.gradient(x)
            return dataclasses.replace(merit, gradient=gradient, validate=False)

        args = (lam, 1.0 / sol.sigma_max, np.full(n, 3.0), 1e-300, 300)
        steps = lab._frozen_fixed_steps([counted(m) for m in sol.merits], *args)
        assert len(steps) == 301
        assert len(calls) == 3
        assert (np.array(steps).tobytes()
                == np.array(per_objective_fixed_steps(sol.merits, *args)).tobytes())

    def test_verify_reports_match_per_objective_steps(self, monkeypatch):
        """verify-t5's and verify-t6's runs on the shipped paper instance."""
        spec, cfg, schedule = parse_config(REPO / "configs" / "paper_quadratic.yaml")
        mop = spec.instance
        lam = np.full(mop.n_objectives, 1.0 / mop.n_objectives)

        def reports():
            t5 = verify_rate_theorem5(mop, cfg, schedule.stages[0].gamma, schedule.terminal,
                                      lam, k_max=cfg.max_iterations)
            return (t5.errors.tobytes(), t5.final_x.tobytes(),
                    repr(verify_staged_theorem6(mop, schedule, cfg)))

        stacked = reports()
        monkeypatch.setattr(lab, "_frozen_fixed_steps", per_objective_fixed_steps)
        assert stacked == reports()


class TestExperimentSpec:
    @pytest.mark.parametrize("lb, ub", [(1.0, 2.0), ((1.0, 1.0), 2.0), (1.0, (2.0, 2.0))])
    def test_scalar_grid_end_raises(self, lb, ub):
        """A 0-d end fails at construction, not with an IndexError in starts()."""
        with pytest.raises(ValueError, match="start_grid"):
            ExperimentSpec("example2", start_grid=(lb, ub, 3))

    def test_grid_ends_of_different_lengths_raise(self):
        """Not numpy's broadcast message, but one that names start_grid."""
        with pytest.raises(ValueError, match="start_grid"):
            ExperimentSpec("example2", start_grid=((1.0, 1.0), (2.0, 2.0, 2.0), 3))

    @pytest.mark.parametrize("count", [2.5, True, 0])
    def test_start_count_is_a_positive_integer(self, count):
        """The count is refused as a stage's iterations are: 2.5 is not
        truncated to 2, nor True read as 1."""
        with pytest.raises(ValueError, match="start_grid count must be a positive integer"):
            ExperimentSpec("example2", start_grid=((1.0, 1.0), (2.0, 2.0), count))
        grid = ExperimentSpec("example2", start_grid=((1.0, 1.0), (2.0, 2.0), np.int64(3)))
        assert grid.start_grid[2] == 3 and grid.starts().shape == (3, 2)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -0.1])
    def test_gamma_values_are_finite_and_nonnegative(self, gamma):
        """A NaN or infinite gamma value is refused, as a stage's gamma is."""
        with pytest.raises(ValueError, match="gamma values must be nonnegative and finite"):
            ExperimentSpec("example2", gamma_values=(0.1, gamma))


class TestParetoSweep:
    def test_single_start(self):
        spec = ExperimentSpec(instance="example2_pair", start_grid=((1.0, 1.0), (2.0, 2.0), 1))
        front = pareto_sweep(spec, SWEEP_CFG, default_schedule())
        assert len(front) <= 1

    def test_wrapped_models_take_the_path_of_plain_ones(self, monkeypatch):
        """With every model's value, gradient and hessian wrapped in counters
        as it is built, as a benchmark tracer wraps them, both sweeps of
        `pareto` on example2_pair.yaml give the fronts of the unwrapped
        sweeps bit for bit, and their gradient calls are set-up reads: per
        stage one of each merit's, and at gamma > 0 one of each objective's
        by `regularized`.  The objectives' construction checks are not
        counted."""
        spec, cfg, schedule = parse_config(REPO / "configs" / "example2_pair.yaml")
        m = len(spec.objectives())

        def fronts():
            return [[(p.objectives.tobytes(), p.start_index, p.norm_d)
                     for p in pareto_sweep(spec, cfg, s)]
                    for s in (schedule, lab._classical_schedule(cfg))]

        expected = fronts()
        calls, building = Counter(), []
        post_init = ObjectiveModel.__post_init__

        def counted(name, fn):
            def call(x):
                if not building:
                    calls[name] += 1
                return fn(x)
            return call

        def wrapping_post_init(obj):
            for name in ("value", "gradient", "hessian"):
                fn = getattr(obj, name)
                if fn is not None:
                    object.__setattr__(obj, name, counted(name, fn))
            building.append(obj)
            try:
                post_init(obj)
            finally:
                building.pop()

        monkeypatch.setattr(ObjectiveModel, "__post_init__", wrapping_post_init)
        assert fronts() == expected
        assert all(expected)
        stage_reads = len(schedule.stages) + sum(g > 0.0 for g in schedule.gammas) + 1
        assert 0 < calls["gradient"] <= m * stage_reads, calls

    def test_duplicates_collapse(self):
        """All starts of a single-objective problem land on one minimizer."""
        spec = ExperimentSpec(instance="example2", start_grid=((0.0, 0.0), (2.0, 2.0), 5))
        front = pareto_sweep(spec, SWEEP_CFG, default_schedule())
        assert len(front) == 1

    def test_exactly_critical_start_reports_zero_norm(self):
        """A start whose direction is exactly d = 0 has norm_d 0.0, not NaN."""
        eye = np.eye(2)
        spec = ExperimentSpec(QuadraticMop((eye, 2.0 * eye), (np.zeros(2), np.zeros(2))),
                              start_grid=((-1.0, -1.0), (1.0, 1.0), 3), method="mogd")
        failures = []
        front = pareto_sweep(spec, SWEEP_CFG, lab._classical_schedule(SWEEP_CFG),
                             failures=failures)
        assert failures == []
        assert front and [p.norm_d for p in front] == [0.0] * len(front)

    @pytest.mark.parametrize("method", ["moaocfgd", "mogd"])
    def test_setup_is_built_once_per_sweep(self, monkeypatch, method):
        """Stage merits and Hessian stacks depend only on the objectives,
        the gammas and the terminal, so a 5-start and a 20-start sweep make
        as many regularized and Hessian calls: one set-up per sweep."""
        calls = Counter()

        def counting_regularized(*args):
            calls["regularized"] += 1
            return regularized(*args)

        def counting_hessian(hessian):
            def counted(x):
                calls["hessian"] += 1
                return hessian(x)
            return counted

        def counted_objectives(name):
            return [dataclasses.replace(obj, hessian=counting_hessian(obj.hessian),
                                        validate=False)
                    for obj in fixture_objectives(name)]

        monkeypatch.setattr(descent, "regularized", counting_regularized)
        monkeypatch.setattr(lab, "fixture_objectives", counted_objectives)
        cfg = SolverConfig(tolerance=1e-5)
        schedule = default_schedule() if method == "moaocfgd" else lab._classical_schedule(cfg)
        counts = []
        for count in (5, 20):
            calls.clear()
            spec = ExperimentSpec("example2_pair", start_grid=((-2.0, -3.0), (2.0, 1.0), count))
            failures = []
            assert pareto_sweep(spec, cfg, schedule, failures=failures)
            assert failures == []
            counts.append(dict(calls))
        stages = len(schedule.stages)
        assert counts[0] == counts[1]
        assert counts[0]["regularized"] == 2 * stages
        # A gamma > 0 merit fetches the raw Hessian once; a gamma = 0 stage
        # stacks the raw Hessians.
        assert counts[0]["hessian"] == 2 * stages

    def test_workers_run_the_schedule_they_are_handed(self):
        """jobs = 2 pickles the handed one-stage classical schedule to its
        workers: the front, the failures and the ends are those of the mogd
        sweep with jobs = 1, bit for bit."""
        spec = ExperimentSpec("example2_pair", start_grid=((-2.0, -3.0), (2.0, 1.0), 12))
        handed = StageSchedule((descent.Stage(1.0, 0.0, SWEEP_CFG.max_iterations),))
        runs = []
        for jobs, schedule in ((1, lab._classical_schedule(SWEEP_CFG)), (2, handed)):
            failures, ends = [], []
            front = pareto_sweep(spec, SWEEP_CFG, schedule, failures=failures, jobs=jobs,
                                 ends=ends)
            runs.append(([(p.objectives.tobytes(), p.start_index, p.norm_d,
                           p.multipliers.tobytes()) for p in front], failures, ends))
        assert runs[0][0] and runs[0] == runs[1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unrunnable_sweep_raises_before_any_start(self, monkeypatch, jobs):
        """A sweep on a schedule whose terminal has the wrong length raises
        ValueError once instead of failing every start."""
        runs = []
        monkeypatch.setattr(lab, "run_adaptive", lambda *args: runs.append(args))
        failures = []
        with pytest.raises(ValueError, match="terminal has length 3"):
            pareto_sweep(ExperimentSpec("example2_pair"), SWEEP_CFG,
                         default_schedule(terminal=np.zeros(3)), failures=failures, jobs=jobs)
        assert failures == [] and runs == []

    @pytest.mark.parametrize("jobs", [0, -1, 2.5, True])
    def test_jobs_is_a_positive_integer(self, monkeypatch, jobs):
        """A jobs that is not a positive integer is refused by name before
        any start runs, not by numpy's array_split or a TypeError."""
        runs = []
        monkeypatch.setattr(lab, "run_adaptive", lambda *args: runs.append(args))
        failures = []
        with pytest.raises(ValueError, match="jobs must be a positive integer"):
            pareto_sweep(ExperimentSpec("example2_pair"), SWEEP_CFG, default_schedule(),
                         failures=failures, jobs=jobs)
        assert failures == [] and runs == []

    @staticmethod
    def per_start_values(spec, cfg, schedule, objectives, index):
        """obj.value at the final x of the start's own run, one call per objective."""
        final_x = descent.run_adaptive(objectives, spec.starts()[index], cfg, schedule).final_x
        return [obj.value(final_x) for obj in objectives]

    @pytest.mark.parametrize("instance, method", [
        ("example2_pair", "moaocfgd"), ("example2_pair", "mogd"),
        ("example3_nonsmooth", "moaocfgd"), ("random", "moaocfgd")])
    def test_front_values_are_the_per_start_value_calls(self, instance, method):
        """The sweep scores its final points with one stacked value call per
        objective, whose rows have the bits of obj.value at each point."""
        schedule, grid = default_schedule(), ((-2.0, -3.0), (2.0, 1.0), 12)
        if instance == "random":
            instance = random_quadratic_mop(3, 5, 2, seed=21)
            schedule = default_schedule(terminal=np.zeros(3))
            grid = ((-2.0, -2.0, -2.0), (2.0, 1.0, 3.0), 12)
        spec = ExperimentSpec(instance, start_grid=grid)
        cfg = SolverConfig(tolerance=1e-5, max_iterations=2000)
        if method == "mogd":
            schedule = StageSchedule((descent.Stage(1.0, 0.0, cfg.max_iterations),))
        front = pareto_sweep(spec, cfg, schedule)
        objectives = spec.objectives()
        assert front
        for p in front:
            assert p.objectives.tobytes() == np.array(
                self.per_start_values(spec, cfg, schedule, objectives, p.start_index)).tobytes()

    def test_a_stacked_value_that_raises_fails_every_scored_start(self, monkeypatch):
        """Unvalidated objectives whose value reads one point only make the
        stacked call raise: every run that ended without error fails with
        its message, in start order, and the sweep does not raise."""
        spec = ExperimentSpec("example2_pair", start_grid=((-2.0, -3.0), (2.0, 1.0), 12))

        def one_point(value):
            def evaluate(x):
                if np.ndim(x) != 1:
                    raise ValueError("one point only")
                return value(x)
            return evaluate

        build = ExperimentSpec.objectives
        monkeypatch.setattr(ExperimentSpec, "objectives", lambda self: [
            dataclasses.replace(obj, value=one_point(obj.value), validate=False)
            for obj in build(self)])
        failures = []
        assert pareto_sweep(spec, SWEEP_CFG, default_schedule(), failures=failures) == []
        assert failures == [(i, "one point only") for i in range(12)]

    def test_example2_pair_front(self):
        """100 starts trace the efficient curve; every point is critical."""
        spec = ExperimentSpec(instance="example2_pair", start_grid=((-2.0, -3.0), (2.0, 1.0), 100))
        cfg = SolverConfig(tolerance=1e-5, max_iterations=3000)
        front = pareto_sweep(spec, cfg, default_schedule())
        assert len(front) >= 10
        for p in front:
            assert p.norm_d < 1e-4
        f1 = [p.objectives[0] for p in front]
        f2 = [p.objectives[1] for p in front]
        assert all(a <= b + 1e-12 for a, b in zip(f1, f1[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(f2, f2[1:]))


def reference_nondominated_filter(points):
    """The pairwise loop the broadcast filter replaced: the reference it
    must reproduce point for point and in order."""
    def dominates(a, b, slack=1e-9):
        return bool(np.all(a <= b + slack) and np.any(a < b - slack))

    kept = []
    for p in points:
        if any(dominates(q.objectives, p.objectives) for q in points):
            continue
        if any(np.allclose(q.objectives, p.objectives, atol=1e-9) for q in kept):
            continue
        kept.append(p)
    kept.sort(key=lambda p: tuple(p.objectives))
    return kept


def front_points(F):
    return [lab.FrontPoint(objectives=np.array(f, dtype=float), start_index=i, norm_d=0.0,
                           multipliers=np.full(len(f), 1.0 / len(f)))
            for i, f in enumerate(F)]


class TestNondominatedFilter:
    def assert_matches_reference(self, F):
        points = front_points(F)
        got = lab.nondominated_filter(points)
        want = reference_nondominated_filter(points)
        assert [p.start_index for p in got] == [p.start_index for p in want]
        return [p.start_index for p in got]

    def test_empty(self):
        assert lab.nondominated_filter([]) == []

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 17, 100, 300])
    def test_random_fronts(self, n, m):
        rng = np.random.default_rng(1000 * n + m)
        # Points on the unit sphere's positive orthant are mutually
        # nondominated; pushing some outward makes them dominated.
        F = np.abs(rng.normal(size=(n, m)))
        F /= np.linalg.norm(F, axis=1, keepdims=True)
        F *= np.where(rng.random((n, 1)) < 0.3, rng.uniform(1.0, 1.5, (n, 1)), 1.0)
        self.assert_matches_reference(F)
        self.assert_matches_reference(rng.uniform(0.0, 10.0, (n, m)))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rounded_values_tie_exactly(self, m):
        rng = np.random.default_rng(m)
        F = np.round(rng.uniform(0.0, 1.0, (300, m)), 1)
        kept = self.assert_matches_reference(F)
        assert len(kept) == len({tuple(F[i]) for i in kept})

    def test_exact_duplicates_keep_the_first_start(self):
        F = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [2.0, 1.0], [1.0, 2.0]])
        assert self.assert_matches_reference(F) == [0, 1]

    @pytest.mark.parametrize("scale", [0.0, 1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_duplicate_bounds(self, scale, factor):
        """Mutually nondominated pairs just inside and just outside
        |q - p| <= 1e-9 + 1e-5 |p| on both objectives."""
        p = np.array([scale, 2.0 * scale])
        tol = 1e-9 + 1e-5 * np.abs(p)
        q = p + factor * tol * np.array([1.0, -1.0])
        kept = self.assert_matches_reference([q, p])
        assert sorted(kept) == ([0] if factor < 1 else [0, 1])

    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_dominance_slack_bound(self, factor):
        """q better than p by just under or over the slack on one objective."""
        p = np.array([1.0, 3.0, 5.0])
        q = p - factor * 1e-9 * np.array([1.0, 0.0, 0.0])
        self.assert_matches_reference([p, q])

    def test_closeness_chain_is_greedy_in_start_order(self):
        """Each point is close to its neighbours but not to the next but one."""
        step = 0.6 * (1e-9 + 1e-5)
        F = [[1.0 + k * step, 1.0 - k * step] for k in range(5)]
        assert self.assert_matches_reference(F) == [0, 2, 4]
        assert self.assert_matches_reference(F[::-1]) == [4, 2, 0]

    def test_infinite_entries(self):
        inf = np.inf
        F = [[inf, 0.0], [0.0, inf], [inf, inf], [-inf, 1.0], [-inf, 2.0],
             [1.0, -inf], [inf, -inf], [-inf, -inf], [0.5, 0.5], [inf, 0.0]]
        self.assert_matches_reference(F)
        self.assert_matches_reference(F[:3] + [[0.5, 0.5], [inf, 0.0], [1.0, inf]])


class TestAdrs:
    def test_front_equals_reference(self):
        ref = [np.array([0.0, 1.0]), np.array([1.0, 0.0])]
        assert adrs(ref, ref) == 0.0

    def test_hand_evaluated(self):
        """Half the reference covered: mean(0, 1) = 0.5 under unit ranges."""
        ref = [np.array([0.0, 1.0]), np.array([1.0, 0.0])]
        front = [np.array([0.0, 1.0])]
        assert adrs(front, ref) == pytest.approx(0.5)

    def test_adding_points_never_increases(self):
        rng = np.random.default_rng(2)
        ref = [rng.uniform(0, 1, 2) for _ in range(6)]
        front = [rng.uniform(0, 1, 2) for _ in range(3)]
        base = adrs(front, ref)
        assert adrs(front + [ref[0]], ref) <= base + 1e-15

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            adrs([np.zeros(2)], [])

    def test_objective_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            adrs([np.zeros(3)], [np.zeros(2), np.ones(2)])

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_reference_loop(self, m):
        """Bit for bit the per-reference loop, with a constant objective
        (range 1) among the columns when m > 1."""
        def bits(value):
            return np.float64(value).tobytes()

        rng = np.random.default_rng(m)
        for front_size, ref_size in ((1, 1), (5, 12), (40, 70)):
            front = [rng.uniform(0, 1, m) for _ in range(front_size)]
            ref = [rng.uniform(0, 1, m) for _ in range(ref_size)]
            assert bits(adrs(front, ref)) == bits(loop_adrs(front, ref))
            if m > 1:
                for r in ref:
                    r[-1] = 0.5
                assert bits(adrs(front, ref)) == bits(loop_adrs(front, ref))


class TestComparisonTable:
    def test_small_instance_table(self):
        """Table rows carry finite condition numbers and converged errors."""
        mop = random_quadratic_mop(20, 20, 2, seed=42)
        rows = comparison_table(mop, (0.25, 1.0), TABLE_CFG, np.full(20, 5.5))
        assert len(rows) == 4
        for r in rows:
            assert np.isfinite(r["condition_number"])
            assert r["iterations"] >= 1
            assert r["wall_seconds"] > 0
        frac_rows = [r for r in rows if r["method"] == "moaocfgd"]
        for r in frac_rows:
            assert r["final_error"] < 1e-2

    def test_rows_read_the_uniform_system_and_the_trace_multipliers(self):
        """On the shipped paper instance, each of the 12 rows reports as its
        condition number np.linalg.cond of the hand-summed uniform-weight
        system of its merits, and measures final_error at the multipliers
        of a fresh direction solve on the merit gradients at final_x, bit
        for bit."""
        spec, cfg, _ = parse_config(REPO / "configs" / "paper_quadratic.yaml")
        mop, x0 = spec.instance, spec.starts()[0]
        c = np.zeros(mop.dim)
        uniform = np.full(mop.n_objectives, 1.0 / mop.n_objectives)
        rows = comparison_table(mop, spec.gamma_values, cfg, x0)
        assert len(rows) == 12
        for row in rows:
            reg = "outer" if row["method"] == "mogd" else "diag"
            merit = [regularized(obj, row["gamma"], c, reg) for obj in mop.objectives()]
            system = sum(w * m.hessian(c) for w, m in zip(uniform, merit))
            assert row["condition_number"] == float(np.linalg.cond(system))
            trace = mogd_baseline(merit, x0, cfg)
            assert (row["iterations"], row["termination"]) == (trace.iterations,
                                                               trace.termination)
            lam = solve_direction(np.array([m.gradient(trace.final_x)
                                            for m in merit])).multipliers
            assert trace.final_multipliers.tobytes() == lam.tobytes()
            sol = tikhonov_solve(mop, row["gamma"], lam, c, regularizer=reg)
            assert row["final_error"] == float(np.linalg.norm(trace.final_x - sol.x_tik))

    def test_fractional_row_is_classical_descent_on_the_diag_merit(self):
        """On the shipped paper instance, from the CLI's start and with its
        solver settings, an order-alpha stage of weight gamma runs the
        records and final point of `mogd_baseline` on the diag-regularized
        merits, bit for bit, for every gamma; so the moaocfgd row is that
        baseline, as `comparison_table` now runs it."""
        spec, cfg, _ = parse_config(REPO / "configs" / "paper_quadratic.yaml")
        objectives = spec.instance.objectives()
        x0, c = spec.starts()[0], np.zeros(spec.instance.dim)
        rows = comparison_table(spec.instance, spec.gamma_values, cfg, x0=x0)

        def bits(trace):
            return ([(r.x.tobytes(), r.f_values.tobytes(), r.t_value, r.norm_d, r.eta,
                      r.backtracks) for r in trace.records],
                    trace.final_x.tobytes(), trace.termination)

        for gamma in spec.gamma_values:
            merit = [regularized(obj, gamma, c, "diag") for obj in objectives]
            baseline = mogd_baseline(merit, x0, cfg)
            for alpha in (0.5, 0.9):
                schedule = StageSchedule((descent.Stage(alpha, gamma, cfg.max_iterations),), c)
                stage = run_adaptive(objectives, x0, cfg, schedule)
                assert bits(stage) == bits(baseline), (gamma, alpha)
            row = next(r for r in rows if r["gamma"] == gamma and r["method"] == "moaocfgd")
            assert (row["iterations"], row["termination"]) == (baseline.iterations,
                                                               baseline.termination)

    def test_fractional_conditioning_beats_outer_regularizer(self):
        """Diagonal regularization conditions far better at small gamma."""
        mop = random_quadratic_mop(30, 30, 2, seed=7)
        rows = comparison_table(mop, (0.15,), TABLE_CFG, np.full(30, 3.0))
        gd = next(r for r in rows if r["method"] == "mogd")
        fr = next(r for r in rows if r["method"] == "moaocfgd")
        assert fr["condition_number"] < gd["condition_number"]
