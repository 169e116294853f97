"""Tests for baselines, theorem verification, sweeps, table and ADRS."""

import numpy as np
import pytest

import mofgd.lab as lab
from mofgd import (
    DirectionAccuracyError,
    ExperimentSpec,
    IterationTrace,
    SolverConfig,
    StageSchedule,
    adrs,
    comparison_table,
    mogd_baseline,
    random_quadratic_mop,
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
    EXAMPLE2_MATRIX,
    EXAMPLE2_OFFSET,
)
from mofgd.lab import pareto_sweep
from mofgd.problems import QuadraticMop
from oracles import loop_adrs


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
        obj = example3_objective()
        trace = subgradient_baseline(obj, np.array([3.0, 3.0]), steps=2000)
        assert trace.termination == "tolerance"

    def test_start_at_optimum_stops_immediately(self):
        obj = example3_objective()
        trace = subgradient_baseline(obj, np.zeros(2), steps=100)
        assert trace.termination == "tolerance"
        assert trace.iterations == 0

    def test_slower_than_staged_fractional(self):
        """The memory-driven method needs strictly fewer iterations."""
        from mofgd.descent import run_adaptive
        obj = example3_objective()
        sub = subgradient_baseline(obj, np.array([3.0, 3.0]), steps=2000)
        assert sub.termination == "tolerance"
        sub_hit = sub.iterations
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
        assert rep.fixed_point_gap <= 1e-6
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


class TestParetoSweep:
    def test_single_start(self):
        spec = ExperimentSpec(instance="example2_pair", schedule=default_schedule(),
                              start_grid=((1.0, 1.0), (2.0, 2.0), 1))
        front = pareto_sweep(spec)
        assert len(front) <= 1

    def test_duplicates_collapse(self):
        """All starts of a single-objective problem land on one minimizer."""
        spec = ExperimentSpec(instance="example2", schedule=default_schedule(),
                              start_grid=((0.0, 0.0), (2.0, 2.0), 5))
        front = pareto_sweep(spec)
        assert len(front) == 1

    def test_exactly_critical_start_reports_zero_norm(self):
        """A start whose direction is exactly d = 0 has norm_d 0.0, not NaN."""
        eye = np.eye(2)
        spec = ExperimentSpec(QuadraticMop((eye, 2.0 * eye), (np.zeros(2), np.zeros(2))),
                              start_grid=((-1.0, -1.0), (1.0, 1.0), 3), method="mogd")
        failures = []
        front = pareto_sweep(spec, failures=failures)
        assert failures == []
        assert front and [p.norm_d for p in front] == [0.0] * len(front)

    def test_example2_pair_front(self):
        """100 starts trace the efficient curve; every point is critical."""
        spec = ExperimentSpec(instance="example2_pair", schedule=default_schedule(),
                              start_grid=((-2.0, -3.0), (2.0, 1.0), 100))
        cfg = SolverConfig(tolerance=1e-5, max_iterations=3000)
        front = pareto_sweep(spec, cfg)
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
    return [lab.FrontPoint(objectives=np.array(f, dtype=float), start_index=i, norm_d=0.0)
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
        rows = comparison_table(mop, (0.25, 1.0), x0=np.full(20, 5.5))
        assert len(rows) == 4
        for r in rows:
            assert np.isfinite(r["condition_number"])
            assert r["iterations"] >= 1
            assert r["wall_seconds"] > 0
        frac_rows = [r for r in rows if r["method"] == "moaocfgd"]
        for r in frac_rows:
            assert r["final_error"] < 1e-2

    def test_final_multipliers_fallback_and_propagation(self, monkeypatch):
        """Uniform multipliers only for non-finite gradients or an inaccurate
        subproblem; any other error propagates."""
        objs = random_quadratic_mop(3, 5, 2, seed=4).objectives()
        trace = IterationTrace(final_x=np.ones(3))
        exact = lab._final_multipliers(objs, trace, 2)
        assert exact.sum() == pytest.approx(1.0)
        assert not np.allclose(exact, 0.5)

        diverged = IterationTrace(final_x=np.full(3, np.inf))
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(lab._final_multipliers(objs, diverged, 2), [0.5, 0.5])

        def inaccurate(grads):
            raise DirectionAccuracyError("gap", solve_direction(grads))

        monkeypatch.setattr(lab, "solve_direction", inaccurate)
        np.testing.assert_array_equal(lab._final_multipliers(objs, trace, 2), [0.5, 0.5])

        def broken(grads):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(lab, "solve_direction", broken)
        with pytest.raises(np.linalg.LinAlgError):
            lab._final_multipliers(objs, trace, 2)

    def test_fractional_conditioning_beats_outer_regularizer(self):
        """Diagonal regularization conditions far better at small gamma."""
        mop = random_quadratic_mop(30, 30, 2, seed=7)
        rows = comparison_table(mop, (0.15,), x0=np.full(30, 3.0))
        gd = next(r for r in rows if r["method"] == "mogd")
        fr = next(r for r in rows if r["method"] == "moaocfgd")
        assert fr["condition_number"] < gd["condition_number"]
