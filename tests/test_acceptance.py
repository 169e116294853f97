"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Every tolerance is pinned here, not configured elsewhere.
"""

import time

import numpy as np
import pytest

from mofgd import (
    SolverConfig,
    StageSchedule,
    armijo_step,
    modified_fractional_gradient,
    mogd_baseline,
    node_stack,
    quadratic_objective,
    random_quadratic_mop,
    run_adaptive,
    solve_direction,
    subgradient_baseline,
    tikhonov_solve,
    verify_rate_theorem5,
    verify_staged_theorem6,
)
from mofgd.problems import quadratic_stack, regularized
from mofgd.fixtures import (
    EXAMPLE1_FRACTIONAL_ALPHA,
    EXAMPLE1_MATRIX,
    EXAMPLE1_OFFSET,
    EXAMPLE1_PAPER_POINT,
    classical_critical_point,
    default_schedule,
    example3_objective,
    fixture_objectives,
    fractional_critical_point,
    recover_terminal,
)
from mofgd.lab import ExperimentSpec, comparison_table, pareto_sweep
from oracles import (
    UnivariateFunction,
    brute_force_direction,
    caputo_derivative_1d,
    caputo_gradient,
    segment_min_norm,
)


def report(n, text):
    print(f"\nPASS: criterion {n} - {text}")


def test_criterion_1_example2_staged_value():
    """Staged alpha = {0.5, 0.7, 0.9} run reaches -2.333 +/- 0.01 in < 1 s."""
    started = time.perf_counter()
    objs = fixture_objectives("example2")
    cfg = SolverConfig(tolerance=1e-8, max_iterations=2000)
    trace = run_adaptive(objs, np.array([1.0, 1.0]), cfg, default_schedule())
    elapsed = time.perf_counter() - started
    value = objs[0].value(trace.final_x)
    assert value == pytest.approx(-2.333, abs=0.01)
    assert elapsed < 1.0
    report(1, f"staged value {value:.6f} (target -2.333 +/- 0.01) in {elapsed:.3f}s")


def test_criterion_2_example1_classical_and_fractional_points():
    """Classical critical point recovered to 1e-4; the order-0.5 point differs."""
    x_ref, f_ref = classical_critical_point(EXAMPLE1_MATRIX, EXAMPLE1_OFFSET)
    np.testing.assert_allclose(x_ref, [-1.0 / 6.0, -13.0 / 6.0], atol=1e-12)

    cfg = SolverConfig(tolerance=1e-8, max_iterations=2000)
    trace = mogd_baseline(fixture_objectives("example1"), np.array([1.0, 1.0]), cfg)
    assert np.linalg.norm(trace.final_x - x_ref) <= 1e-4
    f_final = fixture_objectives("example1")[0].value(trace.final_x)
    assert f_final == pytest.approx(-4.083333, abs=1e-4)
    # The reported coordinates agree with the analytic root at print precision.
    assert np.linalg.norm(np.array([-0.166785, -2.166603]) - x_ref) <= 2e-4

    # Plain-fractional critical point at alpha = 0.5: the terminal consistent
    # with the reported point is recovered, the point is re-verified through
    # the quadrature gradient, and it is far from the classical point.
    c_rec = recover_terminal(EXAMPLE1_MATRIX, EXAMPLE1_OFFSET,
                             EXAMPLE1_FRACTIONAL_ALPHA, EXAMPLE1_PAPER_POINT)
    x_frac = fractional_critical_point(EXAMPLE1_MATRIX, EXAMPLE1_OFFSET,
                                       EXAMPLE1_FRACTIONAL_ALPHA, c_rec)
    np.testing.assert_allclose(x_frac, EXAMPLE1_PAPER_POINT, atol=1e-6)
    obj = quadratic_objective(EXAMPLE1_MATRIX, EXAMPLE1_OFFSET)
    # x_frac lies just below c_rec in its first coordinate: its classical partial.
    stack = node_stack(x_frac, 0.5, c_rec)
    assert [note.startswith("degenerate coordinate: ") for note in stack.notes] == [True]
    descaled = modified_fractional_gradient(obj, stack, 0.0)
    assert np.linalg.norm(descaled) <= 1e-5
    separation = np.linalg.norm(x_frac - x_ref)
    assert separation > 1e-2
    report(2, f"classical {trace.final_x} (f {f_final:.6f}); fractional point "
              f"{x_frac} distinct by {separation:.3f}")


def test_criterion_3_example3_nonsmooth_iterations():
    """Staged run reaches f <= 1e-3 at the origin in fewer steps than subgradient."""
    obj = example3_objective()
    x0 = np.array([3.0, 3.0])
    cfg = SolverConfig(tolerance=1e-6, max_iterations=2000)
    trace = run_adaptive([obj], x0, cfg, default_schedule())
    xs = [r.x for r in trace.records] + [trace.final_x]
    frac_hits = [k for k, x in enumerate(xs) if obj.value(x) <= 1e-3]
    assert frac_hits, "staged run never reached f <= 1e-3"
    frac_iters = frac_hits[0]
    x_at_hit = xs[frac_iters]
    assert np.linalg.norm(x_at_hit) <= np.sqrt(1e-3) + 1e-6

    sub_iters = subgradient_baseline(obj, x0, steps=2000)
    assert sub_iters is not None, "subgradient run never reached f <= 1e-3"
    assert frac_iters < sub_iters
    report(3, f"fractional {frac_iters} vs subgradient {sub_iters} iterations to f <= 1e-3")


def _rate_check_seeds(count=20, gamma=0.02):
    """First `count` seeds whose effective matrix has kappa in [9, 500].

    The conditioning filter keeps runs long enough that the last-100-ratio
    statistic is meaningful (a 30-iteration run has no 100-iteration tail).
    """
    lam = np.array([0.5, 0.5])
    picked, seed = [], 0
    while len(picked) < count:
        mop = random_quadratic_mop(5, 6, 2, seed=seed)
        system = sum(lam[j] * (mop.gram[j] + gamma * np.diag(mop.rtilde[j] ** 2))
                     for j in range(2))
        s = np.linalg.svd(system, compute_uv=False)
        if 9.0 <= s[0] / s[-1] <= 500.0:
            picked.append(seed)
        seed += 1
    return picked


def test_criterion_4_theorem5_fixed_point():
    """20 seeded SPD instances: frozen-lambda fixed-step lands on x_Tik."""
    started = time.perf_counter()
    gamma = 0.02
    lam = np.array([0.5, 0.5])
    cfg = SolverConfig(eta=1.0)
    worst_gap, worst_std = 0.0, 0.0
    for seed in _rate_check_seeds():
        mop = random_quadratic_mop(5, 6, 2, seed=seed)
        rng = np.random.default_rng(seed)
        x0 = mop.x_star + 30.0 * rng.standard_normal(5)
        rep = verify_rate_theorem5(mop, cfg, gamma, np.zeros(5), lam, x0=x0)
        valid = rep.ratios[~np.isnan(rep.ratios)]
        assert rep.final_error <= 1e-6
        assert rep.monotone
        assert not rep.rate_violation
        assert valid.size >= 100
        rel_std = np.std(valid[-100:]) / np.mean(valid[-100:])
        assert rel_std < 0.05
        worst_gap = max(worst_gap, rep.final_error)
        worst_std = max(worst_std, rel_std)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(4, f"20 instances: worst fixed-point gap {worst_gap:.2e}, worst "
              f"ratio rel-std {worst_std:.2e}, {elapsed:.2f}s total")


def test_criterion_5_theorem6_staged_bound():
    """Stage recursion and the final C*gamma bound hold on seeded instances."""
    gammas = [0.5, 0.1, 0.01, 0.001]
    for seed in (101, 202, 303, 404, 505):
        mop = random_quadratic_mop(5, 8, 2, seed=seed)
        sched = StageSchedule.from_gammas([0.5] * 4, gammas, [400] * 4,
                                          terminal=np.zeros(5))
        cfg = SolverConfig(eta=1.0, max_iterations=400)
        bound, rep = verify_staged_theorem6(mop, sched, cfg)
        for s in range(3):
            assert bound.epsilon[s + 1] <= bound.R[s] * bound.epsilon[s] + bound.e[s] + 1e-8
        assert rep["final_error"] <= 1.1 * bound.c_const * gammas[-1]
        assert rep["lipschitz_ok"]
    report(5, "5 instances: recursion, Lipschitz drift and final C*gamma bound hold")


def test_criterion_6_subproblem_oracles():
    """500 random duals vs lattice brute force (res 500) and the m=2 closed form."""
    rng = np.random.default_rng(2024)
    sizes = [1] * 50 + [2] * 255 + [3] * 170 + [4] * 25
    rng.shuffle(sizes)
    worst_bf, worst_cf, worst_kkt = 0.0, 0.0, 0.0
    for m in sizes:
        n = int(rng.integers(1, 6))
        gs = [rng.uniform(-2, 2, n) for _ in range(m)]
        res = solve_direction(gs)
        dual = 0.5 * res.norm ** 2
        brute = brute_force_direction(gs, 500)
        gap_bf = abs(0.5 * brute.norm ** 2 - dual)
        assert gap_bf <= 1e-4
        worst_bf = max(worst_bf, gap_bf)
        if m == 2:
            closed = segment_min_norm(gs[0], gs[1])
            gap_cf = abs(0.5 * closed.norm ** 2 - dual)
            assert gap_cf <= 1e-9
            worst_cf = max(worst_cf, gap_cf)
        assert res.kkt_residual <= 1e-8
        worst_kkt = max(worst_kkt, res.kkt_residual)
    report(6, f"500 instances: worst brute-force gap {worst_bf:.2e}, worst m=2 "
              f"gap {worst_cf:.2e}, worst KKT residual {worst_kkt:.2e}")


def test_criterion_7_fractional_kernel():
    """Monomial closed forms vs singular quadrature; alpha -> 1 recovery."""
    worst = 0.0
    for p in (1, 2, 3):
        f = UnivariateFunction(
            value=lambda t, p=p: np.asarray(t, dtype=float) ** p,
            deriv=lambda t, p=p: p * np.asarray(t, dtype=float) ** (p - 1),
            deriv2=lambda t, p=p: p * (p - 1) * np.asarray(t, dtype=float) ** max(p - 2, 0),
        )
        for alpha in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            for xc in (0.1, 1.0, 10.0):
                import math
                closed = math.gamma(p + 1) / math.gamma(p + 1 - alpha) * xc ** (p - alpha)
                quad = caputo_derivative_1d(f, xc, alpha, 0.0)
                err = abs(closed - quad) / (1.0 + abs(closed))
                assert err <= 1e-8
                worst = max(worst, err)

    mop = random_quadratic_mop(4, 6, 1, seed=18)
    obj = quadratic_objective(mop.gram[0], mop.offsets[0])
    x = np.array([0.9, 1.7, 0.4, 2.2])
    classical = mop.gram[0] @ x + mop.offsets[0]
    frac = caputo_gradient(obj, x, 1.0 - 1e-3, np.zeros(4))
    rel = np.linalg.norm(frac - classical) / np.linalg.norm(classical)
    assert rel <= 5e-3
    report(7, f"monomial grid worst rel err {worst:.2e}; alpha->1 rel dev {rel:.2e}")


def test_criterion_8_armijo_contract():
    """1,000 seeded steps: sufficient decrease for every objective, <= 60 halvings."""
    rng = np.random.default_rng(99)
    checked = 0
    max_backtracks = 0
    cfg = SolverConfig(sigma=0.1, backtrack=0.5)

    def one_step(objectives, grads, x):
        nonlocal checked, max_backtracks
        direction = solve_direction(grads)
        if direction.t_value >= -1e-12:
            return False
        f0 = [obj.value(x) for obj in objectives]
        eta, x_next, backtracks, _ = armijo_step(objectives, x,
                                                 direction.direction, direction.t_value, cfg, f0,
                                                 direction.slopes,
                                                 quadratic_stack(objectives, x)[0])
        for j, obj in enumerate(objectives):
            assert obj.value(x_next) <= f0[j] + cfg.sigma * eta * direction.t_value + 1e-12
        assert backtracks <= 60
        max_backtracks = max(max_backtracks, backtracks)
        checked += 1
        return True

    # Regularized quadratic pairs driven by their matching effective gradients.
    while checked < 700:
        n = int(rng.integers(2, 7))
        mop = random_quadratic_mop(n, n + 3, 2, seed=int(rng.integers(0, 10 ** 6)))
        gamma = float(rng.choice([0.0, 0.1, 0.5]))
        merit = [regularized(o, gamma, np.zeros(n)) for o in mop.objectives()]
        x = rng.normal(size=n) * 3.0
        grads = [m.gradient(x) for m in merit]
        one_step(merit, grads, x)

    # Classical steps on raw objectives.
    while checked < 900:
        n = int(rng.integers(2, 5))
        mop = random_quadratic_mop(n, n + 2, 2, seed=int(rng.integers(0, 10 ** 6)))
        objs = mop.objectives()
        x = rng.normal(size=n) * 2.0
        grads = [objs[j].gradient(x) for j in range(2)]
        one_step(objs, grads, x)

    # Fractional steps on the nonsmooth fixture (memory terminal at zero).
    obj3 = example3_objective()
    while checked < 1000:
        x = rng.uniform(0.3, 4.0, 2)
        alpha = float(rng.choice([0.5, 0.7, 0.9]))
        stack = node_stack(x, alpha, np.zeros(2), obj3.kink_locator)
        grads = [modified_fractional_gradient(obj3, stack, 0.5)]
        one_step([obj3], grads, x)

    assert checked == 1000
    report(8, f"1000 accepted steps verified; max backtracks {max_backtracks}")


def test_criterion_9_comparison_table():
    """Seeded n = m_data = 100 table: finite kappas, fractional iteration wins."""
    started = time.perf_counter()
    mop = random_quadratic_mop(100, 100, 2, seed=42)
    gammas = (0.15, 0.25, 0.5, 0.75, 1.0, 10.0)
    rows = comparison_table(mop, gammas, SolverConfig(tolerance=1e-4, max_iterations=2000),
                            np.full(100, 5.5))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    assert all(np.isfinite(r["condition_number"]) for r in rows)
    wins = 0
    for g in gammas:
        fr = next(r for r in rows if r["gamma"] == g and r["method"] == "moaocfgd")
        gd = next(r for r in rows if r["gamma"] == g and r["method"] == "mogd")
        wins += fr["iterations"] <= gd["iterations"]
    assert wins >= 4
    report(9, f"table in {elapsed:.1f}s; fractional in no more iterations on {wins}/6 gammas; "
              "condition numbers all finite")


def test_criterion_10_pareto_front_criticality():
    """Every nondominated point of a 100-start sweep satisfies ||d|| < 1e-4."""
    spec = ExperimentSpec(instance="example2_pair", start_grid=((-2.0, -3.0), (2.0, 1.0), 100))
    cfg = SolverConfig(tolerance=1e-5, max_iterations=3000)
    front = pareto_sweep(spec, cfg, default_schedule())
    assert len(front) >= 2
    worst = max(p.norm_d for p in front)
    assert worst < 1e-4
    report(10, f"front of {len(front)} points, worst ||d|| = {worst:.2e}")
