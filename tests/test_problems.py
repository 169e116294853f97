"""Tests for problem models, the quadratic family and Tikhonov solutions."""

import json

import numpy as np
import pytest

from mofgd import (
    ObjectiveModel,
    QuadraticMop,
    SingularSystemError,
    quadratic_objective,
    random_quadratic_mop,
    save_mop,
    tikhonov_solve,
)
from mofgd.fixtures import _example3_kinks, example3_objective
from mofgd.problems import regularized
from oracles import dense_regularized


def _stack_cases():
    """(name, objective) for every in-repo constructor of an ObjectiveModel."""
    mop = random_quadratic_mop(3, 5, 2, seed=4)
    quad = quadratic_objective(mop.gram[0], mop.offsets[0])
    c = np.array([0.5, -1.0, 2.0])
    return [
        ("quadratic_objective", quad),
        ("regularized_diag", regularized(quad, 0.3, c, "diag")),
        ("regularized_outer", regularized(quad, 0.3, c, "outer")),
        ("mop_objectives", mop.objectives()[1]),
        ("mop_objectives_n64", random_quadratic_mop(64, 70, 1, seed=8).objectives()[0]),
        ("piecewise_example3", example3_objective()),
    ]


class TestObjectiveModel:
    def test_gradient_validation_rejects_wrong_gradient(self):
        with pytest.raises(ValueError, match="finite differences"):
            ObjectiveModel(
                value=lambda x: float(x @ x),
                gradient=lambda x: 3.0 * x,  # wrong: should be 2x
                kind="smooth",
            )

    def test_hessian_validation_rejects_wrong_quadratic_hessian(self):
        """The line search expands a quadratic on its Hessian, so a Hessian
        off by a factor of 2 is rejected at construction."""
        A = np.array([[2.0, 1.0], [1.0, 3.0]])

        def quadratic(hessian_matrix):
            return ObjectiveModel(
                value=lambda x: float(0.5 * x @ A @ x),
                gradient=lambda x: np.asarray(x) @ A,
                hessian=lambda x: np.broadcast_to(hessian_matrix, np.shape(x)[:-1] + A.shape),
                kind="quadratic")

        quadratic(A)
        with pytest.raises(ValueError, match="Hessian disagrees"):
            quadratic(2.0 * A)

    def test_quadratic_requires_hessian(self):
        with pytest.raises(ValueError, match="Hessian"):
            ObjectiveModel(value=lambda x: 0.0, gradient=lambda x: np.zeros(2),
                           kind="quadratic")

    def test_piecewise_requires_kink_locator(self):
        """Undeclared kinks would be integrated across silently, so a
        piecewise objective without a locator is rejected."""
        with pytest.raises(ValueError, match="kink_locator"):
            ObjectiveModel(value=lambda x: float(np.abs(x).max()),
                           gradient=lambda x: np.sign(x) * (np.abs(x) == np.abs(x).max()),
                           kind="piecewise")

    def test_quadratic_objective_roundtrip(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([-1.0, 0.5])
        obj = quadratic_objective(A, b, const=2.0)
        x = np.array([0.3, -0.7])
        assert obj.value(x) == pytest.approx(0.5 * x @ A @ x + b @ x + 2.0)
        np.testing.assert_allclose(obj.gradient(x), A @ x + b)
        np.testing.assert_allclose(obj.hessian(x), A)


class TestStackContract:
    """gradient/hessian answer a (k, n) stack row by row, as per-point calls do."""

    @pytest.mark.parametrize("name,obj", _stack_cases(), ids=[n for n, _ in _stack_cases()])
    def test_stacked_rows_match_per_point_calls(self, name, obj):
        rng = np.random.default_rng(5)
        n = obj.dim
        for k in sorted({n, 7}):  # k == n catches A @ Z mixing the rows of a square stack
            z = rng.uniform(-3.0, 3.0, (k, n))
            g, h = obj.gradient(z), obj.hessian(z)
            assert np.shape(g) == (k, n) and np.shape(h) == (k, n, n)
            for row, gr, hr in zip(z, g, h):
                np.testing.assert_allclose(gr, obj.gradient(row), rtol=1e-14,
                                           atol=1e-14 * np.abs(gr).max())
                np.testing.assert_allclose(hr, obj.hessian(row), rtol=1e-14,
                                           atol=1e-14 * np.abs(hr).max())

    def test_example3_stack_selects_the_active_piece_per_row(self):
        obj = example3_objective()
        z = np.array([[4.0, 3.0], [-1.0, 2.0], [0.5, 0.5]])  # quad, quad, linear
        np.testing.assert_array_equal(obj.gradient(z), [[8.0, 6.0], [-2.0, 4.0], [5.0, 1.0]])
        np.testing.assert_array_equal(obj.hessian(z)[2], np.zeros((2, 2)))

    def test_point_only_gradient_is_rejected_at_construction(self):
        """The finite-difference check runs on a stack, so a gradient that
        reads x[0] as the first coordinate fails it."""
        with pytest.raises(ValueError, match="stack"):
            ObjectiveModel(value=lambda x: float(x[0] ** 2 + x[1] ** 2),
                           gradient=lambda x: np.array([2.0 * x[0], 2.0 * x[1]]),
                           kind="smooth")

    def test_example3_subgradient_averages_tied_pieces(self):
        obj = example3_objective()
        np.testing.assert_array_equal(obj.subgradient(np.zeros(2)), [2.5, 0.5])
        x = np.array([3.0, 1.0])
        np.testing.assert_array_equal(obj.subgradient(x), obj.gradient(x))


class TestRegularized:
    @pytest.mark.parametrize("reg", ["diag", "outer"])
    def test_hessian_is_built_once(self, reg):
        """One point gets the sum H + gamma R bit for bit, the same array at
        every point; a stack gets it in every row."""
        mop = random_quadratic_mop(5, 8, 1, seed=6)
        obj, gamma, c = mop.objectives()[0], 0.3, np.linspace(-1.0, 1.0, 5)
        h = np.diag(mop.gram[0])
        reg_matrix = np.diag(h) if reg == "diag" else np.outer(np.sqrt(h), np.sqrt(h))
        merit = regularized(obj, gamma, c, reg)
        x = np.array([0.3, -0.2, 1.5, 0.0, -2.0])
        np.testing.assert_array_equal(merit.hessian(x), obj.hessian(x) + gamma * reg_matrix)
        assert merit.hessian(x) is merit.hessian(c)
        stack = merit.hessian(np.random.default_rng(2).normal(size=(3, 5)))
        assert stack.shape == (3, 5, 5)
        for row in stack:
            np.testing.assert_array_equal(row, merit.hessian(x))


class TestRegularizedDenseReference:
    """The merit equals the dense construction H + gamma R: same gradient
    and value bit for bit, and the same Hessian under == (the dense sum
    turns a -0.0 off-diagonal entry into +0.0)."""

    @pytest.mark.parametrize("reg", ["diag", "outer"])
    @pytest.mark.parametrize("n", [2, 100])
    @pytest.mark.parametrize("vector_c", [False, True])
    def test_matches_dense_construction(self, reg, n, vector_c):
        rng = np.random.default_rng(n)
        mop = random_quadratic_mop(n, n + 3, 2, seed=n)
        signed_zero = np.where(np.eye(n, dtype=bool), rng.uniform(1.0, 2.0, n), -0.0)
        c = rng.uniform(-1.0, 1.0, n) if vector_c else 0.7
        x, stack = rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, (4, n))
        for obj in mop.objectives() + [quadratic_objective(signed_zero, np.ones(n))]:
            for gamma in (0.5, 1e-3):
                merit, dense = regularized(obj, gamma, c, reg), dense_regularized(obj, gamma, c, reg)
                assert (merit.hessian(x) == dense.hessian(x)).all()
                assert (merit.hessian(stack) == dense.hessian(stack)).all()
                for point in (x, stack):
                    assert merit.gradient(point).tobytes() == dense.gradient(point).tobytes()
                assert np.float64(merit.value(x)).tobytes() == np.float64(dense.value(x)).tobytes()


class TestExample3Kinks:
    """Kink abscissae against a 50-digit evaluation of the quadratic roots."""

    @staticmethod
    def exact_roots(x, i):
        from decimal import Decimal, localcontext
        with localcontext() as ctx:
            ctx.prec = 50
            other = Decimal(float(x[1 - i]))
            b = Decimal(-5) if i == 0 else Decimal(-1)
            c = other * other - other if i == 0 else other * other - 5 * other
            r = (b * b - 4 * c).sqrt()
            return sorted(((-b - r) / 2, (-b + r) / 2))

    @pytest.mark.parametrize("x", [
        (5.737771369140887e-13, 5.737077479750496e-13),
        (1e-9, -2e-10), (2e-17, 7e-18), (3.0, 1.0), (0.02, 2.25), (4.5, -1.2),
    ])
    def test_roots_match_decimal_reference(self, x):
        x = np.array(x)
        for i in range(2):
            got = _example3_kinks(x, i, -np.inf, np.inf)
            want = self.exact_roots(x, i)
            assert len(got) == 2
            for g, w in zip(got, want):
                assert abs(g - float(w)) <= 1e-12 * abs(float(w))


class TestRandomQuadraticMop:
    def test_deterministic(self):
        """Identical seed gives an identical instance, bit for bit."""
        a = random_quadratic_mop(2, 2, 2, seed=0)
        b = random_quadratic_mop(2, 2, 2, seed=0)
        for Wa, Wb in zip(a.factors, b.factors):
            assert np.array_equal(Wa, Wb)
        for ya, yb in zip(a.targets, b.targets):
            assert np.array_equal(ya, yb)

    def test_gram_psd(self):
        mop = random_quadratic_mop(5, 3, 2, seed=9)
        for A in mop.gram:
            np.testing.assert_allclose(A, A.T)
            assert np.linalg.eigvalsh(A).min() >= -1e-12

    def test_rtilde_squares_to_gram_diagonal(self):
        mop = random_quadratic_mop(4, 7, 3, seed=1)
        for A, r in zip(mop.gram, mop.rtilde):
            assert np.all(r >= 0)
            np.testing.assert_allclose(r ** 2, np.diag(A), rtol=1e-14)

    def test_large_instance_condition_snapshot(self):
        """Seeded n=100 instance: kappa at gamma=1 is finite and reproducible."""
        mop = random_quadratic_mop(100, 100, 2, seed=42)
        lam = np.array([0.5, 0.5])
        sol = tikhonov_solve(mop, 1.0, lam, np.zeros(100))
        assert np.isfinite(sol.kappa)
        again = tikhonov_solve(random_quadratic_mop(100, 100, 2, seed=42),
                               1.0, lam, np.zeros(100))
        assert sol.kappa == pytest.approx(again.kappa, rel=1e-12)

    def test_targets_consistent_with_ground_truth(self):
        mop = random_quadratic_mop(6, 8, 2, seed=4)
        for W, y in zip(mop.factors, mop.targets):
            np.testing.assert_allclose(W.T @ mop.x_star, y)


def quadratic_effective_gradient(mop: QuadraticMop, j: int, gamma: float, c,
                                 x: np.ndarray) -> np.ndarray:
    """Independent reference: the closed form of the modified fractional
    gradient of objective j,

    g_j(x) = (A_j x + b_j) + gamma * diag(diag(A_j)) (x - c)

    with gamma = beta - (1-alpha)/(2-alpha) the induced regularizer weight
    and diag(A_j) = rtilde_j^2.
    """
    x = np.asarray(x, dtype=float)
    pull = gamma * mop.rtilde[j] ** 2 * (x - np.broadcast_to(c, x.shape))
    return mop.gram[j] @ x + mop.offsets[j] + pull


class TestEffectiveGradient:
    def test_zero_at_tikhonov_solution(self):
        """Weighted sum of effective gradients vanishes at x_tik (fixed point)."""
        mop = random_quadratic_mop(5, 8, 2, seed=13)
        lam = np.array([0.4, 0.6])
        gamma = 0.3
        sol = tikhonov_solve(mop, gamma, lam, np.zeros(5))
        total = sum(lam[j] * quadratic_effective_gradient(mop, j, gamma, 0.0, sol.x_tik)
                    for j in range(2))
        assert np.linalg.norm(total) <= 1e-8 * (1.0 + np.linalg.norm(sol.x_tik))

    def test_classical_when_gamma_zero(self):
        mop = random_quadratic_mop(3, 5, 2, seed=8)
        x = np.array([0.2, -0.4, 0.9])
        for j in range(2):
            np.testing.assert_allclose(
                quadratic_effective_gradient(mop, j, 0.0, 0.0, x),
                mop.gram[j] @ x + mop.offsets[j],
            )

    def test_affine_in_x(self):
        """g_j(x) - g_j(z) = A_eff (x - z): the map is affine."""
        mop = random_quadratic_mop(4, 6, 2, seed=3)
        gamma = 0.7
        rng = np.random.default_rng(0)
        for j in range(2):
            a_eff = mop.gram[j] + gamma * np.diag(mop.rtilde[j] ** 2)
            for _ in range(5):
                x, z = rng.normal(size=4), rng.normal(size=4)
                lhs = (quadratic_effective_gradient(mop, j, gamma, 0.0, x)
                       - quadratic_effective_gradient(mop, j, gamma, 0.0, z))
                np.testing.assert_allclose(lhs, a_eff @ (x - z), atol=1e-10)


class TestTikhonovSolve:
    def test_gamma_zero_recovers_ground_truth(self):
        mop = random_quadratic_mop(5, 8, 2, seed=21)
        lam = np.array([0.5, 0.5])
        sol = tikhonov_solve(mop, 0.0, lam, np.zeros(5))
        np.testing.assert_allclose(sol.x_tik, mop.x_star, atol=1e-8)

    def test_huge_gamma_pulls_to_terminal(self):
        mop = random_quadratic_mop(4, 6, 2, seed=22)
        c = np.array([0.5, -0.5, 1.0, 0.0])
        sol = tikhonov_solve(mop, 1e8, np.array([0.5, 0.5]), c)
        assert np.linalg.norm(sol.x_tik - c) <= 1e-4

    def test_hand_solved_diagonal_instance(self):
        """W = I, x* = (1,1), c = 0, gamma = 1 gives x_tik = (0.5, 0.5)."""
        mop = QuadraticMop(factors=(np.eye(2),), targets=(np.ones(2),),
                           x_star=np.ones(2))
        sol = tikhonov_solve(mop, 1.0, np.array([1.0]), np.zeros(2))
        np.testing.assert_allclose(sol.x_tik, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(sol.a_matrix, 2.0 * np.eye(2))
        assert sol.kappa == pytest.approx(1.0)

    def test_monotone_shrink_toward_terminal(self):
        """||x_tik(gamma) - c|| is nonincreasing in gamma on SPD instances."""
        mop = random_quadratic_mop(5, 10, 2, seed=30)
        lam = np.array([0.5, 0.5])
        c = np.zeros(5)
        norms = [np.linalg.norm(tikhonov_solve(mop, g, lam, c).x_tik - c)
                 for g in (0.0, 0.05, 0.2, 1.0, 5.0, 50.0)]
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-10

    def test_singular_at_gamma_zero(self):
        """Rank-deficient Gram sum with gamma = 0 raises a singularity error."""
        W = np.zeros((3, 2))
        W[0, 0] = 1.0
        W[1, 1] = 1.0
        mop = QuadraticMop(factors=(W,), targets=(np.zeros(2),),
                           x_star=np.zeros(3))
        with pytest.raises(SingularSystemError):
            tikhonov_solve(mop, 0.0, np.array([1.0]), np.zeros(3))

    def test_residual_check_raises_typed_error(self, monkeypatch):
        """An inaccurate inner solve trips the residual check, even under -O."""
        mop = random_quadratic_mop(4, 6, 2, seed=17)
        exact = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: exact(a, b) + 1e-3)
        with pytest.raises(SingularSystemError, match="residual"):
            tikhonov_solve(mop, 0.5, np.array([0.5, 0.5]), np.zeros(4))

    def test_outer_variant_differs(self):
        """Both variants solve the stage-merit system, bit for bit."""
        mop = random_quadratic_mop(4, 6, 2, seed=17)
        lam, c = np.array([0.5, 0.5]), np.zeros(4)
        sols = {}
        for reg in ("diag", "outer"):
            sols[reg] = tikhonov_solve(mop, 0.5, lam, c, regularizer=reg)
            merit = [regularized(o, 0.5, c, reg) for o in mop.objectives()]
            system = sum(w * m.hessian(c) for w, m in zip(lam, merit))
            assert np.array_equal(sols[reg].a_matrix, system)
        assert not np.allclose(sols["diag"].x_tik, sols["outer"].x_tik)

    def test_critical_point_without_common_zero(self):
        """Objectives with no common zero: x_tik is still the critical point
        of the weighted stage merit."""
        rng = np.random.default_rng(5)
        mop = QuadraticMop(factors=(rng.uniform(-1, 1, (4, 6)), rng.uniform(-1, 1, (4, 6))),
                           targets=(rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6)))
        lam, c, gamma = np.array([0.3, 0.7]), np.full(4, 0.2), 0.4
        for reg in ("diag", "outer"):
            sol = tikhonov_solve(mop, gamma, lam, c, regularizer=reg)
            merit = [regularized(o, gamma, c, reg) for o in mop.objectives()]
            residual = sum(w * m.gradient(sol.x_tik) for w, m in zip(lam, merit))
            assert np.linalg.norm(residual) <= 1e-8 * (1.0 + np.linalg.norm(sol.x_tik))

    def test_bad_multipliers_rejected(self):
        mop = random_quadratic_mop(3, 4, 2, seed=2)
        with pytest.raises(ValueError, match="simplex"):
            tikhonov_solve(mop, 0.1, np.array([0.7, 0.7]), np.zeros(3))


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        """A plain JSON reader rebuilds the saved instance exactly."""
        mop = random_quadratic_mop(4, 5, 2, seed=77)
        path = tmp_path / "instance.json"
        save_mop(mop, path, terminal=np.zeros(4))
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["format"] == "mofgd-quadratic-mop/1"
        assert (doc["n"], doc["m"], doc["m_data"]) == (4, 2, [5, 5])
        assert doc["c"] == [0.0] * 4
        loaded = QuadraticMop(factors=tuple(np.array(W) for W in doc["W"]),
                              targets=tuple(np.array(y) for y in doc["y"]),
                              x_star=np.array(doc["x_star"]), seed=doc["seed"])
        assert loaded.seed == 77
        for name in ("factors", "targets", "gram", "offsets", "rtilde"):
            for a, b in zip(getattr(mop, name), getattr(loaded, name), strict=True):
                np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(mop.x_star, loaded.x_star)
