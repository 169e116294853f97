"""Tests for the Caputo derivative kernel and fractional gradients."""

import math

import numpy as np
import pytest

from mofgd import (
    modified_fractional_gradient,
    quadratic_objective,
    random_quadratic_mop,
)
from mofgd.fixtures import example3_objective
from mofgd.fractional import NODES_PER_SEGMENT, _gauss_rule
from oracles import (
    CaputoDomainError,
    QuadratureAccuracyError,
    UnivariateFunction,
    UnsupportedOrderError,
    caputo_derivative_1d,
    caputo_derivative_poly,
    caputo_gradient,
    modified_fractional_gradient_loop,
)


def monomial(p):
    return UnivariateFunction(
        value=lambda t: np.asarray(t, dtype=float) ** p,
        deriv=lambda t: p * np.asarray(t, dtype=float) ** (p - 1),
        deriv2=lambda t: p * (p - 1) * np.asarray(t, dtype=float) ** max(p - 2, 0),
    )


def monomial_rule(p, alpha, xc):
    return math.gamma(p + 1) / math.gamma(p + 1 - alpha) * xc ** (p - alpha)


class TestCaputoDerivative1d:
    def test_constant_is_zero(self):
        """The fractional derivative of a constant vanishes."""
        f = UnivariateFunction(value=lambda t: 3.0 * np.ones_like(np.asarray(t, dtype=float)),
                               deriv=lambda t: np.zeros_like(np.asarray(t, dtype=float)))
        assert caputo_derivative_1d(f, 2.0, 0.5, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_linear_half_order(self):
        """D^0.5 t at x=1, c=0 equals 1/Gamma(1.5) ~ 1.1283791671."""
        got = caputo_derivative_1d(monomial(1), 1.0, 0.5, 0.0)
        assert got == pytest.approx(1.1283791670955126, rel=1e-12)

    def test_square_half_order(self):
        """D^0.5 t^2 at x=1, c=0 equals Gamma(3)/Gamma(2.5) ~ 1.5045055561."""
        got = caputo_derivative_1d(monomial(2), 1.0, 0.5, 0.0)
        assert got == pytest.approx(1.5045055561273502, rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("xc", [0.1, 1.0, 10.0])
    def test_monomial_rule_agreement(self, p, alpha, xc):
        """Quadrature vs closed form across the (p, alpha, x-c) grid."""
        closed = monomial_rule(p, alpha, xc)
        quad = caputo_derivative_1d(monomial(p), xc, alpha, 0.0)
        assert abs(closed - quad) <= 1e-8 * (1.0 + abs(closed))

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_order_between_one_and_two(self, alpha):
        """Orders in (1,2) integrate f'' and obey the monomial rule."""
        got = caputo_derivative_1d(monomial(3), 2.0, 1.0 + alpha, 0.0)
        assert got == pytest.approx(monomial_rule(3, 1.0 + alpha, 2.0), rel=1e-10)

    def test_linearity(self):
        """D(a f + b g) = a D(f) + b D(g) for polynomials."""
        a, b = 2.5, -1.25
        combo = UnivariateFunction(
            value=lambda t: a * np.asarray(t, dtype=float) + b * np.asarray(t, dtype=float) ** 2,
            deriv=lambda t: a + 2 * b * np.asarray(t, dtype=float),
            deriv2=lambda t: 2 * b * np.ones_like(np.asarray(t, dtype=float)),
        )
        lhs = caputo_derivative_1d(combo, 1.5, 0.3, 0.0)
        rhs = (a * caputo_derivative_1d(monomial(1), 1.5, 0.3, 0.0)
               + b * caputo_derivative_1d(monomial(2), 1.5, 0.3, 0.0))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(CaputoDomainError):
            caputo_derivative_1d(monomial(1), 0.5, 0.5, 1.0)

    @pytest.mark.parametrize("order", [0.0, 1.0, 2.0, 2.5, -0.5])
    def test_unsupported_order(self, order):
        with pytest.raises(UnsupportedOrderError):
            caputo_derivative_1d(monomial(1), 1.0, order, 0.0)

    def test_callable_error_propagates_without_retry(self):
        """A ValueError from a vectorized callable is raised, not retried per node."""
        calls = []

        def deriv(t):
            calls.append(np.shape(t))
            raise ValueError("bad abscissae")

        f = UnivariateFunction(value=lambda t: t, deriv=deriv)
        with pytest.raises(ValueError, match="bad abscissae"):
            caputo_derivative_1d(f, 1.0, 0.5, 0.0)
        assert len(calls) == 1 and calls[0] != ()

    def test_scalar_only_callable_is_rejected(self):
        """A callable returning one value for a node array fails on the shape."""
        f = UnivariateFunction(value=lambda t: 0.0, deriv=lambda t: 1.0)
        with pytest.raises(ValueError, match="shape"):
            caputo_derivative_1d(f, 1.0, 0.5, 0.0)

    def test_undeclared_kink_raises_accuracy_error(self):
        """A derivative jump the quadrature was not told about is detected."""
        f = UnivariateFunction(
            value=lambda t: np.abs(np.asarray(t, dtype=float) - 0.6),
            deriv=lambda t: np.sign(np.asarray(t, dtype=float) - 0.6),
            deriv2=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        )
        with pytest.raises(QuadratureAccuracyError) as err:
            caputo_derivative_1d(f, 1.0, 0.5, 0.0)
        assert np.isfinite(err.value.estimate)

    def test_declared_kink_matches_split_brute_force(self):
        """Declaring the kink recovers the piecewise-exact value."""
        f = UnivariateFunction(
            value=lambda t: np.abs(np.asarray(t, dtype=float) - 0.6),
            deriv=lambda t: np.sign(np.asarray(t, dtype=float) - 0.6),
            deriv2=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            kinks=(0.6,),
        )
        got = caputo_derivative_1d(f, 1.0, 0.5, 0.0)
        # int_0^1 (1-t)^(-1/2) sign(t-0.6) dt / Gamma(0.5), pieces integrate to
        # -(2 - 2*sqrt(0.4)) + 2*sqrt(0.4).
        exact = (4.0 * math.sqrt(0.4) - 2.0) / math.gamma(0.5)
        assert got == pytest.approx(exact, rel=1e-12)


class TestGaussRule:
    """The numpy-built rules against scipy's and against exact moments."""

    @pytest.mark.parametrize("a_exp", [-0.9, -0.5, -0.1, 0.0])
    def test_matches_scipy(self, a_exp):
        from scipy.special import roots_jacobi, roots_legendre
        t, w = _gauss_rule(a_exp)
        t_ref, w_ref = (roots_legendre(NODES_PER_SEGMENT) if a_exp == 0.0
                        else roots_jacobi(NODES_PER_SEGMENT, a_exp, 0.0))
        np.testing.assert_allclose(t, t_ref, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(w, w_ref, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("a_exp", [-0.9, -0.5, -0.1, 0.0])
    def test_moments_exact(self, a_exp):
        """int (1-t)^a (1+t)^k dt = 2^(a+k+1) B(a+1, k+1) for k <= 60."""
        t, w = _gauss_rule(a_exp)
        exact = 2.0 ** (a_exp + 1.0) / (a_exp + 1.0)
        for k in range(61):
            # B(a+1, k+1) = k! / ((a+1)(a+2)...(a+k+1)), built up one k at a time.
            if k:
                exact *= 2.0 * k / (a_exp + k + 1.0)
            assert float(w @ (1.0 + t) ** k) == pytest.approx(exact, rel=1e-12), k


class TestCaputoPoly:
    def test_square_matches_rule(self):
        got = caputo_derivative_poly([0.0, 0.0, 1.0], 1.0, 0.5, 0.0)
        assert got == pytest.approx(1.5045055561273502, rel=1e-12)

    def test_alpha_to_one_recovers_classical(self):
        """D^alpha (x-c) -> 1 as alpha -> 1."""
        got = caputo_derivative_poly([0.0, 1.0], 3.7, 1.0 - 1e-9, 0.0)
        assert got == pytest.approx(1.0, rel=1e-6)

    def test_degree_zero(self):
        assert caputo_derivative_poly([4.2], 1.0, 0.5, 0.0) == 0.0

    def test_matches_quadrature(self):
        coeffs = [0.3, -1.2, 0.8, 0.1]
        poly = np.polynomial.Polynomial(coeffs)
        shifted = UnivariateFunction(
            value=lambda t: poly(np.asarray(t, dtype=float) - 0.5),
            deriv=lambda t: poly.deriv(1)(np.asarray(t, dtype=float) - 0.5),
            deriv2=lambda t: poly.deriv(2)(np.asarray(t, dtype=float) - 0.5),
        )
        closed = caputo_derivative_poly(coeffs, 2.0, 0.35, 0.5)
        quad = caputo_derivative_1d(shifted, 2.0, 0.35, 0.5)
        assert closed == pytest.approx(quad, abs=1e-9)


class TestCaputoGradient:
    def test_linear_function(self):
        """Coordinate i of the gradient of b.x is b_i x_i^(1-a)/Gamma(2-a)."""
        b = np.array([2.0, -3.0, 0.5])
        obj = quadratic_objective(np.zeros((3, 3)), b)
        x = np.array([1.0, 4.0, 0.25])
        expected = b * x ** 0.5 / math.gamma(1.5)
        np.testing.assert_allclose(caputo_gradient(obj, x, 0.5, np.zeros(3)), expected, rtol=1e-10)

    def test_alpha_near_one_recovers_classical(self):
        mop = random_quadratic_mop(3, 6, 1, seed=3)
        obj = quadratic_objective(mop.gram[0], mop.offsets[0])
        x = np.array([0.8, 1.6, 2.4])
        classical = mop.gram[0] @ x + mop.offsets[0]
        frac = caputo_gradient(obj, x, 1.0 - 1e-3, np.zeros(3))
        assert np.linalg.norm(frac - classical) <= 5e-3 * np.linalg.norm(classical)

    def test_domain_error_names_coordinate(self):
        obj = quadratic_objective(np.eye(2), np.zeros(2))
        with pytest.raises(CaputoDomainError, match="coordinate 1"):
            caputo_gradient(obj, np.array([1.0, 1.0]), 0.5, np.array([0.0, 5.0]))

    def test_clamp_policy_warns_instead(self):
        """The solver's gradient clamps the terminal the reference refuses:
        its beta = 0 form warns and stays finite."""
        obj = quadratic_objective(np.eye(2), np.zeros(2))
        with pytest.warns(RuntimeWarning, match="clamped"):
            out = modified_fractional_gradient(obj, np.array([1.0, 1.0]), 0.5, 0.0,
                                               np.array([0.0, 5.0]))
        assert np.all(np.isfinite(out))


class TestModifiedFractionalGradient:
    def test_matches_quadratic_closed_form(self):
        """Cross-module oracle: quadrature equals the effective-gradient formula."""
        mop = random_quadratic_mop(3, 5, 2, seed=11)
        x = np.array([0.7, 1.3, 2.1])
        for j in range(2):
            obj = quadratic_objective(mop.gram[j], mop.offsets[j])
            quad = modified_fractional_gradient(obj, x, 0.5, 0.9, np.zeros(3))
            closed = (mop.gram[j] @ x + mop.offsets[j]
                      + (0.9 - 1.0 / 3.0) * mop.rtilde[j] ** 2 * x)
            np.testing.assert_allclose(quad, closed, atol=1e-9)

    def test_classical_limit(self):
        """beta = 0, alpha -> 1 approaches the classical gradient."""
        mop = random_quadratic_mop(4, 6, 1, seed=5)
        obj = quadratic_objective(mop.gram[0], mop.offsets[0])
        x = np.array([0.5, 1.0, 1.5, 2.0])
        classical = mop.gram[0] @ x + mop.offsets[0]
        got = modified_fractional_gradient(obj, x, 1.0 - 1e-3, 0.0, np.zeros(4))
        assert np.linalg.norm(got - classical) <= 1e-6 * max(1.0, np.linalg.norm(classical)) * 5e3

    def test_x_equals_terminal(self):
        """At x = c the cancelled form returns the classical gradient, finitely."""
        mop = random_quadratic_mop(3, 5, 1, seed=2)
        obj = quadratic_objective(mop.gram[0], mop.offsets[0])
        x = np.array([0.4, -0.3, 1.1])
        got = modified_fractional_gradient(obj, x, 0.5, 0.7, x.copy())
        np.testing.assert_allclose(got, mop.gram[0] @ x + mop.offsets[0], atol=1e-12)

    def test_smooth_finite_difference_check(self):
        """alpha -> 1, beta = 0 on a smooth non-quadratic matches central FD."""
        obj_value = lambda x: float(np.sin(x[0]) + np.exp(0.3 * x[1]) + x[0] * x[1])
        from mofgd import ObjectiveModel

        def hessian(x):
            h = np.empty(np.shape(x) + (2,))
            h[..., 0, 0] = -np.sin(x[..., 0])
            h[..., 0, 1] = h[..., 1, 0] = 1.0
            h[..., 1, 1] = 0.09 * np.exp(0.3 * x[..., 1])
            return h

        obj = ObjectiveModel(
            value=obj_value,
            gradient=lambda x: np.stack([np.cos(x[..., 0]) + x[..., 1],
                                         0.3 * np.exp(0.3 * x[..., 1]) + x[..., 0]], axis=-1),
            hessian=hessian,
            kind="smooth",
        )
        x = np.array([0.9, 1.4])
        got = modified_fractional_gradient(obj, x, 1.0 - 1e-4, 0.0, np.zeros(2))
        h = 1e-6
        fd = np.array([
            (obj_value(x + np.array([h, 0.0])) - obj_value(x - np.array([h, 0.0]))) / (2 * h),
            (obj_value(x + np.array([0.0, h])) - obj_value(x - np.array([0.0, h]))) / (2 * h),
        ])
        np.testing.assert_allclose(got, fd, atol=1e-4)

    def test_piecewise_split_matches_composite_brute_force(self):
        """Split-at-kink quadrature vs a dense substitution midpoint rule.

        Independent oracle: substitute u = (x - tau)^(1-alpha), which removes
        the singularity, and integrate the active-piece derivatives of
        max(5x1+x2, x1^2+x2^2) with two million midpoint panels.
        """
        obj = example3_objective()
        alpha, beta = 0.5, 0.4333333333333333
        x = np.array([3.0, 1.0])
        got = modified_fractional_gradient(obj, x, alpha, beta, np.zeros(2))

        for i in range(2):
            c, xi = 0.0, x[i]
            edges = np.linspace(0.0, (xi - c) ** (1 - alpha), 2_000_001)
            du = edges[1] - edges[0]
            u = edges[:-1] + 0.5 * du
            tau = xi - u ** (1.0 / (1 - alpha))
            if i == 0:
                lin, quad = 5 * tau + x[1], tau ** 2 + x[1] ** 2
                g1 = np.where(lin >= quad, 5.0, 2 * tau)
            else:
                lin, quad = 5 * x[0] + tau, x[0] ** 2 + tau ** 2
                g1 = np.where(lin >= quad, 1.0, 2 * tau)
            g2 = np.where(lin >= quad, 0.0, 2.0)
            raw1 = g1.sum() * du / (1 - alpha)
            raw2 = g2.sum() * du / (1 - alpha)
            want = (1 - alpha) * (xi - c) ** (alpha - 1) * raw1 \
                + beta * (1 - alpha) * (xi - c) ** alpha * raw2
            assert got[i] == pytest.approx(want, abs=1e-7)


class TestStackedEvaluation:
    """All coordinates' quadrature nodes go into one stacked objective call."""

    @staticmethod
    def counted(obj, calls):
        def wrap(name, fn):
            def inner(x):
                calls.append((name, np.shape(x)))
                return fn(x)
            return inner

        from mofgd import ObjectiveModel
        hessian = None if obj.hessian is None else wrap("hessian", obj.hessian)
        return ObjectiveModel(wrap("value", obj.value), wrap("gradient", obj.gradient),
                              hessian, kind="smooth", dim=obj.dim, validate=False)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_objective_calls_per_gradient(self, n):
        """One gradient and one Hessian call, with coordinate 0 at its
        terminal and the last coordinate clamped."""
        mop = random_quadratic_mop(n, 8, 1, seed=5)
        calls = []
        obj = self.counted(quadratic_objective(mop.gram[0], mop.offsets[0]), calls)
        x = np.linspace(0.5, 2.0, n)
        terminal = np.zeros(n)
        terminal[0], terminal[-1] = x[0], x[-1] + 1.0
        with pytest.warns(RuntimeWarning, match="clamped"):
            modified_fractional_gradient(obj, x, 0.5, 0.4, terminal)
        rows = 1 + (n - 1) * NODES_PER_SEGMENT
        assert calls == [("gradient", (rows, n)), ("hessian", (rows, n))]

    def test_missing_hessian_raises_below_order_one(self):
        """f'' comes only from the objective's Hessian: without one, an order
        below 1 (or beta != 0) raises ValueError, while alpha = 1, beta = 0
        still returns the gradient."""
        import dataclasses
        from test_descent import logistic_losses

        obj = logistic_losses()[0]
        no_hessian = dataclasses.replace(obj, hessian=None, validate=False)
        x = np.array([0.5, 1.0, 2.5, 4.0])
        for alpha, beta in ((0.3, 0.8), (0.9, 0.0), (1.0, 0.5)):
            with pytest.raises(ValueError, match="no Hessian"):
                modified_fractional_gradient(no_hessian, x, alpha, beta, np.zeros(4))
        np.testing.assert_array_equal(modified_fractional_gradient(no_hessian, x, 1.0, 0.0, 0.0),
                                      obj.gradient(x))


class TestLoopReference:
    """The stacked gradient against the per-coordinate loop it replaced: the
    same rule and dots, so only the objective's stacked rows may round
    differently."""

    @staticmethod
    def assert_matches_loop(obj, x, *stage):
        got = modified_fractional_gradient(obj, x, *stage)
        want = modified_fractional_gradient_loop(obj, x, *stage)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_smooth_logistic_loss(self):
        from test_descent import logistic_losses

        obj = logistic_losses()[1]
        for alpha, terminal in ((0.3, np.zeros(4)), (0.9, np.array([-1.0, 0.5, 0.0, 2.0]))):
            self.assert_matches_loop(obj, np.array([0.4, 1.3, 2.2, 3.1]), alpha, 0.6, terminal)

    def test_example3_kink_near_x(self):
        """Points a small distance past the restriction's kink, so a short
        Gauss-Legendre panel ends next to x_i."""
        obj = example3_objective()
        for x in ([5.0 + 1e-6, 1.0], [0.2 + 1e-3, 2.0], [4.0, 2.0 + 1e-5]):
            x = np.array(x)
            kinks = [obj.kink_locator(x, i, -1.0, x[i]) for i in range(2)]
            assert any(kinks)
            self.assert_matches_loop(obj, x, 0.7, 0.5, np.array([-1.0, -1.0]))

    def test_clamped_and_terminal_coordinates(self):
        from test_descent import logistic_losses

        obj = logistic_losses()[2]
        x = np.array([0.4, 1.3, 2.2, 3.1])
        with pytest.warns(RuntimeWarning, match="clamped"):
            self.assert_matches_loop(obj, x, 0.5, 0.7, np.array([0.4, 2.0, 0.0, 3.1]))

    def test_alpha_one_quadratic_stacks_x_once_per_coordinate(self):
        """alpha = 1 with beta != 0: one node per coordinate, a k == n stack."""
        mop = random_quadratic_mop(4, 6, 1, seed=7)
        calls = []
        obj = TestStackedEvaluation.counted(quadratic_objective(mop.gram[0], mop.offsets[0]),
                                            calls)
        self.assert_matches_loop(obj, np.array([0.5, 1.0, 1.5, 2.0]), 1.0, 0.5, np.zeros(4))
        assert calls[:2] == [("gradient", (4, 4)), ("hessian", (4, 4))]


class TestTerminalLength:
    @pytest.mark.parametrize("length", [2, 4])
    def test_length_other_than_one_or_n_is_refused(self, length):
        obj = quadratic_objective(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match=f"terminal has length {length}, but x has length 3"):
            modified_fractional_gradient(obj, np.ones(3), 0.5, 0.4, np.zeros(length))

    def test_run_adaptive_refuses_a_longer_terminal(self):
        from mofgd import SolverConfig, run_adaptive
        from mofgd.fixtures import default_schedule

        with pytest.raises(ValueError, match="terminal has length 3, but x has length 2"):
            run_adaptive([example3_objective()], np.array([1.0, 2.0]), SolverConfig(),
                         default_schedule(terminal=np.zeros(3)))

    @pytest.mark.parametrize("kind", ["quadratic", "smooth"])
    def test_run_adaptive_names_both_lengths_for_every_kind(self, kind):
        """A quadratic stage never evaluates the quadrature, yet its bad
        terminal is refused with the same message, before any stage runs."""
        from mofgd import SolverConfig, run_adaptive
        from mofgd.fixtures import default_schedule
        from test_descent import logistic_losses

        objectives = (random_quadratic_mop(3, 5, 2, seed=3).objectives() if kind == "quadratic"
                      else logistic_losses())
        n = objectives[0].dim
        with pytest.raises(ValueError, match=f"terminal has length 2, but x has length {n}"):
            run_adaptive(objectives, np.full(n, 2.0), SolverConfig(),
                         default_schedule(terminal=np.zeros(2)))

    def test_univariate_derivative_refuses_a_vector_terminal(self):
        """A 1-D derivative has one terminal; a longer one is refused, not
        read at its first entry."""
        with pytest.raises(ValueError, match="terminal has length 3, but x has length 1"):
            caputo_derivative_1d(monomial(2), 1.0, 0.5, [0.0, 5.0, 7.0])
