"""Tests for the Caputo derivative kernel and fractional gradients."""

import math
import warnings

import numpy as np
import pytest

from mofgd import (
    SolverConfig,
    Stage,
    StageSchedule,
    modified_fractional_gradient,
    quadratic_objective,
    random_quadratic_mop,
    run_adaptive,
    tikhonov_solve,
    verify_rate_theorem5,
    verify_staged_theorem6,
)
from mofgd.fixtures import example3_objective
from mofgd.fractional import (
    JACOBI_NODES,
    LEGENDRE_NODES,
    _gauss_rule,
    _rule,
    node_stack,
    order_shift,
    terminals,
)
from mofgd.problems import regularized
from oracles import (
    CaputoDomainError,
    QuadratureAccuracyError,
    UnivariateFunction,
    UnsupportedOrderError,
    caputo_derivative_1d,
    caputo_derivative_poly,
    caputo_gradient,
    example3_modified_gradient,
    hessian_form_gradient,
    modified_fractional_gradient_loop,
    scattered_node_stack,
)


def gradient_at(f, x, alpha, beta, terminal, **out):
    """f's modified fractional gradient at x, reduced from the stack that
    node_stack builds for f's kink locator."""
    return modified_fractional_gradient(f, node_stack(x, alpha, terminal, f.kink_locator),
                                        beta, **out)


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
        """Each rule at its own node count: Legendre LEGENDRE_NODES, Jacobi
        JACOBI_NODES."""
        from scipy.special import roots_jacobi, roots_legendre
        t, w = _gauss_rule(a_exp)
        t_ref, w_ref = (roots_legendre(LEGENDRE_NODES) if a_exp == 0.0
                        else roots_jacobi(JACOBI_NODES, a_exp, 0.0))
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

    @pytest.mark.parametrize("a_exp", [-0.9, -0.5, -0.1, 0.0])
    def test_orthogonal_norms_exact(self, a_exp):
        """sum_i w_i P_k^(a,0)(t_i)^2 = 2^(a+1) / (2k+a+1) for k < 32 on the
        Jacobi rules and k < 64 on the Legendre rule: P_k^2 has degree 2k,
        so this pins the degree of exactness 63 and 127, which fewer nodes
        than 32 and 64 cannot reach."""
        from scipy.special import eval_jacobi
        t, w = _gauss_rule(a_exp)
        for k in range(64 if a_exp == 0.0 else 32):
            exact = 2.0 ** (a_exp + 1.0) / (2 * k + a_exp + 1.0)
            assert float(w @ eval_jacobi(k, a_exp, 0.0, t) ** 2) == pytest.approx(exact, rel=1e-12), k

    def test_duplicate_kink_splits_once(self):
        """A kink reported twice splits its panel once: a Jacobi panel and
        one Legendre panel, with no zero-width panel of zero weights."""
        u, w, _ = _rule(0.0, 3.0, (1.0, 1.0), -0.5)
        assert u.size == w.size == JACOBI_NODES + LEGENDRE_NODES
        assert np.all(w > 0.0)
        once = _rule(0.0, 3.0, (1.0,), -0.5)
        assert u.tobytes() == once[0].tobytes() and w.tobytes() == once[1].tobytes()


class TestKinkFreeAccuracy:
    """The kink-free by-parts modified gradient against its Hessian form on
    scipy's 128-node Gauss-Jacobi rule (`oracles.hessian_form_gradient`)."""

    @pytest.mark.parametrize("alpha", [0.5, 0.7, 0.9])
    def test_logistic_losses_match_128_nodes(self, alpha):
        """On the logistic losses at 100 seeded points in [0.01, 10]^4, every
        component agrees with the reference within 1e-9 of the largest."""
        from test_descent import logistic_losses

        rng = np.random.default_rng(int(100 * alpha))
        beta = 0.1 + order_shift(alpha)
        losses, worst = logistic_losses(), 0.0
        for x in rng.uniform(0.01, 10.0, (100, 4)):
            for obj in losses:
                got = gradient_at(obj, x, alpha, beta, np.zeros(4))
                want = hessian_form_gradient(obj, x, alpha, beta, np.zeros(4), nodes=128)
                worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
        assert worst <= 1e-9


class TestKinkedClosedForm:
    """Example 3's kinked coordinates against the closed form of
    `oracles.example3_modified_gradient`: its pieces are polynomials, so each
    panel's integral is a sum of powers and each kink adds its jump."""

    terminals = (np.zeros(2), np.array([-1.0, -1.0]), np.array([-0.5, 0.7]),
                 np.array([-2.0, -3.0]))

    def test_3000_seeded_points(self):
        """x in [0.3, 4]^2, the four terminals and alpha in {0.5, 0.7, 0.9} in
        turn, beta = 0.1 + order_shift(alpha): every coordinate above its
        terminal is within 1e-10 of the reference, relative to
        max(1, |reference|), and more than 3000 of them are kinked."""
        obj = example3_objective()
        kinked, worst = 0, 0.0
        points = np.random.default_rng(37).uniform(0.3, 4.0, (3000, 2))
        for k, x in enumerate(points):
            c, alpha = self.terminals[k % 4], (0.5, 0.7, 0.9)[k % 3]
            beta = 0.1 + order_shift(alpha)
            got = gradient_at(obj, x, alpha, beta, c)
            want, has_kink = example3_modified_gradient(x, alpha, beta, c)
            for i in np.flatnonzero(x > c):
                worst = max(worst, abs(got[i] - want[i]) / max(1.0, abs(want[i])))
                kinked += has_kink[i]
        assert kinked > 3000
        assert worst <= 1e-10

    def test_kink_next_to_x(self):
        """x = (0.3113, 1.8075), c = (-0.5, 0.7), alpha = 0.9, beta = 0: the
        kink of coordinate 0 lies 7e-6 below x_0.  A 30-digit mpmath
        evaluation of the closed form reads 1.86146074861526; a Legendre
        panel uniform in u, not log u, read 1.817219."""
        x, c = np.array([0.3113, 1.8075]), np.array([-0.5, 0.7])
        got = gradient_at(example3_objective(), x, 0.9, 0.0, c)
        want, has_kink = example3_modified_gradient(x, 0.9, 0.0, c)
        assert has_kink == [True, False]
        assert 0.0 < x[0] - example3_objective().kink_locator(x, 0, c[0], x[0])[0] < 1e-5
        assert got[0] == pytest.approx(1.86146074861526, rel=1e-12)
        assert want[0] == pytest.approx(1.86146074861526, rel=1e-12)


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

    def test_clamp_policy_notes_instead(self):
        """The solver's stack notes the coordinate where the reference
        refuses the terminal: its beta = 0 form takes the kink-free
        objective's classical partial there and stays finite."""
        obj = quadratic_objective(np.eye(2), np.zeros(2))
        x = np.array([1.0, 1.0])
        stack = node_stack(x, 0.5, np.array([0.0, 5.0]))
        assert len(stack.notes) == 1 and "classical partial" in stack.notes[0]
        out = modified_fractional_gradient(obj, stack, 0.0)
        assert np.all(np.isfinite(out))
        assert out[1] == obj.gradient(x)[1]


class TestModifiedFractionalGradient:
    def test_matches_quadratic_closed_form(self):
        """Cross-module oracle: quadrature equals the effective-gradient formula."""
        mop = random_quadratic_mop(3, 5, 2, seed=11)
        x = np.array([0.7, 1.3, 2.1])
        for j in range(2):
            obj = quadratic_objective(mop.gram[j], mop.offsets[j])
            quad = gradient_at(obj, x, 0.5, 0.9, np.zeros(3))
            closed = (mop.gram[j] @ x + mop.offsets[j]
                      + (0.9 - 1.0 / 3.0) * mop.rtilde[j] ** 2 * x)
            np.testing.assert_allclose(quad, closed, atol=1e-9)

    def test_classical_limit(self):
        """beta = 0, alpha -> 1 approaches the classical gradient."""
        mop = random_quadratic_mop(4, 6, 1, seed=5)
        obj = quadratic_objective(mop.gram[0], mop.offsets[0])
        x = np.array([0.5, 1.0, 1.5, 2.0])
        classical = mop.gram[0] @ x + mop.offsets[0]
        got = gradient_at(obj, x, 1.0 - 1e-3, 0.0, np.zeros(4))
        assert np.linalg.norm(got - classical) <= 1e-6 * max(1.0, np.linalg.norm(classical)) * 5e3

    def test_x_equals_terminal(self):
        """At x = c the cancelled form returns the classical gradient, finitely."""
        mop = random_quadratic_mop(3, 5, 1, seed=2)
        obj = quadratic_objective(mop.gram[0], mop.offsets[0])
        x = np.array([0.4, -0.3, 1.1])
        got = gradient_at(obj, x, 0.5, 0.7, x.copy())
        np.testing.assert_allclose(got, mop.gram[0] @ x + mop.offsets[0], atol=1e-12)

    def test_below_kink_free_terminal_is_the_classical_partial(self):
        """beta != 0, a smooth objective: a coordinate below its terminal is
        f's partial bit for bit, and its stack notes it once with its x and
        terminal.
        The gradient is elementwise, so a stacked row rounds as x alone."""
        from mofgd import ObjectiveModel

        a = np.array([1.0, -0.5, 2.0, 0.3])
        obj = ObjectiveModel(lambda x: np.cosh(x - a).sum(axis=-1), lambda x: np.sinh(x - a),
                             lambda x: np.cosh(x - a)[..., None] * np.eye(4),
                             kind="smooth", dim=4)
        x = np.array([0.4, 1.3, 2.2, 3.1])
        c = np.array([0.0, 2.0, 0.0, 5.0])
        stack = node_stack(x, 0.5, c)
        got = modified_fractional_gradient(obj, stack, 0.8)
        assert [note.split(";")[0] for note in stack.notes] == [
            f"degenerate coordinate: x = {x[i]} <= terminal {c[i]}" for i in (1, 3)]
        classical = obj.gradient(x)
        for i in (1, 3):
            assert got[i] == classical[i]

    def test_smooth_finite_difference_check(self):
        """alpha -> 1, beta = 0 on a smooth non-quadratic matches central FD."""
        obj_value = lambda x: np.sin(x[..., 0]) + np.exp(0.3 * x[..., 1]) + x[..., 0] * x[..., 1]
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
        got = gradient_at(obj, x, 1.0 - 1e-4, 0.0, np.zeros(2))
        h = 1e-6
        fd = np.array([
            (obj_value(x + np.array([h, 0.0])) - obj_value(x - np.array([h, 0.0]))) / (2 * h),
            (obj_value(x + np.array([0.0, h])) - obj_value(x - np.array([0.0, h]))) / (2 * h),
        ])
        np.testing.assert_allclose(got, fd, atol=1e-4)

    def test_piecewise_split_matches_composite_brute_force(self):
        """Split-at-kink quadrature vs a dense substitution midpoint rule,
        at points whose restrictions have kinks inside (c, x).

        Independent oracle: substitute u = (x - tau)^(1-alpha), which removes
        the singularity, and integrate the active-piece derivatives of
        max(5x1+x2, x1^2+x2^2) with a million midpoint panels between each
        pair of kinks.  The order-(1+alpha) integral is against dg', so it
        adds each kink k's jump J of g' as (x - k)^(-alpha) J.
        """
        obj = example3_objective()
        alpha, beta = 0.5, 0.4333333333333333
        cases = ((np.array([4.0, 2.0]), np.array([-2.0, -2.0])),  # one kink each
                 (np.array([6.0, 1.0]), np.array([-0.5, -0.5])))  # two kinks, none
        jumps_seen = 0
        for x, c in cases:
            got = gradient_at(obj, x, alpha, beta, c)
            for i in range(2):
                ci, xi = c[i], x[i]

                def pieces(tau):
                    """Active piece's g' and g'' at tau, row by row."""
                    z = np.repeat(x[None], np.size(tau), 0)
                    z[:, i] = tau
                    lin, quad = 5 * z[:, 0] + z[:, 1], z[:, 0] ** 2 + z[:, 1] ** 2
                    return (np.where(lin >= quad, 5.0 if i == 0 else 1.0, 2 * z[:, i]),
                            np.where(lin >= quad, 0.0, 2.0))

                kinks = sorted(obj.kink_locator(x, i, ci, xi))
                breaks = sorted({0.0, (xi - ci) ** (1 - alpha)}
                                | {(xi - k) ** (1 - alpha) for k in kinks})
                raw1 = raw2 = 0.0
                for lo, hi in zip(breaks[:-1], breaks[1:]):
                    edges = np.linspace(lo, hi, 1_000_001)
                    du = edges[1] - edges[0]
                    g1, g2 = pieces(xi - (edges[:-1] + 0.5 * du) ** (1.0 / (1 - alpha)))
                    raw1 += g1.sum() * du / (1 - alpha)
                    raw2 += g2.sum() * du / (1 - alpha)
                for k in kinks:
                    below, above = pieces(np.array([k - 1e-9, k + 1e-9]))[0]
                    jump = above - below  # g' of the piece above k less that below it
                    jumps_seen += abs(jump) > 1.0
                    raw2 += (xi - k) ** -alpha * jump
                want = (1 - alpha) * (xi - ci) ** (alpha - 1) * raw1 \
                    + beta * (1 - alpha) * (xi - ci) ** alpha * raw2
                assert got[i] == pytest.approx(want, abs=1e-7)
        assert jumps_seen == 4


class TestStackedEvaluation:
    """All coordinates' quadrature nodes go into one stacked objective call."""

    @staticmethod
    def counted(obj, calls):
        def wrap(name, fn):
            def inner(x):
                calls.append((name, np.shape(x)))
                return fn(x)
            return inner

        # The fractional gradient reads the kinks from its node stack, not
        # the kind, and a piecewise kind is PiecewiseMaxObjective's alone.
        from mofgd import ObjectiveModel
        hessian = None if obj.hessian is None else wrap("hessian", obj.hessian)
        return ObjectiveModel(wrap("value", obj.value), wrap("gradient", obj.gradient),
                              hessian, kind="smooth", kink_locator=obj.kink_locator, dim=obj.dim,
                              validate=False)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_objective_calls_per_gradient(self, n):
        """One gradient call, and the quadratic's Hessian is not read.  Row 0
        is x, which coordinate 0 at its terminal and the last coordinate
        below it read; the others own JACOBI_NODES rows and a terminal row
        each."""
        mop = random_quadratic_mop(n, 8, 1, seed=5)
        calls = []
        obj = self.counted(quadratic_objective(mop.gram[0], mop.offsets[0]), calls)
        x = np.linspace(0.5, 2.0, n)
        terminal = np.zeros(n)
        terminal[0], terminal[-1] = x[0], x[-1] + 1.0
        stack = node_stack(x, 0.5, terminal)
        assert len(stack.notes) == 1 and "classical partial" in stack.notes[0]
        modified_fractional_gradient(obj, stack, 0.4)
        rows = 1 + (n - 2) * (JACOBI_NODES + 1)
        assert calls == [("gradient", (rows, n))]

    def test_kinked_coordinate_below_terminal_reads_row_zero(self):
        """A coordinate of example 3 below its terminal reads row 0, its
        classical partial, as a kink-free one does: only coordinate 0 owns
        rows of the stack."""
        calls = []
        obj = self.counted(example3_objective(), calls)
        x = np.array([3.0, 1.0])
        stack = node_stack(x, 0.5, np.array([0.0, 5.0]), obj.kink_locator)
        assert len(stack.notes) == 1 and "classical partial" in stack.notes[0]
        got = modified_fractional_gradient(obj, stack, 0.4)
        rows = 1 + JACOBI_NODES + 1
        assert calls == [("gradient", (rows, 2))]
        assert got[1] == example3_objective().gradient(x)[1]

    def test_kinked_coordinate_rows(self):
        """Example 3 at (6, 1): coordinate 0 has a kink at 5, so it owns a
        Jacobi panel, a Legendre panel and its terminal row; kink-free
        coordinate 1 owns a Jacobi panel and its terminal row.  Row stop of
        each coordinate is x with that coordinate at its terminal."""
        calls = []
        obj = self.counted(example3_objective(), calls)
        x = np.array([6.0, 1.0])
        gradient_at(obj, x, 0.5, 0.4, np.zeros(2))
        rows = 1 + 2 * (JACOBI_NODES + 1) + LEGENDRE_NODES
        assert calls == [("gradient", (rows, 2))]
        stack = node_stack(x, 0.5, np.zeros(2), obj.kink_locator)
        assert stack.z.shape == (rows, 2)
        for i, (start, stop, w, v) in enumerate(stack.coords):
            assert stop - start == w.size == v.size
            assert stack.z[stop].tolist() == [0.0 if j == i else x[j] for j in range(2)]

    def test_gradient_out_is_row_zero_of_the_stacked_call(self):
        """gradient_out receives row 0 of the one stacked gradient call: an
        elementwise gradient's row rounds as x alone, bit for bit, and the
        logistic loss's row, a row of a matrix product, within the stack
        contract's 1e-14."""
        from mofgd import ObjectiveModel
        from test_descent import logistic_losses

        a = np.array([1.0, -0.5, 2.0, 0.3])
        cosh = ObjectiveModel(lambda x: np.cosh(x - a).sum(axis=-1), lambda x: np.sinh(x - a),
                              lambda x: np.cosh(x - a)[..., None] * np.eye(4),
                              kind="smooth", dim=4)
        x = np.array([0.4, 1.3, 2.2, 3.1])
        for obj in (cosh, logistic_losses()[1]):
            out = np.empty(4)
            gradient_at(obj, x, 0.5, 0.6, np.zeros(4), gradient_out=out)
            row = np.asarray(obj.gradient(node_stack(x, 0.5, np.zeros(4)).z))[0]
            assert out.tobytes() == row.tobytes()
            point = obj.gradient(x)
            if obj is cosh:
                assert out.tobytes() == point.tobytes()
            np.testing.assert_allclose(out, point, rtol=1e-14, atol=1e-14 * np.abs(point).max())

    def test_missing_hessian_is_never_read(self):
        """The order-(1+alpha) term is taken by parts from gradients alone:
        an objective without a Hessian gives the bits of the same objective
        with one, at every order in (0, 1)."""
        import dataclasses
        from test_descent import logistic_losses

        obj = logistic_losses()[0]
        no_hessian = dataclasses.replace(obj, hessian=None, validate=False)
        x = np.array([0.5, 1.0, 2.5, 4.0])
        for alpha, beta in ((0.3, 0.8), (0.9, 0.0), (0.5, 0.4)):
            got = gradient_at(no_hessian, x, alpha, beta, np.zeros(4))
            want = gradient_at(obj, x, alpha, beta, np.zeros(4))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha", [1.0, 0.0, 1.5, -0.5])
    def test_order_outside_zero_one_is_refused(self, alpha):
        """alpha = 1 is the classical stage, which calls no fractional
        gradient, so node_stack refuses an order outside (0, 1) with a
        ValueError naming it, before the kink locator is called, and no
        stack exists for the gradient to reduce."""
        calls = []
        x = np.array([0.5, 1.0, 1.5, 2.0])
        for locator in (None, lambda *args: calls.append(args) or ()):
            with pytest.raises(ValueError, match=rf"alpha must lie in \(0, 1\), got {alpha}"):
                node_stack(x, alpha, np.zeros(4), locator)
        assert calls == []


class TestBelowTerminal:
    """One rule for a coordinate below its terminal, whatever the objective's
    kinks: it reads row 0, the classical partial, and its stack notes it."""

    x, c = np.array([3.0, 1.0]), np.array([0.0, 5.0])
    note = "degenerate coordinate: x = 1.0 <= terminal 5.0; classical partial derivative taken"

    @pytest.mark.parametrize("kinked", [False, True])
    def test_node_stack_notes_and_warns_nothing(self, kinked):
        locator = example3_objective().kink_locator if kinked else None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stack = node_stack(self.x, 0.5, self.c, locator)
            at_terminal = node_stack(self.x, 0.5, self.x.copy(), locator)
        assert caught == []
        assert stack.notes == (self.note,)
        assert stack.coords[1] == (0, 1, None, None)
        assert at_terminal.notes == () and node_stack(self.x, 0.5, 0.0).notes == ()

    def test_kinked_and_kink_free_stacks_give_the_same_classical_partial(self):
        """Example 3's gradient from its own kinked stack and from the
        kink-free stack: the coordinate below its terminal is f's partial
        at x, bit for bit, in both."""
        obj = example3_objective()
        kinked = modified_fractional_gradient(
            obj, node_stack(self.x, 0.5, self.c, obj.kink_locator), 0.4)
        kink_free = modified_fractional_gradient(obj, node_stack(self.x, 0.5, self.c), 0.4)
        partial = obj.gradient(self.x)[1]
        assert np.float64(kinked[1]).tobytes() == np.float64(kink_free[1]).tobytes()
        assert kinked[1] == partial

    def test_gradient_warns_nothing_and_its_stack_notes_each_coordinate(self):
        """The stack's notes, one per coordinate below its terminal, are the
        one report: reducing the stack raises no warning."""
        obj = example3_objective()
        stack = node_stack(self.x, 0.5, self.c, obj.kink_locator)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            modified_fractional_gradient(obj, stack, 0.4)
        assert caught == []
        assert stack.notes == (self.note,)


class TestColumnFills:
    """node_stack fills each coordinate's column of k copies of x with its
    nodes and its terminal row: the stack, coords and notes of the
    concatenate and scatter construction, bit for bit."""

    @staticmethod
    def built(build, *args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stack = build(*args)
        assert caught == []
        return stack, list(stack.notes)

    @staticmethod
    def coord_bits(coords):
        return [(start, stop, None if w is None else w.tobytes(),
                 None if v is None else v.tobytes()) for start, stop, w, v in coords]

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
    def test_matches_scatter_reference(self, n, alpha):
        """Seeded x in [-3, 3]^n against scalar and vector terminals, one
        coordinate exactly at its terminal and others below it, with example
        3's kink locator at n = 2.  At alpha = 1, the classical order, which
        builds no stack, every case is refused."""
        locators = (None, example3_objective().kink_locator) if n == 2 else (None,)
        rng = np.random.default_rng(10 * n + int(10 * alpha))
        compared = 0
        for _ in range(10):
            x = rng.uniform(-3.0, 3.0, n)
            vector = rng.uniform(-3.0, 3.0, n)
            vector[0] = x[0]
            for terminal in (-1.0, float(x[-1]), vector, list(vector)):
                for locator in locators:
                    if alpha == 1.0:
                        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
                            node_stack(x, alpha, terminal, locator)
                        compared += 1
                        continue
                    got, got_notes = self.built(node_stack, x, alpha, terminal, locator)
                    want, want_notes = self.built(scattered_node_stack, x, alpha, terminal,
                                                  locator)
                    assert got.z.tobytes() == want.z.tobytes()
                    assert got.alpha == want.alpha == alpha
                    assert got.z.shape == want.z.shape and not got.z.flags.writeable
                    assert self.coord_bits(got.coords) == self.coord_bits(want.coords)
                    assert got_notes == want_notes
                    compared += bool(got_notes)
        assert compared > 0

    def test_gradient_from_the_reference_stack(self):
        """The float dots over the filled stack give the bits of the array
        reduction of the scattered one: the order-alpha term w @ g' and the
        by-parts term g'(x) - g'(c) - alpha (w/s) @ (g' - g'(x)), with g'(c)
        from the row after each coordinate's nodes."""
        from test_descent import logistic_losses

        obj = logistic_losses()[0]
        rng = np.random.default_rng(3)
        for alpha in (0.3, 0.7, 0.9):
            x, c = rng.uniform(-3.0, 3.0, 4), rng.uniform(-3.0, 3.0, 4)
            got = gradient_at(obj, x, alpha, 0.4, c)
            stack = scattered_node_stack(x, alpha, c)
            grads = obj.gradient(stack.z)
            want = np.empty(4)
            for i, (start, stop, w, v) in enumerate(stack.coords):
                gx, nodes = grads[0, i], grads[start:stop, i]
                if w is None:
                    want[i] = gx
                    continue
                by_parts = gx - grads[stop, i] - alpha * float(v @ (nodes - gx))
                want[i] = (1.0 - alpha) * (float(w @ nodes) + 0.4 * by_parts)
            assert got.tobytes() == want.tobytes()


class TestLoopReference:
    """The stacked gradient against the per-coordinate loop it replaced: the
    same rule and dots, so only the objective's stacked rows may round
    differently."""

    @staticmethod
    def assert_matches_loop(obj, x, *stage):
        got = gradient_at(obj, x, *stage)
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

    def test_below_terminal_coordinates_of_either_kind(self):
        """A coordinate at or below its terminal is the classical partial in
        the loop too, for a kink-free and a kinked objective alike."""
        from test_descent import logistic_losses

        obj = logistic_losses()[2]
        x = np.array([0.4, 1.3, 2.2, 3.1])
        self.assert_matches_loop(obj, x, 0.5, 0.7, np.array([0.4, 2.0, 0.0, 3.1]))
        self.assert_matches_loop(example3_objective(), np.array([3.0, 1.0]), 0.5, 0.7,
                                 np.array([0.0, 5.0]))


class TestTerminalLength:
    @pytest.mark.parametrize("length", [2, 4])
    def test_length_other_than_one_or_n_is_refused(self, length):
        with pytest.raises(ValueError, match=f"terminal has length {length}, but x has length 3"):
            node_stack(np.ones(3), 0.5, np.zeros(length))

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


# Every entry point that takes a terminal, on one instance with n = 2, each
# returning an array that its terminal moves.
TERMINAL_MOP = random_quadratic_mop(2, 4, 2, seed=3)
UNIFORM = np.full(2, 0.5)
TERMINAL_ENTRY_POINTS = {
    "node_stack": lambda c: node_stack(np.array([1.0, 2.0]), 0.5, c).z,
    "run_adaptive": lambda c: run_adaptive(
        TERMINAL_MOP.objectives(), np.full(2, 2.0), SolverConfig(),
        StageSchedule((Stage(0.5, 0.1, 5),), c)).final_x,
    "regularized": lambda c: regularized(
        TERMINAL_MOP.objectives()[0], 0.1, c).gradient(np.array([0.3, -0.7])),
    "tikhonov_solve": lambda c: tikhonov_solve(TERMINAL_MOP, 0.1, UNIFORM, c).x_tik,
    "verify_rate_theorem5": lambda c: verify_rate_theorem5(
        TERMINAL_MOP, SolverConfig(), 0.1, c, UNIFORM, k_max=20).errors,
    "verify_staged_theorem6": lambda c: np.array(verify_staged_theorem6(
        TERMINAL_MOP, StageSchedule.from_gammas([0.5, 0.7], [0.1, 0.0], [5, 5], c),
        SolverConfig())[0].epsilon),
}


class TestTerminalRule:
    """`terminals` decides what a terminal is wherever one is taken."""

    @pytest.mark.parametrize("entry", TERMINAL_ENTRY_POINTS)
    @pytest.mark.parametrize("terminal, match", [
        (None, None),
        (math.nan, "terminal must be finite"),
        ([0.0, math.inf], "terminal must be finite"),
        (np.zeros(3), "terminal has length 3, but x has length 2"),
    ], ids=["none", "nan", "inf", "length_3"])
    def test_every_entry_point_reads_the_rule(self, entry, terminal, match):
        """None is zeros, bit for bit, and a non-finite entry or a length
        other than 1 or n is refused with the rule's message."""
        call = TERMINAL_ENTRY_POINTS[entry]
        if match is None:
            got = call(terminal)
            assert np.isfinite(got).all()
            np.testing.assert_array_equal(got, call(np.zeros(2)))
        else:
            with pytest.raises(ValueError, match=match):
                call(terminal)

    @pytest.mark.parametrize("terminal", [math.nan, [0.0, -math.inf]], ids=["nan", "inf"])
    def test_schedule_refuses_a_non_finite_terminal_and_keeps_none(self, terminal):
        with pytest.raises(ValueError, match="terminal must be finite"):
            StageSchedule((Stage(0.5, 0.1, 5),), terminal)
        assert StageSchedule((Stage(0.5, 0.1, 5),)).terminal is None

    @pytest.mark.parametrize("terminal", [0.5, [0.5], np.full(3, 0.5)],
                             ids=["scalar", "one", "n"])
    def test_the_rule_returns_a_read_only_contiguous_copy(self, terminal):
        """A single entry is repeated, not broadcast: the result owns
        contiguous memory, so no stride-0 view reaches a merit's products."""
        caller = np.array(terminal, dtype=float)
        c = terminals(caller, 3)
        assert c.tolist() == [0.5] * 3
        assert c.flags.c_contiguous and not c.flags.writeable
        caller[...] = 1.0
        assert c.tolist() == [0.5] * 3
