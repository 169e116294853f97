"""Tests for problem models, the quadratic family and Tikhonov solutions."""

import dataclasses
import itertools
import json
import re
from collections import Counter

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
from mofgd.fixtures import (
    _example3_kinks,
    example1_objective,
    example2_objective,
    example3_objective,
)
from mofgd.problems import (
    _FD_CHECK_CANDIDATES,
    ACTIVE_TOLERANCE,
    PiecewiseMaxObjective,
    _check_points,
    quadratic_stack,
    regularized,
)
from oracles import dense_regularized, mean_subgradient, stacked_piecewise
from test_descent import l1_norm, logistic_losses


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
        ("oracle_dense_diag", dense_regularized(quad, 0.3, c, "diag")),
        ("oracle_dense_outer", dense_regularized(quad, 0.3, c, "outer")),
        ("oracle_logistic", logistic_losses()[0]),
    ]


def bits(value):
    value = np.asarray(value, dtype=float)
    return value.shape, value.tobytes()


class TestObjectiveModel:
    def test_gradient_validation_rejects_wrong_gradient(self):
        with pytest.raises(ValueError, match="finite differences"):
            ObjectiveModel(
                value=lambda x: (x * x).sum(axis=-1),
                gradient=lambda x: 3.0 * x,  # wrong: should be 2x
                kind="smooth",
            )

    def test_gradient_error_names_the_first_disagreeing_point(self):
        """A gradient that is wrong at some of the 10 check points only is
        rejected, and the error names the first of those points."""
        points = np.array(list(itertools.islice(_check_points(2), 10)))
        wrong = points[:, 0] > 1.0
        assert 0 < wrong.sum() < 10 and not wrong[0]
        first = points[np.argmax(wrong)]
        with pytest.raises(ValueError, match=re.escape(f"at x = {first}:")):
            ObjectiveModel(
                value=lambda x: (x * x).sum(axis=-1),
                gradient=lambda x: 2.0 * x + (np.asarray(x)[..., :1] > 1.0),
                kind="smooth",
            )

    def test_hessian_validation_rejects_wrong_quadratic_hessian(self):
        """The line search expands a quadratic on its Hessian, so a Hessian
        off by a factor of 2 is rejected at construction."""
        A = np.array([[2.0, 1.0], [1.0, 3.0]])

        def quadratic(hessian_matrix):
            return ObjectiveModel(
                value=lambda x: 0.5 * ((x @ A) * x).sum(axis=-1),
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

    def test_plain_piecewise_kind_is_refused(self):
        """A stage reads a piecewise objective's active pieces, which only
        PiecewiseMaxObjective has, so |x1| + |x2| declared as a plain
        piecewise ObjectiveModel is refused when built, not at the first
        iterate of a run."""
        with pytest.raises(ValueError, match="PiecewiseMaxObjective"):
            ObjectiveModel(value=lambda x: np.abs(x).sum(axis=-1),
                           gradient=lambda x: np.sign(x), kind="piecewise", dim=2,
                           kink_locator=lambda x, i, lo, hi: (0.0,) if lo < 0.0 < hi else ())

    def test_quadratic_objective_roundtrip(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([-1.0, 0.5])
        obj = quadratic_objective(A, b, const=2.0)
        x = np.array([0.3, -0.7])
        assert obj.value(x) == pytest.approx(0.5 * x @ A @ x + b @ x + 2.0)
        np.testing.assert_allclose(obj.gradient(x), A @ x + b)
        np.testing.assert_allclose(obj.hessian(x), A)


class TestStackContract:
    """value/gradient/hessian answer a (k, n) stack row by row, as per-point calls do."""

    @pytest.mark.parametrize("name,obj", _stack_cases(), ids=[n for n, _ in _stack_cases()])
    def test_stacked_values_match_per_point_calls(self, name, obj):
        """A stack of k points gives k values, each within 1 ulp of the
        point's own value."""
        rng = np.random.default_rng(6)
        for k in sorted({1, obj.dim, 7}):
            z = rng.uniform(-3.0, 3.0, (k, obj.dim))
            values = obj.value(z)
            assert np.shape(values) == (k,)
            single = np.array([obj.value(row) for row in z])
            assert (np.abs(values - single) <= np.spacing(np.abs(single))).all()

    @pytest.mark.parametrize("make,value,kind", [
        (example1_objective, -2.4299999999999997, float),
        (example2_objective, -1.23, float),
        (example3_objective, 0.8, np.float64),
    ])
    def test_single_point_values_keep_type_and_bits(self, make, value, kind):
        got = make().value(np.array([0.3, -0.7]))
        assert type(got) is kind and got == value

    @pytest.mark.parametrize("kind", ["smooth", "piecewise"])
    def test_construction_makes_one_value_call(self, kind):
        """The finite-difference check evaluates its whole stencil, 2 n rows
        at each of its 10 points, in one value call."""
        calls = []
        if kind == "smooth":
            obj = logistic_losses()[0]
            ObjectiveModel(lambda x: calls.append(np.shape(x)) or obj.value(x), obj.gradient,
                           obj.hessian, kind=kind, kink_locator=obj.kink_locator, dim=obj.dim)
            assert calls == [(10 * 2 * obj.dim, obj.dim)]
        else:
            # Each value call of the max, and its gradient's row-wise argmax,
            # reads every piece once: the 10 points, then the stencil.
            (value, gradient), other = example3_objective()._pieces
            counting = lambda x: calls.append(np.shape(x)) or value(x)
            PiecewiseMaxObjective([(counting, gradient), other], 2, _example3_kinks)
            assert calls == [(10, 2), (10 * 2 * 2, 2)]

    def test_point_only_value_is_refused_at_construction(self):
        """A value that reduces a whole stack to one number is refused."""
        with pytest.raises(ValueError, match=re.escape("value of a (40, 2) stack has shape ()")):
            ObjectiveModel(value=lambda x: float(np.sum(x ** 2)), gradient=lambda x: 2.0 * x,
                           kind="smooth")

    def test_kinks_in_every_stencil_are_refused(self):
        """A kink locator that finds a kink in every check stencil leaves no
        point for the check: construction raises, after a bounded scan."""
        pieces = example3_objective()._pieces
        with pytest.raises(ValueError, match=f"{_FD_CHECK_CANDIDATES} of {_FD_CHECK_CANDIDATES}"):
            PiecewiseMaxObjective(pieces, dim=2,
                                  kink_locator=lambda x, i, lo, hi: (0.5 * (lo + hi),))

    @pytest.mark.parametrize("name,obj", _stack_cases(), ids=[n for n, _ in _stack_cases()])
    def test_stacked_rows_match_per_point_calls(self, name, obj):
        rng = np.random.default_rng(5)
        n = obj.dim
        for k in sorted({n, 7}):  # k == n catches A @ Z mixing the rows of a square stack
            z = rng.uniform(-3.0, 3.0, (k, n))
            g = obj.gradient(z)
            assert np.shape(g) == (k, n)
            for row, gr in zip(z, g):
                np.testing.assert_allclose(gr, obj.gradient(row), rtol=1e-14,
                                           atol=1e-14 * np.abs(gr).max())
            if obj.hessian is None:  # a piecewise objective is a value and a gradient
                assert obj.kind == "piecewise"
                continue
            h = obj.hessian(z)
            assert np.shape(h) == (k, n, n)
            for row, hr in zip(z, h):
                np.testing.assert_allclose(hr, obj.hessian(row), rtol=1e-14,
                                           atol=1e-14 * np.abs(hr).max())

    def test_example3_stack_selects_the_active_piece_per_row(self):
        obj = example3_objective()
        z = np.array([[4.0, 3.0], [-1.0, 2.0], [0.5, 0.5]])  # quad, quad, linear
        np.testing.assert_array_equal(obj.gradient(z), [[8.0, 6.0], [-2.0, 4.0], [5.0, 1.0]])
        assert obj.hessian is None

    def test_point_only_gradient_is_rejected_at_construction(self):
        """The finite-difference check runs on a stack, so a gradient that
        reads x[0] as the first coordinate fails it."""
        with pytest.raises(ValueError, match="stack"):
            ObjectiveModel(value=lambda x: float(x[0] ** 2 + x[1] ** 2),
                           gradient=lambda x: np.array([2.0 * x[0], 2.0 * x[1]]),
                           kind="smooth")

    def test_exact_ties_take_the_first_piece(self):
        """Pieces tied for the max exactly give the first one's gradient, row
        by row (the row-wise argmax): the linear piece's (5, 1) at the
        origin, at (5, 0) and at (0, 1), where the quadratic's is (0, 0),
        (10, 0) and (0, 2).  Both pieces are active there, and
        active_gradients lists the linear piece's gradient first; at
        (0.5, 0.5) the quadratic lies 2.5 below the max and stays out."""
        obj = example3_objective()
        np.testing.assert_array_equal(obj.gradient(np.zeros(2)), [5.0, 1.0])
        z = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        np.testing.assert_array_equal(obj.gradient(z), [[5.0, 1.0]] * 4)
        for x, quadratic in zip(z, ([0.0, 0.0], [10.0, 0.0], [0.0, 2.0])):
            np.testing.assert_array_equal(obj.active_gradients(x), [[5.0, 1.0], quadratic])
        np.testing.assert_array_equal(obj.active_gradients(z[3]), [[5.0, 1.0]])

    def test_active_gradients_hold_the_pieces_within_the_tolerance(self):
        """|x1| + |x2| near its kinks: the rows are the largest piece's
        gradient, then the other pieces' within ACTIVE_TOLERANCE of the max
        in piece order, and subgradient is their mean.  A piece further
        below the max stays out."""
        obj = l1_norm()
        tol = ACTIVE_TOLERANCE
        cases = [
            ((0.4 * tol, 0.0), [[1, 1], [1, -1], [-1, 1], [-1, -1]]),  # all within 0.8 tol
            ((0.6 * tol, 0.0), [[1, 1], [1, -1]]),  # the others 1.2 tol below
            ((-1.0, 0.25 * tol), [[-1, 1], [-1, -1]]),
            ((-1.0, -0.25 * tol), [[-1, -1], [-1, 1]]),  # the largest first
            ((2.0, 3.0), [[1, 1]]),
        ]
        for x, rows in cases:
            x = np.array(x)
            np.testing.assert_array_equal(obj.active_gradients(x), rows)
            np.testing.assert_array_equal(obj.active_gradients(x)[0], obj.gradient(x))
            np.testing.assert_array_equal(obj.subgradient(x), np.mean(rows, axis=0))

    def test_exact_ties_of_equal_gradient_norms_take_the_first(self):
        """max(x1, x2) on the diagonal: the first piece's (1, 0) is taken,
        as at every exact tie, whatever the gradient norms."""
        pieces = [(lambda x, i=i: x[..., i],
                   lambda x, i=i: np.broadcast_to(np.eye(2)[i], np.shape(x))) for i in (0, 1)]
        obj = PiecewiseMaxObjective(
            pieces, dim=2,
            kink_locator=lambda x, i, lo, hi: (x[1 - i],) if lo < x[1 - i] < hi else ())
        np.testing.assert_array_equal(obj.gradient(np.array([[2.0, 2.0], [1.0, 3.0]])),
                                      [[1.0, 0.0], [0.0, 1.0]])

    def test_example3_subgradient_averages_tied_pieces(self):
        obj = example3_objective()
        np.testing.assert_array_equal(obj.subgradient(np.zeros(2)), [2.5, 0.5])
        x = np.array([3.0, 1.0])
        np.testing.assert_array_equal(obj.subgradient(x), obj.gradient(x))

    @pytest.mark.parametrize("name", ["example3", "l1"])
    def test_piecewise_has_the_bits_of_stack_and_mean(self, name):
        """value, gradient and subgradient have the bits of the np.stack and
        np.mean forms, at single points and on (k, n) stacks, with exact
        ties and with 1 to 4 pieces within ACTIVE_TOLERANCE of the max."""
        obj = example3_objective() if name == "example3" else l1_norm()
        rng = np.random.default_rng(11)
        points = [[0.0, 0.0], [5.0, 0.0], [0.0, 1.0], [0.5, 0.5], [3.0, 1.0], [1.0, 2.0],
                  [1.0, 0.0], [1e-10, 0.0], [3e-7, 4e-7], [-2.5, 1e-12]]
        points = np.vstack([points, rng.uniform(-3.0, 3.0, (20, 2))])
        counts = set()
        for x in points:
            value, gradient = stacked_piecewise(obj._pieces, x)
            assert bits(obj.value(x)) == bits(value)
            assert bits(obj.gradient(x)) == bits(gradient)
            assert bits(obj.subgradient(x)) == bits(mean_subgradient(obj._pieces, x))
            values = np.array([p[0](x) for p in obj._pieces])
            counts.add(int((values >= values.max() - ACTIVE_TOLERANCE).sum()))
        assert counts == ({1, 2} if name == "example3" else {1, 2, 3, 4})
        for k in (1, 2, 7):
            z = points[:k] if k < 7 else points[-7:]
            value, gradient = stacked_piecewise(obj._pieces, z)
            assert bits(obj.value(z)) == bits(value)
            assert bits(obj.gradient(z)) == bits(gradient)


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

    @pytest.mark.parametrize("reg", ["diag", "outer"])
    def test_merit_keeps_its_own_terminal(self, reg):
        """Writing into the caller's terminal after the merit is built, or
        after `tikhonov_solve` built its merits, changes neither a merit's
        value nor its gradient."""
        obj = quadratic_objective(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0]))
        c, x = np.array([0.5, -0.5]), np.array([1.0, 2.0])
        merit = regularized(obj, 0.3, c, reg)
        mop = random_quadratic_mop(2, 3, 2, seed=3)
        terminal = c.copy()
        merits = tikhonov_solve(mop, 0.3, np.array([0.5, 0.5]), terminal, reg).merits
        before = [(m.value(x), m.gradient(x).tobytes()) for m in (merit, *merits)]
        if reg == "diag":
            assert before[0][0] == 4.0125
            assert merit.gradient(x).tolist() == [4.3, 2.25]
        c[:] = terminal[:] = 7.0
        assert [(m.value(x), m.gradient(x).tobytes()) for m in (merit, *merits)] == before


def stacked_gradients(models, x):
    """A @ x + B on the models' `quadratic_stack`, read at another point."""
    a, b = quadratic_stack(models, np.ones_like(x))
    return a @ x + b


class TestGradientStack:
    @pytest.mark.parametrize("reg", [None, "diag", "outer"])
    @pytest.mark.parametrize("n", [2, 100])
    @pytest.mark.parametrize("m", [2, 3])
    def test_stacked_gradients_match_per_objective_gradients(self, reg, n, m):
        """A @ x + B on the models' `quadratic_stack` gives the m gradient
        calls' bits, on seeded draws of factors, targets, gamma, c and x
        over twelve decades: raw models and diag or outer merits."""
        rng = np.random.default_rng(10 * n + m)
        for _ in range(100):
            scale = 10.0 ** rng.uniform(-6.0, 6.0, size=5)
            mop = QuadraticMop(factors=tuple(scale[0] * rng.uniform(-1, 1, (n, n + 1))
                                             for _ in range(m)),
                               targets=tuple(scale[1] * rng.uniform(-1, 1, n + 1)
                                             for _ in range(m)))
            c, x = scale[2] * rng.uniform(-1, 1, n), scale[3] * rng.uniform(-1, 1, n)
            models = [obj if reg is None else regularized(obj, scale[4], c, reg)
                      for obj in mop.objectives()]
            assert (stacked_gradients(models, x).tobytes()
                    == np.array([g.gradient(x) for g in models]).tobytes())

    def test_mixed_pulls_stack(self):
        """Diag and outer merits side by side, merits about different
        terminals, and a merit next to a raw model stack, and give the
        gradient calls' bits."""
        objectives = random_quadratic_mop(3, 4, 2, seed=8).objectives()
        c = np.zeros(3)
        for models in ([regularized(objectives[0], 0.5, c, "diag"),
                        regularized(objectives[1], 0.5, c, "outer")],
                       [regularized(objectives[0], 0.5, c), regularized(objectives[1], 0.5, c + 1)],
                       [objectives[0], regularized(objectives[1], 0.5, c)]):
            for x in np.random.default_rng(8).uniform(-3.0, 3.0, (20, 3)):
                assert (stacked_gradients(models, x).tobytes()
                        == np.array([g.gradient(x) for g in models]).tobytes())

    def test_stack_reads_each_model_once_and_is_read_only(self):
        """One Hessian and one gradient call per quadratic, none for a
        smooth model, whose slots are zeros; neither stack can be written."""
        quadratic = quadratic_objective(np.diag([2.0, 3.0]), np.array([1.0, -1.0]))
        counts = Counter()

        def counted(obj):
            def call(name):
                def f(x):
                    counts[name, obj.kind] += 1
                    return getattr(obj, name)(x)
                return f
            return dataclasses.replace(obj, gradient=call("gradient"),
                                       hessian=call("hessian"), validate=False)

        smooth = ObjectiveModel(lambda x: (np.asarray(x) ** 4).sum(axis=-1),
                                lambda x: 4 * np.asarray(x) ** 3,
                                lambda x: 12 * np.asarray(x) ** 2 * np.eye(2), dim=2)
        a, b = quadratic_stack([counted(quadratic), counted(smooth)], np.array([5.0, 7.0]))
        assert counts == {("gradient", "quadratic"): 1, ("hessian", "quadratic"): 1}
        assert a.tolist() == [[[2.0, 0.0], [0.0, 3.0]], [[0.0, 0.0], [0.0, 0.0]]]
        assert b.tolist() == [[1.0, -1.0], [0.0, 0.0]]
        assert not a.flags.writeable and not b.flags.writeable


class TestRegularizedDenseReference:
    """The merit equals the dense construction H + gamma R: the same
    gradient (H + gamma R) x + grad f(0) - gamma R c and value bit for bit,
    for a point and a stack, and the same Hessian under == (the dense sum
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
                assert merit.value(stack).tobytes() == dense.value(stack).tobytes()


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

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -0.5])
    def test_gamma_is_finite_and_nonnegative(self, gamma):
        """A NaN or infinite gamma is refused by name, as a stage's is,
        rather than surfacing as a singular system."""
        mop = random_quadratic_mop(3, 5, 2, seed=21)
        with pytest.raises(ValueError, match="gamma must be nonnegative and finite"):
            tikhonov_solve(mop, gamma, np.array([0.5, 0.5]), np.zeros(3))

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

    def test_singular_values_are_one_svd_of_the_system(self, monkeypatch):
        """The solve makes one SVD of its system, and sigma_min, sigma_max
        and kappa are its extreme singular values."""
        mop = random_quadratic_mop(4, 6, 2, seed=17)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        sol = tikhonov_solve(mop, 0.5, np.array([0.5, 0.5]), np.zeros(4))
        assert len(calls) == 1
        sigma = svd(sol.a_matrix, compute_uv=False)
        assert (sol.sigma_min, sol.sigma_max, sol.kappa) == (
            float(sigma[-1]), float(sigma[0]), float(sigma[0]) / float(sigma[-1]))

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

    @pytest.mark.parametrize("x_star, terminal", [(None, None), ([-0.0, 1.0], [0.0, -2.5])])
    def test_bytes_match_indented_dump(self, tmp_path, x_star, terminal):
        """The file is json.dumps of its own document with indent=1, byte for
        byte: with -0.0, the least subnormal, 1e308, nan and +-inf among the
        entries, x_star None or given, and a terminal or none."""
        W = np.array([[-0.0, 5e-324, 1e308], [np.nan, np.inf, -np.inf]])
        y = np.array([1.5, -0.0, 5e-324])
        with np.errstate(all="ignore"):
            mop = QuadraticMop(factors=(W, 2.0 * W), targets=(y, -y), x_star=x_star, seed=3)
        path = tmp_path / "instance.json"
        save_mop(mop, path, terminal=None if terminal is None else np.array(terminal))
        text = path.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=1)
        assert (doc["x_star"], doc["c"]) == (x_star, terminal)
        assert doc["W"][0][0] == [-0.0, 5e-324, 1e308] and doc["W"][1][0][2] == float("inf")
