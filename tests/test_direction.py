"""Tests for the min-norm direction subproblem and its oracles."""

import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest

import mofgd.direction as direction
from mofgd import (
    DirectionAccuracyError,
    solve_direction,
)
from oracles import brute_force_direction, norm_order, segment_min_norm, segment_weights


def random_gradients(rng, m, n, scale=1.0):
    return [scale * rng.standard_normal(n) for _ in range(m)]


def patch_statistics(monkeypatch, gap=None, kkt=None):
    """Make solve_direction see the given scaled gap or KKT residual in both
    regimes: in what `_solve_pair` returns for m = 2, and from `_dual_gap`
    and `_result_from` for m >= 3."""
    pair, result_from = direction._solve_pair, direction._result_from

    def with_kkt(result):
        return result if kkt is None else dataclasses.replace(result, kkt_residual=kkt)

    def solve_pair(G):
        result, scale, exact_gap = pair(G)
        return with_kkt(result), scale, exact_gap if gap is None else gap

    monkeypatch.setattr(direction, "_solve_pair", solve_pair)
    monkeypatch.setattr(direction, "_result_from", lambda *args: with_kkt(result_from(*args)))
    if gap is not None:
        monkeypatch.setattr(direction, "_dual_gap", lambda *args: gap)


# Finite gradients whose squared norms overflow.
OVERFLOWING = [
    [[1e200, 0.0], [0.0, 1e200]],
    [[1e200, 1e200], [1e200, 1e200], [1e200, 0.0]],
    [[1e200, 1e200]],
]


class TestSolveDirection:
    def test_single_objective(self):
        """m=1: d = -g, t = -||g||^2, theta = -||g||^2/2."""
        r = solve_direction([np.array([3.0, 4.0])])
        np.testing.assert_allclose(r.direction, [-3.0, -4.0])
        assert r.t_value == pytest.approx(-25.0)
        np.testing.assert_allclose(r.multipliers, [1.0])
        assert r.theta == pytest.approx(-12.5)

    def test_orthonormal_pair(self):
        """g1=(1,0), g2=(0,1): midpoint of the segment is the min-norm point."""
        r = solve_direction([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        np.testing.assert_allclose(r.multipliers, [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(r.direction, [-0.5, -0.5], atol=1e-9)
        assert r.t_value == pytest.approx(-0.5, abs=1e-9)
        assert r.theta == pytest.approx(-0.25, abs=1e-9)

    def test_opposed_gradients_give_zero(self):
        """0 in conv{g, -g} means the point is critical: d = 0, t = 0."""
        g = np.array([1.3, -0.4, 2.0])
        r = solve_direction([g, -g])
        assert np.linalg.norm(r.direction) <= 1e-8
        assert abs(r.t_value) <= 1e-8

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            solve_direction([np.array([np.inf, 0.0])])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_rejects_nonfinite_entries_before_any_warning(self, bad, m, as_array):
        """An inf or NaN entry raises ValueError, and no warning first, from
        a list of gradients and from an (m, n) float array; the bad entry
        meets zeros in G G^T."""
        G = np.arange(1.0, 2 * m + 1).reshape(m, 2)
        G[:, 1] = 0.0
        G[m - 1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_direction(G if as_array else list(G))

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_norm_is_the_square_root_of_d_dot_d(self, m):
        """norm is math.sqrt(d @ d) bit for bit, and a result with another t
        keeps it."""
        rng = np.random.default_rng(m)
        for exponent in range(-60, 61, 10):
            G = 10.0 ** exponent * rng.standard_normal((m, 7))
            r = solve_direction(G)
            assert bits(r.norm) == bits(math.sqrt(r.direction @ r.direction))
            replaced = dataclasses.replace(r, t_value=r.t_value - 1.0)
            assert bits(replaced.norm) == bits(r.norm)

    def test_all_zero_gradients(self):
        r = solve_direction([np.zeros(3), np.zeros(3)])
        np.testing.assert_allclose(r.direction, np.zeros(3))
        assert r.t_value == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_kkt_residuals(self, seed):
        """Multipliers on the simplex, feasibility and complementary slackness."""
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        r = solve_direction(random_gradients(rng, m, n))
        lam = r.multipliers
        assert lam.min() >= -1e-10
        assert abs(lam.sum() - 1.0) <= 1e-10
        assert r.kkt_residual <= 1e-8
        assert r.theta <= 1e-12
        if r.norm > 0:
            assert r.t_value <= -0.5 * r.norm ** 2 + 1e-8
            assert r.t_value >= -r.norm ** 2 - 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_constructed_critical_points(self, seed):
        """Gradients built with sum(lam_bar g) = 0 must yield d ~ 0; gradients
        in an open half-space must not."""
        rng = np.random.default_rng(100 + seed)
        m, n = 3, 4
        lam_bar = rng.dirichlet(np.ones(m))
        gs = [rng.standard_normal(n) for _ in range(m - 1)]
        last = -sum(lam_bar[j] * gs[j] for j in range(m - 1)) / lam_bar[m - 1]
        r = solve_direction(gs + [last])
        assert np.linalg.norm(r.direction) <= 1e-8

        anchor = rng.standard_normal(n)
        anchor /= np.linalg.norm(anchor)
        half = [anchor + 0.3 * rng.standard_normal(n) for _ in range(m)]
        half = [g if g @ anchor > 0.1 else anchor for g in half]
        r2 = solve_direction(half)
        assert np.linalg.norm(r2.direction) > 0

    @pytest.mark.parametrize("scale", [0.01, 1.0, 250.0])
    def test_scale_covariance(self, scale):
        """theta(s g) = s^2 theta(g) for s > 0."""
        rng = np.random.default_rng(5)
        gs = random_gradients(rng, 3, 4)
        base = solve_direction(gs)
        scaled = solve_direction([scale * g for g in gs])
        assert scaled.theta == pytest.approx(scale ** 2 * base.theta,
                                             abs=1e-8 * max(1.0, scale ** 2))
        np.testing.assert_allclose(scaled.direction, scale * base.direction,
                                   atol=1e-6 * max(1.0, scale))

    def test_nearly_collinear_gradients_still_accurate(self):
        """Ill-conditioned duals must still hit the gap target: the m=2 closed
        form works on the difference vector."""
        g1 = np.array([1.0, 0.0])
        g2 = g1 + np.array([1e-6, 1e-6])
        r = solve_direction([g1, g2])
        rc = segment_min_norm(g1, g2)
        assert abs(0.5 * r.norm ** 2 + r.theta - (0.5 * rc.norm ** 2 + rc.theta)) <= 1e-12
        assert r.kkt_residual <= 1e-8

    def test_kkt_check_raises_typed_error(self, monkeypatch):
        """A result failing the KKT check raises DirectionAccuracyError
        naming its residual, from the m = 2 solve and from the m >= 3 one."""
        for m in (2, 3):
            with monkeypatch.context() as patch:
                patch_statistics(patch, kkt=1e-3)
                with pytest.raises(DirectionAccuracyError,
                                   match=r"^KKT residual 1\.000e-03 at scale "):
                    solve_direction(np.eye(m))

    def test_results_and_errors_pickle(self):
        """A slotted DirectionResult, and a DirectionAccuracyError with its
        message, survive a pickle round trip; dataclasses.replace still
        works."""
        r = solve_direction(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert not hasattr(r, "__dict__")
        err = DirectionAccuracyError("scaled duality gap nan above 1e-08")
        back, back_err = pickle.loads(pickle.dumps((r, err)))
        assert type(back_err) is DirectionAccuracyError and str(back_err) == str(err)
        for field in dataclasses.fields(r):
            assert bits(getattr(back, field.name)) == bits(getattr(r, field.name))
        assert dataclasses.replace(r, t_value=-1.0).t_value == -1.0

    @pytest.mark.parametrize("gradients", OVERFLOWING)
    def test_overflowed_gradients_raise(self, gradients):
        """Finite gradients whose squared norms overflow have no finite scale;
        the solve used to pass its checks against an infinite bound (t = 0,
        or t = -inf with a NaN KKT residual)."""
        with np.errstate(all="ignore"), pytest.raises(DirectionAccuracyError,
                                                      match="gradient scale inf"):
            solve_direction(gradients)

    @pytest.mark.parametrize("gradients", OVERFLOWING)
    def test_overflowed_gradient_arrays_raise(self, gradients):
        """The same from an (m, n) float array, which the solve reads as it
        is: an overflowed sum of squares is not taken for a non-finite
        entry."""
        with np.errstate(all="ignore"), pytest.raises(DirectionAccuracyError,
                                                      match="gradient scale inf"):
            solve_direction(np.array(gradients))

    @pytest.mark.parametrize("stage", ["_dual_gap", "_result_from"])
    def test_nan_check_statistics_raise(self, stage, monkeypatch):
        """A NaN gap (the m >= 3 stage _dual_gap) or KKT residual (the stage
        _result_from) fails its bound, from the m = 2 solve and from the
        m >= 3 one."""
        nan = float("nan")
        patch_statistics(monkeypatch, **{"gap" if stage == "_dual_gap" else "kkt": nan})
        for m in (2, 3):
            with pytest.raises(DirectionAccuracyError,
                               match="gap" if stage == "_dual_gap" else "KKT"):
                solve_direction(np.eye(m))


def scaled_gram(G):
    """G G^T over the mean squared gradient norm (at least 1), as the solver scales it."""
    K = G @ G.T
    return K / max(1.0, float(np.mean(np.diag(K))))


def frank_wolfe_gap(K, lam):
    """lam^T K lam - min_j (K lam)_j: zero exactly at a minimizer of 1/2 lam^T K lam."""
    grad = K @ lam
    return float(lam @ grad - grad.min())


def enumerate_supports(K):
    """Exact dual minimizer: the best simplex-feasible KKT point over all supports."""
    m = K.shape[0]
    best, best_val = None, np.inf
    for k in range(1, m + 1):
        for sup in itertools.combinations(range(m), k):
            kkt = np.ones((k + 1, k + 1))
            kkt[:k, :k] = K[np.ix_(sup, sup)]
            kkt[k, k] = 0.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
            if sol.min() < -1e-12:
                continue
            lam = np.zeros(m)
            lam[list(sup)] = np.maximum(sol, 0.0) / np.maximum(sol, 0.0).sum()
            if lam @ K @ lam < best_val:
                best, best_val = lam, float(lam @ K @ lam)
    return best


def simplex_project(v):
    """Euclidean projection onto {x >= 0, sum x = 1} (sort-based, exact)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1.0), 0.0)


class TestIndependentBranchOracles:
    """The m >= 3 non-negative least-squares solve against oracles that do not use it."""

    @pytest.mark.parametrize("seed", range(30))
    def test_enumeration_matches_m2_closed_form(self, seed):
        """On m=2 the NNLS routine and support enumeration both reach the closed form."""
        rng = np.random.default_rng(300 + seed)
        G = rng.standard_normal((2, int(rng.integers(1, 6))))
        K = scaled_gram(G)
        gram, scale = direction._gram_scale(G)
        closed = segment_min_norm(G[0], G[1])
        nnls = direction._result_from(G, direction._nnls_weights(gram, scale), [0, 1])
        enum = direction._result_from(G, enumerate_supports(K), [0, 1])
        for other in (nnls, enum):
            assert abs(0.5 * other.norm ** 2 - 0.5 * closed.norm ** 2) <= 1e-12
            assert other.kkt_residual <= 1e-8

    @pytest.mark.parametrize("seed", range(30))
    def test_projected_gradient_matches_enumeration(self, seed):
        """For 3 <= m <= 6 the solver's lambda is a projected-gradient fixed point
        with zero Frank-Wolfe gap, matches support enumeration, and no lattice
        point beats it."""
        rng = np.random.default_rng(400 + seed)
        m = 3 + seed % 4
        G = rng.standard_normal((m, int(rng.integers(1, 8))))
        K = scaled_gram(G)
        r = solve_direction(G)
        lam = r.multipliers
        assert r.kkt_residual <= 1e-8
        assert frank_wolfe_gap(K, lam) <= 1e-12
        assert np.abs(simplex_project(lam - K @ lam) - lam).max() <= 1e-10
        best = enumerate_supports(K)
        assert abs(0.5 * lam @ K @ lam - 0.5 * best @ K @ best) <= 1e-12
        brute = brute_force_direction(G, 12)
        assert 0.5 * brute.norm ** 2 >= 0.5 * r.norm ** 2 - 1e-12

    @pytest.mark.parametrize("n", [4, 50])
    @pytest.mark.parametrize("m", [3, 5])
    def test_nearly_collinear_gradients_match_enumeration(self, m, n):
        """Gradients c_j g + noise, with c_j of both signs, relative noise
        1e-2 to 1e-1 and scales 1e-3 to 1e3: where the normal equations
        K / scale + 1 1^T are closest to singular.  The weights match support
        enumeration to 1e3 eps over the curvature of the thin directions,
        (min(1, scale) noise)^2 (the Gram scale is at least 1), and the
        scaled gap stays at rounding level."""
        rng = np.random.default_rng(100 * m + n)
        eps = np.finfo(float).eps
        for _ in range(60):
            noise, scale = 10.0 ** rng.uniform(-2.0, -1.0), 10.0 ** rng.uniform(-3.0, 3.0)
            G = scale * (rng.uniform(-1.0, 2.0, size=(m, 1)) * rng.standard_normal(n)
                         + noise * rng.standard_normal((m, n)))
            r = solve_direction(G)
            best = enumerate_supports(scaled_gram(G))
            curvature = (min(1.0, scale) * noise) ** 2
            assert np.abs(r.multipliers - best).max() <= 1e3 * eps / curvature
            gram, gram_scale = direction._gram_scale(G)
            assert direction._dual_gap(gram, gram_scale, r.multipliers) <= 1e-12


def array_result(G, lam):
    """(t, d, kkt_residual, theta) from numpy array formulas: the reference
    for the float arithmetic of `direction._result_from`."""
    d = -G.T @ lam
    slopes = G @ d
    t = float(slopes.max())
    excess = slopes - t
    feas = float(np.maximum(excess, 0.0).max())
    comp = float(np.abs(lam * excess).max())
    simplex = max(abs(float(lam.sum()) - 1.0), float(np.maximum(-lam, 0.0).max()))
    return t, d, max(feas, comp, simplex), t + 0.5 * float(d @ d)


def array_gap(G, lam):
    """Dual gap of lam on the scaled Gram matrix, from numpy array formulas."""
    K = G @ G.T
    grad = (K / max(1.0, float(K.trace()) / K.shape[0])) @ lam
    return float(lam @ grad - grad.min())


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


class TestArrayReference:
    """The solve's float arithmetic reproduces the array formulas bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("n", [2, 100])
    def test_matches_array_formulas(self, m, n):
        """For m != 2 the formulas read the rows sorted by norm, and the
        weights go back to row order."""
        rng = np.random.default_rng(10 * m + n)
        for exponent in range(-100, 101, 10):
            G = 10.0 ** exponent * rng.standard_normal((m, n))
            order = norm_order(G) if m != 2 else np.arange(2)
            rows = G[order]
            K = rows @ rows.T
            scale = max(1.0, float(K.trace()) / m)
            lam = (np.ones(1) if m == 1 else segment_weights(G[0], G[1]) if m == 2
                   else direction._nnls_weights(K.tolist(), scale))
            t, d, kkt, theta = array_result(rows, lam)
            r = solve_direction(G)
            assert bits(r.multipliers[order]) == bits(lam)
            assert bits(r.direction) == bits(d)
            assert bits(r.t_value) == bits(t)
            assert bits(r.theta) == bits(theta)
            assert bits(r.norm) == bits(np.linalg.norm(d))
            # Python sums add the m weights and the m products in another
            # order: a few roundings of terms no larger than 1 and max |K| / scale.
            eps = np.finfo(float).eps
            assert abs(r.kkt_residual - kkt) <= m * eps
            gram, gram_scale = direction._gram_scale(rows)
            # The loop's Gram is the G G^T that _nnls_weights once formed
            # itself, so lam above is the G-based form's, bit for bit.
            assert bits(gram) == bits(K) and bits(gram_scale) == bits(scale)
            gap_terms = np.abs(K).max() / scale
            assert abs(direction._dual_gap(gram, gram_scale, lam)
                       - array_gap(rows, lam)) <= 4 * m * eps * gap_terms


    @pytest.mark.parametrize("n", [2, 100])
    def test_dot_products_match_matmul(self, n):
        """The m = 2 solve forms every product with ndarray.dot (the 1-D dots,
        G G^T, (-lambda)^T G and G d), which gives the bits of the @ forms
        on gradients over twelve decades."""
        rng = np.random.default_rng(n)
        for _ in range(3000):
            G = 10.0 ** rng.uniform(-6.0, 6.0, size=(2, 1)) * rng.standard_normal((2, n))
            g1, g2 = G
            diff = g1 - g2
            den = float(diff @ diff)
            lam1 = 1.0 if den == 0.0 else min(1.0, max(0.0, -float(diff @ g2) / den))
            r = solve_direction(G)
            assert bits(r.multipliers) == bits([lam1, 1.0 - lam1])
            d = G.T @ -r.multipliers
            assert bits(r.direction) == bits(d)
            assert bits(r.t_value) == bits(max((G @ d).tolist()))
            assert bits(r.norm) == bits(math.sqrt(float(d @ d)))
            assert bits(r.theta) == bits(r.t_value + 0.5 * float(d @ d))


def loop_solve(G):
    """The m != 2 solve with the weights of the active-set loop alone, run on
    the rows sorted by norm and their own Gram matrix: the result, and
    whether it passes the gap and KKT checks."""
    order = norm_order(G)
    rows = G[order]
    gram, scale = direction._gram_scale(rows)
    lam = direction._nnls_weights(gram, scale)
    result = direction._result_from(rows, lam, order)
    return result, (direction._dual_gap(gram, scale, lam) <= direction.GAP_FAIL
                    and result.kkt_residual <= 1e-8 * scale)


def tie_gradients(rng, m, n):
    """m gradients in n, drawn so that e_0 is often the minimizer and ties
    are common: independent rows, rows leaning on row 0, duplicate rows,
    rows of equal norm (sign flips of one row), near-duplicates, and
    orthogonal ties, rows i that copy row j on the axes where row j is
    nonzero and add other axes, so that K_ij == K_jj.  Scaled by 1e-6 to
    1e6, with row factors within a decade in half of the draws."""
    kind = rng.integers(6)
    G = rng.standard_normal((m, n))
    j = rng.integers(m)
    if kind == 1:
        G[1:] = G[0] * (1.0 + rng.uniform(0.0, 1.0, (m - 1, 1))) + 0.1 * G[1:]
    elif kind == 2:
        G[rng.integers(m)] = G[j]
    elif kind == 3:
        G = G[j] * rng.choice([-1.0, 1.0], size=(m, n))
    elif kind == 4:
        G = G[j] * (1.0 + 10.0 ** -rng.uniform(8.0, 16.0, (m, 1)))
    elif kind == 5:
        k = rng.integers(1, n + 1)
        G[j, k:] = 0.0
        G[:, :k] = G[j, :k]
    if rng.random() < 0.5:
        G *= 10.0 ** rng.uniform(-1.0, 1.0, (m, 1))
    return 10.0 ** rng.uniform(-6.0, 6.0) * G


def spy_loops(monkeypatch):
    """A list that records the arguments of every `_nnls_weights` call."""
    loops, nnls = [], direction._nnls_weights

    def spy(gram, scale):
        loops.append((gram, scale))
        return nnls(gram, scale)

    monkeypatch.setattr(direction, "_nnls_weights", spy)
    return loops


class TestVertexStep:
    """A solve whose answer is the vertex of the shortest gradient skips the
    loop and returns what the loop on the rows sorted by norm gives, bit
    for bit."""

    @pytest.mark.parametrize("m", [1, 3, 4, 5, 6])
    def test_solve_equals_the_loop_bit_for_bit(self, m):
        """Over seeded draws with n = 1..8 and every kind of tie, the solve's
        lambda, d, t, theta, norm, KKT residual and slopes have the bytes
        of the loop's on the rows sorted by norm, and it raises where the
        loop's weights fail a check."""
        rng = np.random.default_rng(42 + m)
        steps = 0
        for _ in range(1500):
            G = tie_gradients(rng, m, int(rng.integers(1, 9)))
            expected, ok = loop_solve(G)
            gram, scale = direction._gram_scale(G)
            steps += direction._vertex_step(gram, scale, norm_order(G)[0])[0] is not None
            if not ok:
                with pytest.raises(DirectionAccuracyError):
                    solve_direction(G)
                continue
            r = solve_direction(G)
            for field in dataclasses.fields(r):
                assert bits(getattr(r, field.name)) == bits(getattr(expected, field.name))
        assert steps == 1500 if m == 1 else steps > 250

    def test_vertex_gap_is_the_loops(self):
        """The gap read off column j of the shortest row is `_dual_gap` at
        e_j, and the weights are e_0 of the rows sorted by norm."""
        rng = np.random.default_rng(7)
        for _ in range(2000):
            G = tie_gradients(rng, int(rng.integers(3, 7)), int(rng.integers(1, 9)))
            gram, scale = direction._gram_scale(G)
            j = norm_order(G)[0]
            lam, gap = direction._vertex_step(gram, scale, j)
            if lam is not None:
                assert bits(lam) == bits(np.eye(len(G))[0])
                assert gap == direction._dual_gap(gram, scale, np.eye(len(G))[j])

    def test_the_shortest_vertex_skips_the_loop(self, monkeypatch):
        """The min-norm point of these rows is the shortest row, (1, 0).
        Listed in any of the six orders, it is found by the step, with a
        zero gap, and no loop runs."""
        G = np.array([[2.0, 0.0], [1.0, 0.0], [1.5, 3.0]])
        loops = spy_loops(monkeypatch)
        for order in itertools.permutations(range(3)):
            rows = G[list(order)]
            gram, scale = direction._gram_scale(rows)
            j = order.index(1)
            assert direction._vertex_step(gram, scale, j)[1] == 0.0
            assert bits(solve_direction(rows).multipliers) == bits(np.eye(3)[j])
        assert loops == []


def collinear_gradients(rng):
    """m = 3..6 gradients along one unit vector in n = 1..8, whose lengths
    lie within a relative 1e-9 to 1e-5 of each other, scaled by 1e-3 to
    1e3."""
    m, n = int(rng.integers(3, 7)), int(rng.integers(1, 9))
    v = rng.standard_normal(n)
    spread = 10.0 ** rng.uniform(-9.0, -5.0)
    lengths = 10.0 ** rng.uniform(-3.0, 3.0) * (1.0 + spread * rng.uniform(-1.0, 1.0, m))
    return lengths[:, None] * (v / np.linalg.norm(v))


class TestCollinearVertex:
    """For nearly collinear gradients the minimizer is the vertex of the
    shortest gradient.  The active-set loop can miss it, as it refuses the
    column of a shorter gradient whose pivot falls below NNLS_TOL, but the
    vertex step finds it before any loop runs."""

    def test_reported_triple(self):
        """The scalar gradients on whose rows, in the order given, the loop
        stops at e_0 with a scaled gap of 6.627e-08 solve to e_1, the
        shortest, through the vertex step, with a gap of 0."""
        G = np.array([[6.0356627], [6.0356623], [6.0356634]])
        gram, scale = direction._gram_scale(G)
        lam = direction._nnls_weights(gram, scale)
        assert bits(lam) == bits([1.0, 0.0, 0.0])
        assert f"{direction._dual_gap(gram, scale, lam):.3e}" == "6.627e-08"
        assert norm_order(G).tolist() == [1, 0, 2]
        step, gap = direction._vertex_step(gram, scale, 1)
        assert step is not None and gap == 0.0
        r = solve_direction(G)
        assert bits(r.multipliers) == bits([0.0, 1.0, 0.0])
        assert direction._dual_gap(gram, scale, r.multipliers) == 0.0
        assert r.kkt_residual <= 1e-8 * scale

    def test_seeded_collinear_draws(self, monkeypatch):
        """10,000 seeded draws: no solve raises, each returns the vertex of
        the shortest gradient, and no loop runs."""
        loops = spy_loops(monkeypatch)
        rng = np.random.default_rng(2026)
        for _ in range(10_000):
            G = collinear_gradients(rng)
            r = solve_direction(G)
            assert bits(r.multipliers) == bits(np.eye(len(G))[norm_order(G)[0]])
        assert loops == []

    def test_a_failing_vertex_raises_the_loop_gap(self, monkeypatch):
        """An answer of the loop that fails the gap check raises on its own
        gap: no other answer is tried."""
        monkeypatch.setattr(direction, "_nnls_weights",
                            lambda gram, scale: np.array([0.5, 0.5, 0.0]))
        with pytest.raises(DirectionAccuracyError, match=r"^scaled duality gap 5\.000e-01 above"):
            solve_direction(np.eye(3))


def distinct_norm_gradients(rng, m, n):
    """m gradients in n of distinct norms, scaled by 1e-6 to 1e6: independent
    rows in half of the draws, and in the other half rows that lean on one
    direction with lengths within a factor 2, so that the shortest row's
    vertex is often the answer."""
    G = rng.standard_normal((m, n))
    if rng.random() < 0.5:
        G = rng.standard_normal(n) * (1.0 + rng.uniform(0.0, 1.0, (m, 1))) + 0.1 * G
    return 10.0 ** rng.uniform(-6.0, 6.0) * G


class TestRowOrder:
    """The m != 2 solve does not depend on the order of the objectives."""

    @pytest.mark.parametrize("n", [2, 4, 8, 100])
    def test_a_permutation_of_the_rows_permutes_the_answer(self, n):
        """Over seeded draws with m = 3..6, solving the rows in a random
        order gives the multipliers and slopes of the rows as drawn in that
        order, and d, t, ||d||, theta and the KKT residual with the same
        bits, on vertex and on loop answers."""
        rng = np.random.default_rng(n)
        vertices = 0
        for _ in range(750):
            m = int(rng.integers(3, 7))
            G = distinct_norm_gradients(rng, m, n)
            p = rng.permutation(m)
            r, q = solve_direction(G), solve_direction(G[p])
            assert bits(q.multipliers) == bits(r.multipliers[p])
            assert bits(q.slopes) == bits(np.array(r.slopes)[p])
            for name in ("direction", "t_value", "norm", "theta", "kkt_residual"):
                assert bits(getattr(q, name)) == bits(getattr(r, name))
            vertices += np.count_nonzero(r.multipliers) == 1
        assert 100 < vertices < 650


class TestLargeM:
    """m > 6 goes through the same non-negative least-squares solve as 3 <= m <= 6."""

    @pytest.mark.parametrize("n", [3, 8, 30])
    @pytest.mark.parametrize("m", [7, 10, 16, 40])
    def test_feasible_kkt_and_scale_covariant(self, m, n):
        rng = np.random.default_rng(1000 * m + n)
        gs = random_gradients(rng, m, n)
        base = solve_direction(gs)
        lam = base.multipliers
        assert lam.min() >= 0.0
        assert abs(lam.sum() - 1.0) <= 1e-10
        assert base.kkt_residual <= 1e-8
        assert frank_wolfe_gap(scaled_gram(np.array(gs)), lam) <= 1e-12
        assert base.theta <= 1e-10
        for scale in (0.01, 250.0):
            scaled = solve_direction([scale * g for g in gs])
            assert scaled.theta == pytest.approx(scale ** 2 * base.theta,
                                                 abs=1e-8 * max(1.0, scale ** 2))
            np.testing.assert_allclose(scaled.direction, scale * base.direction,
                                       atol=1e-6 * max(1.0, scale))


class TestM2ClosedForm:
    def test_orthonormal(self):
        r = solve_direction([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert r.multipliers[0] == pytest.approx(0.5)

    def test_identical_gradients(self):
        g = np.array([2.0, -1.0])
        r = solve_direction([g, g])
        assert r.multipliers[0] == pytest.approx(1.0)
        np.testing.assert_allclose(r.direction, -g)

    def test_zero_in_hull(self):
        """g1=(2,0), g2=(-1,0): lambda_1 = 1/3 puts the combination at zero."""
        r = solve_direction([np.array([2.0, 0.0]), np.array([-1.0, 0.0])])
        assert r.multipliers[0] == pytest.approx(1.0 / 3.0)
        np.testing.assert_allclose(r.direction, [0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_solver(self, seed):
        rng = np.random.default_rng(200 + seed)
        g1, g2 = rng.standard_normal(4), rng.standard_normal(4)
        a = solve_direction([g1, g2])
        b = segment_min_norm(g1, g2)
        # Dual objective values agree even when multipliers are degenerate.
        assert 0.5 * a.norm ** 2 == pytest.approx(0.5 * b.norm ** 2, abs=1e-9)


class TestBruteForce:
    def test_m2_fine_lattice(self):
        rng = np.random.default_rng(3)
        gs = random_gradients(rng, 2, 3)
        exact = solve_direction(gs)
        brute = brute_force_direction(gs, 10 ** 6)
        assert 0.5 * brute.norm ** 2 == pytest.approx(0.5 * exact.norm ** 2, abs=1e-10)

    def test_all_zero(self):
        r = brute_force_direction([np.zeros(2), np.zeros(2)], 10)
        np.testing.assert_allclose(r.direction, np.zeros(2))
        assert r.t_value == 0.0

    def test_m3_lattice_density(self):
        rng = np.random.default_rng(4)
        gs = random_gradients(rng, 3, 3)
        exact = solve_direction(gs)
        brute = brute_force_direction(gs, 500)
        assert 0.5 * brute.norm ** 2 == pytest.approx(0.5 * exact.norm ** 2, abs=1e-4)

    def test_refuses_large_m(self):
        with pytest.raises(ValueError, match="m = 7"):
            brute_force_direction([np.ones(2)] * 7, 10)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_lattice_minimum_equals_exhaustive_enumeration(self, m):
        """The oracle's minimum over the lattice {w/R : |w| = R} equals a scan
        of every lattice point.  The gradients lie on a 1/8 grid, so every
        lattice value is exact in floating point and the two minima agree
        even where the hull nearly contains 0; the last case repeats g_m as
        g_{m-1}, where the 1-D quadratic in w_{m-1} is constant."""
        rng = np.random.default_rng(500 + m)
        for case in range(8):
            G = rng.integers(-20, 21, (m, int(rng.integers(1, 6)))) / 8.0
            if case == 7 and m >= 2:
                G[-2] = G[-1]
            R = int(rng.integers(1, 41))
            # Stars and bars: m - 1 bar positions among R + m - 1 slots.
            bars = list(itertools.combinations(range(R + m - 1), m - 1))
            W = np.diff(np.column_stack([np.full(len(bars), -1),
                                         np.array(bars, dtype=np.int64).reshape(len(bars), m - 1),
                                         np.full(len(bars), R + m - 1)]), axis=1) - 1
            V = W @ G
            exhaustive = float(np.einsum("ij,ij->i", V, V).min()) / R ** 2
            w = np.rint(brute_force_direction(G, R).multipliers * R)
            assert w.sum() == R and w.min() >= 0
            found = float((w @ G) @ (w @ G)) / R ** 2
            assert abs(found - exhaustive) <= 1e-12 * exhaustive

    def test_brute_force_never_below_optimum(self):
        """Lattice restriction can only increase the dual objective."""
        rng = np.random.default_rng(6)
        for m in (2, 3, 4):
            gs = random_gradients(rng, m, 4)
            exact = solve_direction(gs)
            brute = brute_force_direction(gs, 50)
            assert 0.5 * brute.norm ** 2 >= 0.5 * exact.norm ** 2 - 1e-12
