"""The m = 2 solve reproduces the general helpers' loops bit for bit."""

import dataclasses

import numpy as np
import pytest

import mofgd.direction as direction
from oracles import composed_pair_solve, loop_dual_gap, loop_result_checks, segment_weights

EDGE_GRADIENTS = [
    [[0.0, 0.0], [0.0, 0.0]],
    [[-0.0, 0.0], [0.0, -0.0]],
    [[2.0, -1.0], [2.0, -1.0]],
    [[1.0, 0.0], [-1.0, 0.0]],
    [[0.0, 0.0], [1.0, 2.0]],
    [[1.0, 1.0], [3.0, 3.0]],
    [[1e150, 0.0], [0.0, 1e-150]],
]


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


def assert_matches_loops(G, lam):
    """The general helpers at m = 2, which the oracles call, against their loops."""
    gram, scale = direction._gram_scale(G)
    assert bits(scale) == bits(max(1.0, float((G @ G.T).trace()) / 2))
    assert bits(direction._dual_gap(gram, scale, lam)) == bits(loop_dual_gap(gram, scale, lam))
    result = direction._result_from(G, lam, [0, 1])
    t, kkt, theta, slopes = loop_result_checks(G, lam)
    assert bits(result.t_value) == bits(t)
    assert bits(result.kkt_residual) == bits(kkt)
    assert bits(result.theta) == bits(theta)
    assert bits(result.slopes) == bits(slopes)


def assert_pair_matches_composition(G):
    """Every field of `_solve_pair`'s result, its scale and its gap have the
    bits of the general pieces composed."""
    result, scale, gap = direction._solve_pair(G)
    reference, ref_scale, ref_gap = composed_pair_solve(G)
    for field in dataclasses.fields(result):
        assert bits(getattr(result, field.name)) == bits(getattr(reference, field.name)), field.name
    assert bits(scale) == bits(ref_scale)
    assert bits(gap) == bits(ref_gap)


class TestTwoObjectiveChecks:
    @pytest.mark.parametrize("n", [2, 100])
    def test_scale_sweep(self, n):
        """TestArrayReference's sweep of gradients from 1e-100 to 1e100."""
        rng = np.random.default_rng(10 * 2 + n)
        for exponent in range(-100, 101, 10):
            G = 10.0 ** exponent * rng.standard_normal((2, n))
            assert_pair_matches_composition(G)

    @pytest.mark.parametrize("n", [2, 100])
    def test_twelve_decades(self, n):
        """Gradients of independent scales over twelve decades, and collinear
        and nearly collinear pairs, whose weights sit on an end of the
        segment or rest on a small difference vector."""
        rng = np.random.default_rng(1000 + n)
        for _ in range(300):
            scales = 10.0 ** rng.uniform(-6.0, 6.0, size=(2, 1))
            G = scales * rng.standard_normal((2, n))
            collinear = np.array([G[0], rng.uniform(-3.0, 3.0) * G[0]])
            near = np.array([G[0], G[0] + 1e-7 * scales[1] * rng.standard_normal(n)])
            for pair in (G, collinear, near):
                assert_pair_matches_composition(pair)

    @pytest.mark.parametrize("gradients", EDGE_GRADIENTS)
    @pytest.mark.parametrize("weights", [None, (1.0, 0.0), (0.0, 1.0), (0.25, 0.75)])
    def test_edge_gradients_and_weights(self, gradients, weights):
        """Zero, signed-zero, equal, opposite, collinear and far-apart
        gradients: the m = 2 solve at its own weights, and the general
        helpers at those weights and at fixed simplex points."""
        G = np.array(gradients)
        if weights is None:
            assert_pair_matches_composition(G)
        assert_matches_loops(G, segment_weights(G[0], G[1]) if weights is None
                             else np.array(weights))
