"""The m = 2 branches of the direction checks reproduce the general loops bit for bit."""

import numpy as np
import pytest

import mofgd.direction as direction
from oracles import loop_dual_gap, loop_result_checks

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
    gram, scale = direction._gram_scale(G)
    assert bits(scale) == bits(max(1.0, float((G @ G.T).trace()) / 2))
    assert bits(direction._dual_gap(gram, scale, lam)) == bits(loop_dual_gap(gram, scale, lam))
    result = direction._result_from(G, lam)
    t, kkt, theta = loop_result_checks(G, lam)
    assert bits(result.t_value) == bits(t)
    assert bits(result.kkt_residual) == bits(kkt)
    assert bits(result.theta) == bits(theta)


class TestTwoObjectiveChecks:
    @pytest.mark.parametrize("n", [2, 100])
    def test_scale_sweep(self, n):
        """TestArrayReference's sweep of gradients from 1e-100 to 1e100."""
        rng = np.random.default_rng(10 * 2 + n)
        for exponent in range(-100, 101, 10):
            G = 10.0 ** exponent * rng.standard_normal((2, n))
            assert_matches_loops(G, direction._segment_weights(G[0], G[1]))

    @pytest.mark.parametrize("gradients", EDGE_GRADIENTS)
    @pytest.mark.parametrize("weights", [None, (1.0, 0.0), (0.0, 1.0), (0.25, 0.75)])
    def test_edge_gradients_and_weights(self, gradients, weights):
        """Zero, signed-zero, equal, opposite and far-apart gradients, at the
        solved weights and at fixed simplex points."""
        G = np.array(gradients)
        lam = (direction._segment_weights(G[0], G[1]) if weights is None
               else np.array(weights))
        assert_matches_loops(G, lam)
