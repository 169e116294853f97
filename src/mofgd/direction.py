"""Common descent direction via the min-norm point of the gradient hull.

The primal subproblem

    min_{t, d}  t + 1/2 ||d||^2   s.t.  g_j^T d <= t,  j = 1..m

is solved through its dual: minimize 1/2 ||sum_j lambda_j g_j||^2 over the
unit simplex, then d = -sum_j lambda_j g_j and t = max_j g_j^T d.  The dual
is solved exactly for small m: m=2 is the min-norm point of a segment in
closed form, and 3 <= m <= 6 enumerates every active support with an exact
KKT solve on each.  Larger m runs projected gradient descent with exact
Euclidean simplex projection, followed by an exact KKT solve on the support
it found, so degenerate instances still reach the target duality gap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DirectionAccuracyError",
    "DirectionResult",
    "solve_direction",
    "solve_direction_m2_closed_form",
    "brute_force_direction",
]

GAP_TARGET = 1e-12
GAP_FAIL = 1e-8
MAX_INNER = 10_000
MAX_ENUMERATE = 6


class DirectionAccuracyError(RuntimeError):
    """Scaled duality gap or KKT residual above 1e-8; ``best`` carries the result."""

    def __init__(self, message: str, best: "DirectionResult"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class DirectionResult:
    """Subproblem solution (t, d, lambda) with verification data.

    theta = t + 1/2 ||d||^2 is the primal objective (<= 0 at any optimum);
    kkt_residual is the largest violation over the simplex constraints,
    stationarity d = -sum lambda_j g_j, feasibility g_j^T d <= t, and
    complementary slackness.
    """

    t_value: float
    direction: np.ndarray
    multipliers: np.ndarray
    kkt_residual: float
    theta: float

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.direction))


def _simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} (sort-based, exact)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1.0), 0.0)


def _result_from(G: np.ndarray, lam: np.ndarray) -> DirectionResult:
    d = -G.T @ lam
    slopes = G @ d
    t = float(slopes.max())
    feas = float(np.maximum(slopes - t, 0.0).max())
    comp = float(np.abs(lam * (slopes - t)).max())
    simplex = max(abs(float(lam.sum()) - 1.0), float(np.maximum(-lam, 0.0).max()))
    # Stationarity d + sum lambda_j g_j = 0 holds by construction.
    kkt = max(feas, comp, simplex)
    theta = t + 0.5 * float(d @ d)
    return DirectionResult(t_value=t, direction=d, multipliers=lam,
                           kkt_residual=kkt, theta=theta)


def _dual_gap(K: np.ndarray, lam: np.ndarray) -> float:
    grad = K @ lam
    return float(lam @ grad - grad.min())


def _scaled_gram(G: np.ndarray) -> tuple[np.ndarray, float]:
    """Gram matrix divided by the mean squared gradient norm (at least 1).

    The dual objective scales as ||g||^2, so the gap thresholds apply at the
    problem's own scale; otherwise scale covariance (theta(s g) = s^2
    theta(g)) would be unreachable in floating point for large gradients.
    """
    K = G @ G.T
    scale = max(1.0, float(np.mean(np.diag(K))))
    return K / scale, scale


def _segment_weights(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Min-norm point of the segment [g1, g2] as simplex weights.

    lambda_1 = clamp(-(g1 - g2)^T g2 / ||g1 - g2||^2, 0, 1), computed on the
    difference vector so nearly collinear gradients keep their precision;
    g1 = g2 gives lambda_1 = 1.
    """
    diff = g1 - g2
    den = float(diff @ diff)
    lam1 = 1.0 if den == 0.0 else min(1.0, max(0.0, -float(diff @ g2) / den))
    return np.array([lam1, 1.0 - lam1])


def _best_support(K: np.ndarray, lam: np.ndarray, supports) -> np.ndarray:
    """Exact KKT solves on candidate supports; keep the best valid one.

    A candidate is accepted only if it is simplex-feasible and improves the
    dual objective of the best point so far, starting from lam.
    """
    m = K.shape[0]
    best_lam, best_obj = lam, 0.5 * float(lam @ K @ lam)
    for sup in supports:
        sup = list(sup)
        k = len(sup)
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = K[np.ix_(sup, sup)]
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        cand = np.zeros(m)
        cand[sup] = sol[:k]
        if cand.min() < -1e-12:
            continue
        cand = _simplex_project(cand)
        val = 0.5 * float(cand @ K @ cand)
        if val < best_obj - 1e-18 or (val <= best_obj and _dual_gap(K, cand) < _dual_gap(K, best_lam)):
            best_lam, best_obj = cand, val
    return best_lam


def _enumerate_supports(K: np.ndarray) -> np.ndarray:
    """Exact dual minimizer: the best of all 2^m - 1 supports, from uniform lambda."""
    m = K.shape[0]
    supports = [tuple(range(m))] + [s for r in range(1, m) for s in itertools.combinations(range(m), r)]
    return _best_support(K, np.full(m, 1.0 / m), supports)


def _projected_gradient(K: np.ndarray) -> np.ndarray:
    """Projected gradient on the dual simplex QP, then an exact KKT solve.

    Uniform warm start, step 1/||K||, Frank-Wolfe gap target 1e-12, at most
    10,000 iterations; the KKT solve on the support found lets degenerate
    instances reach the gap target.
    """
    m = K.shape[0]
    lam = np.full(m, 1.0 / m)
    lipschitz = float(np.linalg.eigvalsh(K)[-1])
    if lipschitz <= 0.0:
        # All gradients are zero: any simplex point is optimal.
        return lam
    step = 1.0 / lipschitz
    gap = _dual_gap(K, lam)
    for _ in range(MAX_INNER):
        if gap <= GAP_TARGET:
            break
        lam = _simplex_project(lam - step * (K @ lam))
        gap = _dual_gap(K, lam)
    return _best_support(K, lam, [tuple(np.nonzero(lam > 1e-12)[0])])


def solve_direction(gradients) -> DirectionResult:
    """Solve the direction subproblem for a list of m gradient n-vectors.

    The dual is solved by m: m=1 is d = -g; m=2 is the segment closed form;
    3 <= m <= 6 enumerates every support exactly; m > 6 runs projected
    gradient (Frank-Wolfe gap target 1e-12 at the squared-gradient scale,
    10,000-iteration budget) plus an exact KKT solve on its support.
    Raises DirectionAccuracyError carrying the result if the scaled gap
    exceeds 1e-8 or its KKT residual exceeds 1e-8 at the gradient scale.
    """
    G = np.atleast_2d(np.asarray(gradients, dtype=float))
    if not np.all(np.isfinite(G)):
        raise ValueError("gradients must be finite")
    m = G.shape[0]
    if m == 1:
        return _result_from(G, np.ones(1))

    Kn, scale = _scaled_gram(G)
    if m == 2:
        lam, method = _segment_weights(G[0], G[1]), "the m=2 closed form"
    elif m <= MAX_ENUMERATE:
        lam, method = _enumerate_supports(Kn), f"enumerating all {2 ** m - 1} supports"
    else:
        lam, method = _projected_gradient(Kn), f"at most {MAX_INNER} projected-gradient iterations"
    gap = _dual_gap(Kn, lam)

    result = _result_from(G, lam)
    if gap > GAP_FAIL:
        raise DirectionAccuracyError(
            f"scaled duality gap {gap:.3e} above {GAP_FAIL} after {method}", result)
    if result.kkt_residual > 1e-8 * scale:
        raise DirectionAccuracyError(
            f"KKT residual {result.kkt_residual:.3e} at scale {scale:.3e}", result)
    return result


def solve_direction_m2_closed_form(g1, g2) -> DirectionResult:
    """Exact two-objective solution: the min-norm point of a segment.

    lambda_1 = clamp((g2 - g1)^T g2 / ||g1 - g2||^2, 0, 1), with the
    degenerate g1 = g2 case giving lambda_1 = 1.
    """
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    return _result_from(np.vstack([g1, g2]), _segment_weights(g1, g2))


def _pairs_by_sum(total: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All (i, j) >= 0 with i + j <= total, sorted by s = i + j ascending."""
    counts = np.arange(total + 1, dtype=np.int64) + 1  # s = i+j has s+1 pairs
    s = np.repeat(np.arange(total + 1, dtype=np.int64), counts)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    i = np.arange(s.size, dtype=np.int64) - np.repeat(offsets, counts)
    return i, s - i, s


def _lattice_blocks(total: int, parts: int):
    """Yield integer weight blocks (rows summing to total) without
    materializing the full lattice for parts >= 4."""
    if parts == 1:
        yield np.array([[total]], dtype=np.int64)
        return
    if parts == 2:
        i = np.arange(total + 1, dtype=np.int64)
        yield np.column_stack([i, total - i])
        return
    if parts == 3:
        i, j, s = _pairs_by_sum(total)
        yield np.column_stack([i, j, total - s])
        return
    if parts == 4:
        i, j, s = _pairs_by_sum(total)
        for first in range(total + 1):
            rem = total - first
            cut = int(np.searchsorted(s, rem, side="right"))
            yield np.column_stack([
                np.full(cut, first, dtype=np.int64),
                i[:cut], j[:cut], rem - s[:cut],
            ])
        return
    for first in range(total + 1):
        for block in _lattice_blocks(total - first, parts - 1):
            yield np.column_stack([np.full(len(block), first, dtype=np.int64), block])


def brute_force_direction(gradients, grid_resolution: int) -> DirectionResult:
    """Exhaustive dual minimization over the simplex lattice {w/R : |w| = R}.

    Test oracle only; refuses m > 6 to bound the combinatorial cost.
    """
    G = np.atleast_2d(np.asarray(gradients, dtype=float))
    m = G.shape[0]
    if m > 6:
        raise ValueError(f"brute force refused for m = {m} > 6 objectives")
    if grid_resolution < 1:
        raise ValueError("grid_resolution must be positive")
    best_val, best_w = np.inf, None
    for block in _lattice_blocks(grid_resolution, m):
        V = block.astype(float) @ G
        vals = np.einsum("ij,ij->i", V, V)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val, best_w = float(vals[k]), block[k].copy()
    lam = best_w.astype(float) / grid_resolution
    return _result_from(G, lam)
