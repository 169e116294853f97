"""Common descent direction via the min-norm point of the gradient hull.

The primal subproblem

    min_{t, d}  t + 1/2 ||d||^2   s.t.  g_j^T d <= t,  j = 1..m

is solved through its dual: minimize 1/2 ||sum_j lambda_j g_j||^2 over the
unit simplex, then d = -sum_j lambda_j g_j and t = max_j g_j^T d.  The dual
is solved exactly for every m, one solver per regime: m = 2 is the
min-norm point of a segment in closed form, solved and checked in one
function (`_solve_pair`) on the four entries of G G^T, the two slopes and
the two weights, since every iteration of a two-objective run makes this
call; every other m is one non-negative least-squares problem in the
unnormalized weights mu = s lambda, solved by Lawson & Hanson's active-set
method on its m x m normal equations K / scale + 1 1^T, K = G G^T, in
Python floats, so its cost does not depend on n.  That solve reads the
rows by norm, so the order of the objectives changes neither its answer
nor its cost.  The min-norm point can be a vertex only at the shortest
gradient, which is tested for first on the caller's G G^T
(`_vertex_step`): m = 1 always stops there (d = -g), and so does most of
a three-objective run.  Only off that vertex does the loop run, on the
rows sorted by norm and their own G G^T.  Either way the answer is formed
on the sorted rows, and its weights and slopes are put back in row
order.  A result stores ||d||, from the d^T d that theta adds, and the m
slopes g_j^T d, whose max is t, so a stage and its line search read them
without another product.  A solve that fails its checks raises
DirectionAccuracyError, a RuntimeError whose message names the failed
check; the stage keeps only that message as the trace's error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "DirectionAccuracyError",
    "DirectionResult",
    "solve_direction",
]

GAP_FAIL = 1e-8
# Lawson & Hanson's thresholds: the least w that enters a variable, the least
# weight that stays passive, and the least pivot, relative to its diagonal.
NNLS_TOL = 10.0 * float(np.finfo(float).eps)


class DirectionAccuracyError(RuntimeError):
    """Gradient scale, scaled duality gap or KKT residual not finite or above
    its bound; the message names which."""


@dataclass(slots=True)
class DirectionResult:
    """Subproblem solution (t, d, lambda) with verification data.

    theta = t + 1/2 ||d||^2 is the primal objective (<= 0 at any optimum);
    kkt_residual is the largest violation over the simplex constraints,
    stationarity d = -sum lambda_j g_j, feasibility g_j^T d <= t, and
    complementary slackness.  norm is ||d||, sqrt(d^T d) from the d^T d
    that theta adds: the bits of np.linalg.norm of a contiguous vector.
    slopes are the m floats g_j^T d in row order, and t is their max, bit
    for bit.  For m = 2 they are the rows of the one matrix-vector product
    G d; for any other m, the rows of that product on the rows sorted by
    norm, put back in row order.  The line search of a stage whose
    direction inputs are its merit gradients reads them as its own slopes.
    Nothing writes to a result, as nothing writes to the arrays it holds.
    It is slotted but not frozen: a frozen dataclass sets each field
    through object.__setattr__, which more than doubles the cost of the
    build that every direction solve makes.
    """

    t_value: float
    direction: np.ndarray
    multipliers: np.ndarray
    kkt_residual: float
    theta: float
    norm: float
    slopes: list[float]


def _result_from(rows: np.ndarray, lam: np.ndarray, order: Sequence[int]) -> DirectionResult:
    """(t, d, lambda) for the weights lam of rows, the gradients G[order],
    with its KKT residual and theta; the multipliers and slopes are put
    back in the row order of G.

    The m slopes and weights are few, so the residual is computed on Python
    floats, in the order of rows.  Stationarity d + sum lambda_j g_j = 0
    and feasibility g_j^T d <= t hold by construction (t is the largest
    slope), which leaves complementary slackness and the simplex
    constraints.  d is rows^T (-lam): rounding is symmetric in sign, so it
    has the bits of -(rows^T lam) but for the sign of an exact zero,
    without the copy that negating rows^T makes.  d^T d is `ndarray.dot`,
    the BLAS dot of d @ d, bit for bit, without the matmul dispatch.
    """
    d = rows.T @ -lam
    products, ordered = (rows @ d).tolist(), lam.tolist()
    t = max(products)
    comp = max(abs(w * (s - t)) for w, s in zip(ordered, products))
    simplex = max(abs(sum(ordered) - 1.0), -min(ordered))
    dd = float(d.dot(d))
    slopes, weights = [0.0] * len(order), [0.0] * len(order)
    for k, j in enumerate(order):
        slopes[j], weights[j] = products[k], ordered[k]
    return DirectionResult(t_value=t, direction=d, multipliers=np.array(weights),
                           kkt_residual=max(comp, simplex), theta=t + 0.5 * dd,
                           norm=math.sqrt(dd), slopes=slopes)


def _dual_gap(gram: list[list[float]], scale: float, lam: np.ndarray) -> float:
    """Frank-Wolfe gap lam^T Kn lam - min_j (Kn lam)_j of Kn = gram / scale,
    zero exactly at a dual minimizer."""
    weights = lam.tolist()
    grad = [sum(k * w for k, w in zip(row, weights)) / scale for row in gram]
    return sum(w * g for w, g in zip(weights, grad)) - min(grad)


def _gram_scale(G: np.ndarray) -> tuple[list[list[float]], float]:
    """Gram matrix G G^T as nested floats, and the mean squared gradient norm
    (at least 1) that scales it.

    The dual objective scales as ||g||^2, so the gap thresholds apply at the
    problem's own scale; otherwise scale covariance (theta(s g) = s^2
    theta(g)) would be unreachable in floating point for large gradients.
    """
    K = G @ G.T
    return K.tolist(), max(1.0, float(K.trace()) / K.shape[0])


def _solve_pair(G: np.ndarray) -> tuple[DirectionResult, float, float]:
    """The m = 2 solve: the result, the gradient scale and the scaled gap.

    lambda_1 = clamp(-(g1 - g2)^T g2 / ||g1 - g2||^2, 0, 1) is the min-norm
    point of the segment [g1, g2], computed on the difference vector so
    nearly collinear gradients keep their precision; g1 = g2 gives
    lambda_1 = 1.  The scale and the Frank-Wolfe gap come from the four
    entries of G G^T, and the KKT residual from the two slopes G d and the
    two weights, with the roundings of `_gram_scale`, `_dual_gap` and
    `_result_from`: numpy's trace of a 2 x 2 matrix is the one addition
    k11 + k22, sum's leading 0 could only turn a sum of two -0.0 terms
    into +0.0, which simplex weights and k11, k22 >= 0 never form, and
    d = G^T (-lambda).  Every product is `ndarray.dot`, which makes the
    BLAS call of the @ form (G G^T, G^T (-lambda), G d, d^T d), bit for
    bit, with less dispatch.
    """
    (k11, k12), (k21, k22) = G.dot(G.T).tolist()
    scale = max(1.0, (k11 + k22) / 2)
    g1, g2 = G[0], G[1]
    diff = g1 - g2
    den = float(diff.dot(diff))
    w1 = 1.0 if den == 0.0 else min(1.0, max(0.0, -float(diff.dot(g2)) / den))
    w2 = 1.0 - w1
    d = np.array([-w1, -w2]).dot(G)
    slopes = G.dot(d).tolist()
    s1, s2 = slopes
    dd = float(d.dot(d))
    t = max(s1, s2)
    comp = max(abs(w1 * (s1 - t)), abs(w2 * (s2 - t)))
    simplex = max(abs(w1 + w2 - 1.0), -min(w1, w2))
    n1, n2 = (k11 * w1 + k12 * w2) / scale, (k21 * w1 + k22 * w2) / scale
    result = DirectionResult(t_value=t, direction=d, multipliers=np.array([w1, w2]),
                             kkt_residual=max(comp, simplex), theta=t + 0.5 * dd,
                             norm=math.sqrt(dd), slopes=slopes)
    return result, scale, w1 * n1 + w2 * n2 - min(n1, n2)


def _nnls_weights(gram: list[list[float]], scale: float) -> np.ndarray:
    """Exact dual minimizer for any m, by non-negative least squares.

    With lambda = mu / 1^T mu, the simplex dual has the minimizer of
    min_{mu >= 0} ||A mu - e||^2, A = [G^T / sqrt(scale); 1^T], e = e_{n+1}:
    for fixed lambda the best 1^T mu is 1 / (1 + theta), theta =
    ||G^T lambda||^2 / scale, leaving theta / (1 + theta), which rises with
    theta.  Solved by Lawson & Hanson's active-set method (Solving Least
    Squares Problems, 1974, ch. 23) on the normal equations
    M = A^T A = K / scale + 1 1^T, A^T e = 1, of the m x m Gram K = G G^T, in
    Python floats: the matrices are m x m whatever n is, and for the m of a
    multi-objective problem a float loop is cheaper than numpy calls.  gram
    and scale are `_gram_scale(G)`, so one product forms K for the solve
    and its gap check.  A column is entered only if the solve with it
    succeeds (no pivot is numerically zero) and gives it a positive weight,
    as in Lawson & Hanson's own test.
    """
    m = len(gram)
    M = [[k / scale + 1.0 for k in row] for row in gram]
    mu = [0.0] * m
    passive: list[int] = []  # ascending
    # Lawson & Hanson's usual pass limit; the caller's gap check catches a cut run.
    for _ in range(3 * m):
        # The free variables' w = A^T (e - A mu) = 1 - M mu, tried largest first.
        w = {j: 1.0 - sum(M[j][p] * mu[p] for p in passive)
             for j in range(m) if j not in passive}
        for j in sorted((j for j in w if w[j] > NNLS_TOL), key=lambda j: -w[j]):
            trial = sorted(passive + [j])
            z = _passive_solve(M, trial)
            if z is not None and z[j] > 0.0:
                break
        else:
            break
        passive = trial
        while any(z[p] <= 0.0 for p in passive):
            # Step from mu towards z until the first passive variable hits zero.
            k = min((p for p in passive if z[p] <= 0.0), key=lambda p: mu[p] / (mu[p] - z[p]))
            step = mu[k] / (mu[k] - z[k])
            mu = [a + step * (b - a) for a, b in zip(mu, z)]
            mu[k] = 0.0
            passive = [p for p in passive if mu[p] > NNLS_TOL]
            z = _passive_solve(M, passive)
            if z is None:
                return np.array(mu) / sum(mu)
        mu = z
    return np.array(mu) / sum(mu)


def _vertex_step(gram: list[list[float]], scale: float,
                 j: int) -> tuple[Optional[np.ndarray], float]:
    """(e_0, the scaled gap of e_j) where the active-set loop on the rows
    sorted by norm, whose first is row j, would stop at its first vertex,
    and (None, nan) where it would go on.

    j is the shortest gradient, the least K_jj (the lowest j on ties): the
    only vertex whose point can be the min-norm point, since that point is
    no longer than any g_i.  The loop enters its first column first, at
    mu_j = 1 / M_jj, and stops there when no free w_i = 1 - M_ij mu_j
    exceeds NNLS_TOL.  This is that test on the caller's Gram floats; w_j
    itself is a rounding of zero, far below NNLS_TOL, so it never passes.
    The gap is `_dual_gap` at e_j, read off column j of Kn = gram / scale:
    its entry j less its least entry.  m = 1 has no free w, so it always
    stops here.
    """
    col = [row[j] / scale for row in gram]
    mu = 1.0 / (col[j] + 1.0)
    if any(1.0 - (k + 1.0) * mu > NNLS_TOL for k in col):
        return None, math.nan
    lam = np.zeros(len(gram))
    lam[0] = 1.0
    return lam, col[j] - min(col)


def _passive_solve(M: list[list[float]], passive: list[int]) -> Optional[list[float]]:
    """z with z_P solving M_PP z_P = 1 and zeros elsewhere, by Gaussian
    elimination of the symmetric positive definite M_PP; None when a pivot
    is not above NNLS_TOL times its diagonal entry (a numerically dependent
    column)."""
    rows = [[M[i][j] for j in passive] + [1.0] for i in passive]
    k = len(passive)
    for c in range(k):
        pivot = rows[c][c]
        if not pivot > NNLS_TOL * M[passive[c]][passive[c]]:
            return None
        for r in range(c + 1, k):
            f = rows[r][c] / pivot
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    z = [0.0] * len(M)
    for c in reversed(range(k)):
        z[passive[c]] = (rows[c][k] - sum(rows[c][j] * z[passive[j]]
                                          for j in range(c + 1, k))) / rows[c][c]
    return z


def solve_direction(gradients) -> DirectionResult:
    """Solve the direction subproblem for a list of m gradient n-vectors.

    gradients is read as one float array, (m, n); a single vector is the
    one row of a (1, n) array, the shape np.atleast_2d would give.  The
    dual is solved exactly by m: m=2 is the segment closed form
    (`_solve_pair`); any other m is one non-negative least-squares solve on
    the rows sorted by K_jj (the lowest j first on ties), whose answer is
    the vertex of the shortest gradient (always, for m=1: d = -g) where
    `_vertex_step` finds it on G G^T, and the active-set loop's on the
    sorted rows' own G G^T otherwise.  The multipliers and slopes are in
    the row order of G, and for gradients of distinct norms a permutation
    of the rows permutes them and keeps the bits of d, t and ||d||.
    Raises ValueError if a gradient entry is not finite, which is looked
    for only when the sum of squares of G is not finite.  Raises
    DirectionAccuracyError if the gradient scale is not finite (a squared
    gradient norm overflowed), the scaled gap is not at most 1e-8, or the
    KKT residual is not at most 1e-8 at the gradient scale; a NaN fails
    every bound.
    """
    G = np.asarray(gradients, dtype=float)
    if G.ndim < 2:
        G = G.reshape(1, -1)
    # A finite sum of squares proves every entry finite.  It is checked
    # before G G^T, where an inf times a zero would warn.
    if not math.isfinite(np.vdot(G, G)) and not np.isfinite(G).all():
        raise ValueError("gradients must be finite")
    if G.shape[0] == 2:
        result, scale, gap = _solve_pair(G)
    else:
        gram, scale = _gram_scale(G)
        order = sorted(range(len(gram)), key=lambda i: gram[i][i])
        rows = G.take(order, axis=0)
        lam, gap = _vertex_step(gram, scale, order[0])
        if lam is None:
            gram, scale = _gram_scale(rows)
            lam = _nnls_weights(gram, scale)
            gap = _dual_gap(gram, scale, lam)
        result = _result_from(rows, lam, order)
    if not math.isfinite(scale):
        raise DirectionAccuracyError(f"gradient scale {scale:.3e} is not finite")
    if not gap <= GAP_FAIL:
        raise DirectionAccuracyError(f"scaled duality gap {gap:.3e} above {GAP_FAIL}")
    if not result.kkt_residual <= 1e-8 * scale:
        raise DirectionAccuracyError(
            f"KKT residual {result.kkt_residual:.3e} at scale {scale:.3e}")
    return result
