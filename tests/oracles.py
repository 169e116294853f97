"""Closed-form references that the tests compare the package against."""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from mofgd import DirectionResult, ObjectiveModel
from mofgd.direction import _result_from
from mofgd.fractional import _resolve_terminal, _rule, terminals
from mofgd.problems import _constant_hessian

# Central-difference step for a second derivative obtained from first derivatives.
FD2_STEP = 1e-5


class UnsupportedOrderError(ValueError):
    """Requested derivative order outside (0,1) u (1,2)."""


class CaputoDomainError(ValueError):
    """Evaluation point does not lie strictly above the lower terminal."""


def _below(c: float, x: float) -> float:
    """The terminal c, after refusing an x that does not lie strictly above it."""
    if not x > c:
        raise CaputoDomainError(f"evaluation point x = {x} must exceed the terminal c = {c}")
    return c


class QuadratureAccuracyError(RuntimeError):
    """Quadrature failed its internal refinement check.

    The best available estimate is carried in ``estimate``.
    """

    def __init__(self, message: str, estimate: float, error_estimate: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class UnivariateFunction:
    """A twice-differentiable (piecewise) univariate function.

    value/deriv/deriv2 take a numpy array and return one of its shape.
    deriv2 falls back to a central difference of deriv when omitted.  kinks
    lists abscissae where the derivative jumps, so the quadrature can split
    there.
    """

    value: Callable
    deriv: Callable
    deriv2: Optional[Callable] = None
    kinks: tuple[float, ...] = ()

    def nth_deriv(self, n: int) -> Callable:
        if n == 1:
            return self.deriv
        return self.deriv2 if self.deriv2 is not None else _central_difference(self.deriv)


def _central_difference(deriv: Callable) -> Callable:
    """Second derivative as a central difference of the first."""
    def fd2(t):
        t = np.asarray(t, dtype=float)
        return (_eval(deriv, t + FD2_STEP) - _eval(deriv, t - FD2_STEP)) / (2 * FD2_STEP)

    return fd2


def _eval(fn: Callable, t: np.ndarray) -> np.ndarray:
    """Evaluate a vectorized callable on an array of abscissae."""
    t = np.asarray(t, dtype=float)
    out = np.asarray(fn(t), dtype=float)
    if out.shape != t.shape:
        raise ValueError(f"callable returned shape {out.shape} for abscissae of shape {t.shape}")
    return out


def _order_parts(order: float) -> tuple[int, float]:
    """Validate order and return (n, weight exponent n - order - 1)."""
    if not (0.0 < order < 1.0 or 1.0 < order < 2.0):
        raise UnsupportedOrderError(f"order must lie in (0,1) or (1,2), got {order}")
    n = math.ceil(order)
    return n, n - order - 1.0


def _checked_caputo(h: Callable, c: float, x: float, kinks: Sequence[float],
                    order: float) -> float:
    """Caputo derivative at x from h = f^(n); one call of h answers the base
    and the refined rule of the refinement check."""
    n, a_exp = _order_parts(order)
    u, w = _rule(c, x, kinks, a_exp)
    u_fine, w_fine = _rule(c, x, kinks, a_exp, refine=True)
    hu = _eval(h, x - np.concatenate((u, u_fine)))
    scale = (x - c) ** (a_exp + 1.0) / math.gamma(n - order)
    value = scale * float(w @ hu[:u.size])
    check = scale * float(w_fine @ hu[u.size:])
    err = abs(value - check)
    if err > 1e-9 * (1.0 + abs(check)):
        raise QuadratureAccuracyError(
            f"quadrature refinement changed the value by {err:.3e}; "
            "integrand may have undeclared kinks",
            estimate=check,
            error_estimate=err,
        )
    return check


def caputo_derivative_1d(f: UnivariateFunction, x: float, order: float, terminal) -> float:
    """Caputo derivative of order in (0,1) u (1,2) of f at x, with lower terminal c.

    Relative accuracy for smooth integrands is limited only by the exactness
    of the 64-node Gauss-Jacobi/Legendre panels; a one-level panel refinement
    estimates the error and raises QuadratureAccuracyError when it exceeds
    1e-9 * (1 + |value|), carrying the refined estimate.  The terminal
    must have length 1 (ValueError otherwise), and x must exceed it
    (CaputoDomainError otherwise).
    """
    n, _ = _order_parts(order)
    c = _below(float(terminals(terminal, 1)[0]), float(x))
    return _checked_caputo(f.nth_deriv(n), c, float(x), f.kinks, order)


def caputo_derivative_poly(coeffs: Sequence[float], x: float, order: float,
                           terminal) -> float:
    """Closed-form Caputo derivative of a polynomial in (x - c), c = terminal.

    coeffs[k] multiplies (x - c)^k.  Monomial rule: for k >= n = ceil(order),
    D^order (x-c)^k = Gamma(k+1)/Gamma(k+1-order) (x-c)^(k-order); lower
    powers vanish.
    """
    n = math.ceil(order)
    xc = float(x) - float(terminals(terminal, 1)[0])
    if xc <= 0.0:
        raise ValueError(f"evaluation point x = {x} must exceed the terminal")
    total = 0.0
    for k, ck in enumerate(coeffs):
        if k < n or ck == 0.0:
            continue
        total += ck * math.exp(math.lgamma(k + 1.0) - math.lgamma(k + 1.0 - order)) * xc ** (k - order)
    return total


def segment_min_norm(g1, g2) -> DirectionResult:
    """Closed-form direction subproblem for m = 2: the min-norm point of [g1, g2].

    On the line p(l) = l g1 + (1 - l) g2, ||p(l)||^2 is smallest at
    l* = -g2^T (g1 - g2) / ||g1 - g2||^2.  The minimizer over [0, 1] is l*
    when it lies inside, and otherwise the endpoint of smaller norm (g1
    first on a tie).  Then d = -p(l), t = max_j g_j^T d and theta = t +
    ||d||^2 / 2; the KKT residual is not computed (NaN).
    """
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    e = g1 - g2
    candidates = [1.0, 0.0]
    if e @ e > 0.0:
        interior = -float(g2 @ e) / float(e @ e)
        if 0.0 < interior < 1.0:
            candidates.append(interior)
    lam1 = min(candidates, key=lambda lam: float(np.linalg.norm(lam * g1 + (1.0 - lam) * g2)))
    d = -(lam1 * g1 + (1.0 - lam1) * g2)
    t = max(float(g1 @ d), float(g2 @ d))
    return DirectionResult(t_value=t, direction=d, multipliers=np.array([lam1, 1.0 - lam1]),
                           kkt_residual=float("nan"), theta=t + 0.5 * float(d @ d))


def loop_result_checks(G: np.ndarray, lam: np.ndarray) -> tuple[float, float, float]:
    """(t, kkt_residual, theta) of `direction._result_from` by its general
    loops over the m slopes and weights, for any m."""
    d = -G.T @ lam
    slopes = (G @ d).tolist()
    weights = lam.tolist()
    t = max(slopes)
    comp = max(abs(w * (s - t)) for w, s in zip(weights, slopes))
    simplex = max(abs(sum(weights) - 1.0), -min(weights))
    return t, max(comp, simplex), t + 0.5 * float(d @ d)


def loop_dual_gap(gram: list[list[float]], scale: float, lam: np.ndarray) -> float:
    """`direction._dual_gap` by its general loops over the Gram rows, for any m."""
    weights = lam.tolist()
    grad = [sum(k * w for k, w in zip(row, weights)) / scale for row in gram]
    return sum(w * g for w, g in zip(weights, grad)) - min(grad)


def dense_regularized(obj: ObjectiveModel, gamma: float, c, reg: str = "diag") -> ObjectiveModel:
    """`problems.regularized` with the pull matrix R formed densely,
    diag(diag(H)) or r r^T, and the merit Hessian as the matrix sum H + gamma R."""
    c = np.broadcast_to(np.asarray(c, dtype=float), (obj.dim,))
    hess = np.asarray(obj.hessian(c), dtype=float)
    h = np.diag(hess)
    if reg == "diag":
        reg_matrix = np.diag(h)
        gamma_h = gamma * h
        pull = point_pull = lambda u: gamma_h * u
        penalty = lambda u: float(h @ u ** 2)
    else:
        r = np.sqrt(h)
        reg_matrix = np.outer(r, r)
        gamma_r = gamma * r
        pull, point_pull = (lambda u: gamma_r * (u @ r)[..., None]), (lambda u: gamma_r * (u @ r))
        penalty = lambda u: float(r @ u) ** 2
    merit_hess = hess + gamma * reg_matrix

    def gradient(x):
        if getattr(x, "ndim", None) == 1:
            return obj.gradient(x) + point_pull(x - c)
        return np.asarray(obj.gradient(x), dtype=float) + pull(x - c)

    return ObjectiveModel(
        value=lambda x: obj.value(x) + 0.5 * gamma * penalty(x - c),
        gradient=gradient,
        hessian=_constant_hessian(merit_hess),
        kind="quadratic", dim=obj.dim, validate=False,
    )


def loop_adrs(front, reference) -> float:
    """ADRS by a loop over the reference points: the mean of each one's
    smallest range-normalized Chebyshev distance to the front."""
    ref = np.atleast_2d(np.asarray(list(reference), dtype=float))
    fr = np.atleast_2d(np.asarray(list(front), dtype=float))
    spread = ref.max(axis=0) - ref.min(axis=0)
    spread = np.where(spread > 0, spread, 1.0)
    dists = [
        float(np.min(np.max(np.abs(fr - r[None, :]) / spread[None, :], axis=1)))
        for r in ref
    ]
    return float(np.mean(dists))


def _restriction(f, x: np.ndarray, i: int, lo: float, hi: float
                 ) -> tuple[Callable, Callable, tuple[float, ...]]:
    """Derivatives of t -> f(x with coordinate i set to t) and its kinks in
    (lo, hi).  A derivative answers a 1-D array of abscissae with one stacked
    gradient (Hessian) call of f; without a Hessian, g'' is a central
    difference of g'."""
    def points(t):
        z = np.repeat(x[None, :], t.size, axis=0)
        z[:, i] = t
        return z

    def deriv(t):
        return np.asarray(f.gradient(points(t)), dtype=float)[:, i]

    hess = getattr(f, "hessian", None)
    if hess is None:
        deriv2 = _central_difference(deriv)
    else:
        def deriv2(t):
            return np.asarray(hess(points(t)), dtype=float)[:, i, i]
    locator = getattr(f, "kink_locator", None)
    kinks = () if locator is None else tuple(locator(x, i, lo, hi))
    return deriv, deriv2, kinks


def caputo_gradient(f, x: np.ndarray, alpha: float, terminal) -> np.ndarray:
    """Coordinate-wise Caputo fractional gradient of order alpha at x.

    f is an objective exposing value/gradient (and optionally hessian and
    kink_locator); see mofgd.problems.ObjectiveModel.  Each coordinate runs
    the refinement check of caputo_derivative_1d, and one that does not
    lie above its terminal raises CaputoDomainError.
    """
    x = np.asarray(x, dtype=float)
    if alpha == 1.0:
        return np.asarray(f.gradient(x), dtype=float)
    c = terminals(terminal, x.size)
    out = np.empty(x.size)
    for i in range(x.size):
        try:
            ci = _below(float(c[i]), x[i])
            deriv, _, kinks = _restriction(f, x, i, ci, x[i])
            out[i] = _checked_caputo(deriv, ci, x[i], kinks, alpha)
        except CaputoDomainError as exc:
            raise CaputoDomainError(f"coordinate {i}: {exc}") from exc
        except QuadratureAccuracyError as exc:
            raise QuadratureAccuracyError(
                f"coordinate {i}: {exc}", exc.estimate, exc.error_estimate
            ) from exc
    return out


def modified_fractional_gradient_loop(f, x: np.ndarray, alpha: float, beta: float,
                                      terminal) -> np.ndarray:
    """Reference for mofgd.modified_fractional_gradient: the same rule, the
    same terminal clamp and the same per-coordinate dots, one coordinate at
    a time, each with its own rule build and its own stacked gradient and
    Hessian calls."""
    x = np.asarray(x, dtype=float)
    if alpha == 1.0 and beta == 0.0:
        return np.asarray(f.gradient(x), dtype=float)
    c = terminals(terminal, x.size)
    out = np.empty(x.size)
    for i in range(x.size):
        ci = float(c[i])
        if x[i] == ci:
            out[i] = np.asarray(f.gradient(x), dtype=float)[i]
            continue
        ci = _resolve_terminal(ci, x[i])
        deriv, deriv2, kinks = _restriction(f, x, i, ci, x[i])
        if alpha == 1.0:
            tau, w, pref = x[i:i + 1], np.ones(1), 1.0
        else:
            u, w = _rule(ci, x[i], kinks, -alpha)
            tau, pref = x[i] - u, 1.0 - alpha
        a_term = pref * float(w @ _eval(deriv, tau))
        b_term = pref * (x[i] - ci) * float(w @ _eval(deriv2, tau))
        out[i] = a_term + beta * b_term
    return out


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
    """Dual minimization over the simplex lattice {w/R : |w| = R}, R = grid_resolution.

    The first m - 2 weights are enumerated.  With them fixed and rem = R
    minus their sum, ||sum_j w_j g_j||^2 is a convex quadratic in
    a = w_{m-1} (w_m = rem - a), so its lattice minimum over a in [0, rem]
    lies at the floor or the ceil of its continuous minimizer clamped to
    [0, rem]; when g_{m-1} = g_m the quadratic is constant and both
    endpoints are checked.  The minimum is that of the exhaustive scan.
    Refuses m > 6 to bound the combinatorial cost.
    """
    G = np.atleast_2d(np.asarray(gradients, dtype=float))
    m = G.shape[0]
    if m > 6:
        raise ValueError(f"brute force refused for m = {m} > 6 objectives")
    if grid_resolution < 1:
        raise ValueError("grid_resolution must be positive")
    if m == 1:
        return _result_from(G, np.ones(1))
    e = G[-2] - G[-1]
    ee = float(e @ e)
    best_val, best_w = np.inf, None
    # Each block row is (w_1, ..., w_{m-2}, rem) with rem = R - (w_1 + ... + w_{m-2}).
    for block in _lattice_blocks(grid_resolution, m - 1):
        prefix, rem = block[:, :-1], block[:, -1].astype(float)
        base = prefix.astype(float) @ G[:-2] + rem[:, None] * G[-1]
        if ee > 0.0:
            star = np.clip(-(base @ e) / ee, 0.0, rem)
            candidates = (np.floor(star), np.ceil(star))
        else:
            candidates = (np.zeros_like(rem), rem)
        for a in candidates:
            V = base + a[:, None] * e
            vals = np.einsum("ij,ij->i", V, V)
            k = int(np.argmin(vals))
            if vals[k] < best_val:
                best_val = float(vals[k])
                best_w = np.concatenate((prefix[k], [a[k], rem[k] - a[k]]))
    lam = best_w.astype(float) / grid_resolution
    return _result_from(G, lam)
