"""Closed-form references that the tests compare the package against."""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from mofgd import DirectionResult, ObjectiveModel, solve_direction
from mofgd.direction import _result_from
from mofgd.fractional import NodeStack, _gauss_rule, _rule, terminals
from mofgd.problems import ACTIVE_TOLERANCE, _constant_hessian

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


def _refined_rule(c: float, x: float, kinks: Sequence[float],
                  a_exp: float) -> tuple[np.ndarray, np.ndarray]:
    """Unit nodes s and weights w of `fractional._rule` with every panel
    halved once: the panel touching s = 0 keeps the Gauss-Jacobi rule, and
    each other panel (p, q) the Gauss-Legendre rule uniform in log s."""
    length = x - c
    splits = np.array(sorted({x - k for k in kinks if c < k < x})) / length
    breaks = np.concatenate(([0.0], splits, [1.0]))
    breaks = np.union1d(breaks, 0.5 * (breaks[:-1] + breaks[1:]))
    t, w = _gauss_rule(a_exp)
    half = 0.5 * breaks[1]
    nodes, weights = [half * (1.0 - t)], [half ** (a_exp + 1.0) * w]
    t, w = _gauss_rule(0.0)
    for p, q in zip(breaks[1:-1], breaks[2:]):
        half = 0.5 * np.log(q / p)
        s = p * np.exp(half * (1.0 + t))
        nodes.append(s)
        weights.append(half * w * s ** (a_exp + 1.0))
    return np.concatenate(nodes), np.concatenate(weights)


def _checked_caputo(h: Callable, c: float, x: float, kinks: Sequence[float],
                    order: float) -> float:
    """Caputo derivative at x from h = f^(n); one call of h answers the base
    rule and the refined rule of the refinement check."""
    n, a_exp = _order_parts(order)
    s, w, _ = _rule(c, x, kinks, a_exp)
    s_fine, w_fine = _refined_rule(c, x, kinks, a_exp)
    hu = _eval(h, x - (x - c) * np.concatenate((s, s_fine)))
    scale = (x - c) ** (a_exp + 1.0) / math.gamma(n - order)
    value = scale * float(w @ hu[:s.size])
    check = scale * float(w_fine @ hu[s.size:])
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
    of the 32-node Gauss-Jacobi and 64-node Gauss-Legendre panels; a
    one-level panel refinement estimates the error and raises
    QuadratureAccuracyError when it exceeds 1e-9 * (1 + |value|), carrying
    the refined estimate.  The terminal must have length 1 (ValueError
    otherwise), and x must exceed it (CaputoDomainError otherwise).
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
    first on a tie).  Then d = -p(l), the slopes g_j^T d are per-row dots,
    t is their max and theta = t + ||d||^2 / 2; the KKT residual is not
    computed (NaN).
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
    slopes = [float(g1 @ d), float(g2 @ d)]
    t = max(slopes)
    return DirectionResult(t_value=t, direction=d, multipliers=np.array([lam1, 1.0 - lam1]),
                           kkt_residual=float("nan"), theta=t + 0.5 * float(d @ d),
                           norm=float(np.linalg.norm(d)), slopes=slopes)


def matvec_rows(rows, d: np.ndarray) -> list[float]:
    """The entries of R d for the rows R stacked into one array, from one
    matrix-vector product: the rounding of the slopes g_j^T d and the
    curvatures (d^T H_j) d that a line search reads."""
    return (np.array(rows, dtype=float) @ d).tolist()


def norm_order(G: np.ndarray) -> np.ndarray:
    """The order in which the m != 2 direction solve reads the rows of G:
    by the diagonal of G G^T, the lowest index first on ties."""
    return np.argsort(np.diag(G @ G.T), kind="stable")


def solve_slopes(rows, d: np.ndarray) -> list[float]:
    """The slopes of a direction solve on rows along its d: `matvec_rows`
    for m = 2, and for any other m the rows of the one product on the rows
    in `norm_order`, put back in row order."""
    G = np.array(rows, dtype=float)
    if len(G) == 2:
        return matvec_rows(G, d)
    order = norm_order(G)
    slopes = np.empty(len(G))
    slopes[order] = G[order] @ d
    return slopes.tolist()


def per_objective_quadratic_stage(merits: Sequence[ObjectiveModel], x0, sigma: float,
                                  backtrack: float, tolerance: float,
                                  iterations: int) -> list[tuple]:
    """Classical descent on quadratic merits whose line search calls each
    gradient and fetches each H_j at every iterate, forms the slopes
    g_j^T d and the curvatures d^T H_j d as the rows of one product each
    (`matvec_rows`) and scans eta = 1, r, r^2, ... from eta = 1.

    A merit with q_j > 0 is tested on its exact expansion eta s_j +
    eta^2 q_j / 2 <= sigma eta t, every other merit on its values.  The
    direction comes from `solve_direction`; the run stops at ||d|| <
    tolerance or t >= 0, or after `iterations` steps.  Returns one
    (x, eta, t, ||d||, backtracks) per step: the records of an
    all-quadratic one-stage `run_adaptive` with its stacked products.
    """
    x = np.asarray(x0, dtype=float)
    steps = []
    for _ in range(iterations):
        grads = [m.gradient(x) for m in merits]
        result = solve_direction(grads)
        d, t = result.direction, result.t_value
        norm = float(np.linalg.norm(d))
        if norm < tolerance or not t < 0.0:
            break
        terms = list(zip(matvec_rows(grads, d), matvec_rows([d @ m.hessian(x) for m in merits], d)))
        for backtracks in range(61):
            eta = backtrack ** backtracks
            bound = sigma * eta * t
            x_next = x + eta * d
            if all(eta * s + 0.5 * eta ** 2 * q <= bound if q > 0.0
                   else m.value(x_next) <= m.value(x) + bound
                   for m, (s, q) in zip(merits, terms)):
                break
        else:
            raise AssertionError("the reference line search found no step")
        steps.append((x, eta, t, norm, backtracks))
        x = x_next
    return steps


def per_objective_fixed_steps(merit: Sequence[ObjectiveModel], lam: np.ndarray, step: float,
                              x0, tolerance: float, k: int) -> list[np.ndarray]:
    """`lab._frozen_fixed_steps` with one gradient call per merit and
    d = -(G^T lam): x0 and the iterates of x <- x + step d, up to k steps or
    until ||d|| < tolerance."""
    xs = [np.asarray(x0, dtype=float)]
    for _ in range(k):
        G = np.array([m.gradient(xs[-1]) for m in merit])
        d = -G.T @ lam
        if math.sqrt(d @ d) < tolerance:
            break
        xs.append(xs[-1] + step * d)
    return xs


def loop_result_checks(G: np.ndarray, lam: np.ndarray) -> tuple[float, float, float, list]:
    """(t, kkt_residual, theta, slopes) of `direction._result_from` by its
    general loops over the m slopes and weights, for any m; the slopes are
    the rows of G d."""
    d = -G.T @ lam
    slopes = (G @ d).tolist()
    weights = lam.tolist()
    t = max(slopes)
    comp = max(abs(w * (s - t)) for w, s in zip(weights, slopes))
    simplex = max(abs(sum(weights) - 1.0), -min(weights))
    return t, max(comp, simplex), t + 0.5 * float(d @ d), slopes


def loop_dual_gap(gram: list[list[float]], scale: float, lam: np.ndarray) -> float:
    """`direction._dual_gap` by its general loops over the Gram rows, for any m."""
    weights = lam.tolist()
    grad = [sum(k * w for k, w in zip(row, weights)) / scale for row in gram]
    return sum(w * g for w, g in zip(weights, grad)) - min(grad)


def segment_weights(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """The m = 2 simplex weights by the segment closed form:
    lambda_1 = clamp(-(g1 - g2)^T g2 / ||g1 - g2||^2, 0, 1) on the
    difference vector, and lambda_1 = 1 for g1 = g2."""
    diff = g1 - g2
    den = float(diff @ diff)
    lam1 = 1.0 if den == 0.0 else min(1.0, max(0.0, -float(diff @ g2) / den))
    return np.array([lam1, 1.0 - lam1])


def composed_pair_solve(G: np.ndarray) -> tuple[DirectionResult, float, float]:
    """`direction._solve_pair` composed of the general pieces: the Gram
    product's trace for the scale, `segment_weights`, `loop_dual_gap` and
    `loop_result_checks`, with d = G^T (-lambda) and ||d|| = sqrt(d^T d)."""
    K = G @ G.T
    scale = max(1.0, float(K.trace()) / 2)
    lam = segment_weights(G[0], G[1])
    t, kkt, theta, slopes = loop_result_checks(G, lam)
    d = G.T @ -lam
    result = DirectionResult(t_value=t, direction=d, multipliers=lam, kkt_residual=kkt,
                             theta=theta, norm=math.sqrt(float(d @ d)), slopes=slopes)
    return result, scale, loop_dual_gap(K.tolist(), scale, lam)


def dense_regularized(obj: ObjectiveModel, gamma: float, c, reg: str = "diag") -> ObjectiveModel:
    """`problems.regularized` with the pull matrix R formed densely,
    diag(diag(H)) or r r^T, the merit Hessian as the matrix sum H + gamma R,
    and the merit gradient as the quadratic (H + gamma R) x + grad f(0) -
    gamma R c.  The diag R c is the dense product; the outer one is
    r (r^T c), in the order that `regularized` forms it."""
    c = np.broadcast_to(np.asarray(c, dtype=float), (obj.dim,)).copy()
    hess = np.asarray(obj.hessian(c), dtype=float)
    h = np.diag(hess)
    if reg == "diag":
        reg_matrix = np.diag(h)
        reg_c = reg_matrix @ c
        penalty = lambda u: float(h @ u ** 2)
    else:
        r = np.sqrt(h)
        reg_matrix = np.outer(r, r)
        reg_c = r * (r @ c)
        penalty = lambda u: float(r @ u) ** 2
    merit_hess = hess + gamma * reg_matrix
    offset = obj.gradient(np.zeros(obj.dim)) - gamma * reg_c

    def gradient(x):
        if np.ndim(x) == 1:
            return merit_hess @ x + offset
        return (merit_hess @ x.T).T + offset

    def value(x):
        if np.ndim(x) == 1:
            return obj.value(x) + 0.5 * gamma * penalty(x - c)
        return np.array([value(row) for row in x])

    return ObjectiveModel(
        value=value,
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
                 ) -> tuple[Callable, tuple[float, ...]]:
    """The derivative of t -> f(x with coordinate i set to t), which answers
    a 1-D array of abscissae with one stacked gradient call of f, and the
    restriction's kinks in (lo, hi)."""
    def deriv(t):
        z = np.repeat(x[None, :], t.size, axis=0)
        z[:, i] = t
        return np.asarray(f.gradient(z), dtype=float)[:, i]

    locator = getattr(f, "kink_locator", None)
    kinks = () if locator is None else tuple(locator(x, i, lo, hi))
    return deriv, kinks


def caputo_gradient(f, x: np.ndarray, alpha: float, terminal) -> np.ndarray:
    """Coordinate-wise Caputo fractional gradient of order alpha at x.

    f is an objective exposing value/gradient (and optionally
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
            deriv, kinks = _restriction(f, x, i, ci, x[i])
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
    same by-parts form and the same degenerate coordinates, one coordinate
    at a time, each with its own rule build and its own stacked gradient
    call on x, its nodes and its terminal.  Coordinate i is

        (1-alpha) [ w @ g'(tau) + beta (g'(x_i) - g'(c) - alpha (w/s) @ (g'(tau) - g'(x_i))) ],

    with tau = x_i - (x_i - c) s.  A coordinate at or below its terminal is
    the classical partial f.gradient(x)[i], kinked f or not."""
    x = np.asarray(x, dtype=float)
    c = terminals(terminal, x.size)
    out = np.empty(x.size)
    for i in range(x.size):
        xi, ci = float(x[i]), float(c[i])
        if xi <= ci:
            out[i] = np.asarray(f.gradient(x), dtype=float)[i]
            continue
        deriv, kinks = _restriction(f, x, i, ci, xi)
        s, w, _ = _rule(ci, xi, kinks, -alpha)
        g = deriv(np.concatenate(([xi], xi - (xi - ci) * s, [ci])))
        gx, nodes, gc = g[0], g[1:-1], g[-1]
        by_parts = gx - gc - alpha * float((w / s) @ (nodes - gx))
        out[i] = (1.0 - alpha) * (float(w @ nodes) + beta * by_parts)
    return out


def hessian_form_gradient(f, x: np.ndarray, alpha: float, beta: float, terminal,
                          nodes: int = 128) -> np.ndarray:
    """The modified fractional gradient of a kink-free f in its Hessian form,

        (1-alpha) (x_i-c)^(alpha-1) [ I1 + beta (x_i-c) I2 ],
        I1 = int_c^{x_i} (x_i-tau)^(-alpha) g'(tau) dtau,
        I2 = int_c^{x_i} (x_i-tau)^(-alpha) g''(tau) dtau,

    with g'' read from the diagonal of f.hessian and both integrals taken by
    scipy's `nodes`-node Gauss-Jacobi rule: an independent reference for
    the by-parts form.  Every coordinate must lie above its terminal."""
    from scipy.special import roots_jacobi

    x = np.asarray(x, dtype=float)
    c = terminals(terminal, x.size)
    t, w = roots_jacobi(nodes, -alpha, 0.0)
    s, w = 0.5 * (1.0 - t), 0.5 ** (1.0 - alpha) * w
    out = np.empty(x.size)
    for i in range(x.size):
        length = x[i] - c[i]
        z = np.repeat(x[None, :], nodes, axis=0)
        z[:, i] = x[i] - length * s
        first = np.asarray(f.gradient(z), dtype=float)[:, i]
        second = np.asarray(f.hessian(z), dtype=float)[:, i, i]
        out[i] = (1.0 - alpha) * (w @ first + beta * length * (w @ second))
    return out


def example3_modified_gradient(x: np.ndarray, alpha: float, beta: float,
                               terminal) -> tuple[np.ndarray, list[bool]]:
    """Example 3's modified fractional gradient in closed form, and which
    coordinates have a kink in (c_i, x_i).

    Along coordinate i, max(5 x1 + x2, x1^2 + x2^2) is linear or quadratic
    between the roots of the pieces' difference, so g' = p0 + p1 tau on
    each panel [a, b] and, with u = x_i - tau,

        int_a^b (x_i-tau)^(-alpha) g' dtau = (p0 + p1 x_i) P(1-alpha) - p1 P(2-alpha),
        P(e) = ((x_i-a)^e - (x_i-b)^e) / e,

    and the order-(1+alpha) integral against dg' is the panels' p1 P(1-alpha)
    plus (x_i - k)^(-alpha) J at each kink k where g' jumps by J.  Coordinate
    i is (1-alpha) [(x_i-c)^(alpha-1) I1 + beta (x_i-c)^alpha I2]; one at or
    below its terminal is NaN.
    """
    x = np.asarray(x, dtype=float)
    c = terminals(terminal, x.size)
    out, kinked = np.full(2, np.nan), []
    for i in range(2):
        xi, ci, other = float(x[i]), float(c[i]), float(x[1 - i])
        slope = 5.0 if i == 0 else 1.0
        # lin(t) - quad(t) = -t^2 + slope t + (5 other or other) - other^2
        shift = (other if i == 0 else 5.0 * other) - other ** 2
        disc = slope * slope + 4.0 * shift
        big = 0.5 * (slope + math.sqrt(max(disc, 0.0)))  # the root that does not cancel
        kinks = [] if disc < 0.0 else [k for k in sorted((-shift / big, big)) if ci < k < xi]
        kinked.append(bool(kinks))
        if not xi > ci:
            continue
        edges = [ci] + kinks + [xi]
        parts, i1, i2 = [], 0.0, 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            m = 0.5 * (lo + hi)
            p0, p1 = (slope, 0.0) if -m * m + slope * m + shift >= 0.0 else (0.0, 2.0)
            parts.append((p0, p1))
            # ((x_i-lo)^e - (x_i-hi)^e) / e, without cancelling when hi is near lo
            power = lambda e: (xi - lo) ** e * (
                1.0 if hi == xi else -math.expm1(e * math.log((xi - hi) / (xi - lo)))) / e
            i1 += (p0 + p1 * xi) * power(1.0 - alpha) - p1 * power(2.0 - alpha)
            i2 += p1 * power(1.0 - alpha)
        for k, (l0, l1), (r0, r1) in zip(kinks, parts[:-1], parts[1:]):
            i2 += (xi - k) ** -alpha * ((r0 + r1 * k) - (l0 + l1 * k))
        length = xi - ci
        out[i] = (1.0 - alpha) * (length ** (alpha - 1.0) * i1 + beta * length ** alpha * i2)
    return out, kinked


def scattered_node_stack(x: np.ndarray, alpha: float, terminal, locator=None) -> NodeStack:
    """Reference for mofgd.fractional.node_stack: every coordinate resolved
    on numpy scalars, its nodes tau = x_i - (x_i - c_i) s and its terminal
    c_i concatenated, and the stack written by one fancy-index scatter into
    k copies of x.  A coordinate at or below its terminal reads row 0, and
    below it adds a note."""
    x = np.asarray(x, dtype=float)
    terminal = terminals(terminal, x.size)
    coords, taus, owners, notes, start = [], [], [], [], 1
    for i in range(x.size):
        ci = float(terminal[i])
        if x[i] <= ci:
            if x[i] < ci:
                notes.append(f"degenerate coordinate: x = {float(x[i])} <= terminal {ci}; "
                             "classical partial derivative taken")
            coords.append((0, 1, None, None))
            continue
        kinks = () if locator is None else tuple(locator(x, i, ci, x[i]))
        s, w, v = _rule(ci, x[i], kinks, -alpha)
        coords.append((start, start + s.size, w, v))
        taus.append(np.append(x[i] - (x[i] - ci) * s, ci))
        owners.append(i)
        start += s.size + 1
    z = np.repeat(x[None, :], start, axis=0)
    if taus:
        z[np.arange(1, start), np.repeat(owners, [tau.size for tau in taus])] = np.concatenate(taus)
    return NodeStack(z, alpha, tuple(coords), tuple(notes))


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
        return _result_from(G, np.ones(1), [0])
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
    return _result_from(G, lam, range(m))


def stacked_piecewise(pieces, x) -> tuple[np.ndarray, np.ndarray]:
    """The max of pieces and its gradient at a point or a (k, n) stack, on
    `np.stack`: each piece's values stacked on the last axis, and the
    gradient of the largest piece taken row by row, the first of pieces
    tied for the max (the row-wise argmax)."""
    x = np.asarray(x, dtype=float)
    values = np.stack([np.asarray(p[0](x), dtype=float) for p in pieces], axis=-1)
    grads = np.stack([np.asarray(p[1](x), dtype=float) for p in pieces])
    top = values.argmax(axis=-1)
    return values.max(axis=-1), grads[(top, *np.indices(top.shape))]


def mean_subgradient(pieces, x: np.ndarray) -> np.ndarray:
    """`np.mean` of the gradients of the pieces within ACTIVE_TOLERANCE of
    the max at the point x."""
    vals = np.stack([np.asarray(p[0](x), dtype=float) for p in pieces], axis=-1)
    active = np.nonzero(vals >= vals.max() - ACTIVE_TOLERANCE)[0]
    return np.mean([np.asarray(pieces[i][1](x), dtype=float) for i in active], axis=0)
