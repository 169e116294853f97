"""Caputo fractional derivatives and fractional gradients of multivariate functions.

The order-mu Caputo derivative of a univariate function f with lower terminal c is

    D^mu f(x) = 1/Gamma(n - mu) * int_c^x (x - tau)^(n - mu - 1) f^(n)(tau) dtau,

with n = ceil(mu).  Supported orders are mu in (0,1) (n = 1, integrates f')
and mu in (1,2) (n = 2, integrates f'').  The weakly singular kernel is
integrated exactly with Gauss-Jacobi quadrature on the segment touching x
and Gauss-Legendre on interior segments; declared kinks of the integrand
split the integration range so each panel sees a smooth function.

Gradients are taken coordinate-wise: coordinate i is the 1-D Caputo
derivative of the restriction t -> f(x_1, ..., t, ..., x_n) with terminal
c_i, evaluated at x_i.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import gammaln, roots_jacobi, roots_legendre

__all__ = [
    "CaputoDomainError",
    "UnsupportedOrderError",
    "QuadratureAccuracyError",
    "FractionalConfig",
    "UnivariateSegment",
    "UnivariateFunction",
    "caputo_derivative_1d",
    "caputo_derivative_poly",
    "caputo_gradient",
    "modified_fractional_gradient",
]

NODES_PER_SEGMENT = 64

# Central-difference step for a second derivative obtained from f'.
FD2_STEP = 1e-5

# Terminal offset used when a degenerate coordinate (x_i <= c_i) is clamped.
CLAMP_OFFSET = 1e-12


class CaputoDomainError(ValueError):
    """Evaluation point does not lie strictly above the lower terminal."""


class UnsupportedOrderError(ValueError):
    """Requested derivative order outside (0,1) u (1,2)."""


class QuadratureAccuracyError(RuntimeError):
    """Quadrature failed its internal refinement check.

    The best available estimate is carried in ``estimate``.
    """

    def __init__(self, message: str, estimate: float, error_estimate: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


def _gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) for positive a, b, evaluated in log space."""
    return math.exp(gammaln(a) - gammaln(b))


@dataclass(frozen=True)
class FractionalConfig:
    """Parameters of a fractional gradient evaluation.

    alpha:  base order in (0, 1].  alpha = 1 reduces every operation to the
            classical derivative.
    beta:   weight of the order-(1+alpha) correction term.  Any real number
            is accepted here; schedules that feed the staged solver enforce
            beta >= (1-alpha)/(2-alpha) so the induced regularizer is
            nonnegative.
    terminal: lower terminal c, a scalar or an n-vector.
    memory_length: when set, the terminal is adaptive (replaced by a past
            iterate by the solver) and degenerate coordinates are clamped.
    degenerate_policy: "error" raises on x_i <= c_i, "clamp" moves the
            terminal just below x_i and warns.
    """

    alpha: float
    beta: float = 0.0
    terminal: np.ndarray = field(default_factory=lambda: np.zeros(1))
    memory_length: Optional[int] = None
    degenerate_policy: str = "error"

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.memory_length is not None and self.memory_length < 1:
            raise ValueError(f"memory_length must be positive, got {self.memory_length}")
        if self.degenerate_policy not in ("error", "clamp"):
            raise ValueError(f"unknown degenerate_policy {self.degenerate_policy!r}")
        t = np.atleast_1d(np.asarray(self.terminal, dtype=float))
        t.flags.writeable = False
        object.__setattr__(self, "terminal", t)

    @property
    def gamma_alpha(self) -> float:
        """(1 - alpha)/(2 - alpha), in [0, 1/2)."""
        return (1.0 - self.alpha) / (2.0 - self.alpha)

    @property
    def gamma_alpha_beta(self) -> float:
        """Induced regularizer weight beta - (1 - alpha)/(2 - alpha)."""
        return self.beta - self.gamma_alpha

    @property
    def c2_coeff(self) -> float:
        """Second-order Taylor coefficient 1/(2 - alpha) + beta."""
        return 1.0 / (2.0 - self.alpha) + self.beta

    @property
    def clamps_degenerate(self) -> bool:
        return self.degenerate_policy == "clamp" or self.memory_length is not None

    def terminal_for(self, i: int) -> float:
        c = self.terminal
        return float(c[0]) if c.size == 1 else float(c[i])


@dataclass(frozen=True)
class UnivariateSegment:
    """A 1-D integration range with its interior non-smooth points.

    integrand_order says which derivative of f appears under the integral
    (1 for orders in (0,1), 2 for orders in (1,2)).
    """

    endpoints: tuple[float, float]
    integrand_order: int
    kink_points: tuple[float, ...] = ()

    def __post_init__(self):
        a, b = self.endpoints
        if not a < b:
            raise ValueError(f"endpoints must satisfy a < b, got ({a}, {b})")
        if self.integrand_order not in (1, 2):
            raise ValueError(f"integrand_order must be 1 or 2, got {self.integrand_order}")
        ks = tuple(float(k) for k in self.kink_points)
        if any(not a < k < b for k in ks):
            raise ValueError("kink points must lie strictly inside the endpoints")
        if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
            raise ValueError("kink points must be strictly increasing")
        object.__setattr__(self, "kink_points", ks)

    def panels(self) -> list[tuple[float, float]]:
        pts = [self.endpoints[0], *self.kink_points, self.endpoints[1]]
        return list(zip(pts, pts[1:]))


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
        if self.deriv2 is not None:
            return self.deriv2

        def fd2(t):
            t = np.asarray(t, dtype=float)
            return (_eval(self.deriv, t + FD2_STEP) - _eval(self.deriv, t - FD2_STEP)) / (2 * FD2_STEP)

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
    if 0.0 < order < 1.0:
        n = 1
    elif 1.0 < order < 2.0:
        n = 2
    else:
        raise UnsupportedOrderError(
            f"order must lie in (0,1) or (1,2), got {order}"
        )
    return n, n - order - 1.0


_rule_cache: dict[tuple[str, float, int], tuple[np.ndarray, np.ndarray]] = {}


def _jacobi_rule(a_exp: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    key = ("jac", round(a_exp, 15), nodes)
    if key not in _rule_cache:
        _rule_cache[key] = roots_jacobi(nodes, a_exp, 0.0)
    return _rule_cache[key]


def _legendre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    key = ("leg", 0.0, nodes)
    if key not in _rule_cache:
        _rule_cache[key] = roots_legendre(nodes)
    return _rule_cache[key]


def _singular_panel(h: Callable, a: float, x: float, a_exp: float, halve: bool) -> float:
    """int_a^x (x - tau)^a_exp h(tau) dtau with the singularity at tau = x."""
    if halve:
        mid = 0.5 * (a + x)
        return _plain_panel(h, a, mid, x, a_exp) + _singular_panel(h, mid, x, a_exp, False)
    t, w = _jacobi_rule(a_exp, NODES_PER_SEGMENT)
    half = 0.5 * (x - a)
    tau = a + half * (t + 1.0)
    return half ** (a_exp + 1.0) * float(w @ _eval(h, tau))


def _plain_panel(h: Callable, a: float, b: float, x: float, a_exp: float) -> float:
    """int_a^b (x - tau)^a_exp h(tau) dtau for b < x (kernel smooth)."""
    t, w = _legendre_rule(NODES_PER_SEGMENT)
    half = 0.5 * (b - a)
    tau = 0.5 * (a + b) + half * t
    return half * float(w @ ((x - tau) ** a_exp * _eval(h, tau)))


def _kernel_integral(h: Callable, c: float, x: float, a_exp: float,
                     kinks: Sequence[float], refine: bool,
                     integrand_order: int = 1) -> float:
    """int_c^x (x - tau)^a_exp h(tau) dtau, split at kinks.

    refine=True halves every panel once (used for the accuracy estimate).
    """
    segment = UnivariateSegment(
        endpoints=(c, x),
        integrand_order=integrand_order,
        kink_points=tuple(sorted(k for k in kinks if c < k < x)),
    )
    total = 0.0
    for a, b in segment.panels():
        if b == x:
            total += _singular_panel(h, a, b, a_exp, refine)
        elif refine:
            mid = 0.5 * (a + b)
            total += _plain_panel(h, a, mid, x, a_exp) + _plain_panel(h, mid, b, x, a_exp)
        else:
            total += _plain_panel(h, a, b, x, a_exp)
    return total


def _resolve_terminal(cfg: FractionalConfig, c: float, x: float) -> float:
    if x > c:
        return c
    if cfg.clamps_degenerate:
        clamped = min(c, x - CLAMP_OFFSET)
        warnings.warn(
            f"degenerate coordinate: x = {x} <= terminal {c}; terminal clamped to {clamped}",
            RuntimeWarning,
            stacklevel=3,
        )
        return clamped
    raise CaputoDomainError(f"evaluation point x = {x} must exceed the terminal c = {c}")


def caputo_derivative_1d(f: UnivariateFunction, cfg: FractionalConfig,
                         x: float, order: float) -> float:
    """Caputo derivative of order in (0,1) u (1,2) of f at x.

    Relative accuracy for smooth integrands is limited only by the exactness
    of the 64-node Gauss-Jacobi/Legendre panels; a one-level panel refinement
    estimates the error and raises QuadratureAccuracyError when it exceeds
    1e-9 * (1 + |value|), carrying the refined estimate.
    """
    n, a_exp = _order_parts(order)
    c = _resolve_terminal(cfg, cfg.terminal_for(0), float(x))
    h = f.nth_deriv(n)
    base = _kernel_integral(h, c, x, a_exp, f.kinks, refine=False, integrand_order=n)
    fine = _kernel_integral(h, c, x, a_exp, f.kinks, refine=True, integrand_order=n)
    scale = math.exp(-gammaln(n - order))
    value, check = scale * base, scale * fine
    err = abs(value - check)
    if err > 1e-9 * (1.0 + abs(check)):
        raise QuadratureAccuracyError(
            f"quadrature refinement changed the value by {err:.3e}; "
            "integrand may have undeclared kinks",
            estimate=check,
            error_estimate=err,
        )
    return check


def caputo_derivative_poly(coeffs: Sequence[float], cfg: FractionalConfig,
                           x: float, order: float) -> float:
    """Closed-form Caputo derivative of a polynomial in (x - c).

    coeffs[k] multiplies (x - c)^k.  Monomial rule: for k >= n = ceil(order),
    D^order (x-c)^k = Gamma(k+1)/Gamma(k+1-order) (x-c)^(k-order); lower
    powers vanish.
    """
    n, _ = _order_parts(order)
    c = _resolve_terminal(cfg, cfg.terminal_for(0), float(x))
    xc = float(x) - c
    total = 0.0
    for k, ck in enumerate(coeffs):
        if k < n or ck == 0.0:
            continue
        total += ck * _gamma_ratio(k + 1.0, k + 1.0 - order) * xc ** (k - order)
    return total


def _restriction(f, x: np.ndarray, i: int, lo: float, hi: float) -> UnivariateFunction:
    """The univariate restriction t -> f(x with coordinate i set to t).

    Its callables take an array of abscissae and evaluate f once per node,
    in order.
    """
    def along(component: Callable) -> Callable:
        def fn(t):
            t = np.asarray(t, dtype=float)
            out = np.empty(t.shape)
            for k, tk in enumerate(t.flat):
                z = np.array(x, dtype=float)
                z[i] = tk
                out.flat[k] = component(z)
            return out
        return fn

    grad = f.gradient
    hess = getattr(f, "hessian", None)
    d2 = None if hess is None else along(lambda z: hess(z)[i, i])
    locator = getattr(f, "kink_locator", None)
    kinks = () if locator is None else tuple(locator(x, i, lo, hi))
    return UnivariateFunction(value=along(f.value), deriv=along(lambda z: grad(z)[i]),
                              deriv2=d2, kinks=kinks)


def caputo_gradient(f, cfg: FractionalConfig, x: np.ndarray) -> np.ndarray:
    """Coordinate-wise Caputo fractional gradient of order cfg.alpha at x.

    f is an objective exposing value/gradient (and optionally hessian and
    kink_locator); see mofgd.problems.ObjectiveModel.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if cfg.alpha == 1.0:
        return np.asarray(f.gradient(x), dtype=float)
    out = np.empty(n)
    for i in range(n):
        try:
            ci = _resolve_terminal(cfg, cfg.terminal_for(i), x[i])
            g = _restriction(f, x, i, ci, x[i])
            cfg_i = FractionalConfig(cfg.alpha, cfg.beta, np.array([ci]))
            out[i] = caputo_derivative_1d(g, cfg_i, x[i], cfg.alpha)
        except CaputoDomainError as exc:
            raise CaputoDomainError(f"coordinate {i}: {exc}") from exc
        except QuadratureAccuracyError as exc:
            raise QuadratureAccuracyError(
                f"coordinate {i}: {exc}", exc.estimate, exc.error_estimate
            ) from exc
    return out


def _descaled_terms(g: UnivariateFunction, c: float, x: float, alpha: float) -> tuple[float, float]:
    """The two de-scaled quadrature terms of the modified gradient.

    Returns (A, B) with
        A = (1-alpha) (x-c)^(alpha-1) int_c^x (x-tau)^(-alpha) g'(tau) dtau
        B = (1-alpha) (x-c)^(alpha)   int_c^x (x-tau)^(-alpha) g''(tau) dtau
    computed so no large power of (x - c) is ever formed when there are no
    interior kinks (the prefactor cancels against the panel scaling).
    """
    a_exp = -alpha
    ks = sorted(k for k in g.kinks if c < k < x)
    if not ks:
        # Single singular panel: (x-c)^(alpha-1) * ((x-c)/2)^(1-alpha) = 2^(alpha-1).
        t, w = _jacobi_rule(a_exp, NODES_PER_SEGMENT)
        tau = c + 0.5 * (x - c) * (t + 1.0)
        pref = (1.0 - alpha) * 2.0 ** (alpha - 1.0)
        a_term = pref * float(w @ _eval(g.deriv, tau))
        b_term = pref * (x - c) * float(w @ _eval(g.nth_deriv(2), tau))
        return a_term, b_term
    raw1 = _kernel_integral(g.deriv, c, x, a_exp, ks, refine=False, integrand_order=1)
    raw2 = _kernel_integral(g.nth_deriv(2), c, x, a_exp, ks, refine=False, integrand_order=2)
    pref = (1.0 - alpha) * (x - c) ** (alpha - 1.0)
    return pref * raw1, pref * (x - c) * raw2


def modified_fractional_gradient(f, cfg: FractionalConfig, x: np.ndarray) -> np.ndarray:
    """De-scaled modified fractional gradient combining orders alpha and 1+alpha.

    Coordinate i evaluates, with c = terminal_i and restriction g,

        (1-alpha) (x_i-c)^(alpha-1) [ I1 + beta (x_i-c) I2 ],
        I1 = int_c^{x_i} (x_i-tau)^(-alpha) g'(tau) dtau,
        I2 = int_c^{x_i} (x_i-tau)^(-alpha) g''(tau) dtau,

    which is the Taylor-model fractional gradient after its diagonal scaling
    matrix is cancelled analytically.  The cancelled form is regular at
    x_i = c (it tends to g'(c)) and for a quadratic with Hessian H reduces to
    grad f(x) + (beta - (1-alpha)/(2-alpha)) diag(diag(H)) (x - c).
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    grad = None
    if cfg.alpha == 1.0:
        grad = np.asarray(f.gradient(x), dtype=float)
        if cfg.beta == 0.0:
            return grad
    out = np.empty(n)
    for i in range(n):
        ci = cfg.terminal_for(i)
        if x[i] == ci:
            # Limit of the cancelled form: the classical restriction derivative.
            g = _restriction(f, x, i, ci, ci)
            out[i] = float(_eval(g.deriv, np.array([x[i]]))[0])
            continue
        ci = _resolve_terminal(cfg, ci, x[i])
        g = _restriction(f, x, i, ci, x[i])
        if cfg.alpha == 1.0:
            out[i] = grad[i] + cfg.beta * (x[i] - ci) * float(_eval(g.nth_deriv(2), np.array([x[i]]))[0])
            continue
        a_term, b_term = _descaled_terms(g, ci, x[i], cfg.alpha)
        out[i] = a_term + cfg.beta * b_term
    return out
