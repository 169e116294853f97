"""Caputo fractional derivatives and fractional gradients of multivariate functions.

The order-mu Caputo derivative of a univariate function f with lower terminal c is

    D^mu f(x) = 1/Gamma(n - mu) * int_c^x (x - tau)^(n - mu - 1) f^(n)(tau) dtau,

with n = ceil(mu).  The modified gradient combines the orders alpha in
(0, 1) (n = 1, integrates f') and 1 + alpha (n = 2, integrates f'').  One
quadrature rule (`_rule`) serves every integral: in the distance u = x - tau
from the singular end it puts a Gauss-Jacobi panel, exact for the weakly
singular kernel, next to x and Gauss-Legendre panels elsewhere, split at
declared kinks of the integrand so each panel sees a smooth function.  Its
weights are normalized by x - c.

Gradients are taken coordinate-wise: coordinate i is the 1-D Caputo
derivative of the restriction t -> f(x_1, ..., t, ..., x_n) with terminal
c_i, evaluated at x_i.  modified_fractional_gradient, the solver's gradient,
stacks the nodes of all coordinates and answers them with one gradient and
one Hessian call of the objective; see mofgd.problems.ObjectiveModel.  It
evaluates the base rule only; `_rule(refine=True)` is the one-level
refinement that the test oracles' accuracy check compares with.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "CaputoDomainError",
    "FractionalConfig",
    "modified_fractional_gradient",
    "order_shift",
]

NODES_PER_SEGMENT = 64

# Terminal offset used when a degenerate coordinate (x_i <= c_i) is clamped.
CLAMP_OFFSET = 1e-12


def order_shift(alpha: float) -> float:
    """(1 - alpha)/(2 - alpha), in [0, 1/2): what an order-alpha stage subtracts from beta."""
    return (1.0 - alpha) / (2.0 - alpha)


class CaputoDomainError(ValueError):
    """Evaluation point does not lie strictly above the lower terminal."""


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
    degenerate_policy: "error" raises on x_i <= c_i, "clamp" moves the
            terminal just below x_i and warns.
    """

    alpha: float
    beta: float = 0.0
    terminal: np.ndarray = field(default_factory=lambda: np.zeros(1))
    degenerate_policy: str = "error"

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.degenerate_policy not in ("error", "clamp"):
            raise ValueError(f"unknown degenerate_policy {self.degenerate_policy!r}")
        # A copy: freezing the caller's array would freeze their iterates.
        t = np.atleast_1d(np.array(self.terminal, dtype=float))
        t.flags.writeable = False
        object.__setattr__(self, "terminal", t)

    @property
    def gamma_alpha_beta(self) -> float:
        """Induced regularizer weight beta - order_shift(alpha)."""
        return self.beta - order_shift(self.alpha)

    def terminals(self, n: int) -> np.ndarray:
        """The terminal broadcast to n coordinates (ValueError unless of length 1 or n)."""
        c = self.terminal
        if c.size not in (1, n):
            raise ValueError(f"terminal has length {c.size}, but x has length {n}; "
                             f"give one terminal or {n}")
        return np.broadcast_to(c, (n,))


@functools.lru_cache(maxsize=None)
def _gauss_rule(a_exp: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule on [-1, 1] for the weight (1 - t)^a_exp, a_exp in (-1, 0].

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of P_n^(a_exp, 0), and the weights are mu_0 v_0^2, with
    v_0 the first eigenvector components and mu_0 = 2^(a+1)/(a+1) the
    weight's integral.  a_exp = 0 gives the Gauss-Legendre rule.
    """
    n, a = NODES_PER_SEGMENT, a_exp
    k = np.arange(1.0, n)
    s = 2.0 * k + a
    diag = np.concatenate(([-a / (a + 2.0)], -a * a / (s * (s + 2.0))))
    off = 2.0 * k * (k + a) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    t, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return t, 2.0 ** (a + 1.0) / (a + 1.0) * v[0] ** 2


def _rule(c: float, x: float, kinks: Sequence[float], a_exp: float,
          refine: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u and length-normalized weights w of int_c^x (x - tau)^a_exp h(tau) dtau.

    The nodes are distances u = x - tau from the singular end, and

        int_c^x (x - tau)^a_exp h(tau) dtau  ~=  (x - c)^(a_exp + 1) * w @ h(x - u).

    The panel touching u = 0 takes the Gauss-Jacobi rule, which integrates
    the kernel exactly; the others take Gauss-Legendre.  Panels are split at
    the distances of the kinks in (c, x).  refine=True halves every panel
    once (the accuracy estimate).
    """
    length = x - c
    breaks = np.concatenate(([0.0], np.sort([x - k for k in kinks if c < k < x]) / length, [1.0]))
    if refine:
        breaks = np.union1d(breaks, 0.5 * (breaks[:-1] + breaks[1:]))
    t, w = _gauss_rule(a_exp)
    half = 0.5 * breaks[1]
    nodes, weights = [half * (1.0 - t)], [half ** (a_exp + 1.0) * w]
    t, w = _gauss_rule(0.0)
    for p, q in zip(breaks[1:-1], breaks[2:]):
        half = 0.5 * (q - p)
        s = 0.5 * (p + q) + half * t
        nodes.append(s)
        weights.append(half * w * s ** a_exp)
    return length * np.concatenate(nodes), np.concatenate(weights)


@functools.lru_cache(maxsize=None)
def _unit_rule(a_exp: float) -> tuple[np.ndarray, np.ndarray]:
    """The kink-free `_rule` on [0, 1], built once per order: a kink-free
    coordinate's nodes are x - c times these nodes, and its weights are these."""
    u, w = _rule(0.0, 1.0, (), a_exp)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _resolve_terminal(cfg: FractionalConfig, c: float, x: float) -> float:
    if x > c:
        return c
    if cfg.degenerate_policy == "clamp":
        clamped = min(c, x - CLAMP_OFFSET)
        warnings.warn(
            f"degenerate coordinate: x = {x} <= terminal {c}; terminal clamped to {clamped}",
            RuntimeWarning,
            stacklevel=3,
        )
        return clamped
    raise CaputoDomainError(f"evaluation point x = {x} must exceed the terminal c = {c}")


def modified_fractional_gradient(f, cfg: FractionalConfig, x: np.ndarray) -> np.ndarray:
    """De-scaled modified fractional gradient combining orders alpha and 1+alpha.

    Coordinate i evaluates, with c = terminal_i and restriction g,

        (1-alpha) (x_i-c)^(alpha-1) [ I1 + beta (x_i-c) I2 ],
        I1 = int_c^{x_i} (x_i-tau)^(-alpha) g'(tau) dtau,
        I2 = int_c^{x_i} (x_i-tau)^(-alpha) g''(tau) dtau,

    which is the Taylor-model fractional gradient after its diagonal scaling
    matrix is cancelled analytically.  The cancelled form is regular at
    x_i = c (it tends to g'(c)) and for a quadratic with Hessian H reduces to
    grad f(x) + (beta - (1-alpha)/(2-alpha)) diag(diag(H)) (x - c).  The
    length-normalized rule weights absorb (x_i-c)^(alpha-1), so no power of
    x_i - c is formed.

    The nodes of every coordinate (x itself for a coordinate at its
    terminal) form one (k, n) stack, answered by one gradient and one
    Hessian call of f.  No refinement check runs.  An f without a Hessian
    raises ValueError unless alpha = 1 and beta = 0, as does a terminal
    whose length is neither 1 nor n.
    """
    x = np.asarray(x, dtype=float)
    terminal = cfg.terminals(x.size)
    if cfg.alpha == 1.0 and cfg.beta == 0.0:
        return np.asarray(f.gradient(x), dtype=float)
    hess = getattr(f, "hessian", None)
    if hess is None:
        raise ValueError(f"the order-(alpha, beta) = ({cfg.alpha}, {cfg.beta}) gradient "
                         "needs f'', but the objective has no Hessian")
    locator = getattr(f, "kink_locator", None)
    pref = 1.0 if cfg.alpha == 1.0 else 1.0 - cfg.alpha
    coords = []  # (nodes tau, weights or None at the terminal, x_i - c_i)
    for i in range(x.size):
        ci = float(terminal[i])
        if x[i] == ci:
            # Limit of the cancelled form: the classical partial derivative.
            coords.append((x[i:i + 1], None, 0.0))
            continue
        ci = _resolve_terminal(cfg, ci, x[i])
        kinks = () if locator is None else tuple(locator(x, i, ci, x[i]))
        if cfg.alpha == 1.0:
            u, w = np.zeros(1), np.ones(1)
        elif kinks:
            u, w = _rule(ci, x[i], kinks, -cfg.alpha)
        else:
            u, w = _unit_rule(-cfg.alpha)
            u = (x[i] - ci) * u
        coords.append((x[i] - u, w, x[i] - ci))

    own = np.repeat(np.arange(x.size), [tau.size for tau, _, _ in coords])
    z = np.repeat(x[None, :], own.size, axis=0)
    z[np.arange(own.size), own] = np.concatenate([tau for tau, _, _ in coords])
    grads = np.asarray(f.gradient(z), dtype=float)
    second = np.diagonal(np.asarray(hess(z), dtype=float), axis1=1, axis2=2)

    out = np.empty(x.size)
    start = 0
    for i, (tau, w, length) in enumerate(coords):
        stop = start + tau.size
        if w is None:
            out[i] = grads[start, i]
        else:
            a_term = pref * float(w @ grads[start:stop, i])
            b_term = pref * length * float(w @ second[start:stop, i])
            out[i] = a_term + cfg.beta * b_term
        start = stop
    return out
