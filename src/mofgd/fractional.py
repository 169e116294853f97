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
from typing import Sequence

import numpy as np

__all__ = [
    "modified_fractional_gradient",
    "order_shift",
    "terminals",
]

NODES_PER_SEGMENT = 64

# Terminal offset used when a degenerate coordinate (x_i <= c_i) is clamped.
CLAMP_OFFSET = 1e-12


def order_shift(alpha: float) -> float:
    """(1 - alpha)/(2 - alpha), in [0, 1/2): what an order-alpha stage subtracts from beta."""
    return (1.0 - alpha) / (2.0 - alpha)


def terminals(terminal, n: int) -> np.ndarray:
    """The terminal c broadcast to n coordinates (ValueError unless of length 1 or n)."""
    c = np.atleast_1d(np.asarray(terminal, dtype=float))
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


def _resolve_terminal(c: float, x: float) -> float:
    """c, or, when x <= c, c clamped to just below x with a RuntimeWarning."""
    if x > c:
        return c
    clamped = min(c, x - CLAMP_OFFSET)
    warnings.warn(f"degenerate coordinate: x = {x} <= terminal {c}; terminal clamped to "
                  f"{clamped}", RuntimeWarning, stacklevel=3)
    return clamped


def modified_fractional_gradient(f, x: np.ndarray, alpha: float, beta: float,
                                 terminal) -> np.ndarray:
    """De-scaled modified fractional gradient combining orders alpha and 1+alpha.

    alpha in (0, 1] is the base order and beta the weight of the order-(1+alpha)
    term.  Coordinate i evaluates, with c = terminal_i and restriction g,

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
    Hessian call of f.  No refinement check runs.  alpha = 1, beta = 0
    returns f's gradient before the terminal (a scalar or an n-vector) is
    read.  Otherwise an f without a Hessian raises ValueError, as does a
    terminal whose length is neither 1 nor n, and a coordinate with
    x_i < c_i has its terminal clamped to just below x_i, with a RuntimeWarning.
    """
    x = np.asarray(x, dtype=float)
    if alpha == 1.0 and beta == 0.0:
        return np.asarray(f.gradient(x), dtype=float)
    terminal = terminals(terminal, x.size)
    hess = getattr(f, "hessian", None)
    if hess is None:
        raise ValueError(f"the order-(alpha, beta) = ({alpha}, {beta}) gradient "
                         "needs f'', but the objective has no Hessian")
    locator = getattr(f, "kink_locator", None)
    pref = 1.0 if alpha == 1.0 else 1.0 - alpha
    coords = []  # (nodes tau, weights or None at the terminal, x_i - c_i)
    for i in range(x.size):
        ci = float(terminal[i])
        if x[i] == ci:
            # Limit of the cancelled form: the classical partial derivative.
            coords.append((x[i:i + 1], None, 0.0))
            continue
        ci = _resolve_terminal(ci, x[i])
        kinks = () if locator is None else tuple(locator(x, i, ci, x[i]))
        if alpha == 1.0:
            u, w = np.zeros(1), np.ones(1)
        elif kinks:
            u, w = _rule(ci, x[i], kinks, -alpha)
        else:
            u, w = _unit_rule(-alpha)
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
            out[i] = a_term + beta * b_term
        start = stop
    return out
