"""Caputo fractional derivatives and fractional gradients of multivariate functions.

The order-mu Caputo derivative of a univariate function f with lower terminal c is

    D^mu f(x) = 1/Gamma(n - mu) * int_c^x (x - tau)^(n - mu - 1) f^(n)(tau) dtau,

with n = ceil(mu).  The modified gradient combines the orders alpha in
(0, 1) and 1 + alpha; the latter integrates against df', which integration
by parts turns into an integral of f' (Diethelm, The Analysis of Fractional
Differential Equations, 2010), so an objective is a value and a gradient.
One quadrature rule (`_rule`) serves every integral: in the distance
u = x - tau from the singular end it puts a 32-node Gauss-Jacobi panel,
exact for the weakly singular kernel, next to x and 64-node Gauss-Legendre
panels, uniform in log u, elsewhere, split at declared kinks so each panel
sees a smooth function.

Gradients are taken coordinate-wise: coordinate i is the 1-D derivative of
the restriction t -> f(x_1, ..., t, ..., x_n) with terminal c_i, at x_i.
`node_stack` stacks x itself (row 0) and the nodes and the terminal point
of every coordinate, for one order alpha, and modified_fractional_gradient
answers a stack with one gradient call of f and reduces it at the stack's
alpha; row 0 is f's classical gradient at x, which the caller may take as
well.  alpha = 1 is the classical stage, which mofgd.descent decides and
which calls none of this.  A coordinate at or below its terminal,
x_i <= c_i, reads row 0: the classical partial, the limit of the cancelled
form at x_i = c_i; its stack notes it, and nothing warns.  The stack
depends on x, alpha, the terminal and the kink locator only, so a stage
builds one per iterate for each distinct kink locator, None for the
kink-free objectives, and hands it to every objective with that locator.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "NodeStack",
    "modified_fractional_gradient",
    "node_stack",
    "order_shift",
    "terminals",
]

JACOBI_NODES = 32
LEGENDRE_NODES = 64


def order_shift(alpha: float) -> float:
    """(1 - alpha)/(2 - alpha), in [0, 1/2): what an order-alpha stage subtracts from beta."""
    return (1.0 - alpha) / (2.0 - alpha)


def terminals(terminal, n: int) -> np.ndarray:
    """The Caputo terminal c as a read-only n-vector of its own: the one rule.

    None is zeros(n), and a single entry is repeated n times.  Any other
    length, and a NaN or an infinite entry, raise ValueError.  The
    schedule, its set-up, the merits, the node stacks and every Tikhonov
    system read their terminal through it and keep the copy it returns,
    so writing into the caller's array later changes none of them.
    """
    c = np.array(0.0 if terminal is None else terminal, dtype=float).reshape(-1)
    if c.size == 1 and n != 1:
        c = c.repeat(n)
    if c.size != n:
        raise ValueError(f"terminal has length {c.size}, but x has length {n}; "
                         f"give one terminal or {n}")
    if not all(map(math.isfinite, c.tolist())):
        raise ValueError(f"terminal must be finite, got {terminal}")
    c.flags.writeable = False
    return c


@functools.lru_cache(maxsize=None)
def _gauss_rule(a_exp: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule on [-1, 1] for the weight (1 - t)^a_exp, a_exp in (-1, 0].

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of P_n^(a_exp, 0), and the weights are mu_0 v_0^2, with
    v_0 the first eigenvector components and mu_0 = 2^(a+1)/(a+1) the
    weight's integral.  a_exp = 0 gives the Gauss-Legendre rule, with
    LEGENDRE_NODES nodes; a_exp < 0 the Gauss-Jacobi rule, with
    JACOBI_NODES, since its weight carries the singular kernel and its
    nodes need resolve only the smooth factor.  A Legendre panel carries
    the kernel in its integrand, so it keeps more.
    """
    n, a = (LEGENDRE_NODES if a_exp == 0.0 else JACOBI_NODES), a_exp
    k = np.arange(1.0, n)
    s = 2.0 * k + a
    diag = np.concatenate(([-a / (a + 2.0)], -a * a / (s * (s + 2.0))))
    off = 2.0 * k * (k + a) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    t, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return t, 2.0 ** (a + 1.0) / (a + 1.0) * v[0] ** 2


def _rule(c: float, x: float, kinks: Sequence[float],
          a_exp: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit nodes s, weights w and by-parts weights w / s of
    int_c^x (x - tau)^a_exp h(tau) dtau.

    The nodes are distances s = (x - tau)/(x - c) from the singular end, and

        int_c^x (x - tau)^a_exp h(tau) dtau  ~=  (x - c)^(a_exp + 1) * w @ h(x - (x - c) s).

    The panel touching s = 0 takes the Gauss-Jacobi rule, which integrates
    the kernel exactly; the others take Gauss-Legendre uniformly in log s,
    where the kernel is entire, so a kink next to x costs no accuracy.
    Panels are split once at the distance of each distinct kink in (c, x).
    """
    length = x - c
    # A set, not np.unique: its first call imports numpy.ma, about 1.5 MB.
    splits = np.array(sorted({x - k for k in kinks if c < k < x})) / length
    breaks = np.concatenate(([0.0], splits, [1.0]))
    t, w = _gauss_rule(a_exp)
    half = 0.5 * breaks[1]
    nodes, weights = [half * (1.0 - t)], [half ** (a_exp + 1.0) * w]
    t, w = _gauss_rule(0.0)
    for p, q in zip(breaks[1:-1], breaks[2:]):
        half = 0.5 * np.log(q / p)
        s = p * np.exp(half * (1.0 + t))
        nodes.append(s)
        weights.append(half * w * s ** (a_exp + 1.0))
    s, w = np.concatenate(nodes), np.concatenate(weights)
    return s, w, w / s


@functools.lru_cache(maxsize=None)
def _unit_rule(a_exp: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kink-free `_rule`, built once per order and read-only."""
    s, w, v = _rule(0.0, 1.0, (), a_exp)
    s.flags.writeable = w.flags.writeable = v.flags.writeable = False
    return s, w, v


class NodeStack(NamedTuple):
    """The quadrature nodes of every coordinate at one x, for one order.

    z is the read-only (k, n) stack of points, and its row 0 is x itself.
    alpha is the order in (0, 1) that the nodes and weights were built
    for.  Coordinate i reduces rows start:stop of z with weights w and the
    by-parts weights v = w / s; row stop is x with x_i set to c_i.  A
    coordinate at or below its terminal reads row 0 with w and v None (its
    classical partial).  notes holds one line per coordinate below its
    terminal.
    """

    z: np.ndarray
    alpha: float
    coords: tuple[tuple[int, int, Optional[np.ndarray], Optional[np.ndarray]], ...]
    notes: tuple[str, ...] = ()


def node_stack(x: np.ndarray, alpha: float, terminal, locator=None) -> NodeStack:
    """Nodes of the order-alpha modified fractional gradient at x.

    alpha lies in (0, 1) (ValueError otherwise), and terminal is read by
    `terminals`: None is zeros, and a terminal whose length is neither 1
    nor n, or with a non-finite entry, raises ValueError.  locator is the
    objective's kink_locator, or None for a kink-free objective, whose
    coordinates scale the unit rule.  A coordinate with x_i <= c_i reads
    row 0, kinked or not, and one with x_i < c_i adds a note; nothing
    warns.  Each coordinate is resolved on Python floats and fills its rows
    of its own column of k copies of x.  The stack depends on neither beta
    nor the objective's values, so every objective at x with this kink
    locator can share one.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha} (1 is the classical order)")
    x = np.asarray(x, dtype=float)
    terminal = terminals(terminal, x.size)
    coords, fills, notes, start = [], [], [], 1
    for i, (xi, ci) in enumerate(zip(x.tolist(), terminal.tolist())):
        if xi <= ci:
            # Limit of the cancelled form at the terminal, taken below it too:
            # the classical partial derivative.
            if xi < ci:
                notes.append(f"degenerate coordinate: x = {xi} <= terminal {ci}; "
                             "classical partial derivative taken")
            coords.append((0, 1, None, None))
            continue
        kinks = () if locator is None else tuple(locator(x, i, ci, xi))
        s, w, v = _rule(ci, xi, kinks, -alpha) if kinks else _unit_rule(-alpha)
        stop = start + s.size
        coords.append((start, stop, w, v))
        fills.append((start, stop, i, xi - (xi - ci) * s, ci))
        start = stop + 1
    z = np.repeat(x[None], start, 0)
    for begin, stop, i, tau, ci in fills:
        z[begin:stop, i] = tau
        z[stop, i] = ci
    z.flags.writeable = False
    return NodeStack(z, alpha, tuple(coords), tuple(notes))


def modified_fractional_gradient(f, stack: NodeStack, beta: float, *,
                                 gradient_out: Optional[np.ndarray] = None) -> np.ndarray:
    """De-scaled modified fractional gradient combining orders alpha and 1+alpha.

    stack is `node_stack(x, alpha, terminal, f.kink_locator)`, and alpha,
    its order, is the base order; beta is the weight of the
    order-(1+alpha) term.  Coordinate i evaluates, with c = terminal_i,
    restriction g and unit distances s = (x_i - tau)/(x_i - c),

        (1-alpha) [ (x_i-c)^(alpha-1) I1 + beta (x_i-c)^alpha I2 ],
        I1 = int_c^{x_i} (x_i-tau)^(-alpha) g'(tau) dtau,
        (x_i-c)^alpha I2 = g'(x_i) - g'(c) - alpha int_0^1 s^(-alpha) (g'(tau) - g'(x_i)) / s ds,

    where I2 = int (x_i-tau)^(-alpha) dg'(tau) is the order-(1+alpha)
    integral by parts: it reads g' alone and counts a jump J of g' at a
    kink k as (x_i - k)^(-alpha) J.  This is the Taylor-model fractional
    gradient after its diagonal scaling matrix is cancelled analytically;
    for a quadratic with Hessian H it is
    grad f(x) + (beta - (1-alpha)/(2-alpha)) diag(diag(H)) (x - c).

    The stack is answered by one gradient call of f; its notes are the
    caller's to read.  gradient_out, an n-vector, receives row 0 of the
    stacked call: f's classical gradient at x.
    """
    alpha = stack.alpha
    grads = np.asarray(f.gradient(stack.z), dtype=float)
    if gradient_out is not None:
        gradient_out[...] = grads[0]

    out = grads[0].copy()
    for i, (start, stop, w, v) in enumerate(stack.coords):
        if w is not None:
            g, gx = grads[start:stop, i], out[i]
            out[i] = (1.0 - alpha) * (float(w.dot(g)) + beta * (
                gx - grads[stop, i] - alpha * float(v.dot(g - gx))))
    return out
