"""Caputo fractional derivatives and fractional gradients of multivariate functions.

The order-mu Caputo derivative of a univariate function f with lower terminal c is

    D^mu f(x) = 1/Gamma(n - mu) * int_c^x (x - tau)^(n - mu - 1) f^(n)(tau) dtau,

with n = ceil(mu).  The modified gradient combines the orders alpha in
(0, 1) (n = 1, integrates f') and 1 + alpha (n = 2, integrates f'').  One
quadrature rule (`_rule`) serves every integral: in the distance u = x - tau
from the singular end it puts a 32-node Gauss-Jacobi panel, exact for the
weakly singular kernel, next to x and 64-node Gauss-Legendre panels
elsewhere, split at declared kinks of the integrand so each panel sees a
smooth function.  A kink-free coordinate is the Jacobi panel alone, 32
stack rows.  Its weights are normalized by x - c.

Gradients are taken coordinate-wise: coordinate i is the 1-D Caputo
derivative of the restriction t -> f(x_1, ..., t, ..., x_n) with terminal
c_i, evaluated at x_i.  modified_fractional_gradient, the solver's gradient,
stacks x itself (row 0) and the nodes of all coordinates and answers them
with one gradient and one Hessian call of the objective, at every order;
see mofgd.problems.ObjectiveModel.  Row 0's gradient is f's classical
gradient at x, which the caller may take as well.  The classical stage,
alpha = 1 and beta = 0, calls none: mofgd.descent decides it and takes its
merits' gradients.  A coordinate at or below its terminal, x_i <= c_i,
reads row 0 for every objective: the classical partial, the limit of the
cancelled form at x_i = c_i.  The stack
(`node_stack`: the terminal checks, the scaled rules, the read-only (k, n)
points z and a note per coordinate below its terminal) depends on x,
alpha, the terminal and the kink locator only, so a stage builds it once
per iterate and shares it among its kink-free objectives.  An objective
with kinks needs its own.  It evaluates the base rule only;
`_rule(refine=True)` is the one-level refinement that the test oracles'
accuracy check compares with.
"""

from __future__ import annotations

import functools
import warnings
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
    weight's integral.  a_exp = 0 gives the Gauss-Legendre rule, with
    LEGENDRE_NODES nodes; a_exp < 0 the Gauss-Jacobi rule, with
    JACOBI_NODES, since its weight carries the singular kernel and its
    nodes need resolve only the smooth factor.  A Legendre panel next to a
    kink meets the nearly singular kernel in its integrand, so it keeps more.
    """
    n, a = (LEGENDRE_NODES if a_exp == 0.0 else JACOBI_NODES), a_exp
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
    the kernel exactly; the others take Gauss-Legendre.  Panels are split
    once at the distance of each distinct kink in (c, x).  refine=True
    halves every panel once (the accuracy estimate).
    """
    length = x - c
    # A set, not np.unique: its first call imports numpy.ma, about 1.5 MB.
    splits = np.array(sorted({x - k for k in kinks if c < k < x})) / length
    breaks = np.concatenate(([0.0], splits, [1.0]))
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


class NodeStack(NamedTuple):
    """The quadrature nodes of every coordinate at one x, for one order.

    z is the read-only (k, n) stack of points, and its row 0 is x itself.
    Coordinate i reduces rows start:stop of it with weights w and length
    x_i - c_i.  A coordinate at or below its terminal reads row 0 with w
    None (its classical partial), and at alpha = 1 every other coordinate
    reads row 0 with weight 1.  notes holds one line per coordinate below
    its terminal.
    """

    z: np.ndarray
    coords: tuple[tuple[int, int, Optional[np.ndarray], float], ...]
    notes: tuple[str, ...] = ()


def node_stack(x: np.ndarray, alpha: float, terminal, locator=None) -> NodeStack:
    """Nodes of the order-alpha modified fractional gradient at x.

    terminal is a scalar or an n-vector (ValueError otherwise).  locator
    is the objective's kink_locator, or None for a kink-free objective,
    whose coordinates scale the unit rule.  A coordinate with
    x_i <= c_i reads row 0 with w None, kinked or not, and one with
    x_i < c_i adds a note; nothing warns.  Each coordinate is resolved on
    Python floats.  The stack is k copies of x, and a coordinate with nodes
    u fills its rows of its own column with tau = x_i - u in one slice
    assignment.  The stack depends on neither beta nor the objective's
    values, so every kink-free objective at x can share one.
    """
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
            coords.append((0, 1, None, 0.0))
            continue
        if alpha == 1.0:  # the one node is u = 0, that is x
            coords.append((0, 1, np.ones(1), xi - ci))
            continue
        kinks = () if locator is None else tuple(locator(x, i, ci, xi))
        if kinks:
            u, w = _rule(ci, xi, kinks, -alpha)
        else:
            u, w = _unit_rule(-alpha)
            u = (xi - ci) * u
        coords.append((start, start + u.size, w, xi - ci))
        fills.append((start, start + u.size, i, xi - u))
        start += u.size
    z = np.repeat(x[None], start, 0)
    for begin, stop, i, tau in fills:
        z[begin:stop, i] = tau
    z.flags.writeable = False
    return NodeStack(z, tuple(coords), tuple(notes))


def modified_fractional_gradient(f, x: np.ndarray, alpha: float, beta: float,
                                 terminal, stack: Optional[NodeStack] = None, *,
                                 gradient_out: Optional[np.ndarray] = None) -> np.ndarray:
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

    The nodes of every coordinate and x itself, in row 0, form one (k, n)
    stack, answered by one gradient and one Hessian call of f.  stack is
    `node_stack(x, alpha, terminal, f.kink_locator)` when the caller has
    built it, as the stage loop does once per iterate, and its notes are
    the caller's to read; None builds it here and raises each of its notes
    as a RuntimeWarning.  gradient_out, an n-vector, receives f's
    classical gradient at x: row 0 of the stacked gradient call, which
    rounds as f's stack rows do.  No refinement check runs.
    The formula is evaluated at every order, alpha = 1, beta = 0 included,
    so an f without a Hessian raises ValueError at every order (a
    classical stage takes its merits' gradients and calls none of these),
    and `node_stack` refuses a terminal whose length is neither 1 nor n.
    """
    x = np.asarray(x, dtype=float)
    hess = getattr(f, "hessian", None)
    if hess is None:
        raise ValueError(f"the order-(alpha, beta) = ({alpha}, {beta}) gradient "
                         "needs f'', but the objective has no Hessian")
    if stack is None:
        stack = node_stack(x, alpha, terminal, getattr(f, "kink_locator", None))
        for note in stack.notes:
            warnings.warn(note, RuntimeWarning, stacklevel=2)
    grads = np.asarray(f.gradient(stack.z), dtype=float)
    second = np.diagonal(np.asarray(hess(stack.z), dtype=float), axis1=1, axis2=2)
    if gradient_out is not None:
        gradient_out[...] = grads[0]

    pref = 1.0 if alpha == 1.0 else 1.0 - alpha
    out = []
    for i, (start, stop, w, length) in enumerate(stack.coords):
        if w is None:
            out.append(float(grads[0, i]))
        else:
            a_term = pref * float(w.dot(grads[start:stop, i]))
            b_term = pref * length * float(w.dot(second[start:stop, i]))
            out.append(a_term + beta * b_term)
    return np.array(out)
