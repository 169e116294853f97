"""Closed-form references that the tests compare the package against."""

import math
from typing import Sequence

import numpy as np

from mofgd import DirectionResult


def caputo_derivative_poly(coeffs: Sequence[float], cfg, x: float, order: float) -> float:
    """Closed-form Caputo derivative of a polynomial in (x - c), c = cfg's terminal.

    coeffs[k] multiplies (x - c)^k.  Monomial rule: for k >= n = ceil(order),
    D^order (x-c)^k = Gamma(k+1)/Gamma(k+1-order) (x-c)^(k-order); lower
    powers vanish.
    """
    n = math.ceil(order)
    xc = float(x) - cfg.terminal_for(0)
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
