"""Closed-form references that the tests compare the package against."""

import math
from typing import Sequence


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
