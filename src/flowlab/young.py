"""Young integrals two independent ways, plus the fundamental bound check.

``rs_integral`` takes the limit-of-Riemann-Stieltjes-sums route with left
tags (matching the Euler solver); ``zahle_integral`` evaluates the
fractional integration-by-parts representation.  Agreement of the two is
the package's central cross-validation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fraccalc import _marchaud_values, lambda_alpha
from .paths import GridPath, _alpha_value, estimate_holder_order, f_alpha_one_norm
from .quadrature import cell_weights

__all__ = [
    "rs_integral",
    "zahle_integral",
    "young_bound_check",
    "YoungBoundReport",
]

_BRIDGE_MARGIN = 0.02  # distance kept from each end of the admissible order window
_BOUND_TOL = 1e-8      # rounding slack allowed in the fundamental bound


def _integrand_shape(f: GridPath, g: GridPath) -> int:
    if not f.same_grid(g):
        raise ValueError("integrand and integrator live on different grids")
    if f.dimension % g.dimension != 0:
        raise ValueError(
            f"integrand dimension {f.dimension} is not a multiple of integrator dimension {g.dimension}"
        )
    return f.dimension // g.dimension


def _warn_if_orders_too_low(f: GridPath, g: GridPath) -> None:
    total = estimate_holder_order(f) + estimate_holder_order(g)
    if total <= 1.0:
        warnings.warn(
            f"estimated Holder orders sum to {total:.3g} <= 1; the Young limit may not exist",
            stacklevel=3,
        )


def rs_integral(f: GridPath, g: GridPath) -> np.ndarray:
    """Left-tag Riemann-Stieltjes sum of a (d x m)-valued f against an m-valued g.

    Returns the d-vector with components sum_j integral f^{i,j} dg^j.
    """
    d = _integrand_shape(f, g)
    _warn_if_orders_too_low(f, g)
    n, m = f.n_steps, g.dimension
    weights = f.values[:-1].reshape(n, d, m)
    dg = np.diff(g.values, axis=0)
    return np.einsum("kdm,km->d", weights, dg)


def default_bridge_order(f: GridPath, g: GridPath) -> float:
    """Order for the fractional representation: midpoint of the admissible window.

    The window (1 - mu + m, lambda - m), m = ``_BRIDGE_MARGIN``, comes from
    the measured Holder orders; an empty window falls back to clipping the
    midpoint into (m, 1/2 - m).
    """
    lam = estimate_holder_order(f)
    mu = estimate_holder_order(g)
    alpha = 0.5 * (1.0 - mu + lam)
    lo, hi = 1.0 - mu + _BRIDGE_MARGIN, lam - _BRIDGE_MARGIN
    if lo < hi:
        alpha = min(max(alpha, lo), hi)
    else:
        warnings.warn(
            f"measured Holder orders ({lam:.3g}, {mu:.3g}) leave no admissible order window",
            stacklevel=2,
        )
    return min(max(alpha, _BRIDGE_MARGIN), 0.5 - _BRIDGE_MARGIN)


def zahle_integral(f: GridPath, g: GridPath, alpha: Optional[float] = None) -> np.ndarray:
    """Young integral via fractional derivatives; agrees with ``rs_integral`` in the limit.

    ``alpha`` must satisfy lambda > alpha and mu > 1 - alpha for the Holder
    orders of f and g; by default it is placed mid-window from measured
    orders.  This is the real-valued fractional representation, whose
    dropped phases multiply to -1, hence the leading sign.  The outer
    integral is trapezoidal on interior nodes; the endpoint cells use the
    same product-integration closed forms as the singular kernels.
    """
    d = _integrand_shape(f, g)
    _warn_if_orders_too_low(f, g)
    a = default_bridge_order(f, g) if alpha is None else _alpha_value(alpha)
    n, m = f.n_steps, g.dimension
    h = f.step
    rel = f.times - f.times[0]
    # left derivative of each f^{i,j}, shaped (n+1, d, m); node 0 enters via q0 below
    df = _marchaud_values(f.values, a, h, rel).reshape(n + 1, d, m)
    # right derivative of each g^j (order 1 - a) pinned at T, taken in reversed time; dg[n] (s = T) is the pinned 0
    dg = _marchaud_values(g.values[::-1] - g.values[-1], 1.0 - a, h, rel)[::-1]
    psi = (df[1:n] * dg[1:n, None]).transpose(1, 2, 0)  # (d, m, n-1): each column's interior sum runs alone
    interior = h * (0.5 * psi[..., 0] + psi[..., 1:-1].sum(axis=-1) + 0.5 * psi[..., -1]) if n >= 3 else 0.0
    # first cell: integrand ~ u^{-a} * (linear), with q(u) = u^a * D_f
    beta, gamma = cell_weights(-a, h, 1)
    q0 = f.values[0].reshape(d, m) / math.gamma(1.0 - a)
    q1 = (h**a) * df[1]
    left = (q0 * dg[0]) * gamma[1] + (q1 * dg[1]) * beta[1]
    # last cell: pinned derivative of g vanishes at s = T
    right = 0.5 * h * psi[..., -1] if n >= 2 else 0.0
    return -(left + interior + right).sum(axis=1)


@dataclass(frozen=True)
class YoungBoundReport:
    """Both sides of |integral f dg| <= Lambda_alpha(g) * ||f||_{alpha,1}."""

    lhs: float
    rhs: float
    slack: float
    ok: bool


def young_bound_check(f: GridPath, g: GridPath, alpha: float) -> YoungBoundReport:
    """Evaluate the fundamental estimate with the full (non-decimated) driver functional."""
    a = _alpha_value(alpha, upper=0.5)
    lhs = float(np.linalg.norm(rs_integral(f, g)))
    lam = lambda_alpha(g, a, endpoints="all")
    rhs = lam * f_alpha_one_norm(f, a)
    slack = rhs - lhs
    return YoungBoundReport(lhs=lhs, rhs=rhs, slack=slack, ok=bool(slack >= -_BOUND_TOL))
