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
from typing import Optional, Union

import numpy as np

from .fraccalc import _marchaud_values, lambda_alpha
from .paths import FracOrder, GridPath, _alpha_value, estimate_holder_order, f_alpha_one_norm
from .quadrature import cell_weights

__all__ = [
    "rs_integral",
    "zahle_integral",
    "indefinite_integral",
    "young_bound_check",
    "YoungBoundReport",
]


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


def indefinite_integral(f: GridPath, g: GridPath) -> GridPath:
    """Running integral t -> integral_0^t f dg as prefix sums of the left-tag increments."""
    d = _integrand_shape(f, g)
    _warn_if_orders_too_low(f, g)
    n, m = f.n_steps, g.dimension
    weights = f.values[:-1].reshape(n, d, m)
    dg = np.diff(g.values, axis=0)
    increments = np.einsum("kdm,km->kd", weights, dg)
    values = np.zeros((n + 1, d))
    np.cumsum(increments, axis=0, out=values[1:])
    return GridPath(f.times, values)


def default_bridge_order(f: GridPath, g: GridPath, margin: float = 0.02) -> float:
    """Order for the fractional representation: midpoint of the admissible window.

    The window (1 - mu + margin, lambda - margin) comes from the measured
    Holder orders; an empty window falls back to clipping the midpoint
    into (margin, 1/2 - margin).
    """
    lam = estimate_holder_order(f)
    mu = estimate_holder_order(g)
    alpha = 0.5 * (1.0 - mu + lam)
    lo, hi = 1.0 - mu + margin, lam - margin
    if lo < hi:
        alpha = min(max(alpha, lo), hi)
    else:
        warnings.warn(
            f"measured Holder orders ({lam:.3g}, {mu:.3g}) leave no admissible order window",
            stacklevel=2,
        )
    return min(max(alpha, margin), 0.5 - margin)


def _scalar_zahle(fv: np.ndarray, gv: np.ndarray, a: float, h: float, rel: np.ndarray) -> float:
    """Real-valued fractional representation of integral f dg for scalar columns.

    The dropped phases multiply to -1, hence the leading sign.  The outer
    integral is trapezoidal on interior nodes; the endpoint cells use the
    same product-integration closed forms as the singular kernels.
    """
    n = fv.shape[0] - 1
    df = _marchaud_values(fv[:, None], a, h, rel)[:, 0]  # left derivative of f; node 0 enters via q0 below
    # right derivative of g (order 1 - a) pinned at T, taken in reversed time; dg[n] (s = T) is the pinned 0
    dg = _marchaud_values((gv[::-1] - gv[-1])[:, None], 1.0 - a, h, rel)[::-1, 0]
    psi = df[1:n] * dg[1:n]
    interior = h * (0.5 * psi[0] + psi[1:-1].sum() + 0.5 * psi[-1]) if n >= 3 else 0.0
    # first cell: integrand ~ u^{-a} * (linear), with q(u) = u^a * D_f
    beta, gamma = cell_weights(-a, h, 1)
    q0 = fv[0] / math.gamma(1.0 - a)
    q1 = (h**a) * df[1]
    left = (q0 * dg[0]) * gamma[1] + (q1 * dg[1]) * beta[1]
    # last cell: pinned derivative of g vanishes at s = T
    right = 0.5 * h * psi[-1] if n >= 2 else 0.0
    return -(left + interior + right)


def zahle_integral(
    f: GridPath,
    g: GridPath,
    alpha: Optional[Union[FracOrder, float]] = None,
) -> np.ndarray:
    """Young integral via fractional derivatives; agrees with ``rs_integral`` in the limit.

    ``alpha`` must satisfy lambda > alpha and mu > 1 - alpha for the Holder
    orders of f and g; by default it is placed mid-window from measured
    orders.
    """
    d = _integrand_shape(f, g)
    _warn_if_orders_too_low(f, g)
    a = default_bridge_order(f, g) if alpha is None else _alpha_value(alpha)
    n, m = f.n_steps, g.dimension
    h = f.step
    rel = f.times - f.times[0]
    fcols = f.values.reshape(n + 1, d, m)
    out = np.zeros(d)
    for i in range(d):
        for j in range(m):
            out[i] += _scalar_zahle(fcols[:, i, j], g.values[:, j], a, h, rel)
    return out


@dataclass(frozen=True)
class YoungBoundReport:
    """Both sides of |integral f dg| <= Lambda_alpha(g) * ||f||_{alpha,1}."""

    lhs: float
    rhs: float
    slack: float
    ok: bool


def young_bound_check(
    f: GridPath,
    g: GridPath,
    alpha: Union[FracOrder, float],
    tol_numeric: float = 1e-8,
) -> YoungBoundReport:
    """Evaluate the fundamental estimate with the full (non-decimated) driver functional."""
    a = _alpha_value(alpha, upper=0.5)
    lhs = float(np.linalg.norm(rs_integral(f, g)))
    lam = lambda_alpha(g, a, endpoints="all")
    rhs = lam * f_alpha_one_norm(f, a)
    slack = rhs - lhs
    return YoungBoundReport(lhs=lhs, rhs=rhs, slack=slack, ok=bool(slack >= -tol_numeric))
