"""Pathwise solver for differential equations driven by Holder-continuous paths.

The forward flow uses the explicit left-point (Euler) scheme, whose tags
match the left Riemann-Stieltjes sums of :mod:`flowlab.young`; with a
piecewise-linear driver it is exact ODE integration in the vanishing-step
limit.  The backward flow steps in reverse time and subtracts the
increment evaluated at the right point, which makes it the exact grid
inverse of the forward map for additive noise.  A Heun-type two-step
scheme is available for convergence cross-checks.

Every solve runs through one stepping kernel, ``_march``.  It advances a
batch of members, each from its own start index, against one shared
driver or one driver per member; sorted by start, the members active at
a step are a prefix of the batch.  The blow-up guard is checked once per
block of ``_GUARD_BLOCK`` steps: the block's states are scanned for the
first crossing in stepping order, which raises the same error, with the
same time and magnitude, as a check after every step would.  Blocks are
handed back one at a time, so callers either store the trajectory
(``solve_*_batch``), keep the states at a few grid marks (``_flow_marks``)
or reduce each block on the fly without materialising it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .coefficients import CoefficientField
from .errors import BlowUpError
from .paths import GridPath, HolderOrder, _holder_value, holder_seminorm

__all__ = [
    "alpha0",
    "SolverConfig",
    "check_order_window",
    "solve_forward",
    "solve_backward",
    "solve_forward_batch",
    "solve_backward_batch",
    "sup_estimate_check",
    "SupEstimateReport",
]

DEFAULT_BLOWUP_FACTOR = 1e12
_GUARD_BLOCK = 64  # steps advanced between two checks of the blow-up guard


def alpha0(beta: float, delta: float) -> float:
    """Upper end of the admissible fractional-order window: min(1/2, beta, delta/(1+delta))."""
    for label, v in (("beta", beta), ("delta", delta)):
        if not (0.0 < v <= 1.0):
            raise ValueError(f"{label} must lie in (0, 1], got {v}")
    return min(0.5, beta, delta / (1.0 + delta))


@dataclass(frozen=True)
class SolverConfig:
    """Fractional order, step count, and Hurst exponent for one solve.

    Construction enforces alpha in (1 - H, 1/2); the coefficient-dependent
    upper end alpha0(beta, delta) is enforced when the config meets a
    field (``check_order_window``).
    """

    alpha: float
    n_steps: int
    hurst: float

    def __post_init__(self):
        if not (0.5 < self.hurst < 1.0):
            raise ValueError(f"the pathwise solver needs Hurst in (1/2, 1), got {self.hurst}")
        if not (0.0 < self.alpha < 0.5):
            raise ValueError(f"alpha must lie in (0, 1/2), got {self.alpha}")
        if self.alpha <= 1.0 - self.hurst:
            raise ValueError(
                f"alpha = {self.alpha} is outside the admissible window ({1.0 - self.hurst}, 1/2)"
            )
        if self.n_steps < 1:
            raise ValueError("need at least one step")


def check_order_window(cfg: SolverConfig, c: CoefficientField) -> None:
    """Reject configs whose order falls outside (1 - H, alpha0) for this field."""
    top = alpha0(c.time_holder_order, c.dsigma_holder_order)
    if not (1.0 - cfg.hurst < cfg.alpha < top):
        raise ValueError(
            f"alpha = {cfg.alpha} outside the admissible window ({1.0 - cfg.hurst:.4g}, {top:.4g}) "
            f"for field {c.name!r}"
        )


def _prepare(x0, c: CoefficientField, driver: Union[GridPath, _DriverStack], cfg: SolverConfig):
    if driver.dimension != c.noise_dim:
        raise ValueError(f"driver has {driver.dimension} components, field expects {c.noise_dim}")
    if cfg.n_steps != driver.n_steps:
        raise ValueError(f"config declares {cfg.n_steps} steps but the driver grid has {driver.n_steps}")
    check_order_window(cfg, c)
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    if x0.shape[-1] != c.dim:
        raise ValueError(f"initial point has dimension {x0.shape[-1]}, field expects {c.dim}")
    return x0


def _blowup_message(worst: float, t: float) -> str:
    return (
        f"|X| = {worst:.3e} at t = {t:.6g} crossed the blow-up guard; "
        "the hypotheses are violated or the grid is too coarse"
    )


def _check_block(block, active, bound, reached_times) -> None:
    """Raise at the first step of the block at which a started member crossed its bound."""
    with np.errstate(over="ignore", invalid="ignore"):
        mag = np.linalg.norm(block, axis=-1)
    over = mag > bound
    if not over.any():
        return
    for j in np.flatnonzero(over.reshape(over.shape[0], -1).any(axis=1)):
        a = active[j]
        if over[j, :a].any():
            raise BlowUpError(_blowup_message(float(mag[j, :a].max()), reached_times[j]))


def _march(x0s, starts, c, times, values, h, scheme="euler", backward=False,
           blowup_factor=DEFAULT_BLOWUP_FACTOR):
    """The stepping kernel: advance every member from its own start index.

    ``x0s`` is (B, ..., d); member i holds x0s[i] at grid index starts[i]
    (an int or a (B,) array) and steps forward to the end of the grid, or
    back to its first point when ``backward``.  ``values`` is one shared
    driver (n+1, m) or one driver per member (B, n+1, m).  Yields
    ``(reached, states)`` per checked block of at most ``_GUARD_BLOCK``
    steps, in stepping order: ``reached`` holds the grid indices the
    steps reach and ``states`` (len(reached), B, ..., d) the members'
    states there, in the caller's order.  A member that has not started
    yet holds its initial point.
    """
    n = times.shape[0] - 1
    starts = np.broadcast_to(np.asarray(starts, dtype=np.intp), x0s.shape[:1])
    # with members sorted by start, the members active at any step form a prefix
    order = np.argsort(-starts if backward else starts, kind="stable")
    inverse = None
    if np.any(order != np.arange(order.size)):
        inverse = np.argsort(order)
        x0s, starts = x0s[order], starts[order]
        if values.ndim == 3:
            values = values[order]
    per_member = values.ndim == 3
    if backward:
        steps = np.arange(starts[0] - 1, -1, -1)
        active = np.searchsorted(-starts, -(steps + 1), side="right")
        reached = steps
    else:
        steps = np.arange(starts[0], n)
        active = np.searchsorted(starts, steps, side="right")
        reached = steps + 1
    apply = np.subtract if backward else np.add
    bound = blowup_factor * (1.0 + np.linalg.norm(x0s, axis=-1))
    # per-member increments (B, m) broadcast over the state axes between B and d
    contract = "b...dm,bm->b...d" if per_member else "...dm,m->...d"
    shared_db = None if per_member else np.diff(values, axis=0)

    def increment(t, s, db):
        return np.einsum(contract, c.sigma(t, s), db) + c.drift(t, s) * h

    prev = x0s
    for lo in range(0, steps.size, _GUARD_BLOCK):
        ks = steps[lo : lo + _GUARD_BLOCK]
        block = np.empty(ks.shape + x0s.shape)
        done = 0
        try:
            # steps past a crossing may overflow; they are checked below and discarded
            with np.errstate(over="ignore", invalid="ignore"):
                for j, (k, a) in enumerate(zip(ks.tolist(), active[lo : lo + ks.size].tolist())):
                    t_from, t_to = (times[k + 1], times[k]) if backward else (times[k], times[k + 1])
                    s = prev[:a]
                    db = values[:a, k + 1] - values[:a, k] if per_member else shared_db[k]
                    inc = increment(t_from, s, db)
                    if scheme == "heun":
                        inc = 0.5 * (inc + increment(t_to, apply(s, inc), db))
                    row = block[j]
                    apply(s, inc, out=row[:a])
                    if a < len(row):
                        row[a:] = prev[a:]
                    prev = row
                    done = j + 1
        except Exception:
            _check_block(block[:done], active[lo:], bound, times[reached[lo:]])
            raise
        _check_block(block, active[lo:], bound, times[reached[lo : lo + ks.size]])
        yield reached[lo : lo + ks.size], (block if inverse is None else block[:, inverse])


def solve_forward_batch(
    x0s: np.ndarray,
    r: float,
    c: CoefficientField,
    driver: GridPath,
    cfg: SolverConfig,
    scheme: str = "euler",
    blowup_factor: float = DEFAULT_BLOWUP_FACTOR,
) -> np.ndarray:
    """Solve from start time r for a batch of initial points: (batch, steps+1, d)."""
    if scheme not in ("euler", "heun"):
        raise ValueError(f"unknown scheme {scheme!r}")
    x0s = _prepare(x0s, c, driver, cfg)
    k0 = driver.index_of(r)
    out = np.empty((x0s.shape[0], driver.n_steps - k0 + 1, c.dim))
    out[:, 0] = x0s
    for reached, states in _march(x0s, k0, c, driver.times, driver.values, driver.step, scheme,
                                  blowup_factor=blowup_factor):
        out[:, reached - k0] = states.swapaxes(0, 1)
    return out


def solve_forward(
    x0,
    r: float,
    c: CoefficientField,
    driver: GridPath,
    cfg: SolverConfig,
    scheme: str = "euler",
    blowup_factor: float = DEFAULT_BLOWUP_FACTOR,
) -> GridPath:
    """Forward flow X started at x0 at time r, on the grid points >= r."""
    values = solve_forward_batch(x0, r, c, driver, cfg, scheme, blowup_factor)[0]
    k0 = driver.index_of(r)
    return GridPath(driver.times[k0:], values)


def solve_backward_batch(
    x0s: np.ndarray,
    t_end: float,
    c: CoefficientField,
    driver: GridPath,
    cfg: SolverConfig,
    scheme: str = "euler",
    blowup_factor: float = DEFAULT_BLOWUP_FACTOR,
) -> np.ndarray:
    """Backward flow values: entry k is Y_{t_k, t_end}(x), for t_k <= t_end."""
    if scheme not in ("euler", "heun"):
        raise ValueError(f"unknown scheme {scheme!r}")
    x0s = _prepare(x0s, c, driver, cfg)
    k1 = driver.index_of(t_end)
    if k1 < 1:
        raise ValueError("backward solve needs a positive end time")
    out = np.empty((x0s.shape[0], k1 + 1, c.dim))
    out[:, k1] = x0s
    for reached, states in _march(x0s, k1, c, driver.times, driver.values, driver.step, scheme,
                                  backward=True, blowup_factor=blowup_factor):
        out[:, reached] = states.swapaxes(0, 1)
    return out


def solve_backward(
    x0,
    t_end: float,
    c: CoefficientField,
    driver: GridPath,
    cfg: SolverConfig,
    scheme: str = "euler",
    blowup_factor: float = DEFAULT_BLOWUP_FACTOR,
) -> GridPath:
    """Backward flow Y_{., t_end}(x0) on the grid from the driver start up to t_end."""
    values = solve_backward_batch(x0, t_end, c, driver, cfg, scheme, blowup_factor)[0]
    k1 = driver.index_of(t_end)
    return GridPath(driver.times[: k1 + 1], values)


@dataclass(frozen=True)
class _DriverStack:
    """One driver per member on a shared grid, as ``_march`` takes them: ``values`` is (B, n+1, m).

    ``_flow_marks`` accepts it in place of a GridPath, to step members
    under different drivers (seeds, polygonal approximations) in one pass.
    """

    times: np.ndarray
    step: float
    values: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.times.shape[0] - 1

    @property
    def dimension(self) -> int:
        return self.values.shape[-1]


def _flow_marks(x0s, starts, marks, c: CoefficientField, driver: Union[GridPath, _DriverStack], cfg: SolverConfig,
                backward: bool = False) -> np.ndarray:
    """Euler states of members started at grid indices ``starts``, at grid indices ``marks``.

    Returns (len(marks), batch, d).  Entry [j, i] is X_{starts[i], marks[j]}(x0s[i])
    forward, or Y_{marks[j], starts[i]}(x0s[i]) backward, when the mark lies
    on the member's side of its start; a member holds x0s[i] exactly at its
    own start and at every index it has not stepped to.  ``driver`` is one
    path shared by every member or a stack of one driver per member.
    """
    x0s = _prepare(x0s, c, driver, cfg)
    marks = np.asarray(marks, dtype=np.intp)
    slot = np.full(driver.n_steps + 1, -1)
    slot[marks] = np.arange(marks.size)
    out = np.broadcast_to(x0s, (marks.size,) + x0s.shape).copy()
    for reached, states in _march(x0s, starts, c, driver.times, driver.values, driver.step,
                                  backward=backward):
        hit = slot[reached]
        kept = hit >= 0
        out[hit[kept]] = states[kept]
    return out


@dataclass(frozen=True)
class SupEstimateReport:
    """Implied growth constants from the sup-norm estimates for time-independent sigma."""

    sup_solution: float
    holder_driver: float
    implied_k: float
    implied_k_bounded: Optional[float]


def sup_estimate_check(
    solution: GridPath,
    driver: GridPath,
    c: CoefficientField,
    theta: Union[HolderOrder, float],
) -> SupEstimateReport:
    """Back out the unspecified constant in sup_t |X_t| <= 2^{1 + k T a ||B||^(1/theta)} (|X_0| + 1).

    ``a`` is max(Lipschitz constant of sigma, |sigma(0)|).  Only stability
    of the implied constant across seeds and grids is meaningful; the
    bound's own constant is not published.  The bounded-sigma refinement
    is reported too when the field declares a sup bound.
    """
    th = _holder_value(theta)
    if th <= 0.5:
        raise ValueError(f"theta must exceed 1/2, got {th}")
    sup_x = solution.sup_norm()
    x0 = float(np.linalg.norm(solution.values[0]))
    span = driver.end - driver.start
    holder_b = holder_seminorm(driver, th)
    sigma_at_zero = float(np.linalg.norm(c.sigma(0.0, np.zeros(c.dim))))
    scale = max(c.sigma_lipschitz, sigma_at_zero)
    denom = span * scale * holder_b ** (1.0 / th)
    numer = math.log2(sup_x / (x0 + 1.0)) - 1.0
    implied = numer / denom if denom > 0.0 else 0.0
    implied_bounded = None
    if c.sigma_bound is not None and c.sigma_bound > 0.0:
        alt = max(
            span**th * holder_b ** (1.0 / th),
            span * c.sigma_lipschitz ** ((1.0 - th) / th) * holder_b ** (1.0 / th),
        )
        if alt > 0.0:
            implied_bounded = max(sup_x - x0, 0.0) / (c.sigma_bound * alt)
    return SupEstimateReport(
        sup_solution=sup_x,
        holder_driver=holder_b,
        implied_k=implied,
        implied_k_bounded=implied_bounded,
    )
