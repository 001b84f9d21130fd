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
same time and magnitude, as a check after every step would.  The guard
bound is ``DEFAULT_BLOWUP_FACTOR`` times (1 + |x0|), read at each call;
a non-finite state (say from a field that returns NaN) counts as a
crossing.  A field that declares ``drift_growth == 0`` has b = 0, and
its steps never call ``drift``.
Blocks are handed back one at a time.  ``_flow_marks`` is the one place
that stores states: it keeps them at chosen grid indices, and a full
solve (``solve_*_batch``) is ``_flow_marks`` over every grid index on the
member's side of its start.  The other callers (the sortedness probe and
the moments campaign) reduce each block on the fly without storing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .coefficients import CoefficientField
from .errors import BlowUpError
from .paths import GridPath

__all__ = [
    "alpha0",
    "SolverConfig",
    "check_order_window",
    "solve_forward",
    "solve_forward_batch",
    "solve_backward_batch",
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


def _prepare(x0, c: CoefficientField, driver: GridPath, cfg: SolverConfig):
    if driver.dimension != c.noise_dim:
        raise ValueError(f"driver has {driver.dimension} components, field expects {c.noise_dim}")
    if cfg.n_steps != driver.n_steps:
        raise ValueError(f"config declares {cfg.n_steps} steps but the driver grid has {driver.n_steps}")
    check_order_window(cfg, c)
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    if x0.shape[-1] != c.dim:
        raise ValueError(f"initial point has dimension {x0.shape[-1]}, field expects {c.dim}")
    finite = np.isfinite(x0).all(axis=-1)
    if not finite.all():
        raise ValueError(f"initial points must be finite, got {x0[~finite][0].tolist()}")
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
    over = ~(mag <= bound)  # NaN compares false, so a NaN state counts as a crossing
    if not over.any():
        return
    for j in np.flatnonzero(over.reshape(over.shape[0], -1).any(axis=1)):
        a = active[j]
        if over[j, :a].any():
            raise BlowUpError(_blowup_message(float(mag[j, :a].max()), reached_times[j]))


def _march(x0s, starts, c, times, values, h, scheme="euler", backward=False):
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
    bound = DEFAULT_BLOWUP_FACTOR * (1.0 + np.linalg.norm(x0s, axis=-1))
    # per-member increments (B, m) broadcast over the state axes between B and d
    contract = "b...dm,bm->b...d" if per_member else "...dm,m->...d"
    shared_db = None if per_member else np.diff(values, axis=0)

    if c.drift_growth == 0.0:
        # |b(x)| <= drift_growth (1 + |x|), so the field declares b = 0
        def increment(t, s, db):
            return np.einsum(contract, c.sigma(t, s), db)
    else:
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
) -> np.ndarray:
    """Solve from start time r for a batch of initial points: (batch, steps+1, d)."""
    k0 = driver.index_of(r)
    return _flow_marks(x0s, k0, range(k0, driver.n_steps + 1), c, driver, cfg, scheme=scheme).swapaxes(0, 1)


def solve_forward(
    x0,
    r: float,
    c: CoefficientField,
    driver: GridPath,
    cfg: SolverConfig,
    scheme: str = "euler",
) -> GridPath:
    """Forward flow X started at x0 at time r, on the grid points >= r."""
    values = solve_forward_batch(x0, r, c, driver, cfg, scheme)[0]
    k0 = driver.index_of(r)
    return GridPath(driver.times[k0:], values)


def solve_backward_batch(
    x0s: np.ndarray,
    t_end: float,
    c: CoefficientField,
    driver: GridPath,
    cfg: SolverConfig,
    scheme: str = "euler",
) -> np.ndarray:
    """Backward flow values: entry k is Y_{t_k, t_end}(x), for t_k <= t_end."""
    k1 = driver.index_of(t_end)
    if k1 < 1:
        raise ValueError("backward solve needs a positive end time")
    return _flow_marks(x0s, k1, range(k1 + 1), c, driver, cfg, backward=True, scheme=scheme).swapaxes(0, 1)


def _flow_marks(x0s, starts, marks, c: CoefficientField, driver: Union[GridPath, list], cfg: SolverConfig,
                backward: bool = False, scheme: str = "euler") -> np.ndarray:
    """Euler states of members started at grid indices ``starts``, at grid indices ``marks``.

    Returns (len(marks), batch, d).  Entry [j, i] is X_{starts[i], marks[j]}(x0s[i])
    forward, or Y_{marks[j], starts[i]}(x0s[i]) backward, when the mark lies
    on the member's side of its start; a member holds x0s[i] exactly at its
    own start and at every index it has not stepped to.  ``driver`` is one
    path shared by every member or a list of one path per member, all on
    one grid.
    """
    if scheme not in ("euler", "heun"):
        raise ValueError(f"unknown scheme {scheme!r}")
    grid = driver[0] if isinstance(driver, list) else driver
    x0s = _prepare(x0s, c, grid, cfg)
    values = np.stack([p.values for p in driver]) if isinstance(driver, list) else driver.values
    marks = np.asarray(marks, dtype=np.intp)
    slot = np.full(grid.n_steps + 1, marks.size)  # an unmarked index writes to a spare last row
    slot[marks] = np.arange(marks.size)
    out = np.broadcast_to(x0s, (marks.size + 1,) + x0s.shape).copy()
    for reached, states in _march(x0s, starts, c, grid.times, values, grid.step, scheme, backward):
        out[slot[reached]] = states
    return out[:-1]
