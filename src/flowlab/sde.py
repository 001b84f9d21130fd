"""Pathwise solver for differential equations driven by Holder-continuous paths.

The forward flow uses the explicit left-point (Euler) scheme, whose tags
match the left Riemann-Stieltjes sums of :mod:`flowlab.young`; with a
piecewise-linear driver it is exact ODE integration in the vanishing-step
limit.  The backward flow steps in reverse time and subtracts the
increment evaluated at the right point, which makes it the exact grid
inverse of the forward map for additive noise.

Every solve runs through one stepping kernel, ``_march``, which steps
forward only.  It advances a batch of members, each from its own start
index, against one shared driver or a driver per member (which members may
share), and adds each step's increment or, for a backward solve on the
time-reversed grid, subtracts it.  Its members come in stepping order (by
ascending start), so the members that have started at a step are a prefix
of the batch.  A member may march with a stride s: it steps only from the
grid indices that s divides, over s indices at once, and does no
arithmetic at the indices between.  That is the same solve, bit for bit,
as on the grid decimated by s, so one march steps a whole ladder of grids
in lockstep.  The blow-up guard is checked once per block of
steps, which holds at most ``_GUARD_BLOCK`` steps and at most
``_STATE_POINTS`` states (members times state components; at least one
step however wide the batch).  The block is screened first by its largest
component: no norm exceeds sqrt(d) times it, so a block whose largest
component clears the smallest bound crossed nothing.  A block that fails
the screen (a NaN or an infinity always does) is scanned exactly for the
first crossing in stepping order, which raises the same error, with the
same time and magnitude, as a check after every step would (a strided
member's crossing is timed at the knot it stepped to).  The guard bound
is ``DEFAULT_BLOWUP_FACTOR`` times (1 + |x0|), read at each call; a
non-finite state (say from a field that returns NaN) counts as a
crossing.  A field that declares ``drift_growth == 0`` has b = 0, and
its steps never call ``drift``.
Blocks are handed back one at a time, each stepped into the same buffer,
so a block is valid until the next one is stepped and a march holds one
block of states however long its grid and, beyond one step's states,
however wide its batch.  The block size changes no state and no error:
the guard raises at the first crossing in stepping order whatever the
block.  ``_flow_marks`` is the one place that stores states: it puts the
members in stepping order, copies their states at chosen grid indices
back into the caller's order, and a full solve (``solve_forward_batch``)
is ``_flow_marks`` over every grid index after the start.  The other
callers start every member at 0 and reduce each block on the fly without
storing it: the sortedness probe and the moments campaign, whose members
come in blocks of drivers too, each drawn and marched in turn, so neither
holds the whole batch of drivers; and init-continuity, which keeps only
the difference of each pair of members and marches a seed's pairs a
block of pairs at a time, so it holds one block of differences however
many pairs the seed has.  An empty batch of initial points is rejected
before any march, as a non-finite initial point is.
"""

from __future__ import annotations

import math
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
]

DEFAULT_BLOWUP_FACTOR = 1e12
_GUARD_BLOCK = 64  # most steps advanced between two checks of the blow-up guard
_STATE_POINTS = 2**16  # most states (members times state components) a block holds; at least one step
# The guard's screen: a relative margin over the rounding of a norm of up to
# 10^6 components, and the smallest bounds for which that margin also covers
# the underflow and overflow of the norm's squares.
_SCREEN_MARGIN = 1.0 + 1e-9
_SCREEN_WINDOW = (1e-100, 1e100)


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
    if x0.size == 0:
        raise ValueError(f"empty batch of initial points, shape {x0.shape}")
    finite = np.isfinite(x0).all(axis=-1)
    if not finite.all():
        raise ValueError(f"initial points must be finite, got {x0[~finite][0].tolist()}")
    return x0


def _blowup_message(worst: float, t: float) -> str:
    return (
        f"|X| = {worst:.3e} at t = {t:.6g} crossed the blow-up guard; "
        "the hypotheses are violated or the grid is too coarse"
    )


def _check_block(block, active, reached, bound, time_of) -> None:
    """Raise at the first step of the block at which a started member crossed its bound.

    The block is screened first by its largest component: no norm exceeds
    sqrt(d) times it, up to rounding that ``_SCREEN_MARGIN`` covers, so a
    block (empty ones included) whose largest component times sqrt(d)
    clears the smallest bound returns at once.  A NaN or infinite
    component fails the screen, and so does a smallest bound outside
    ``_SCREEN_WINDOW``; such a block is scanned exactly.  The message
    names the worst started member's magnitude and ``time_of(r, i)``, the
    time of member i's state in the row that reached grid index r.
    """
    floor = float(bound.min())
    # the largest component: NaN if any component is NaN (both reductions are), -inf if the block is empty
    top = float(max(block.max(initial=-np.inf), -block.min(initial=np.inf)))
    if _SCREEN_WINDOW[0] <= floor <= _SCREEN_WINDOW[1] and top * math.sqrt(block.shape[-1]) * _SCREEN_MARGIN <= floor:
        return
    with np.errstate(over="ignore", invalid="ignore"):
        mag = np.linalg.norm(block, axis=-1)
    over = ~(mag <= bound)  # NaN compares false, so a NaN state counts as a crossing
    if not over.any():
        return
    for j in np.flatnonzero(over.reshape(over.shape[0], -1).any(axis=1)):
        a = active[j]
        if over[j, :a].any():
            worst = np.unravel_index(np.argmax(mag[j, :a]), mag[j, :a].shape)  # argmax finds a NaN, as max does
            raise BlowUpError(_blowup_message(float(mag[j, :a][worst]), time_of(reached[j], worst[0])))


def _march(x0s, starts, c, times, values, h, strides=1, owner=None, subtract=False):
    """The Euler stepping kernel: advance every member from its own start index.

    ``x0s`` is (B, ..., d); member i holds x0s[i] at grid index starts[i]
    (an int or a (B,) array) and steps forward to the end of the grid,
    adding each increment, or subtracting it when ``subtract``.  The
    members come in stepping order: ``starts`` ascends, or the first block
    raises ``ValueError``.  ``values`` is one shared driver (n+1, m) or a
    stack of drivers (D, n+1, m): member i runs under values[owner[i]], or
    under values[i] when ``owner`` is None.  ``h`` is the drift step, one
    for all or one per member.  A member of stride s (``strides``, an int
    or a (B,) array; s divides n and the member's start) marches the
    coarser grid of every s-th index: it steps only from the indices k
    that s divides, to k + s, with the driver increment between the two.
    Between two of its knots it reads its state at the knot it is stepping
    to.  Yields ``(reached, states)`` per checked block, in stepping
    order: ``reached`` holds the grid indices the steps reach and
    ``states`` (len(reached), B, ..., d) the members' states there.  A
    block holds max(1, min(``_GUARD_BLOCK``, ``_STATE_POINTS`` //
    x0s.size)) steps (the last one may hold fewer), so a wide batch
    marches in shorter blocks.  A member that has not started yet holds
    its initial point.  Every block is stepped into one buffer of that
    many rows, so a yielded block is valid until the next block is
    stepped: a caller that keeps states copies them.
    """
    n = times.shape[0] - 1
    size = x0s.shape[0]
    starts = np.broadcast_to(np.asarray(starts, dtype=np.intp), (size,))
    strides = np.broadcast_to(np.asarray(strides, dtype=np.intp), (size,))
    if np.any(starts[1:] < starts[:-1]):  # then the members that have started at a step form a prefix
        raise ValueError("starts must be in stepping order (ascending)")
    strided = bool(np.any(strides != 1))
    if np.ndim(h) or strided:  # one drift step per member, broadcast over the state axes between B and d
        h = np.broadcast_to(h, (size,)).reshape((size,) + (1,) * (x0s.ndim - 1))
    if strided:  # increments are taken from the distinct drivers, member i's from values[owner[i]]
        if values.ndim == 2:
            values, owner = values[None], np.zeros(size, dtype=np.intp)
        owner = np.arange(size) if owner is None else np.asarray(owner)
    elif owner is not None:  # one driver row per member, which the steps slice
        values = values[owner]
    per_member = strided or values.ndim == 3
    # a step is named by the grid index k it leaves
    steps = np.arange(starts[0], n)
    active = np.searchsorted(starts, steps, side="right")
    apply = np.subtract if subtract else np.add
    bound = DEFAULT_BLOWUP_FACTOR * (1.0 + np.linalg.norm(x0s, axis=-1))
    # per-member increments (B, m) broadcast over the state axes between B and d
    contract = "b...dm,bm->b...d" if per_member else "...dm,m->...d"
    shared_db = None if per_member else np.diff(values, axis=0)

    if c.drift_growth == 0.0:
        # |b(x)| <= drift_growth (1 + |x|), so the field declares b = 0
        def increment(t, s, db, h):
            return np.einsum(contract, c.sigma(t, s), db)
    else:
        def increment(t, s, db, h):
            return np.einsum(contract, c.sigma(t, s), db) + c.drift(t, s) * h

    def move(a, phase):
        """Who steps from an index k = phase (mod every stride), with a members started.

        Returns the stepping members (a slice when they are the started
        prefix) and their drift steps; None when no member steps from k
        (strides 2 and 3 at k = 1).
        """
        idx = np.flatnonzero(phase % strides[:a] == 0)
        if idx.size == 0:
            return None
        sel = slice(0, a) if idx.size == a else idx
        return sel, h if np.ndim(h) == 0 else h[sel]

    # who steps from k depends on k only through the started count and k mod every stride
    period = int(np.lcm.reduce(strides))
    keys = active * period + steps % period
    table = {key: move(*divmod(key, period)) for key in set(keys.tolist())}
    moves = [table[key] for key in keys.tolist()]

    def time_of(r, i):  # the time of the knot member i is at, or stepping to, at grid index r
        s = strides[i]
        return times[-(-r // s) * s]

    by_stride = []  # each stride's members and the drivers they run under
    for g in set(strides.tolist()) if strided else ():
        rows = np.flatnonzero(strides == g)
        by_stride.append((rows, g, owner[rows]))

    # every block is stepped into one buffer of states (and one of strided increments): a step reads
    # the row before the one it writes, and a block's first step the last row of the block before
    block_rows = max(1, min(_GUARD_BLOCK, _STATE_POINTS // x0s.size))
    buffer = np.empty((min(block_rows, steps.size),) + x0s.shape)
    if strided:
        spans = np.empty((buffer.shape[0], size) + values.shape[2:])
    prev = x0s
    for lo in range(0, steps.size, block_rows):
        ks = steps[lo : lo + block_rows]
        block = buffer[: ks.size]
        if strided:  # every member's increment over its own stride, from each index of the block
            first = int(ks[0])
            span = spans[: ks.size]
            for rows, g, under in by_stride:
                # only from the indices whose reach stays on the grid; the others are never read
                b = min(first + ks.size, n - g + 1)
                if first < b:
                    reach = values[:, first + g : b + g] - values[:, first:b]
                    span[: b - first, rows] = reach[under].swapaxes(0, 1)
        done = 0
        try:
            # steps past a crossing may overflow; they are checked below and discarded
            with np.errstate(over="ignore", invalid="ignore"):
                for j, (k, step) in enumerate(zip(ks.tolist(), moves[lo : lo + ks.size])):
                    row = block[j]
                    if step is None:  # every member holds its state
                        row[...] = prev
                        prev = row
                        done = j + 1
                        continue
                    sel, hs = step
                    prefix = type(sel) is slice
                    s = prev[sel] if prefix else prev.take(sel, axis=0)
                    if strided:
                        db = span[k - first, sel] if prefix else span[k - first].take(sel, axis=0)
                    else:
                        db = values[sel, k + 1] - values[sel, k] if per_member else shared_db[k]
                    inc = increment(times[k], s, db, hs)
                    if prefix:
                        apply(s, inc, out=row[sel])
                        if sel.stop < size:
                            row[sel.stop :] = prev[sel.stop :]
                    else:  # the members that do not step hold their states
                        row[...] = prev
                        row[sel] = apply(s, inc)
                    prev = row
                    done = j + 1
        except Exception:
            _check_block(block[:done], active[lo:], ks + 1, bound, time_of)
            raise
        _check_block(block, active[lo:], ks + 1, bound, time_of)
        yield ks + 1, block


def solve_forward_batch(
    x0s: np.ndarray,
    r: float,
    c: CoefficientField,
    driver: GridPath,
    cfg: SolverConfig,
) -> np.ndarray:
    """Solve from start time r for a batch of initial points: (batch, steps+1, d)."""
    k0 = driver.index_of(r)
    return _flow_marks(x0s, k0, range(k0, driver.n_steps + 1), c, driver, cfg).swapaxes(0, 1)


def solve_forward(
    x0,
    r: float,
    c: CoefficientField,
    driver: GridPath,
    cfg: SolverConfig,
) -> GridPath:
    """Forward flow X started at x0 at time r, on the grid points >= r."""
    values = solve_forward_batch(x0, r, c, driver, cfg)[0]
    k0 = driver.index_of(r)
    return GridPath(driver.times[k0:], values)


def _flow_marks(x0s, starts, marks, c: CoefficientField, driver: Union[GridPath, list], cfg: SolverConfig,
                backward: bool = False, strides=1) -> np.ndarray:
    """Euler states of members started at grid indices ``starts``, at grid indices ``marks``.

    Returns (len(marks), batch, d).  Entry [j, i] is X_{starts[i], marks[j]}(x0s[i])
    forward, or Y_{marks[j], starts[i]}(x0s[i]) backward, when the mark lies
    on the member's side of its start; a member holds x0s[i] exactly at its
    own start and at every index it has not stepped to.  ``driver`` is one
    path shared by every member or a list of one path per member, all on
    one grid.  A member of stride s (``strides``, an int or one per member)
    solves on that grid decimated by s, with its step: at a mark that s
    divides it reads what a solve on the decimated grid reads there.  The
    members may come in any order: they march in stepping order, and their
    states are put back in the caller's order.  Backward, index k marches
    as n - k, over the reversed times and the reversed, negated driver, and
    each step subtracts: the same increments, bit for bit, at the same t.
    """
    grid = driver[0] if isinstance(driver, list) else driver
    x0s = _prepare(x0s, c, grid, cfg)
    n = grid.n_steps
    strides = np.asarray(strides, dtype=np.intp)
    if np.any(strides < 1) or np.any(n % strides) or np.any(np.asarray(starts) % strides):
        raise ValueError(f"each stride must be positive and divide the grid's {n} steps and its member's start")
    starts = np.broadcast_to(np.asarray(starts, dtype=np.intp), x0s.shape[:1])
    marks = np.asarray(marks, dtype=np.intp)
    if backward:
        starts, marks = n - starts, n - marks
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    if strides.ndim:
        strides = strides[order]
    if isinstance(driver, list):  # each path once: the members of a lockstep pass share their seed's path
        driver = [driver[i] for i in order]
        slots = {}
        owner = np.array([slots.setdefault(id(p), len(slots)) for p in driver])
        values = np.stack([p.values for p in {id(p): p for p in driver}.values()])
        owner = None if len(slots) == len(driver) else owner
    else:
        values, owner = driver.values, None
    times = grid.times
    h = (times[-1] - times[0]) / (n // strides)  # each decimated grid's step
    if backward:
        times, values = times[::-1], np.negative(values[..., ::-1, :])
    slot = np.full(n + 1, marks.size)  # an unmarked index writes to a spare last row
    slot[marks] = np.arange(marks.size)
    out = np.broadcast_to(x0s, (marks.size + 1,) + x0s.shape).copy()
    for reached, states in _march(x0s[order], starts, c, times, values, h, strides, owner, subtract=backward):
        out[slot[reached][:, None], order] = states
    return out[:-1]
