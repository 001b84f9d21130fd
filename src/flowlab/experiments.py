"""Experiment campaigns verifying the flow, inverse, convergence-rate,
continuity, and moment properties, with reproducible persisted results.

Within one experiment every ladder level of a given seed derives from a
single fine-grid driver (decimated or polygonally coarsened), so level
comparisons isolate discretization from sampling noise.  Records carry
one row per (seed, level, probe) cell, errors included; every summary
statistic is recomputable from the records alone.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass, field as dc_field, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import fbm
from .coefficients import CoefficientField, parse_field
from .fraccalc import _lambda_ladder, lambda_alpha
from .paths import GridPath, _w_alpha_lambda_norms, w_alpha_lambda_norm
from .sde import SolverConfig, _flow_marks, _march, _prepare, check_order_window

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "default_config",
    "EXPERIMENT_KINDS",
]

# weighted norms: exp(-lambda * T) must stay representable
_MAX_LAMBDA_EXPONENT = 600.0
# init-continuity: squared pair norms must stay finite, or the pair sampler accepts nothing
_MAX_BALL_RADIUS = 1e150
# sampled marches (moments, sortedness probe): driver values per member block, about 4 MB
_DRIVER_POINTS = 2**19

DEFAULT_TOLERANCES = {
    "min_doubling_ratio": 1.3,      # median discrepancy decay per ladder doubling
    "exact_discrepancy": 1e-12,     # additive coefficients are exact at grid level
    "tol_flow_safety": 10.0,        # calibration margin for the tol_flow schedule
    "slope_band": 0.1,              # |fitted slope - (theta - H)| bound
    "ratio_spread": 10.0,           # max/median bound for continuity ratios
    "lambda_band": 2.0,             # rung medians within [1/band, band] x ladder median
    "stderr_multiple": 3.0,         # moment stability: |delta| < multiple x stderr
}

# the JSON type of each config field, by its annotation; fbm._integral checks the int fields.
# No field takes JSON true or false: they load as bools, which isinstance counts as numbers.
_JSON_TYPES = {"str": (str, "a string"), "Optional[str]": ((str, type(None)), "a string or null"),
               "float": (numbers.Real, "a number"), "Optional[float]": ((numbers.Real, type(None)), "a number or null"),
               "tuple": ((list, tuple), "a list"), "dict": (dict, "an object")}


def _number(name: str, v) -> float:
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{name} must hold numbers, got {v!r}")
    return float(v)


@dataclass
class ExperimentConfig:
    """Field-for-field mirror of the JSON experiment configuration."""

    kind: str
    hurst: float = 0.75
    alpha: float = 0.3
    theta: float = 0.55
    horizon: float = 1.0
    fine_n: int = 2**13
    ladder: tuple = ()
    seeds: tuple = tuple(range(20))
    coefficients: str = "builtin:geometric:0.5"
    initial_points: tuple = ((1.0,),)
    lambda_weight: Optional[float] = None     # None: auto rule from the measured driver strength
    solver_n: int = 2**9                      # grid for single-resolution solves
    pair_count: int = 1000                    # init-continuity pairs (pooled over seeds)
    ball_radius: float = 2.0
    probe_seeds: int = 1000                   # inverse: 1-D sortedness probe sweeps
    probe_n: int = 2**9
    probe_fan: tuple = (-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0)
    sample_counts: tuple = (5000, 10000)      # moments: nested Monte-Carlo sizes
    moment_orders: tuple = (2, 4, 8)
    exp_moment_gamma: float = 1.4
    exp_moment_lambda: float = 1.0
    moment_x0: float = 0.5
    tolerances: dict = dc_field(default_factory=dict)
    outdir: Optional[str] = None

    def __post_init__(self):
        for f in (f for f in fields(self) if f.type in _JSON_TYPES):
            types, label = _JSON_TYPES[f.type]
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"{f.name} must be {label}, got {value!r}")
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; expected one of {EXPERIMENT_KINDS}")
        kind = _KINDS[self.kind]
        for name in ("fine_n", "solver_n", "probe_n", "probe_seeds", "pair_count"):
            setattr(self, name, fbm._integral(name, getattr(self, name)))
        for name in ("ladder", "seeds", "sample_counts", "moment_orders"):
            setattr(self, name, tuple(fbm._integral(name, v) for v in getattr(self, name)))
        points = (p if isinstance(p, (list, tuple, np.ndarray)) else [p] for p in self.initial_points)
        self.initial_points = tuple(tuple(_number("initial_points", c) for c in p) for p in points)
        self.probe_fan = tuple(_number("probe_fan", v) for v in self.probe_fan)
        if not self.seeds:
            raise ValueError("seed list must be nonempty")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")
        if not all(0 <= s < 2**64 for s in self.seeds):  # the samplers' seed range
            raise ValueError(f"seeds must lie in [0, 2**64), got {list(self.seeds)}")
        if self.fine_n < 2:  # the samplers' smallest grid
            raise ValueError(f"fine_n must be at least 2, got {self.fine_n}")
        if kind.ladder and not self.ladder:
            raise ValueError(f"{self.kind} experiments need a nonempty ladder")
        if self.ladder and any(b <= a for a, b in zip(self.ladder, self.ladder[1:])):
            raise ValueError("ladder must be strictly increasing")
        bad = [n for n in self.ladder if n < 1 or self.fine_n % n != 0]
        if bad:
            raise ValueError(f"ladder rungs {bad} do not divide fine_n = {self.fine_n}")
        if self.kind in ("flow", "inverse") and any(n % 4 for n in self.ladder):  # the quarter-time marks
            raise ValueError(f"{self.kind} ladder rungs must be multiples of 4, got {list(self.ladder)}")
        if self.kind == "rate" and min(self.ladder) < 2:  # the slope fit divides by sqrt(log n)
            raise ValueError(f"rate ladder rungs must be at least 2, got {list(self.ladder)}")
        if self.kind == "init-continuity":
            if self.solver_n < 1 or self.fine_n % self.solver_n != 0:
                raise ValueError(f"solver_n = {self.solver_n} does not divide fine_n = {self.fine_n}")
            if self.solver_n < 2:  # lambda_alpha of the driver needs two steps
                raise ValueError(f"solver_n must be at least 2 for init-continuity, got {self.solver_n}")
            if self.pair_count < 1:
                raise ValueError(f"pair_count must be at least 1, got {self.pair_count}")
            if not 0.0 < self.ball_radius <= _MAX_BALL_RADIUS:
                raise ValueError(f"ball_radius must be positive and at most {_MAX_BALL_RADIUS:g}, "
                                 f"got {self.ball_radius}")
        if self.lambda_weight is not None and not 0.0 <= self.lambda_weight < math.inf:
            raise ValueError(f"lambda_weight must be finite and nonnegative, got {self.lambda_weight}")
        if not (0.0 < self.hurst < 1.0):
            raise ValueError(f"Hurst parameter must lie in (0, 1), got {self.hurst}")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        unknown = sorted(set(self.tolerances) - set(DEFAULT_TOLERANCES))
        if unknown:
            raise ValueError(f"unknown tolerances {unknown}; expected names from {sorted(DEFAULT_TOLERANCES)}")
        nan = sorted(name for name, v in self.tolerances.items() if math.isnan(_number("tolerances", v)))
        if nan:
            raise ValueError(f"tolerances {nan} must not be NaN")
        if kind.points and not self.initial_points:
            raise ValueError(f"{self.kind} experiments need nonempty initial_points")
        if kind.points and not np.isfinite([v for p in self.initial_points for v in p]).all():
            raise ValueError(f"initial_points must be finite, got {list(self.initial_points)}")
        if self.kind == "moments":
            if len(set(self.sample_counts)) < 2 or not self.moment_orders:
                raise ValueError("moments experiments need two distinct sample_counts and at least one moment order")
            if min(self.sample_counts) < 2:
                raise ValueError(f"moments sample_counts must all be at least 2, got {list(self.sample_counts)}")
            if len(self.seeds) > 1:
                raise ValueError(f"moments experiments sample one batch from one seed, got seeds {list(self.seeds)}")
            if self.solver_n < 2:  # the sampler's smallest grid
                raise ValueError(f"solver_n must be at least 2 for moments, got {self.solver_n}")
            if min(self.moment_orders) < 1:  # order 0 has zero stderr, so its stability check cannot pass
                raise ValueError(f"moment_orders must all be at least 1, got {list(self.moment_orders)}")
            if not 0.0 < self.exp_moment_gamma < math.inf:
                raise ValueError(f"exp_moment_gamma must be positive and finite, got {self.exp_moment_gamma}")
            if not (math.isfinite(self.moment_x0) and math.isfinite(self.exp_moment_lambda)):
                raise ValueError(f"moment_x0 and exp_moment_lambda must be finite, "
                                 f"got {self.moment_x0} and {self.exp_moment_lambda}")
        if self.kind != "rate":
            # solver-backed kinds must pass the admissible-order gate
            c = self.field()
            probe_n = self.ladder[0] if self.ladder else self.solver_n
            check_order_window(SolverConfig(self.alpha, probe_n, self.hurst), c)
            # a rung at fine_n is its own reference: the fine-grid Euler flow, or for driver-continuity g itself
            self_reference = self.kind == "driver-continuity" or (self.kind == "flow" and c.flow is None)
            if self_reference and self.fine_n in self.ladder:
                raise ValueError(f"{self.kind} ladder rung {self.fine_n} is its own reference; "
                                 f"rungs must lie below fine_n = {self.fine_n}")
            if kind.points and any(len(p) != c.dim for p in self.initial_points):
                raise ValueError(f"initial points {list(self.initial_points)} must have the field's dimension {c.dim}")
            if self.kind == "inverse" and c.dim == 1:  # the sortedness probe runs on 1-D fields only
                if self.probe_seeds < 1 or self.probe_n < 2:
                    raise ValueError(f"the probe needs probe_seeds >= 1 and probe_n >= 2, "
                                     f"got {self.probe_seeds} and {self.probe_n}")
                fan = self.probe_fan
                if len(set(fan)) < max(2, len(fan)) or not np.isfinite(fan).all():
                    raise ValueError(f"probe_fan must hold at least two distinct finite points, got {list(fan)}")
        elif not (1.0 - self.hurst < self.alpha < 0.5):
            raise ValueError(f"alpha must lie in ({1.0 - self.hurst}, 1/2) for rate experiments")
        elif not (0.0 < self.theta < self.hurst):
            raise ValueError(f"theta must lie in (0, hurst = {self.hurst}) for rate experiments, got {self.theta}")

    def field(self) -> CoefficientField:
        return parse_field(self.coefficients)

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"config is not an object: {doc!r}")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)


def default_config(kind: str, **overrides) -> ExperimentConfig:
    """Spec-scale defaults per experiment kind."""
    defaults = _KINDS[kind].defaults if kind in _KINDS else {}
    return ExperimentConfig(kind, **{**defaults, **overrides})


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list
    summary: dict
    checks: dict
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    started = time.perf_counter()
    records = _KINDS[config.kind].run(config)
    records.sort(key=_record_key)
    summary = summarize(config, records)
    checks = evaluate_checks(config, summary)
    return ExperimentResult(config, records, summary, checks, wall_time=time.perf_counter() - started)


def summarize(config: ExperimentConfig, records: list) -> dict:
    return _KINDS[config.kind].summarize(config, records)


def evaluate_checks(config: ExperimentConfig, summary: dict) -> dict:
    return _KINDS[config.kind].check(config, summary)


def _record_key(rec: dict) -> tuple:
    return tuple((k, str(v)) for k, v in sorted(rec.items()))


def _quantile(values, q: Optional[float] = None) -> float:
    """``np.median(values)``, or ``np.percentile(values, q)`` when q is given, bit for bit.

    NaN for no values (every cell behind it failed); any NaN value gives
    a NaN.  numpy's own functions import numpy.ma on their first call in a
    process (the median's NaN check, the percentile's ``np.unique``).  This
    one partitions at the indices they partition at, so even the sign of a
    zero agrees, and repeats their arithmetic: the mean of the middle one
    or two values, or the linear interpolation between the two neighbours
    of the position (n - 1) q / 100, taken from the upper one when the
    weight is at least 1/2.
    """
    a = np.asarray(values, dtype=float).ravel()
    n = a.size
    if n == 0:
        return np.nan
    if q is None:
        m = n // 2
        part = np.partition(a, [m - 1, m, -1] if n % 2 == 0 else [m, -1])
        mid = part[m - 1 : m + 1] if n % 2 == 0 else part[m : m + 1]
        return float(part[-1] if np.isnan(part[-1]) else np.mean(mid))
    pos = (n - 1) * (q / 100)
    lo = math.floor(pos) if pos < n - 1 else -1
    hi = lo + 1 if lo >= 0 else -1
    part = np.partition(a, sorted({0, -1, lo, hi}))
    if np.isnan(part[-1]):
        return float(part[-1])
    weight, below, above = pos - lo, part[lo], part[hi]
    span = above - below
    return float(above - span * (1 - weight) if weight >= 0.5 else below + span * weight)


def _status(error: Optional[Exception]) -> str:
    return "ok" if error is None else f"error: {error}"


def _error_count(records: list) -> int:
    return sum(1 for r in records if str(r["status"]).startswith("error"))


def _decreasing(values) -> bool:
    """Strictly decreasing over at least two rungs; NaN and single rungs cannot pass."""
    return len(values) > 1 and all(a > b for a, b in zip(values, values[1:]))


def _fine_driver(config: ExperimentConfig, seed: int, components: int = 1) -> GridPath:
    spec = fbm.FbmSpec(
        hurst=config.hurst,
        components=components,
        horizon=config.horizon,
        grid_size=config.fine_n,
        seed=seed,
    )
    return fbm.sample_circulant(spec).path


def _sampled_march(config: ExperimentConfig, c: CoefficientField, x0s: np.ndarray, n: int, seed: int):
    """The Euler states of ``_march`` from grid index 0, as ``(members, states)`` block by block.

    Member x0s[i] runs under path i of one circulant batch of B = len(x0s)
    fBm paths on n steps, drawn from ``seed``.  The batch is drawn and
    marched in member blocks of ``_DRIVER_POINTS`` driver values (at least
    one path), so one block of drivers is alive at a time; ``members`` is
    the slice of x0s that ``states`` (steps, b, ..., d) belongs to.  Each
    member steps on its own, so its states do not depend on the blocks.
    """
    spec = fbm.FbmSpec(config.hurst, c.noise_dim, config.horizon, n, seed=seed)
    h = config.horizon / n
    times = np.arange(n + 1) * h
    rows = _DRIVER_POINTS // ((n + 1) * c.noise_dim)
    try:
        for start, drivers in fbm._circulant_batches(spec, x0s.shape[0], rows):
            members = slice(start, start + drivers.shape[0])
            for _, states in _march(x0s[members], 0, c, times, drivers, h):
                yield members, states
    except Exception:
        # one batch stops at the first crossing of any member and a block sees only its own, so the
        # whole batch is marched once more in one piece, and its error is the one raised
        drivers = fbm.sample_paths(spec, x0s.shape[0], method="circulant")
        for _ in _march(x0s, 0, c, times, drivers, h):
            pass
        raise


def _auto_lambda(config: ExperimentConfig, driver: GridPath) -> float:
    """Discount rate making lambda^{2a-1} * Lambda_a(driver) = 1/4, capped against underflow."""
    if config.lambda_weight is not None:
        return float(config.lambda_weight)
    strength = max(lambda_alpha(driver, config.alpha), 1e-12)
    lam = (4.0 * strength) ** (1.0 / (1.0 - 2.0 * config.alpha))
    return min(lam, _MAX_LAMBDA_EXPONENT / config.horizon)


# ---------------------------------------------------------------------------
# flow and inverse experiments
# ---------------------------------------------------------------------------


def _time_triples(horizon: float) -> list:
    """All ordered triples r <= tau <= t over the five quantile times."""
    marks = [horizon * q for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
    return [(r, tau, t) for r in marks for tau in marks if tau >= r for t in marks if t >= tau]


def _time_pairs(horizon: float) -> list:
    marks = [horizon * q for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
    return [(r, t) for r in marks for t in marks if t >= r]


def _replayed(run, count: int) -> tuple:
    """Run ``run(sel, out)`` once over all ``count`` members; if it raises, once per member.

    ``run`` fills the dict ``out`` for the member positions in ``sel``.  In
    a batch, one member's failure stops every member, and the blow-up
    guard names the worst of them all; so a failed batch is replayed
    member by member, and each member keeps exactly the entries and the
    exception it gets on its own.
    Returns ``(out, errors)``: errors[k] is the exception member k raised
    alone, or None.
    """
    out = {}
    try:
        run(range(count), out)
        return out, [None] * count
    except Exception:  # every member is replayed below
        out = {}
    errors = []
    for k in range(count):
        try:
            run([k], out)
            errors.append(None)
        except Exception as exc:
            errors.append(exc)
    return out, errors


def _stack_pass(config: ExperimentConfig, inits, starts, marks, c: CoefficientField, drivers: list,
                backward: bool = False, strides=1) -> np.ndarray:
    """One Euler pass over every block, driver and point, with the states at grid indices ``marks``.

    ``inits`` broadcasts to (len(starts), len(drivers), npts, d): the
    members of block j start at grid index starts[j] (end there when
    ``backward``), member [j, q, i] under drivers[q] with stride
    strides[q] (an int or one per driver).  Returns the states
    (len(starts), len(marks), len(drivers), npts, d): entry [j, k, q, i] is
    member [j, q, i] at grid index marks[k].
    """
    npts, d = np.shape(inits)[-2:]
    inits = np.broadcast_to(inits, (len(starts), len(drivers), npts, d))
    members = [p for p in drivers for _ in range(npts)] * len(starts)
    if np.ndim(strides):
        strides = np.tile(np.repeat(strides, npts), len(starts))
    cfg = SolverConfig(config.alpha, drivers[0].n_steps, config.hurst)
    out = _flow_marks(inits.reshape(-1, d), np.repeat(starts, len(drivers) * npts), marks, c, members, cfg,
                      backward=backward, strides=strides)
    return out.reshape(len(marks), len(starts), len(drivers), npts, d).swapaxes(0, 1)


def _mark_maps(config: ExperimentConfig, x0s: np.ndarray, marks: list, c: CoefficientField,
               drivers: list, strides=1) -> np.ndarray:
    """X_{r_a t_b}(x_i) and Y_{r_a t_b}(x_i) under drivers[q], at [0, a, b, q, i] and [1, a, b, q, i], for a <= b.

    One forward pass starts a member at every mark; one backward pass ends
    a member at every mark, t = 0 included, where it never steps.  The
    members under drivers[q] have stride strides[q].
    """
    idx = [drivers[0].index_of(m) for m in marks]
    fwd = _stack_pass(config, x0s, idx, idx, c, drivers, strides=strides)
    bwd = _stack_pass(config, x0s, idx, idx, c, drivers, backward=True, strides=strides)
    return np.stack([fwd, bwd.swapaxes(0, 1)])


def _cell_drivers(config: ExperimentConfig, fines: list, cells: list) -> tuple:
    """The drivers and strides of one lockstep pass over ``cells``.

    The pass marches the grid of the least common multiple of the cells'
    rungs, which divides fine_n as every rung does (the top rung, on a
    ladder of powers of 2).  Cell (n, q) runs under seed q's driver on that
    grid with stride lcm / n, so it steps on rung n's own grid points; a
    single cell marches its own rung's grid.
    """
    top = math.lcm(*(n for n, _ in cells))
    grids = {q: fines[q].decimate(config.fine_n // top) for _, q in cells}
    return [grids[q] for _, q in cells], [top // n for n, _ in cells]


def _run_flow(config: ExperimentConfig) -> list:
    """Composition discrepancy of the discrete flow against the continuous one.

    A one-step scheme composes exactly: solving r -> tau and then tau -> t
    from the reached state performs bit-for-bit the same operations as
    solving r -> t in one leg (exercised directly in the unit tests).  The
    discrepancy |X^n_{tau t}(X^n_{r tau}(x)) - X_{rt}(x)| therefore equals
    |X^n_{rt}(x) - X_{rt}(x)|, which is what each triple records.  One
    ``_mark_maps`` marches every (rung, seed) cell in lockstep, each on its
    own rung's grid points (``_cell_drivers``); a failed pass is replayed
    cell by cell.  The reference is the field's closed-form flow where it
    declares one, at -(B_t - B_r) for Y; otherwise it is ``_mark_maps`` at
    fine_n.  A seed whose reference pass raises on its own records that
    error at every rung where its own cell does not fail first.
    """
    c = config.field()
    triples = _time_triples(config.horizon)
    marks = sorted({m for tri in triples for m in tri})
    x0s = np.asarray(config.initial_points, dtype=float)
    npts = x0s.shape[0]
    fines = [_fine_driver(config, seed, components=c.noise_dim) for seed in config.seeds]

    def reference(sel, out):  # out[q]: the (2, a, b, i, d) reference maps of seed q
        if c.flow is None:
            out.update(zip(sel, np.moveaxis(_mark_maps(config, x0s, marks, c, [fines[q] for q in sel]), 3, 0)))
            return
        for q in sel:
            at = [fines[q].values[fines[q].index_of(m)] for m in marks]
            out[q] = np.array([[[[c.flow(x, sign * (bt - br)) for x in x0s] for bt in at] for br in at]
                               for sign in (1.0, -1.0)])

    refs, ref_errors = _replayed(reference, len(fines))
    cells = [(n, q) for n in config.ladder for q in range(len(fines))]

    def run(sel, out):  # out[k, r, t, i]: (disc_forward, disc_backward) of cell k
        maps = _mark_maps(config, x0s, marks, c, *_cell_drivers(config, fines, [cells[k] for k in sel]))
        for p, k in enumerate(sel):
            q = cells[k][1]
            if ref_errors[q] is not None:
                raise ref_errors[q]
            gap = maps[:, :, :, p] - refs[q]
            for a, r in enumerate(marks):
                for b in range(a, len(marks)):
                    for i in range(npts):
                        out[k, r, marks[b], i] = (float(np.linalg.norm(gap[0, a, b, i])),
                                                  float(np.linalg.norm(gap[1, a, b, i])))

    disc, errors = _replayed(run, len(cells))
    records = []
    for k, (n, q) in enumerate(cells):
        for i in range(npts):
            for r, tau, t in triples:
                fwd, bwd = disc.get((k, r, t, i), (np.nan, np.nan))
                records.append({"seed": config.seeds[q], "n": n, "r": r, "tau": tau, "t": t, "point": i,
                                "status": _status(errors[k]), "disc_forward": fwd, "disc_backward": bwd})
    return records


def _run_inverse(config: ExperimentConfig) -> list:
    """X_rt(Y_rt(x)) and Y_rt(X_rt(x)) against x for every ordered mark pair.

    Three passes march every (rung, seed) cell in lockstep, each on its own
    rung's grid points (``_cell_drivers``); a failed pass is replayed cell
    by cell.
    """
    c = config.field()
    pairs = _time_pairs(config.horizon)
    marks = sorted({m for pair in pairs for m in pair})
    x0s = np.asarray(config.initial_points, dtype=float)
    npts = x0s.shape[0]
    later = [(a, b) for a in range(len(marks)) for b in range(a + 1, len(marks))]
    fines = [_fine_driver(config, seed, components=c.noise_dim) for seed in config.seeds]
    cells = [(n, q) for n in config.ladder for q in range(len(fines))]

    def run(sel, out):  # out[k, r, t, i]: (disc_xy, disc_yx) of cell k
        stack, strides = _cell_drivers(config, fines, [cells[k] for k in sel])
        idx = [stack[0].index_of(m) for m in marks]
        # (1) Y_{r_a t_b}(x) = ys[b - 1, a]: one backward pass from every t > 0
        ys = _stack_pass(config, x0s, idx[1:], idx, c, stack, backward=True, strides=strides)
        # (2) from every r: X_rt(Y_rt(x)) for each later t, then X_{r.}(x) itself
        inits = [ys[b - 1, a] for a, b in later] + [np.broadcast_to(x0s, ys.shape[2:])] * len(marks)
        xs = _stack_pass(config, np.stack(inits), [idx[a] for a, _ in later] + idx, idx, c, stack, strides=strides)
        # (3) Y_rt(X_rt(x)) for every pair r < t
        inits = [xs[len(later) + a, b] for a, b in later]
        yx = _stack_pass(config, np.stack(inits), [idx[b] for _, b in later], idx, c, stack, backward=True,
                         strides=strides)
        for p, k in enumerate(sel):
            for j, (a, b) in enumerate(later):
                for i in range(npts):
                    out[k, marks[a], marks[b], i] = (float(np.linalg.norm(xs[j, b, p, i] - x0s[i])),
                                                      float(np.linalg.norm(yx[j, a, p, i] - x0s[i])))
            out.update({(k, r, r, i): (0.0, 0.0) for r in marks for i in range(npts)})

    disc, errors = _replayed(run, len(cells))
    records = []
    for k, (n, q) in enumerate(cells):
        for i in range(npts):
            for r, t in pairs:
                xy, yx = disc.get((k, r, t, i), (np.nan, np.nan))
                records.append({"seed": config.seeds[q], "n": n, "r": r, "t": t, "point": i,
                                "status": _status(errors[k]), "disc_xy": xy, "disc_yx": yx})
    records.extend(_run_sortedness_probe(config, c))
    return records


def _run_sortedness_probe(config: ExperimentConfig, c: CoefficientField) -> list:
    """1-D monotonicity probe: a sorted fan of initial points must stay sorted.

    Each seed keeps the smallest gap between neighbouring fan points over
    the grid, block by block through ``_fan_min_gap``.
    """
    if c.dim != 1:
        return []
    fan = np.sort(np.asarray(config.probe_fan, dtype=float))[:, None]
    rec = {"seed": -1, "n": config.probe_n, "r": 0.0, "t": config.horizon, "point": -1,
           "status": "probe", "disc_xy": np.nan, "disc_yx": np.nan}
    try:
        x0s = np.broadcast_to(fan, (config.probe_seeds,) + fan.shape)
        min_gap = np.full(config.probe_seeds, np.inf)
        for members, states in _sampled_march(config, c, x0s, config.probe_n, seed=0):
            min_gap[members] = np.minimum(min_gap[members], _fan_min_gap(states[..., 0]))
    except Exception as exc:  # a failed probe is one error cell; the pair cells stand
        rec["status"] = _status(exc)
        return [rec]
    rec.update(disc_xy=float(np.count_nonzero(min_gap <= 0.0)), disc_yx=float(min_gap.min()))
    return [rec]


def _fan_min_gap(states: np.ndarray) -> np.ndarray:
    """Smallest gap between neighbouring fan points in a (steps, B, F) block, per seed: (B,).

    One gap at a time is reduced over the steps, elementwise across rows,
    so a (steps, B) temporary is the largest held.  ``min`` is exact, so
    this is ``np.diff(states, axis=-1).min(axis=(0, 2))`` in value; of a
    tie between 0.0 and -0.0, numpy may pick either.
    """
    least = (states[..., 1] - states[..., 0]).min(axis=0)
    for f in range(2, states.shape[-1]):
        np.minimum(least, (states[..., f] - states[..., f - 1]).min(axis=0), out=least)
    return least


def _summarize_flow(config: ExperimentConfig, records: list) -> dict:
    strict = lambda rec: rec["r"] < rec["tau"] < rec["t"]
    return _flow_style_summary(
        config, records, strict,
        value_keys=("disc_forward", "disc_backward"),
        group_cols=("r", "tau", "t", "point"),
    )


def _summarize_inverse(config: ExperimentConfig, records: list) -> dict:
    core = [r for r in records if r["point"] != -1]
    strict = lambda rec: rec["r"] < rec["t"]
    summary = _flow_style_summary(
        config, core, strict,
        value_keys=("disc_xy", "disc_yx"),
        group_cols=("r", "t", "point"),
    )
    probes = [r for r in records if r["point"] == -1]  # a failed probe reads NaN, so its check is false
    summary["probe_inversions"] = float(sum(r["disc_xy"] for r in probes)) if probes else None
    summary["probe_min_gap"] = float(min(r["disc_yx"] for r in probes)) if probes else None
    summary["error_records"] += _error_count(probes)
    return summary


def _ok_rows(records: list, rung: str, keep=None) -> tuple:
    """The sorted rungs of ``records`` and, per rung, its ok records (those ``keep`` accepts) in record order."""
    ladder = sorted({int(r[rung]) for r in records})
    rows: dict = {n: [] for n in ladder}
    for r in records:
        if r["status"] == "ok" and (keep is None or keep(r)):
            rows[int(r[rung])].append(r)
    return ladder, rows


def _flow_style_summary(config, records, strict, value_keys, group_cols) -> dict:
    ladder, rows = _ok_rows(records, "n", strict)
    pooled = [_quantile([float(r[k]) for r in rows[n] for k in value_keys]) for n in ladder]
    # tol_flow(n) = A n^{-(2H-1)/2}, A anchored at the coarsest rung with a safety factor
    decay = -(2.0 * config.hurst - 1.0) / 2.0
    amp = pooled[0] / ladder[0] ** decay * config.tol("tol_flow_safety") if pooled[0] > 0 else 0.0
    # every probe cell must sit below the schedule at the top rung (median over seeds)
    groups: dict = {}
    for r in rows[ladder[-1]]:
        groups.setdefault(tuple(r[c] for c in group_cols), []).append(max(float(r[k]) for k in value_keys))
    return {
        "ladder": ladder,
        "medians": {k: [_quantile([float(r[k]) for r in rows[n]]) for n in ladder] for k in value_keys},
        "median_pooled": pooled,
        # a zero rung after a nonzero one is an infinite decay; 0/0 shows none
        "doubling_ratios": [a / b if b != 0 else np.inf if a != 0 else np.nan for a, b in zip(pooled, pooled[1:])],
        "tol_flow_amplitude": amp,
        "tol_flow_top": amp * ladder[-1] ** decay,
        "top_rung_worst_cell_median": max((_quantile(v) for v in groups.values()), default=np.nan),
        "max_discrepancy": max((max(float(r[k]) for k in value_keys) for r in records if r["status"] == "ok"),
                               default=np.nan),
        "error_records": _error_count(records),
        "exact_field": config.field().grid_exact,
    }


def _checks_flow_style(config: ExperimentConfig, summary: dict) -> dict:
    checks = {"no_error_records": summary["error_records"] == 0}
    if summary["exact_field"]:
        checks["exact_discrepancy"] = summary["max_discrepancy"] <= config.tol("exact_discrepancy")
        return checks
    min_ratio = config.tol("min_doubling_ratio")
    ratios = summary["doubling_ratios"]
    checks["median_decay_ratio"] = bool(ratios) and all(r >= min_ratio for r in ratios)
    worst, tol = summary["top_rung_worst_cell_median"], summary["tol_flow_top"]
    # a zero tolerance comes from a coarsest rung with no discrepancy, which on a field that is not
    # grid-exact says nothing of its accuracy
    checks["top_rung_below_tol"] = math.isfinite(worst) and 0.0 < tol < math.inf and worst <= tol
    return checks


def _checks_inverse(config, summary):
    checks = _checks_flow_style(config, summary)
    if summary.get("probe_inversions") is not None:
        checks["probe_no_inversions"] = summary["probe_inversions"] == 0
    return checks


# ---------------------------------------------------------------------------
# rate experiment (polygonal convergence and driver-strength decay)
# ---------------------------------------------------------------------------


def _run_rate(config: ExperimentConfig) -> list:
    """Per seed, one decimated endpoint pass over B and every polygonal approximation B^n.

    Lambda(B^n - B) is read from the difference of the rows of B^n and B.
    If the pass raises, each rung is replayed in an endpoint pass of its
    own, which gives it the values the full pass would have, and keeps the
    status it gets there.
    """
    records = []
    for seed in config.seeds:
        fpath = fbm.sample_circulant(fbm.FbmSpec(config.hurst, 1, config.horizon, config.fine_n, seed))
        fine = fpath.path
        modulus = fbm.modulus_constant(fpath) if config.horizon <= 1.0 else np.nan

        def run(sel, out):  # out[k]: the values of rung k
            approxes = [fbm.polygonal(fine, config.ladder[k]) for k in sel]
            for k, approx in zip(sel, approxes):
                out[k] = {"holder_error": fbm.holder_error(fine, approx, config.theta)}
            for k, (coarse, diff) in zip(sel, _lambda_ladder(fine, approxes, config.alpha)):
                out[k].update(lambda_coarse=coarse, lambda_diff=diff)

        cells, errors = _replayed(run, len(config.ladder))
        for k, coarse_n in enumerate(config.ladder):
            rec = {"seed": seed, "coarse_n": coarse_n, "status": _status(errors[k]),
                   "holder_error": np.nan, "lambda_coarse": np.nan,
                   "lambda_diff": np.nan, "modulus_g": float(modulus)}
            rec.update(cells.get(k, {}))
            records.append(rec)
    return records


def _summarize_rate(config: ExperimentConfig, records: list) -> dict:
    ladder, rows = _ok_rows(records, "coarse_n")
    col = lambda key, n: [float(r[key]) for r in rows[n]]
    med = {key: [_quantile(col(key, n)) for n in ladder] for key in ("holder_error", "lambda_coarse", "lambda_diff")}
    moduli = [float(r["modulus_g"]) for r in records if r["status"] == "ok"]
    # the predicted rate carries a sqrt(log n) factor; divide it out before fitting
    logs = np.log(ladder)
    reduced = np.log(np.asarray(med["holder_error"]) / np.sqrt(np.log(ladder)))
    fittable = len(ladder) > 1 and np.isfinite(reduced).all()
    slope = float(np.polyfit(logs, reduced, 1)[0]) if fittable else np.nan
    return {
        "ladder": ladder,
        "median_error": med["holder_error"],
        "q25": [_quantile(col("holder_error", n), 25) for n in ladder],
        "q75": [_quantile(col("holder_error", n), 75) for n in ladder],
        "median_lambda_coarse": med["lambda_coarse"],
        "median_lambda_diff": med["lambda_diff"],
        "lambda_coarse_ladder_median": _quantile([v for n in ladder for v in col("lambda_coarse", n)]),
        "fitted_slope": slope,
        "target_slope": config.theta - config.hurst,
        "modulus_q99": _quantile(moduli, 99),
        "modulus_median": _quantile(moduli),
        "error_records": _error_count(records),
    }


def _checks_rate(config: ExperimentConfig, summary: dict) -> dict:
    med = summary["median_error"]
    lam_diff = summary["median_lambda_diff"]
    lam_coarse = summary["median_lambda_coarse"]
    band = config.tol("lambda_band")
    ladder_median = summary["lambda_coarse_ladder_median"]
    return {
        "no_error_records": summary["error_records"] == 0,
        "slope_within_band": abs(summary["fitted_slope"] - summary["target_slope"]) <= config.tol("slope_band"),
        "median_error_decreasing": _decreasing(med),
        "lambda_diff_decreasing": _decreasing(lam_diff),
        "lambda_coarse_bounded": all(
            ladder_median / band <= v <= ladder_median * band for v in lam_coarse
        ),
    }


# ---------------------------------------------------------------------------
# continuity experiments
# ---------------------------------------------------------------------------


def _run_init_continuity(config: ExperimentConfig) -> list:
    c = config.field()
    n = config.solver_n
    cfg = SolverConfig(config.alpha, n, config.hurst)
    base, extra = divmod(config.pair_count, len(config.seeds))
    records = []
    for q, seed in enumerate(config.seeds):
        per_seed = base + (q < extra)  # the first pair_count % len(seeds) seeds take one pair more
        if per_seed == 0:
            continue
        driver = _fine_driver(config, seed, components=c.noise_dim).decimate(config.fine_n // n)
        lam = _auto_lambda(config, driver)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 7001)))
        chunks = []
        collected = 0
        while collected < per_seed:  # rejection-sample pairs inside the ball
            raw = rng.uniform(-config.ball_radius, config.ball_radius, size=(4 * per_seed, 2, c.dim))
            inside = np.linalg.norm(raw, axis=-1).max(axis=-1) <= config.ball_radius
            chunks.append(raw[inside])
            collected += chunks[-1].shape[0]
        pairs = np.concatenate(chunks, axis=0)[:per_seed]
        try:
            diffs, failure = _pair_differences(pairs.reshape(-1, c.dim), c, driver, cfg).swapaxes(0, 1), None
        except Exception as exc:  # every non-degenerate pair of the seed records the failure
            failure = _status(exc)
        if failure is None:
            def run(sel, out):  # sel is contiguous: every pair, or one
                out.update(zip(sel, _w_alpha_lambda_norms(diffs[sel[0] : sel[-1] + 1], driver.times,
                                                          config.alpha, lam)))

            norms, errors = _replayed(run, pairs.shape[0])
        for i in range(pairs.shape[0]):
            dist = float(np.linalg.norm(pairs[i, 0] - pairs[i, 1]))
            rec = {"seed": seed, "pair": i, "dist": dist, "lambda_weight": lam,
                   "ratio": np.nan, "status": "ok"}
            if dist < 1e-12 or failure:
                rec["status"] = "degenerate" if dist < 1e-12 else failure
            elif errors[i] is not None:
                rec["status"] = _status(errors[i])
            else:
                rec["ratio"] = float(norms[i]) / dist
            records.append(rec)
    return records


def _pair_differences(flat: np.ndarray, c: CoefficientField, driver: GridPath, cfg: SolverConfig) -> np.ndarray:
    """X_{0,t}(flat[2i]) - X_{0,t}(flat[2i+1]) of the Euler solves under ``driver``: (n+1, P, d).

    The 2P members march from t = 0 in one batch, as ``solve_forward_batch``
    marches them, and only each block's pair differences are kept, so no
    (2P, n+1, d) array of solutions is held.  The states are the full
    solve's, so this is ``solve_forward_batch(flat)[0::2] -
    solve_forward_batch(flat)[1::2]`` bit for bit, time first, and a
    crossing of the blow-up guard raises the same error.
    """
    x0s = _prepare(flat, c, driver, cfg)
    diffs = np.empty((driver.n_steps + 1, x0s.shape[0] // 2, c.dim))
    np.subtract(x0s[0::2], x0s[1::2], out=diffs[0])
    for reached, states in _march(x0s, 0, c, driver.times, driver.values, driver.step):
        np.subtract(states[:, 0::2], states[:, 1::2], out=diffs[reached[0] : reached[-1] + 1])
    return diffs


def _summarize_init(config: ExperimentConfig, records: list) -> dict:
    ratios = np.array([float(r["ratio"]) for r in records if r["status"] == "ok"])
    return {
        "pairs": len(ratios),
        # the discounted sup sits at t = 0, where the gap is x - y: such a ratio reads the solution nowhere else
        "sup_at_origin_pairs": int(np.sum(np.abs(ratios - 1.0) <= 1e-12)),
        **_ratio_stats(ratios),
        "max_deviation_from_one": float(np.max(np.abs(ratios - 1.0))) if len(ratios) else np.nan,
        "exact_field": config.field().grid_exact,
        "error_records": _error_count(records),
    }


def _ratio_stats(ratios) -> dict:
    """Median, max and spread (max / median) of the nonnegative ok ratios; all NaN for none, so a check on them is false."""
    if not len(ratios):
        return {"ratio_median": np.nan, "ratio_max": np.nan, "ratio_spread": np.nan}
    med, top = _quantile(ratios), float(np.max(ratios))
    return {"ratio_median": med, "ratio_max": top, "ratio_spread": top / med if med > 0 else np.inf}


def _checks_init(config: ExperimentConfig, summary: dict) -> dict:
    checks = {
        "no_error_records": summary["error_records"] == 0,
        "ratio_bounded": summary["ratio_spread"] <= config.tol("ratio_spread"),
    }
    if summary["exact_field"]:
        checks["additive_ratio_exactly_one"] = summary["max_deviation_from_one"] <= 1e-12
    return checks


def _run_driver_continuity(config: ExperimentConfig) -> list:
    """Solution gap against driver gap, for each seed's g and its polygonal h at every rung.

    One pass at fine_n solves every seed's g and each of its h.  A solve
    that fails on its own marks its cells: a failed g every rung of its
    seed, a failed h its own rung.
    """
    c = config.field()
    x = np.asarray(config.initial_points[:1], dtype=float)
    gs = [_fine_driver(config, seed, components=c.noise_dim) for seed in config.seeds]
    # member q * width is seed q's g, member q * width + l its polygonal h at rung l
    width = 1 + len(config.ladder)
    drivers = [path for g in gs for path in [g] + [fbm.polygonal(g, n) for n in config.ladder]]

    def run(sel, out):
        states = _stack_pass(config, x, [0], range(config.fine_n + 1), c, [drivers[k] for k in sel])
        out.update(zip(sel, np.moveaxis(states[0, :, :, 0], 1, 0)))

    sols, errors = _replayed(run, len(drivers))
    records = []
    for q, (seed, g) in enumerate(zip(config.seeds, gs)):
        lam = _auto_lambda(config, g)
        for l, coarse_n in enumerate(config.ladder, start=1):
            rec = {"seed": seed, "coarse_n": coarse_n, "lambda_weight": lam,
                   "sol_gap": np.nan, "lambda_gap": np.nan, "status": "ok"}
            error = errors[q * width] or errors[q * width + l]
            if error is not None:
                rec["status"] = _status(error)
                records.append(rec)
                continue
            try:
                diff = GridPath(g.times, sols[q * width] - sols[q * width + l])
                rec["sol_gap"] = w_alpha_lambda_norm(diff, config.alpha, lam)
                rec["lambda_gap"] = lambda_alpha(g - drivers[q * width + l], config.alpha)
            except Exception as exc:
                rec["status"] = _status(exc)
            records.append(rec)
    return records


def _summarize_driver(config: ExperimentConfig, records: list) -> dict:
    ladder, rows = _ok_rows(records, "coarse_n")
    # in record order, not rung order: the correlation's sums depend on it
    gaps = [(float(r["sol_gap"]), float(r["lambda_gap"])) for r in records if r["status"] == "ok"]
    ratios = [sol / lam for sol, lam in gaps if lam > 0]
    log_pairs = [(math.log(lam), math.log(sol)) for sol, lam in gaps if lam > 0 and sol > 0]
    med_gap = [_quantile([float(r["sol_gap"]) for r in rows[n]]) for n in ladder]
    med_lam = [_quantile([float(r["lambda_gap"]) for r in rows[n]]) for n in ladder]
    corr = float(np.corrcoef(*zip(*log_pairs))[0, 1]) if len(log_pairs) > 2 else np.nan
    return {
        "ladder": ladder,
        "median_sol_gap": med_gap,
        "median_lambda_gap": med_lam,
        **_ratio_stats(ratios),
        "log_correlation": corr,
        "error_records": _error_count(records),
    }


def _checks_driver(config: ExperimentConfig, summary: dict) -> dict:
    gap, lam = summary["median_sol_gap"], summary["median_lambda_gap"]
    return {
        "no_error_records": summary["error_records"] == 0,
        "ratio_bounded": summary["ratio_spread"] <= config.tol("ratio_spread"),
        "sol_gap_decreasing": _decreasing(gap),
        "lambda_gap_decreasing": _decreasing(lam),
        "positive_correlation": summary["log_correlation"] > 0.0,
    }


# ---------------------------------------------------------------------------
# moments experiment
# ---------------------------------------------------------------------------


def _run_moments(config: ExperimentConfig) -> list:
    """One record per path: the sup over the grid of |X_t| from ``moment_x0``.

    Each path keeps its largest squared norm, block by block through
    ``_sup_sq``, and takes the root once at the end.
    """
    c = config.field()
    x0s = np.full((max(config.sample_counts), c.dim), config.moment_x0)
    sup_sq = _sup_sq(x0s[None])
    try:
        for members, states in _sampled_march(config, c, x0s, config.solver_n, seed=config.seeds[0]):
            sup_sq[members] = np.maximum(sup_sq[members], _sup_sq(states))
    except Exception as exc:  # every path shares the pass, so a failure is one error cell for all of them
        return [{"path": -1, "sup_abs": np.nan, "status": _status(exc)}]
    return [{"path": i, "sup_abs": float(v)} for i, v in enumerate(np.sqrt(sup_sq))]


def _sup_sq(states: np.ndarray) -> np.ndarray:
    """Largest squared norm in a (steps, B, d) block, per member: (B,).

    The squares are summed as ``np.linalg.norm`` sums them, and the root is
    monotone and correctly rounded, so the root of this max is
    ``np.linalg.norm(states, axis=-1).max(axis=0)`` bit for bit.
    """
    return np.add.reduce(states * states, axis=-1).max(axis=0)


def _mean_stderr(vals: np.ndarray, count: int) -> dict:
    """Sample mean and standard error of a block of ``count`` samples.

    A sample with no spread (every value equal and finite) has stderr 0,
    not the few ulps that rounding in ``std`` leaves, so no estimate from
    it can pass a ``stable_*`` check.
    """
    lo, hi = vals.min(), vals.max()
    stderr = 0.0 if lo == hi and np.isfinite(lo) else vals.std(ddof=1) / math.sqrt(count)
    return {"value": float(vals.mean()), "stderr": float(stderr)}


def _summarize_moments(config: ExperimentConfig, records: list) -> dict:
    ok = sorted((r for r in records if int(r["path"]) >= 0), key=lambda r: int(r["path"]))
    # a failed pass leaves no path: NaN samples make every estimate NaN and every check false
    sup = np.asarray([float(r["sup_abs"]) for r in ok]) if ok else np.full(max(config.sample_counts), np.nan)
    stats: dict = {}
    bounded = config.field().sigma_bound is not None
    for count in config.sample_counts:
        block = sup[:count]
        entry = {}
        for p in config.moment_orders:
            entry[f"p{p}"] = _mean_stderr(block**p, count)
        if bounded:
            entry["exp"] = _mean_stderr(np.exp(config.exp_moment_lambda * block**config.exp_moment_gamma), count)
        stats[str(count)] = entry
    counts = sorted(config.sample_counts)
    drift = {}
    for a, b in zip(counts, counts[1:]):
        for stat in stats[str(b)]:
            delta = abs(stats[str(b)][stat]["value"] - stats[str(a)][stat]["value"])
            drift[f"{stat}_{a}_to_{b}"] = {
                "delta": delta,
                "stderr": stats[str(b)][stat]["stderr"],
            }
    return {"estimates": stats, "drift": drift, "paths": len(ok)}


def _checks_moments(config: ExperimentConfig, summary: dict) -> dict:
    mult = config.tol("stderr_multiple")
    checks = {"record_count": summary["paths"] == max(config.sample_counts)}
    for name, entry in summary["drift"].items():  # a block with no spread has stderr 0, so its check is false
        checks[f"stable_{name}"] = entry["delta"] < mult * entry["stderr"]
    return checks


class _Kind(NamedTuple):
    """One campaign kind: its runner, summary, checks and ``default_config`` values."""

    run: Callable
    summarize: Callable
    check: Callable
    defaults: dict
    ladder: bool = False  # needs a nonempty ladder
    points: bool = False  # solves from initial_points


_LADDER_4 = (2**8, 2**9, 2**10, 2**11)
_LADDER_6 = (2**4, 2**5, 2**6, 2**7, 2**8, 2**9)

_KINDS = {
    "flow": _Kind(_run_flow, _summarize_flow, _checks_flow_style, {"ladder": _LADDER_4}, ladder=True, points=True),
    "inverse": _Kind(_run_inverse, _summarize_inverse, _checks_inverse, {"ladder": _LADDER_4},
                     ladder=True, points=True),
    "rate": _Kind(_run_rate, _summarize_rate, _checks_rate, {"ladder": _LADDER_6, "seeds": tuple(range(50))},
                  ladder=True),
    "init-continuity": _Kind(_run_init_continuity, _summarize_init, _checks_init, {"seeds": tuple(range(8))}),
    # moderate discount: the uncapped lambda rule concentrates the norm
    # near t = 0 where the polygonal gap no longer shrinks with the ladder
    "driver-continuity": _Kind(_run_driver_continuity, _summarize_driver, _checks_driver,
                               {"ladder": _LADDER_6, "seeds": tuple(range(8)), "lambda_weight": 5.0},
                               ladder=True, points=True),
    "moments": _Kind(_run_moments, _summarize_moments, _checks_moments,
                     {"coefficients": "builtin:sin", "solver_n": 2**8, "seeds": (0,)}),
}
EXPERIMENT_KINDS = tuple(_KINDS)
