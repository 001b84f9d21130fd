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
import time
from dataclasses import asdict, dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import fbm
from .coefficients import CoefficientField, parse_field
from .fraccalc import lambda_alpha
from .paths import GridPath, w_alpha_lambda_norm
from .sde import SolverConfig, _DriverStack, _flow_marks, _march, check_order_window, solve_forward_batch

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "default_config",
    "EXPERIMENT_KINDS",
]

EXPERIMENT_KINDS = ("flow", "inverse", "rate", "init-continuity", "driver-continuity", "moments")
_LADDER_KINDS = ("flow", "inverse", "rate", "driver-continuity")

# weighted norms: exp(-lambda * T) must stay representable
_MAX_LAMBDA_EXPONENT = 600.0

DEFAULT_TOLERANCES = {
    "min_doubling_ratio": 1.3,      # median discrepancy decay per ladder doubling
    "exact_discrepancy": 1e-12,     # additive coefficients are exact at grid level
    "tol_flow_safety": 10.0,        # calibration margin for the tol_flow schedule
    "slope_band": 0.1,              # |fitted slope - (theta - H)| bound
    "ratio_spread": 10.0,           # max/median bound for continuity ratios
    "lambda_band": 2.0,             # rung medians within [1/band, band] x ladder median
    "stderr_multiple": 3.0,         # moment stability: |delta| < multiple x stderr
}


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
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; expected one of {EXPERIMENT_KINDS}")
        self.ladder = tuple(int(v) for v in self.ladder)
        self.seeds = tuple(int(v) for v in self.seeds)
        self.initial_points = tuple(tuple(float(c) for c in np.atleast_1d(p)) for p in self.initial_points)
        self.probe_fan = tuple(float(v) for v in self.probe_fan)
        self.sample_counts = tuple(int(v) for v in self.sample_counts)
        self.moment_orders = tuple(int(v) for v in self.moment_orders)
        if not self.seeds:
            raise ValueError("seed list must be nonempty")
        if self.kind in _LADDER_KINDS and not self.ladder:
            raise ValueError(f"{self.kind} experiments need a nonempty ladder")
        if self.ladder and any(b <= a for a, b in zip(self.ladder, self.ladder[1:])):
            raise ValueError("ladder must be strictly increasing")
        bad = [n for n in self.ladder if n < 1 or self.fine_n % n != 0]
        if bad:
            raise ValueError(f"ladder rungs {bad} do not divide fine_n = {self.fine_n}")
        if self.kind == "init-continuity" and (self.solver_n < 1 or self.fine_n % self.solver_n != 0):
            raise ValueError(f"solver_n = {self.solver_n} does not divide fine_n = {self.fine_n}")
        if not (0.0 < self.hurst < 1.0):
            raise ValueError(f"Hurst parameter must lie in (0, 1), got {self.hurst}")
        if self.kind != "rate":
            # solver-backed kinds must pass the admissible-order gate
            probe_n = self.ladder[0] if self.ladder else self.solver_n
            cfg = SolverConfig(self.alpha, probe_n, self.hurst)
            check_order_window(cfg, self.field())
        elif not (1.0 - self.hurst < self.alpha < 0.5):
            raise ValueError(f"alpha must lie in ({1.0 - self.hurst}, 1/2) for rate experiments")

    def field(self) -> CoefficientField:
        return parse_field(self.coefficients)

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["ladder"] = list(self.ladder)
        doc["seeds"] = list(self.seeds)
        doc["initial_points"] = [list(p) for p in self.initial_points]
        doc["probe_fan"] = list(self.probe_fan)
        doc["sample_counts"] = list(self.sample_counts)
        doc["moment_orders"] = list(self.moment_orders)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        names = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - names
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)


def default_config(kind: str, **overrides) -> ExperimentConfig:
    """Spec-scale defaults per experiment kind."""
    base: dict = {"kind": kind}
    if kind == "flow" or kind == "inverse":
        base.update(ladder=(2**8, 2**9, 2**10, 2**11), fine_n=2**13, seeds=tuple(range(20)))
    elif kind == "rate":
        base.update(ladder=(2**4, 2**5, 2**6, 2**7, 2**8, 2**9), fine_n=2**13, seeds=tuple(range(50)))
    elif kind == "init-continuity":
        base.update(seeds=tuple(range(8)), solver_n=2**9)
    elif kind == "driver-continuity":
        # moderate discount: the uncapped lambda rule concentrates the norm
        # near t = 0 where the polygonal gap no longer shrinks with the ladder
        base.update(ladder=(2**4, 2**5, 2**6, 2**7, 2**8, 2**9), fine_n=2**13,
                    seeds=tuple(range(8)), lambda_weight=5.0)
    elif kind == "moments":
        base.update(coefficients="builtin:sin", solver_n=2**8, seeds=(0,))
    base.update(overrides)
    return ExperimentConfig(**base)


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
    runner = _RUNNERS[config.kind]
    records = runner(config)
    records.sort(key=_record_key)
    summary = summarize(config, records)
    checks = evaluate_checks(config, summary)
    return ExperimentResult(config, records, summary, checks, wall_time=time.perf_counter() - started)


def summarize(config: ExperimentConfig, records: list) -> dict:
    return _SUMMARIZERS[config.kind](config, records)


def evaluate_checks(config: ExperimentConfig, summary: dict) -> dict:
    return _CHECKERS[config.kind](config, summary)


def _record_key(rec: dict) -> tuple:
    return tuple((k, str(v)) for k, v in sorted(rec.items()))


def _median(values) -> float:
    """Median, NaN for no values (every cell behind it failed)."""
    return float(np.median(values)) if len(values) else np.nan


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else np.nan


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
    exception it gets on its own.  Returns ``(out, errors)``: errors[k] is
    the exception member k raised alone, or None.
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


def _stack_pass(inits, starts, marks, c: CoefficientField, drivers: list, cfg: SolverConfig,
                backward: bool = False) -> np.ndarray:
    """One Euler pass over every block, driver and point, with the states at grid indices ``marks``.

    ``inits`` is (blocks, len(drivers), npts, d): the members of block j
    start at grid index starts[j] (end there when ``backward``), member
    [j, q, i] under drivers[q].  Returns the states (len(marks), blocks,
    len(drivers), npts, d).
    """
    blocks, count, npts, d = inits.shape
    values = np.stack([p.values for p in drivers])
    per_member = np.broadcast_to(values[None, :, None], (blocks, count, npts) + values.shape[1:])
    stack = _DriverStack(drivers[0].times, drivers[0].step, per_member.reshape((-1,) + values.shape[1:]))
    out = _flow_marks(inits.reshape(-1, d), np.repeat(starts, count * npts), marks, c, stack, cfg,
                      backward=backward)
    return out.reshape(len(marks), blocks, count, npts, d)


def _marks_pass(x0s: np.ndarray, idx: list, c: CoefficientField, drivers: list, cfg: SolverConfig,
                backward: bool = False) -> np.ndarray:
    """One Euler pass from every point at every mark, under every driver.

    Forward, every mark starts members: entry [b, a, q, i] is X_{r_a t_b}(x_i)
    under drivers[q], for a <= b.  Backward, every mark after the first ends
    them: entry [a, b - 1, q, i] is Y_{r_a t_b}(x_i), for a <= b.
    """
    starts = idx[1:] if backward else idx
    inits = np.broadcast_to(x0s, (len(starts), len(drivers)) + x0s.shape)
    return _stack_pass(inits, starts, idx, c, drivers, cfg, backward)


def _reference_maps(config: ExperimentConfig, c: CoefficientField, fines: list, marks: list,
                    x0s: np.ndarray):
    """Reference maps (q, a, b, i) -> X_{r_a t_b}(x_i) and Y_{r_a t_b}(x_i) under fines[q], for marks a <= b.

    The field's closed-form flow where it declares one, at -(B_t - B_r) for
    Y.  Otherwise the fine-grid Euler flow: one forward pass started at
    every mark and one backward pass ended at every mark after the first,
    each over every seed and point, shared by all rungs.  A seed whose pass
    raises on its own raises that error again at each reference asked of
    it, so each rung records the failure.  The ladder must stay well below
    fine_n.
    """
    if c.flow is not None:
        at = [[fine.values[fine.index_of(m)] for m in marks] for fine in fines]
        return (lambda q, a, b, i: c.flow(x0s[i], at[q][b] - at[q][a]),
                lambda q, a, b, i: c.flow(x0s[i], -(at[q][b] - at[q][a])))
    cfg = SolverConfig(config.alpha, fines[0].n_steps, config.hurst)
    idx = [fines[0].index_of(m) for m in marks]

    def reference(backward: bool):
        def run(sel, out):
            states = _marks_pass(x0s, idx, c, [fines[q] for q in sel], cfg, backward)
            out.update(zip(sel, np.moveaxis(states, 2, 0)))

        states, errors = _replayed(run, len(fines))

        def ref(q, a, b, i):
            if errors[q] is not None:
                raise errors[q]
            return states[q][a, b - 1, i] if backward else states[q][b, a, i]

        return ref

    return reference(False), reference(True)


def _run_flow(config: ExperimentConfig) -> list:
    """Composition discrepancy of the discrete flow against the continuous one.

    A one-step scheme composes exactly: solving r -> tau and then tau -> t
    from the reached state performs bit-for-bit the same operations as
    solving r -> t in one leg (exercised directly in the unit tests).  The
    discrepancy |X^n_{tau t}(X^n_{r tau}(x)) - X_{rt}(x)| therefore equals
    |X^n_{rt}(x) - X_{rt}(x)|, which is what each triple records.  Per rung,
    one forward pass over every seed starts a member at every mark; one
    backward pass ends one at every mark after the first grid point.
    """
    c = config.field()
    triples = _time_triples(config.horizon)
    marks = sorted({m for tri in triples for m in tri})
    x0s = np.asarray(config.initial_points, dtype=float)
    npts = x0s.shape[0]
    fines = [_fine_driver(config, seed, components=c.noise_dim) for seed in config.seeds]
    ref_fwd, ref_bwd = _reference_maps(config, c, fines, marks, x0s)
    records = []
    for n in config.ladder:
        drivers = [fine.decimate(config.fine_n // n) for fine in fines]
        cfg = SolverConfig(config.alpha, n, config.hurst)
        idx = [drivers[0].index_of(m) for m in marks]

        def run(sel, out):  # out[q, direction, r, t, i]: the discrepancy of seed q
            stack = [drivers[q] for q in sel]
            fwd = _marks_pass(x0s, idx, c, stack, cfg)
            for p, q in enumerate(sel):
                for a, r in enumerate(marks):
                    for b in range(a, len(marks)):
                        for i in range(npts):
                            out[q, "f", r, marks[b], i] = float(np.linalg.norm(fwd[b, a, p, i] - ref_fwd(q, a, b, i)))
            bwd = _marks_pass(x0s, idx, c, stack, cfg, backward=True)
            for p, q in enumerate(sel):
                # the first mark is t = 0, where no backward member ends
                out.update({(q, "b", marks[0], marks[0], i): 0.0 for i in range(npts)})
                for b in range(1, len(marks)):
                    for a in range(b + 1):
                        for i in range(npts):
                            out[q, "b", marks[a], marks[b], i] = float(
                                np.linalg.norm(bwd[a, b - 1, p, i] - ref_bwd(q, a, b, i)))

        disc, errors = _replayed(run, len(fines))
        for q, seed in enumerate(config.seeds):
            for i in range(npts):
                for r, tau, t in triples:
                    records.append({"seed": seed, "n": n, "r": r, "tau": tau, "t": t, "point": i,
                                    "status": _status(errors[q]),
                                    "disc_forward": disc.get((q, "f", r, t, i), np.nan),
                                    "disc_backward": disc.get((q, "b", r, t, i), np.nan)})
    return records


def _run_inverse(config: ExperimentConfig) -> list:
    """X_rt(Y_rt(x)) and Y_rt(X_rt(x)) against x for every ordered mark pair, in three passes per rung."""
    c = config.field()
    pairs = _time_pairs(config.horizon)
    marks = sorted({m for pair in pairs for m in pair})
    x0s = np.asarray(config.initial_points, dtype=float)
    npts = x0s.shape[0]
    later = [(a, b) for a in range(len(marks)) for b in range(a + 1, len(marks))]
    fines = [_fine_driver(config, seed, components=c.noise_dim) for seed in config.seeds]
    records = []
    for n in config.ladder:
        drivers = [fine.decimate(config.fine_n // n) for fine in fines]
        cfg = SolverConfig(config.alpha, n, config.hurst)
        idx = [drivers[0].index_of(m) for m in marks]

        def run(sel, out):  # out[q, r, t, i]: (disc_xy, disc_yx) of seed q
            stack = [drivers[q] for q in sel]
            # (1) Y_{r_a t_b}(x) = ys[a, b - 1]: one backward pass from every t > 0
            ys = _marks_pass(x0s, idx, c, stack, cfg, backward=True)
            # (2) from every r: X_rt(Y_rt(x)) for each later t, then X_{r.}(x) itself
            inits = [ys[a, b - 1] for a, b in later] + [np.broadcast_to(x0s, ys.shape[2:])] * len(marks)
            xs = _stack_pass(np.stack(inits), [idx[a] for a, _ in later] + idx, idx, c, stack, cfg)
            # (3) Y_rt(X_rt(x)) for every pair r < t
            inits = [xs[b, len(later) + a] for a, b in later]
            yx = _stack_pass(np.stack(inits), [idx[b] for _, b in later], idx, c, stack, cfg, backward=True)
            for p, q in enumerate(sel):
                for j, (a, b) in enumerate(later):
                    for i in range(npts):
                        out[q, marks[a], marks[b], i] = (float(np.linalg.norm(xs[b, j, p, i] - x0s[i])),
                                                          float(np.linalg.norm(yx[a, j, p, i] - x0s[i])))
                out.update({(q, r, r, i): (0.0, 0.0) for r in marks for i in range(npts)})

        disc, errors = _replayed(run, len(fines))
        for q, seed in enumerate(config.seeds):
            for i in range(npts):
                for r, t in pairs:
                    xy, yx = disc.get((q, r, t, i), (np.nan, np.nan))
                    records.append({"seed": seed, "n": n, "r": r, "t": t, "point": i,
                                    "status": _status(errors[q]), "disc_xy": xy, "disc_yx": yx})
    records.extend(_run_sortedness_probe(config, c))
    return records


def _run_sortedness_probe(config: ExperimentConfig, c: CoefficientField) -> list:
    """1-D monotonicity probe: a sorted fan of initial points must stay sorted."""
    if c.dim != 1:
        return []
    fan = np.sort(np.asarray(config.probe_fan, dtype=float))[:, None]
    n = config.probe_n
    rec = {"seed": -1, "n": n, "r": 0.0, "t": config.horizon, "point": -1,
           "status": "probe", "disc_xy": np.nan, "disc_yx": np.nan}
    try:
        spec = fbm.FbmSpec(config.hurst, c.noise_dim, config.horizon, n, seed=0)
        drivers = fbm.sample_paths(spec, config.probe_seeds, method="circulant")
        h = config.horizon / n
        x0s = np.broadcast_to(fan, (config.probe_seeds,) + fan.shape)
        min_gap = np.full(config.probe_seeds, np.inf)
        for _, states in _march(x0s, 0, c, np.arange(n + 1) * h, drivers, h):
            min_gap = np.minimum(min_gap, np.diff(states[..., 0], axis=-1).min(axis=(0, 2)))
    except Exception as exc:  # a failed probe is one error cell; the pair cells stand
        rec["status"] = f"error: {exc}"
        return [rec]
    rec.update(disc_xy=float(np.count_nonzero(min_gap <= 0.0)), disc_yx=float(min_gap.min()))
    return [rec]


def _ladder_medians(records: list, value_key: str, strict_only=None) -> dict:
    per_n: dict = {}
    for rec in records:
        if rec.get("status") not in ("ok",):
            continue
        if strict_only is not None and not strict_only(rec):
            continue
        per_n.setdefault(int(rec["n"]), []).append(float(rec[value_key]))
    return {n: float(np.median(v)) for n, v in sorted(per_n.items())}


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


def _flow_style_summary(config, records, strict, value_keys, group_cols) -> dict:
    ladder = sorted({int(r["n"]) for r in records})
    medians_by_name = {k: _ladder_medians(records, k, strict) for k in value_keys}
    summary: dict = {
        "ladder": ladder,
        "medians": {k: [v.get(n, np.nan) for n in ladder] for k, v in medians_by_name.items()},
    }
    pooled = {}
    for n in ladder:
        vals = [float(r[k]) for r in records
                if int(r["n"]) == n and r["status"] == "ok" and strict(r) for k in value_keys]
        pooled[n] = float(np.median(vals)) if vals else np.nan
    summary["median_pooled"] = [pooled[n] for n in ladder]
    summary["doubling_ratios"] = [
        pooled[a] / pooled[b] if pooled[b] != 0 else np.inf for a, b in zip(ladder, ladder[1:])
    ]
    # tol_flow(n) = A n^{-(2H-1)/2}, A anchored at the coarsest rung with a safety factor
    decay = -(2.0 * config.hurst - 1.0) / 2.0
    amp = pooled[ladder[0]] / ladder[0] ** decay * config.tol("tol_flow_safety") if pooled[ladder[0]] > 0 else 0.0
    summary["tol_flow_amplitude"] = amp
    summary["tol_flow_top"] = amp * ladder[-1] ** decay
    # every probe cell must sit below the schedule at the top rung (median over seeds)
    groups: dict = {}
    for r in records:
        if int(r["n"]) != ladder[-1] or r["status"] != "ok" or not strict(r):
            continue
        key = tuple(r[c] for c in group_cols)
        groups.setdefault(key, []).append(max(float(r[k]) for k in value_keys))
    summary["top_rung_worst_cell_median"] = (
        max(float(np.median(v)) for v in groups.values()) if groups else np.nan
    )
    ok = [r for r in records if r["status"] == "ok"]
    summary["max_discrepancy"] = max(
        (max(float(r[k]) for k in value_keys) for r in ok), default=np.nan
    )
    summary["error_records"] = _error_count(records)
    summary["exact_field"] = config.field().grid_exact
    return summary


def _checks_flow_style(config: ExperimentConfig, summary: dict) -> dict:
    checks = {"no_error_records": summary["error_records"] == 0}
    if summary["exact_field"]:
        checks["exact_discrepancy"] = summary["max_discrepancy"] <= config.tol("exact_discrepancy")
        return checks
    min_ratio = config.tol("min_doubling_ratio")
    ratios = summary["doubling_ratios"]
    checks["median_decay_ratio"] = bool(ratios) and all(r >= min_ratio for r in ratios)
    checks["top_rung_below_tol"] = summary["top_rung_worst_cell_median"] <= summary["tol_flow_top"]
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
    records = []
    for seed in config.seeds:
        fine = _fine_driver(config, seed)
        fpath = fbm.FbmPath(
            fbm.FbmSpec(config.hurst, 1, config.horizon, config.fine_n, seed), fine
        )
        modulus = fbm.modulus_constant(fpath) if config.horizon <= 1.0 else np.nan
        for coarse_n in config.ladder:
            rec = {"seed": seed, "coarse_n": coarse_n, "status": "ok",
                   "holder_error": np.nan, "lambda_coarse": np.nan,
                   "lambda_diff": np.nan, "modulus_g": float(modulus)}
            try:
                approx = fbm.polygonal(fine, coarse_n)
                rec["holder_error"] = fbm.holder_error(fine, approx, config.theta)
                rec["lambda_coarse"] = lambda_alpha(approx, config.alpha)
                rec["lambda_diff"] = lambda_alpha(approx - fine, config.alpha)
            except Exception as exc:
                rec["status"] = f"error: {exc}"
            records.append(rec)
    return records


def _summarize_rate(config: ExperimentConfig, records: list) -> dict:
    ladder = sorted({int(r["coarse_n"]) for r in records})
    per_rung: dict = {n: {"holder_error": [], "lambda_coarse": [], "lambda_diff": []} for n in ladder}
    moduli = []
    for rec in records:
        if rec["status"] != "ok":
            continue
        n = int(rec["coarse_n"])
        for key in ("holder_error", "lambda_coarse", "lambda_diff"):
            per_rung[n][key].append(float(rec[key]))
        moduli.append(float(rec["modulus_g"]))
    med = {key: [_median(per_rung[n][key]) for n in ladder]
           for key in ("holder_error", "lambda_coarse", "lambda_diff")}
    quart = {
        "q25": [_percentile(per_rung[n]["holder_error"], 25) for n in ladder],
        "q75": [_percentile(per_rung[n]["holder_error"], 75) for n in ladder],
    }
    # the predicted rate carries a sqrt(log n) factor; divide it out before fitting
    logs = np.log(ladder)
    reduced = np.log(np.asarray(med["holder_error"]) / np.sqrt(np.log(ladder)))
    fittable = len(ladder) > 1 and np.isfinite(reduced).all()
    slope = float(np.polyfit(logs, reduced, 1)[0]) if fittable else np.nan
    ladder_median = _median([v for n in ladder for v in per_rung[n]["lambda_coarse"]])
    return {
        "ladder": ladder,
        "median_error": med["holder_error"],
        "q25": quart["q25"],
        "q75": quart["q75"],
        "median_lambda_coarse": med["lambda_coarse"],
        "median_lambda_diff": med["lambda_diff"],
        "lambda_coarse_ladder_median": ladder_median,
        "fitted_slope": slope,
        "target_slope": config.theta - config.hurst,
        "modulus_q99": _percentile(moduli, 99),
        "modulus_median": _median(moduli),
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
    per_seed = max(1, config.pair_count // len(config.seeds))
    records = []
    for seed in config.seeds:
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
        flat = pairs.reshape(-1, c.dim)
        try:
            sols, failure = solve_forward_batch(flat, 0.0, c, driver, cfg), None
        except Exception as exc:  # every non-degenerate pair of the seed records the failure
            failure = f"error: {exc}"
        for i in range(pairs.shape[0]):
            x0, x1 = pairs[i, 0], pairs[i, 1]
            dist = float(np.linalg.norm(x0 - x1))
            rec = {"seed": seed, "pair": i, "dist": dist, "lambda_weight": lam,
                   "ratio": np.nan, "status": "ok"}
            if dist < 1e-12 or failure:
                rec["status"] = "degenerate" if dist < 1e-12 else failure
                records.append(rec)
                continue
            try:
                diff = GridPath(driver.times, sols[2 * i] - sols[2 * i + 1])
                rec["ratio"] = w_alpha_lambda_norm(diff, config.alpha, lam) / dist
            except Exception as exc:
                rec["status"] = f"error: {exc}"
            records.append(rec)
    return records


def _summarize_init(config: ExperimentConfig, records: list) -> dict:
    ratios = np.array([float(r["ratio"]) for r in records if r["status"] == "ok"])
    summary = {
        "pairs": len(ratios),
        "ratio_median": np.nan,
        "ratio_max": np.nan,
        "ratio_spread": np.nan,
        "max_deviation_from_one": np.nan,
        "exact_field": config.field().grid_exact,
        "error_records": _error_count(records),
    }
    if len(ratios):  # with no ok pair every statistic stays NaN, so its check is false
        med = float(np.median(ratios))
        summary.update(
            ratio_median=med,
            ratio_max=float(np.max(ratios)),
            ratio_spread=float(np.max(ratios) / med) if med > 0 else np.inf,
            max_deviation_from_one=float(np.max(np.abs(ratios - 1.0))),
        )
    return summary


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
    cfg = SolverConfig(config.alpha, config.fine_n, config.hurst)
    x = np.asarray(config.initial_points[0], dtype=float)
    gs = [_fine_driver(config, seed, components=c.noise_dim) for seed in config.seeds]
    # member q * width is seed q's g, member q * width + l its polygonal h at rung l
    width = 1 + len(config.ladder)
    drivers = [path for g in gs for path in [g] + [fbm.polygonal(g, n) for n in config.ladder]]

    def run(sel, out):
        inits = np.broadcast_to(x, (1, len(sel), 1, x.size))
        states = _stack_pass(inits, [0], range(config.fine_n + 1), c, [drivers[k] for k in sel], cfg)
        out.update(zip(sel, np.moveaxis(states[:, 0, :, 0], 1, 0)))

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
                rec["status"] = f"error: {exc}"
            records.append(rec)
    return records


def _summarize_driver(config: ExperimentConfig, records: list) -> dict:
    ladder = sorted({int(r["coarse_n"]) for r in records})
    gaps: dict = {n: [] for n in ladder}
    lams: dict = {n: [] for n in ladder}
    ratios = []
    log_pairs = []
    for rec in records:
        if rec["status"] != "ok":
            continue
        n = int(rec["coarse_n"])
        sol_gap, lam_gap = float(rec["sol_gap"]), float(rec["lambda_gap"])
        gaps[n].append(sol_gap)
        lams[n].append(lam_gap)
        if lam_gap > 0:
            ratios.append(sol_gap / lam_gap)
            if sol_gap > 0:
                log_pairs.append((math.log(lam_gap), math.log(sol_gap)))
    med_gap = [_median(gaps[n]) for n in ladder]
    med_lam = [_median(lams[n]) for n in ladder]
    med_ratio = _median(ratios)
    max_ratio = float(np.max(ratios)) if ratios else np.nan
    corr = float(np.corrcoef(*zip(*log_pairs))[0, 1]) if len(log_pairs) > 2 else np.nan
    return {
        "ladder": ladder,
        "median_sol_gap": med_gap,
        "median_lambda_gap": med_lam,
        "ratio_median": med_ratio,
        "ratio_max": max_ratio,
        "ratio_spread": max_ratio / med_ratio if med_ratio != 0 else np.inf,
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
    c = config.field()
    n = config.solver_n
    total = max(config.sample_counts)
    h = config.horizon / n
    x0s = np.full((total, c.dim), config.moment_x0)
    sup_abs = np.linalg.norm(x0s, axis=-1)
    try:
        spec = fbm.FbmSpec(config.hurst, c.noise_dim, config.horizon, n, seed=config.seeds[0])
        drivers = fbm.sample_paths(spec, total, method="circulant")
        for _, states in _march(x0s, 0, c, np.arange(n + 1) * h, drivers, h):
            sup_abs = np.maximum(sup_abs, np.linalg.norm(states, axis=-1).max(axis=0))
    except Exception as exc:  # every path shares the pass, so a failure is one error cell for all of them
        return [{"path": -1, "sup_abs": np.nan, "status": f"error: {exc}"}]
    return [{"path": i, "sup_abs": float(v)} for i, v in enumerate(sup_abs)]


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
            vals = block**p
            entry[f"p{p}"] = {"value": float(vals.mean()), "stderr": float(vals.std(ddof=1) / math.sqrt(count))}
        if bounded:
            vals = np.exp(config.exp_moment_lambda * block**config.exp_moment_gamma)
            entry["exp"] = {"value": float(vals.mean()), "stderr": float(vals.std(ddof=1) / math.sqrt(count))}
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
    for name, entry in summary["drift"].items():
        checks[f"stable_{name}"] = entry["delta"] < mult * entry["stderr"]
    return checks


_RUNNERS = {
    "flow": _run_flow,
    "inverse": _run_inverse,
    "rate": _run_rate,
    "init-continuity": _run_init_continuity,
    "driver-continuity": _run_driver_continuity,
    "moments": _run_moments,
}

_SUMMARIZERS = {
    "flow": _summarize_flow,
    "inverse": _summarize_inverse,
    "rate": _summarize_rate,
    "init-continuity": _summarize_init,
    "driver-continuity": _summarize_driver,
    "moments": _summarize_moments,
}

_CHECKERS = {
    "flow": _checks_flow_style,
    "inverse": _checks_inverse,
    "rate": _checks_rate,
    "init-continuity": _checks_init,
    "driver-continuity": _checks_driver,
    "moments": _checks_moments,
}
