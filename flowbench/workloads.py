"""The benchmark's four workloads, driven through flowlab's public API only.

Each workload is a fixed list of campaigns run back to back by one
client (a closed loop).  Every campaign keeps the grids of
``default_config`` (``fine_n``, ``ladder``, ``solver_n``, ``probe_n``) so
each kernel call has the shape users run; only the number of seeds is
reduced, and the seed list is derived from the workload seed.  Flowlab
functions are looked up through their modules at call time, so that the
traced run sees every call.

Why each workload exists (see README.md for the layer map):

* ``rate``: decimated ``lambda_alpha`` (FFT increment profiles) and the
  fbm lag scans; no solver and no absolute-increment profile.
* ``flows``: many short batch-<=5 Euler solves with closed-form and
  solved references; no fractional calculus or quadrature.
* ``continuity``: the O(n^2) absolute-increment profile at n = 2^13 and
  2^9, and long batch-1 solves.
* ``pathwise``: the per-trajectory calls behind ``fraccalc lambda
  --exact``, ``young integrate``, ``young check-bound`` and ``sde solve``
  at n = 2^11, plus the batch-10^4 ``moments`` campaign.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import flowlab.cli  # noqa: E402,F401  (every flowlab command pays this import)
from flowlab import coefficients, experiments, fbm, fraccalc, paths, reporting, sde, young  # noqa: E402

DEFAULT_SEED = 0

# workload -> [(campaign label, experiment kind, seed count, overrides)]
CAMPAIGNS = {
    "rate": [("rate", "rate", 2, {})],
    "flows": [
        ("flow", "flow", 2, {}),
        ("inverse", "inverse", 1, {"coefficients": "builtin:sin", "initial_points": ((0.5,),)}),
    ],
    "continuity": [
        ("driver-continuity", "driver-continuity", 1, {}),
        ("init-continuity", "init-continuity", 1, {}),
    ],
    "pathwise": [("moments", "moments", 1, {})],
}
WORKLOADS = tuple(CAMPAIGNS)

# the per-trajectory commands of the pathwise workload
TRAJECTORY_N = 2**11
HURST = 0.75
ALPHA = 0.3
TRAJECTORY_LABEL = "trajectories"


def campaign_seeds(workload: str, campaign: str, seed: int, count: int) -> tuple:
    """The campaign's seed list, a pure function of the workload seed."""
    rng = random.Random(f"{workload}/{campaign}/{seed}")
    return tuple(sorted(rng.sample(range(2**20), count)))


@dataclass
class Workload:
    campaigns: list                      # (label, ExperimentConfig)
    trajectory_seeds: tuple = ()         # (f, g, solve driver); pathwise only


@dataclass
class PassResult:
    wall_s: float
    outputs: dict                        # label -> directory written this pass
    attempted: int = 0
    failed: int = 0
    records: int = 0
    error_records: int = 0
    problems: list = field(default_factory=list)


def build(name: str, seed: int) -> Workload:
    """The workload's campaign configs: the set-up every run pays.  Building a
    solver-backed config also parses and validates its coefficient field."""
    if name not in CAMPAIGNS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    campaigns = [
        (label, experiments.default_config(kind, seeds=campaign_seeds(name, label, seed, count), **overrides))
        for label, kind, count, overrides in CAMPAIGNS[name]
    ]
    trajectory_seeds = campaign_seeds(name, TRAJECTORY_LABEL, seed, 3) if name == "pathwise" else ()
    return Workload(campaigns, trajectory_seeds)


def run_pass(wl: Workload, outdir: Path) -> PassResult:
    """Run every campaign once and persist it; wall_s spans the first call
    to the last ``save_result`` return."""
    res = PassResult(wall_s=0.0, outputs={})
    started = time.perf_counter()
    for label, config in wl.campaigns:
        try:
            result = experiments.run_experiment(config)
            res.outputs[label] = reporting.save_result(result, outdir / label)
        except Exception as exc:  # a campaign that raises counts as one failed cell
            res.attempted += 1
            res.failed += 1
            res.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        errors = sum(1 for r in result.records if str(r.get("status", "")).startswith("error"))
        res.attempted += len(result.records)
        res.failed += errors
        res.records += len(result.records)
        res.error_records += errors
    if wl.trajectory_seeds:
        _trajectories(wl, outdir / TRAJECTORY_LABEL, res)
    res.wall_s = time.perf_counter() - started
    return res


def _trajectories(wl: Workload, out: Path, res: PassResult) -> None:
    """The calls behind ``fbm sample`` (twice), ``fraccalc lambda --exact``,
    ``young integrate`` (rs and zahle), ``young check-bound`` and ``sde solve``,
    each one a cell; outputs go to CSV and JSON as the commands print them."""
    out.mkdir(parents=True, exist_ok=True)
    f_seed, g_seed, solve_seed = wl.trajectory_seeds
    doc = {}

    def sample(name, seed):
        fbm.sample_circulant(fbm.FbmSpec(HURST, 1, 1.0, TRAJECTORY_N, seed)).path.to_csv(out / f"{name}.csv")

    def lam():
        rep = fraccalc.lambda_alpha_report(paths.GridPath.read_csv(out / "g.csv"), ALPHA, endpoints="all")
        doc["lambda"] = {"lambda_alpha": rep.value, "upper_bound": rep.upper_bound,
                         "endpoint_mode": rep.endpoint_mode, "attained_s": rep.attained_s,
                         "attained_t": rep.attained_t}

    def integrate(method):
        f = paths.GridPath.read_csv(out / "f.csv")
        g = paths.GridPath.read_csv(out / "g.csv")
        value = young.rs_integral(f, g) if method == "rs" else young.zahle_integral(f, g)
        doc[f"integrate_{method}"] = [float(v) for v in value]

    def bound():
        rep = young.young_bound_check(paths.GridPath.read_csv(out / "f.csv"),
                                      paths.GridPath.read_csv(out / "g.csv"), ALPHA)
        doc["check_bound"] = {"lhs": rep.lhs, "rhs": rep.rhs, "slack": rep.slack, "ok": rep.ok}

    def solve():
        c = coefficients.parse_field("builtin:geometric")
        spec = fbm.FbmSpec(HURST, c.noise_dim, 1.0, TRAJECTORY_N, solve_seed)
        driver = fbm.sample_circulant(spec).path
        cfg = sde.SolverConfig(ALPHA, TRAJECTORY_N, HURST)
        sde.solve_forward(np.array([1.0]), 0.0, c, driver, cfg).to_csv(out / "solution.csv")

    steps = [("fbm sample f", lambda: sample("f", f_seed)),
             ("fbm sample g", lambda: sample("g", g_seed)),
             ("fraccalc lambda --exact", lam),
             ("young integrate rs", lambda: integrate("rs")),
             ("young integrate zahle", lambda: integrate("zahle")),
             ("young check-bound", bound),
             ("sde solve", solve)]
    for label, step in steps:
        res.attempted += 1
        try:
            step()
        except Exception as exc:
            res.failed += 1
            res.problems.append(f"{label}: {type(exc).__name__}: {exc}")
    with open(out / "outputs.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    res.outputs[TRAJECTORY_LABEL] = out
