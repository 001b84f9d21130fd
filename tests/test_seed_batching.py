"""Seed-batched campaign passes against copies of the per-seed runners they replace.

The copies below are the flow, inverse and driver-continuity runners as
they stood when every seed (and every polygonal driver) had passes of its
own.  The batched runners must give ``==`` records, failures included.
"""

import numpy as np
import pytest

import flowlab.experiments as experiments
from flowlab import fbm
from flowlab.errors import BlowUpError
from flowlab.experiments import default_config
from flowlab.fraccalc import lambda_alpha
from flowlab.paths import GridPath, w_alpha_lambda_norm
from flowlab.sde import SolverConfig, _flow_marks, solve_forward_batch


def _mark_pass(x0s, marks, c, driver, cfg, backward=False):
    idx = [driver.index_of(m) for m in marks]
    starts = idx[1:] if backward else idx
    return _flow_marks(np.tile(x0s, (len(starts), 1)), np.repeat(starts, x0s.shape[0]), idx, c, driver, cfg,
                       backward=backward)


def _reference_maps(config, c, fine, marks, x0s):
    if c.flow is not None:
        at = [fine.values[fine.index_of(m)] for m in marks]
        return (lambda a, b, i: c.flow(x0s[i], at[b] - at[a]),
                lambda a, b, i: c.flow(x0s[i], -(at[b] - at[a])))
    cfg = SolverConfig(config.alpha, fine.n_steps, config.hurst)
    npts = x0s.shape[0]
    passes = {}

    def marks_pass(backward):
        if backward not in passes:
            passes[backward] = _mark_pass(x0s, marks, c, fine, cfg, backward)
        return passes[backward]

    return (lambda a, b, i: marks_pass(False)[b, a * npts + i],
            lambda a, b, i: marks_pass(True)[a, (b - 1) * npts + i])


def per_seed_flow(config):
    c = config.field()
    triples = experiments._time_triples(config.horizon)
    marks = sorted({m for tri in triples for m in tri})
    x0s = np.asarray(config.initial_points, dtype=float)
    npts = x0s.shape[0]
    records = []
    for seed in config.seeds:
        fine = experiments._fine_driver(config, seed, components=c.noise_dim)
        ref_fwd, ref_bwd = _reference_maps(config, c, fine, marks, x0s)
        for n in config.ladder:
            driver = fine.decimate(config.fine_n // n)
            cfg = SolverConfig(config.alpha, n, config.hurst)
            disc_f, disc_b, failure = {}, {}, None
            try:
                fwd = _mark_pass(x0s, marks, c, driver, cfg)
                for a, r in enumerate(marks):
                    for b in range(a, len(marks)):
                        for i in range(npts):
                            reached = fwd[b, a * npts + i]
                            disc_f[(r, marks[b], i)] = float(np.linalg.norm(reached - ref_fwd(a, b, i)))
                bwd = _mark_pass(x0s, marks, c, driver, cfg, backward=True)
                disc_b.update({(marks[0], marks[0], i): 0.0 for i in range(npts)})
                for b in range(1, len(marks)):
                    for a in range(b + 1):
                        for i in range(npts):
                            reached = bwd[a, (b - 1) * npts + i]
                            disc_b[(marks[a], marks[b], i)] = float(np.linalg.norm(reached - ref_bwd(a, b, i)))
            except Exception as exc:
                failure = f"error: {exc}"
            for i in range(npts):
                for r, tau, t in triples:
                    records.append({"seed": seed, "n": n, "r": r, "tau": tau, "t": t, "point": i,
                                    "status": failure or "ok",
                                    "disc_forward": disc_f.get((r, t, i), np.nan),
                                    "disc_backward": disc_b.get((r, t, i), np.nan)})
    return records


def per_seed_inverse(config):
    c = config.field()
    pairs = experiments._time_pairs(config.horizon)
    marks = sorted({m for pair in pairs for m in pair})
    x0s = np.asarray(config.initial_points, dtype=float)
    npts = x0s.shape[0]
    later = [(a, b) for a in range(len(marks)) for b in range(a + 1, len(marks))]

    def rows(q):
        return slice(q * npts, (q + 1) * npts)

    records = []
    for seed in config.seeds:
        fine = experiments._fine_driver(config, seed, components=c.noise_dim)
        for n in config.ladder:
            driver = fine.decimate(config.fine_n // n)
            cfg = SolverConfig(config.alpha, n, config.hurst)
            disc_xy, disc_yx, failure = {}, {}, None
            try:
                idx = [driver.index_of(m) for m in marks]
                ys = _flow_marks(np.tile(x0s, (len(marks) - 1, 1)), np.repeat(idx[1:], npts),
                                 idx, c, driver, cfg, backward=True)
                inits = [ys[a, rows(b - 1)] for a, b in later] + [x0s] * len(marks)
                starts = [idx[a] for a, _ in later] + idx
                xs = _flow_marks(np.concatenate(inits), np.repeat(starts, npts), idx, c, driver, cfg)
                inits = [xs[b, rows(len(later) + a)] for a, b in later]
                yx = _flow_marks(np.concatenate(inits), np.repeat([idx[b] for _, b in later], npts),
                                 idx, c, driver, cfg, backward=True)
                for q, (a, b) in enumerate(later):
                    for i in range(npts):
                        key = (marks[a], marks[b], i)
                        disc_xy[key] = float(np.linalg.norm(xs[b, rows(q)][i] - x0s[i]))
                        disc_yx[key] = float(np.linalg.norm(yx[a, rows(q)][i] - x0s[i]))
                for r in marks:
                    disc_xy.update({(r, r, i): 0.0 for i in range(npts)})
                    disc_yx.update({(r, r, i): 0.0 for i in range(npts)})
            except Exception as exc:
                failure = f"error: {exc}"
            for i in range(npts):
                for r, t in pairs:
                    records.append({"seed": seed, "n": n, "r": r, "t": t, "point": i,
                                    "status": failure or "ok",
                                    "disc_xy": disc_xy.get((r, t, i), np.nan),
                                    "disc_yx": disc_yx.get((r, t, i), np.nan)})
    records.extend(experiments._run_sortedness_probe(config, c))
    return records


def per_seed_driver_continuity(config):
    """The per-seed runner; a failed solve of g escapes it."""
    c = config.field()
    cfg = SolverConfig(config.alpha, config.fine_n, config.hurst)
    records = []
    x = np.asarray(config.initial_points[0], dtype=float)
    for seed in config.seeds:
        g = experiments._fine_driver(config, seed, components=c.noise_dim)
        lam = experiments._auto_lambda(config, g)
        sol_g = solve_forward_batch(x[None, :], 0.0, c, g, cfg)[0]
        for coarse_n in config.ladder:
            rec = {"seed": seed, "coarse_n": coarse_n, "lambda_weight": lam,
                   "sol_gap": np.nan, "lambda_gap": np.nan, "status": "ok"}
            try:
                h_path = fbm.polygonal(g, coarse_n)
                sol_h = solve_forward_batch(x[None, :], 0.0, c, h_path, cfg)[0]
                diff = GridPath(g.times, sol_g - sol_h)
                rec["sol_gap"] = w_alpha_lambda_norm(diff, config.alpha, lam)
                rec["lambda_gap"] = lambda_alpha(g - h_path, config.alpha)
            except Exception as exc:
                rec["status"] = f"error: {exc}"
            records.append(rec)
    return records


PER_SEED = {"flow": per_seed_flow, "inverse": per_seed_inverse, "driver-continuity": per_seed_driver_continuity}

GRIDS = {
    "flow": dict(ladder=(32, 64), fine_n=512, seeds=(0, 1, 2)),
    "inverse": dict(ladder=(32, 64), fine_n=512, seeds=(0, 1, 2), probe_seeds=8, probe_n=64),
    "driver-continuity": dict(ladder=(8, 16, 32), fine_n=512, seeds=(0, 1, 2), lambda_weight=5.0),
}

TWO_BY_TWO = ((0.5, 1.0), (-1.0, 0.2))
FIELDS = [
    ("builtin:geometric:0.5", ((1.0,), (0.3,))),
    ("builtin:sin", ((0.5,), (-1.0,))),
    ("builtin:additive:0.5,1;0,1", TWO_BY_TWO),
    ("builtin:linear-drift:0.8,0.3;-0.2,0.6", TWO_BY_TWO),
]


def bits(records):
    """Records as exact text: repr round-trips every float, so equal text is equal bits."""
    return sorted(repr(sorted(rec.items())) for rec in records)


def config_for(kind, coefficients, points, **overrides):
    return default_config(kind, coefficients=coefficients, initial_points=points, **{**GRIDS[kind], **overrides})


@pytest.mark.parametrize("kind", sorted(PER_SEED))
@pytest.mark.parametrize("coefficients, points", FIELDS)
def test_batched_records_equal_per_seed_records(kind, coefficients, points):
    cfg = config_for(kind, coefficients, points)
    batched = experiments._RUNNERS[kind](cfg)
    assert all(r["status"] in ("ok", "probe") for r in batched)
    assert bits(batched) == bits(PER_SEED[kind](cfg))


def test_every_rung_is_one_pass_over_all_seeds(monkeypatch):
    calls = []
    real = experiments._flow_marks

    def counting(x0s, starts, marks, c, driver, cfg, backward=False):
        calls.append((driver.n_steps, x0s.shape[0]))
        return real(x0s, starts, marks, c, driver, cfg, backward=backward)

    monkeypatch.setattr(experiments, "_flow_marks", counting)
    cfg = config_for("flow", "builtin:sin", ((0.5,),))
    experiments._run_flow(cfg)
    # the fine reference forward and backward, then forward and backward per rung, each over 3 seeds
    assert calls == [(512, 15), (512, 12), (32, 15), (32, 12), (64, 15), (64, 12)]
    calls.clear()
    experiments._run_driver_continuity(config_for("driver-continuity", "builtin:sin", ((0.5,),)))
    assert calls == [(512, 3 * 4)]  # g and its three polygonal drivers, for each seed


BLOWN_SEED = 1


@pytest.fixture
def blown_driver(monkeypatch):
    """Scale seed 1's fine driver so that every solve under it crosses the blow-up guard."""
    real = experiments._fine_driver

    def scaled(config, seed, components=1):
        path = real(config, seed, components)
        return path * 400.0 if seed == BLOWN_SEED else path

    monkeypatch.setattr(experiments, "_fine_driver", scaled)


@pytest.mark.parametrize("closed_form", [True, False])
@pytest.mark.parametrize("kind", sorted(PER_SEED))
def test_a_blown_seed_leaves_the_other_seeds_unchanged(kind, closed_form, request, tmp_path):
    coefficients = "builtin:geometric:0.5"
    if not closed_form:  # the same field read from a file: the flow reference is a fine-grid pass
        spec = tmp_path / "geometric.json"
        spec.write_text('{"name": "g", "dim": 1, "noise_dim": 1, "sigma": [["0.5*x1"]], "drift": ["0"]}')
        coefficients = f"file:{spec}"
    cfg = config_for(kind, coefficients, ((1.0,),))
    clean = experiments._RUNNERS[kind](cfg)
    request.getfixturevalue("blown_driver")
    batched = experiments._RUNNERS[kind](cfg)

    def seed_rows(records, keep):
        return bits(r for r in records if keep(r["seed"]))

    blown = [r for r in batched if r["seed"] == BLOWN_SEED]
    assert blown and all("crossed the blow-up guard" in r["status"] for r in blown)
    assert seed_rows(batched, lambda s: s != BLOWN_SEED) == seed_rows(clean, lambda s: s != BLOWN_SEED)
    if kind != "driver-continuity":
        assert bits(batched) == bits(PER_SEED[kind](cfg))
        return
    # the per-seed runner let a failed solve of g escape; each of its rungs now carries that error
    c = cfg.field()
    g = experiments._fine_driver(cfg, BLOWN_SEED, components=c.noise_dim)
    with pytest.raises(BlowUpError) as alone:
        solve_forward_batch(np.array([[1.0]]), 0.0, c, g, SolverConfig(cfg.alpha, cfg.fine_n, cfg.hurst))
    assert {r["status"] for r in blown} == {f"error: {alone.value}"}
