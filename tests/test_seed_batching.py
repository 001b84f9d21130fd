"""Seed-batched campaign passes against copies of the per-seed runners they replace.

The copies below are the flow, inverse and driver-continuity runners as
they stood when every seed (and every polygonal driver) had passes of its
own, and the flow and inverse runners as they stood when every ladder
rung had passes of its own.  The batched runners must give ``==``
records, failures included.
The init-continuity copy took one norm per pair; its batched runner must
give ``==`` records but for ``ratio``, which may move in the last bits.
The rate copy made two ``lambda_alpha`` calls per rung; its one endpoint
pass per seed must give ``==`` records but for ``lambda_diff``, read from
the difference of the rows, which agrees to 1e-12 relative.
"""

import numpy as np
import pytest

import flowlab.experiments as experiments
from flowlab import fbm, sde
from flowlab.errors import BlowUpError
from flowlab.experiments import default_config
from flowlab.fraccalc import _endpoint_indices, _endpoint_peaks, lambda_alpha
from flowlab.paths import GridPath, w_alpha_lambda_norm
from flowlab.quadrature import _PATH_CHUNK
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
    batched = experiments._KINDS[kind].run(cfg)
    assert all(r["status"] in ("ok", "probe") for r in batched)
    assert bits(batched) == bits(PER_SEED[kind](cfg))


def test_every_rung_is_one_pass_over_all_seeds(monkeypatch):
    calls = []
    real = experiments._flow_marks

    def counting(x0s, starts, marks, c, driver, cfg, backward=False, strides=1):
        calls.append((driver[0].n_steps, x0s.shape[0], backward, sorted(set(np.broadcast_to(strides, len(driver))))))
        return real(x0s, starts, marks, c, driver, cfg, backward=backward, strides=strides)

    monkeypatch.setattr(experiments, "_flow_marks", counting)
    cfg = config_for("flow", "builtin:sin", ((0.5,),))
    experiments._run_flow(cfg)
    # the fine reference forward and backward over 3 seeds, then forward and backward over the 2 rungs x 3 seeds
    # on the top rung's grid, rung 32 at stride 2; a member starts (ends) at each of the 5 marks, t = 0 included
    assert calls == [(512, 15, False, [1]), (512, 15, True, [1]), (64, 30, False, [1, 2]), (64, 30, True, [1, 2])]
    calls.clear()
    experiments._run_inverse(config_for("inverse", "builtin:sin", ((0.5,),)))
    # Y from every t > 0, X from every r (10 returns, 5 plain starts), Y of X for every pair: 6 cells each
    assert calls == [(64, 4 * 6, True, [1, 2]), (64, 15 * 6, False, [1, 2]), (64, 10 * 6, True, [1, 2])]
    calls.clear()
    experiments._run_driver_continuity(config_for("driver-continuity", "builtin:sin", ((0.5,),)))
    assert calls == [(512, 3 * 4, False, [1])]  # g and its three polygonal drivers, for each seed


def per_rung_flow(config):
    """The flow runner with one ``_mark_maps`` over all seeds per rung, each rung on its own grid."""
    c = config.field()
    triples = experiments._time_triples(config.horizon)
    marks = sorted({m for tri in triples for m in tri})
    x0s = np.asarray(config.initial_points, dtype=float)
    npts = x0s.shape[0]
    fines = [experiments._fine_driver(config, seed, components=c.noise_dim) for seed in config.seeds]

    def reference(sel, out):
        if c.flow is None:
            maps = experiments._mark_maps(config, x0s, marks, c, [fines[q] for q in sel])
            out.update(zip(sel, np.moveaxis(maps, 3, 0)))
            return
        for q in sel:
            at = [fines[q].values[fines[q].index_of(m)] for m in marks]
            out[q] = np.array([[[[c.flow(x, sign * (bt - br)) for x in x0s] for bt in at] for br in at]
                               for sign in (1.0, -1.0)])

    refs, ref_errors = experiments._replayed(reference, len(fines))
    records = []
    for n in config.ladder:
        drivers = [fine.decimate(config.fine_n // n) for fine in fines]

        def run(sel, out):
            maps = experiments._mark_maps(config, x0s, marks, c, [drivers[q] for q in sel])
            for p, q in enumerate(sel):
                if ref_errors[q] is not None:
                    raise ref_errors[q]
                gap = maps[:, :, :, p] - refs[q]
                for a, r in enumerate(marks):
                    for b in range(a, len(marks)):
                        for i in range(npts):
                            out[q, r, marks[b], i] = (float(np.linalg.norm(gap[0, a, b, i])),
                                                      float(np.linalg.norm(gap[1, a, b, i])))

        disc, errors = experiments._replayed(run, len(fines))
        for q, seed in enumerate(config.seeds):
            for i in range(npts):
                for r, tau, t in triples:
                    fwd, bwd = disc.get((q, r, t, i), (np.nan, np.nan))
                    records.append({"seed": seed, "n": n, "r": r, "tau": tau, "t": t, "point": i,
                                    "status": experiments._status(errors[q]),
                                    "disc_forward": fwd, "disc_backward": bwd})
    return records


def per_rung_inverse(config):
    """The inverse runner with three passes over all seeds per rung, each rung on its own grid."""
    c = config.field()
    pairs = experiments._time_pairs(config.horizon)
    marks = sorted({m for pair in pairs for m in pair})
    x0s = np.asarray(config.initial_points, dtype=float)
    npts = x0s.shape[0]
    later = [(a, b) for a in range(len(marks)) for b in range(a + 1, len(marks))]
    fines = [experiments._fine_driver(config, seed, components=c.noise_dim) for seed in config.seeds]
    records = []
    for n in config.ladder:
        drivers = [fine.decimate(config.fine_n // n) for fine in fines]
        idx = [drivers[0].index_of(m) for m in marks]

        def run(sel, out):
            stack = [drivers[q] for q in sel]
            ys = experiments._stack_pass(config, x0s, idx[1:], idx, c, stack, backward=True)
            inits = [ys[b - 1, a] for a, b in later] + [np.broadcast_to(x0s, ys.shape[2:])] * len(marks)
            xs = experiments._stack_pass(config, np.stack(inits), [idx[a] for a, _ in later] + idx, idx, c, stack)
            inits = [xs[len(later) + a, b] for a, b in later]
            yx = experiments._stack_pass(config, np.stack(inits), [idx[b] for _, b in later], idx, c, stack,
                                         backward=True)
            for p, q in enumerate(sel):
                for j, (a, b) in enumerate(later):
                    for i in range(npts):
                        out[q, marks[a], marks[b], i] = (float(np.linalg.norm(xs[j, b, p, i] - x0s[i])),
                                                          float(np.linalg.norm(yx[j, a, p, i] - x0s[i])))
                out.update({(q, r, r, i): (0.0, 0.0) for r in marks for i in range(npts)})

        disc, errors = experiments._replayed(run, len(fines))
        for q, seed in enumerate(config.seeds):
            for i in range(npts):
                for r, t in pairs:
                    xy, yx = disc.get((q, r, t, i), (np.nan, np.nan))
                    records.append({"seed": seed, "n": n, "r": r, "t": t, "point": i,
                                    "status": experiments._status(errors[q]), "disc_xy": xy, "disc_yx": yx})
    records.extend(experiments._run_sortedness_probe(config, c))
    return records


PER_RUNG = {"flow": per_rung_flow, "inverse": per_rung_inverse}


def exact_list(records):
    """Records as exact text, in order."""
    return [repr(sorted(rec.items())) for rec in records]


@pytest.mark.parametrize("kind", sorted(PER_RUNG))
@pytest.mark.parametrize("coefficients, points", FIELDS)
@pytest.mark.parametrize("grid", [dict(ladder=(32, 64, 128)), dict(ladder=(12, 16, 24), fine_n=96)],
                         ids=["nested", "non-nested"])
def test_lockstep_records_equal_per_rung_records(kind, coefficients, points, grid):
    # one pass holds strides 1, 2 and 4 on the top rung's grid, or 4, 3 and 2 on the grid of 48, where
    # no cell steps from the indices 1 and 5 (mod 6)
    cfg = config_for(kind, coefficients, points, **grid)
    lockstep = experiments._KINDS[kind].run(cfg)
    assert all(r["status"] in ("ok", "probe") for r in lockstep)
    assert exact_list(lockstep) == exact_list(PER_RUNG[kind](cfg))


def per_pair_init_continuity(config):
    """The init-continuity runner with one GridPath and one norm call per pair."""
    c = config.field()
    n = config.solver_n
    cfg = SolverConfig(config.alpha, n, config.hurst)
    base, extra = divmod(config.pair_count, len(config.seeds))
    records = []
    for q, seed in enumerate(config.seeds):
        per_seed = base + (q < extra)
        if per_seed == 0:
            continue
        driver = experiments._fine_driver(config, seed, components=c.noise_dim).decimate(config.fine_n // n)
        lam = experiments._auto_lambda(config, driver)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 7001)))
        chunks = []
        collected = 0
        while collected < per_seed:
            raw = rng.uniform(-config.ball_radius, config.ball_radius, size=(4 * per_seed, 2, c.dim))
            inside = np.linalg.norm(raw, axis=-1).max(axis=-1) <= config.ball_radius
            chunks.append(raw[inside])
            collected += chunks[-1].shape[0]
        pairs = np.concatenate(chunks, axis=0)[:per_seed]
        flat = pairs.reshape(-1, c.dim)
        try:
            sols, failure = sde.solve_forward_batch(flat, 0.0, c, driver, cfg), None
        except Exception as exc:
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


def assert_init_records_match(got, want):
    """``==`` on every key but ``ratio``, which agrees to 1e-12 relative (NaN with NaN)."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert {k: v for k, v in a.items() if k != "ratio"} == {k: v for k, v in b.items() if k != "ratio"}
        np.testing.assert_allclose(a["ratio"], b["ratio"], rtol=1e-12, atol=0.0)


def init_config(coefficients, **overrides):
    # 75 pairs per seed: more than one batch of the profile kernel
    base = dict(coefficients=coefficients, seeds=(0, 1), pair_count=150, solver_n=256, fine_n=1024)
    return default_config("init-continuity", **{**base, **overrides})


INIT_FIELDS = ["builtin:geometric:0.5", "builtin:additive:0.8", "builtin:linear-drift:0.8,0.3;-0.2,0.6"]


@pytest.mark.parametrize("coefficients", INIT_FIELDS)
def test_batched_init_records_match_per_pair_records(coefficients):
    cfg = init_config(coefficients)
    batched = experiments._run_init_continuity(cfg)
    assert len(batched) == cfg.pair_count and all(r["status"] == "ok" for r in batched)
    assert_init_records_match(batched, per_pair_init_continuity(cfg))


def test_a_non_finite_pair_difference_is_its_own_error_cell(monkeypatch):
    real, real_solve = experiments._pair_differences, sde.solve_forward_batch

    def poisoned(flat, *args, **kwargs):
        diffs = real(flat, *args, **kwargs)
        diffs[100, 3] = np.nan  # pair 3's difference
        return diffs

    def poisoned_solve(x0s, *args, **kwargs):  # the per-pair copy solves through this one
        sols = real_solve(x0s, *args, **kwargs)
        sols[2 * 3, 100] = np.nan  # pair 3's first solution
        return sols

    monkeypatch.setattr(experiments, "_pair_differences", poisoned)
    monkeypatch.setattr(sde, "solve_forward_batch", poisoned_solve)
    cfg = init_config("builtin:geometric:0.5")
    batched = experiments._run_init_continuity(cfg)
    errors = [(r["seed"], r["pair"], r["status"]) for r in batched if r["status"] != "ok"]
    assert errors == [(0, 3, "error: path values must be finite"), (1, 3, "error: path values must be finite")]
    assert_init_records_match(batched, per_pair_init_continuity(cfg))


BLOWN_SEED = 1


@pytest.fixture
def blown_driver(monkeypatch):
    """Scale seed 1's fine driver so that every solve under it crosses the blow-up guard."""
    blow_seed(monkeypatch)


def blow_seed(monkeypatch):
    """The patch of ``blown_driver``, for a caller that is not a test."""
    real = experiments._fine_driver

    def scaled(config, seed, components=1):
        path = real(config, seed, components)
        return path * 400.0 if seed == BLOWN_SEED else path

    monkeypatch.setattr(experiments, "_fine_driver", scaled)


def test_a_pair_block_is_a_whole_number_of_norm_chunks():
    assert experiments._PAIR_BLOCK % _PATH_CHUNK == 0


def pair_block_records(monkeypatch, cfg, block):
    monkeypatch.setattr(experiments, "_PAIR_BLOCK", block)
    return experiments._run_init_continuity(cfg)


@pytest.mark.parametrize("block", [64, 128])
@pytest.mark.parametrize("coefficients", INIT_FIELDS + ["builtin:sin"])
def test_pair_blocks_give_the_one_block_records(coefficients, block, monkeypatch):
    # 150 pairs per seed, so the last block is short; a block norms the chunks that one block over the seed norms
    cfg = init_config(coefficients, pair_count=300)
    whole = pair_block_records(monkeypatch, cfg, 10**9)
    assert all(r["status"] == "ok" for r in whole)
    assert exact_list(pair_block_records(monkeypatch, cfg, block)) == exact_list(whole)


@pytest.mark.parametrize("block", [64, 128])
def test_a_blown_seed_in_pair_blocks_records_the_one_block_text(block, monkeypatch, blown_driver):
    # the first block crosses the guard on its own with another magnitude; the seed's pairs in one piece name theirs
    cfg = init_config("builtin:geometric:0.5", pair_count=300)
    whole = pair_block_records(monkeypatch, cfg, 10**9)
    blown = {r["status"] for r in whole if r["seed"] == BLOWN_SEED}
    assert len(blown) == 1 and "crossed the blow-up guard" in blown.pop()
    assert exact_list(pair_block_records(monkeypatch, cfg, block)) == exact_list(whole)


@pytest.mark.parametrize("closed_form", [True, False])
@pytest.mark.parametrize("kind", sorted(PER_SEED))
def test_a_blown_seed_leaves_the_other_seeds_unchanged(kind, closed_form, request, tmp_path):
    coefficients = "builtin:geometric:0.5"
    if not closed_form:  # the same field read from a file: the flow reference is a fine-grid pass
        spec = tmp_path / "geometric.json"
        spec.write_text('{"name": "g", "dim": 1, "noise_dim": 1, "sigma": [["0.5*x1"]], "drift": ["0"]}')
        coefficients = f"file:{spec}"
    cfg = config_for(kind, coefficients, ((1.0,),))
    clean = experiments._KINDS[kind].run(cfg)
    request.getfixturevalue("blown_driver")
    batched = experiments._KINDS[kind].run(cfg)

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


def test_a_seed_whose_fine_reference_alone_fails_errors_at_every_rung(monkeypatch):
    cfg = config_for("flow", "builtin:sin", ((0.5,), (-1.0,)))
    clean = experiments._run_flow(cfg)
    blown = experiments._fine_driver(cfg, BLOWN_SEED).values
    real = experiments._flow_marks

    def failing(x0s, starts, marks, c, driver, cfg, backward=False, strides=1):  # the rung passes of every seed stand
        if any(np.array_equal(p.values, blown) for p in driver):
            raise BlowUpError("injected reference failure")
        return real(x0s, starts, marks, c, driver, cfg, backward=backward, strides=strides)

    monkeypatch.setattr(experiments, "_flow_marks", failing)
    batched = experiments._run_flow(cfg)
    failed = [r for r in batched if r["seed"] == BLOWN_SEED]
    assert {r["n"] for r in failed} == set(cfg.ladder)
    assert {r["status"] for r in failed} == {"error: injected reference failure"}
    assert all(np.isnan(r["disc_forward"]) and np.isnan(r["disc_backward"]) for r in failed)
    keep = lambda records: bits(r for r in records if r["seed"] != BLOWN_SEED)
    assert keep(batched) == keep(clean)


@pytest.mark.parametrize("closed_form", [True, False])
@pytest.mark.parametrize("kind", sorted(PER_RUNG))
def test_a_blown_seed_gives_the_per_rung_records(kind, closed_form, tmp_path, request):
    coefficients = "builtin:geometric:0.5"
    if not closed_form:  # the flow reference fails too; each cell records its own rung's error
        spec = tmp_path / "geometric.json"
        spec.write_text('{"name": "g", "dim": 1, "noise_dim": 1, "sigma": [["0.5*x1"]], "drift": ["0"]}')
        coefficients = f"file:{spec}"
    cfg = config_for(kind, coefficients, ((1.0,), (0.3,)), ladder=(32, 64, 128))
    request.getfixturevalue("blown_driver")
    lockstep = experiments._KINDS[kind].run(cfg)
    assert {r["seed"] for r in lockstep if r["status"].startswith("error")} == {BLOWN_SEED}
    assert exact_list(lockstep) == exact_list(PER_RUNG[kind](cfg))


@pytest.mark.parametrize("kind", sorted(PER_RUNG))
def test_a_cell_that_fails_alone_errors_alone(kind, monkeypatch):
    cfg = config_for(kind, "builtin:geometric:0.5", ((1.0,), (0.3,)), ladder=(32, 64, 128))
    clean = experiments._KINDS[kind].run(cfg)
    target = experiments._fine_driver(cfg, BLOWN_SEED).decimate(cfg.fine_n // 64).values
    real = experiments._flow_marks

    def scaled(x0s, starts, marks, c, driver, cfg, backward=False, strides=1):
        # seed 1's members at rung 64 run under 400 times its driver, wherever the pass marches them
        steps = np.broadcast_to(strides, len(driver))
        driver = [p * 400.0 if np.array_equal(p.values[::s], target) else p for p, s in zip(driver, steps)]
        return real(x0s, starts, marks, c, driver, cfg, backward=backward, strides=strides)

    monkeypatch.setattr(experiments, "_flow_marks", scaled)
    lockstep = experiments._KINDS[kind].run(cfg)
    cell = lambda r: (r["seed"], r["n"]) == (BLOWN_SEED, 64)
    failed = [r for r in lockstep if cell(r)]
    assert failed and all("crossed the blow-up guard" in r["status"] for r in failed)
    assert all(r["status"] in ("ok", "probe") for r in lockstep if not cell(r))
    assert bits(r for r in lockstep if not cell(r)) == bits(r for r in clean if not cell(r))
    # the per-rung runner replays seed by seed on the rung's own grid: the text the cell gets alone
    assert exact_list(lockstep) == exact_list(PER_RUNG[kind](cfg))


@pytest.mark.parametrize("name", ["w_alpha_lambda_norm", "lambda_alpha"])
def test_a_failed_driver_continuity_norm_errors_its_cell_alone(monkeypatch, name):
    cfg = config_for("driver-continuity", "builtin:sin", ((0.5,),))
    clean = experiments._run_driver_continuity(cfg)
    real = getattr(experiments, name)
    calls = []

    def failing(*args, **kwargs):  # one call per (seed, rung), seed by seed: the fifth is seed 1 at rung 16
        calls.append(None)
        if len(calls) == 5:
            raise FloatingPointError("injected norm failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, name, failing)
    batched = experiments._run_driver_continuity(cfg)
    assert [(r["seed"], r["coarse_n"], r["status"]) for r in batched if r["status"] != "ok"] == [
        (1, 16, "error: injected norm failure")]
    others = lambda records: bits(r for r in records if (r["seed"], r["coarse_n"]) != (1, 16))
    assert others(batched) == others(clean)


def per_call_rate(config):
    """The rate runner with two ``lambda_alpha`` calls per rung."""
    records = []
    for seed in config.seeds:
        fine = experiments._fine_driver(config, seed)
        fpath = fbm.FbmPath(fbm.FbmSpec(config.hurst, 1, config.horizon, config.fine_n, seed), fine)
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


def assert_rate_records_match(got, want):
    """``==`` on every key but ``lambda_diff``, which agrees to 1e-12 relative (NaN with NaN)."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert list(a) == list(b)
        assert {k: v for k, v in a.items() if k != "lambda_diff"} == {k: v for k, v in b.items() if k != "lambda_diff"}
        np.testing.assert_allclose(a["lambda_diff"], b["lambda_diff"], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("overrides", [
    dict(fine_n=512, ladder=(4, 8, 16, 32, 64, 128), seeds=(0, 1)),
    dict(seeds=(3,)),  # the default grid: fine_n = 2^13 and six rungs
])
def test_one_endpoint_pass_per_seed_matches_per_call_records(overrides):
    cfg = default_config("rate", **overrides)
    stacked = experiments._run_rate(cfg)
    assert all(r["status"] == "ok" for r in stacked)
    assert_rate_records_match(stacked, per_call_rate(cfg))


@pytest.mark.parametrize("d", [1, 2])
def test_stacked_endpoint_peaks_match_one_column_calls(d):
    a = 0.3
    spec = fbm.FbmSpec(0.75, d, 1.0, 1024, seed=4)
    fine = fbm.sample_circulant(spec).path
    approxes = [fbm.polygonal(fine, n) for n in (8, 64, 256)]
    idx = _endpoint_indices(1024)
    columns, gaps = _endpoint_peaks([fine, *approxes], a, idx)
    assert columns == [_endpoint_peaks([p], a, idx)[0][0] for p in [fine, *approxes]]
    for gap, approx in zip(gaps, approxes):
        alone = _endpoint_peaks([approx - fine], a, idx)[0][0]
        assert gap[1:] == alone[1:]
        assert gap[0] == pytest.approx(alone[0], rel=1e-12, abs=0.0)


def test_a_failed_endpoint_pass_is_replayed_one_rung_at_a_time(monkeypatch):
    cfg = default_config("rate", fine_n=512, ladder=(8, 16, 32, 64), seeds=(0, 1))
    real = fbm.polygonal

    def failing(path, coarse_n):  # rung 16 fails alone as well as in the stacked pass
        if coarse_n == 16:
            raise ValueError("injected failure")
        return real(path, coarse_n)

    unfailed = experiments._run_rate(cfg)
    monkeypatch.setattr(fbm, "polygonal", failing)
    replayed = experiments._run_rate(cfg)
    assert {(r["coarse_n"], r["status"]) for r in replayed} == {
        (8, "ok"), (16, "error: injected failure"), (32, "ok"), (64, "ok")}
    assert_rate_records_match(replayed, per_call_rate(cfg))
    # each rung is replayed in an endpoint pass of its own, which gives an ok rung its stacked values
    ok = [r for r in replayed if r["status"] == "ok"]
    assert bits(ok) == bits([r for r in unfailed if r["coarse_n"] != 16])


def test_a_raising_endpoint_pass_leaves_every_rung_ok(monkeypatch):
    real = experiments._lambda_ladder

    def raising(fine, approxes, alpha):  # only a pass over more than one rung fails
        if len(approxes) > 1:
            raise FloatingPointError("stacked pass failed")
        return real(fine, approxes, alpha)

    cfg = default_config("rate", fine_n=512, ladder=(8, 16, 32), seeds=(0, 1))
    unfailed = experiments._run_rate(cfg)
    monkeypatch.setattr(experiments, "_lambda_ladder", raising)
    replayed = experiments._run_rate(cfg)
    assert all(r["status"] == "ok" for r in replayed)
    assert_rate_records_match(replayed, per_call_rate(cfg))
    assert bits(replayed) == bits(unfailed)
