"""Experiment campaigns at reduced scale, persistence, and verification."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowlab.experiments import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    ExperimentResult,
    _quantile,
    default_config,
    evaluate_checks,
    run_experiment,
    summarize,
)
from flowlab.reporting import load_result, save_result, verify_result


def small(kind, **overrides):
    base = {
        "flow": dict(ladder=(2**7, 2**8), seeds=(0, 1, 2), fine_n=2**10),
        "inverse": dict(ladder=(2**7, 2**8), seeds=(0, 1, 2), fine_n=2**10, probe_seeds=40, probe_n=2**7),
        "rate": dict(ladder=(2**4, 2**5, 2**6), seeds=tuple(range(8)), fine_n=2**11),
        "init-continuity": dict(seeds=(0, 1), pair_count=60, solver_n=2**8, fine_n=2**10),
        "driver-continuity": dict(ladder=(2**4, 2**5, 2**6), seeds=(0, 1, 2, 3), fine_n=2**11, lambda_weight=5.0),
        "moments": dict(sample_counts=(400, 800), solver_n=2**7),
    }[kind]
    base.update(overrides)
    return default_config(kind, **base)


class TestConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="magic")

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            default_config("flow", seeds=())

    def test_rejects_unsorted_ladder(self):
        with pytest.raises(ValueError):
            default_config("flow", ladder=(256, 128))

    @pytest.mark.parametrize("kind", ["flow", "inverse", "rate", "driver-continuity"])
    def test_rejects_empty_ladder(self, kind):
        with pytest.raises(ValueError, match="nonempty ladder"):
            default_config(kind, ladder=())

    @pytest.mark.parametrize("kind", ["flow", "rate"])
    def test_rejects_rungs_not_dividing_fine_n(self, kind):
        # such a rung used to fail later, in decimate or polygonal, outside the per-cell try
        with pytest.raises(ValueError, match=r"\[96\] do not divide fine_n"):
            default_config(kind, ladder=(64, 96), fine_n=2**10)

    def test_rejects_init_solver_n_not_dividing_fine_n(self):
        # such a solver_n used to fail later, in decimate, after the config was accepted
        with pytest.raises(ValueError, match=r"solver_n = 384 does not divide fine_n = 8192"):
            default_config("init-continuity", solver_n=384)
        assert default_config("init-continuity", solver_n=2**10).solver_n == 2**10

    def test_solver_gate_applies(self):
        with pytest.raises(ValueError, match="admissible window"):
            default_config("flow", hurst=0.55, alpha=0.3)  # alpha below 1 - H

    def test_roundtrip_dict(self):
        cfg = small("rate")
        doc = cfg.to_dict()
        back = ExperimentConfig.from_dict(doc)
        assert back == cfg

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_dict({"kind": "rate", "mystery": 1})

    def test_rejects_unknown_tolerances(self):
        # a misspelt name used to be ignored, so the check it meant to set ran at its default
        with pytest.raises(ValueError, match=r"unknown tolerances \['min_doubling_ration'\]"):
            small("flow", tolerances={"min_doubling_ration": 1e9})
        assert small("flow", tolerances={"min_doubling_ratio": 1e9}).tol("min_doubling_ratio") == 1e9

    @pytest.mark.parametrize("kind", ["flow", "inverse", "driver-continuity"])
    def test_rejects_initial_points_of_another_dimension(self, kind):
        # such points used to turn every cell into an error record
        with pytest.raises(ValueError, match="field's dimension 1"):
            small(kind, initial_points=((1.0,), (1.0, 2.0)))
        with pytest.raises(ValueError, match="field's dimension 2"):
            small(kind, coefficients="builtin:additive:0.5,1;0,1")

    @pytest.mark.parametrize("kind", ["rate", "flow", "moments"])
    @pytest.mark.parametrize("horizon", [0.0, -1.0])
    def test_rejects_nonpositive_horizon(self, kind, horizon):
        # it used to raise only when the campaign sampled its first driver
        with pytest.raises(ValueError, match="horizon must be positive"):
            small(kind, horizon=horizon)

    @pytest.mark.parametrize("overrides", [{"sample_counts": (400,)}, {"sample_counts": (400, 400)},
                                           {"moment_orders": ()}])
    def test_rejects_moments_without_two_counts_and_an_order(self, overrides):
        # sample_counts=(400,) used to pass on record_count alone, with no stability check
        with pytest.raises(ValueError, match="two distinct sample_counts"):
            small("moments", **overrides)


    @pytest.mark.parametrize("counts", [(-5, 10), (0, 10), (1, 10)])
    def test_rejects_moments_sample_count_below_two(self, counts):
        # -5 raised a math domain error after the whole batch was solved, 0 gave NaN estimates,
        # and 1 a NaN stderr (ddof=1)
        with pytest.raises(ValueError, match="sample_counts must all be at least 2"):
            small("moments", sample_counts=counts)
        assert small("moments", sample_counts=(2, 10)).sample_counts == (2, 10)

    def test_rejects_moments_with_more_than_one_seed(self):
        # the batch used to come from seeds[0] alone, silently dropping the rest
        with pytest.raises(ValueError, match=r"one seed, got seeds \[0, 1\]"):
            small("moments", seeds=(0, 1))
        with pytest.raises(ValueError, match="one seed"):
            ExperimentConfig(kind="moments", sample_counts=(400, 800))  # the dataclass default has 20 seeds
        assert small("moments", seeds=(7,)).seeds == (7,)

    @pytest.mark.parametrize("kind", ["init-continuity", "driver-continuity"])
    @pytest.mark.parametrize("weight", [-1.0, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_lambda_weight(self, kind, weight):
        # -1 used to turn every cell into an error record, and NaN gave ok records with NaN norms
        with pytest.raises(ValueError, match="lambda_weight must be finite and nonnegative"):
            small(kind, lambda_weight=weight)
        assert small(kind, lambda_weight=0.0).lambda_weight == 0.0

    @pytest.mark.parametrize("pair_count", [0, -3])
    def test_rejects_init_pair_count_below_one(self, pair_count):
        # 0 used to run one pair per seed
        with pytest.raises(ValueError, match="pair_count must be at least 1"):
            small("init-continuity", pair_count=pair_count)

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan])
    def test_rejects_init_nonpositive_ball_radius(self, radius):
        # -1 used to raise out of run_experiment from the pair sampler, and 0 made every pair degenerate
        with pytest.raises(ValueError, match="ball_radius must be positive"):
            small("init-continuity", ball_radius=radius)


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("kind, overrides, field", [
    # lambda_alpha of the one-step driver raised numpy's empty-argmax error through _auto_lambda
    ("init-continuity", dict(solver_n=1), "solver_n"),
    # theta = 0 made every cell an error; theta >= H left slope_within_band silently false
    ("rate", dict(theta=0.0), "theta"),
    ("rate", dict(theta=-0.1), "theta"),
    ("rate", dict(theta=0.75), "theta"),
    ("rate", dict(theta=0.8), "theta"),
    ("rate", dict(theta=NAN), "theta"),
    # 0 % 32 == 0 let fine_n = 0 pass the divisibility test; 1 raised from the sampler at run time
    ("rate", dict(fine_n=0, ladder=(32, 64)), "fine_n"),
    ("flow", dict(fine_n=1, ladder=(1,)), "fine_n"),
    ("init-continuity", dict(fine_n=-4, solver_n=2), "fine_n"),
    ("moments", dict(fine_n=0), "fine_n"),
    # duplicate seeds doubled every record
    ("rate", dict(seeds=(0, 0)), "seeds"),
    ("flow", dict(seeds=(1, 2, 1)), "seeds"),
    # a NaN tolerance made its check silently false
    ("flow", dict(tolerances={"min_doubling_ratio": NAN}), "tolerances"),
    # flow raised IndexError out of run_experiment
    ("flow", dict(initial_points=()), "initial_points"),
    ("inverse", dict(initial_points=()), "initial_points"),
    ("driver-continuity", dict(initial_points=()), "initial_points"),
    # each of these raised out of run_experiment: a non-finite path, a sampler range overflow,
    # a pair sampler that never accepts, and the samplers' seed range
    ("driver-continuity", dict(horizon=INF), "horizon"),
    ("flow", dict(horizon=NAN), "horizon"),
    ("init-continuity", dict(ball_radius=INF), "ball_radius"),
    ("init-continuity", dict(ball_radius=1e300), "ball_radius"),
    ("rate", dict(seeds=(-1,)), "seeds"),
    ("rate", dict(seeds=(0, 2**64)), "seeds"),
    # non-finite points gave ok records with NaN discrepancies, or one error cell per rung
    ("flow", dict(initial_points=((INF,),)), "initial_points"),
    ("inverse", dict(initial_points=((NAN,),)), "initial_points"),
    ("driver-continuity", dict(initial_points=((-INF,),)), "initial_points"),
    # NaN sup_abs samples, or NaN exponential moments
    ("moments", dict(moment_x0=NAN), "moment_x0"),
    ("moments", dict(moment_x0=INF), "moment_x0"),
    ("moments", dict(exp_moment_lambda=INF), "exp_moment_lambda"),
    ("moments", dict(exp_moment_lambda=NAN), "exp_moment_lambda"),
    # each made the 1-D sortedness probe one error cell, or a check that passed on NaN or never could
    ("inverse", dict(probe_seeds=0), "probe_seeds"),
    ("inverse", dict(probe_n=1), "probe_n"),
    ("inverse", dict(probe_fan=(1.0,)), "probe_fan"),
    ("inverse", dict(probe_fan=(1.0, 1.0)), "probe_fan"),
    ("inverse", dict(probe_fan=(1.0, NAN)), "probe_fan"),
    # one error cell; order 0 has zero stderr; negative orders and gamma <= 0 mean nothing
    ("moments", dict(solver_n=1), "solver_n"),
    ("moments", dict(moment_orders=(0,)), "moment_orders"),
    ("moments", dict(moment_orders=(2, -2)), "moment_orders"),
    ("moments", dict(exp_moment_gamma=0.0), "exp_moment_gamma"),
    ("moments", dict(exp_moment_gamma=-1.0), "exp_moment_gamma"),
    ("moments", dict(exp_moment_gamma=INF), "exp_moment_gamma"),
    ("moments", dict(exp_moment_gamma=NAN), "exp_moment_gamma"),
    # a rung of 1 made the slope fit divide by sqrt(log 1) = 0, so slope_within_band could never pass
    ("rate", dict(fine_n=2, ladder=(1, 2)), "ladder"),
    # int(v) truncated seeds and rungs; a float grid size or count failed at run time, or was used as is
    ("rate", dict(seeds=(0.5, 1.7)), "seeds"),
    ("rate", dict(ladder=(16.9, 32)), "ladder"),
    ("moments", dict(fine_n=64.5), "fine_n"),
    ("moments", dict(solver_n=16.5), "solver_n"),
    ("init-continuity", dict(pair_count=2.5), "pair_count"),
    ("inverse", dict(probe_seeds=2.5), "probe_seeds"),
    ("inverse", dict(probe_n=16.5), "probe_n"),
    ("moments", dict(sample_counts=(400, 800.5)), "sample_counts"),
    ("moments", dict(moment_orders=(2.5,)), "moment_orders"),
    ("rate", dict(seeds=(NAN,)), "seeds"),
    # a non-finite coefficient parameter passed construction; the solve then blamed the hypotheses or the grid
    ("flow", dict(coefficients="builtin:geometric:nan"), "'geometric' needs finite parameters"),
    ("inverse", dict(coefficients="builtin:geometric:inf"), "'geometric' needs finite parameters"),
    ("moments", dict(coefficients="builtin:additive:nan"), "'additive' needs finite parameters"),
    # a rung at fine_n was compared with itself: disc 0 and an inf doubling ratio, or a gap 0 that counted as a decrease
    ("flow", dict(coefficients="builtin:sin", ladder=(256, 512, 1024), fine_n=1024), "ladder"),
    ("driver-continuity", dict(ladder=(16, 2048), fine_n=2048), "ladder"),
    # a bool is an int to isinstance: JSON true was read as 1, or a point (0.5, true) as (0.5, 1.0)
    ("rate", dict(horizon=True), "horizon"),
    ("rate", dict(seeds=(True,)), "seeds"),
    ("init-continuity", dict(pair_count=True), "pair_count"),
    ("flow", dict(coefficients="builtin:additive:0.5,1;0,1", initial_points=((0.5, True),)), "initial_points"),
    ("flow", dict(lambda_weight=False), "lambda_weight"),
])
def test_bad_configs_are_rejected_naming_the_field(kind, overrides, field):
    with pytest.raises(ValueError, match=field):
        small(kind, **overrides)


@pytest.mark.parametrize("kind, overrides", [
    ("init-continuity", dict(solver_n=2, fine_n=2)),
    ("rate", dict(theta=1e-3)),
    ("rate", dict(theta=0.749)),
    ("rate", dict(fine_n=2, ladder=(2,))),
    ("flow", dict(tolerances={"min_doubling_ratio": float("inf")})),
    ("driver-continuity", dict(horizon=1e6)),
    ("init-continuity", dict(ball_radius=1e150)),
    ("rate", dict(seeds=(0, 2**64 - 1))),
    ("flow", dict(initial_points=((1e300,),))),
    ("moments", dict(moment_x0=-1e300, exp_moment_lambda=1e300)),
    ("inverse", dict(probe_seeds=1, probe_n=2, probe_fan=(1.0, 1.0 + 1e-15))),
    # the probe runs on 1-D fields only, so a 2-D inverse campaign does not read its settings
    ("inverse", dict(coefficients="builtin:additive:0.5,1;0,1", initial_points=((1.0, 2.0),),
                     probe_seeds=0, probe_n=1, probe_fan=())),
    ("moments", dict(solver_n=2)),
    ("moments", dict(moment_orders=(1,), exp_moment_gamma=1e-300)),
    # a closed-form flow is the reference of a rung at fine_n; inverse has no reference
    ("flow", dict(ladder=(512, 1024), fine_n=1024)),
    ("inverse", dict(ladder=(512, 1024), fine_n=1024)),
])
def test_configs_at_the_edge_of_each_rejection_are_accepted(kind, overrides):
    small(kind, **overrides)


class TestFlowExperiment:
    def test_geometric_passes_and_counts(self):
        cfg = small("flow")
        res = run_experiment(cfg)
        assert res.passed, res.checks
        assert len(res.records) == 3 * 2 * 35  # seeds x ladder x triples (one initial point)
        assert all(r["status"] == "ok" for r in res.records)

    def test_additive_exact(self):
        res = run_experiment(small("flow", coefficients="builtin:additive:0.8"))
        assert res.summary["exact_field"]
        assert res.summary["max_discrepancy"] <= 1e-12
        assert res.passed

    def test_single_rung_cannot_pass_decay_check(self):
        res = run_experiment(small("flow", ladder=(2**7,)))
        assert res.summary["doubling_ratios"] == []
        assert res.checks["median_decay_ratio"] is False
        assert not res.passed

    def test_overflowed_discrepancies_fail_top_rung_check(self, tmp_path):
        # the schedule is anchored at the (inf) coarsest rung, so inf <= inf passed before
        cfg = default_config("flow", ladder=(32, 64), seeds=(0, 1), fine_n=256, initial_points=((1e300,),))
        res = run_experiment(cfg)
        assert res.summary["tol_flow_top"] == np.inf
        assert res.checks["top_rung_below_tol"] is False
        assert verify_result(save_result(res, tmp_path / "out")).ok

    def test_a_frozen_driver_fails_the_decay_and_tolerance_checks(self, monkeypatch, tmp_path):
        import flowlab.experiments as experiments

        # every map is the identity, and so is the closed form: each discrepancy is 0, which shows no decay
        real = experiments._fine_driver
        monkeypatch.setattr(experiments, "_fine_driver", lambda *args, **kwargs: real(*args, **kwargs) * 0.0)
        res = run_experiment(small("flow"))
        assert res.summary["max_discrepancy"] == 0.0 and not res.summary["exact_field"]
        assert np.isnan(res.summary["doubling_ratios"]).all() and res.summary["tol_flow_top"] == 0.0
        assert res.checks == {"no_error_records": True, "median_decay_ratio": False, "top_rung_below_tol": False}
        assert verify_result(save_result(res, tmp_path / "out")).ok

    def test_all_error_records_fail_every_check(self):
        cfg = small("flow")
        records = [{**rec, "status": "error: boom", "disc_forward": np.nan, "disc_backward": np.nan}
                   for rec in run_experiment(cfg).records]
        summary = summarize(cfg, records)
        assert np.isnan(summary["doubling_ratios"]).all()
        assert not any(evaluate_checks(cfg, summary).values())

    def test_degenerate_triples_have_zero_discrepancy(self):
        res = run_experiment(small("flow"))
        for rec in res.records:
            if rec["r"] == rec["tau"] == rec["t"] == 0.0:
                assert rec["disc_forward"] == 0.0

    def test_solver_failures_become_error_records(self):
        # sigma0 = 60 drives exp(60 B) across the blow-up guard on some seeds
        cfg = small("flow", coefficients="builtin:geometric:60.0", seeds=tuple(range(6)))
        res = run_experiment(cfg)
        errors = [r for r in res.records if str(r["status"]).startswith("error")]
        assert errors, "expected at least one blow-up on these seeds"
        assert "guard" in errors[0]["status"]
        assert len(res.records) == 6 * 2 * 35  # no silent skips
        assert not res.checks["no_error_records"]
        assert not res.passed


def _per_cell_reference(config, c, fine, r, t, x):
    """The per-(r, t, x) fine-grid solves that the flow reference ran before the shared passes."""
    from flowlab.sde import SolverConfig, _flow_marks, solve_forward_batch

    cfg = SolverConfig(config.alpha, fine.n_steps, config.hurst)
    x = np.asarray(x, dtype=float)[None, :]
    fwd = solve_forward_batch(x, r, c, fine, cfg)[0][fine.index_of(t) - fine.index_of(r)]
    bwd = _flow_marks(x, fine.index_of(t), [fine.index_of(r)], c, fine, cfg, backward=True)[0, 0]
    return fwd, bwd


class TestFlowReference:
    @pytest.mark.parametrize("coefficients, points, bitwise", [
        ("builtin:sin", ((0.5,), (-1.0,)), True),
        # two noise components and no closed form: the batched sigma product sums in another order
        ("builtin:linear-drift:0.8,0.3;-0.2,0.6", ((0.5, 1.0), (-1.0, 0.2)), False),
    ])
    def test_shared_passes_match_per_cell_solves(self, coefficients, points, bitwise):
        import flowlab.experiments as experiments

        cfg = small("flow", coefficients=coefficients, initial_points=points)
        c = cfg.field()
        fines = [experiments._fine_driver(cfg, seed, components=c.noise_dim) for seed in (3, 4)]
        marks = [0.0, 0.25, 0.5, 0.75, 1.0]
        x0s = np.asarray(points, dtype=float)
        maps = experiments._mark_maps(cfg, x0s, marks, c, fines)
        for q, fine in enumerate(fines):  # two seeds share each pass
            for a in range(len(marks)):
                for b in range(a, len(marks)):
                    for i, x in enumerate(x0s):
                        want_fwd, want_bwd = _per_cell_reference(cfg, c, fine, marks[a], marks[b], x)
                        got_fwd, got_bwd = maps[:, a, b, q, i]
                        if bitwise:
                            assert np.array_equal(got_fwd, want_fwd)
                            assert np.array_equal(got_bwd, want_bwd)
                        else:
                            np.testing.assert_allclose(got_fwd, want_fwd, rtol=1e-12, atol=0.0)
                            np.testing.assert_allclose(got_bwd, want_bwd, rtol=1e-12, atol=0.0)

    def test_reference_is_two_fine_passes_per_seed(self, monkeypatch):
        import flowlab.experiments as experiments
        import flowlab.sde as sde

        fine_n = 2**10
        real = experiments._flow_marks
        fine_passes, solves = [], []

        def counting(x0s, starts, marks, c, driver, cfg, backward=False, strides=1):
            if driver[0].n_steps == fine_n:
                fine_passes.append(backward)
            return real(x0s, starts, marks, c, driver, cfg, backward=backward, strides=strides)

        def no_solve(*args, **kwargs):
            solves.append(None)
            raise AssertionError("the flow reference made a per-cell solve")

        monkeypatch.setattr(experiments, "_flow_marks", counting)
        monkeypatch.setattr(sde, "solve_forward_batch", no_solve)
        cfg = default_config("flow", coefficients="builtin:sin", ladder=(64, 128, 256), fine_n=fine_n, seeds=(0,))
        res = run_experiment(cfg)
        assert all(r["status"] == "ok" for r in res.records)
        assert sorted(fine_passes) == [False, True]
        assert solves == []


class TestFieldCapabilities:
    @pytest.mark.parametrize("name", ["additive", "geometric-like"])
    def test_file_field_name_selects_no_closed_form(self, tmp_path, name):
        # a file field named "additive" used to get the exact check (and fail it at 0.297); one named
        # "geometric-like" was compared against x exp(sin(1) dB) and read 0.0309 with no check flagging it
        target = tmp_path / "coeffs.json"
        target.write_text(json.dumps({"name": name, "dim": 1, "noise_dim": 1, "sigma": [["sin(x1)"]], "drift": ["0"]}))
        grid = dict(ladder=(64, 128, 256), fine_n=1024, seeds=(0,))
        res = run_experiment(default_config("flow", coefficients=f"file:{target}", **grid))
        ref = run_experiment(default_config("flow", coefficients="builtin:sin", **grid))
        assert res.records == ref.records
        assert res.summary["max_discrepancy"] == ref.summary["max_discrepancy"]
        assert res.summary["exact_field"] is False
        assert "exact_discrepancy" not in res.checks and "median_decay_ratio" in res.checks

    def test_zero_geometric_gets_the_exact_check(self):
        res = run_experiment(small("flow", coefficients="builtin:geometric:0"))
        assert res.summary["exact_field"] is True
        assert res.summary["max_discrepancy"] == 0.0
        assert res.checks == {"no_error_records": True, "exact_discrepancy": True}


class TestInverseExperiment:
    def test_geometric_passes(self):
        res = run_experiment(small("inverse"))
        assert res.passed, res.checks
        assert res.summary["probe_inversions"] == 0

    def test_probe_failure_is_one_error_cell(self, tmp_path):
        # sigma0 = 60 drives the probe's fan across the blow-up guard
        res = run_experiment(small("inverse", coefficients="builtin:geometric:60.0"))
        probe = [r for r in res.records if r["point"] == -1]
        assert len(probe) == 1 and "guard" in probe[0]["status"]
        assert len(res.records) == 3 * 2 * 15 + 1
        assert np.isnan(res.summary["probe_inversions"])
        assert res.summary["error_records"] >= 1
        assert not res.checks["probe_no_inversions"]
        assert verify_result(save_result(res, tmp_path / "inverse")).ok

    def test_record_count(self):
        res = run_experiment(small("inverse"))
        core = [r for r in res.records if r["status"] != "probe"]
        assert len(core) == 3 * 2 * 15  # seeds x ladder x ordered pairs


def all_error_round_trip(cfg, records, tmp_path):
    summary = summarize(cfg, records)
    checks = evaluate_checks(cfg, summary)
    res = ExperimentResult(cfg, records, summary, checks, 0.0)
    assert verify_result(save_result(res, tmp_path / "all-error")).ok
    return summary, checks


class TestRateExperiment:
    def test_all_error_records_summarize_to_nan(self, tmp_path):
        cfg = small("rate")
        records = [{"seed": 0, "coarse_n": n, "status": "error: boom", "holder_error": np.nan,
                    "lambda_coarse": np.nan, "lambda_diff": np.nan, "modulus_g": np.nan}
                   for n in cfg.ladder]
        summary, checks = all_error_round_trip(cfg, records, tmp_path)
        for key in ("median_error", "q25", "q75", "median_lambda_coarse", "median_lambda_diff"):
            assert np.isnan(summary[key]).all(), key
        for key in ("fitted_slope", "lambda_coarse_ladder_median", "modulus_median"):
            assert np.isnan(summary[key]), key
        assert summary["error_records"] == len(cfg.ladder)
        assert not any(checks.values()), checks

    def test_single_rung_cannot_pass_decrease_checks(self):
        res = run_experiment(small("rate", ladder=(2**5,)))
        assert np.isnan(res.summary["fitted_slope"])
        assert not res.checks["median_error_decreasing"]
        assert not res.checks["lambda_diff_decreasing"]
        assert not res.checks["slope_within_band"]

    def test_medians_decrease(self):
        res = run_experiment(small("rate"))
        med = res.summary["median_error"]
        assert all(a > b for a, b in zip(med, med[1:]))
        assert res.checks["median_error_decreasing"]
        assert res.checks["lambda_diff_decreasing"]
        assert res.checks["lambda_coarse_bounded"]

    def test_record_count_no_skips(self):
        cfg = small("rate")
        res = run_experiment(cfg)
        assert len(res.records) == len(cfg.seeds) * len(cfg.ladder)


class TestContinuityExperiments:
    def test_init_additive_ratio_exactly_one(self):
        res = run_experiment(small("init-continuity", coefficients="builtin:additive:0.8"))
        assert res.summary["max_deviation_from_one"] <= 1e-12
        assert res.passed

    def test_init_sup_at_origin_pairs(self, tmp_path):
        # the default auto lambda puts every pair's discounted sup at t = 0, where the ratio is exactly 1
        res = run_experiment(default_config("init-continuity"))
        assert res.summary["sup_at_origin_pairs"] == res.summary["pairs"] == 1000
        fixed = run_experiment(default_config("init-continuity", lambda_weight=5.0))
        assert fixed.summary["sup_at_origin_pairs"] < fixed.summary["pairs"]
        assert verify_result(save_result(fixed, tmp_path / "fixed")).ok

    def test_init_geometric_bounded(self):
        res = run_experiment(small("init-continuity"))
        assert res.summary["ratio_spread"] <= 10.0
        assert res.passed

    @pytest.mark.parametrize("pair_count, per_seed", [(3, [1, 1, 1, 0]), (10, [3, 3, 2, 2])])
    def test_init_record_count_equals_pair_count(self, pair_count, per_seed, monkeypatch):
        # pair_count // len(seeds) per seed, at least 1, used to give 4 records for 3 pairs and 8 for 10
        import flowlab.experiments as experiments

        real = experiments._pair_differences
        solved = []

        def counting(flat, *args, **kwargs):
            solved.append(len(flat) // 2)
            return real(flat, *args, **kwargs)

        monkeypatch.setattr(experiments, "_pair_differences", counting)
        cfg = small("init-continuity", seeds=(0, 1, 2, 3), pair_count=pair_count, solver_n=16)
        res = run_experiment(cfg)
        assert len(res.records) == pair_count
        assert [sum(r["seed"] == seed for r in res.records) for seed in cfg.seeds] == per_seed
        assert solved == [k for k in per_seed if k]  # a seed with no pair makes no solve

    def test_init_failures_become_error_records(self, monkeypatch):
        import flowlab.experiments as experiments

        real = experiments._w_alpha_lambda_norms
        calls = []

        def flaky(values, *args, **kwargs):
            calls.append(len(values))
            # call 1 is seed 0's batch; its failure replays the pairs alone, and call 4 is pair 2's replay
            if len(calls) in (1, 4):
                raise FloatingPointError("injected norm failure")
            return real(values, *args, **kwargs)

        monkeypatch.setattr(experiments, "_w_alpha_lambda_norms", flaky)
        cfg = small("init-continuity")
        res = run_experiment(cfg)
        per_seed = cfg.pair_count // len(cfg.seeds)
        assert calls == [per_seed] + [1] * per_seed + [per_seed]  # seed 0 replayed pair by pair, seed 1 batched
        assert [r["pair"] for r in res.records if str(r["status"]).startswith("error")] == [2]
        errors = [r for r in res.records if str(r["status"]).startswith("error")]
        assert len(res.records) == cfg.pair_count  # the campaign went on past the failure
        assert len(errors) == 1
        assert errors[0]["status"] == "error: injected norm failure"
        assert res.summary["error_records"] == 1
        assert not res.checks["no_error_records"]

    def test_init_all_error_records_summarize_to_nan(self, tmp_path):
        cfg = small("init-continuity", coefficients="builtin:additive:0.8")
        records = [{"seed": 0, "pair": i, "dist": 0.5, "lambda_weight": 1.0,
                    "ratio": np.nan, "status": "error: boom"} for i in range(3)]
        summary = summarize(cfg, records)
        assert summary["pairs"] == 0
        for key in ("ratio_median", "ratio_max", "ratio_spread", "max_deviation_from_one"):
            assert np.isnan(summary[key])
        checks = evaluate_checks(cfg, summary)
        assert checks == {"no_error_records": False, "ratio_bounded": False,
                          "additive_ratio_exactly_one": False}
        res = ExperimentResult(cfg, records, summary, checks, 0.0)
        assert verify_result(save_result(res, tmp_path / "all-error")).ok

    def test_driver_all_error_records_summarize_to_nan(self, tmp_path):
        cfg = small("driver-continuity")
        records = [{"seed": 0, "coarse_n": n, "lambda_weight": 5.0, "sol_gap": np.nan,
                    "lambda_gap": np.nan, "status": "error: boom"} for n in cfg.ladder]
        summary, checks = all_error_round_trip(cfg, records, tmp_path)
        assert np.isnan(summary["median_sol_gap"]).all() and np.isnan(summary["median_lambda_gap"]).all()
        for key in ("ratio_median", "ratio_max", "ratio_spread", "log_correlation"):
            assert np.isnan(summary[key]), key
        assert not any(checks.values()), checks

    @pytest.mark.parametrize("kind, overrides", [
        ("driver-continuity", dict(ladder=(16, 32), fine_n=512)),
        ("init-continuity", dict(pair_count=4)),
    ])
    def test_blow_up_is_recorded_cell_by_cell(self, kind, overrides, tmp_path):
        # sigma0 = 200 crosses the blow-up guard in the solves of seeds 0 and 1; this used to raise out of
        # run_experiment
        cfg = default_config(kind, coefficients="builtin:geometric:200", seeds=(0, 1), **overrides)
        res = run_experiment(cfg)
        per_seed: dict = {}
        for rec in res.records:
            per_seed.setdefault(rec["seed"], set()).add(rec["status"])
        assert sorted(per_seed) == list(cfg.seeds)
        # one failed solve per seed, carried by every cell of that seed
        assert all(len(s) == 1 and "crossed the blow-up guard" in next(iter(s)) for s in per_seed.values())
        assert res.summary["error_records"] == len(res.records)
        nan_keys = ("median_sol_gap", "median_lambda_gap", "ratio_median", "ratio_spread", "log_correlation") \
            if kind == "driver-continuity" else ("ratio_median", "ratio_max", "ratio_spread")
        assert all(np.isnan(res.summary[k]).all() for k in nan_keys)
        assert not any(res.checks.values()), res.checks
        assert verify_result(save_result(res, tmp_path / kind)).ok

    def test_driver_continuity_decays(self):
        res = run_experiment(small("driver-continuity"))
        assert res.passed, (res.checks, res.summary)
        gaps = res.summary["median_sol_gap"]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_driver_continuity_additive_linear_relation(self):
        from flowlab import fbm
        from flowlab.paths import w_alpha_lambda_norm

        cfg = small("driver-continuity", coefficients="builtin:additive:0.8")
        res = run_experiment(cfg)
        # translation flows: solution gap == |sigma| * weighted norm of the driver gap
        rec = next(r for r in res.records if r["seed"] == 0 and r["coarse_n"] == 2**4)
        g = fbm.sample_circulant(fbm.FbmSpec(cfg.hurst, 1, cfg.horizon, cfg.fine_n, 0)).path
        gap = g - fbm.polygonal(g, 2**4)
        expected = 0.8 * w_alpha_lambda_norm(gap, cfg.alpha, rec["lambda_weight"])
        assert rec["sol_gap"] == pytest.approx(expected, rel=1e-10)


class TestMomentsExperiment:
    def test_stability_checks(self):
        res = run_experiment(small("moments"))
        assert res.passed, res.checks
        assert res.summary["paths"] == 800

    def test_zero_sigma_moments_exact(self):
        res = run_experiment(small("moments", coefficients="builtin:zero", moment_x0=0.5))
        for entry in res.summary["estimates"].values():
            assert entry["p2"]["value"] == pytest.approx(0.25, abs=1e-15)
            assert entry["p2"]["stderr"] == pytest.approx(0.0, abs=1e-15)

    def test_additive_p2_against_common_seed_reference(self):
        from flowlab import fbm

        cfg = small("moments", coefficients="builtin:additive:0.8", moment_x0=0.5)
        res = run_experiment(cfg)
        # reference simulation with the same seed: sup |x0 + 0.8 B_t| per path
        drivers = fbm.sample_paths(
            fbm.FbmSpec(cfg.hurst, 1, cfg.horizon, cfg.solver_n, cfg.seeds[0]),
            max(cfg.sample_counts), method="circulant",
        )
        sup_ref = np.abs(0.5 + 0.8 * drivers[:, :, 0]).max(axis=1)
        expected = float((sup_ref[: cfg.sample_counts[-1]] ** 2).mean())
        got = res.summary["estimates"][str(cfg.sample_counts[-1])]["p2"]["value"]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_blow_up_is_one_error_record(self, tmp_path):
        # sigma0 = 60 drives some path across the blow-up guard; this used to raise out of run_experiment
        cfg = default_config("moments", sample_counts=(200, 400), solver_n=2**7,
                             coefficients="builtin:geometric:60.0")
        res = run_experiment(cfg)
        assert len(res.records) == 1
        rec = res.records[0]
        assert rec["path"] == -1 and "guard" in rec["status"] and np.isnan(rec["sup_abs"])
        assert res.summary["paths"] == 0
        assert all(np.isnan(e["value"]) and np.isnan(e["stderr"])
                   for entry in res.summary["estimates"].values() for e in entry.values())
        stable = {k: v for k, v in res.checks.items() if k.startswith("stable_")}
        assert set(res.checks) == {"record_count"} | set(stable) and len(stable) == 3
        assert not any(res.checks.values())
        out = save_result(res, tmp_path / "moments")
        assert verify_result(out).ok
        _, records, _ = load_result(out)
        assert not any(evaluate_checks(cfg, summarize(cfg, records)).values())

    def test_blow_up_in_member_blocks_keeps_the_one_batch_text(self, monkeypatch):
        # a 7-path block crosses at another time and magnitude than the 400-path batch does
        import flowlab.experiments as experiments

        cfg = default_config("moments", sample_counts=(200, 400), solver_n=2**7,
                             coefficients="builtin:geometric:60.0")
        statuses = []
        for rows in (400, 7):
            monkeypatch.setattr(experiments, "_DRIVER_POINTS", rows * (cfg.solver_n + 1))
            (rec,) = run_experiment(cfg).records
            statuses.append(rec["status"])
        assert "guard" in statuses[0]
        assert statuses[1] == statuses[0]

    def test_a_frozen_driver_fails_every_stable_check(self, monkeypatch, tmp_path):
        import flowlab.experiments as experiments

        # every path keeps moment_x0, so no block has any spread; exp passed as 0 < 2.2e-18 before
        real = experiments.fbm._circulant_batches
        monkeypatch.setattr(experiments.fbm, "_circulant_batches",
                            lambda *args: ((start, values * 0.0) for start, values in real(*args)))
        cfg = small("moments")
        res = run_experiment(cfg)
        assert {rec["sup_abs"] for rec in res.records} == {abs(cfg.moment_x0)}
        assert all(e["stderr"] == 0.0 for entry in res.summary["estimates"].values() for e in entry.values())
        stable = {k: v for k, v in res.checks.items() if k.startswith("stable_")}
        assert len(stable) == len(cfg.moment_orders) + 1 and not any(stable.values())
        assert res.checks["record_count"]
        assert verify_result(save_result(res, tmp_path / "out")).ok

    def test_tolerance_overrides_respected(self):
        cfg = small("moments", tolerances={"stderr_multiple": 1e-9})
        res = run_experiment(cfg)
        assert not res.passed  # an absurdly tight override must flip the checks


class TestPersistence:
    def test_roundtrip_and_verify(self, tmp_path):
        res = run_experiment(small("flow"))
        out = save_result(res, tmp_path / "flow")
        assert (out / "records.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "config.json").exists()
        assert (out / "series_median_discrepancy.csv").exists()
        report = verify_result(out)
        assert report.ok, report.mismatches

    def test_bit_identical_reruns(self, tmp_path):
        cfg = small("inverse")
        a = save_result(run_experiment(cfg), tmp_path / "a")
        b = save_result(run_experiment(cfg), tmp_path / "b")
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()

    def test_verify_catches_tampering(self, tmp_path):
        res = run_experiment(small("rate"))
        out = save_result(res, tmp_path / "rate")
        summary_file = out / "summary.json"
        text = summary_file.read_text().replace('"fitted_slope": -0.', '"fitted_slope": -9.')
        summary_file.write_text(text)
        report = verify_result(out)
        assert not report.ok
        assert any("fitted_slope" in m for m in report.mismatches)

    def test_summary_recomputable_from_loaded_records(self, tmp_path):
        res = run_experiment(small("driver-continuity"))
        out = save_result(res, tmp_path / "drv")
        cfg, records, stored = load_result(out)
        fresh = summarize(cfg, records)
        assert fresh["median_sol_gap"] == pytest.approx(res.summary["median_sol_gap"], rel=1e-12)
        checks = evaluate_checks(cfg, fresh)
        assert checks == res.checks

    def test_file_field_result_verifies_without_the_file(self, tmp_path):
        target = tmp_path / "coeffs.json"
        target.write_text(json.dumps({"dim": 1, "noise_dim": 1, "sigma": [["sin(x1)"]], "drift": ["0"]}))
        res = run_experiment(small("flow", coefficients=f"file:{target}", seeds=(0,)))
        out = save_result(res, tmp_path / "flow")
        assert (out / "field.json").read_bytes() == target.read_bytes()
        assert load_result(out)[0] == res.config  # while the file exists, the config loads as saved
        target.unlink()
        report = verify_result(out)
        assert report.ok, report.mismatches

    def test_builtin_field_result_has_no_field_copy(self, tmp_path):
        out = save_result(run_experiment(small("rate")), tmp_path / "rate")
        assert not (out / "field.json").exists()

    def test_rate_series_files(self, tmp_path):
        res = run_experiment(small("rate"))
        out = save_result(res, tmp_path / "r")
        series = (out / "series_holder_error.csv").read_text().splitlines()
        assert series[0] == "x,y,q25,q75"
        assert len(series) == 1 + len(res.summary["ladder"])


# Every kind at tiny grids; each boundary value below is swept over every kind, since every
# config carries every field whether its kind reads it or not.
SWEEP_BASE = {
    "flow": dict(ladder=(8, 16), seeds=(0, 1), fine_n=64),
    "inverse": dict(ladder=(8, 16), seeds=(0, 1), fine_n=64, probe_seeds=3, probe_n=16),
    "rate": dict(ladder=(8, 16), seeds=(0, 1), fine_n=64),
    "init-continuity": dict(seeds=(0, 1), pair_count=3, solver_n=16, fine_n=64),
    "driver-continuity": dict(ladder=(8, 16), seeds=(0, 1), fine_n=64),
    "moments": dict(sample_counts=(4, 8), solver_n=16),
}
BOUNDARIES = {
    "hurst": (0.0, 0.5, 0.99, 1.0, NAN),
    "alpha": (0.0, 0.26, 0.49, 0.5, NAN),
    "theta": (0.0, 1e-9, 0.749, 0.75, NAN),
    "horizon": (0.0, 1e-9, 1e3, INF, NAN),
    "fine_n": (1, 2, 16, 48, 64.0, 64.5),
    "ladder": ((), (1,), (1, 2), (64,), (16, 8), (8.0, 16), (8.5, 16)),
    "seeds": ((), (0,), (0, 0), (-1,), (2**64 - 1,), (2**64,), (0.0, 1.0), (0.5, 1.7)),
    "coefficients": ("builtin:zero", "builtin:additive:0.5", "builtin:linear-drift:0.5",
                     "builtin:additive:0.5,1;0,1"),
    "initial_points": ((), ((0.0,),), ((1.0,), (-1.0,)), ((1e300,),), ((INF,),), ((1.0, 2.0),)),
    "lambda_weight": (None, 0.0, 600.0, 1e300, INF, -1.0),
    "solver_n": (0, 1, 2, 64, 48, 16.0, 16.5),
    "pair_count": (-1, 0, 1, 3.0, 2.5),
    "ball_radius": (0.0, 1e-300, 1e150, 1e151, INF, NAN),
    "probe_seeds": (-1, 0, 1, 3.0, 2.5),
    "probe_n": (0, 1, 2, 16.0, 16.5),
    "probe_fan": ((), (1.0,), (1.0, 1.0), (-1.0, 1.0), (0.0, INF)),
    "sample_counts": ((2, 3), (4,), (1, 4), (4, 4), (4.0, 8), (4, 8.5)),
    "moment_orders": ((), (0,), (1,), (-2,), (2.0,), (2.5,)),
    "exp_moment_gamma": (-1.0, 0.0, 1e-300, 3.0, INF, NAN),
    "exp_moment_lambda": (-1.0, 0.0, 1e300, INF, NAN),
    "moment_x0": (0.0, -1e300, INF, NAN),
    "tolerances": ({"slope_band": NAN}, {"ratio_spread": INF}, {"ratio_spread": -1.0}, {"exact_discrepancy": 0.0}),
}


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_boundary_configs_are_rejected_or_run_and_verify(kind, name, tmp_path):
    """Construction raises ValueError, or the run returns, round-trips through verify, and checks are bools."""
    for k, value in enumerate(BOUNDARIES[name]):
        try:
            cfg = default_config(kind, **{**SWEEP_BASE[kind], name: value})
        except ValueError:
            continue
        res = run_experiment(cfg)
        assert res.checks and all(type(v) is bool for v in res.checks.values()), (value, res.checks)
        report = verify_result(save_result(res, tmp_path / str(k)))
        assert report.ok, (value, report.mismatches)


def _quantile_samples():
    """Per n in 1 .. 300: distinct values, ties drawn from a pool with both zeros and both infinities, and the same with a NaN."""
    rng = np.random.default_rng(24)
    pool = np.array([-0.0, 0.0, -1.5, 1.5, 2.0, np.inf, -np.inf])
    for n in range(1, 301):
        tied = rng.choice(pool, n)
        with_nan = tied.copy()
        with_nan[rng.integers(n)] = np.nan
        yield from (rng.normal(size=n), tied, np.where(rng.random(n) < 0.5, -0.0, tied), with_nan)


def test_quantile_equals_numpy_byte_for_byte():
    def same(got, want):
        return np.float64(got).tobytes() == np.float64(want).tobytes()

    with np.errstate(invalid="ignore"):  # inf - inf in the interpolation, as in numpy's own
        for v in _quantile_samples():
            assert same(_quantile(v), np.median(v)), v
            assert same(_quantile(list(v)), np.median(v)), v
            for q in (25, 50, 75, 99):
                assert same(_quantile(v, q), np.percentile(v, q)), (q, v)
    assert np.isnan(_quantile([])) and np.isnan(_quantile([], 99))


def test_rate_and_driver_continuity_do_not_import_numpy_ma(tmp_path):
    # numpy's median and percentile import numpy.ma on their first call, which the summaries paid in peak memory
    probe = ("import sys; from flowlab.experiments import default_config, run_experiment; "
             "from flowlab.reporting import save_result, verify_result\n"
             "for kind, kw in (('rate', dict(ladder=(16, 32, 64), seeds=(0, 1, 2), fine_n=2**11)), "
             "('driver-continuity', dict(ladder=(16, 32, 64), seeds=(0, 1), fine_n=2**11, lambda_weight=5.0))):\n"
             f"    assert verify_result(save_result(run_experiment(default_config(kind, **kw)), {str(tmp_path)!r} + kind)).ok\n"
             "print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
