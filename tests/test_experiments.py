"""Experiment campaigns at reduced scale, persistence, and verification."""

import json

import numpy as np
import pytest

from flowlab.experiments import (
    ExperimentConfig,
    ExperimentResult,
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
    from flowlab.sde import SolverConfig, solve_backward_batch, solve_forward_batch

    cfg = SolverConfig(config.alpha, fine.n_steps, config.hurst)
    x = np.asarray(x, dtype=float)[None, :]
    fwd = solve_forward_batch(x, r, c, fine, cfg)[0][fine.index_of(t) - fine.index_of(r)]
    bwd = solve_backward_batch(x, t, c, fine, cfg)[0][fine.index_of(r)] if t > 0.0 else x[0]
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
        ref_fwd, ref_bwd = experiments._reference_maps(cfg, c, fines, marks, x0s)
        for q, fine in enumerate(fines):  # two seeds share each reference pass
            for a in range(len(marks)):
                for b in range(a, len(marks)):
                    for i, x in enumerate(x0s):
                        want_fwd, want_bwd = _per_cell_reference(cfg, c, fine, marks[a], marks[b], x)
                        got_fwd = ref_fwd(q, a, b, i)
                        got_bwd = ref_bwd(q, a, b, i) if b > 0 else x  # no backward member ends at t = 0
                        if bitwise:
                            assert np.array_equal(got_fwd, want_fwd)
                            assert np.array_equal(got_bwd, want_bwd)
                        else:
                            np.testing.assert_allclose(got_fwd, want_fwd, rtol=1e-12, atol=0.0)
                            np.testing.assert_allclose(got_bwd, want_bwd, rtol=1e-12, atol=0.0)

    def test_reference_is_two_fine_passes_per_seed(self, monkeypatch):
        import flowlab.experiments as experiments

        fine_n = 2**10
        real = experiments._flow_marks
        fine_passes, solves = [], []

        def counting(x0s, starts, marks, c, driver, cfg, backward=False):
            if driver.n_steps == fine_n:
                fine_passes.append(backward)
            return real(x0s, starts, marks, c, driver, cfg, backward=backward)

        def no_solve(*args, **kwargs):
            solves.append(None)
            raise AssertionError("the flow reference made a per-cell solve")

        monkeypatch.setattr(experiments, "_flow_marks", counting)
        monkeypatch.setattr(experiments, "solve_forward_batch", no_solve)
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

    def test_init_geometric_bounded(self):
        res = run_experiment(small("init-continuity"))
        assert res.summary["ratio_spread"] <= 10.0
        assert res.passed

    def test_init_failures_become_error_records(self, monkeypatch):
        import flowlab.experiments as experiments

        real = experiments.w_alpha_lambda_norm
        calls = []

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise FloatingPointError("injected norm failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "w_alpha_lambda_norm", flaky)
        cfg = small("init-continuity")
        res = run_experiment(cfg)
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

    def test_rate_series_files(self, tmp_path):
        res = run_experiment(small("rate"))
        out = save_result(res, tmp_path / "r")
        series = (out / "series_holder_error.csv").read_text().splitlines()
        assert series[0] == "x,y,q25,q75"
        assert len(series) == 1 + len(res.summary["ladder"])
