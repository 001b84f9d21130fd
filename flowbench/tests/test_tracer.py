import json
import sys

import pytest

import tracer as tracing
from tracer import Span


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("c", 8.0, 12.0, 0),      # overlaps b and outlives the root: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 4.0])


def test_pass_layer_self_times_partition_the_pass():
    spans = [
        Span(tracing.PASS_SPAN, 0.0, 10.0, None),
        Span("fraccalc.lambda_alpha.decimated", 1.0, 6.0, 0),
        Span("quadrature.increment_profile", 2.0, 5.0, 1),
        Span("sde.solve_forward_batch", 6.5, 9.0, 0, "BlowUpError"),
        Span("coefficients.sigma", 7.0, 7.5, 3),
        Span(tracing.GATE_SPAN, 10.0, 11.0, None),
        Span("reporting.verify_result", 10.2, 10.8, 5),
    ]
    counts = [(1, "endpoints", 91), (2, "fft_points", 16385), (3, "path_steps", 40)]
    m = tracing.pass_metrics(spans, counts)
    assert sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) == pytest.approx(10.0)
    assert m["quadrature.self_s"] == pytest.approx(3.0)
    assert m["fraccalc.lambda_alpha.decimated.self_s"] == pytest.approx(2.0)
    assert m["fraccalc.lambda_alpha.decimated.endpoints"] == 91
    assert m["sde.path_steps"] == 40
    assert m["sde.us_per_path_step"] == pytest.approx(2.5e6 / 40)
    assert m["sde.blowups"] == 1
    assert m["reporting.verify_result.self_s"] == pytest.approx(0.6)
    assert m["reporting.save_result.self_s"] == 0.0


def test_computed_counts_follow_argument_shapes():
    from flowlab import fbm, quadrature

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        path = fbm.sample_circulant(fbm.FbmSpec(0.75, 2, 1.0, 64, 3)).path
        quadrature.increment_profile(path.values, -1.3, path.step)
        quadrature.abs_increment_profile(path.values, -1.3, path.step)
        fbm.sample_paths(fbm.FbmSpec(0.75, 1, 1.0, 16, 0), 5)
    finally:
        tracer.uninstall()
    counted = [(tracer.spans[i].name, k, v) for i, k, v in tracer.counts]
    assert counted == [
        ("fbm.sample", "path_points", 65 * 2),
        ("quadrature.increment_profile", "fft_points", 129 * 2),
        ("quadrature.abs_increment_profile", "pairs", 64 * 65 // 2),
        ("fbm.sample", "path_points", 5 * 17),
    ]


def _flowlab_bindings() -> dict:
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if module is not None and (name == "flowlab" or name.startswith("flowlab."))
            for attr, value in vars(module).items()}


def test_traced_run_restores_every_patched_name():
    import worker

    before = _flowlab_bindings()
    out = worker.run("rate", seed=0, seconds=0.0, min_passes=1, traced=True)
    after = _flowlab_bindings()
    assert out["problems"] == []
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    layers = out["layers"]
    # names patched where they are looked up: experiments.lambda_alpha, fraccalc.increment_profile
    assert layers["fraccalc.lambda_alpha.decimated.calls"] == 24
    assert layers["quadrature.increment_profile.calls"] > 0
    assert layers["sde.path_steps"] == 0
    assert layers["quadrature.abs_increment_profile.calls"] == 0


def test_benchmark_json_lists_every_reported_metric():
    import run

    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.metric_units()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_importtime_parsing():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        120 |     flowlab.errors\n"
        "import time:      2000 |    1339000 |   flowlab.quadrature\n"
    )
    m = tracing.parse_importtime(stderr)
    assert m["import.flowlab.errors.cumulative_s"] == pytest.approx(120e-6)
    assert m["import.flowlab.quadrature.cumulative_s"] == pytest.approx(1.339)
    assert m["import.flowlab.cli.cumulative_s"] == 0.0


def test_a_hook_that_no_longer_fits_is_reported_not_fatal():
    tracer = tracing.Tracer()

    def solve(x0, r):
        return x0 + r

    wrapped = tracer.wrap(solve, "sde.solve_forward_batch", counter=tracing._forward_steps)
    assert wrapped(1.0, 2.0) == 3.0
    assert tracer.counts == []
    assert [s.name for s in tracer.spans] == ["sde.solve_forward_batch"]
    assert len(tracer.hook_errors) == 1
