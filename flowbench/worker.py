"""Run one benchmark workload in this process and print its measurements.

    python3 flowbench/worker.py --workload rate --seed 0 --seconds 15 [--traced]
    python3 flowbench/worker.py --workload rate --seed 0 --setup-only
    python3 flowbench/worker.py --workload rate --write-reference

Passes (every campaign of the workload, run and persisted once) repeat
until ``--seconds`` have passed and at least ``--min-passes`` are done;
each pass is then checked by the gate.  The last stdout line is one JSON
object.  ``run.py`` starts this script: untraced for the end-to-end
metrics, and separately with ``--traced`` for the per-layer metrics, so
untraced timings never see a wrapper.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import workloads  # noqa: I001  (imports flowlab from the checkout's src/)
import gate
import tracer as tracing

WORK_ROOT = workloads.ROOT / ".flowbench_work"


def _labels(wl) -> list:
    labels = [label for label, _ in wl.campaigns]
    return labels + [workloads.TRAJECTORY_LABEL] if wl.trajectory_seeds else labels


def run(name: str, seed: int, seconds: float, min_passes: int, traced: bool) -> dict:
    wl = workloads.build(name, seed)
    checker = gate.Gate(name, seed, _labels(wl))
    tracer = tracing.Tracer() if traced else None
    passes, boundaries, problems = [], [], []
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-seed{seed}-", dir=WORK_ROOT))
    if tracer is not None:
        tracing.install(tracer)
    scope = tracer.span if tracer is not None else lambda _: contextlib.nullcontext()
    try:
        deadline = time.perf_counter() + seconds
        while len(passes) < min_passes or time.perf_counter() < deadline:
            outdir = work / f"pass{len(passes)}"
            if tracer is not None:
                boundaries.append(len(tracer.spans))
            with scope(tracing.PASS_SPAN):
                res = workloads.run_pass(wl, outdir)
            with scope(tracing.GATE_SPAN):
                res.problems += checker.check(res.outputs)
            passes.append(res)
            problems += [f"pass {len(passes) - 1}: {p}" for p in res.problems]
            shutil.rmtree(outdir, ignore_errors=True)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    out = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "wall_s": [p.wall_s for p in passes],
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        boundaries.append(len(tracer.spans))
        per_pass = []
        for p, lo, hi in zip(passes, boundaries, boundaries[1:]):
            metrics = tracing.pass_metrics(*tracer.segment(lo, hi))
            metrics["experiments.records"] = p.records
            metrics["experiments.error_records"] = p.error_records
            per_pass.append(metrics)
        out["layers"] = tracing.median_metrics(per_pass)
        out["trace_warnings"] = sorted(tracer.hook_errors)
        trace_dir = WORK_ROOT / "trace"
        trace_dir.mkdir(exist_ok=True)
        out["spans_file"] = str(trace_dir / f"{name}-seed{seed}-spans.csv")
        tracer.write(out["spans_file"])
    return out


def write_reference(name: str) -> None:
    """Persist one pass at the default seed as the committed reference outputs."""
    target = gate.REFERENCE_ROOT / name
    shutil.rmtree(target, ignore_errors=True)
    res = workloads.run_pass(workloads.build(name, workloads.DEFAULT_SEED), target)
    if res.problems:
        raise SystemExit(f"reference pass failed: {res.problems}")
    print(f"wrote {target}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--min-passes", type=int, default=3)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="import and build the workload, then exit")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        workloads.build(args.workload, args.seed)
        return 0
    if args.write_reference:
        write_reference(args.workload)
        return 0
    out = run(args.workload, args.seed, args.seconds, args.min_passes, args.traced)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
