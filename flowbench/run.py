"""flowlab benchmark: end-to-end and per-layer metrics of four campaign workloads.

    python3 flowbench/run.py --workload rate --seed 0 --seconds 15 --trace 0
    python3 flowbench/run.py --workload all --seconds 15 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics, measured with
no tracing: ``setup_s`` (median of fresh interpreters that import
``flowlab.cli`` and build the workload's configs), ``wall_s`` (median
pass time, first campaign call to last ``save_result``) and
``peak_rss_mb`` (peak resident set of the workload process).  With
``--trace 1`` it reports the per-layer metrics of a separate traced
process, the per-module import times, and the tracing overhead.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
``--workload all`` prints the summary line of every workload instead.
Exit status: 0 when the correctness gate passes, 1 when it
fails, 2 when a run cannot be completed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer  # numpy only: this process never imports flowlab

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("rate", "flows", "continuity", "pathwise")

SETUP_PROBES = 3          # fresh interpreters per run; setup_s is their median
MIN_PASSES = 3            # untraced passes per run, even when a pass outlasts --seconds
TRACE_MIN_PASSES = 2      # per process (untraced and traced) in a --trace 1 run
WORKER_TIMEOUT_S = 140.0  # a run must end within 180 s
PROBE_TIMEOUT_S = 30.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    threads = str(len(os.sched_getaffinity(0)))  # BLAS threads at most the usable CPUs
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _python(args: list, timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """Run a child interpreter in the checkout; it is killed and reaped on timeout."""
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(), text=True,
                              timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args[:3])} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, args[:3]))} exited with status {proc.returncode}")
    return proc


def _worker(workload: str, seed: int, seconds: float, min_passes: int, traced: bool = False) -> dict:
    args = [str(WORKER), "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--min-passes", str(min_passes)]
    proc = _python(args + (["--traced"] if traced else []), WORKER_TIMEOUT_S, stdout=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker for {workload} printed no result")
    return json.loads(lines[-1])


def _setup_seconds(workload: str, seed: int) -> float:
    started = time.perf_counter()
    _python([str(WORKER), "--workload", workload, "--seed", str(seed), "--setup-only"], PROBE_TIMEOUT_S)
    return time.perf_counter() - started


def _import_times() -> dict:
    proc = _python(["-X", "importtime", "-c", "import flowlab.cli"], PROBE_TIMEOUT_S, stderr=subprocess.PIPE)
    return tracer.parse_importtime(proc.stderr)


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _describe(name: str, values: list, unit: str) -> str:
    q25, q75 = _quartiles(values)
    return (f"{name} median {statistics.median(values):.4f} {unit} "
            f"(q25 {q25:.4f}, q75 {q75:.4f}, {len(values)} samples)")


def end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    """Untraced run: (result document, summary line, gate problems)."""
    w = _worker(workload, seed, seconds, MIN_PASSES)
    setups = [_setup_seconds(workload, seed) for _ in range(SETUP_PROBES)]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(w["wall_s"]),
        "peak_rss_mb": w["peak_rss_mb"],
    }
    doc = {
        "correct": not w["problems"],
        "attempted": w["attempted"],
        "failed": w["failed"],
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()},
    }
    frac = w["failed"] / max(w["attempted"], 1)
    line = (f"{workload} seed {seed}: " + _describe("wall_s", w["wall_s"], "s") + "; "
            + _describe("setup_s", setups, "s") + f"; peak_rss_mb {w['peak_rss_mb']:.1f} MB; "
            f"error_cells_frac {frac:.4g} ({w['failed']}/{w['attempted']} cells)")
    return doc, line, w["problems"]


def per_layer(workload: str, seed: int, seconds: float) -> tuple:
    """Traced run in its own process, beside an untraced one for the overhead."""
    imports = _import_times()
    plain = _worker(workload, seed, seconds / 2, TRACE_MIN_PASSES)
    traced = _worker(workload, seed, seconds / 2, TRACE_MIN_PASSES, traced=True)
    for warning in traced["trace_warnings"]:
        print(f"trace: count not taken: {warning}", file=sys.stderr)
    values = dict(traced["layers"])
    values.update(imports)
    values["trace.untraced_wall_s"] = statistics.median(plain["wall_s"])
    values["trace.wall_s"] = statistics.median(traced["wall_s"])
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    units = tracer.metric_units()
    doc = {
        "correct": not (plain["problems"] or traced["problems"]),
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    line = (f"{workload} seed {seed} traced: wall_s {values['trace.wall_s']:.4f} s against "
            f"{values['trace.untraced_wall_s']:.4f} s untraced (overhead {values['trace.overhead_s']:+.4f} s); "
            f"spans in {traced['spans_file']}")
    return doc, line, plain["problems"] + traced["problems"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flowlab" / "__init__.py").is_file():
        print(f"error: no flowlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            doc, line, problems = measure(workload, args.seed, args.seconds)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for p in problems[:20]:
            print(f"gate: {p}", file=sys.stderr)
        print(line)
        status = status or (0 if doc["correct"] else 1)
    if args.workload != "all":
        print(json.dumps(doc))
    return status


if __name__ == "__main__":
    sys.exit(main())
