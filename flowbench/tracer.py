"""Outside-in tracing of flowlab's layers for the traced benchmark run.

The tracer wraps public flowlab functions from the outside: every module
attribute that holds the original function object, in the defining module
and in every module that imported it by name, is replaced by a wrapper
that records a span (name, start, end, parent) and, where the arguments
determine it, a computed operation count.  Spans stay in memory and are
written out once, when the run ends.  Nothing in ``src/`` is changed.

A span's self time is its duration minus the part of its interval that
its children cover; see ``self_times``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import inspect
import math
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

import numpy as np

PASS_SPAN = "bench.pass"
GATE_SPAN = "bench.gate"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    error: Optional[str] = None


def self_times(spans) -> list:
    """Self time of each span: duration minus the union of its children's
    intervals, each child clipped to the parent's interval."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, span.start), min(b, span.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append((span.end - span.start) - covered)
    return out


def root_of(spans) -> list:
    """Index of each span's root span (spans are stored in start order)."""
    roots = []
    for i, span in enumerate(spans):
        roots.append(i if span.parent is None else roots[span.parent])
    return roots


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list = []
        self.counts: list = []          # (span index, count name, value)
        self._stack: list = []
        self._patches: list = []        # (module, attribute, original)
        self.hook_errors: set = set()

    # -- recording ------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        self._stack.append(idx)
        return idx

    def close(self, idx: int, error: Optional[str] = None) -> None:
        self._stack.pop()
        name, start, _, parent, _ = self.spans[idx]
        self.spans[idx] = Span(name, start, time.perf_counter(), parent, error)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        error = None
        try:
            yield idx
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self.close(idx, error)

    def count(self, idx: int, name: str, value) -> None:
        self.counts.append((idx, name, value))

    def wrap(self, fn: Callable, name: str, namer=None, counter=None) -> Callable:
        """Wrapper recording one span per call of ``fn``.

        ``namer(arguments)`` may refine the span name and
        ``counter(arguments, result)`` returns computed counts, both from
        the bound call arguments (defaults applied).  A hook that no longer
        fits the function's signature is reported in ``hook_errors`` and
        skipped, so the call itself is never disturbed.
        """
        tracer = self
        signature = inspect.signature(fn) if (namer or counter) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            arguments = tracer._bind(signature, args, kwargs)
            span_name = (tracer._hook(name, namer, arguments) or name) if arguments is not None else name
            idx = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, type(exc).__name__)
                raise
            tracer.close(idx)
            if arguments is not None:
                for key, value in (tracer._hook(name, counter, arguments, result) or {}).items():
                    tracer.count(idx, key, value)
            return result

        return traced

    @staticmethod
    def _bind(signature, args, kwargs):
        if signature is None:
            return None
        try:
            bound = signature.bind(*args, **kwargs)
        except TypeError:
            return None  # the call itself raises
        bound.apply_defaults()
        return bound.arguments

    def _hook(self, name: str, hook, *hook_args):
        if hook is None:
            return None
        try:
            return hook(*hook_args)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            self.hook_errors.add(f"{name}: {type(exc).__name__}: {exc}")
            return None

    # -- patching -------------------------------------------------------

    def patch(self, original: Callable, wrapper: Callable) -> None:
        """Rebind ``original`` to ``wrapper`` in every loaded flowlab module:
        where it is defined and wherever it was imported by name."""
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == "flowlab" or name.startswith("flowlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def segment(self, lo: int, hi: int) -> tuple:
        """Spans lo..hi-1 with parents re-based to the slice, and their counts."""
        spans = [s._replace(parent=None if s.parent is None else s.parent - lo)
                 for s in self.spans[lo:hi]]
        counts = [(idx - lo, name, value) for idx, name, value in self.counts if lo <= idx < hi]
        return spans, counts

    # -- output ---------------------------------------------------------

    def write(self, path) -> None:
        """Write spans as CSV: index, name, start_s, end_s, parent, error."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "error"])
            for i, s in enumerate(self.spans):
                writer.writerow([i, s.name, repr(s.start - t0), repr(s.end - t0),
                                 "" if s.parent is None else s.parent, s.error or ""])


# ---------------------------------------------------------------------------
# what is traced, and the computed counts taken at each boundary
# ---------------------------------------------------------------------------


class Target(NamedTuple):
    module: str
    function: str
    span: str
    namer: Optional[Callable] = None
    counter: Optional[Callable] = None


def _grid_points(values) -> tuple:
    shape = np.shape(values)
    return shape[0] - 1, (shape[1] if len(shape) > 1 else 1)


def _fft_points(a, _):
    # increment_profile convolves each of d columns of length n+1 with an
    # (n+1)-point kernel: a linear convolution of 2n+1 points per column
    n, d = _grid_points(a["values"])
    return {"fft_points": (2 * n + 1) * d}


def _abs_pairs(a, _):
    # every (j, k) with 0 <= j < k <= n enters the absolute increment sum
    n, _ = _grid_points(a["values"])
    return {"pairs": n * (n + 1) // 2}


def _lambda_endpoint_count(g, endpoints) -> int:
    n = g.n_steps
    if endpoints == "all":
        return n - 1
    if endpoints == "decimated":
        return len(np.unique(np.linspace(2, n, math.ceil(math.sqrt(n))).round().astype(int)))
    return len(np.unique(np.asarray(list(endpoints), dtype=int)))


def _lambda_mode(a):
    mode = a["endpoints"] if isinstance(a["endpoints"], str) else "explicit"
    return f"fraccalc.lambda_alpha.{mode}"


def _lambda_endpoints(a, _):
    return {"endpoints": _lambda_endpoint_count(a["g"], a["endpoints"])}


def _sample_points(a, _):
    spec = a["spec"]
    return {"path_points": a.get("count", 1) * (spec.grid_size + 1) * spec.components}


def _batch(x0s) -> int:
    return np.atleast_2d(np.asarray(x0s, dtype=float)).shape[0]


def _forward_steps(a, _):
    driver = a["driver"]
    return {"path_steps": _batch(a["x0s"]) * (driver.n_steps - driver.index_of(a["r"]))}


def _backward_steps(a, _):
    return {"path_steps": _batch(a["x0s"]) * a["driver"].index_of(a["t_end"])}


def _saved_bytes(_, outdir):
    return {"bytes": sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())}


def _traced_parse_field(tracer: Tracer, parse_field: Callable) -> Callable:
    """``parse_field`` wrapper whose returned field traces its sigma and drift."""
    traced_parse = tracer.wrap(parse_field, "coefficients.parse_field")

    @functools.wraps(parse_field)
    def parse(*args, **kwargs):
        field = traced_parse(*args, **kwargs)
        return dataclasses.replace(
            field,
            sigma=tracer.wrap(field.sigma, "coefficients.sigma"),
            drift=tracer.wrap(field.drift, "coefficients.drift"),
        )

    return parse


TARGETS = (
    Target("flowlab.fbm", "sample_circulant", "fbm.sample", counter=_sample_points),
    Target("flowlab.fbm", "sample_cholesky", "fbm.sample", counter=_sample_points),
    Target("flowlab.fbm", "sample_paths", "fbm.sample", counter=_sample_points),
    Target("flowlab.fbm", "polygonal", "fbm.polygonal"),
    Target("flowlab.fbm", "holder_error", "fbm.holder_error"),
    Target("flowlab.fbm", "modulus_constant", "fbm.modulus_constant"),
    Target("flowlab.paths", "holder_seminorm", "paths.holder_seminorm"),
    Target("flowlab.paths", "w_alpha_lambda_norm", "paths.w_alpha_lambda_norm"),
    Target("flowlab.paths", "w_one_minus_alpha_norm", "paths.w_one_minus_alpha_norm"),
    Target("flowlab.paths", "f_alpha_one_norm", "paths.f_alpha_one_norm"),
    Target("flowlab.quadrature", "increment_profile", "quadrature.increment_profile", counter=_fft_points),
    Target("flowlab.quadrature", "abs_increment_profile", "quadrature.abs_increment_profile", counter=_abs_pairs),
    Target("flowlab.quadrature", "cell_weights", "quadrature.cell_weights"),
    Target("flowlab.fraccalc", "lambda_alpha", "fraccalc.lambda_alpha",
           namer=_lambda_mode, counter=_lambda_endpoints),
    Target("flowlab.fraccalc", "lambda_alpha_report", "fraccalc.lambda_alpha_report", counter=_lambda_endpoints),
    Target("flowlab.young", "rs_integral", "young.rs_integral"),
    Target("flowlab.young", "zahle_integral", "young.zahle_integral"),
    Target("flowlab.young", "young_bound_check", "young.young_bound_check"),
    Target("flowlab.sde", "solve_forward_batch", "sde.solve_forward_batch", counter=_forward_steps),
    Target("flowlab.sde", "solve_backward_batch", "sde.solve_backward_batch", counter=_backward_steps),
    Target("flowlab.experiments", "run_experiment", "experiments.run_experiment"),
    Target("flowlab.experiments", "summarize", "experiments.summarize"),
    Target("flowlab.reporting", "save_result", "reporting.save_result", counter=_saved_bytes),
    Target("flowlab.reporting", "verify_result", "reporting.verify_result"),
)


def _defined(module: str, function: str):
    home = sys.modules.get(module)
    return getattr(home, function, None) if home is not None else None


def install(tracer: Tracer) -> None:
    """Patch every target, plus ``parse_field`` so that fields trace their callables.

    A target the layer no longer defines is skipped; its metrics read 0.
    """
    for t in TARGETS:
        original = _defined(t.module, t.function)
        if original is not None:
            tracer.patch(original, tracer.wrap(original, t.span, t.namer, t.counter))
    original = _defined("flowlab.coefficients", "parse_field")
    if original is not None:
        tracer.patch(original, _traced_parse_field(tracer, original))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

LAYERS = ("fbm", "paths", "quadrature", "fraccalc", "young", "coefficients", "sde",
          "experiments", "reporting", "bench")

IMPORT_MODULES = ("flowlab", "flowlab.errors", "flowlab.quadrature", "flowlab.paths", "flowlab.fbm",
                  "flowlab.fraccalc", "flowlab.young", "flowlab.coefficients", "flowlab.sde",
                  "flowlab.experiments", "flowlab.reporting", "flowlab.cli")

_SPAN_METRICS = (
    ("fbm.sample", ("calls", "self_s", "path_points")),
    ("fbm.polygonal", ("self_s",)),
    ("fbm.holder_error", ("self_s",)),
    ("fbm.modulus_constant", ("self_s",)),
    ("paths.holder_seminorm", ("calls", "self_s")),
    ("paths.w_alpha_lambda_norm", ("calls", "self_s")),
    ("paths.w_one_minus_alpha_norm", ("self_s",)),
    ("paths.f_alpha_one_norm", ("self_s",)),
    ("quadrature.increment_profile", ("calls", "self_s", "fft_points")),
    ("quadrature.abs_increment_profile", ("calls", "self_s", "pairs")),
    ("quadrature.cell_weights", ("calls", "self_s")),
    ("fraccalc.lambda_alpha.decimated", ("calls", "self_s", "total_s", "endpoints")),
    ("fraccalc.lambda_alpha.all", ("calls", "self_s", "total_s", "endpoints")),
    ("fraccalc.lambda_alpha_report", ("self_s", "total_s", "endpoints")),
    ("young.rs_integral", ("self_s",)),
    ("young.zahle_integral", ("self_s",)),
    ("young.young_bound_check", ("self_s", "total_s")),
    ("coefficients.sigma", ("calls", "self_s")),
    ("coefficients.drift", ("calls", "self_s")),
    ("coefficients.parse_field", ("calls",)),
    ("sde.solve_forward_batch", ("calls", "self_s")),
    ("sde.solve_backward_batch", ("calls", "self_s")),
    ("experiments.run_experiment", ("self_s", "total_s")),
    ("experiments.summarize", ("self_s",)),
    ("reporting.save_result", ("self_s", "bytes")),
)

_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "path_points": "count", "fft_points": "count",
          "pairs": "count", "endpoints": "count", "bytes": "B"}


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for span, fields in _SPAN_METRICS:
        for f in fields:
            units[f"{span}.{f}"] = _UNITS[f]
    units.update({
        "sde.path_steps": "count",
        "sde.us_per_path_step": "us",
        "sde.blowups": "count",
        "experiments.records": "count",
        "experiments.error_records": "count",
        "reporting.verify_result.self_s": "s",
    })
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
                  "trace.spans": "count"})
    units.update({f"import.{m}.cumulative_s": "s" for m in IMPORT_MODULES})
    return units


_SOLVES = ("sde.solve_forward_batch", "sde.solve_backward_batch")


def pass_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced pass.

    ``spans`` holds one ``bench.pass`` root (the timed campaigns) and one
    ``bench.gate`` root (verification); ``counts`` refers to span indices.
    Call, time and count metrics come from spans under the pass root;
    ``reporting.verify_result.self_s`` comes from the gate.
    """
    selfs = self_times(spans)
    roots = root_of(spans)
    in_pass = [spans[r].name == PASS_SPAN for r in roots]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    inclusive = defaultdict(float)
    totals = defaultdict(float)
    blowups = 0
    verify_s = 0.0
    for i, span in enumerate(spans):
        if not in_pass[i]:
            if span.name == "reporting.verify_result":
                verify_s += span.end - span.start
            continue
        calls[span.name] += 1
        self_s[span.name] += selfs[i]
        inclusive[span.name] += span.end - span.start
        layer = span.name.split(".", 1)[0]
        totals[layer] += selfs[i]
        if span.name in _SOLVES and span.error == "BlowUpError":
            blowups += 1
    counted = defaultdict(int)
    for idx, name, value in counts:
        if in_pass[idx]:
            counted[f"{spans[idx].name}.{name}"] += value
    out = {}
    for span, fields in _SPAN_METRICS:
        for f in fields:
            key = f"{span}.{f}"
            if f == "calls":
                out[key] = calls[span]
            elif f == "self_s":
                out[key] = self_s[span]
            elif f == "total_s":
                out[key] = inclusive[span]
            else:
                out[key] = counted[key]
    steps = sum(counted[f"{s}.path_steps"] for s in _SOLVES)
    out["sde.path_steps"] = steps
    out["sde.us_per_path_step"] = 1e6 * sum(inclusive[s] for s in _SOLVES) / steps if steps else 0.0
    out["sde.blowups"] = blowups
    out["reporting.verify_result.self_s"] = verify_s
    out.update({f"{layer}.self_s": totals[layer] for layer in LAYERS})
    out["trace.spans"] = len(spans)
    return out


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over passes (computed counts repeat, so they pass through)."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of each flowlab module from ``python -X importtime``."""
    out = {m: 0.0 for m in IMPORT_MODULES}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) != 3 or parts[2] not in out:
            continue
        out[parts[2]] = int(parts[1]) / 1e6
    return {f"import.{m}.cumulative_s": v for m, v in out.items()}
