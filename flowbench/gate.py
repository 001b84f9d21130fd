"""Correctness gate of the benchmark.

Every persisted campaign result must pass ``verify_result``.  At the
default workload seed the first pass must also match the committed
reference outputs under ``reference/<workload>/``: records and the
per-trajectory outputs within verify's relative tolerance (1e-10), the
config exactly, and every check outcome exactly (a check that is false at
the reduced seed counts is pinned false, not skipped).  At every seed each
later pass must reproduce the first pass's records byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from flowlab import reporting

from workloads import DEFAULT_SEED, TRAJECTORY_LABEL

REL_TOL = 1e-10
REFERENCE_ROOT = Path(__file__).resolve().parent / "reference"


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(where: str, expected, actual, out: list) -> None:
    """Append a line to ``out`` for every difference; numbers agree within REL_TOL."""
    if len(out) >= 20:
        return
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual), key=str):
            if key not in expected or key not in actual:
                out.append(f"{where}.{key}: present on one side only")
            else:
                compare(f"{where}.{key}", expected[key], actual[key], out)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(f"{where}: length {len(expected)} != {len(actual)}")
            return
        for i, (a, b) in enumerate(zip(expected, actual)):
            compare(f"{where}[{i}]", a, b, out)
    elif _is_number(expected) and _is_number(actual):
        a, b = float(expected), float(actual)
        if not (math.isnan(a) and math.isnan(b)) and not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300):
            out.append(f"{where}: {expected!r} != {actual!r}")
    elif expected != actual:
        out.append(f"{where}: {expected!r} != {actual!r}")


def _csv_numbers(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [rows[0]] + [[float(v) for v in row] for row in rows[1:]]


def compare_campaign(label: str, expected_dir: Path, actual_dir: Path) -> list:
    """Differences between two persisted campaign results: config, records, checks."""
    out: list = []
    exp_config, exp_records, exp_stored = reporting.load_result(expected_dir)
    act_config, act_records, act_stored = reporting.load_result(actual_dir)
    compare(f"{label}.config", exp_config.to_dict(), act_config.to_dict(), out)
    compare(f"{label}.records", exp_records, act_records, out)
    if exp_stored.get("checks") != act_stored.get("checks"):
        out.append(f"{label}.checks: {exp_stored.get('checks')} != {act_stored.get('checks')}")
    return out


def compare_trajectories(expected_dir: Path, actual_dir: Path) -> list:
    """Differences between two sets of per-trajectory outputs (JSON and CSV)."""
    out: list = []
    names = sorted({p.name for p in expected_dir.iterdir()} | {p.name for p in actual_dir.iterdir()})
    for name in names:
        exp, act = expected_dir / name, actual_dir / name
        where = f"{TRAJECTORY_LABEL}/{name}"
        if not (exp.is_file() and act.is_file()):
            out.append(f"{where}: present on one side only")
        elif name.endswith(".json"):
            compare(where, json.loads(exp.read_text()), json.loads(act.read_text()), out)
        else:
            compare(where, _csv_numbers(exp), _csv_numbers(act), out)
    return out


def _fingerprint(label: str, outdir: Path) -> dict:
    if label == TRAJECTORY_LABEL:
        return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    return {"records.csv": (outdir / "records.csv").read_bytes()}


class Gate:
    """Checks each pass of one run; keeps the first pass's records."""

    def __init__(self, workload: str, seed: int, labels):
        self.labels = list(labels)
        self.reference = REFERENCE_ROOT / workload if seed == DEFAULT_SEED else None
        self.first = None

    def check(self, outputs: dict) -> list:
        problems = [f"{label}: no output" for label in self.labels if label not in outputs]
        for label, outdir in outputs.items():
            if label != TRAJECTORY_LABEL:
                report = reporting.verify_result(outdir)
                if not report.ok:
                    problems.append(f"{label}: {report}")
        prints = {label: _fingerprint(label, d) for label, d in outputs.items()}
        if self.first is None:
            self.first = prints
            if self.reference is not None:
                problems += self._against_reference(outputs)
        elif prints != self.first:
            changed = sorted(k for k in set(prints) | set(self.first) if prints.get(k) != self.first.get(k))
            problems.append(f"records differ from the first pass of this run: {changed}")
        return problems

    def _against_reference(self, outputs: dict) -> list:
        problems = []
        for label, outdir in outputs.items():
            ref = self.reference / label
            if not ref.is_dir():
                problems.append(f"{label}: no reference output at {ref}")
            elif label == TRAJECTORY_LABEL:
                problems += compare_trajectories(ref, outdir)
            else:
                problems += compare_campaign(label, ref, outdir)
        return problems
