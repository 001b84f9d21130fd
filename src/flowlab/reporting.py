"""Result persistence: per-record CSV, summary JSON, plot-ready series, verification.

Record files are the source of truth: identical configs reproduce them
bit-for-bit (floats are written with exact-roundtrip repr), and ``verify``
re-derives the summary and checks from the records alone and compares
against the stored summary.  A ``file:`` coefficient field is copied into
the result as ``field.json``, so the result stays verifiable after the
original file is moved or deleted.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from . import __version__
from .experiments import ExperimentConfig, ExperimentResult, evaluate_checks, summarize

__all__ = ["save_result", "load_result", "verify_result", "iter_series", "VerifyReport"]

_REL_TOL = 1e-10
_FIELD_COPY = "field.json"  # a file: field's declaration, saved with its result


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_cell(text: str):
    try:
        as_float = float(text)
    except ValueError:
        return text
    if text.isdigit() or (text.startswith("-") and text[1:].isdigit()):
        return int(text)
    return as_float


def save_result(result: ExperimentResult, outdir: Union[str, Path]) -> Path:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w") as fh:
        json.dump(result.config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if result.config.coefficients.startswith("file:"):
        shutil.copyfile(result.config.coefficients.split(":", 1)[1], out / _FIELD_COPY)
    columns = sorted({k for rec in result.records for k in rec})
    with open(out / "records.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in result.records:
            writer.writerow([_format_cell(rec.get(col, "")) for col in columns])
    doc = {
        "version": __version__,
        "kind": result.config.kind,
        "summary": result.summary,
        "checks": result.checks,
        "passed": result.passed,
        "wall_time": result.wall_time,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    for name, rows in iter_series(result.config.kind, result.summary):
        with open(out / f"series_{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "q25", "q75"])
            for row in rows:
                writer.writerow([_format_cell(v) for v in row])
    return out


def iter_series(kind: str, summary: dict):
    """Plot-ready (x, y, q25, q75) series extracted from a summary."""
    if kind == "rate":
        ladder = summary["ladder"]
        yield "holder_error", list(zip(ladder, summary["median_error"], summary["q25"], summary["q75"]))
        yield "lambda_diff", [(n, v, "", "") for n, v in zip(ladder, summary["median_lambda_diff"])]
        yield "lambda_coarse", [(n, v, "", "") for n, v in zip(ladder, summary["median_lambda_coarse"])]
    elif kind in ("flow", "inverse"):
        ladder = summary["ladder"]
        yield "median_discrepancy", [(n, v, "", "") for n, v in zip(ladder, summary["median_pooled"])]
    elif kind == "driver-continuity":
        ladder = summary["ladder"]
        yield "sol_gap", [(n, v, "", "") for n, v in zip(ladder, summary["median_sol_gap"])]
        yield "lambda_gap", [(n, v, "", "") for n, v in zip(ladder, summary["median_lambda_gap"])]


def load_result(outdir: Union[str, Path]) -> tuple[ExperimentConfig, list, dict]:
    """Config, records and stored summary of a saved result.

    A ``file:`` field whose declaration file is gone is read from the
    result's copy ``field.json``, and the config then names that copy.
    While the file exists the config is exactly as saved, so two results
    of one campaign still compare equal.
    """
    out = Path(outdir)
    with open(out / "config.json") as fh:
        doc = json.load(fh)
    spec = doc.get("coefficients", "")
    if spec.startswith("file:") and not Path(spec[5:]).is_file() and (out / _FIELD_COPY).is_file():
        doc["coefficients"] = f"file:{out / _FIELD_COPY}"
    config = ExperimentConfig.from_dict(doc)
    with open(out / "records.csv", newline="") as fh:
        reader = csv.reader(fh)
        columns = next(reader)
        records = [dict(zip(columns, (_parse_cell(cell) for cell in row))) for row in reader]
    with open(out / "summary.json") as fh:
        stored = json.load(fh)
    return config, records, stored


@dataclass
class VerifyReport:
    ok: bool
    mismatches: list

    def __str__(self):
        if self.ok:
            return "verify: summary and checks reproduce from the records"
        lines = "\n  ".join(self.mismatches[:20])
        return f"verify: {len(self.mismatches)} mismatches\n  {lines}"


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        fa, fb = float(a), float(b)
        if math.isnan(fa) and math.isnan(fb):
            return True
        return math.isclose(fa, fb, rel_tol=_REL_TOL, abs_tol=1e-300)
    return a == b


def _compare(path: str, stored, fresh, mismatches: list) -> None:
    if isinstance(stored, dict) and isinstance(fresh, dict):
        for key in sorted(set(stored) | set(fresh)):
            if key not in stored or key not in fresh:
                mismatches.append(f"{path}.{key}: present on one side only")
                continue
            _compare(f"{path}.{key}", stored[key], fresh[key], mismatches)
    elif isinstance(stored, list) and isinstance(fresh, list):
        if len(stored) != len(fresh):
            mismatches.append(f"{path}: length {len(stored)} != {len(fresh)}")
            return
        for i, (a, b) in enumerate(zip(stored, fresh)):
            _compare(f"{path}[{i}]", a, b, mismatches)
    elif isinstance(stored, (int, float)) and isinstance(fresh, (int, float)) and not isinstance(stored, bool) and not isinstance(fresh, bool):
        if not _close(stored, fresh):
            mismatches.append(f"{path}: {stored!r} != {fresh!r}")
    elif stored is None and isinstance(fresh, float) and math.isnan(fresh):
        pass  # JSON stores NaN-valued summaries as null
    elif fresh is None and isinstance(stored, float) and math.isnan(stored):
        pass
    elif stored != fresh:
        mismatches.append(f"{path}: {stored!r} != {fresh!r}")


def verify_result(outdir: Union[str, Path]) -> VerifyReport:
    """Re-derive summary statistics and checks from persisted records and compare."""
    config, records, stored = load_result(outdir)
    fresh_summary = summarize(config, records)
    fresh_checks = evaluate_checks(config, fresh_summary)
    mismatches: list = []
    _compare("summary", stored.get("summary"), fresh_summary, mismatches)
    _compare("checks", stored.get("checks"), fresh_checks, mismatches)
    return VerifyReport(ok=not mismatches, mismatches=mismatches)
