import csv
import shutil

import pytest

import gate


def _perturb_first_value(records_csv, column, rel):
    with open(records_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[1][col] = repr(float(rows[1][col]) * (1.0 + rel))
    with open(records_csv, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture
def rate_copy(tmp_path):
    ref = gate.REFERENCE_ROOT / "rate" / "rate"
    copy = tmp_path / "rate"
    shutil.copytree(ref, copy)
    return ref, copy


def test_reference_matches_itself(rate_copy):
    ref, copy = rate_copy
    assert gate.compare_campaign("rate", ref, copy) == []


def test_gate_rejects_a_record_perturbed_by_1e_8(rate_copy):
    ref, copy = rate_copy
    _perturb_first_value(copy / "records.csv", "lambda_coarse", 1e-8)
    problems = gate.compare_campaign("rate", ref, copy)
    assert len(problems) == 1 and "lambda_coarse" in problems[0]
    checker = gate.Gate("rate", gate.DEFAULT_SEED, ["rate"])
    assert checker.check({"rate": copy})


def test_gate_accepts_differences_within_verify_tolerance(rate_copy):
    ref, copy = rate_copy
    _perturb_first_value(copy / "records.csv", "lambda_coarse", 1e-12)
    assert gate.compare_campaign("rate", ref, copy) == []


def test_gate_flags_a_changed_check_outcome(rate_copy):
    ref, copy = rate_copy
    text = (copy / "summary.json").read_text()
    (copy / "summary.json").write_text(text.replace('"slope_within_band": true', '"slope_within_band": false'))
    assert any("checks" in p for p in gate.compare_campaign("rate", ref, copy))


def test_other_seeds_require_identical_repeats(rate_copy, tmp_path):
    ref, copy = rate_copy
    checker = gate.Gate("rate", 7, ["rate"])
    assert checker.check({"rate": ref}) == []
    _perturb_first_value(copy / "records.csv", "holder_error", 1e-15)
    assert any("differ from the first pass" in p for p in checker.check({"rate": copy}))


def test_trajectory_outputs_compare_numerically(tmp_path):
    ref = gate.REFERENCE_ROOT / "pathwise" / gate.TRAJECTORY_LABEL
    copy = tmp_path / "trajectories"
    shutil.copytree(ref, copy)
    assert gate.compare_trajectories(ref, copy) == []
    _perturb_first_value(copy / "solution.csv", "x1", 1e-8)
    assert gate.compare_trajectories(ref, copy)
