"""End-to-end command-line runs through the public entry point."""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowlab
from flowlab import fbm
from flowlab.cli import main
from flowlab.paths import GridPath


def run_cli(*argv):
    return main(list(argv))


class TestFbmCommands:
    def test_sample_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "path.csv"
        code = run_cli("fbm", "sample", "--hurst", "0.75", "--n", "64", "--m", "2",
                       "--seed", "7", "--out", str(out))
        assert code == 0
        path = GridPath.read_csv(out)
        assert path.n_steps == 64
        assert path.dimension == 2
        assert np.all(path.values[0] == 0.0)

    def test_sample_rejects_bad_hurst(self, tmp_path):
        code = run_cli("fbm", "sample", "--hurst", "1.5", "--n", "64", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_rate_emits_summary_rows(self, tmp_path):
        out = tmp_path / "rate.csv"
        code = run_cli("fbm", "rate", "--hurst", "0.75", "--theta", "0.55",
                       "--fine", str(2**10), "--coarse", "16,32,64", "--seeds", "6",
                       "--out", str(out), "--result-dir", str(tmp_path / "result"))
        lines = out.read_text().splitlines()
        assert lines[0] == "coarse_n,median_error,q25,q75"
        assert len(lines) == 4
        med = [float(line.split(",")[1]) for line in lines[1:]]
        assert med[0] > med[1] > med[2]
        assert code in (0, 1)  # slope band is not asserted at this toy scale
        # the data rows are those of the persisted holder_error series, text for text
        series = (tmp_path / "result" / "series_holder_error.csv").read_text().splitlines()
        assert lines[1:] == series[1:]


class TestFraccalcCommand:
    def test_lambda_report(self, tmp_path, capsys):
        src = tmp_path / "g.csv"
        run_cli("fbm", "sample", "--hurst", "0.75", "--n", "256", "--seed", "3", "--out", str(src))
        capsys.readouterr()
        code = run_cli("fraccalc", "lambda", "--alpha", "0.3", "--in", str(src))
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["endpoint_mode"] == "decimated"
        assert 0.0 < doc["lambda_alpha"] <= doc["upper_bound"]

    def test_lambda_rejects_nonfinite_times(self, tmp_path, capsys):
        # it used to print "attained_t": Infinity, which is not JSON, and exit 0
        src = tmp_path / "g.csv"
        src.write_text("t,x1\n0,0\n1,1\n2,0.5\ninf,2\n")
        assert run_cli("fraccalc", "lambda", "--alpha", "0.3", "--in", str(src)) == 2
        assert "times must be finite" in capsys.readouterr().err

    def test_exact_flag(self, tmp_path, capsys):
        src = tmp_path / "g.csv"
        run_cli("fbm", "sample", "--hurst", "0.75", "--n", "128", "--seed", "3", "--out", str(src))
        capsys.readouterr()
        assert run_cli("fraccalc", "lambda", "--alpha", "0.3", "--in", str(src), "--exact") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["endpoint_mode"] == "all"


class TestYoungCommands:
    @pytest.fixture()
    def csv_pair(self, tmp_path):
        n = 512
        t = np.arange(n + 1) / n
        f = tmp_path / "f.csv"
        g = tmp_path / "g.csv"
        GridPath(t, np.ones((n + 1, 1))).to_csv(f)
        GridPath(t, t[:, None]).to_csv(g)
        return f, g

    def test_integrate_rs(self, csv_pair, capsys):
        f, g = csv_pair
        assert run_cli("young", "integrate", "--f", str(f), "--g", str(g)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "rs"
        assert doc["value"][0] == pytest.approx(1.0)

    def test_integrate_zahle(self, csv_pair, capsys):
        f, g = csv_pair
        assert run_cli("young", "integrate", "--f", str(f), "--g", str(g),
                       "--method", "zahle", "--alpha", "0.3") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"][0] == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow on the way to the RegularityError
    def test_integrate_zahle_on_too_rough_path_is_runtime_error(self, tmp_path, capsys):
        n = 64
        t = np.arange(n + 1) / n
        rough = np.zeros((n + 1, 1))
        rough[1::2] = 1e308
        f, g = tmp_path / "f.csv", tmp_path / "g.csv"
        GridPath(t, rough).to_csv(f)
        GridPath(t, t[:, None]).to_csv(g)
        code = run_cli("young", "integrate", "--f", str(f), "--g", str(g), "--method", "zahle", "--alpha", "0.3")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_check_bound_json(self, csv_pair, capsys):
        f, g = csv_pair
        assert run_cli("young", "check-bound", "--alpha", "0.25", "--f", str(f), "--g", str(g)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["slack"] == pytest.approx(doc["rhs"] - doc["lhs"])


class TestSdeCommand:
    def test_solve_geometric(self, tmp_path, capsys):
        out = tmp_path / "sol.csv"
        code = run_cli("sde", "solve", "--coeffs", "builtin:geometric", "--sigma0", "0.5",
                       "--x0", "1.0", "--hurst", "0.75", "--n", "256", "--seed", "7",
                       "--out", str(out))
        assert code == 0
        sol = GridPath.read_csv(out)
        assert sol.values[0, 0] == 1.0
        assert sol.n_steps == 256

    def test_solve_expression_file(self, tmp_path):
        doc = {"dim": 1, "noise_dim": 1, "sigma": [["sin(x1)"]], "drift": ["0"]}
        coeffs = tmp_path / "c.json"
        coeffs.write_text(json.dumps(doc))
        out = tmp_path / "sol.csv"
        code = run_cli("sde", "solve", "--coeffs", f"file:{coeffs}", "--x0", "0.5",
                       "--n", "128", "--out", str(out))
        assert code == 0
        assert GridPath.read_csv(out).n_steps == 128

    def test_non_finite_field_exits_2_before_sampling(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(fbm, "sample_circulant", lambda spec: pytest.fail("sampled a driver"))
        out = tmp_path / "x.csv"
        assert run_cli("sde", "solve", "--coeffs", "builtin:geometric:nan", "--out", str(out)) == 2
        assert "finite parameters" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("x0", ["nan", "inf", "0.5,-inf"])
    def test_non_finite_initial_point_is_config_error(self, tmp_path, capsys, x0):
        coeffs = "builtin:additive:1,0;0,1" if "," in x0 else "builtin:geometric"
        out = tmp_path / "x.csv"
        assert run_cli("sde", "solve", "--coeffs", coeffs, "--x0", x0, "--n", "64", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "initial points must be finite" in err and "blow-up guard" not in err
        assert not out.exists()

    def test_blow_up_is_runtime_error(self, tmp_path, capsys):
        code = run_cli("sde", "solve", "--coeffs", "builtin:geometric:200", "--n", "256", "--seed", "1",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "blow-up guard" in capsys.readouterr().err

    def test_dropped_sigma0_is_config_error(self, tmp_path, capsys):
        code = run_cli("sde", "solve", "--coeffs", "builtin:sin", "--sigma0", "2", "--n", "64",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "sigma0" in capsys.readouterr().err

    def test_bad_window_is_config_error(self, tmp_path):
        code = run_cli("sde", "solve", "--hurst", "0.6", "--alpha", "0.3",
                       "--n", "64", "--out", str(tmp_path / "x.csv"))
        assert code == 2


class TestExperimentCommands:
    @pytest.fixture()
    def config_file(self, tmp_path):
        cfg = {
            "kind": "flow",
            "ladder": [128, 256],
            "seeds": [0, 1, 2],
            "fine_n": 1024,
            "outdir": str(tmp_path / "out"),
        }
        target = tmp_path / "exp.json"
        target.write_text(json.dumps(cfg))
        return target, tmp_path / "out"

    def test_run_verify_report(self, config_file, capsys):
        cfg_path, outdir = config_file
        assert run_cli("run", "--config", str(cfg_path)) == 0
        printed = capsys.readouterr().out
        assert "[PASS]" in printed
        assert (outdir / "records.csv").exists()

        assert run_cli("verify", "--result", str(outdir)) == 0
        capsys.readouterr()

        assert run_cli("report", "--result", str(outdir), "--format", "jsonl") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3 * 2 * 35
        assert all(json.loads(line) for line in lines)

    def test_report_csv(self, config_file, capsys):
        cfg_path, outdir = config_file
        run_cli("run", "--config", str(cfg_path))
        capsys.readouterr()
        assert run_cli("report", "--result", str(outdir), "--format", "csv") == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "disc_forward" in header

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "nope"}))
        assert run_cli("run", "--config", str(bad)) == 2

    def test_verify_failure_exit_code(self, config_file):
        cfg_path, outdir = config_file
        run_cli("run", "--config", str(cfg_path))
        summary = outdir / "summary.json"
        summary.write_text(summary.read_text().replace('"tol_flow_amplitude":', '"tol_flow_amplitude": 1e9, "_":'))
        assert run_cli("verify", "--result", str(outdir)) == 1


_FIELD = {"dim": 1, "noise_dim": 1, "sigma": [["x1"]]}
_RATE = {"kind": "rate", "fine_n": 64, "ladder": [16, 32], "seeds": [0]}
# each used to end in a TypeError, AttributeError, IndexError or ZeroDivisionError traceback and exit 1,
# except dim 1.5, which loaded as a 1-D field
_MALFORMED = {
    "ladder-16": ("run", {**_RATE, "ladder": 16}, "ladder must be a list"),
    "seeds-null": ("run", {**_RATE, "seeds": None}, "seeds must be a list"),
    "hurst-string": ("run", {**_RATE, "hurst": "0.7"}, "hurst must be a number"),
    "alpha-null": ("run", {**_RATE, "alpha": None}, "alpha must be a number"),
    "tolerances-5": ("run", {**_RATE, "tolerances": 5}, "tolerances must be an object"),
    "initial_points-5": ("run", {**_RATE, "kind": "flow", "initial_points": 5}, "initial_points must be a list"),
    "probe_fan-null": ("run", {**_RATE, "kind": "inverse", "probe_fan": None}, "probe_fan must be a list"),
    "config-list": ("run", [1, 2], "config is not an object"),
    "sigma-5": ("sde", {**_FIELD, "sigma": 5}, "sigma must be 1 rows of 1 expressions"),
    "sigma-null-entry": ("sde", {**_FIELD, "sigma": [[None]]}, "sigma entry None is not an expression"),
    "dim-null": ("sde", {**_FIELD, "dim": None}, "dim must be integral"),
    "dim-1.5": ("sde", {**_FIELD, "dim": 1.5}, "dim must be integral"),
    "delta-null": ("sde", {**_FIELD, "delta": None}, "(delta) must lie in (0, 1]"),
    "lambda-no-components": ("lambda", "t\n0\n0.5\n1\n", "with d >= 1"),
    # JSON true is a Python bool, and so an int: each of these ran, and exited 0
    "seeds-true": ("run", {**_RATE, "seeds": [True]}, "seeds must be integral"),
    "horizon-true": ("run", {**_RATE, "horizon": True}, "horizon must be a number"),
    "slope_band-true": ("run", {**_RATE, "tolerances": {"slope_band": True}}, "tolerances must hold numbers"),
    "dim-true": ("sde", {**_FIELD, "dim": True}, "dim must be integral"),
    "delta-true": ("sde", {**_FIELD, "delta": True}, "(delta) must lie in (0, 1]"),
    "beta-true": ("sde", {**_FIELD, "beta": True}, "(beta) must lie in (0, 1]"),
    # the first row was skipped as the header, so the path lost its first sample and started at t = 0.25
    "lambda-no-header": ("lambda", "0,0\n0.25,1\n0.5,0.5\n0.75,1\n1,0\n", "t,x1,...,xd header row"),
    "integrate-no-components": ("integrate", "t\n0\n0.5\n1\n", "with d >= 1"),
}


@pytest.mark.parametrize("command, content, message", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_malformed_input_is_a_config_error(tmp_path, capsys, command, content, message):
    target = tmp_path / "input"
    target.write_text(content if isinstance(content, str) else json.dumps(content))
    good = tmp_path / "g.csv"
    good.write_text("t,x1\n0,0\n0.5,1\n1,0.5\n")
    argv = {
        "run": ["run", "--config", str(target)],
        "sde": ["sde", "solve", "--coeffs", f"file:{target}", "--n", "64", "--out", str(tmp_path / "x.csv")],
        "lambda": ["fraccalc", "lambda", "--alpha", "0.3", "--in", str(target)],
        "integrate": ["young", "integrate", "--f", str(good), "--g", str(target)],
    }[command]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("module", ["flowlab"] + [f"flowlab.{m.name}" for m in pkgutil.iter_modules(flowlab.__path__)])
def test_every_exported_name_resolves(module):
    # a star import raises AttributeError on a name left in __all__ after its definition is deleted
    exec(f"from {module} import *", {})


def test_cli_import_defers_scipy_signal_and_sympy():
    # every command pays the import of flowlab.cli; only the Cholesky sampler needs scipy
    # and only file fields need sympy
    probe = "import sys, flowlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'sympy')))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
