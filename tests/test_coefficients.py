"""Builtin fields, declarative expression files, declared constants."""

import dataclasses
import json
import math

import numpy as np
import pytest

from flowlab.coefficients import (
    _CONSTANTS,
    builtin_field,
    load_expression_field,
    parse_field,
)
from flowlab.paths import GridPath


class TestBuiltins:
    def test_zero(self):
        f = builtin_field("zero")
        x = np.array([[1.0], [2.0]])
        assert np.all(f.sigma(0.3, x) == 0.0)
        assert np.all(f.drift(0.3, x) == 0.0)

    def test_additive_matrix(self):
        mat = np.array([[1.0, 0.5], [0.0, 2.0]])
        f = builtin_field("additive", matrix=mat)
        assert f.dim == 2 and f.noise_dim == 2
        out = f.sigma(0.0, np.zeros((7, 2)))
        assert out.shape == (7, 2, 2)
        assert np.allclose(out, mat)
        assert f.sigma_bound == pytest.approx(np.linalg.norm(mat))

    def test_geometric_scales_state(self):
        f = builtin_field("geometric", sigma0=0.5)
        x = np.array([[2.0], [-4.0]])
        assert np.allclose(f.sigma(0.0, x)[:, 0, 0], [1.0, -2.0])

    def test_sin_bounded(self):
        f = builtin_field("sin")
        assert f.sigma_bound == 1.0
        x = np.linspace(-3, 3, 11)[:, None]
        assert np.allclose(f.sigma(0.0, x)[:, 0, 0], np.sin(x[:, 0]))

    def test_linear_drift(self):
        f = builtin_field("linear-drift", sigma0=0.7)
        x = np.array([[1.5]])
        assert f.drift(0.0, x)[0, 0] == -1.5
        assert f.sigma(0.0, x)[0, 0, 0] == 0.7

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin_field("cubic")


class TestParseField:
    def test_parse_geometric_with_param(self):
        f = parse_field("builtin:geometric:0.25")
        assert f.sigma(0.0, np.array([[4.0]]))[0, 0, 0] == pytest.approx(1.0)

    def test_parse_geometric_with_sigma0_flag(self):
        f = parse_field("builtin:geometric", sigma0=2.0)
        assert f.sigma(0.0, np.array([[1.0]]))[0, 0, 0] == pytest.approx(2.0)

    def test_parse_additive_matrix_syntax(self):
        f = parse_field("builtin:additive:1,0;0,1")
        assert f.dim == 2 and f.noise_dim == 2

    def test_rejects_garbage(self):
        for bad in ("builtin", "builtin:unknown", "mystery:thing", "file:"):
            with pytest.raises(ValueError):
                parse_field(bad)

    @pytest.mark.parametrize("spec", ["builtin:sin:abc", "builtin:zero:0.5", "builtin:sin:"])
    def test_rejects_a_parameter_the_field_does_not_take(self, spec):
        # these used to parse and drop the parameter; zero:0.5 ran with sigma = 0
        with pytest.raises(ValueError, match="takes no parameter"):
            parse_field(spec)


    @pytest.mark.parametrize("spec", ["builtin:additive", "builtin:linear-drift"])
    def test_sigma0_scales_a_field_given_without_params(self, spec):
        f = parse_field(spec, sigma0=2.0)
        assert f.sigma(0.0, np.array([[1.0]]))[0, 0, 0] == pytest.approx(2.0)

    @pytest.mark.parametrize("spec", [
        "builtin:zero",
        "builtin:sin",
        "builtin:additive:1,0;0,1",
        "builtin:linear-drift:0.5",
        "builtin:geometric:0.25",
        "file:coeffs.json",
    ])
    def test_rejects_a_sigma0_the_field_would_drop(self, spec):
        # these used to parse and ignore sigma0; sin ran with sigma = sin(x).  The check
        # comes before the file is read, so the file form needs no file.
        with pytest.raises(ValueError, match="sigma0"):
            parse_field(spec, sigma0=2.0)

    @pytest.mark.parametrize("spec, sigma0", [
        ("builtin:geometric:nan", None), ("builtin:geometric:inf", None), ("builtin:additive:nan", None),
        ("builtin:linear-drift:1,-inf", None), ("builtin:geometric", math.nan), ("builtin:additive", -math.inf),
    ])
    def test_rejects_a_non_finite_parameter(self, spec, sigma0):
        # geometric:nan used to run until the blow-up guard blamed the hypotheses or the grid
        with pytest.raises(ValueError, match="finite parameters"):
            parse_field(spec, sigma0=sigma0)


class TestDeclaredConstants:
    @pytest.mark.parametrize("label", _CONSTANTS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
    def test_rejects_a_non_finite_or_negative_constant(self, label, value):
        with pytest.raises(ValueError, match=f"{label} must be a finite number >= 0"):
            dataclasses.replace(builtin_field("sin"), **{label: value})

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -1.0, "big", True])
    def test_rejects_a_sigma_bound_that_is_not_a_finite_number_at_least_0(self, bound):
        with pytest.raises(ValueError, match="sigma_bound must be None or a finite number >= 0"):
            dataclasses.replace(builtin_field("sin"), sigma_bound=bound)


class TestExpressionField:
    def make_file(self, tmp_path, doc):
        target = tmp_path / "coeffs.json"
        target.write_text(json.dumps(doc))
        return target

    def test_scalar_sin_drift(self, tmp_path):
        doc = {
            "dim": 1,
            "noise_dim": 1,
            "sigma": [["sin(x1)"]],
            "drift": ["-x1"],
            "delta": 1.0,
            "beta": 1.0,
        }
        f = load_expression_field(self.make_file(tmp_path, doc))
        x = np.array([[0.5], [1.5]])
        assert np.allclose(f.sigma(0.0, x)[:, 0, 0], np.sin([0.5, 1.5]))
        assert np.allclose(f.drift(0.0, x)[:, 0], [-0.5, -1.5])

    def test_time_dependence_and_matrix(self, tmp_path):
        doc = {
            "dim": 2,
            "noise_dim": 1,
            "sigma": [["cos(t) * x2"], ["exp(-x1**2)"]],
            "drift": ["0", "tanh(x1 + x2)"],
        }
        f = load_expression_field(self.make_file(tmp_path, doc))
        x = np.array([[0.3, -0.7]])
        sig = f.sigma(0.25, x)
        assert sig.shape == (1, 2, 1)
        assert sig[0, 0, 0] == pytest.approx(np.cos(0.25) * -0.7)
        assert sig[0, 1, 0] == pytest.approx(np.exp(-0.09))
        assert f.drift(0.25, x)[0, 1] == pytest.approx(np.tanh(-0.4))

    def test_rejects_unknown_symbols(self, tmp_path):
        doc = {"dim": 1, "noise_dim": 1, "sigma": [["y * x1"]], "drift": ["0"]}
        with pytest.raises(ValueError, match="unknown symbols"):
            load_expression_field(self.make_file(tmp_path, doc))

    def test_rejects_wrong_shape(self, tmp_path):
        doc = {"dim": 2, "noise_dim": 1, "sigma": [["x1"]], "drift": ["0", "0"]}
        with pytest.raises(ValueError, match="rows"):
            load_expression_field(self.make_file(tmp_path, doc))

    # each used to load: drfit ran with zero drift, sigma_lipshitz kept 1.0 and "big" was the bound
    @pytest.mark.parametrize("extra, match", [
        ({"drfit": ["-x1"]}, r"unknown keys \['drfit'\]"),
        ({"constants": {"sigma_lipshitz": 0.5}}, r"unknown keys \['sigma_lipshitz'\]"),
        ({"constants": {"sigma_bound": "big"}}, "sigma_bound must be None or a finite number"),
        ({"constants": ["sigma_lipschitz"]}, "must map names to numbers"),  # was an AttributeError
    ], ids=["drfit", "sigma_lipshitz", "sigma_bound", "constants_list"])
    def test_rejects_unknown_keys_and_a_bound_that_is_not_a_number(self, tmp_path, extra, match):
        doc = {"dim": 1, "noise_dim": 1, "sigma": [["x1"]], **extra}
        with pytest.raises(ValueError, match=match):
            load_expression_field(self.make_file(tmp_path, doc))

    # the solver skips the drift of a field that declares drift_growth = 0, so a file may not declare it falsely
    @pytest.mark.parametrize("drift, loads", [
        (None, True), (["0"], True), (["x1 - x1"], True), (["0 * sin(x1)"], True),
        (["-x1"], False), (["1e-9"], False),
        (["sin(x1)**2 + cos(x1)**2 - 1"], False),  # zero, but not reduced at parse time: rejected to be safe
    ], ids=["omitted", "0", "x1-x1", "0*sin", "-x1", "tiny", "pythagoras"])
    def test_declared_zero_drift_growth_needs_a_zero_drift(self, tmp_path, drift, loads):
        doc = {"dim": 1, "noise_dim": 1, "sigma": [["sin(x1)"]], "constants": {"drift_growth": 0}}
        if drift is not None:
            doc["drift"] = drift
        target = self.make_file(tmp_path, doc)
        if loads:
            assert load_expression_field(target).drift_growth == 0.0
        else:
            with pytest.raises(ValueError, match="declares drift_growth = 0, but its drift"):
                load_expression_field(target)

    def test_parse_field_file_form(self, tmp_path):
        doc = {"dim": 1, "noise_dim": 1, "sigma": [["0.5 * x1"]], "drift": ["0"]}
        f = parse_field(f"file:{self.make_file(tmp_path, doc)}")
        assert f.sigma(0.0, np.array([[2.0]]))[0, 0, 0] == pytest.approx(1.0)


class TestDeclaredZeros:
    @pytest.mark.parametrize("spec, constant_sigma, no_drift", [
        ("builtin:zero", True, True),
        ("builtin:additive", True, True),
        ("builtin:additive:0.5,1;0,1", True, True),
        ("builtin:geometric", False, True),
        ("builtin:geometric:0", True, True),
        ("builtin:sin", False, True),
        ("builtin:linear-drift", True, False),
    ])
    def test_declared_zeros_hold_on_a_lattice(self, spec, constant_sigma, no_drift):
        # grid_exact and the stepping kernel's drift skip trust these declarations
        c = parse_field(spec)
        assert (c.sigma_lipschitz == c.time_holder == 0.0) is constant_sigma
        assert (c.drift_growth == 0.0) is no_drift
        xs = np.random.default_rng(3).uniform(-2.0, 2.0, size=(16, c.dim))
        sigma0 = c.sigma(0.0, xs[0])
        for t in np.linspace(0.0, 1.0, 5):
            if constant_sigma:
                assert (c.sigma(t, xs) == sigma0).all()
            if no_drift:
                assert (c.drift(t, xs) == 0.0).all()


def _closed_form_flows(c):
    """Oracle: the name-matched closed forms the flow campaigns used before fields declared theirs.

    Returned callables take (driver, r, t, x) with r, t on the driver grid.
    """
    if c.name in ("additive", "zero"):
        mat = np.atleast_2d(np.asarray(c.sigma(0.0, np.zeros(c.dim))))

        def fwd(driver, r, t, x):
            db = driver.values[driver.index_of(t)] - driver.values[driver.index_of(r)]
            return np.asarray(x, dtype=float) + mat @ db

        def bwd(driver, r, t, x):
            db = driver.values[driver.index_of(t)] - driver.values[driver.index_of(r)]
            return np.asarray(x, dtype=float) - mat @ db

        return fwd, bwd
    if c.name.startswith("geometric"):
        s0 = float(c.sigma(0.0, np.ones(1))[0, 0])

        def fwd(driver, r, t, x):
            db = driver.values[driver.index_of(t), 0] - driver.values[driver.index_of(r), 0]
            return np.asarray(x, dtype=float) * math.exp(s0 * db)

        def bwd(driver, r, t, x):
            db = driver.values[driver.index_of(t), 0] - driver.values[driver.index_of(r), 0]
            return np.asarray(x, dtype=float) * math.exp(-s0 * db)

        return fwd, bwd
    return None


class TestFieldCapabilities:
    @pytest.mark.parametrize("spec", [
        "builtin:zero", "builtin:additive:0.8", "builtin:additive:0.5,1;0,1", "builtin:geometric:0.5",
    ])
    def test_matches_name_matched_oracle_bit_for_bit(self, spec):
        c = parse_field(spec)
        fwd, bwd = _closed_form_flows(c)
        rng = np.random.default_rng(5)
        driver = GridPath.from_values(rng.normal(size=(17, c.noise_dim)).cumsum(axis=0))
        marks = driver.times[::4]
        for x in rng.uniform(-2.0, 2.0, size=(3, c.dim)):
            for r in marks:
                for t in marks[marks >= r]:
                    db = driver.values[driver.index_of(t)] - driver.values[driver.index_of(r)]
                    assert c.flow(x, db).tobytes() == fwd(driver, r, t, x).tobytes()
                    assert c.flow(x, -db).tobytes() == bwd(driver, r, t, x).tobytes()

    @pytest.mark.parametrize("spec, grid_exact, closed_form", [
        ("builtin:zero", True, True),
        ("builtin:additive", True, True),
        ("builtin:additive:0.5,1;0,1", True, True),
        ("builtin:geometric", False, True),
        ("builtin:geometric:0.5", False, True),
        ("builtin:geometric:0", True, True),  # sigma = 0: Euler is exact
        ("builtin:sin", False, False),
        ("builtin:linear-drift", False, False),
        ("builtin:linear-drift:1,0;0,1", False, False),
    ])
    def test_builtin_capabilities(self, spec, grid_exact, closed_form):
        c = parse_field(spec)
        assert c.grid_exact is grid_exact
        assert (c.flow is not None) is closed_form

    @pytest.mark.parametrize("constants, grid_exact", [
        ({}, False),
        ({"sigma_lipschitz": 0, "time_holder": 0, "drift_lipschitz": 0, "drift_growth": 0}, True),
        ({"sigma_lipschitz": 0, "time_holder": 0, "drift_lipschitz": 0, "drift_growth": 0.5}, False),
    ])
    def test_file_field_capabilities_come_from_declared_constants(self, tmp_path, constants, grid_exact):
        target = tmp_path / "coeffs.json"
        target.write_text(json.dumps({"name": "additive", "dim": 1, "noise_dim": 1,
                                      "sigma": [["0.8"]], "drift": ["0"], "constants": constants}))
        c = parse_field(f"file:{target}")
        assert c.grid_exact is grid_exact
        assert c.flow is None  # a file declares no closed form, whatever its name
