"""Two routes to the Young integral and the fundamental estimate."""

import math
import warnings

import numpy as np
import pytest

from flowlab import fbm
from flowlab.errors import RegularityError
from flowlab.paths import GridPath
from flowlab.quadrature import cell_weights, increment_profile
from flowlab.young import (
    _scalar_zahle,
    default_bridge_order,
    indefinite_integral,
    rs_integral,
    young_bound_check,
    zahle_integral,
)


def path_of(fn, n=4096):
    return GridPath.from_function(fn, n)


def fbm_path(seed=3, n=4096, hurst=0.75):
    return fbm.sample_circulant(fbm.FbmSpec(hurst=hurst, grid_size=n, seed=seed)).path


class TestRsIntegral:
    def test_constant_integrand_telescopes(self):
        g = fbm_path(seed=5, n=512)
        ones = GridPath(g.times, np.ones((513, 1)))
        val = rs_integral(ones, g)
        assert val[0] == pytest.approx(g.values[-1, 0] - g.values[0, 0], abs=1e-14)

    def test_riemann_limit(self):
        f = path_of(lambda t: t, 2048)
        assert rs_integral(f, f)[0] == pytest.approx(0.5, abs=1e-3)

    def test_chain_rule_under_refinement(self):
        fine = fbm_path(seed=9, n=2**12)
        gaps = []
        for n in (2**8, 2**10, 2**12):
            g = fine.decimate(2**12 // n)
            target = 0.5 * (g.values[-1, 0] ** 2 - g.values[0, 0] ** 2)
            gaps.append(abs(rs_integral(g, g)[0] - target))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_matrix_integrand_contracts_components(self):
        n = 256
        times = np.arange(n + 1) / n
        g = GridPath(times, np.stack([times, times**2], axis=1))
        f = GridPath(times, np.stack([np.ones(n + 1), np.zeros(n + 1)], axis=1))  # 1x2 matrix row
        val = rs_integral(f, g)
        assert val.shape == (1,)
        assert val[0] == pytest.approx(1.0, abs=1e-8)

    def test_incompatible_dimensions(self):
        n = 64
        times = np.arange(n + 1) / n
        f = GridPath(times, np.ones((n + 1, 3)))
        g = GridPath(times, np.ones((n + 1, 2)))
        with pytest.raises(ValueError):
            rs_integral(f, g)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            rs_integral(path_of(lambda t: t, 64), path_of(lambda t: t, 128))

    def test_warns_when_orders_sum_below_one(self):
        rough = fbm_path(seed=2, n=512, hurst=0.55)
        with pytest.warns(UserWarning, match="Young limit"):
            rs_integral(rough, fbm_path(seed=3, n=512, hurst=0.55))

    @pytest.mark.parametrize("seed", range(4))
    def test_bilinearity(self, seed):
        rng = np.random.default_rng(seed)
        n = 128
        f = GridPath.from_values(rng.standard_normal((n + 1, 1)).cumsum(axis=0) * 0.05)
        h = GridPath.from_values(rng.standard_normal((n + 1, 1)).cumsum(axis=0) * 0.05)
        g = GridPath.from_values(rng.standard_normal((n + 1, 1)).cumsum(axis=0) * 0.05)
        a, b = 2.0, -3.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lhs = rs_integral(a * f + b * h, g)
            rhs = a * rs_integral(f, g) + b * rs_integral(h, g)
            assert np.allclose(lhs, rhs, atol=1e-12)
            lhs2 = rs_integral(f, a * g + b * h)
            rhs2 = a * rs_integral(f, g) + b * rs_integral(f, h)
            assert np.allclose(lhs2, rhs2, atol=1e-12)


class TestIndefiniteIntegral:
    def test_constant_integrand_reproduces_g(self):
        g = fbm_path(seed=4, n=256)
        ones = GridPath(g.times, np.ones((257, 1)))
        run = indefinite_integral(ones, g)
        assert np.allclose(run.values[:, 0], g.values[:, 0] - g.values[0, 0], atol=1e-13)

    def test_additivity_over_subintervals(self):
        g = fbm_path(seed=6, n=256)
        f = GridPath(g.times, np.sin(g.times)[:, None])
        run = indefinite_integral(f, g)
        total = rs_integral(f, g)[0]
        for tau_idx in (64, 128, 192):
            head = run.values[tau_idx, 0]
            tail_f = GridPath(g.times[tau_idx:], f.values[tau_idx:])
            tail_g = GridPath(g.times[tau_idx:], g.values[tau_idx:])
            assert head + rs_integral(tail_f, tail_g)[0] == pytest.approx(total, abs=1e-12)

    def test_starts_at_zero(self):
        g = fbm_path(seed=4, n=128)
        run = indefinite_integral(GridPath(g.times, np.ones((129, 1))), g)
        assert run.values[0, 0] == 0.0


class TestChainRule:
    def test_solver_replay(self):
        """The running integral of sigma(X) against the driver reproduces Euler exactly."""
        from flowlab.coefficients import builtin_field
        from flowlab.sde import SolverConfig, solve_forward

        g = fbm_path(seed=12, n=512)
        field = builtin_field("geometric", sigma0=0.5)
        sol = solve_forward([1.0], 0.0, field, g, SolverConfig(0.3, 512, 0.75))
        integrand = GridPath(g.times, 0.5 * sol.values)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the crude order estimator sits near the 1.0 boundary here
            replay = indefinite_integral(integrand, g)
        assert np.allclose(1.0 + replay.values, sol.values, atol=1e-13)

    def test_smooth_composition_under_refinement(self):
        """integral of phi'(g) dg approaches phi(g(T)) - phi(g(0)) as the grid refines."""
        fine = fbm_path(seed=14, n=2**12)
        gaps = []
        for n in (2**9, 2**11, 2**12):
            g = fine.decimate(2**12 // n)
            integrand = GridPath(g.times, g.values**2)
            target = (g.values[-1, 0] ** 3 - g.values[0, 0] ** 3) / 3.0
            gaps.append(abs(rs_integral(integrand, g)[0] - target))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 2e-2


def inline_marchaud_zahle(fv, gv, a, h, rel):
    """``_scalar_zahle`` as it was with its two Marchaud derivatives written out inline."""
    n = fv.shape[0] - 1
    inv_g1ma = 1.0 / math.gamma(1.0 - a)
    tail_f = increment_profile(fv, -a - 1.0, h)
    df = np.zeros(n + 1)
    df[1:] = inv_g1ma * (fv[1:] / rel[1:] ** a + a * tail_f[1:])
    w = gv[::-1] - gv[-1]
    tail_g = increment_profile(w, a - 2.0, h)
    dg_rev = np.zeros(n + 1)
    dg_rev[1:] = (w[1:] / rel[1:] ** (1.0 - a) + (1.0 - a) * tail_g[1:]) / math.gamma(a)
    dg = dg_rev[::-1]
    psi = df[1:n] * dg[1:n]
    interior = h * (0.5 * psi[0] + psi[1:-1].sum() + 0.5 * psi[-1]) if n >= 3 else 0.0
    beta, gamma = cell_weights(-a, h, 1)
    left = (fv[0] * inv_g1ma * dg_rev[-1]) * gamma[1] + ((h**a) * df[1] * dg[1]) * beta[1]
    right = 0.5 * h * psi[-1] if n >= 2 else 0.0
    return -(left + interior + right)


class TestZahleIntegral:
    @pytest.mark.parametrize("a", [0.3, 0.45])
    @pytest.mark.parametrize("n", [2, 3, 17, 256, 2048])
    def test_matches_the_inline_marchaud_oracle(self, n, a):
        for seed in range(3):
            g = fbm_path(seed=seed, n=n)
            t, b = g.times, g.values[:, 0]
            for fv in (np.sin(t), 1.0 + np.cos(3.0 * t) + b, b * b):
                expected = inline_marchaud_zahle(fv, b, a, g.step, t)
                assert _scalar_zahle(fv, b, a, g.step, t) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("rough_side", ["f", "g"])
    def test_too_rough_path_raises(self, rough_side):
        times = np.arange(65) / 64
        rough = GridPath(times, np.where(np.arange(65) % 2 == 1, 1e308, 0.0)[:, None])  # Weyl derivatives overflow
        smooth = GridPath(times, times[:, None])
        f, g = (rough, smooth) if rough_side == "f" else (smooth, rough)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(RegularityError):
                zahle_integral(f, g, 0.3)


    def test_constant_against_identity(self):
        f = path_of(lambda t: np.ones_like(t))
        g = path_of(lambda t: t)
        assert zahle_integral(f, g, 0.3)[0] == pytest.approx(1.0, abs=1e-4)

    def test_linear_pair(self):
        f = path_of(lambda t: t)
        assert zahle_integral(f, f, 0.3)[0] == pytest.approx(0.5, abs=1e-4)

    def test_smooth_pair_matches_exact(self):
        f = path_of(np.sin)
        g = path_of(lambda t: t)
        assert zahle_integral(f, g, 0.3)[0] == pytest.approx(1.0 - math.cos(1.0), abs=1e-4)

    def test_cross_validation_on_fbm(self):
        g = fbm_path(seed=3, n=2**10)
        f = GridPath(g.times, np.sin(g.times)[:, None])
        rs = rs_integral(f, g)[0]
        za = zahle_integral(f, g, 0.3)[0]
        assert abs(rs - za) <= 1e-3 * (1.0 + abs(rs))

    def test_default_order_in_window(self):
        g = fbm_path(seed=8, n=1024)
        f = GridPath(g.times, np.cos(g.times)[:, None])
        a = default_bridge_order(f, g)
        assert 0.0 < a < 0.5
        val = zahle_integral(f, g)  # default order path
        assert np.isfinite(val[0])

    def test_gap_shrinks_under_refinement(self):
        fine = fbm_path(seed=11, n=2**12)
        gaps = []
        for n in (2**9, 2**10, 2**11, 2**12):
            g = fine.decimate(2**12 // n)
            f = GridPath(g.times, np.sin(g.times)[:, None])
            gaps.append(abs(rs_integral(f, g)[0] - zahle_integral(f, g, 0.3)[0]))
        assert gaps[0] > gaps[-1]
        assert gaps[-2] > gaps[-1]

    def test_vector_components_sum(self):
        n = 512
        times = np.arange(n + 1) / n
        g = GridPath(times, np.stack([times, np.sin(times)], axis=1))
        f = GridPath(times, np.stack([np.ones(n + 1), np.ones(n + 1)], axis=1))  # 1x2
        val = zahle_integral(f, g, 0.3)
        expected = 1.0 + math.sin(1.0)
        assert val[0] == pytest.approx(expected, abs=1e-3)


class TestYoungBound:
    def test_zero_integrand(self):
        g = path_of(lambda t: t, 256)
        f = GridPath(g.times, np.zeros((257, 1)))
        rep = young_bound_check(f, g, 0.25)
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0
        assert rep.slack == 0.0
        assert rep.ok

    def test_constant_against_identity(self):
        f = path_of(lambda t: np.ones_like(t), 1024)
        g = path_of(lambda t: t, 1024)
        rep = young_bound_check(f, g, 0.25)
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs >= 1.0
        assert rep.ok

    def test_random_smooth_vs_fbm_sweep(self):
        for seed in range(100):
            g = fbm_path(seed=seed, n=256)
            rng = np.random.default_rng(seed)
            a, b = rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0)
            f = GridPath(g.times, (a * np.sin(2.0 * g.times) + b * g.times)[:, None])
            rep = young_bound_check(f, g, 0.3)
            assert rep.slack >= -1e-8, f"seed {seed}: slack {rep.slack:.2e}"
