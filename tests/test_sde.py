"""Solver exactness, convergence, and flow and inverse structure."""

import dataclasses
import warnings

import numpy as np
import pytest

from flowlab import experiments, fbm, sde
from flowlab.coefficients import CoefficientField, builtin_field, parse_field
from flowlab.errors import BlowUpError
from flowlab.paths import GridPath
from flowlab.sde import (
    DEFAULT_BLOWUP_FACTOR,
    _GUARD_BLOCK,
    SolverConfig,
    _flow_marks,
    _march,
    alpha0,
    check_order_window,
    solve_forward,
    solve_forward_batch,
)


def driver_of(seed=11, n=1024, hurst=0.75, m=1):
    return fbm.sample_circulant(fbm.FbmSpec(hurst, m, 1.0, n, seed)).path


def solve_backward(x0s, t_end, c, driver, cfg):
    """Backward flow values, (batch, k1+1, d): entry k is Y_{t_k, t_end}(x), for t_k <= t_end = t_k1."""
    k1 = driver.index_of(t_end)
    return _flow_marks(x0s, k1, range(k1 + 1), c, driver, cfg, backward=True).swapaxes(0, 1)


@pytest.fixture(scope="module")
def driver():
    return driver_of()


@pytest.fixture(scope="module")
def cfg():
    return SolverConfig(alpha=0.3, n_steps=1024, hurst=0.75)


class TestAlpha0:
    def test_unit_orders(self):
        assert alpha0(1.0, 1.0) == 0.5

    def test_beta_binding(self):
        assert alpha0(0.3, 1.0) == pytest.approx(0.3)

    def test_delta_binding(self):
        assert alpha0(1.0, 0.25) == pytest.approx(0.2)

    def test_domain(self):
        with pytest.raises(ValueError):
            alpha0(0.0, 1.0)
        with pytest.raises(ValueError):
            alpha0(1.0, 1.5)


class TestSolverConfig:
    def test_window_gate(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.2, n_steps=64, hurst=0.75)  # below 1 - H
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.55, n_steps=64, hurst=0.75)
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.3, n_steps=64, hurst=0.5)

    def test_field_window(self):
        cfg = SolverConfig(alpha=0.3, n_steps=64, hurst=0.75)
        from dataclasses import replace

        tight = replace(builtin_field("sin"), dsigma_holder_order=0.25)  # alpha0 = 0.2
        with pytest.raises(ValueError, match="admissible window"):
            check_order_window(cfg, tight)


class TestForwardSolver:
    def test_zero_field_constant(self, driver, cfg):
        sol = solve_forward([1.7], 0.0, builtin_field("zero"), driver, cfg)
        assert np.all(sol.values == 1.7)

    def test_additive_exact(self, driver, cfg):
        f = builtin_field("additive", matrix=np.array([[0.8]]))
        sol = solve_forward([1.5], 0.0, f, driver, cfg)
        exact = 1.5 + 0.8 * driver.values[:, 0]
        assert np.abs(sol.values[:, 0] - exact).max() < 1e-12

    def test_geometric_against_closed_form(self, driver, cfg):
        f = builtin_field("geometric", sigma0=0.5)
        sol = solve_forward([1.0], 0.0, f, driver, cfg)
        closed = np.exp(0.5 * driver.values[:, 0])
        assert np.abs(sol.values[:, 0] - closed).max() < 0.01

    def test_convergence_order_geometric(self):
        fine = driver_of(seed=5, n=2**12)
        f = builtin_field("geometric", sigma0=0.5)
        errs = []
        ns = (2**7, 2**8, 2**9, 2**10, 2**11, 2**12)
        for n in ns:
            d = fine.decimate(2**12 // n)
            sol = solve_forward([1.0], 0.0, f, d, SolverConfig(0.3, n, 0.75))
            errs.append(abs(sol.values[-1, 0] - np.exp(0.5 * fine.values[-1, 0])))
        slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert 0.2 <= slope <= 0.8  # 2H - 1 = 0.5 within the stated band

    def test_start_midway(self, driver, cfg):
        f = builtin_field("additive", matrix=np.array([[1.0]]))
        sol = solve_forward([0.0], 0.5, f, driver, cfg)
        assert sol.start == pytest.approx(0.5)
        k0 = driver.index_of(0.5)
        exact = driver.values[k0:, 0] - driver.values[k0, 0]
        assert np.abs(sol.values[:, 0] - exact).max() < 1e-13

    def test_grid_and_dimension_checks(self, driver, cfg):
        f = builtin_field("geometric")
        with pytest.raises(ValueError):
            solve_forward([1.0, 2.0], 0.0, f, driver, cfg)  # wrong state dim
        with pytest.raises(ValueError):
            solve_forward([1.0], 0.0, f, driver, SolverConfig(0.3, 512, 0.75))  # wrong n
        wide = driver_of(seed=1, n=1024, m=2)
        with pytest.raises(ValueError):
            solve_forward([1.0], 0.0, f, wide, cfg)  # wrong driver width

    @pytest.mark.parametrize("solve", [solve_forward_batch, solve_backward], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_point_is_rejected(self, driver, cfg, solve, bad):
        # it used to step and fail at the blow-up guard, which blames the field or the grid
        with pytest.raises(ValueError, match=r"initial points must be finite, got \[(nan|inf|-inf)\]"):
            solve(np.array([[0.5], [bad]]), 1.0, builtin_field("geometric"), driver, cfg)

    def test_blowup_guard_fires(self, driver, cfg, monkeypatch):
        # the solution for this driver peaks near 1.06; a guard at 2 * 0.51 = 1.02 binds
        f = builtin_field("geometric", sigma0=0.5)
        monkeypatch.setattr(sde, "DEFAULT_BLOWUP_FACTOR", 0.51)
        with pytest.raises(BlowUpError, match="guard"):
            solve_forward([1.0], 0.0, f, driver, cfg)

    def test_batch_matches_single(self, driver, cfg):
        f = parse_field("builtin:sin")
        batch = solve_forward_batch(np.array([[0.4], [0.9]]), 0.0, f, driver, cfg)
        for i, x0 in enumerate((0.4, 0.9)):
            single = solve_forward([x0], 0.0, f, driver, cfg)
            assert np.array_equal(batch[i], single.values)


class TestBackwardSolver:
    def test_terminal_condition_exact(self, driver, cfg):
        f = builtin_field("geometric", sigma0=0.5)
        sol = solve_backward([2.0], 1.0, f, driver, cfg)[0]
        assert sol[-1, 0] == 2.0

    def test_additive_exact_inverse(self, driver, cfg):
        f = builtin_field("additive", matrix=np.array([[0.8]]))
        y = solve_backward([1.5], 1.0, f, driver, cfg)[0]
        expected = 1.5 - 0.8 * (driver.values[-1, 0] - driver.values[:, 0])
        assert np.abs(y[:, 0] - expected).max() < 1e-12
        assert abs(solve_forward_batch(y[:1], 0.0, f, driver, cfg)[0, -1, 0] - 1.5) < 1e-12

    def test_geometric_inverse_converges(self):
        f = builtin_field("geometric", sigma0=0.5)
        fine = driver_of(seed=21, n=2**12)
        discs = []
        for n in (2**9, 2**10, 2**11, 2**12):
            d = fine.decimate(2**12 // n)
            c = SolverConfig(0.3, n, 0.75)
            y = solve_backward([1.0], 1.0, f, d, c)[:, 0]
            discs.append(abs(solve_forward_batch(y, 0.0, f, d, c)[0, -1, 0] - 1.0))
        assert discs[0] > discs[-1]
        assert discs[-1] < 5e-3


def compose(f, driver, cfg, r, tau, t, x):
    """(X_{tau t}(X_{r tau}(x)), X_{rt}(x)) from batch solves on the driver grid."""
    k_r, k_tau, k_t = (driver.index_of(v) for v in (r, tau, t))
    mid = solve_forward_batch([x], r, f, driver, cfg)[:, k_tau - k_r]
    composed = solve_forward_batch(mid, tau, f, driver, cfg)[0, k_t - k_tau]
    direct = solve_forward_batch([x], r, f, driver, cfg)[0, k_t - k_r]
    return composed, direct


class TestFlowMap:
    """The two-parameter family (r, t, x) -> X_rt(x) as the batch solvers produce it."""

    def test_identity_at_coincident_times(self, driver, cfg):
        f = builtin_field("geometric", sigma0=0.5)
        x = np.array([[1.3], [-0.7]])
        k = driver.index_of(0.5)
        assert np.array_equal(solve_forward_batch(x, 0.5, f, driver, cfg)[:, 0], x)
        assert np.array_equal(solve_backward(x, 0.5, f, driver, cfg)[:, k], x)

    def test_compose_returns_pair(self, driver, cfg):
        composed, direct = compose(builtin_field("geometric", sigma0=0.5), driver, cfg, 0.0, 0.5, 1.0, 1.0)
        # the one-step Euler scheme composes exactly: both legs replay the same float ops
        assert np.array_equal(composed, direct)

    def test_compose_degenerate_triple(self, driver, cfg):
        composed, direct = compose(builtin_field("sin"), driver, cfg, 0.25, 0.25, 0.25, 0.7)
        assert np.array_equal(composed, direct)
        assert composed[0] == 0.7

    def test_compose_additive_exact(self, driver, cfg):
        f = builtin_field("additive", matrix=np.array([[1.2]]))
        composed, direct = compose(f, driver, cfg, 0.0, 0.25, 0.75, 0.3)
        assert np.array_equal(composed, direct)


def test_driver_continuity_of_solutions():
    """Polygonal coarsening of the driver perturbs the solution by a vanishing amount."""
    from flowlab.fraccalc import lambda_alpha
    from flowlab.paths import GridPath, w_alpha_lambda_norm

    f = builtin_field("geometric", sigma0=0.5)
    fine = driver_of(seed=2, n=2**11)
    cfg = SolverConfig(0.3, 2**11, 0.75)
    base = solve_forward([1.0], 0.0, f, fine, cfg)
    gaps, lams = [], []
    for coarse in (2**4, 2**6, 2**8):
        h_path = fbm.polygonal(fine, coarse)
        sol = solve_forward([1.0], 0.0, f, h_path, cfg)
        gaps.append(w_alpha_lambda_norm(base - sol, 0.3, 5.0))
        lams.append(lambda_alpha(fine - h_path, 0.3))
    assert gaps[0] > gaps[-1]
    assert lams[0] > lams[-1]


# ---------------------------------------------------------------------------
# the stepping kernel against a per-step loop that checks the guard every step
# ---------------------------------------------------------------------------

def oracle_guard(states, bound, t):
    mag = np.linalg.norm(states, axis=-1)
    if np.any(mag > bound):
        worst = float(mag.max())
        raise BlowUpError(
            f"|X| = {worst:.3e} at t = {t:.6g} crossed the blow-up guard; "
            "the hypotheses are violated or the grid is too coarse"
        )


def oracle_increments(c, t, states, db, h):
    return np.einsum("...dm,m->...d", c.sigma(t, states), db) + c.drift(t, states) * h


def oracle_forward(x0s, k0, c, driver, blowup_factor=DEFAULT_BLOWUP_FACTOR):
    times, vals, h, n = driver.times, driver.values, driver.step, driver.n_steps
    out = np.empty((x0s.shape[0], n - k0 + 1, c.dim))
    out[:, 0] = x0s
    bound = blowup_factor * (1.0 + np.linalg.norm(x0s, axis=-1))
    state = x0s
    for k in range(k0, n):
        db = vals[k + 1] - vals[k]
        state = state + oracle_increments(c, times[k], state, db, h)
        oracle_guard(state, bound, times[k + 1])
        out[:, k + 1 - k0] = state
    return out


def oracle_backward(x0s, k1, c, driver, blowup_factor=DEFAULT_BLOWUP_FACTOR):
    times, vals, h = driver.times, driver.values, driver.step
    out = np.empty((x0s.shape[0], k1 + 1, c.dim))
    out[:, k1] = x0s
    bound = blowup_factor * (1.0 + np.linalg.norm(x0s, axis=-1))
    state = x0s
    for k in range(k1 - 1, -1, -1):
        db = vals[k + 1] - vals[k]
        state = state - oracle_increments(c, times[k + 1], state, db, h)
        oracle_guard(state, bound, times[k])
        out[:, k] = state
    return out


def oracle_probe(config, c):
    fan = np.sort(np.asarray(config.probe_fan, dtype=float))[:, None]
    n = config.probe_n
    spec = fbm.FbmSpec(config.hurst, c.noise_dim, config.horizon, n, seed=0)
    drivers = fbm.sample_paths(spec, config.probe_seeds, method="circulant")
    h = config.horizon / n
    times = np.arange(n + 1) * h
    states = np.broadcast_to(fan, (config.probe_seeds,) + fan.shape).copy()
    min_gap = np.full(config.probe_seeds, np.inf)
    for k in range(n):
        db = drivers[:, k + 1] - drivers[:, k]
        sig = c.sigma(times[k], states)
        states = states + np.einsum("sfdm,sm->sfd", sig, db) + c.drift(times[k], states) * h
        min_gap = np.minimum(min_gap, np.diff(states[..., 0], axis=1).min(axis=1))
    inversions = int(np.count_nonzero(min_gap <= 0.0))
    return [{"seed": -1, "n": n, "r": 0.0, "t": config.horizon, "point": -1,
             "status": "probe", "disc_xy": float(inversions), "disc_yx": float(min_gap.min())}]


def oracle_moments(config):
    c = config.field()
    n = config.solver_n
    total = max(config.sample_counts)
    spec = fbm.FbmSpec(config.hurst, c.noise_dim, config.horizon, n, seed=config.seeds[0])
    drivers = fbm.sample_paths(spec, total, method="circulant")
    h = config.horizon / n
    times = np.arange(n + 1) * h
    states = np.full((total, c.dim), config.moment_x0)
    sup_abs = np.linalg.norm(states, axis=-1)
    for k in range(n):
        db = drivers[:, k + 1] - drivers[:, k]
        sig = c.sigma(times[k], states)
        states = states + np.einsum("sdm,sm->sd", sig, db) + c.drift(times[k], states) * h
        sup_abs = np.maximum(sup_abs, np.linalg.norm(states, axis=-1))
    return [{"path": i, "sup_abs": float(v)} for i, v in enumerate(sup_abs)]


def force_member_blocks(monkeypatch, rows, n, m):
    """Make a sampled march on n steps with m noise components draw ``rows`` paths per block (None: keep the budget).

    Returns the list that collects the member count of every block marched.
    """
    if rows is not None:
        monkeypatch.setattr(experiments, "_DRIVER_POINTS", rows * (n + 1) * m)
    marched = []
    real = experiments._march

    def counted(x0s, *args, **kwargs):
        marched.append(x0s.shape[0])
        return real(x0s, *args, **kwargs)

    monkeypatch.setattr(experiments, "_march", counted)
    return marched


def member_blocks(rows, count):
    return [min(rows, count - a) for a in range(0, count, rows)]


def time_dependent_field(m):
    """State- and time-dependent sigma with a drift; d = 1 for m = 1, d = 2 for m = 2."""
    if m == 1:
        def sigma(t, x):
            return (0.5 * np.sin(x) + 0.1 * t)[..., None]

        return CoefficientField(sigma, lambda t, x: -0.2 * x, 1, 1)

    def sigma(t, x):
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack([np.stack([np.sin(x1), 0.3 * np.cos(x2) + t], -1),
                         np.stack([0.5 * x1, np.sin(x2)], -1)], -2)

    return CoefficientField(sigma, lambda t, x: -0.1 * x + 0.05 * t, 2, 2)


def trajectories(x0s, starts, c, driver, backward):
    """Every member's states on the whole grid from ``_flow_marks``, in any start order: (B, n+1, d)."""
    cfg = SolverConfig(0.3, driver.n_steps, 0.75)
    return _flow_marks(x0s, starts, range(driver.n_steps + 1), c, driver, cfg, backward=backward).swapaxes(0, 1)


def spiked_driver(n, step, height=1e13):
    """Zero driver that jumps by ``height`` at the given step, reaching index ``step``."""
    vals = np.zeros(n + 1)
    vals[step:] = height
    return GridPath(np.linspace(0.0, 1.0, n + 1), vals)


def drift_march(x0s, starts, c, times, values, h, backward):
    """``_march`` with the drift term on every step, whatever the field declares: (B, n+1, d) states.

    Same members in stepping order, einsum layout and state updates as
    ``_march``, with ``c.drift(t, s) * h`` always added and no blow-up guard.
    """
    n = times.shape[0] - 1
    starts = np.asarray(starts, dtype=np.intp)
    per_member = values.ndim == 3
    if backward:
        steps = np.arange(starts[0] - 1, -1, -1)
        active = np.searchsorted(-starts, -(steps + 1), side="right")
    else:
        steps = np.arange(starts[0], n)
        active = np.searchsorted(starts, steps, side="right")
    apply = np.subtract if backward else np.add
    contract = "b...dm,bm->b...d" if per_member else "...dm,m->...d"
    shared_db = None if per_member else np.diff(values, axis=0)
    out = np.full((n + 1,) + x0s.shape, np.nan)
    prev = x0s
    for k, a in zip(steps.tolist(), active.tolist()):
        s = prev[:a]
        db = values[:a, k + 1] - values[:a, k] if per_member else shared_db[k]
        t = times[k + 1] if backward else times[k]
        inc = np.einsum(contract, c.sigma(t, s), db) + c.drift(t, s) * h
        row = np.empty_like(prev)
        apply(s, inc, out=row[:a])
        row[a:] = prev[a:]
        out[k if backward else k + 1] = prev = row
    return out.swapaxes(0, 1)


class TestSteppingKernel:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("order", ["as-listed", "reversed"])
    @pytest.mark.parametrize("backward", [False, True])
    def test_mixed_starts_match_single_solves(self, m, order, backward):
        c = time_dependent_field(m)
        n = 150  # more than two guard blocks
        driver = driver_of(seed=3, n=n, m=m)
        rng = np.random.default_rng(m)
        # starts on both sides of block edges, repeated, and at the far end of the grid; reversed, the
        # members come in another order that is not stepping order either
        starts = [150, 1, 65, 64, 150, 2, 130, 90] if backward else [0, 150, 64, 1, 149, 64, 87, 0]
        starts = starts[::-1] if order == "reversed" else starts
        x0s = rng.uniform(-1.0, 1.0, size=(len(starts), c.dim))
        got = trajectories(x0s, starts, c, driver, backward)
        for i, k in enumerate(starts):
            if backward:
                want, have = oracle_backward(x0s[i : i + 1], k, c, driver)[0], got[i, : k + 1]
            else:
                want, have = oracle_forward(x0s[i : i + 1], k, c, driver)[0], got[i, k:]
            if m == 1:
                assert np.array_equal(have, want), (i, k)
            else:
                np.testing.assert_allclose(have, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("m", [1, 2])
    def test_batch_solvers_match_oracle(self, m):
        c = time_dependent_field(m)
        driver = driver_of(seed=4, n=200, m=m)
        cfg = SolverConfig(0.3, 200, 0.75)
        x0s = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, c.dim))
        pairs = [(solve_forward_batch(x0s, 0.25, c, driver, cfg), oracle_forward(x0s, 50, c, driver)),
                 (solve_backward(x0s, 0.75, c, driver, cfg), oracle_backward(x0s, 150, c, driver))]
        for got, want in pairs:
            if m == 1:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("step", [1, _GUARD_BLOCK - 1, _GUARD_BLOCK, _GUARD_BLOCK + 1, 200])
    def test_guard_crossing_message_matches_oracle(self, step):
        n = 200
        f = builtin_field("additive", matrix=np.array([[1.0]]))
        cfg = SolverConfig(0.3, n, 0.75)
        x0s = np.array([[0.5], [-3.0], [2.0]])
        driver = spiked_driver(n, step)
        with pytest.raises(BlowUpError) as want:
            oracle_forward(x0s, 0, f, driver)
        with pytest.raises(BlowUpError) as got:
            solve_forward_batch(x0s, 0.0, f, driver, cfg)
        assert str(got.value) == str(want.value)
        # backward from the end, the spike is crossed after n - step + 1 steps
        with pytest.raises(BlowUpError) as want:
            oracle_backward(x0s, n, f, driver)
        with pytest.raises(BlowUpError) as got:
            solve_backward(x0s, 1.0, f, driver, cfg)
        assert str(got.value) == str(want.value)

    def test_crossing_counts_only_started_members(self, monkeypatch):
        # the member starting after the spike never sees it; the other two cross at index 70
        n = 200
        f = builtin_field("additive", matrix=np.array([[1.0]]))
        driver = spiked_driver(n, 70)
        x0s = np.array([[0.5], [-3.0], [2.0]])
        with pytest.raises(BlowUpError) as want:
            oracle_forward(x0s[:2], 10, f, driver)
        with pytest.raises(BlowUpError) as got:
            trajectories(x0s, [10, 0, 100], f, driver, backward=False)
        assert str(got.value) == str(want.value)
        # a factor below 1 puts the x0 of the member waiting for index 100 above its bound:
        # waiting is no crossing, its first step is
        zero, x0s, smooth = builtin_field("zero"), np.array([[0.5], [50.0]]), driver_of(seed=1, n=n)
        with pytest.raises(BlowUpError) as want:
            oracle_forward(x0s[1:], 100, zero, smooth, blowup_factor=0.9)
        monkeypatch.setattr(sde, "DEFAULT_BLOWUP_FACTOR", 0.9)
        with pytest.raises(BlowUpError) as got:
            list(_march(x0s, [0, 100], zero, smooth.times, smooth.values, smooth.step))
        assert str(got.value) == str(want.value)
        assert "at t = 0.505" in str(got.value)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("backward", [False, True])
    def test_per_member_drivers_match_one_call_per_driver(self, m, backward):
        c = time_dependent_field(m)
        n = 150
        drivers = [driver_of(seed=s, n=n, m=m) for s in (3, 4, 5, 6)]
        cfg = SolverConfig(0.3, n, 0.75)
        x0s = np.random.default_rng(m).uniform(-1.0, 1.0, size=(len(drivers), c.dim))
        starts = [150, 64, 1, 90] if backward else [0, 64, 149, 65]
        marks = [0, 1, 63, 64, 65, 100, 149, 150]
        got = _flow_marks(x0s, starts, marks, c, drivers, cfg, backward=backward)
        for i, d in enumerate(drivers):
            want = _flow_marks(x0s[i : i + 1], starts[i], marks, c, d, cfg, backward=backward)
            assert np.array_equal(got[:, i : i + 1], want), i

    def test_overflow_after_crossing_is_silent(self):
        # x**3 diffusion: past the guard, the same block overflows to inf
        cube = CoefficientField(lambda t, x: (x**3)[..., None], lambda t, x: np.zeros_like(x), 1, 1)
        n = 128
        driver = GridPath(np.linspace(0.0, 1.0, n + 1), np.arange(n + 1) * (-1.0) ** np.arange(n + 1))
        cfg = SolverConfig(0.3, n, 0.75)
        with pytest.raises(BlowUpError) as want:
            oracle_forward(np.array([[2.0]]), 0, cube, driver)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(BlowUpError) as got:
                solve_forward_batch([2.0], 0.0, cube, driver, cfg)
        assert str(got.value) == str(want.value)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_field_error_after_crossing_reports_the_crossing(self, monkeypatch):
        def sigma(t, x):
            if np.abs(x).max() > 1e20:
                raise ValueError("state outside the field's domain")
            return np.ones(x.shape + (1,))

        picky = CoefficientField(sigma, lambda t, x: np.zeros_like(x), 1, 1)
        n = 100
        vals = np.zeros(n + 1)
        vals[3:] = 1e13   # crosses the guard at index 3
        vals[5:] = 1e21   # and leaves the field's domain two steps later
        driver = GridPath(np.linspace(0.0, 1.0, n + 1), vals)
        cfg = SolverConfig(0.3, n, 0.75)
        with pytest.raises(BlowUpError) as want:
            oracle_forward(np.array([[0.0]]), 0, picky, driver)
        with pytest.raises(BlowUpError) as got:
            solve_forward_batch([0.0], 0.0, picky, driver, cfg)
        assert str(got.value) == str(want.value)
        # without a crossing before it, the field's own error comes through
        monkeypatch.setattr(sde, "DEFAULT_BLOWUP_FACTOR", 1e30)
        with pytest.raises(ValueError, match="domain"):
            solve_forward_batch([0.0], 0.0, picky, driver, cfg)

    def test_nan_state_crosses_the_guard(self):
        # NaN compares false with the bound; it used to step on, or fail later in GridPath
        def sigma(t, x):
            return np.where(x > 1.0, np.nan, 1.0)[..., None]

        spotty = CoefficientField(sigma, lambda t, x: np.zeros_like(x), 1, 1)
        driver = driver_of(seed=3, n=256)
        cfg = SolverConfig(0.3, 256, 0.75)
        with pytest.raises(BlowUpError, match=r"\|X\| = nan at t = "):
            solve_forward_batch(np.array([[1.0], [0.0]]), 0.0, spotty, driver, cfg)
        with pytest.raises(BlowUpError, match=r"\|X\| = nan at t = "):
            solve_forward([1.0], 0.0, spotty, driver, cfg)

    @pytest.mark.parametrize("spec", ["builtin:geometric:0.5", "builtin:sin", "builtin:additive:0.8",
                                      "builtin:additive:0.5,1;0,1"])
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("per_member", [False, True], ids=["shared", "per-member"])
    @pytest.mark.parametrize("entry", ["march", "flow-marks-reversed"])
    def test_declared_zero_drift_matches_the_drift_kernel(self, spec, backward, per_member, entry):
        c = parse_field(spec)
        assert c.drift_growth == 0.0
        n = 150  # more than two guard blocks
        # in stepping order, with repeated starts and starts on both sides of block edges
        starts = [150, 150, 130, 90, 65, 64, 2, 1] if backward else [0, 0, 1, 64, 64, 87, 149, 150]
        x0s = np.random.default_rng(7).uniform(-1.0, 1.0, size=(len(starts), c.dim))
        x0s[[0, 3]] = 0.0
        x0s[[1, 5]] = -0.0  # the kernels may differ only in the sign of an exactly-zero state, which == ignores
        grid = driver_of(seed=3, n=n, m=c.noise_dim)
        if per_member:
            values = np.stack([driver_of(seed=s, n=n, m=c.noise_dim).values for s in range(len(starts))])
        else:
            values = grid.values
        want = drift_march(x0s, starts, c, grid.times, values, grid.step, backward)
        if entry == "march":
            got = np.full((len(starts), n + 1, c.dim), np.nan)
            for reached, states in _march(x0s, starts, c, grid.times, values, grid.step, backward):
                got[:, reached] = states.swapaxes(0, 1)
            # NaN marks the start indices that no member steps to, in both
            assert np.array_equal(got, want, equal_nan=True)
            return
        # the members out of stepping order: _flow_marks orders them for the march and puts them back
        driver = [GridPath(grid.times, v) for v in values] if per_member else grid
        got = _flow_marks(x0s[::-1], starts[::-1], range(n + 1), c, driver[::-1] if per_member else driver,
                          SolverConfig(0.3, n, 0.75), backward=backward).swapaxes(0, 1)[::-1]
        # a member holds its x0 at every index it has not stepped to
        assert np.array_equal(got, np.where(np.isnan(want), x0s[:, None], want))

    @pytest.mark.parametrize("solve, t", [(solve_forward_batch, 0.25), (solve_backward, 0.75)],
                             ids=["forward", "backward"])
    def test_declared_zero_drift_is_never_called(self, driver, cfg, solve, t):
        def refuse(t, x):
            raise AssertionError("drift called on a field that declares none")

        f = builtin_field("sin")
        silent = dataclasses.replace(f, drift=refuse)
        x0s = np.array([[0.4], [-1.2]])
        assert np.array_equal(solve(x0s, t, silent, driver, cfg), solve(x0s, t, f, driver, cfg))

    @pytest.mark.parametrize("solve, t", [(solve_forward_batch, 0.0), (solve_backward, 1.0)],
                             ids=["forward", "backward"])
    def test_declared_drift_is_called_every_step(self, driver, cfg, solve, t):
        f = builtin_field("linear-drift")
        calls = []

        def counted(t, x):
            calls.append(t)
            return f.drift(t, x)

        solve(np.array([[0.4], [-1.2]]), t, dataclasses.replace(f, drift=counted), driver, cfg)
        assert len(calls) == cfg.n_steps

    @pytest.mark.parametrize("rows", [None, 1, 7], ids=["one-block", "1-row-blocks", "7-row-blocks"])
    @pytest.mark.parametrize("coefficients", ["builtin:geometric:0.5", "builtin:sin", "builtin:additive:0.8"])
    def test_probe_matches_oracle(self, monkeypatch, coefficients, rows):
        cfg = experiments.default_config("inverse", ladder=(2**7,), seeds=(0,), fine_n=2**10,
                                         probe_seeds=40, probe_n=2**7 + 3, coefficients=coefficients)
        c = cfg.field()
        marched = force_member_blocks(monkeypatch, rows, cfg.probe_n, c.noise_dim)
        assert experiments._run_sortedness_probe(cfg, c) == oracle_probe(cfg, c)
        assert marched == member_blocks(rows or 40, 40)  # 7-row blocks leave a last block of 5

    @pytest.mark.parametrize("rows, counts", [(None, (300, 600)), (1, (20, 45)), (7, (20, 45))],
                             ids=["one-block", "1-row-blocks", "7-row-blocks"])
    @pytest.mark.parametrize("coefficients", ["builtin:sin", "builtin:geometric:0.5", "builtin:additive:0.8"])
    def test_moments_match_oracle(self, monkeypatch, coefficients, rows, counts):
        cfg = experiments.default_config("moments", sample_counts=counts, solver_n=2**7 + 5,
                                         coefficients=coefficients)
        marched = force_member_blocks(monkeypatch, rows, cfg.solver_n, 1)
        assert experiments._run_moments(cfg) == oracle_moments(cfg)
        assert marched == member_blocks(rows or 600, counts[-1])  # 7-row blocks leave a last block of 3

    def test_moments_working_set_is_flat_in_the_sample_count(self):
        # beyond its records, a pass holds one member block of drivers and its march, not the whole batch
        import tracemalloc

        for scale in (1, 4):
            counts = tuple(scale * k for k in experiments.default_config("moments").sample_counts)
            cfg = experiments.default_config("moments", sample_counts=counts)
            tracemalloc.start()
            try:
                records = experiments._run_moments(cfg)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(records) == max(counts)
            assert peak - retained < 16 * 2**20, (counts, peak - retained)

    @pytest.mark.parametrize("backward, starts", [(False, 0), (True, [3 * _GUARD_BLOCK, 96])],
                             ids=["forward", "backward"])
    def test_consecutive_march_blocks_share_one_buffer(self, backward, starts):
        f = builtin_field("sin")
        smooth = driver_of(seed=2, n=3 * _GUARD_BLOCK)
        blocks = _march(np.array([[0.4], [-1.2]]), starts, f, smooth.times, smooth.values, smooth.step,
                        backward=backward)
        (_, first), (_, second), (_, third) = blocks
        assert np.shares_memory(first, second) and np.shares_memory(second, third)

    @pytest.mark.parametrize("backward, starts", [(False, [0, 64, 1]), (True, [150, 1, 65])],
                             ids=["forward", "backward"])
    def test_march_rejects_starts_out_of_stepping_order(self, backward, starts):
        f = builtin_field("sin")
        smooth = driver_of(seed=2, n=150)
        x0s = np.zeros((len(starts), 1))
        with pytest.raises(ValueError, match="stepping order"):
            next(_march(x0s, starts, f, smooth.times, smooth.values, smooth.step, backward=backward))
        # sorted into stepping order, the same members march
        ordered = sorted(starts, reverse=backward)
        assert len(list(_march(x0s, ordered, f, smooth.times, smooth.values, smooth.step, backward=backward))) == 3

    @staticmethod
    def traced_peak(run, *args):
        """The tracemalloc peak of ``run(*args)`` beyond what the call leaves allocated, in MiB."""
        import tracemalloc

        tracemalloc.start()
        try:
            run(*args)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return (peak - retained) / 2**20

    def test_init_continuity_working_set_holds_no_batch_of_solutions(self):
        # holding every pair's two solutions, (2000, 513, 1), as a full solve does, peaks at 12.3 MiB
        cfg = experiments.default_config("init-continuity", seeds=(0,))
        assert self.traced_peak(experiments._run_init_continuity, cfg) < 7.0

    def test_sortedness_probe_working_set_holds_no_gap_block(self):
        # a (64, seeds, fan - 1) block of gaps held besides the states peaks at 12.0 MiB
        cfg = experiments.default_config("inverse")
        assert self.traced_peak(experiments._run_sortedness_probe, cfg, cfg.field()) < 10.0

    @pytest.mark.parametrize("field", ["builtin:geometric:0.5", "2-D"])
    def test_pair_differences_equal_the_differences_of_the_full_solve(self, field):
        c = time_dependent_field(2) if field == "2-D" else parse_field(field)
        n = 3 * _GUARD_BLOCK + 10  # a short last block
        smooth = driver_of(seed=4, n=n, m=c.noise_dim)
        cfg = SolverConfig(alpha=0.3, n_steps=n, hurst=0.75)
        flat = np.random.default_rng(6).uniform(-1.0, 1.0, size=(2 * 9, c.dim))
        flat[7] = flat[6]  # a pair of equal points: a difference of zeros
        flat[8] = -0.0
        want = solve_forward_batch(flat, 0.0, c, smooth, cfg)
        want = (want[0::2] - want[1::2]).swapaxes(0, 1)
        got = experiments._pair_differences(flat, c, smooth, cfg)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # a driver that crosses the blow-up guard in the second guard block raises the same text
        jump = np.zeros((n + 1, c.noise_dim))
        jump[70:] = 1e13
        spiked = GridPath(smooth.times, jump)
        with pytest.raises(BlowUpError) as solved:
            solve_forward_batch(flat, 0.0, c, spiked, cfg)
        with pytest.raises(BlowUpError) as paired:
            experiments._pair_differences(flat, c, spiked, cfg)
        assert str(paired.value) == str(solved.value)
        assert "at t = " in str(paired.value)

    def test_moments_with_drift_match_oracle(self):
        # the kernel adds sigma dB + b h before the state; the old loop added them in turn
        cfg = experiments.default_config("moments", sample_counts=(300, 600), solver_n=2**7,
                                         coefficients="builtin:linear-drift:0.7")
        got = [r["sup_abs"] for r in experiments._run_moments(cfg)]
        want = [r["sup_abs"] for r in oracle_moments(cfg)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


class TestStridedMarch:
    """Members of mixed strides in one march against each member alone on its grid decimated by its stride."""

    N = 256  # four guard blocks; the stride-8 members alone take 32 steps
    # nested strides, as on a ladder of powers of 2, and strides 2, 3 and 6, where no member steps from
    # the indices 1 and 5 (mod 6), as on the ladder (12, 16, 24) marched at its least common multiple 48
    GRIDS = {"nested": (256, [1, 8, 2, 4, 1, 4, 2, 8]), "non-nested": (252, [3, 2, 6, 2, 3, 6, 2, 3])}

    def members(self, c, backward, drivers, n, strides):
        x0s = np.random.default_rng(5).uniform(-1.0, 1.0, size=(len(strides), c.dim))
        x0s[[1, 4]] = -0.0  # the sign of an exactly-zero state must survive as well
        x0s[6] = 0.0
        picks = [256, 0, 64, 128, 200, 32, 96, 256] if backward else [0, 0, 64, 128, 200, 32, 96, 248]
        starts = [min(k, n) // s * s for k, s in zip(picks, strides)]
        if drivers == "per-member":
            return x0s, starts, [driver_of(seed=s, n=n, m=c.noise_dim) for s in range(len(starts))]
        paths = [driver_of(seed=s, n=n, m=c.noise_dim) for s in (3, 4)]
        # one path object for all, or two, each shared by members of several strides
        return x0s, starts, paths[0] if drivers == "shared" else [paths[i % 3 % 2] for i in range(len(starts))]

    @pytest.mark.parametrize("spec", ["builtin:sin", "builtin:geometric:0.5", "builtin:additive:0.5,1;0,1",
                                      "builtin:linear-drift:0.8,0.3;-0.2,0.6", "time-dependent:1",
                                      "time-dependent:2"])
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("drivers", ["shared", "repeated", "per-member"])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("order", ["as-listed", "reversed"])
    def test_each_member_matches_its_decimated_grid(self, spec, backward, drivers, grid, order):
        # the time-dependent fields read t in sigma and the drift, so each stride's times and h are checked too
        n, strides = self.GRIDS[grid]
        c = time_dependent_field(int(spec[-1])) if spec.startswith("time") else parse_field(spec)
        x0s, starts, driver = self.members(c, backward, drivers, n, strides)
        if order == "reversed":  # another order out of stepping order: x0s, starts, strides and drivers move together
            x0s, starts, strides = x0s[::-1], starts[::-1], strides[::-1]
            driver = driver[::-1] if isinstance(driver, list) else driver
        got = _flow_marks(x0s, starts, range(n + 1), c, driver, SolverConfig(0.3, n, 0.75),
                          backward=backward, strides=strides)
        for i, s in enumerate(strides):
            d = driver[i] if isinstance(driver, list) else driver
            coarse = d.decimate(s)
            want = _flow_marks(x0s[i : i + 1], starts[i] // s, range(coarse.n_steps + 1), c, coarse,
                               SolverConfig(0.3, coarse.n_steps, 0.75), backward=backward)
            have = got[::s, i : i + 1]
            assert np.array_equal(have, want), i
            assert np.array_equal(np.signbit(have), np.signbit(want)), i

    @pytest.mark.parametrize("n, strides, knots", [(256, [1, 4, 2, 8], (96, 104)), (252, [2, 3, 2, 6], (96, 102))],
                             ids=["nested", "non-nested"])
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_a_crossing_member_raises_the_error_it_raises_alone(self, backward, n, strides, knots):
        f = builtin_field("additive", matrix=np.array([[1.0]]))
        top = strides[3]
        # the last member's driver jumps by 1e13 between two of its knots; the others stay small
        drivers = [driver_of(seed=s, n=n) for s in range(3)] + [spiked_driver(n, 101)]
        x0s = np.array([[0.5], [-0.3], [1.0], [0.2]])
        start = n if backward else 0
        with pytest.raises(BlowUpError) as got:
            _flow_marks(x0s, start, [0, n], f, drivers, SolverConfig(0.3, n, 0.75),
                        backward=backward, strides=strides)
        coarse = drivers[3].decimate(top)
        with pytest.raises(BlowUpError) as alone:
            _flow_marks(x0s[3:], start // top, [0, coarse.n_steps], f, coarse,
                        SolverConfig(0.3, coarse.n_steps, 0.75), backward=backward)
        assert str(got.value) == str(alone.value)
        # the time of the knot the member steps to, not of the fine grid index the march reached
        assert f"at t = {knots[0 if backward else 1] / n:.6g} " in str(got.value)

    def test_a_stride_must_divide_the_grid_and_the_start(self):
        drivers = [driver_of(seed=s, n=self.N) for s in range(2)]
        c, cfg = builtin_field("sin"), SolverConfig(0.3, self.N, 0.75)
        for starts, strides in (([0, 4], [1, 8]), ([0, 0], [1, 3]), ([0, 0], [1, 0])):
            with pytest.raises(ValueError, match="stride"):
                _flow_marks(np.zeros((2, 1)), starts, [self.N], c, drivers, cfg, strides=strides)


# ---------------------------------------------------------------------------
# the screened blow-up guard and the campaigns' block reductions against the
# expressions they replaced
# ---------------------------------------------------------------------------

def unscreened_check_block(block, active, reached, bound, time_of):
    """``sde._check_block`` as it was before the screen: an exact scan of every block."""
    with np.errstate(over="ignore", invalid="ignore"):
        mag = np.linalg.norm(block, axis=-1)
    over = ~(mag <= bound)
    if not over.any():
        return
    for j in np.flatnonzero(over.reshape(over.shape[0], -1).any(axis=1)):
        a = active[j]
        if over[j, :a].any():
            worst = np.unravel_index(np.argmax(mag[j, :a]), mag[j, :a].shape)
            raise BlowUpError(
                f"|X| = {float(mag[j, :a][worst]):.3e} at t = {time_of(reached[j], worst[0]):.6g} "
                "crossed the blow-up guard; the hypotheses are violated or the grid is too coarse"
            )


def guard_outcome(check, block, active, reached, bound):
    """The text of the BlowUpError that ``check`` raises on the block, or None."""
    try:
        check(block, active, reached, bound, lambda r, i: 0.01 * r + 1e-4 * i)
    except BlowUpError as exc:
        return str(exc)
    return None


# three equal components whose norm rounds above their max times sqrt(3): a screen
# without a margin for the norm's rounding lets a bound just below that norm pass
_ROUNDS_UP = 1.273599710517558


def guard_case(name, d, probe):
    """A (block, active, reached, bound) case of the guard, states of 8 rows and 6 members.

    ``probe`` lays the members out as the sortedness probe does, (B, F, 1)
    with 2 seeds of 3 fan points.  Member 5, the last, starts at row 4; in
    the probe layout its whole seed does.
    """
    rng = np.random.default_rng(len(name) * 10 + d)
    shape = (8, 2, 3, 1) if probe else (8, 6, d)
    block = rng.uniform(-1.0, 1.0, size=shape)
    flat = block.reshape(8, 6, -1)  # a view: member i is flat[:, i]
    bound = np.full(shape[1:-1], 10.0)
    bounds = bound.reshape(6)
    active = np.repeat([shape[1] - 1, shape[1]], 4)
    reached = np.arange(40, 48)
    if name in ("nan", "inf", "-inf"):
        flat[3, 2, 0] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[name]
    elif name == "nan, unstarted":
        flat[2, 5, -1] = np.nan
    elif name == "over, unstarted":
        flat[1, 5, 0] = 1e30
    elif name in ("just over", "just under"):
        flat[5, 1] = 7.5
        mag = np.linalg.norm(flat[5, 1])
        bounds[1] = np.nextafter(mag, 0.0) if name == "just over" else mag
    elif name == "rounds up":
        flat[6, 3] = _ROUNDS_UP * np.array([1.0, -1.0, 1.0])[: flat.shape[-1]]
        bounds[3] = np.nextafter(np.linalg.norm(flat[6, 3]), 0.0)
    elif name == "two crossings":
        flat[6, 0, 0], flat[4, 2, -1] = 11.0, -12.0
    elif name == "overflowed square":  # |X| reads inf though the component is below the bound
        bound[...] = 1e200
        flat[2, 2, 0] = 1e160
    elif name == "tiny bound":  # a subnormal square rounds up: |X| reads 2.2e-162 for a component of 1.73e-162
        block *= 1e-170
        bound[...] = 2e-162
        flat[3, 0, 0] = 1.73e-162
    elif name == "empty":
        block = block[:0]
    return block, active, reached, bound


GUARD_CASES = ["inside", "nan", "inf", "-inf", "nan, unstarted", "over, unstarted", "just over", "just under",
               "rounds up", "two crossings", "overflowed square", "tiny bound", "empty"]


class TestGuardScreen:
    @pytest.mark.parametrize("name", GUARD_CASES)
    @pytest.mark.parametrize("layout", ["d=1", "d=2", "d=3", "probe"])
    def test_same_raise_and_text_as_the_exact_scan(self, name, layout):
        case = guard_case(name, 1 if layout == "probe" else int(layout[-1]), layout == "probe")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the screen adds no warning of its own
            got = guard_outcome(sde._check_block, *case)
        want = guard_outcome(unscreened_check_block, *case)
        assert got == want
        crosses = ("nan", "inf", "-inf", "just over", "rounds up", "two crossings", "overflowed square", "tiny bound")
        assert (want is not None) == (name in crosses), want

    def test_the_cases_reach_both_sides_of_the_screen(self):
        # "rounds up" is a crossing only a margin finds, and "just under" a block the screen cannot pass
        block, active, reached, bound = guard_case("rounds up", 3, False)
        top = np.abs(block).max()
        assert top * np.sqrt(3) <= bound.min() < np.linalg.norm(block, axis=-1).max()
        block, active, reached, bound = guard_case("inside", 2, False)
        assert np.abs(block).max() * np.sqrt(2) * sde._SCREEN_MARGIN <= bound.min()

    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    def test_random_blocks_near_their_bounds(self, d):
        rng = np.random.default_rng(d)
        raised = 0
        for trial in range(300):
            rows, size = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            bound = rng.uniform(1.0, 100.0, size)
            # components around the bound / sqrt(d) level where the screen's decision turns
            scale = bound.min() / np.sqrt(d) * (1.0 + rng.choice([-1e-9, -1e-15, 0.0, 1e-15, 1e-9, 0.5]))
            block = scale * rng.choice([-1.0, 1.0], size=(rows, size, d)) * rng.uniform(0.999, 1.0, (rows, size, d))
            if trial % 7 == 0:
                block[rng.integers(rows), rng.integers(size), rng.integers(d)] = np.nan
            active = np.sort(rng.integers(1, size + 1, rows))
            case = (block, active, np.arange(rows), bound)
            want = guard_outcome(unscreened_check_block, *case)
            assert guard_outcome(sde._check_block, *case) == want, trial
            raised += want is not None
        assert 0 < raised < 300

    def test_march_crossings_keep_their_text(self):
        # the kernel's own crossings: a spike in a batch and a NaN from the field
        f = builtin_field("additive", matrix=np.array([[1.0]]))
        driver = spiked_driver(200, 70)
        with pytest.raises(BlowUpError) as want:
            oracle_forward(np.array([[0.5], [-3.0]]), 0, f, driver)
        with pytest.raises(BlowUpError) as got:
            trajectories(np.array([[0.5], [-3.0]]), 0, f, driver, backward=False)
        assert str(got.value) == str(want.value) == (
            "|X| = 1.000e+13 at t = 0.35 crossed the blow-up guard; "
            "the hypotheses are violated or the grid is too coarse")


class TestBlockReductions:
    @staticmethod
    def states(rng, shape, zeros):
        """Normal states with exact ties, NaN and, if ``zeros``, both signed zeros."""
        x = rng.standard_normal(shape)
        flat = x.reshape(-1)
        flat[rng.choice(flat.size, flat.size // 8)] = 0.25  # ties: zero gaps
        flat[rng.choice(flat.size, 3)] = np.nan
        if zeros:
            flat[rng.choice(flat.size, flat.size // 4)] = 0.0
            flat[rng.choice(flat.size, flat.size // 4)] = -0.0
        return x

    @pytest.mark.parametrize("fan", [2, 3, 8, 9])
    @pytest.mark.parametrize("zeros", [False, True], ids=["no signed zeros", "signed zeros"])
    def test_fan_min_gap_equals_the_diff_min(self, fan, zeros):
        rng = np.random.default_rng(fan)
        for rows, seeds in ((64, 40), (1, 3), (17, 1)):
            x = self.states(rng, (rows, seeds, fan), zeros)
            got, want = experiments._fan_min_gap(x), np.diff(x, axis=-1).min(axis=(0, 2))
            assert np.array_equal(got, want, equal_nan=True)
            if not zeros:  # a zero gap is then +0.0 on both sides, so the bytes agree too
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    def test_root_of_the_max_square_equals_the_max_norm(self, d):
        rng = np.random.default_rng(d)
        x0 = self.states(rng, (1, 50, d), zeros=True)[0]
        blocks = [self.states(rng, (64, 50, d), zeros=True) for _ in range(3)]
        blocks[1][5, 7] = 1e160  # its square overflows, in the norm too
        blocks[2][9, 8] = 1e-170  # its square underflows
        with np.errstate(over="ignore"):
            sup_sq, sup_abs = experiments._sup_sq(x0[None]), np.linalg.norm(x0, axis=-1)
            for states in blocks:
                sup_sq = np.maximum(sup_sq, experiments._sup_sq(states))
                sup_abs = np.maximum(sup_abs, np.linalg.norm(states, axis=-1).max(axis=0))
        assert np.sqrt(sup_sq).tobytes() == sup_abs.tobytes()
        assert np.isnan(sup_abs).any() and np.isinf(sup_abs).any()
