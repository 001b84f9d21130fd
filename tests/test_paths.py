"""GridPath behaviour and the Holder-scale norm oracles."""

import io
import math

import numpy as np
import pytest

from flowlab import fbm, paths
from flowlab.paths import (
    GridPath,
    estimate_holder_order,
    f_alpha_one_norm,
    holder_seminorm,
    w_alpha_lambda_norm,
    w_one_minus_alpha_norm,
)
from flowlab.quadrature import _PATH_CHUNK, abs_increment_profile


@pytest.fixture(scope="module")
def fbm_path():
    return fbm.sample_circulant(fbm.FbmSpec(hurst=0.75, grid_size=512, seed=9)).path


def path_of(fn, n=1024, horizon=1.0):
    return GridPath.from_function(fn, n, horizon)


class TestGridPath:
    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            GridPath(np.array([0.0]), np.array([1.0]))

    def test_rejects_nonuniform_grid(self):
        with pytest.raises(ValueError):
            GridPath(np.array([0.0, 0.3, 1.0]), np.zeros(3))

    @pytest.mark.parametrize("times", [
        [0.0, 0.5, np.nan, 1.5],
        [0.0, 1.0, 2.0, np.inf],
        [np.nan, 1.0, 2.0, 3.0],
        [-np.inf, 0.0, 1.0, 2.0],
    ])
    def test_rejects_nonfinite_times(self, times):
        # the uniform-grid test compares a NaN gap with its tolerance, which is false, so these passed it
        with pytest.raises(ValueError, match="times must be finite"):
            GridPath(np.array(times), np.array([0.0, 1.0, 0.5, 2.0]))

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ValueError):
            GridPath(np.array([0.0, 0.5, 1.0]), np.array([0.0, np.nan, 1.0]))

    def test_values_are_locked(self):
        p = path_of(lambda t: t, 8)
        with pytest.raises(ValueError):
            p.values[0, 0] = 7.0

    def test_restrict_and_decimate(self):
        p = path_of(lambda t: t**2, 64)
        head = GridPath(p.times[:33], p.values[:33])
        assert head.n_steps == 32
        assert head.end == pytest.approx(0.5)
        thin = p.decimate(4)
        assert thin.n_steps == 16
        assert np.allclose(thin.values[:, 0], (np.arange(17) / 16) ** 2)
        with pytest.raises(ValueError):
            p.decimate(3)

    def test_arithmetic_requires_same_grid(self):
        p = path_of(lambda t: t, 64)
        q = path_of(lambda t: t, 32)
        with pytest.raises(ValueError):
            _ = p + q
        s = p + p
        assert np.allclose(s.values, 2 * p.values)
        assert np.allclose((2.5 * p).values, 2.5 * p.values)

    def test_csv_roundtrip_full_precision(self, fbm_path):
        buf = io.StringIO()
        fbm_path.to_csv(buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "t,x1"
        back = GridPath.read_csv(io.StringIO(text))
        assert np.array_equal(back.values, fbm_path.values)
        assert np.allclose(back.times, fbm_path.times, rtol=0, atol=1e-16)

    def test_csv_vector_header(self):
        p = GridPath(np.array([0.0, 0.5, 1.0]), np.arange(6.0).reshape(3, 2))
        buf = io.StringIO()
        p.to_csv(buf)
        assert buf.getvalue().splitlines()[0] == "t,x1,x2"

    def test_nonzero_start_supported(self):
        p = GridPath(np.array([0.5, 0.75, 1.0]), np.zeros(3))
        assert p.start == 0.5
        assert p.step == pytest.approx(0.25)


class TestHolderSeminorm:
    def test_constant_path_is_zero(self):
        assert holder_seminorm(path_of(lambda t: np.full_like(t, 3.3), 64), 0.4) == 0.0

    def test_identity_lipschitz(self):
        assert holder_seminorm(path_of(lambda t: t, 1024), 1.0) == pytest.approx(1.0)

    def test_sqrt_half_order(self):
        # attained on every pair (0, t); frozen by brute force over all grid pairs
        assert holder_seminorm(path_of(np.sqrt, 1024), 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_matches_brute_force(self, fbm_path):
        small = fbm_path.decimate(8)  # 64 steps
        vals = small.values[:, 0]
        t = small.times
        best = max(
            abs(vals[j] - vals[i]) / (t[j] - t[i]) ** 0.6
            for i in range(len(t))
            for j in range(i + 1, len(t))
        )
        assert holder_seminorm(small, 0.6) == pytest.approx(best, rel=1e-12)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            GridPath(np.array([0.0]), np.array([[1.0]]))


class TestWAlphaInfNorm:
    """The undiscounted norm, ``w_alpha_lambda_norm(f, alpha, 0.0)``."""

    def test_zero_and_constant(self):
        assert w_alpha_lambda_norm(path_of(lambda t: np.zeros_like(t), 64), 0.25, 0.0) == 0.0
        assert w_alpha_lambda_norm(path_of(lambda t: np.full_like(t, -2.0), 64), 0.25, 0.0) == pytest.approx(2.0)

    def test_identity_closed_form(self):
        # t + t^{1-a}/(1-a) maximized at t = 1: the last node, so the pruned sup must reach the last block
        assert w_alpha_lambda_norm(path_of(lambda t: t, 512), 0.25, 0.0) == pytest.approx(7.0 / 3.0, rel=1e-12)

    def test_alpha_domain(self):
        p = path_of(lambda t: t, 32)
        for bad in (0.0, 0.5, 0.7):
            with pytest.raises(ValueError):
                w_alpha_lambda_norm(p, bad, 0.0)

    def test_monotone_in_appended_time(self):
        p = path_of(lambda t: np.sin(5 * t), 512)
        full = w_alpha_lambda_norm(p, 0.3, 0.0)
        half = w_alpha_lambda_norm(GridPath(p.times[:257], p.values[:257]), 0.3, 0.0)
        assert full >= half - 1e-12


class TestWOneMinusAlphaNorm:
    def test_constant_is_zero(self):
        assert w_one_minus_alpha_norm(path_of(lambda t: np.full_like(t, 4.0), 64), 0.25) == 0.0

    def test_identity_closed_form(self):
        # (1 + 1/a) * T^a with the supremum over all grid pairs
        assert w_one_minus_alpha_norm(path_of(lambda t: t, 512), 0.25) == pytest.approx(5.0, rel=1e-12)

    def test_dominates_holder_seminorm(self, fbm_path):
        alpha = 0.2
        norm = w_one_minus_alpha_norm(fbm_path, alpha)
        semi = holder_seminorm(fbm_path, 1.0 - alpha)
        assert np.isfinite(norm)
        assert norm >= semi


class TestFAlphaOneNorm:
    def test_zero(self):
        assert f_alpha_one_norm(path_of(lambda t: np.zeros_like(t), 64), 0.25) == 0.0

    def test_constant_closed_form(self):
        assert f_alpha_one_norm(path_of(lambda t: np.ones_like(t), 2048), 0.25) == pytest.approx(4.0 / 3.0, rel=1e-10)

    def test_identity_closed_form(self):
        expected = 4.0 / 7.0 + 16.0 / 21.0
        assert f_alpha_one_norm(path_of(lambda t: t, 4096), 0.25) == pytest.approx(expected, rel=1e-4)


class TestWeightedNorm:
    def test_zero_weight_equals_inf_norm(self, fbm_path):
        profile = fbm_path.magnitude() + abs_increment_profile(fbm_path.values, -1.3, fbm_path.step)
        assert w_alpha_lambda_norm(fbm_path, 0.3, 0.0) == np.max(profile)

    def test_constant_attained_at_origin(self):
        p = path_of(lambda t: np.full_like(t, 1.7), 64)
        for lam in (0.5, 3.0, 50.0):
            assert w_alpha_lambda_norm(p, 0.25, lam) == pytest.approx(1.7)

    def test_identity_against_grid_maximum(self):
        p = path_of(lambda t: t, 1024)
        t = p.times
        expected = np.max(np.exp(-10.0 * t) * (t + t**0.75 / 0.75))
        assert w_alpha_lambda_norm(p, 0.25, 10.0) == pytest.approx(expected, rel=1e-12)

    def test_nonincreasing_in_weight(self, fbm_path):
        norms = [w_alpha_lambda_norm(fbm_path, 0.3, lam) for lam in (0.0, 1.0, 5.0, 25.0)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    @pytest.mark.parametrize("weight", [np.inf, np.nan])
    def test_rejects_non_finite_weight(self, fbm_path, weight):
        # both used to return NaN
        with pytest.raises(ValueError, match="lambda_weight must be finite"):
            w_alpha_lambda_norm(fbm_path, 0.3, weight)

    def test_rejects_negative_weight(self, fbm_path):
        with pytest.raises(ValueError, match="lambda_weight must be nonnegative"):
            w_alpha_lambda_norm(fbm_path, 0.3, -1.0)

    def test_equivalent_norm_lower_bound(self, fbm_path):
        lam = 4.0
        lower = math.exp(-lam * 1.0) * w_alpha_lambda_norm(fbm_path, 0.3, 0.0)
        assert w_alpha_lambda_norm(fbm_path, 0.3, lam) >= lower - 1e-12


def unpruned_w_alpha_lambda_norms(values, times, alpha, lambda_weight):
    """``paths._w_alpha_lambda_norms`` as it was before the sup skipped blocks: the full profile, then its max."""
    h = (times[-1] - times[0]) / (times.shape[0] - 1)
    discount = np.exp(-lambda_weight * (times - times[0]))
    norms = np.empty(values.shape[0])
    for p0 in range(0, values.shape[0], _PATH_CHUNK):
        chunk = values[p0 : p0 + _PATH_CHUNK]
        profile = np.linalg.norm(chunk, axis=2) + abs_increment_profile(chunk, -alpha - 1.0, h)
        norms[p0 : p0 + _PATH_CHUNK] = (discount * profile).max(axis=1)
    return norms


def auto_lambda_of_sampled_driver():
    from flowlab import experiments

    config = experiments.default_config("init-continuity")
    driver = experiments._fine_driver(config, 0).decimate(config.fine_n // config.solver_n)
    return experiments._auto_lambda(config, driver)


class TestPrunedWeightedSup:
    """The block-skipping sup against a copy of the full-profile sup, bit for bit."""

    @pytest.mark.parametrize("count", [1, 65])  # 65 crosses a path chunk
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("lam", [0.0, 5.0, "auto", 1e5])  # 1e5: the discount underflows to 0 past t = 0.0075
    @pytest.mark.parametrize("n", [200, 512])
    def test_matches_full_profile(self, count, d, lam, n):
        lam = auto_lambda_of_sampled_driver() if lam == "auto" else lam
        rng = np.random.default_rng(n + 10 * d + count)
        values = rng.standard_normal((count, n + 1, d)).cumsum(axis=1) * n**-0.5
        times = np.linspace(0.0, 1.0, n + 1)
        got = paths._w_alpha_lambda_norms(values, times, 0.3, lam)
        assert np.array_equal(got, unpruned_w_alpha_lambda_norms(values, times, 0.3, lam))

    @pytest.mark.parametrize("lam", [0.0, 5.0])
    def test_constant_path(self, lam):
        # rho = 0: every bound is |f(t)| e^{-lambda t}, and at lambda = 0 every row ties with row 0
        values = np.full((3, 129, 2), [[[1.5, -0.5]]])
        times = np.linspace(0.0, 1.0, 129)
        got = paths._w_alpha_lambda_norms(values, times, 0.3, lam)
        assert np.array_equal(got, unpruned_w_alpha_lambda_norms(values, times, 0.3, lam))

    @pytest.mark.parametrize("d", [1, 2])
    def test_argmax_in_last_block(self, d):
        n = 8 * 64 + 5  # the last block holds rows 513 .. 517
        t = np.linspace(0.0, 1.0, n + 1)
        rng = np.random.default_rng(d)
        values = (t[:, None] ** 3 * rng.uniform(1.0, 2.0, d) + 1e-4 * rng.standard_normal((n + 1, d)))[None]
        profile = np.linalg.norm(values[0], axis=1) + abs_increment_profile(values[0], -1.3, 1.0 / n)
        assert np.argmax(profile) > 8 * 64
        got = paths._w_alpha_lambda_norms(values, t, 0.3, 0.0)
        assert np.array_equal(got, unpruned_w_alpha_lambda_norms(values, t, 0.3, 0.0))

    def test_prune_fires_on_a_driver_continuity_input(self, monkeypatch):
        from flowlab import experiments, sde

        config = experiments.default_config("driver-continuity")
        c = config.field()
        g = experiments._fine_driver(config, 0)
        h = fbm.polygonal(g, config.ladder[-1])
        cfg = sde.SolverConfig(config.alpha, config.fine_n, config.hurst)
        x = np.asarray(config.initial_points[:1], dtype=float)
        diff = sde.solve_forward_batch(x, 0.0, c, g, cfg)[0] - sde.solve_forward_batch(x, 0.0, c, h, cfg)[0]
        blocks = []
        real = paths._abs_block

        def counting(f, k0, *args):
            blocks.append(k0)
            return real(f, k0, *args)

        monkeypatch.setattr(paths, "_abs_block", counting)
        got = paths._w_alpha_lambda_norms(diff[None], g.times, config.alpha, config.lambda_weight)
        offered = -(-config.fine_n // 64)
        assert 0 < len(blocks) < offered
        assert np.array_equal(got, unpruned_w_alpha_lambda_norms(diff[None], g.times, config.alpha,
                                                                 config.lambda_weight))


@pytest.mark.parametrize("seed", range(6))
def test_norms_absolutely_homogeneous(seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((65, 2)).cumsum(axis=0) * 0.2
    p = GridPath.from_values(vals)
    c = float(rng.uniform(-3.0, 3.0))
    scaled = c * p
    for norm in (
        lambda q: holder_seminorm(q, 0.4),
        lambda q: w_alpha_lambda_norm(q, 0.3, 0.0),
        lambda q: w_one_minus_alpha_norm(q, 0.3),
        lambda q: f_alpha_one_norm(q, 0.3),
        lambda q: w_alpha_lambda_norm(q, 0.3, 2.0),
    ):
        assert norm(scaled) == pytest.approx(abs(c) * norm(p), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_norms_satisfy_triangle_inequality(seed):
    rng = np.random.default_rng(seed + 100)
    p = GridPath.from_values(rng.standard_normal((65, 2)).cumsum(axis=0) * 0.2)
    q = GridPath.from_values(rng.standard_normal((65, 2)).cumsum(axis=0) * 0.2)
    for norm in (
        lambda f: holder_seminorm(f, 0.4),
        lambda f: w_alpha_lambda_norm(f, 0.3, 0.0),
        lambda f: w_one_minus_alpha_norm(f, 0.3),
        lambda f: f_alpha_one_norm(f, 0.3),
        lambda f: w_alpha_lambda_norm(f, 0.3, 2.0),
    ):
        assert norm(p + q) <= norm(p) + norm(q) + 1e-9


def test_embedding_chain_inequality():
    """C^{a+e} into the alpha-tail space, with the explicit constant at T = 1."""
    alpha, eps = 0.3, 0.1
    for seed in range(5):
        rng = np.random.default_rng(seed + 7)
        p = GridPath.from_values(rng.standard_normal((129, 1)).cumsum(axis=0) * 0.1)
        lhs = w_alpha_lambda_norm(p, alpha, 0.0)
        f0 = float(np.linalg.norm(p.values[0]))
        c_alpha_eps = 1.0 / eps  # sup_t of the (t-s)^{eps-1} integral on T = 1
        rhs = f0 + holder_seminorm(p, alpha + eps) * (1.0 + c_alpha_eps)
        assert lhs <= rhs + 1e-9


def test_refinement_stability_on_known_path():
    """Doubling n moves each norm by less than the quadrature-order tolerance."""
    results = {}
    for n in (512, 1024):
        p = path_of(lambda t: np.sin(3.0 * t), n)
        results[n] = (
            holder_seminorm(p, 0.5),
            w_alpha_lambda_norm(p, 0.3, 0.0),
            w_one_minus_alpha_norm(p, 0.3),
            f_alpha_one_norm(p, 0.3),
        )
    for a, b in zip(results[512], results[1024]):
        assert abs(a - b) < 5e-3 * max(1.0, abs(b))


def test_estimate_holder_order_tracks_regularity():
    smooth = estimate_holder_order(path_of(lambda t: t, 512))
    rough = estimate_holder_order(fbm.sample_circulant(fbm.FbmSpec(hurst=0.6, grid_size=512, seed=1)).path)
    assert smooth > 0.95
    assert 0.3 < rough < 0.8


@pytest.mark.parametrize("n, zigzag_order", [(64, 1e-3), (8, 1e-3), (4, 1.0), (1, 1.0)])
def test_estimate_holder_order_on_zero_peak_lags(n, zigzag_order):
    # 0, 1, 0, 1 ... has peak 0 at every even lag, so one lag had a slope to give; it read 1.0 (Lipschitz)
    assert estimate_holder_order(GridPath.from_values(np.arange(n + 1) % 2)) == zigzag_order
    assert estimate_holder_order(GridPath.from_values(np.full(n + 1, 2.0))) == 1.0  # constant: nothing moves


def _oracle_w_one_minus_alpha_norm(g, a):
    """The per-row loop the pair sweep replaced: one cumulative sum per start index."""
    from flowlab.quadrature import cell_weights

    vals, n, h = g.values, g.n_steps, g.step
    beta, gamma = cell_weights(a - 2.0, h, n)
    best = 0.0
    for i in range(n):
        d = np.linalg.norm(vals[i:] - vals[i], axis=1)
        m = n - i
        gg = np.arange(1, m + 1)
        terms = np.empty(m)
        terms[0] = d[1] * beta[1]
        terms[1:] = d[1:-1] * gamma[gg[1:]] + d[2:] * beta[gg[1:]]
        best = max(best, (d[1:] / ((gg * h) ** (1.0 - a)) + np.cumsum(terms)).max())
    return float(best)


@pytest.mark.parametrize("n", [2, 3, 17, 256, 1024])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", ["constant", "linear", "fbm"])
def test_w_one_minus_alpha_norm_matches_per_row_loop(n, d, kind):
    t = np.linspace(0.0, 1.0, n + 1)
    if kind == "constant":
        g = GridPath.from_values(np.full((n + 1, d), -1.5))
    elif kind == "linear":
        g = GridPath.from_values(np.outer(t, np.arange(1.0, d + 1.0)))
    else:
        g = 2.5 * fbm.sample_circulant(fbm.FbmSpec(hurst=0.75, components=d, grid_size=n, seed=n + d)).path
    expected = _oracle_w_one_minus_alpha_norm(g, 0.3)
    got = w_one_minus_alpha_norm(g, 0.3)
    if kind == "constant":
        assert got == expected == 0.0
    else:
        assert got == pytest.approx(expected, rel=1e-12)


def _oracle_lag_scans(path, order, hurst):
    """The three lag scans as separate loops, before they shared one lag-peak helper."""
    vals, n, h = path.values, path.n_steps, path.step

    def peak(lag):
        diff = vals[lag:] - vals[:-lag]
        return np.sqrt(np.einsum("ij,ij->i", diff, diff).max())

    lags, peaks, lag = [], [], 1
    while lag <= max(1, n // 4):
        if peak(lag) > 0.0:
            lags.append(lag * h)
            peaks.append(peak(lag))
        lag *= 2
    est = 1.0 if len(lags) < 2 else float(min(1.0, max(np.polyfit(np.log(lags), np.log(peaks), 1)[0], 1e-3)))
    range_bound = float(np.linalg.norm(vals.max(axis=0) - vals.min(axis=0)))
    semi = 0.0
    for lag in range(1, n + 1):
        denom = (lag * h) ** order
        if range_bound / denom <= semi:
            break
        semi = max(semi, peak(lag) / denom)
    modulus = 0.0
    for lag in range(1, n + 1):
        gap = lag * h
        if gap >= 1.0:
            break
        modulus = max(modulus, peak(lag) / (gap**hurst * np.sqrt(np.log(1.0 / gap))))
    return est, float(semi), float(modulus)


# n = 2^13: the modulus prune fires at seed 0 (d = 1) and seed 4 (d = 2), and never at seed 1
LAG_SCAN_CASES = [(2, 1, 0, 1.0), (5, 2, 1, 1.0), (64, 1, 2, 1.0), (1000, 2, 3, 1.0),
                  (2**13, 1, 0, 1.0), (2**13, 1, 1, 1.0), (2**13, 2, 4, 1.0), (1024, 2, 6, 0.3)]


@pytest.mark.parametrize("n, d, seed, horizon", LAG_SCAN_CASES,
                         ids=[f"{n}-{d}-{s}" + (f"-T{t}" if t != 1.0 else "") for n, d, s, t in LAG_SCAN_CASES])
def test_lag_scans_match_separate_loops(n, d, seed, horizon):
    fp = fbm.sample_circulant(fbm.FbmSpec(hurst=0.7, components=d, horizon=horizon, grid_size=n, seed=seed))
    got = (estimate_holder_order(fp.path), holder_seminorm(fp.path, 0.4), fbm.modulus_constant(fp))
    assert got == _oracle_lag_scans(fp.path, 0.4, 0.7)


def ascending_lag_sup(vals, denominators):
    """``paths._lag_sup`` as it was: lags in ascending order, pruned by a suffix maximum of the bound ratios."""
    den = np.asarray(denominators, dtype=float)
    bound = float(np.linalg.norm(vals.max(axis=0) - vals.min(axis=0))) / den
    reach = np.maximum.accumulate(bound[::-1])[::-1]
    best = 0.0
    for lag, (d, b, r) in enumerate(zip(den, bound, reach), start=1):
        if r <= best:
            break
        if b > best:
            best = max(best, paths._lag_peak(vals, lag) / d)
    return float(best)


def _denominators(kind, n, rng):
    lags = np.arange(1, n + 1, dtype=float)
    if kind == "rising":
        return (lags / n) ** 0.4
    if kind == "rise-fall":  # the modulus shape gap^H sqrt(log 1/gap)
        gaps = lags / (n + 1)
        return gaps**0.7 * np.sqrt(np.log(1.0 / gaps))
    if kind == "ties":
        return rng.integers(1, 4, n) * 0.25
    if kind == "extreme":
        return rng.choice([5e-324, 1e-310, 1e-300, 1.0, 1e300, 1.7e308], n)
    return rng.uniform(0.5, 2.0, n)  # "overflow": the values' range overflows to inf


LAG_SUP_KINDS = ["rising", "rise-fall", "ties", "extreme", "overflow"]


@pytest.mark.parametrize("kind", LAG_SUP_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 64, 1000])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_lag_sup_matches_ascending_scan(kind, n, d):
    rng = np.random.default_rng([n, d, LAG_SUP_KINDS.index(kind)])
    for _ in range(5):
        vals = rng.normal(size=(n + 1, d)) * rng.choice([1e-3, 1.0, 1e3])
        if kind == "overflow":
            vals[rng.integers(0, n + 1), 0], vals[rng.integers(0, n + 1), 0] = 1e308, -1e308
        den = _denominators(kind, n, rng)
        with np.errstate(over="ignore"):
            got, want = paths._lag_sup(vals, den), ascending_lag_sup(vals, den)
        assert got == want
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lag_sup_of_no_lags_is_zero(d):
    vals = np.random.default_rng(d).normal(size=(4, d))
    assert paths._lag_sup(vals, []) == ascending_lag_sup(vals, []) == 0.0


def _counted_lag_peaks(monkeypatch):
    peak, calls = paths._lag_peak, []
    monkeypatch.setattr(paths, "_lag_peak", lambda vals, lag: calls.append(lag) or peak(vals, lag))
    return calls


def test_modulus_scan_is_pruned(monkeypatch):
    """The modulus bounds are largest at both ends of the lag range; visited in bound order, few lag peaks are taken."""
    n = 2**13
    fp = fbm.sample_circulant(fbm.FbmSpec(hurst=0.7, grid_size=n, seed=0))
    calls = _counted_lag_peaks(monkeypatch)
    got = fbm.modulus_constant(fp)
    assert 0 < len(calls) <= 64  # 11 lag peaks; the ascending scan took 3,233
    assert got == _oracle_lag_scans(fp.path, 0.4, 0.7)[2]


def test_constant_path_takes_no_lag_peak(monkeypatch):
    # every bound is 0, which no lag can beat
    spec = fbm.FbmSpec(hurst=0.7, grid_size=256)
    fp = fbm.FbmPath(spec, GridPath(spec.times(), np.zeros((257, 1))))
    calls = _counted_lag_peaks(monkeypatch)
    assert holder_seminorm(fp.path, 0.4) == fbm.modulus_constant(fp) == 0.0
    assert calls == []
