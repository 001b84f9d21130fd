"""Samplers, polygonal approximation, modulus of continuity."""

import numpy as np
import pytest

from flowlab import fbm
from flowlab.errors import FactorizationError
from flowlab.paths import GridPath, holder_seminorm


def spec(hurst=0.75, n=256, m=1, seed=0, horizon=1.0):
    return fbm.FbmSpec(hurst=hurst, components=m, horizon=horizon, grid_size=n, seed=seed)


class TestCovariance:
    def test_diagonal(self):
        for H in (0.2, 0.5, 0.8):
            assert fbm.covariance(H, 1.0, 1.0) == pytest.approx(1.0)
            assert fbm.covariance(H, 0.7, 0.7) == pytest.approx(0.7 ** (2 * H))

    def test_brownian_special_case(self):
        assert fbm.covariance(0.5, 1.0, 2.0) == pytest.approx(1.0)
        assert fbm.covariance(0.5, 0.3, 0.9) == pytest.approx(0.3)

    def test_rough_value(self):
        expected = 0.5 * (1.0 + 2.0**1.5 - 1.0)
        assert fbm.covariance(0.75, 1.0, 2.0) == pytest.approx(expected)

    def test_symmetry(self):
        assert fbm.covariance(0.65, 0.4, 1.3) == pytest.approx(fbm.covariance(0.65, 1.3, 0.4))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fbm.covariance(0.75, -0.1, 1.0)
        with pytest.raises(ValueError):
            fbm.covariance(1.2, 0.5, 0.5)

    @pytest.mark.parametrize("hurst", [0.3, 0.6, 0.75, 0.9])
    def test_positive_semidefinite_on_grids(self, hurst):
        t = np.linspace(0.0, 1.0, 33)[1:]
        mat = fbm.covariance(hurst, t[:, None], t[None, :])
        eig = np.linalg.eigvalsh(mat)
        assert eig.min() >= -len(t) * np.finfo(float).eps * eig.max()


class TestSamplers:
    def test_shape_and_origin(self):
        p = fbm.sample_cholesky(spec(n=2))
        assert p.path.n_steps == 2
        assert p.path.values[0, 0] == 0.0
        q = fbm.sample_circulant(spec(n=2))
        assert q.path.values[0, 0] == 0.0

    def test_deterministic_given_seed(self):
        a = fbm.sample_circulant(spec(seed=42)).path.values
        b = fbm.sample_circulant(spec(seed=42)).path.values
        assert np.array_equal(a, b)
        c = fbm.sample_circulant(spec(seed=43)).path.values
        assert not np.array_equal(a, c)

    def test_components_independent_streams(self):
        p = fbm.sample_paths(spec(m=3, n=128), count=400, method="circulant")
        finals = p[:, -1, :]
        corr = np.corrcoef(finals.T)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.abs(off).max() < 3.0 / np.sqrt(400)

    def test_cholesky_guard(self):
        with pytest.raises(ValueError, match="guard"):
            fbm.sample_cholesky(spec(n=2**14))

    def test_factorization_error_names_minor(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        from scipy.linalg.lapack import dpotrf

        _, info = dpotrf(bad, lower=1)
        assert info == 2
        err = FactorizationError(info)
        assert "2" in str(err)

    @pytest.mark.parametrize("method", ["cholesky", "circulant"])
    def test_increment_variance_matches_hurst(self, method):
        h_exp = 0.7
        paths = fbm.sample_paths(spec(hurst=h_exp, n=64, seed=5), count=4000, method=method)
        for lag_t, col in ((0.5, 32), (1.0, 64)):
            var = paths[:, col, 0].var(ddof=1)
            se = lag_t ** (2 * h_exp) * np.sqrt(2.0 / 4000)
            assert abs(var - lag_t ** (2 * h_exp)) < 3.0 * se

    def test_brownian_increments_uncorrelated(self):
        paths = fbm.sample_paths(spec(hurst=0.5, n=64, seed=11), count=10000, method="circulant")
        inc1 = paths[:, 16, 0] - paths[:, 0, 0]
        inc2 = paths[:, 48, 0] - paths[:, 32, 0]
        rho = np.corrcoef(inc1, inc2)[0, 1]
        assert abs(rho) < 3.0 / np.sqrt(10000)

    def test_cross_time_covariance(self):
        paths = fbm.sample_paths(spec(hurst=0.75, n=64, seed=3), count=10000, method="cholesky")
        x, y = paths[:, 32, 0], paths[:, 64, 0]
        est = np.mean(x * y)
        target = fbm.covariance(0.75, 0.5, 1.0)
        se = np.sqrt((x.var() * y.var() + target**2) / 10000)
        assert abs(est - target) < 3.0 * se

    def test_self_similarity_variance(self):
        # a^{-H} B_{aT} has the variance of B_T
        a, hurst, T = 4.0, 0.75, 0.5
        paths = fbm.sample_paths(spec(hurst=hurst, n=64, seed=21, horizon=a * T), count=6000, method="circulant")
        scaled = a**-hurst * paths[:, -1, 0]
        var = scaled.var(ddof=1)
        se = T ** (2 * hurst) * np.sqrt(2.0 / 6000)
        assert abs(var - T ** (2 * hurst)) < 3.0 * se

    def test_stationary_increments(self):
        hurst = 0.6
        paths = fbm.sample_paths(spec(hurst=hurst, n=64, seed=13), count=6000, method="circulant")
        gap = 16  # h = 0.25 in grid time
        h_t = 0.25
        for start in (0, 24, 48):
            inc = paths[:, start + gap, 0] - paths[:, start, 0]
            se = h_t ** (2 * hurst) * np.sqrt(2.0 / 6000)
            assert abs(inc.var(ddof=1) - h_t ** (2 * hurst)) < 3.0 * se

    def test_two_samplers_same_distribution(self):
        n_paths = 6000
        a = fbm.sample_paths(spec(hurst=0.75, n=64, seed=1), count=n_paths, method="cholesky")
        b = fbm.sample_paths(spec(hurst=0.75, n=64, seed=2), count=n_paths, method="circulant")
        va, vb = a[:, -1, 0].var(ddof=1), b[:, -1, 0].var(ddof=1)
        se = np.sqrt(2.0 / n_paths) * np.sqrt(2.0) * 1.0  # var of each estimator ~ 2 sigma^4 / N
        assert abs(va - vb) < 3.0 * se

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            fbm.FbmSpec(hurst=1.2, grid_size=16)
        with pytest.raises(ValueError):
            fbm.FbmSpec(hurst=0.5, grid_size=1)

    @pytest.mark.parametrize("field, value, match", [
        ("horizon", np.nan, "horizon must be positive and finite"),  # sampling then failed on "path values"
        ("horizon", np.inf, "horizon must be positive and finite"),
        ("seed", 1.7, "seed must be integral"),  # it drew seed 1's path
        ("grid_size", 16.5, "grid_size must be integral"),
        ("components", 1.5, "components must be integral"),
    ])
    def test_rejects_nonfinite_horizon_and_nonintegral_counts(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            fbm.FbmSpec(**{"hurst": 0.75, "grid_size": 8, field: value})

    def test_integral_floats_are_kept_as_ints(self):
        spec = fbm.FbmSpec(0.75, 2.0, 1.0, 8.0, 3.0)
        assert (spec.components, spec.grid_size, spec.seed) == (2, 8, 3)
        assert all(type(v) is int for v in (spec.components, spec.grid_size, spec.seed))
        assert np.array_equal(fbm.sample_circulant(spec).path.values,
                              fbm.sample_circulant(fbm.FbmSpec(0.75, 2, 1.0, 8, 3)).path.values)


class TestPolygonal:
    def test_identity_at_full_resolution(self):
        p = fbm.sample_circulant(spec(n=64, seed=2))
        out = fbm.polygonal(p, 64)
        assert np.array_equal(out.values, p.path.values)

    def test_reproduces_affine_input(self):
        path = GridPath.from_function(lambda t: 2.0 * t - 0.5, 128)
        for coarse in (4, 16, 64):
            out = fbm.polygonal(path, coarse)
            assert np.allclose(out.values, path.values, atol=1e-15)

    def test_exact_at_knots(self):
        p = fbm.sample_circulant(spec(n=2**10, seed=7))
        coarse = 2**4
        out = fbm.polygonal(p, coarse)
        stride = 2**10 // coarse
        assert np.array_equal(out.values[::stride], p.path.values[::stride])

    def test_affine_between_knots(self):
        p = fbm.sample_circulant(spec(n=64, seed=3))
        out = fbm.polygonal(p, 8)
        vals = out.values[:, 0]
        for k in range(8):
            cell = vals[8 * k : 8 * k + 9]
            assert np.allclose(np.diff(cell, 2), 0.0, atol=1e-12)

    def test_divisibility_enforced(self):
        p = fbm.sample_circulant(spec(n=64, seed=3))
        with pytest.raises(ValueError):
            fbm.polygonal(p, 7)

    def test_cell_lipschitz_seminorm_matches_increment(self):
        p = fbm.sample_circulant(spec(n=256, seed=5))
        coarse = 8
        out = fbm.polygonal(p, coarse)
        stride = 256 // coarse
        for k in range(coarse):
            cell = GridPath(out.times[k * stride : (k + 1) * stride + 1], out.values[k * stride : (k + 1) * stride + 1])
            inc = abs(p.path.values[(k + 1) * stride, 0] - p.path.values[k * stride, 0])
            assert holder_seminorm(cell, 1.0) == pytest.approx(inc * coarse, rel=1e-9, abs=1e-12)


class TestHolderError:
    def test_zero_for_identical(self):
        p = fbm.sample_circulant(spec(n=128, seed=1)).path
        assert fbm.holder_error(p, p, 0.55) == 0.0

    def test_grid_mismatch(self):
        p = fbm.sample_circulant(spec(n=128, seed=1)).path
        for q in (fbm.sample_circulant(spec(n=64, seed=1)).path, fbm.sample_circulant(spec(n=128, horizon=0.5)).path):
            with pytest.raises(ValueError, match="paths live on different grids"):
                fbm.holder_error(p, q, 0.55)

    def test_error_decreases_with_coarse_n(self):
        p = fbm.sample_circulant(spec(n=2**10, seed=4))
        errs = [fbm.holder_error(p.path, fbm.polygonal(p, c), 0.55) for c in (16, 64, 256)]
        assert errs[0] > errs[1] > errs[2]


class TestModulusConstant:
    def test_constant_path_zero(self):
        path = GridPath.from_function(lambda t: np.full_like(t, 2.0), 64)
        p = fbm.FbmPath(spec(n=64), GridPath(path.times, np.zeros((65, 1))))
        assert fbm.modulus_constant(p) == 0.0

    def test_horizon_guard(self):
        s = spec(n=64, horizon=2.0)
        p = fbm.sample_circulant(s)
        with pytest.raises(ValueError, match="rescale"):
            fbm.modulus_constant(p)

    def test_unit_horizon_allowed(self):
        p = fbm.sample_circulant(spec(n=128, seed=3))
        assert np.isfinite(fbm.modulus_constant(p))

    def test_stable_under_refinement_common_path(self):
        fine = fbm.sample_circulant(spec(n=2**12, seed=17))
        coarse_path = fine.path.decimate(4)
        coarse = fbm.FbmPath(spec(n=2**10, seed=17), coarse_path)
        g_fine = fbm.modulus_constant(fine)
        g_coarse = fbm.modulus_constant(coarse)
        assert g_fine / g_coarse < 2.0
        assert g_coarse / g_fine < 2.0

    def test_percentile_finite_over_seeds(self):
        gs = [fbm.modulus_constant(fbm.sample_circulant(spec(n=2**9, seed=s))) for s in range(1000)]
        q99 = np.percentile(gs, 99)
        assert np.isfinite(q99)
        assert q99 > 0.0


def test_embedding_error_after_doublings(monkeypatch):
    calls = []

    def always_negative(hurst, m_embed):
        calls.append(m_embed)
        return np.array([1.0, -1.0, 1.0, -1.0])

    monkeypatch.setattr(fbm, "_fgn_eigenvalues", always_negative)
    with pytest.raises(fbm.EmbeddingError, match=r"Cholesky sampler instead \(sample_cholesky, or fbm sample --method cholesky\)"):
        fbm.sample_circulant(spec(n=16))
    assert calls == [16, 32, 64, 128]  # three internal doublings before giving up


def test_circulant_eigenvalue_cache_reused():
    fbm._eig_cache.clear()
    fbm.sample_circulant(spec(n=128, seed=1))
    assert (0.75, 128) in fbm._eig_cache
    cached = fbm._eig_cache[(0.75, 128)]
    fbm.sample_circulant(spec(n=128, seed=2))
    assert fbm._eig_cache[(0.75, 128)] is cached


def test_circulant_subquadratic_scaling():
    import time

    spec_small = spec(n=2**12, seed=1)
    spec_large = spec(n=2**13, seed=1)
    fbm.sample_circulant(spec_small)  # warm caches
    fbm.sample_circulant(spec_large)

    def best_of(s, reps=5):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fbm.sample_circulant(s)
            times.append(time.perf_counter() - t0)
        return min(times)

    assert best_of(spec_large) / best_of(spec_small) < 3.0


def embedding(spec: fbm.FbmSpec) -> tuple[int, np.ndarray]:
    """The circulant embedding size and its clipped eigenvalues, doubled as the sampler doubles it."""
    m_embed = spec.grid_size
    for _ in range(fbm._MAX_EMBED_DOUBLINGS + 1):
        eig = fbm._fgn_eigenvalues(spec.hurst, m_embed)
        if eig.min() >= -fbm._EIG_TOL * eig.max():
            break
        m_embed *= 2
    return m_embed, np.clip(eig, 0.0, None)


def block_rows(spec: fbm.FbmSpec) -> int:
    """Paths per circulant block: the normals budget over the embedding length, at least one."""
    return max(1, fbm._SAMPLE_POINTS // (2 * embedding(spec)[0]))


def one_shot_circulant_values(spec: fbm.FbmSpec, count: int) -> np.ndarray:
    """The unblocked Davies-Harte batch: every (count, 2n) buffer alive at once."""
    n, m = spec.grid_size, spec.components
    m_embed, lam = embedding(spec)
    two_m = 2 * m_embed
    scale = spec.step**spec.hurst
    values = np.zeros((count, n + 1, m))
    for j in range(m):
        u = fbm._component_rng(spec.seed, j).standard_normal((count, two_m))
        w = np.zeros((count, two_m), dtype=complex)
        w[:, 0] = np.sqrt(lam[0] / two_m) * u[:, 0]
        w[:, m_embed] = np.sqrt(lam[m_embed] / two_m) * u[:, 1]
        half = np.sqrt(lam[1:m_embed] / (2.0 * two_m))
        w[:, 1:m_embed] = half * (u[:, 2 : 2 * m_embed : 2] + 1j * u[:, 3 : 2 * m_embed + 1 : 2])
        w[:, m_embed + 1 :] = np.conj(w[:, 1:m_embed][:, ::-1])
        fgn = np.fft.fft(w, axis=1).real[:, :n] * scale
        values[:, 1:, j] = np.cumsum(fgn, axis=1)
    return values


class TestBlockedCirculantBatch:
    @pytest.mark.parametrize("count", [0, 1, 511, 512, 513, 1025, "rows-1", "rows", "rows+1", "2rows+1"])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.75])
    @pytest.mark.parametrize("n", [16, 256, 1000])
    def test_bit_identical_to_one_shot(self, count, m, hurst, n):
        s = spec(hurst=hurst, n=n, m=m, seed=11)
        if isinstance(count, str):  # a count at this grid's block boundaries
            rows = block_rows(s)
            count = {"rows-1": rows - 1, "rows": rows, "rows+1": rows + 1, "2rows+1": 2 * rows + 1}[count]
        got = fbm.sample_paths(s, count, "circulant")
        want = one_shot_circulant_values(s, count)
        assert got.shape == want.shape == (count, n + 1, m)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 16, 255])
    def test_bit_identical_in_one_row_blocks(self, monkeypatch, n):
        s = spec(hurst=0.75, n=n, m=2, seed=11)
        monkeypatch.setattr(fbm, "_SAMPLE_POINTS", 2 * embedding(s)[0] - 1)
        assert block_rows(s) == 1
        got = fbm.sample_paths(s, 5, "circulant")
        assert got.tobytes() == one_shot_circulant_values(s, 5).tobytes()

    @pytest.mark.parametrize("rows", ["1", "block-1", "block", "block+1", "count"])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("hurst, n", [(0.75, 100), (0.3, 256)])
    def test_member_blocks_concatenate_to_the_batch(self, rows, m, hurst, n):
        s = spec(hurst=hurst, n=n, m=m, seed=11)
        block = block_rows(s)
        count = 2 * block + 5  # every rows but count leave a partial last member block
        rows = {"1": 1, "block-1": block - 1, "block": block, "block+1": block + 1, "count": count}[rows]
        starts, blocks = [], []
        for start, values in fbm._circulant_batches(s, count, rows):
            starts.append(start)
            blocks.append(values.copy())  # one buffer holds every block
        assert starts == list(range(0, count, rows))
        assert [len(b) for b in blocks] == [min(rows, count - a) for a in starts]
        assert np.concatenate(blocks).tobytes() == fbm.sample_paths(s, count, "circulant").tobytes()

    def test_workspace_bounded_by_a_block(self):
        # the one-shot sampler peaks near 12x the result (u, w and the FFT output at (count, 2n));
        # 512-path blocks left 12, 23 and 34 MB of workspace at these three shapes
        import tracemalloc

        for n, count in [(256, 10_000), (512, 1000), (2048, 200)]:
            tracemalloc.start()
            try:
                out = fbm.sample_paths(fbm.FbmSpec(0.75, 1, 1.0, n), count)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            if count == 10_000:
                assert peak < 2 * out.nbytes
            assert peak - out.nbytes < 4 * 2**20, (n, count)
