"""Fractional operators against closed forms, inversion, and the driver functional."""

import math
import warnings

import numpy as np
import pytest

from flowlab import fbm
from flowlab.fraccalc import (
    FracOrder,
    _endpoint_indices,
    _endpoint_peaks,
    _lambda_alpha_impl,
    lambda_alpha,
    lambda_alpha_report,
    left_frac_integral,
    left_weyl_derivative,
    right_frac_integral,
    right_weyl_derivative,
)
from flowlab.paths import GridPath, _sweep_weights, w_one_minus_alpha_norm


def path_of(fn, n=4096):
    return GridPath.from_function(fn, n)


@pytest.fixture(scope="module")
def fbm_path():
    return fbm.sample_circulant(fbm.FbmSpec(hurst=0.75, grid_size=2**9, seed=7)).path


class TestFracIntegral:
    def test_zero(self):
        out = left_frac_integral(path_of(lambda t: np.zeros_like(t), 64), 0.5)
        assert np.all(out.values == 0.0)

    def test_starts_at_zero(self):
        out = left_frac_integral(path_of(lambda t: 1.0 + t, 64), 0.4)
        assert out.values[0, 0] == 0.0

    def test_constant_power_rule(self):
        out = left_frac_integral(path_of(lambda t: np.ones_like(t), 2048), FracOrder(0.5))
        t = out.times[1:]
        expected = np.sqrt(t) / math.gamma(1.5)
        assert np.allclose(out.values[1:, 0], expected, rtol=1e-10)

    def test_identity_power_rule(self):
        # I^a t = t^{1+a} / Gamma(2+a); exact for piecewise-linear input
        a = 0.3
        out = left_frac_integral(path_of(lambda t: t, 512), a)
        t = out.times
        assert np.allclose(out.values[:, 0], t ** (1 + a) / math.gamma(2 + a), rtol=1e-9, atol=1e-14)

    def test_semigroup_composition(self):
        inner = left_frac_integral(path_of(lambda t: np.ones_like(t), 4096), 0.4)
        outer = left_frac_integral(inner, 0.3)
        assert outer.values[-1, 0] == pytest.approx(1.0 / math.gamma(1.7), rel=1e-4)

    def test_right_integral_mirror(self):
        out = right_frac_integral(path_of(lambda t: np.ones_like(t), 2048), 0.5)
        assert out.values[0, 0] == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-10)
        assert out.values[-1, 0] == 0.0

    def test_reflection_identity(self):
        f = path_of(lambda t: np.sin(2.0 * t) + t, 512)
        rev = GridPath(f.times, f.values[::-1])
        left_of_rev = left_frac_integral(rev, 0.35)
        right_direct = right_frac_integral(f, 0.35)
        assert np.allclose(right_direct.values, left_of_rev.values[::-1], atol=1e-12)

    def test_linearity(self):
        f = path_of(lambda t: np.sin(t), 256)
        g = path_of(lambda t: t**2, 256)
        lhs = left_frac_integral(2.0 * f + g, 0.4)
        rhs = 2.0 * left_frac_integral(f, 0.4) + left_frac_integral(g, 0.4)
        assert np.allclose(lhs.values, rhs.values, atol=1e-12)


class TestWeylDerivative:
    def test_zero(self):
        out = left_weyl_derivative(path_of(lambda t: np.zeros_like(t), 64), 0.4)
        assert np.all(out.values == 0.0)

    def test_power_alpha_is_constant(self):
        # D^a of t^a equals Gamma(1+a) at every interior point
        a = 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # t^a sits exactly on the regularity boundary
            out = left_weyl_derivative(path_of(np.sqrt, 4096), a)
        interior = out.values[64:-1, 0]
        assert np.allclose(interior, math.gamma(1.5), rtol=1e-3)

    def test_inverts_integral(self):
        a = 0.4
        f = path_of(lambda t: t * (1.0 - t), 4096)
        back = left_weyl_derivative(left_frac_integral(f, a), a)
        err = np.abs(back.values[1:-1, 0] - f.values[1:-1, 0]).max()
        assert err < 1e-3

    def test_endpoint_convention(self):
        f = path_of(lambda t: t, 64)  # f(0) = 0: limit at the endpoint is 0
        out = left_weyl_derivative(f, 0.3)
        assert out.values[0, 0] == 0.0
        g = path_of(lambda t: 1.0 + t, 64)  # f(0) != 0: replicate first interior value
        outg = left_weyl_derivative(g, 0.3)
        assert outg.values[0, 0] == outg.values[1, 0]

    def test_right_derivative_pinned_constant_is_zero(self):
        out = right_weyl_derivative(path_of(lambda t: np.full_like(t, 3.0), 128), 0.4, pin_endpoint=True)
        assert np.allclose(out.values, 0.0, atol=1e-12)

    def test_right_derivative_closed_form(self):
        # pinned right derivative of g(t) = t with order 1 - a: -(1-s)^a / Gamma(1+a)
        a = 0.4
        out = right_weyl_derivative(path_of(lambda t: t, 2048), 1.0 - a, pin_endpoint=True)
        s = out.times[1:-1]
        expected = -((1.0 - s) ** a) / math.gamma(1.0 + a)
        assert np.allclose(out.values[1:-1, 0], expected, rtol=1e-6, atol=1e-9)

    def test_reflection_against_left(self):
        f = path_of(lambda t: np.cos(3.0 * t), 512)
        rev = GridPath(f.times, f.values[::-1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            right = right_weyl_derivative(f, 0.35)
            left_of_rev = left_weyl_derivative(rev, 0.35)
        assert np.allclose(right.values[1:-1], left_of_rev.values[::-1][1:-1], atol=1e-10)

    def test_warns_on_rough_path_below_order(self, fbm_path):
        with pytest.warns(UserWarning, match="Holder order"):
            left_weyl_derivative(fbm_path, 0.95)

    def test_overflowing_integral_raises_regularity_error(self):
        from flowlab.errors import RegularityError

        vals = np.zeros(65)
        vals[1::2] = 1e308  # finite values, overflowing singular increments
        wild = GridPath.from_values(vals)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(RegularityError):
                left_weyl_derivative(wild, 0.49)


class TestLambdaAlpha:
    def test_constant_is_zero(self):
        assert lambda_alpha(path_of(lambda t: np.full_like(t, 5.0), 128), 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_scaling(self, fbm_path):
        base = lambda_alpha(fbm_path, 0.3)
        assert lambda_alpha(-2.5 * fbm_path, 0.3) == pytest.approx(2.5 * base, rel=1e-10)

    def test_identity_closed_form(self):
        # sup_s (t-s)^a / (Gamma(1-a) Gamma(1+a)) attained at t = T, s -> 0
        a = 0.3
        n = 2048
        value = lambda_alpha(path_of(lambda t: t, n), a, endpoints="all")
        expected = (1.0 - 1.0 / n) ** a / (math.gamma(1.0 - a) * math.gamma(1.0 + a))
        assert value == pytest.approx(expected, rel=1e-9)

    def test_decimated_below_exact(self, fbm_path):
        a = 0.3
        assert lambda_alpha(fbm_path, a) <= lambda_alpha(fbm_path, a, endpoints="all") + 1e-12

    def test_eq3_upper_bound(self, fbm_path):
        a = 0.3
        lam = lambda_alpha(fbm_path, a, endpoints="all")
        bound = w_one_minus_alpha_norm(fbm_path, a) / (math.gamma(1.0 - a) * math.gamma(a))
        assert lam <= bound

    @pytest.mark.parametrize("seed", range(8))
    def test_subadditive(self, seed):
        s = fbm.FbmSpec(hurst=0.8, grid_size=128, seed=seed)
        g = fbm.sample_circulant(s).path
        h = fbm.sample_circulant(fbm.FbmSpec(hurst=0.8, grid_size=128, seed=seed + 1000)).path
        a = 0.3
        assert lambda_alpha(g + h, a, "all") <= lambda_alpha(g, a, "all") + lambda_alpha(h, a, "all") + 1e-10

    def test_refinement_stabilizes_on_smooth_path(self):
        vals = [lambda_alpha(path_of(lambda t: np.sin(2 * t), n), 0.3, endpoints="all") for n in (256, 512, 1024)]
        assert vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9
        assert abs(vals[2] - vals[1]) < 5e-3

    def test_report_fields(self, fbm_path):
        rep = lambda_alpha_report(fbm_path, 0.3)
        assert rep.endpoint_mode == "decimated"
        assert 0.0 <= rep.attained_s < rep.attained_t <= 1.0
        assert rep.value <= rep.upper_bound

    def test_alpha_domain(self, fbm_path):
        with pytest.raises(ValueError):
            lambda_alpha(fbm_path, 0.6)

    def test_explicit_endpoint_sequence(self, fbm_path):
        sub = lambda_alpha(fbm_path, 0.3, endpoints=[64, 128, 256])
        assert sub <= lambda_alpha(fbm_path, 0.3, endpoints="all") + 1e-12
        with pytest.raises(ValueError):
            lambda_alpha(fbm_path, 0.3, endpoints=[0, 5])


# -- oracle: the per-endpoint FFT loop that lambda_alpha ran before the pair sweep --


def _oracle_pinned_magnitude(values, a, h):
    """|D^{1-a}_{t-} g_{t-}| at s = t - k*h for the right endpoint t = last node, via one FFT profile."""
    from flowlab.quadrature import increment_profile

    w = values[::-1]
    j = w.shape[0] - 1
    tau = np.arange(j + 1) * h
    prof = increment_profile(w, a - 2.0, h)
    out = np.zeros((j + 1, w.shape[1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        out[1:] = (w[1:] - w[0]) / tau[1:, None] ** (1.0 - a)
    out[1:] += (1.0 - a) * prof[1:]
    out /= math.gamma(a)
    return np.linalg.norm(out, axis=1)


def _oracle_lambda(g, a, idx):
    """(value, s index, t index): one increment profile per right endpoint in ``idx``."""
    scale = 1.0 / math.gamma(1.0 - a)
    best, best_pair = 0.0, (0, int(idx[-1]))
    for j in idx:
        interior = _oracle_pinned_magnitude(g.values[: j + 1], a, g.step)[1:j]
        k = int(np.argmax(interior)) + 1
        peak = scale * interior[k - 1]
        if peak > best:
            best, best_pair = peak, (j - k, j)
    return float(best), best_pair[0], best_pair[1]


def _oracle_endpoints(n, mode):
    if mode == "all":
        return np.arange(2, n + 1)
    if mode == "decimated":
        return np.unique(np.linspace(2, n, int(np.ceil(np.sqrt(n)))).round().astype(int))
    return np.unique([2, n // 2 + 1, n])


def _oracle_path(kind, n, d):
    t = np.linspace(0.0, 1.0, n + 1)
    if kind == "constant":
        return GridPath.from_values(np.full((n + 1, d), 3.0))
    if kind == "linear":
        return GridPath.from_values(np.outer(t, np.arange(1.0, d + 1.0)))
    spec = fbm.FbmSpec(hurst=0.75, components=d, grid_size=n, seed=11 + n + d)
    return 2.5 * fbm.sample_circulant(spec).path


class TestLambdaAlphaOracle:
    """The pair sweep ("all") and the cached-weight endpoint FFTs against the per-endpoint loop."""

    @pytest.mark.parametrize("n", [2, 3, 17, 256, 1024])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("kind", ["constant", "linear", "fbm"])
    @pytest.mark.parametrize("mode", ["all", "decimated", "explicit"])
    def test_matches_per_endpoint_loop(self, n, d, kind, mode):
        a = 0.3
        g = _oracle_path(kind, n, d)
        idx = _oracle_endpoints(n, mode)
        endpoints = idx.tolist() if mode == "explicit" else mode
        value, s, t, _ = _lambda_alpha_impl(g, a, endpoints)
        ref_value, ref_s, ref_t = _oracle_lambda(g, a, idx)
        if kind == "constant":
            # the loop's FFT leaves a rounding residue; the pair it picks from it means nothing
            assert ref_value < 1e-12
            assert value < 1e-12
            if mode == "all":
                assert (value, s, t) == (0.0, 0, n)
            return
        assert value == pytest.approx(ref_value, rel=1e-12)
        assert (s, t) == (ref_s, ref_t)
        assert lambda_alpha(g, a, endpoints) == value

    def test_endpoint_fft_does_not_wrap_onto_short_distances(self):
        # at j = 2^k - 1 the FFT length is 2j + 2, so a kernel cut three taps
        # longer would wrap g(0) onto row k = 1, which a spike at t makes the peak
        a = 0.3
        base = _oracle_path("fbm", 256, 2)
        for j in (3, 7, 15, 31, 63, 127, 255):
            vals = base.values + 5.0
            vals[j] += 40.0
            g = GridPath(base.times, vals)
            value, s, t, _ = _lambda_alpha_impl(g, a, [j])
            assert (value, s, t) == pytest.approx(_oracle_lambda(g, a, [j]), rel=1e-12)
            assert (s, t) == (j - 1, j)

    @pytest.mark.parametrize("mode", ["all", "decimated", "explicit"])
    def test_one_component_does_not_square(self, mode):
        # finite values whose squares overflow: the value scales like the path
        unit = np.zeros(65)
        unit[1::2] = 1.0
        endpoints = list(range(2, 65)) if mode == "explicit" else mode
        base = lambda_alpha(GridPath.from_values(unit), 0.3, endpoints)
        big = lambda_alpha(GridPath.from_values(1e200 * unit), 0.3, endpoints)
        assert big == pytest.approx(1e200 * base, rel=1e-12)

    @pytest.mark.parametrize("mode", ["all", "decimated"])
    def test_report_matches_oracle_and_norm(self, mode):
        a = 0.3
        g = _oracle_path("fbm", 256, 2)
        rep = lambda_alpha_report(g, a, endpoints=mode)
        ref_value, ref_s, ref_t = _oracle_lambda(g, a, _oracle_endpoints(256, mode))
        assert rep.value == pytest.approx(ref_value, rel=1e-12)
        assert (rep.attained_s, rep.attained_t) == (g.times[ref_s], g.times[ref_t])
        bound = w_one_minus_alpha_norm(g, a) / (math.gamma(1.0 - a) * math.gamma(a))
        assert rep.upper_bound == bound

    @pytest.mark.parametrize("mode", ["all", "decimated", "explicit"])
    def test_non_finite_raises_regularity_error(self, mode):
        from flowlab.errors import RegularityError

        vals = np.zeros(65)
        vals[1::2] = 1e308  # finite values whose pinned derivative overflows
        g = GridPath.from_values(vals)
        endpoints = [8, 64] if mode == "explicit" else mode
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(RegularityError):
                lambda_alpha(g, 0.3, endpoints)
            with pytest.raises(RegularityError):
                lambda_alpha_report(g, 0.3, endpoints)


def _fresh_buffer_endpoint_peaks(g, a, idx):
    """``_endpoint_peaks`` as it was with fresh rfft and irfft outputs at every endpoint."""
    cp, tail, last = _sweep_weights(a, g.step, g.n_steps)
    kern = np.concatenate(([0.0], cp))
    below = np.concatenate(([0.0], np.cumsum(cp)))
    own = tail / (1.0 - a) + last
    spectra, peaks, pairs = {}, [], []
    for j in idx.tolist():
        size = 1 << (2 * j).bit_length()
        if size not in spectra:
            spectra[size] = np.fft.rfft(kern[: size // 2], size)[:, None]
        w = g.values[j::-1]
        conv = np.fft.irfft(np.fft.rfft(w, size, axis=0) * spectra[size], size, axis=0)[1:j]
        rows = (w[1:j] - w[0]) * own[: j - 1, None] + w[1:j] * below[: j - 1, None] + kern[1:j, None] * w[0] - conv
        mags = np.abs(rows[:, 0]) if rows.shape[1] == 1 else np.linalg.norm(rows, axis=1)
        k = int(np.argmax(mags)) + 1
        peaks.append(mags[k - 1])
        pairs.append((j - k, j))
    b = int(np.argmax(peaks))
    return (0.0, 0, int(idx[-1])) if peaks[b] <= 0.0 else (float(peaks[b]),) + pairs[b]


@pytest.mark.parametrize("n", [2, 3, 17, 256, 1024, 8192])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", ["constant", "linear", "fbm"])
@pytest.mark.parametrize("mode", ["decimated", "explicit"])
def test_endpoint_peaks_reuse_buffers_bit_for_bit(n, d, kind, mode):
    g = _oracle_path(kind, n, d)
    idx = _endpoint_indices(n, "decimated") if mode == "decimated" else np.arange(2, n + 1, max(1, n // 40))
    assert _endpoint_peaks(g, 0.3, idx) == _fresh_buffer_endpoint_peaks(g, 0.3, idx)


def test_zigzag_path_warns_too_rough():
    # every even lag of 0, 1, 0, 1 ... has peak increment 0; the estimate read 1.0 and no warning fired
    zigzag = GridPath.from_values(np.arange(65) % 2)
    with pytest.warns(UserWarning, match="estimated Holder order 0.001"):
        left_weyl_derivative(zigzag, 0.3)
