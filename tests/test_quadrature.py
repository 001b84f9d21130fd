"""Product-integration rules against closed forms and brute-force quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from flowlab.quadrature import (
    abs_increment_profile,
    cell_weights,
    increment_profile,
    kernel_profile,
    weighted_integral,
)


def brute_force(fn, p, lo, hi):
    val, _ = quad(lambda u: fn(u) * u**p, lo, hi, limit=400, points=[lo])
    return val


@pytest.mark.parametrize("p", [-0.25, -0.7, 0.0, 0.5])
def test_weighted_integral_exact_for_affine(p):
    n, h = 64, 1.0 / 64
    u = np.arange(n + 1) * h
    phi = 2.0 + 3.0 * u
    expected = 2.0 * 1.0 / (p + 1) + 3.0 / (p + 2)
    assert weighted_integral(phi, p, h) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("p", [-1.3, -1.75])
def test_weighted_integral_singular_needs_zero_at_origin(p):
    n, h = 64, 1.0 / 64
    u = np.arange(n + 1) * h
    assert weighted_integral(u, p, h) == pytest.approx(1.0 / (p + 2), rel=1e-12)
    with pytest.raises(ValueError):
        weighted_integral(np.ones(n + 1), p, h)


def test_weighted_integral_converges_on_smooth_function():
    p = -0.4
    exact = brute_force(np.cos, p, 0.0, 1.0)
    errs = [abs(weighted_integral(np.cos(np.arange(n + 1) / n), p, 1.0 / n) - exact) for n in (64, 128, 256)]
    assert errs[-1] < 5e-6
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("p", [-0.3, -0.6])
def test_kernel_profile_matches_quadrature(p):
    n = 256
    h = 1.0 / n
    t = np.arange(n + 1) * h
    vals = np.sin(3.0 * t)
    prof = kernel_profile(vals, p, h)
    for k in (10, 100, 256):
        expected = brute_force(lambda u, tk=t[k]: np.sin(3.0 * (tk - u)), p, 0.0, t[k])
        assert prof[k] == pytest.approx(expected, rel=2e-4, abs=1e-7)
    assert prof[0] == 0.0


def test_kernel_profile_rejects_strong_singularity():
    with pytest.raises(ValueError):
        kernel_profile(np.ones(8), -1.2, 0.125)


@pytest.mark.parametrize("p,rel", [(-1.25, 5e-4), (-1.6, 2e-3), (-1.9, 8e-3)])
def test_increment_profile_matches_closed_form(p, rel):
    # the rule is exact for affine phi; for t^2 the error scales like (h/t_k)^{p+3}
    n = 512
    h = 1.0 / n
    t = np.arange(n + 1) * h
    vals = t**2
    prof = increment_profile(vals, p, h)
    for k in (64, 300, 512):
        tk = t[k]
        # integral of (2 t_k u - u^2) u^p du over (0, t_k)
        expected = tk ** (p + 3.0) * (2.0 / (p + 2.0) - 1.0 / (p + 3.0))
        assert prof[k] == pytest.approx(expected, rel=rel)


@pytest.mark.parametrize("p", [-1.3, -1.7])
def test_increment_profile_converges_under_refinement(p):
    errs = []
    for n in (128, 256, 512):
        h = 1.0 / n
        t = np.arange(n + 1) * h
        prof = increment_profile(t**2, p, h)
        exact = 1.0 * (2.0 / (p + 2.0) - 1.0 / (p + 3.0))
        errs.append(abs(prof[-1] - exact))
    assert errs[0] > errs[1] > errs[2]


def test_increment_profile_linearity():
    n, h, p = 128, 1.0 / 128, -1.4
    rng = np.random.default_rng(0)
    f, g = rng.standard_normal(n + 1).cumsum(), rng.standard_normal(n + 1).cumsum()
    lhs = increment_profile(2.0 * f - 3.0 * g, p, h)
    rhs = 2.0 * increment_profile(f, p, h) - 3.0 * increment_profile(g, p, h)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_abs_increment_profile_agrees_with_signed_for_monotone():
    n, h, p = 200, 1.0 / 200, -1.3
    t = np.arange(n + 1) * h
    vals = t  # increasing, so |f(t_k) - f(y)| = f(t_k) - f(y)
    signed = increment_profile(vals, p, h)
    absolute = abs_increment_profile(vals, p, h)
    assert np.allclose(signed, absolute, rtol=1e-12)


def test_abs_increment_profile_vector_values():
    n, h, p = 128, 1.0 / 128, -1.5
    t = np.arange(n + 1) * h
    vals = np.stack([t, 2.0 * t], axis=1)  # |increment| = sqrt(5) * gap
    prof = abs_increment_profile(vals, p, h)
    ref = abs_increment_profile(np.sqrt(5.0) * t, p, h)
    assert np.allclose(prof, ref, rtol=1e-12)


def naive_abs_increment_profile(f, p, h):
    """The product-integration sum cell by cell, straight from the definitions."""
    n = f.shape[0] - 1
    beta, gamma = cell_weights(p, h, n + 1)
    rows = [tuple(map(float, row)) for row in f]
    out = np.zeros(n + 1)
    for k in range(1, n + 1):
        total = 0.0
        for j in range(k):  # cell [t_j, t_{j+1}] at distance g = k - j
            g = k - j
            total += beta[g] * math.dist(rows[k], rows[j])
            if j + 1 < k:  # the node at t_k has |f(t_k) - f(t_k)| = 0 against gamma(1) = inf
                total += gamma[g] * math.dist(rows[k], rows[j + 1])
        out[k] = total
    return out


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
def test_abs_increment_profile_matches_naive_sum(n, d):
    p, h = -1.45, 1.0 / n
    f = np.random.default_rng(n + d).standard_normal((n + 1, d)).cumsum(axis=0)
    expected = naive_abs_increment_profile(f, p, h)
    for chunk in (1, 7, 256, n + 5):
        got = abs_increment_profile(f, p, h, chunk=chunk)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0, err_msg=f"chunk={chunk}")
        if d == 1:
            assert np.array_equal(abs_increment_profile(f[:, 0], p, h, chunk=chunk), got)


@pytest.mark.parametrize("chunk", [0, -4])
def test_abs_increment_profile_rejects_bad_chunk(chunk):
    with pytest.raises(ValueError, match="chunk"):
        abs_increment_profile(np.arange(9.0), -1.3, 0.125, chunk=chunk)


def test_cell_weights_trapezoid_limit():
    beta, gamma = cell_weights(0.0, 0.5, 4)
    assert np.allclose(beta[1:], 0.25)
    assert np.allclose(gamma[1:], 0.25)


def test_cell_weights_rejects_unsupported_exponent():
    with pytest.raises(ValueError):
        cell_weights(-1.0, 0.1, 4)
    with pytest.raises(ValueError):
        cell_weights(-2.3, 0.1, 4)
