"""Product-integration rules for power-law kernels on uniform grids.

Every singular integral in this package has the shape

    integral of  phi(y) * u(y)**p  dy

where ``u`` is the distance to the singular point and ``phi`` is known at
the grid nodes.  The rules below integrate the kernel exactly against the
piecewise-linear interpolant of ``phi``, which keeps Riemann sums from
diverging near the singularity and is exact whenever ``phi`` is affine.

Cell moments, for the cell at distance ``g`` steps from the singularity
(``u`` in ``[(g-1)h, g*h]``):

    I0(g) = integral u**p du
    I1(g) = integral u**p (u - (g-1)h) du

Node weights inside one cell: the node nearer the singularity gets
``gamma(g) = I0(g) - I1(g)/h`` and the farther node gets
``beta(g) = I1(g)/h``.  For p <= -1 the first cell's ``gamma(1)`` is
infinite, so those rules require ``phi`` to vanish at the singular node
(always true for increment integrands).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def cell_weights(p: float, h: float, gmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell node weights (beta, gamma) for the kernel u**p, cells g = 1..gmax.

    Returned arrays are indexed by g; entry 0 is unused and set to 0.
    ``gamma[1]`` is +inf when p <= -1 (callers must pair it with a zero
    node value).  Requires p > -2 and p != -1.
    """
    if p <= -2.0 or p == -1.0:
        raise ValueError(f"kernel exponent p={p} outside the supported range (-2, -1) U (-1, inf)")
    g = np.arange(gmax + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        gp1 = g ** (p + 1.0)
        gp2 = g ** (p + 2.0)
        d0 = (gp1[1:] - gp1[:-1]) / (p + 1.0)
        d1 = (gp2[1:] - gp2[:-1]) / (p + 2.0) - g[:-1] * d0
    # 0**(p+1) = inf for p < -1: first cell's constant moment diverges
    beta = np.zeros(gmax + 1)
    gamma = np.zeros(gmax + 1)
    scale = h ** (p + 1.0)
    beta[1:] = scale * d1
    gamma[1:] = scale * (d0 - d1)
    if p < -1.0:
        gamma[1] = np.inf
        beta[1] = scale / (p + 2.0)
    return beta, gamma


def weighted_integral(phi: np.ndarray, p: float, h: float) -> float:
    """Integral of phi(u) * u**p over [0, n*h], singularity at u = 0.

    ``phi`` holds node values on the uniform grid.  For p <= -1 the value
    at the singular node must be exactly 0.
    """
    phi = np.asarray(phi, dtype=float)
    n = phi.shape[0] - 1
    if n < 1:
        raise ValueError("need at least one cell")
    beta, gamma = cell_weights(p, h, n)
    if p <= -1.0:
        if phi[0] != 0.0:
            raise ValueError("kernel u**p with p <= -1 requires phi(0) = 0")
        first = phi[1] * beta[1]
    else:
        first = phi[0] * gamma[1] + phi[1] * beta[1]
    rest = phi[1:-1] @ gamma[2:] + phi[2:] @ beta[2:] if n > 1 else 0.0
    return float(first + rest)


def _causal_convolve(f: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Rows 0..n of the linear convolution of each column of f (n+1, d) with c (n+1,).

    One rfft/irfft pair at the shortest power-of-2 length >= 2n + 1, so no
    wrapped term lands on a row in use.
    """
    n = f.shape[0] - 1
    size = 1 << (2 * n).bit_length()
    spec = np.fft.rfft(f, size, axis=0) * np.fft.rfft(c, size)[:, None]
    return np.fft.irfft(spec, size, axis=0)[: n + 1]


def kernel_profile(values: np.ndarray, p: float, h: float) -> np.ndarray:
    """All prefix integrals  I[k] = integral_0^{t_k} f(y) (t_k - y)**p dy.

    Exact for piecewise-linear f; computed as one FFT convolution.
    Requires p > -1.  ``values`` may be (n+1,) or (n+1, d); the result has
    the same shape.
    """
    if p <= -1.0:
        raise ValueError("kernel_profile requires p > -1; use increment_profile for stronger singularities")
    vals = np.asarray(values, dtype=float)
    scalar = vals.ndim == 1
    f = vals[:, None] if scalar else vals
    n = f.shape[0] - 1
    beta, gamma = cell_weights(p, h, n + 1)
    c = np.zeros(n + 1)
    c[0] = gamma[1]
    c[1:] = beta[1:-1] + gamma[2:]
    out = _causal_convolve(f, c)
    out -= f[0] * gamma[1:, None]
    out[0] = 0.0  # empty integral; clears FFT residue
    return out[:, 0] if scalar else out


def increment_profile(values: np.ndarray, p: float, h: float) -> np.ndarray:
    """All prefix integrals  I[k] = integral_0^{t_k} (f(t_k) - f(y)) (t_k - y)**p dy.

    Signed increments, p in (-2, -1); the integrand vanishes at the
    singular endpoint y = t_k, which keeps the first cell finite.
    """
    if not (-2.0 < p < -1.0):
        raise ValueError(f"increment_profile requires p in (-2, -1), got {p}")
    vals = np.asarray(values, dtype=float)
    scalar = vals.ndim == 1
    f = vals[:, None] if scalar else vals
    n = f.shape[0] - 1
    beta, gamma = cell_weights(p, h, n + 1)
    k = np.arange(n + 1, dtype=float)
    t = k * h
    with np.errstate(divide="ignore", invalid="ignore"):
        w_total = (t ** (p + 1.0) - h ** (p + 1.0)) / (p + 1.0) + beta[1]
    w_total[0] = 0.0
    cp = np.zeros(n + 1)
    cp[1:] = beta[1:-1] + gamma[2:]
    s = _causal_convolve(f, cp)
    s[1:] -= f[0] * gamma[2:, None]  # row k subtracts f(0) * gamma(k+1); row 0 is zeroed below
    out = f * w_total[:, None] - s
    out[0] = 0.0
    return out[:, 0] if scalar else out


_DIST_ELEMENTS = 2**18  # entries of the distance buffer of abs_increment_profile (2 MB)


def abs_increment_profile(values: np.ndarray, p: float, h: float, chunk: int = 256) -> np.ndarray:
    """All prefix integrals  I[k] = integral_0^{t_k} |f(t_k) - f(y)| (t_k - y)**p dy.

    The absolute value (Euclidean over components) breaks the convolution
    structure, so this runs the O(n^2) product-integration sum in blocks of
    ``chunk`` rows.  p in (-2, -1).

    Node j < k of row k carries the weight ``cp[k - j]`` with
    ``cp[g] = beta(g) + gamma(g + 1)``, except node 0, which carries
    ``beta(k)`` only.  The weights are therefore Toeplitz in k - j: ``cp``
    is stored once, reversed and zero-padded, and each block's weights are
    a strided window view of that vector, with every node j >= k landing on
    the zero padding.  The distances |f(t_k) - f(t_j)| of a block are
    written into one buffer allocated per call (for d > 1 the squared
    components are accumulated there before one square root), a slice of
    rows at a time: the buffer holds at most ``_DIST_ELEMENTS`` entries, so
    a long path does not allocate (and touch) a 16 MB buffer per call.
    Each row's sum is the same whatever the slice.
    """
    if not (-2.0 < p < -1.0):
        raise ValueError(f"abs_increment_profile requires p in (-2, -1), got {p}")
    if chunk < 1:
        raise ValueError(f"abs_increment_profile requires chunk >= 1, got {chunk}")
    vals = np.asarray(values, dtype=float)
    f = vals[:, None] if vals.ndim == 1 else vals
    n, dim = f.shape[0] - 1, f.shape[1]
    beta, gamma = cell_weights(p, h, n + 1)
    # rev[n - g] = cp[g] for g = 1..n; rev[n:] = 0 covers every gap g <= 0
    rev = np.zeros(2 * n)
    rev[:n] = (beta[1:-1] + gamma[2:])[::-1]
    rows = min(chunk, n, max(1, _DIST_ELEMENTS // (n + 1)))  # rows of one distance buffer
    dist = np.empty((rows, n + 1))
    sq = np.empty((rows, n + 1)) if dim > 1 else None
    out = np.zeros(n + 1)
    for k0 in range(1, n + 1, chunk):
        k1 = min(k0 + chunk, n + 1)
        # row k starts its window at rev[n - k]
        window = sliding_window_view(rev, k1)[n - k1 + 1 : n - k0 + 1][::-1]
        for r0 in range(k0, k1, rows):
            r1 = min(r0 + rows, k1)
            w = window[r0 - k0 : r1 - k0]
            d = dist[: r1 - r0, :k1]
            np.subtract(f[r0:r1, None, 0], f[None, :k1, 0], out=d)
            if dim == 1:
                np.abs(d, out=d)
            else:
                np.multiply(d, d, out=d)
                s = sq[: r1 - r0, :k1]
                for c in range(1, dim):
                    np.subtract(f[r0:r1, None, c], f[None, :k1, c], out=s)
                    np.multiply(s, s, out=s)
                    d += s
                np.sqrt(d, out=d)
            out[r0:r1] = np.einsum("kj,kj->k", d[:, 1:], w[:, 1:]) + beta[r0:r1] * d[:, 0]
    return out
