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


def _left_node_sums(values: np.ndarray, p: float, h: float) -> tuple:
    """The node values f (n+1, d), the cell weights (beta, gamma) for cells 0..n+1, and the left-node sums s.

    Row k of s (n+1, d) sums f(t_j) over the nodes j < k, with weight
    ``beta(k)`` for node 0 and ``cp[k - j] = beta(k - j) + gamma(k - j + 1)``
    otherwise; row 0 is empty.  cp is convolved in through one rfft/irfft
    pair at the shortest power-of-2 length >= 2n + 1, so no wrapped term
    lands on a row in use, and f(0) * gamma(k + 1) is taken off each row.
    """
    vals = np.asarray(values, dtype=float)
    f = vals[:, None] if vals.ndim == 1 else vals
    n = f.shape[0] - 1
    beta, gamma = cell_weights(p, h, n + 1)
    cp = np.zeros(n + 1)
    cp[1:] = beta[1:-1] + gamma[2:]
    size = 1 << (2 * n).bit_length()
    s = np.fft.irfft(np.fft.rfft(f, size, axis=0) * np.fft.rfft(cp, size)[:, None], size, axis=0)[: n + 1]
    s[1:] -= f[0] * gamma[2:, None]
    s[0] = 0.0
    return f, beta, gamma, s


def kernel_profile(values: np.ndarray, p: float, h: float) -> np.ndarray:
    """All prefix integrals  I[k] = integral_0^{t_k} f(y) (t_k - y)**p dy.

    Exact for piecewise-linear f; computed as one FFT convolution.
    Requires p > -1.  ``values`` may be (n+1,) or (n+1, d); the result has
    the same shape.
    """
    if p <= -1.0:
        raise ValueError("kernel_profile requires p > -1; use increment_profile for stronger singularities")
    f, _, gamma, s = _left_node_sums(values, p, h)
    out = s + gamma[1] * f  # node k itself
    out[0] = 0.0  # empty integral
    return out.reshape(np.shape(values))


def increment_profile(values: np.ndarray, p: float, h: float) -> np.ndarray:
    """All prefix integrals  I[k] = integral_0^{t_k} (f(t_k) - f(y)) (t_k - y)**p dy.

    Signed increments, p in (-2, -1); the integrand vanishes at the
    singular endpoint y = t_k, which keeps the first cell finite.
    """
    if not (-2.0 < p < -1.0):
        raise ValueError(f"increment_profile requires p in (-2, -1), got {p}")
    f, beta, _, s = _left_node_sums(values, p, h)
    t = np.arange(f.shape[0], dtype=float) * h
    with np.errstate(divide="ignore", invalid="ignore"):
        w_total = (t ** (p + 1.0) - h ** (p + 1.0)) / (p + 1.0) + beta[1]
    w_total[0] = 0.0
    out = f * w_total[:, None] - s
    out[0] = 0.0
    return out.reshape(np.shape(values))


_CHUNK = 64  # rows of one block of abs_increment_profile
_LAG_EXACT = 16  # lags with an exact peak in the row bound of the pruned sup of paths.w_alpha_lambda_norm
_PATH_CHUNK = 64  # paths of one block of a batched abs_increment_profile
_DIST_ELEMENTS = 2**18  # entries of the distance buffer of abs_increment_profile (2 MB)


def abs_increment_profile(values: np.ndarray, p: float, h: float) -> np.ndarray:
    """All prefix integrals  I[k] = integral_0^{t_k} |f(t_k) - f(y)| (t_k - y)**p dy.

    The absolute value (Euclidean over components) breaks the convolution
    structure, so this runs the O(n^2) product-integration sum in blocks of
    ``_CHUNK`` rows, every block of every path.  p in (-2, -1).  ``values``
    is one path, (n+1,) or (n+1, d), giving (n+1,), or a batch of paths
    (P, n+1, d), giving (P, n+1); a single path is a batch of one.  Paths
    are taken ``_PATH_CHUNK`` at a time, and each block goes through
    ``_abs_block``, the one block body that the pruned sup of
    ``paths.w_alpha_lambda_norm`` runs on only the blocks that can win.
    """
    if not (-2.0 < p < -1.0):
        raise ValueError(f"abs_increment_profile requires p in (-2, -1), got {p}")
    vals = np.asarray(values, dtype=float)
    paths = vals[:, None] if vals.ndim == 1 else vals
    paths = paths if paths.ndim == 3 else paths[None]
    count, n = paths.shape[0], paths.shape[1] - 1
    weights = _abs_weights(p, h, n)
    buffers = _abs_buffers(n, min(_PATH_CHUNK, count), paths.shape[2])
    out = np.zeros((count, n + 1))
    for p0 in range(0, count, _PATH_CHUNK):
        f = np.ascontiguousarray(paths[p0 : p0 + _PATH_CHUNK].transpose(2, 1, 0))  # f[c, k, path]
        for k0 in range(1, n + 1, _CHUNK):
            out[p0 : p0 + _PATH_CHUNK, k0 : k0 + _CHUNK] = _abs_block(f, k0, *weights, *buffers)
    return out if vals.ndim == 3 else out[0]


def _abs_weights(p: float, h: float, n: int) -> tuple:
    """The weights of ``_abs_block``: the cell weights beta(k) and ``rev``.

    ``rev[n - g] = cp[g] = beta(g) + gamma(g + 1)`` for g = 1..n, and
    ``rev[n:] = 0`` covers every gap g <= 0.
    """
    beta, gamma = cell_weights(p, h, n + 1)
    rev = np.zeros(2 * n)
    rev[:n] = (beta[1:-1] + gamma[2:])[::-1]
    return beta, rev


def _abs_buffers(n: int, width: int, dim: int) -> tuple:
    """The distance buffer of ``_abs_block`` (and its squares buffer for dim > 1) for chunks of at most ``width`` paths.

    It holds at most ``_DIST_ELEMENTS`` entries, so a long path does not
    allocate (and touch) a 16 MB buffer per call.
    """
    rows = min(_CHUNK, n, max(1, _DIST_ELEMENTS // ((n + 1) * width)))  # rows of one distance buffer
    return np.empty((rows, n + 1, width)), (np.empty((rows, n + 1, width)) if dim > 1 else None)


def _abs_block(f: np.ndarray, k0: int, beta: np.ndarray, rev: np.ndarray, dist: np.ndarray, sq) -> np.ndarray:
    """Rows k0 .. k0 + _CHUNK - 1 (at most row n) of the absolute increment profile, shaped (paths, rows).

    ``f[c, k, path]`` is a chunk of paths copied time-major, so the path
    axis is innermost and every subtraction runs over contiguous paths;
    the arguments after ``k0`` come from ``_abs_weights`` and
    ``_abs_buffers``.  Node j < k of row k carries the weight
    ``cp[k - j]``, except node 0, which carries ``beta(k)`` only.  The
    weights are therefore Toeplitz in k - j: each block's weights are a
    strided window view of ``rev``, with every node j >= k landing on the
    zero padding.  The distances |f(t_k) - f(t_j)| are written into
    ``dist`` a slice of rows at a time (for d > 1 the squared components
    are accumulated there before one square root), and one einsum
    contracts a slice's rows for every path.  Each row's sum is the same
    whatever the slice, so a block is bit-identical whichever caller runs
    it on the same chunk.
    """
    dim, n = f.shape[0], f.shape[1] - 1
    width, rows = f.shape[2], dist.shape[0]
    k1 = min(k0 + _CHUNK, n + 1)
    # row k starts its window at rev[n - k]
    window = sliding_window_view(rev, k1)[n - k1 + 1 : n - k0 + 1][::-1]
    out = np.empty((width, k1 - k0))
    for r0 in range(k0, k1, rows):
        r1 = min(r0 + rows, k1)
        w = window[r0 - k0 : r1 - k0]
        d = dist[: r1 - r0, :k1, :width]
        np.subtract(f[0, r0:r1, None], f[0, None, :k1], out=d)
        if dim == 1:
            np.abs(d, out=d)
        else:
            np.multiply(d, d, out=d)
            s = sq[: r1 - r0, :k1, :width]
            for c in range(1, dim):
                np.subtract(f[c, r0:r1, None], f[c, None, :k1], out=s)
                np.multiply(s, s, out=s)
                d += s
            np.sqrt(d, out=d)
        out[:, r0 - k0 : r1 - k0] = (np.einsum("kjp,kj->kp", d[:, 1:], w[:, 1:]) + beta[r0:r1, None] * d[:, 0]).T
    return out
