"""Grid-sampled paths and the Holder-scale norms used throughout the toolkit.

A path is a vector-valued function sampled on a uniform time grid.  All
norms treat vector values with the Euclidean pointwise norm and restrict
suprema over continuous time pairs to grid pairs; singular integrals use
the product-integration rules from :mod:`flowlab.quadrature`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .quadrature import _CHUNK, _LAG_EXACT, _PATH_CHUNK, _abs_block, _abs_buffers, _abs_weights
from .quadrature import abs_increment_profile, cell_weights, weighted_integral

__all__ = [
    "GridPath",
    "holder_seminorm",
    "w_alpha_lambda_norm",
    "w_one_minus_alpha_norm",
    "f_alpha_one_norm",
]

_GRID_RTOL = 64.0
_SWEEP_ROWS = 32  # start rows per block of the pair sweep
_HOLDER_FLOOR = 1e-3  # lower clip of estimate_holder_order


def _holder_value(order: float) -> float:
    lam = float(order)
    if not (0.0 < lam <= 1.0):
        raise ValueError(f"Holder order must lie in (0, 1], got {lam}")
    return lam


def _alpha_value(order: float, upper: float = 1.0) -> float:
    alpha = float(order)
    if not (0.0 < alpha < upper):
        raise ValueError(f"fractional order must lie in (0, {upper}), got {alpha}")
    return alpha


@dataclass(frozen=True)
class GridPath:
    """A d-dimensional path sampled on a uniform grid t_k = start + k*h.

    ``values`` has shape (n+1, d) with no non-finite entries; instances are
    immutable (the arrays are locked) and safe to share across workers.
    Paths normally start at 0; restarted solver flows may start later.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if times.ndim != 1 or values.ndim != 2 or values.shape[0] != times.shape[0] or values.shape[1] == 0:
            raise ValueError("times must be (n+1,) and values (n+1, d) with d >= 1")
        n = times.shape[0] - 1
        if n < 1:
            raise ValueError("a GridPath needs at least two grid points")
        if not np.isfinite(times).all():  # a NaN gap would pass the uniform-grid test below
            raise ValueError("times must be finite")
        h = (times[-1] - times[0]) / n
        if h <= 0.0:
            raise ValueError("times must be strictly increasing")
        recon = times[0] + np.arange(n + 1) * h
        tol = _GRID_RTOL * np.finfo(float).eps * max(1.0, abs(times[-1]))
        if np.max(np.abs(times - recon)) > tol:
            raise ValueError("times must form a uniform grid")
        if not np.isfinite(values).all():
            raise ValueError("path values must be finite")
        times = times.copy()
        values = values.copy()
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    # -- construction -------------------------------------------------

    @classmethod
    def from_values(cls, values: np.ndarray, horizon: float = 1.0, start: float = 0.0) -> "GridPath":
        values = np.asarray(values, dtype=float)
        n = values.shape[0] - 1
        times = start + np.arange(n + 1) * ((horizon - start) / n)
        return cls(times, values)

    @classmethod
    def from_function(cls, fn: Callable[[np.ndarray], np.ndarray], n: int, horizon: float = 1.0) -> "GridPath":
        times = np.arange(n + 1) * (horizon / n)
        return cls(times, np.asarray(fn(times), dtype=float))

    # -- basic geometry ------------------------------------------------

    @property
    def n_steps(self) -> int:
        return self.times.shape[0] - 1

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    @property
    def start(self) -> float:
        return float(self.times[0])

    @property
    def end(self) -> float:
        return float(self.times[-1])

    @property
    def step(self) -> float:
        return float((self.times[-1] - self.times[0]) / self.n_steps)

    def decimate(self, factor: int) -> "GridPath":
        """Keep every ``factor``-th node; factor must divide n."""
        if factor < 1 or self.n_steps % factor != 0:
            raise ValueError(f"decimation factor {factor} does not divide n = {self.n_steps}")
        return GridPath(self.times[::factor], self.values[::factor])

    def index_of(self, t: float) -> int:
        """Grid index of time t; raises if t is off the grid."""
        k = int(round((t - self.start) / self.step))
        if k < 0 or k > self.n_steps or abs(self.times[k] - t) > 1e-9 * max(1.0, abs(self.end)):
            raise ValueError(f"time {t} is not a grid point")
        return k

    def same_grid(self, other: "GridPath") -> bool:
        return self.times.shape == other.times.shape and np.allclose(
            self.times, other.times, rtol=0.0, atol=1e-12 * max(1.0, abs(self.end))
        )

    # -- arithmetic (pointwise, same grid) ------------------------------

    def _binary(self, other: "GridPath", op) -> "GridPath":
        if not isinstance(other, GridPath):
            return NotImplemented
        if not self.same_grid(other):
            raise ValueError("paths live on different grids")
        return GridPath(self.times, op(self.values, other.values))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return GridPath(self.times, self.values * float(c))

    __rmul__ = __mul__

    def magnitude(self) -> np.ndarray:
        """Euclidean pointwise norm |f(t_k)| as a flat array."""
        return np.linalg.norm(self.values, axis=1)

    def sup_norm(self) -> float:
        return float(self.magnitude().max())

    # -- CSV round trip --------------------------------------------------

    def to_csv(self, target: Union[str, Path, io.IOBase]) -> None:
        """Write ``t,x1,...,xd`` rows at full double precision."""
        header = "t," + ",".join(f"x{j + 1}" for j in range(self.dimension))
        np.savetxt(
            target,
            np.column_stack([self.times, self.values]),
            delimiter=",",
            header=header,
            comments="",
            fmt="%.17g",
        )

    @classmethod
    def read_csv(cls, source: Union[str, Path, io.IOBase]) -> "GridPath":
        """Read what ``to_csv`` writes: a ``t,x1,...,xd`` header row, then one row per grid point."""
        lines = (source.read() if isinstance(source, io.IOBase) else Path(source).read_text()).splitlines()
        if lines and _parses_as_float(lines[0].split(",")[0]):  # a header row starts with the name t
            raise ValueError(f"a path CSV starts with a t,x1,...,xd header row; its first row {lines[0]!r} is a sample")
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        return cls(data[:, 0], data[:, 1:])


def _parses_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# -- norms ---------------------------------------------------------------


def _lag_peak(vals: np.ndarray, lag: int) -> float:
    """max over s of |f(s + lag) - f(s)| on grid values shaped (n + 1, d)."""
    diff = vals[lag:] - vals[:-lag]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff).max())


def estimate_holder_order(f: GridPath) -> float:
    """Crude Holder-order estimate: slope of log sup-increment against log lag.

    Uses dyadic lags only; clipped to (0, 1].  Heuristic, meant for
    regularity warnings and default order selection, not for inference.
    Lags with a zero peak carry no slope.  When two or more lags were
    scanned but only one peak is positive (0, 1, 0, 1, ... is flat at
    every even lag), the estimate is the lower clip; a constant path, or
    a grid too short to scan two lags, reads 1.
    """
    vals = f.values
    n = f.n_steps
    h = f.step
    lags, peaks = [], []
    lag = 1
    while lag <= max(1, n // 4):
        peak = _lag_peak(vals, lag)
        if peak > 0.0:
            lags.append(lag * h)
            peaks.append(peak)
        lag *= 2
    if len(lags) < 2:
        return _HOLDER_FLOOR if lags and n // 4 >= 2 else 1.0
    slope = np.polyfit(np.log(lags), np.log(peaks), 1)[0]
    return float(min(1.0, max(slope, _HOLDER_FLOOR)))


def _lag_sup(vals: np.ndarray, denominators) -> float:
    """max over lags 1 .. len(denominators) of ``_lag_peak(vals, lag) / denominators[lag - 1]``.

    Every increment is bounded by the componentwise range, so lag L's ratio
    is at most ``range / denominators[L - 1]``.  The lags are visited in
    descending order of that bound (ties in ascending lag order), and the
    scan stops at the first lag whose bound cannot beat the incumbent.  The
    max is exact, so the order changes no bit of the result.
    """
    den = np.asarray(denominators, dtype=float)
    bound = float(np.linalg.norm(vals.max(axis=0) - vals.min(axis=0))) / den
    best = 0.0
    for i in np.argsort(-bound, kind="stable").tolist():
        if bound[i] <= best:
            break
        best = max(best, _lag_peak(vals, i + 1) / den[i])
    return float(best)


def holder_seminorm(f: GridPath, order: float) -> float:
    """sup over grid pairs s < t of |f(t) - f(s)| / (t - s)**lambda."""
    lam = _holder_value(order)
    h = f.step
    return _lag_sup(f.values, [(lag * h) ** lam for lag in range(1, f.n_steps + 1)])


def w_alpha_lambda_norm(f: GridPath, alpha: float, lambda_weight: float) -> float:
    """Exponentially discounted W^{alpha,infinity}_0 norm: sup_t e^{-lambda t} (|f(t)| + tail).

    ``lambda_weight = 0`` gives the undiscounted W^{alpha,infinity}_0 norm.
    """
    return float(_w_alpha_lambda_norms(f.values[None], f.times, alpha, lambda_weight)[0])


_BOUND_MARGIN = 1.0 + 1e-12  # so that rounding cannot let the row bound skip the winner


def _w_alpha_lambda_norms(values: np.ndarray, times: np.ndarray, alpha: float,
                          lambda_weight: float) -> np.ndarray:
    """``w_alpha_lambda_norm`` of each path of ``values`` (P, n+1, d) on the uniform grid ``times``.

    The row values e^{-lambda t_k} (|f(t_k)| + I[k]), with I the
    ``abs_increment_profile`` of the exponent -alpha-1, are computed
    ``_PATH_CHUNK`` paths at a time, a block of ``_CHUNK`` rows at a time,
    and only for the blocks that can beat the incumbent sup (row 0, where
    I = 0, to begin with).  ``_row_bounds`` bounds every row from above;
    a block whose bound cannot beat the incumbent of any path of the chunk
    is skipped, and the walk stops once the suffix maximum of the bounds
    cannot.  A block that runs, runs for the whole chunk through the block
    body of ``abs_increment_profile``, so each computed row, and the sup,
    is bit-identical to the full profile's.  No (P, n+1) array is held.
    """
    if not np.isfinite(values).all():
        raise ValueError("path values must be finite")
    a = _alpha_value(alpha, upper=0.5)
    if not np.isfinite(lambda_weight):
        raise ValueError(f"lambda_weight must be finite, got {lambda_weight}")
    if lambda_weight < 0.0:
        raise ValueError("lambda_weight must be nonnegative")
    n = times.shape[0] - 1
    h = (times[-1] - times[0]) / n
    discount = np.exp(-lambda_weight * (times - times[0]))
    weights = _abs_weights(-a - 1.0, h, n)
    cp = weights[1][n - 1 :: -1]  # rev reversed: cp(1) .. cp(n)
    norms = np.empty(values.shape[0])
    for p0 in range(0, values.shape[0], _PATH_CHUNK):
        chunk = values[p0 : p0 + _PATH_CHUNK]
        mags = np.linalg.norm(chunk, axis=2)
        bound = _row_bounds(chunk, cp, discount, mags)
        block_bound = np.maximum.reduceat(bound[:, 1:], np.arange(0, n, _CHUNK), axis=1)
        reach = np.maximum.accumulate(block_bound[:, ::-1], axis=1)[:, ::-1]
        best = discount[0] * mags[:, 0]
        buffers = None  # made for the first block that runs; often none does
        for b, k0 in enumerate(range(1, n + 1, _CHUNK)):
            if (reach[:, b] <= best).all():
                break
            if (block_bound[:, b] > best).any():
                if buffers is None:
                    # sized as abs_increment_profile(chunk) sizes them, so each computed row is bit-identical to its
                    buffers = _abs_buffers(n, chunk.shape[0], chunk.shape[2])
                    f = np.ascontiguousarray(chunk.transpose(2, 1, 0))  # f[c, k, path]
                rows = _abs_block(f, k0, *weights, *buffers)
                k1 = k0 + rows.shape[1]
                best = np.maximum(best, (discount[k0:k1] * (mags[:, k0:k1] + rows)).max(axis=1))
        norms[p0 : p0 + _PATH_CHUNK] = best
    return norms


def _row_bounds(chunk: np.ndarray, cp: np.ndarray, discount: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """An upper bound (P, n+1) of every row value e^{-lambda t_k} (|f(t_k)| + I[k]) of a chunk (P, n+1, d).

    ``cp[g - 1]`` is the weight ``beta(g) + gamma(g + 1)`` of the node g
    steps before the row, and ``mags`` holds |f(t_k)|.  Every distance
    |f(t_k) - f(t_j)| is at most rho, the norm of the componentwise range,
    and at most the lag peak M(k - j).  M is exact for lags up to G =
    ``_LAG_EXACT`` and subadditive beyond: M(qG + r) <= q M(G) + M(r).
    The weights are positive and node 0's weight beta(k) is at most cp(k),
    so I[k] <= sum_{g <= k} cp(g) min(rho, M(g)): one cumulative sum per
    path.  The bound carries the margin ``_BOUND_MARGIN``.
    """
    n = chunk.shape[1] - 1
    lags = min(_LAG_EXACT, n)
    peak = np.zeros((chunk.shape[0], lags + 1))
    for g in range(1, lags + 1):
        diff = chunk[:, g:] - chunk[:, :-g]
        peak[:, g] = np.sqrt(np.einsum("pkc,pkc->pk", diff, diff).max(axis=1))
    q, r = np.divmod(np.arange(1, n + 1), lags)
    rho = np.linalg.norm(chunk.max(axis=1) - chunk.min(axis=1), axis=1)
    dist_bound = peak[:, r]
    dist_bound += q * peak[:, lags, None]
    np.minimum(dist_bound, rho[:, None], out=dist_bound)
    dist_bound *= cp
    np.cumsum(dist_bound, axis=1, out=dist_bound)
    bound = mags.copy()
    bound[:, 1:] += dist_bound
    bound *= discount
    bound *= _BOUND_MARGIN
    return bound


def _sweep_weights(a: float, h: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Product-integration weights of the kernel u^{a-2} by distance, for 1 <= k <= n steps.

    Returns ``cp`` (cp[m-1] = beta(m) + gamma(m+1), the node at distance
    m < k), ``tail`` ((kh)^{a-1}) and ``last`` (beta(k), the node at k).
    """
    beta, gamma = cell_weights(a - 2.0, h, n)
    return beta[1:n] + gamma[2:], (np.arange(1, n + 1) * h) ** (a - 1.0), beta[1:]


def _block_peak(x: np.ndarray, out: np.ndarray, cp: np.ndarray, own: np.ndarray, skip_first: bool = False):
    """Max over a block of |sum_{m<k} cp[m] x(m) + own(k) x(k)| and its (row, k - 1).

    ``x`` is (components, rows, distances), row i of it keeping the first
    ``distances - i`` columns, and ``out`` a work buffer of its shape or larger.
    The first row is left out when ``skip_first`` is set.
    """
    c, r, m = x.shape
    out = out[:c]
    out[..., 0] = 0.0
    np.multiply(x[..., :-1], cp[: m - 1], out=out[..., 1:])
    np.cumsum(out[..., 1:], axis=-1, out=out[..., 1:])
    out += x * own[:m]
    mag = np.abs(out[0]) if c == 1 else np.sqrt(np.einsum("cim,cim->im", out, out))
    mag[:, m - r + 1 :][np.add.outer(np.arange(r), np.arange(r - 1)) >= r - 1] = -np.inf  # past t = n
    if skip_first:
        mag[0] = -np.inf
    i, j = divmod(int(np.argmax(mag)), m)
    return mag[i, j], i, j


def _pair_sweep(g: GridPath, a: float, signed: bool, absolute: bool):
    """Every grid pair s < t of the (1-a) increment integrals, in one blocked pass.

    With Phi(s, m) = g(s) - g(s + m), k = (t - s)/h and the weights of
    ``_sweep_weights``,

        S(s, t) = Phi(s, k) (tail(k)/(1-a) + last(k)) + sum_{m<k} cp(m) Phi(s, m)
        A(s, t) = |Phi(s, k)| (tail(k) + last(k)) + sum_{m<k} cp(m) |Phi(s, m)|

    (1-a)|S| / Gamma(a) is the pinned right-sided derivative
    |D^{1-a}_{t-} g_{t-}(s)| and sup A is the (1-a) norm.  Each block of
    start rows takes one cumulative sum over the distance.  Returns
    ``(sup A over 0 <= s, (sup |S| over 1 <= s, s, t))``, ``None`` for a
    part not asked for: the first pair in (s, t) order attaining sup |S|,
    or (0, n) when every S is 0.  A NaN propagates.
    """
    n, d = g.n_steps, g.dimension
    cp, tail, last = _sweep_weights(a, g.step, n)
    own_signed, own_abs = tail / (1.0 - a) + last, tail + last
    rows = min(_SWEEP_ROWS, n)
    # vt[c, u] = g_c(u), zero-padded past u = n: only excluded pairs read the padding
    vt = np.zeros((d, n + rows))
    vt[:, : n + 1] = g.values.T
    buf = np.empty((2, d * rows * n))
    norms, peaks, pairs = [], [], []
    for s0 in range(0, n, rows):
        r, m = min(rows, n - s0), n - s0  # row i of the block keeps distances 1 .. m - i
        phi, acc = buf[:, : d * r * m].reshape(2, d, r, m)
        np.subtract(vt[:, s0 : s0 + r, None], sliding_window_view(vt[:, s0 + 1 : s0 + r + m], m, axis=1), out=phi)
        if signed:  # s = 0 is not interior
            peak, i, j = _block_peak(phi, acc, cp, own_signed, skip_first=s0 == 0)
            peaks.append(peak)
            pairs.append((s0 + i, s0 + i + j + 1))
        if absolute:
            dist = np.abs(phi[:1]) if d == 1 else np.sqrt(np.einsum("cim,cim->im", phi, phi))[None]
            norms.append(_block_peak(dist, acc, cp, own_abs)[0])
    norm = float(np.max(norms)) if absolute else None
    if not signed:
        return norm, None
    b = int(np.argmax(peaks))
    return norm, ((0.0, 0, n) if peaks[b] <= 0.0 else (float(peaks[b]),) + pairs[b])


def w_one_minus_alpha_norm(g: GridPath, alpha: float) -> float:
    """sup over grid pairs of the (1-alpha) increment ratio plus its singular tail integral."""
    a = _alpha_value(alpha, upper=0.5)
    return _pair_sweep(g, a, signed=False, absolute=True)[0]


def f_alpha_one_norm(f: GridPath, alpha: float) -> float:
    """Weighted L^1 norm plus double increment integral controlling integrands of dg."""
    a = _alpha_value(alpha, upper=0.5)
    h = f.step
    term1 = weighted_integral(f.magnitude(), -a, h)
    inner = abs_increment_profile(f.values, -a - 1.0, h)
    return float(term1 + np.trapezoid(inner, dx=h))
