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

from .quadrature import abs_increment_profile, cell_weights, weighted_integral

__all__ = [
    "GridPath",
    "HolderOrder",
    "FracOrder",
    "holder_seminorm",
    "w_alpha_inf_norm",
    "w_alpha_lambda_norm",
    "w_one_minus_alpha_norm",
    "f_alpha_one_norm",
]

_GRID_RTOL = 64.0
_SWEEP_ROWS = 32  # start rows per block of the pair sweep
_HOLDER_FLOOR = 1e-3  # lower clip of estimate_holder_order


@dataclass(frozen=True)
class HolderOrder:
    """Holder exponent in (0, 1]."""

    value: float

    def __post_init__(self):
        if not (0.0 < self.value <= 1.0):
            raise ValueError(f"Holder order must lie in (0, 1], got {self.value}")


@dataclass(frozen=True)
class FracOrder:
    """Fractional integration/differentiation order in (0, 1)."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"fractional order must lie in (0, 1), got {self.alpha}")


def _holder_value(order: Union[HolderOrder, float]) -> float:
    lam = order.value if isinstance(order, HolderOrder) else float(order)
    if not (0.0 < lam <= 1.0):
        raise ValueError(f"Holder order must lie in (0, 1], got {lam}")
    return lam


def _alpha_value(order: Union[FracOrder, float], upper: float = 1.0) -> float:
    alpha = order.alpha if isinstance(order, FracOrder) else float(order)
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
        if times.ndim != 1 or values.ndim != 2 or values.shape[0] != times.shape[0]:
            raise ValueError("times must be (n+1,) and values (n+1, d)")
        n = times.shape[0] - 1
        if n < 1:
            raise ValueError("a GridPath needs at least two grid points")
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

    def component(self, j: int) -> "GridPath":
        return GridPath(self.times, self.values[:, j])

    def restrict(self, t_end: float) -> "GridPath":
        """Prefix of the path up to the grid time nearest t_end (must lie on the grid)."""
        k = self.index_of(t_end)
        if k < 1:
            raise ValueError("restriction must keep at least one step")
        return GridPath(self.times[: k + 1], self.values[: k + 1])

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
        data = np.loadtxt(source, delimiter=",", skiprows=1, ndmin=2)
        return cls(data[:, 0], data[:, 1:])


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


def holder_seminorm(f: GridPath, order: Union[HolderOrder, float]) -> float:
    """sup over grid pairs s < t of |f(t) - f(s)| / (t - s)**lambda."""
    lam = _holder_value(order)
    vals = f.values
    n = f.n_steps
    h = f.step
    # any increment is bounded by the componentwise range, so once that bound
    # divided by the growing denominator drops below the incumbent, stop
    range_bound = float(np.linalg.norm(vals.max(axis=0) - vals.min(axis=0)))
    best = 0.0
    for lag in range(1, n + 1):
        denom = (lag * h) ** lam
        if range_bound / denom <= best:
            break
        ratio = _lag_peak(vals, lag) / denom
        if ratio > best:
            best = ratio
    return float(best)


def _alpha_profile(f: GridPath, alpha: float) -> np.ndarray:
    """Per-node values |f(t)| + integral_0^t |f(t)-f(s)| (t-s)**(-alpha-1) ds."""
    return f.magnitude() + abs_increment_profile(f.values, -alpha - 1.0, f.step)


def w_alpha_inf_norm(f: GridPath, alpha: Union[FracOrder, float]) -> float:
    """The W^{alpha,infinity}_0 norm: sup_t of |f(t)| plus the alpha-increment tail."""
    a = _alpha_value(alpha, upper=0.5)
    return float(_alpha_profile(f, a).max())


def w_alpha_lambda_norm(f: GridPath, alpha: Union[FracOrder, float], lambda_weight: float) -> float:
    """Exponentially discounted variant: sup_t e^{-lambda t} (|f(t)| + tail)."""
    a = _alpha_value(alpha, upper=0.5)
    if lambda_weight < 0.0:
        raise ValueError("lambda_weight must be nonnegative")
    rel_t = f.times - f.times[0]
    return float((np.exp(-lambda_weight * rel_t) * _alpha_profile(f, a)).max())


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


def w_one_minus_alpha_norm(g: GridPath, alpha: Union[FracOrder, float]) -> float:
    """sup over grid pairs of the (1-alpha) increment ratio plus its singular tail integral."""
    a = _alpha_value(alpha, upper=0.5)
    return _pair_sweep(g, a, signed=False, absolute=True)[0]


def f_alpha_one_norm(f: GridPath, alpha: Union[FracOrder, float]) -> float:
    """Weighted L^1 norm plus double increment integral controlling integrands of dg."""
    a = _alpha_value(alpha, upper=0.5)
    h = f.step
    term1 = weighted_integral(f.magnitude(), -a, h)
    inner = abs_increment_profile(f.values, -a - 1.0, h)
    return float(term1 + np.trapezoid(inner, dx=h))
