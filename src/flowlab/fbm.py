"""Exact sampling of multi-dimensional fractional Brownian motion.

Two exact samplers share one distributional contract: a dense Cholesky
factorization of the covariance (small grids, simple) and a
Davies-Harte circulant embedding of the increment autocovariance
(O(n log n), the performance path).  Components are generated from
independent substreams of the seeded generator, so paths are
reproducible and componentwise independent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EmbeddingError, FactorizationError
from .paths import GridPath, HolderOrder, holder_seminorm, _holder_value, _lag_peak

__all__ = [
    "FbmSpec",
    "FbmPath",
    "covariance",
    "sample_cholesky",
    "sample_circulant",
    "sample_paths",
    "polygonal",
    "holder_error",
    "modulus_constant",
]

DEFAULT_MAX_CHOLESKY_GRID = 2**13
_EIG_TOL = 1e-10
_MAX_EMBED_DOUBLINGS = 3

_eig_cache: dict[tuple[float, int], np.ndarray] = {}
_eig_lock = threading.Lock()


@dataclass(frozen=True)
class FbmSpec:
    """Hurst exponent, component count, horizon, grid size, seed: fully determines a sample."""

    hurst: float
    components: int = 1
    horizon: float = 1.0
    grid_size: int = 256
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.hurst < 1.0):
            raise ValueError(f"Hurst parameter must lie in (0, 1), got {self.hurst}")
        if self.components < 1:
            raise ValueError("need at least one component")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.grid_size < 2:
            raise ValueError("grid size must be at least 2")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")

    @property
    def step(self) -> float:
        return self.horizon / self.grid_size

    def times(self) -> np.ndarray:
        return np.arange(self.grid_size + 1) * self.step


@dataclass(frozen=True)
class FbmPath:
    """A realized fBm sample: the spec that produced it plus the grid path (B(0) = 0)."""

    spec: FbmSpec
    path: GridPath

    def __post_init__(self):
        if self.path.dimension != self.spec.components:
            raise ValueError("path dimension does not match spec components")
        if np.any(self.path.values[0] != 0.0):
            raise ValueError("fBm paths start at 0")


def covariance(hurst: float, t, s):
    """fBm covariance (t^{2H} + s^{2H} - |t-s|^{2H}) / 2; symmetric, equals t^{2H} on the diagonal."""
    if not (0.0 < hurst < 1.0):
        raise ValueError(f"Hurst parameter must lie in (0, 1), got {hurst}")
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(t < 0.0) or np.any(s < 0.0):
        raise ValueError("covariance is defined for nonnegative times")
    two_h = 2.0 * hurst
    out = 0.5 * (t**two_h + s**two_h - np.abs(t - s) ** two_h)
    return float(out) if out.ndim == 0 else out


def _component_rng(seed: int, component: int) -> np.random.Generator:
    # substream per component: hash of (seed, j) keeps components independent
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(component))))


def _cholesky_factor(spec: FbmSpec) -> np.ndarray:
    t = spec.times()[1:]
    cov = covariance(spec.hurst, t[:, None], t[None, :])
    cov[np.diag_indices_from(cov)] += 1e-12 * np.trace(cov) / spec.grid_size
    from scipy.linalg.lapack import dpotrf  # deferred: the only scipy use, and scipy.linalg is slow to import

    factor, info = dpotrf(cov, lower=1, overwrite_a=1)
    if info > 0:
        raise FactorizationError(int(info))
    if info < 0:
        raise ValueError(f"illegal argument {-info} passed to dpotrf")
    return np.tril(factor)


def sample_cholesky(spec: FbmSpec, max_grid: int = DEFAULT_MAX_CHOLESKY_GRID) -> FbmPath:
    """Exact sampler via dense covariance factorization; O(n^2) memory, guarded by ``max_grid``."""
    values = _cholesky_values(spec, 1, max_grid)[0]
    return FbmPath(spec, GridPath(spec.times(), values))


def _cholesky_values(spec: FbmSpec, count: int, max_grid: int = DEFAULT_MAX_CHOLESKY_GRID) -> np.ndarray:
    if spec.grid_size > max_grid:
        raise ValueError(
            f"grid size {spec.grid_size} exceeds the factorization guard {max_grid}; "
            "raise max_grid explicitly or use the circulant sampler"
        )
    factor = _cholesky_factor(spec)
    n, m = spec.grid_size, spec.components
    values = np.zeros((count, n + 1, m))
    for j in range(m):
        z = _component_rng(spec.seed, j).standard_normal((n, count))
        values[:, 1:, j] = (factor @ z).T
    return values


def _fgn_eigenvalues(hurst: float, m_embed: int) -> np.ndarray:
    """Eigenvalues of the circulant embedding of the unit-step fGn autocovariance."""
    key = (hurst, m_embed)
    with _eig_lock:
        cached = _eig_cache.get(key)
    if cached is not None:
        return cached
    k = np.arange(m_embed + 1, dtype=float)
    two_h = 2.0 * hurst
    gam = 0.5 * ((k + 1.0) ** two_h + np.abs(k - 1.0) ** two_h - 2.0 * k**two_h)
    row = np.concatenate([gam[:m_embed], [gam[m_embed]], gam[m_embed - 1 : 0 : -1]])
    eig = np.fft.fft(row).real
    eig.setflags(write=False)
    with _eig_lock:
        _eig_cache[key] = eig
    return eig


def _circulant_values(spec: FbmSpec, count: int) -> np.ndarray:
    n, m = spec.grid_size, spec.components
    m_embed = n
    for attempt in range(_MAX_EMBED_DOUBLINGS + 1):
        eig = _fgn_eigenvalues(spec.hurst, m_embed)
        floor = -_EIG_TOL * eig.max()
        if eig.min() >= floor:
            break
        m_embed *= 2
    else:
        raise EmbeddingError(
            f"circulant embedding of size {m_embed // 2} still has eigenvalues below "
            f"{floor:.3e} after {_MAX_EMBED_DOUBLINGS} doublings; double the embedding size again"
        )
    lam = np.clip(eig, 0.0, None)
    two_m = 2 * m_embed
    scale = spec.step**spec.hurst
    values = np.zeros((count, n + 1, m))
    for j in range(m):
        u = _component_rng(spec.seed, j).standard_normal((count, two_m))
        w = np.zeros((count, two_m), dtype=complex)
        w[:, 0] = np.sqrt(lam[0] / two_m) * u[:, 0]
        w[:, m_embed] = np.sqrt(lam[m_embed] / two_m) * u[:, 1]
        half = np.sqrt(lam[1:m_embed] / (2.0 * two_m))
        w[:, 1:m_embed] = half * (u[:, 2 : 2 * m_embed : 2] + 1j * u[:, 3 : 2 * m_embed + 1 : 2])
        w[:, m_embed + 1 :] = np.conj(w[:, 1:m_embed][:, ::-1])
        fgn = np.fft.fft(w, axis=1).real[:, :n] * scale
        values[:, 1:, j] = np.cumsum(fgn, axis=1)
    return values


def sample_circulant(spec: FbmSpec) -> FbmPath:
    """Exact sampler via Davies-Harte circulant embedding; O(n log n)."""
    values = _circulant_values(spec, 1)[0]
    return FbmPath(spec, GridPath(spec.times(), values))


def sample_paths(spec: FbmSpec, count: int, method: str = "circulant") -> np.ndarray:
    """Batch of ``count`` independent paths as an array (count, n+1, m).

    The batch shares the spec seed; it is meant for Monte-Carlo statistics,
    not for reproducing individual ``sample_*`` paths.
    """
    if method == "circulant":
        return _circulant_values(spec, count)
    if method == "cholesky":
        return _cholesky_values(spec, count)
    raise ValueError(f"unknown sampling method {method!r}")


def polygonal(path: Union[FbmPath, GridPath], coarse_n: int) -> GridPath:
    """Piecewise-linear interpolation through the coarse knots t_k = k T / coarse_n.

    ``coarse_n`` must divide the fine grid size so that every knot lies on
    the fine grid; the output agrees with the input exactly at the knots
    and is affine in between, evaluated on the fine grid.
    """
    grid = path.path if isinstance(path, FbmPath) else path
    n = grid.n_steps
    if coarse_n < 1 or n % coarse_n != 0:
        raise ValueError(f"coarse grid size {coarse_n} does not divide fine grid size {n}")
    stride = n // coarse_n
    j = np.arange(n + 1)
    cell = np.clip(j // stride, 0, coarse_n - 1)
    left = cell * stride
    w = ((j - left) / stride)[:, None]
    values = grid.values[left] * (1.0 - w) + grid.values[left + stride] * w
    return GridPath(grid.times, values)


def holder_error(fine: GridPath, approx: GridPath, theta: Union[HolderOrder, float]) -> float:
    """C^theta distance sup|diff| + theta-Holder seminorm of the difference."""
    if not fine.same_grid(approx):
        raise ValueError("paths live on different grids")
    diff = fine - approx
    return diff.sup_norm() + holder_seminorm(diff, _holder_value(theta))


def modulus_constant(path: FbmPath) -> float:
    """Smallest G with |B_t - B_s| <= G |t-s|^H sqrt(log 1/|t-s|) over grid pairs.

    Requires every pair gap below 1 (the log factor must stay positive);
    the boundary pair |t-s| = 1 on a unit horizon carries no information
    and is skipped.  Longer horizons must be rescaled by the caller.
    """
    grid = path.path
    n = grid.n_steps
    h = grid.step
    span = grid.end - grid.start
    if span > 1.0 + 1e-12:
        raise ValueError(
            f"horizon {span} admits pairs with |t-s| >= 1 where the modulus is undefined; "
            "rescale the path to a unit horizon first"
        )
    vals = grid.values
    hurst = path.spec.hurst
    best = 0.0
    for lag in range(1, n + 1):
        gap = lag * h
        if gap >= 1.0:
            break
        ratio = _lag_peak(vals, lag) / (gap**hurst * np.sqrt(np.log(1.0 / gap)))
        if ratio > best:
            best = ratio
    return float(best)
