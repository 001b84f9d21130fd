"""Exact sampling of multi-dimensional fractional Brownian motion.

Two exact samplers share one distributional contract: a dense Cholesky
factorization of the covariance (small grids, simple) and a
Davies-Harte circulant embedding of the increment autocovariance
(O(n log n), the performance path).  Components are generated from
independent substreams of the seeded generator, so paths are
reproducible and componentwise independent.  ``_circulant_batches``
hands a circulant batch out in consecutive member blocks of a caller's
size, all through one block buffer, so a caller that reduces each block
as it comes never holds the whole batch; ``sample_paths`` is its
one-block case.  A member block is filled in blocks of
``_SAMPLE_POINTS`` normals (at least one path), through one workspace
(normals, spectrum and FFT output) that every one of them reuses and
that is freed before the member block is handed out, so beyond the
result it takes about 3 MB whatever the batch size, as long as one
path's 2n normals fit the budget (n <= 2^15 without embedding
doublings).
"""

from __future__ import annotations

import numbers
import threading
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EmbeddingError, FactorizationError
from .paths import GridPath, holder_seminorm, _lag_sup

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
_SAMPLE_POINTS = 2**16  # circulant normals per block; the generator fills in C order, so blocks draw the one-shot stream

_eig_cache: dict[tuple[float, int], np.ndarray] = {}
_eig_lock = threading.Lock()


def _integral(name: str, v) -> int:
    """``v`` as an int: 64 and 64.0 are kept as 64; 16.5 and the bool True are rejected, naming the field."""
    integral = isinstance(v, numbers.Integral) or (isinstance(v, numbers.Real) and float(v).is_integer())
    if integral and not isinstance(v, bool):  # JSON true loads as a bool, which is an int
        return int(v)
    raise ValueError(f"{name} must be integral, got {v!r}")


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
        for name in ("components", "grid_size", "seed"):
            object.__setattr__(self, name, _integral(name, getattr(self, name)))
        if self.components < 1:
            raise ValueError("need at least one component")
        if not 0.0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.grid_size < 2:
            raise ValueError("grid size must be at least 2")
        if not (0 <= self.seed < 2**64):
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


def sample_cholesky(spec: FbmSpec) -> FbmPath:
    """Exact sampler via dense covariance factorization; O(n^2) memory, guarded by ``DEFAULT_MAX_CHOLESKY_GRID``."""
    values = _cholesky_values(spec, 1)[0]
    return FbmPath(spec, GridPath(spec.times(), values))


def _cholesky_values(spec: FbmSpec, count: int) -> np.ndarray:
    if spec.grid_size > DEFAULT_MAX_CHOLESKY_GRID:
        raise ValueError(
            f"grid size {spec.grid_size} exceeds the factorization guard {DEFAULT_MAX_CHOLESKY_GRID}; "
            "use the circulant sampler"
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


def _circulant_batches(spec: FbmSpec, count: int, rows: int):
    """Yield ``(start, values)`` for consecutive blocks of at most ``rows`` paths of a circulant batch.

    ``values`` (b, n+1, m) holds paths start .. start + b - 1 of
    ``sample_paths(spec, count)``, byte for byte: every component draws
    from its own generator, which fills in C order, so the blocks draw
    the one-shot stream.  One buffer holds every block, so a block is
    valid until the next one is drawn.
    """
    m_embed = spec.grid_size
    for attempt in range(_MAX_EMBED_DOUBLINGS + 1):
        eig = _fgn_eigenvalues(spec.hurst, m_embed)
        floor = -_EIG_TOL * eig.max()
        if eig.min() >= floor:
            break
        m_embed *= 2
    else:
        raise EmbeddingError(
            f"circulant embedding of size {m_embed // 2} still has eigenvalues below "
            f"{floor:.3e} after {_MAX_EMBED_DOUBLINGS} doublings; draw with the Cholesky sampler instead "
            "(sample_cholesky, or fbm sample --method cholesky)"
        )
    lam = np.clip(eig, 0.0, None)
    rngs = [_component_rng(spec.seed, j) for j in range(spec.components)]
    rows = max(1, rows)
    values = np.zeros((min(rows, count), spec.grid_size + 1, spec.components))
    for start in range(0, count, rows):
        out = values[: min(rows, count - start)]
        _fill_circulant(out, rngs, lam, spec.step**spec.hurst)
        yield start, out


def _fill_circulant(out: np.ndarray, rngs: list, lam: np.ndarray, scale: float) -> None:
    """Draw the paths ``out`` (b, n+1, m) after B(0) = 0, component j from ``rngs[j]``.

    ``lam`` holds the clipped eigenvalues of the embedding, of length 2
    m_embed.  The paths are filled in blocks of ``_SAMPLE_POINTS`` normals
    through one workspace (normals, Hermitian spectrum and its FFT), which
    is allocated after ``out`` so that, once freed, it rejoins the top of
    the heap instead of leaving a hole below it; it is freed on return,
    before a caller marches the block.
    """
    n = out.shape[1] - 1
    two_m = lam.size
    m_embed = two_m // 2
    half = np.sqrt(lam[1:m_embed] / (2.0 * two_m))
    block = max(1, _SAMPLE_POINTS // two_m)
    u = np.empty((min(block, len(out)), two_m))
    w = np.zeros(u.shape, dtype=complex)  # the imaginary parts at 0 and m_embed stay zero
    f = np.empty(u.shape, dtype=complex)
    for j, rng in enumerate(rngs):
        for a in range(0, len(out), block):
            b = min(a + block, len(out))
            ub, wb, fb = u[: b - a], w[: b - a], f[: b - a]
            rng.standard_normal(out=ub)
            wr, wi = wb.real, wb.imag
            np.multiply(np.sqrt(lam[0] / two_m), ub[:, 0], out=wr[:, 0])
            np.multiply(np.sqrt(lam[m_embed] / two_m), ub[:, 1], out=wr[:, m_embed])
            np.multiply(half, ub[:, 2 : 2 * m_embed : 2], out=wr[:, 1:m_embed])
            np.multiply(half, ub[:, 3 : 2 * m_embed + 1 : 2], out=wi[:, 1:m_embed])
            wr[:, m_embed + 1 :] = wr[:, m_embed - 1 : 0 : -1]
            np.negative(wi[:, m_embed - 1 : 0 : -1], out=wi[:, m_embed + 1 :])
            np.fft.fft(wb, axis=1, out=fb)
            fgn = np.multiply(fb.real[:, :n], scale, out=fb.real[:, :n])
            np.cumsum(fgn, axis=1, out=out[a:b, 1:, j])


def _circulant_values(spec: FbmSpec, count: int) -> np.ndarray:
    for _, values in _circulant_batches(spec, count, count):
        return values
    return np.zeros((0, spec.grid_size + 1, spec.components))  # no paths; the embedding was still checked


def sample_circulant(spec: FbmSpec) -> FbmPath:
    """Exact sampler via Davies-Harte circulant embedding; O(n log n)."""
    values = _circulant_values(spec, 1)[0]
    return FbmPath(spec, GridPath(spec.times(), values))


def sample_paths(spec: FbmSpec, count: int, method: str = "circulant") -> np.ndarray:
    """Batch of ``count`` independent paths as an array (count, n+1, m).

    The batch shares the spec seed; it is meant for Monte-Carlo statistics,
    not for reproducing individual ``sample_*`` paths.  The circulant
    sampler fills the output in blocks of ``_SAMPLE_POINTS`` normals (at
    least one path) through one workspace that every block reuses, so
    beyond the result it takes a fixed budget, not one growing with
    ``count``; the blocks draw the one-shot stream, so the batch does not
    depend on the block size.  It is the single member block of
    ``_circulant_batches``, whose blocks of any size concatenate to this
    batch byte for byte.  The Cholesky sampler draws all ``count`` paths
    at once.
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


def holder_error(fine: GridPath, approx: GridPath, theta: float) -> float:
    """C^theta distance sup|diff| + theta-Holder seminorm of the difference."""
    diff = fine - approx
    return diff.sup_norm() + holder_seminorm(diff, theta)


def modulus_constant(path: FbmPath) -> float:
    """Smallest G with |B_t - B_s| <= G |t-s|^H sqrt(log 1/|t-s|) over grid pairs.

    Requires every pair gap below 1 (the log factor must stay positive);
    the boundary pair |t-s| = 1 on a unit horizon carries no information
    and is skipped.  Longer horizons must be rescaled by the caller.
    """
    grid = path.path
    span = grid.end - grid.start
    if span > 1.0 + 1e-12:
        raise ValueError(
            f"horizon {span} admits pairs with |t-s| >= 1 where the modulus is undefined; "
            "rescale the path to a unit horizon first"
        )
    gaps = np.arange(1, grid.n_steps + 1) * grid.step
    gaps = gaps[gaps < 1.0]
    hurst = path.spec.hurst
    return _lag_sup(grid.values, np.array([g**hurst for g in gaps.tolist()]) * np.sqrt(np.log(1.0 / gaps)))
