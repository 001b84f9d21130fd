"""Left-sided fractional Riemann-Liouville integrals and Weyl (Marchaud-form)
derivatives, and the driver-strength functional built from the right-sided
derivative, which is not a public operator.

All operators are real-valued: the complex phases carried by the
right-sided definitions cancel in every pairing used here (the Young
module's cross-validation pins the resulting sign).  Singular kernels are
integrated per grid cell against the piecewise-linear interpolant, with
the cell adjacent to the singularity handled in closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RegularityError
from .paths import GridPath, _alpha_value, _pair_sweep, _sweep_weights, estimate_holder_order
from .quadrature import increment_profile, kernel_profile

__all__ = [
    "left_frac_integral",
    "left_weyl_derivative",
    "lambda_alpha",
    "lambda_alpha_report",
    "LambdaReport",
]


def left_frac_integral(f: GridPath, alpha: float) -> GridPath:
    """Convolution of f against (x-y)^{alpha-1}/Gamma(alpha) from the left endpoint."""
    a = _alpha_value(alpha)
    out = kernel_profile(f.values, a - 1.0, f.step) / math.gamma(a)
    return GridPath(f.times, out)


def _marchaud_values(values: np.ndarray, a: float, h: float, rel_times: np.ndarray) -> np.ndarray:
    """Boundary term plus increment tail of the left Weyl derivative, all grid nodes."""
    tail = increment_profile(values, -a - 1.0, h)
    out = np.empty_like(tail)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[1:] = values[1:] / rel_times[1:, None] ** a
    out[1:] += a * tail[1:]
    out /= math.gamma(1.0 - a)
    # singular endpoint: exact limit 0 where f vanishes, else report the first interior value
    out[0] = np.where(values[0] == 0.0, 0.0, out[1])
    if not np.isfinite(out).all():
        raise RegularityError("Weyl derivative diverged; the path is too rough for this order")
    return out


def left_weyl_derivative(f: GridPath, alpha: float) -> GridPath:
    """Marchaud-form derivative: boundary decay term plus the singular increment integral."""
    a = _alpha_value(alpha)
    est = estimate_holder_order(f)
    if est <= a:
        warnings.warn(
            f"left Weyl derivative of order {a:.3g} on a path with estimated "
            f"Holder order {est:.3g}; the singular integral may be unstable",
            stacklevel=2,
        )
    rel = f.times - f.times[0]
    return GridPath(f.times, _marchaud_values(f.values, a, f.step, rel))


def _endpoint_indices(n: int) -> np.ndarray:
    """Right endpoints of the decimated mode: ceil(sqrt(n)) grid indices from 2 to n.

    The rounded ``linspace`` never decreases, so a repeat can only follow
    its own value; dropping those gives ``np.unique``'s indices without
    the ``numpy.ma`` import that its first call makes.
    """
    idx = np.linspace(2, n, int(np.ceil(np.sqrt(n)))).round().astype(int)
    return idx[np.concatenate(([True], idx[1:] != idx[:-1]))]


@dataclass(frozen=True)
class LambdaReport:
    """Diagnostic companion to ``lambda_alpha``."""

    value: float
    attained_s: float
    attained_t: float
    endpoint_mode: str
    upper_bound: float


def lambda_alpha(
    g: GridPath,
    alpha: float,
    endpoints: str = "decimated",
) -> float:
    """sup over (s, t) of the pinned right-sided derivative, scaled by Gamma(1-alpha).

    The supremum over right endpoints t runs over ``endpoints``: the
    default decimated mode uses ceil(sqrt(n)) grid times plus the horizon
    (a lower bound on the full supremum); pass "all" for every grid time.
    Any other value raises a ValueError.
    """
    return _lambda_alpha_impl(g, _alpha_value(alpha, upper=0.5), endpoints)[0]


def _endpoint_peaks(stack: Sequence[GridPath], a: float, idx: np.ndarray):
    """The signed pair sweep's sup |S(s, t)| over 1 <= s < t, for t in ``idx`` only.

    For t = t_j and w[k] = g(t_{j-k}), the sum over nodes m < k of row
    s = t_{j-k} is w[k] sum_{m<k} cp(m) + cp(k) w[0] - (w * cp)[k], one
    convolution per endpoint.  Its rows k < j need cp(1 .. j-1) only, so at
    an FFT length L >= 2j + 1 the kernel cut to L / 2 taps wraps onto
    no row in use: the weights, the cut kernel's spectrum and the two FFT
    outputs at each length are made once per call, and each endpoint costs
    one rfft/irfft pair per path written into those outputs.

    ``stack`` is a sequence of paths on one grid.  Returns a list with one
    (peak, s, t) per path and a list with one per later path minus the
    first.  The rows are linear in the path, so the second list is read
    from the difference of the rows, with no FFT of its own.
    """
    if any(not stack[0].same_grid(p) for p in stack[1:]):
        raise ValueError("paths live on different grids")
    cp, tail, last = _sweep_weights(a, stack[0].step, stack[0].n_steps)
    kern = np.concatenate(([0.0], cp))  # kern[m] = cp(m)
    below = np.concatenate(([0.0], np.cumsum(cp)))  # below[k-1] = sum_{m<k} cp(m)
    own = tail / (1.0 - a) + last
    outputs = 2 * len(stack) - 1
    per_size, peaks, pairs = {}, [[] for _ in range(outputs)], [[] for _ in range(outputs)]

    def keep(o: int, rows: np.ndarray, j: int) -> None:
        mags = np.abs(rows[:, 0]) if rows.shape[1] == 1 else np.linalg.norm(rows, axis=1)  # as in the sweep
        k = int(np.argmax(mags)) + 1
        peaks[o].append(mags[k - 1])
        pairs[o].append((j - k, j))

    for j in idx.tolist():
        size = 1 << (2 * j).bit_length()  # the shortest power of 2 >= 2j + 1
        if size not in per_size:  # the kernel spectrum and the rfft and irfft outputs
            per_size[size] = (np.fft.rfft(kern[: size // 2], size)[:, None],
                              np.empty((size // 2 + 1, stack[0].dimension), complex),
                              np.empty((size, stack[0].dimension)))
        spectrum, spec, full = per_size[size]
        own_j, below_j, kern_j = own[: j - 1, None], below[: j - 1, None], kern[1:j, None]
        for c, path in enumerate(stack):
            w = path.values[j::-1]
            np.fft.rfft(w, size, axis=0, out=spec)
            spec *= spectrum
            conv = np.fft.irfft(spec, size, axis=0, out=full)[1:j]
            rows = (w[1:j] - w[0]) * own_j + w[1:j] * below_j + kern_j * w[0] - conv
            keep(c, rows, j)
            if c == 0:
                first = rows
            else:
                keep(len(stack) + c - 1, rows - first, j)
    found = []
    for p, q in zip(peaks, pairs):
        b = int(np.argmax(p))  # the first maximum: smallest t, then largest s
        found.append((0.0, 0, int(idx[-1])) if p[b] <= 0.0 else (float(p[b]),) + q[b])
    return found[: len(stack)], found[len(stack):]


def _check_steps(g: GridPath) -> None:
    if g.n_steps < 2:
        raise ValueError(f"lambda_alpha needs a path of at least 2 steps, got n = {g.n_steps}")


def _lambda_value(a: float, peak: float) -> float:
    value = (1.0 - a) * peak / (math.gamma(a) * math.gamma(1.0 - a))
    if not np.isfinite(value):
        raise RegularityError("right-sided derivative diverged; the driver is too rough for this order")
    return float(value)


def _lambda_alpha_impl(g, a: float, endpoints, bound: bool = False):
    """(value, s index, t index, (1-a) norm or None): one pair sweep for "all", endpoint FFTs otherwise."""
    _check_steps(g)
    if not isinstance(endpoints, str) or endpoints not in ("decimated", "all"):
        raise ValueError(f"unknown endpoint mode {endpoints!r}; expected 'decimated' or 'all'")
    if endpoints == "all":
        norm, (peak, s, t) = _pair_sweep(g, a, signed=True, absolute=bound)
    else:
        peak, s, t = _endpoint_peaks([g], a, _endpoint_indices(g.n_steps))[0][0]
        norm = _pair_sweep(g, a, signed=False, absolute=True)[0] if bound else None
    return _lambda_value(a, peak), s, t, norm


def _lambda_ladder(fine: GridPath, approxes: Sequence[GridPath], alpha: float) -> list:
    """Decimated (lambda_alpha(approx), lambda_alpha(approx - fine)) per approximation, in one endpoint pass.

    The first value of each pair equals ``lambda_alpha(approx, alpha)`` bit
    for bit; the second comes from the difference of the rows and agrees
    with ``lambda_alpha(approx - fine, alpha)`` to rounding.
    """
    a = _alpha_value(alpha, upper=0.5)
    _check_steps(fine)
    idx = _endpoint_indices(fine.n_steps)
    columns, gaps = _endpoint_peaks([fine, *approxes], a, idx)
    return [(_lambda_value(a, c[0]), _lambda_value(a, d[0])) for c, d in zip(columns[1:], gaps)]


def lambda_alpha_report(
    g: GridPath,
    alpha: float,
    endpoints: str = "decimated",
) -> LambdaReport:
    """Value plus the attaining pair and the norm-based upper bound.

    The attaining (s, t) pair is diagnostic only; nothing is claimed about
    its behaviour under refinement.
    """
    a = _alpha_value(alpha, upper=0.5)
    value, s_idx, t_idx, norm = _lambda_alpha_impl(g, a, endpoints, bound=True)
    bound = norm / (math.gamma(1.0 - a) * math.gamma(a))
    return LambdaReport(
        value=value,
        attained_s=float(g.times[s_idx]),
        attained_t=float(g.times[t_idx]),
        endpoint_mode=endpoints,
        upper_bound=float(bound),
    )
