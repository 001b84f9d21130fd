"""Fractional Riemann-Liouville integrals, Weyl (Marchaud-form) derivatives,
and the driver-strength functional built from the right-sided derivative.

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
from typing import Sequence, Union

import numpy as np

from .errors import RegularityError
from .paths import FracOrder, GridPath, _alpha_value, _pair_sweep, _sweep_weights, estimate_holder_order
from .quadrature import increment_profile, kernel_profile

__all__ = [
    "FracOrder",
    "left_frac_integral",
    "right_frac_integral",
    "left_weyl_derivative",
    "right_weyl_derivative",
    "lambda_alpha",
    "lambda_alpha_report",
    "LambdaReport",
]


def left_frac_integral(f: GridPath, alpha: Union[FracOrder, float]) -> GridPath:
    """Convolution of f against (x-y)^{alpha-1}/Gamma(alpha) from the left endpoint."""
    a = _alpha_value(alpha)
    out = kernel_profile(f.values, a - 1.0, f.step) / math.gamma(a)
    return GridPath(f.times, out)


def right_frac_integral(f: GridPath, alpha: Union[FracOrder, float]) -> GridPath:
    """Mirror of the left integral under time reversal (real-valued convention)."""
    a = _alpha_value(alpha)
    out = kernel_profile(f.values[::-1], a - 1.0, f.step) / math.gamma(a)
    return GridPath(f.times, out[::-1])


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


def _warn_if_too_rough(f: GridPath, a: float, side: str) -> None:
    est = estimate_holder_order(f)
    if est <= a:
        warnings.warn(
            f"{side} Weyl derivative of order {a:.3g} on a path with estimated "
            f"Holder order {est:.3g}; the singular integral may be unstable",
            stacklevel=3,
        )


def left_weyl_derivative(f: GridPath, alpha: Union[FracOrder, float]) -> GridPath:
    """Marchaud-form derivative: boundary decay term plus the singular increment integral."""
    a = _alpha_value(alpha)
    _warn_if_too_rough(f, a, "left")
    rel = f.times - f.times[0]
    return GridPath(f.times, _marchaud_values(f.values, a, f.step, rel))


def right_weyl_derivative(f: GridPath, alpha: Union[FracOrder, float], pin_endpoint: bool = False) -> GridPath:
    """Mirror derivative from the right endpoint; ``pin_endpoint`` subtracts f(T) first.

    Real-valued convention: the (-1)^alpha phase of the right-sided
    definition is dropped; pairings that need it reinstate the sign.
    """
    a = _alpha_value(alpha)
    _warn_if_too_rough(f, a, "right")
    vals = f.values - f.values[-1] if pin_endpoint else f.values
    rel = f.times - f.times[0]
    out = _marchaud_values(vals[::-1], a, f.step, rel)
    return GridPath(f.times, out[::-1])


def _endpoint_indices(n: int, endpoints: Union[str, Sequence[int]]) -> np.ndarray:
    """Right endpoints of the decimated mode or of an explicit list ("all" runs the pair sweep)."""
    if isinstance(endpoints, str):
        if endpoints == "decimated":
            count = int(np.ceil(np.sqrt(n)))
            idx = np.unique(np.linspace(2, n, count).round().astype(int))
            return idx
        raise ValueError(f"unknown endpoint mode {endpoints!r}")
    idx = np.unique(np.asarray(list(endpoints), dtype=int))
    if idx.size == 0 or idx[0] < 2 or idx[-1] > n:
        raise ValueError("endpoint indices must lie in [2, n]")
    return idx


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
    alpha: Union[FracOrder, float],
    endpoints: Union[str, Sequence[int]] = "decimated",
) -> float:
    """sup over (s, t) of the pinned right-sided derivative, scaled by Gamma(1-alpha).

    The supremum over right endpoints t runs over ``endpoints``: the
    default decimated mode uses ceil(sqrt(n)) grid times plus the horizon
    (a lower bound on the full supremum); pass "all" for every grid time.
    """
    return _lambda_alpha_impl(g, _alpha_value(alpha, upper=0.5), endpoints)[0]


def _endpoint_peaks(g: GridPath, a: float, idx: np.ndarray) -> tuple[float, int, int]:
    """The signed pair sweep's sup |S(s, t)| over 1 <= s < t, for t in ``idx`` only.

    For t = t_j and w[k] = g(t_{j-k}), the sum over nodes m < k of row
    s = t_{j-k} is w[k] sum_{m<k} cp(m) + cp(k) w[0] - (w * cp)[k], one
    convolution per endpoint.  Its rows k < j need cp(1 .. j-1) only, so at
    an FFT length L >= 2j + 1 the kernel cut to L / 2 taps wraps onto
    no row in use: the weights, the cut kernel's spectrum and the two FFT
    outputs at each length are made once per call, and each endpoint costs
    one rfft/irfft pair written into those outputs.
    """
    cp, tail, last = _sweep_weights(a, g.step, g.n_steps)
    kern = np.concatenate(([0.0], cp))  # kern[m] = cp(m)
    below = np.concatenate(([0.0], np.cumsum(cp)))  # below[k-1] = sum_{m<k} cp(m)
    own = tail / (1.0 - a) + last
    per_size, peaks, pairs = {}, [], []
    for j in idx.tolist():
        size = 1 << (2 * j).bit_length()  # the shortest power of 2 >= 2j + 1
        if size not in per_size:  # the kernel spectrum and the rfft and irfft outputs
            per_size[size] = (np.fft.rfft(kern[: size // 2], size)[:, None],
                              np.empty((size // 2 + 1, g.dimension), complex), np.empty((size, g.dimension)))
        spectrum, spec, full = per_size[size]
        w = g.values[j::-1]
        np.fft.rfft(w, size, axis=0, out=spec)
        spec *= spectrum
        conv = np.fft.irfft(spec, size, axis=0, out=full)[1:j]
        rows = (w[1:j] - w[0]) * own[: j - 1, None] + w[1:j] * below[: j - 1, None] + kern[1:j, None] * w[0] - conv
        mags = np.abs(rows[:, 0]) if rows.shape[1] == 1 else np.linalg.norm(rows, axis=1)  # as in the sweep
        k = int(np.argmax(mags)) + 1
        peaks.append(mags[k - 1])
        pairs.append((j - k, j))
    b = int(np.argmax(peaks))  # the first maximum: smallest t, then largest s
    return (0.0, 0, int(idx[-1])) if peaks[b] <= 0.0 else (float(peaks[b]),) + pairs[b]


def _lambda_alpha_impl(g, a: float, endpoints, bound: bool = False):
    """(value, s index, t index, (1-a) norm or None): one pair sweep for "all", endpoint FFTs otherwise."""
    if isinstance(endpoints, str) and endpoints == "all":
        norm, (peak, s, t) = _pair_sweep(g, a, signed=True, absolute=bound)
    else:
        peak, s, t = _endpoint_peaks(g, a, _endpoint_indices(g.n_steps, endpoints))
        norm = _pair_sweep(g, a, signed=False, absolute=True)[0] if bound else None
    value = (1.0 - a) * peak / (math.gamma(a) * math.gamma(1.0 - a))
    if not np.isfinite(value):
        raise RegularityError("right-sided derivative diverged; the driver is too rough for this order")
    return float(value), s, t, norm


def lambda_alpha_report(
    g: GridPath,
    alpha: Union[FracOrder, float],
    endpoints: Union[str, Sequence[int]] = "decimated",
) -> LambdaReport:
    """Value plus the attaining pair and the norm-based upper bound.

    The attaining (s, t) pair is diagnostic only; nothing is claimed about
    its behaviour under refinement.
    """
    a = _alpha_value(alpha, upper=0.5)
    value, s_idx, t_idx, norm = _lambda_alpha_impl(g, a, endpoints, bound=True)
    bound = norm / (math.gamma(1.0 - a) * math.gamma(a))
    mode = endpoints if isinstance(endpoints, str) else "explicit"
    return LambdaReport(
        value=value,
        attained_s=float(g.times[s_idx]),
        attained_t=float(g.times[t_idx]),
        endpoint_mode=mode,
        upper_bound=float(bound),
    )
