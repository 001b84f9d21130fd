"""Coefficient fields (diffusion matrix and drift) with their regularity constants.

A field carries vectorized callables and the constants declared for the
Lipschitz/Holder/growth hypotheses; ``validate_coefficients`` estimates
those constants on a sampling lattice and flags declared values that the
samples exceed.  Estimation can only certify consistency on the lattice,
never the global hypotheses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "CoefficientField",
    "CoefficientReport",
    "builtin_field",
    "parse_field",
    "load_expression_field",
    "validate_coefficients",
]


@dataclass(frozen=True)
class CoefficientField:
    """Diffusion sigma(t, x) -> (..., d, m) and drift b(t, x) -> (..., d), both broadcasting over x batches."""

    sigma: Callable[[float, np.ndarray], np.ndarray]
    drift: Callable[[float, np.ndarray], np.ndarray]
    dim: int
    noise_dim: int
    sigma_lipschitz: float = 1.0        # Lipschitz constant of sigma in x
    dsigma_holder: float = 1.0          # Holder constant of the x-derivatives of sigma
    time_holder: float = 1.0            # Holder-in-time constant of sigma and its derivatives
    drift_lipschitz: float = 1.0
    drift_growth: float = 1.0
    dsigma_holder_order: float = 1.0    # delta in (0, 1]
    time_holder_order: float = 1.0      # beta in (0, 1]
    name: str = "custom"                 # a label for messages only
    sigma_bound: Optional[float] = None  # sup |sigma| when bounded, else None
    flow: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None  # closed form (x, B_t - B_r) -> X_rt(x)

    @property
    def grid_exact(self) -> bool:
        """Constant sigma and no drift, as declared: Euler is exact on every grid."""
        return self.sigma_lipschitz == self.time_holder == self.drift_lipschitz == self.drift_growth == 0.0

    def __post_init__(self):
        if self.dim < 1 or self.noise_dim < 1:
            raise ValueError("state and noise dimensions must be positive")
        for label in ("dsigma_holder_order", "time_holder_order"):
            v = getattr(self, label)
            if not (0.0 < v <= 1.0):
                raise ValueError(f"{label} must lie in (0, 1], got {v}")


def _as_batch(x: np.ndarray, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != d:
        raise ValueError(f"state has dimension {x.shape[-1]}, field expects {d}")
    return x


def _zero_drift(d: int) -> Callable[[float, np.ndarray], np.ndarray]:
    return lambda t, x: np.zeros_like(_as_batch(x, d))


def builtin_field(kind: str, matrix: Optional[np.ndarray] = None, sigma0: float = 1.0) -> CoefficientField:
    """Ready-made fields: zero, additive, geometric, sin, linear-drift."""
    if kind == "zero":
        return builtin_field("additive", matrix=np.zeros((1, 1)))

    if kind == "additive":
        mat = np.atleast_2d(np.asarray(matrix if matrix is not None else [[sigma0]], dtype=float))
        d, m = mat.shape

        def sigma(t, x):
            x = _as_batch(x, d)
            return np.broadcast_to(mat, x.shape[:-1] + (d, m)).copy()

        return CoefficientField(
            sigma, _zero_drift(d), d, m,
            sigma_lipschitz=0.0, dsigma_holder=0.0, time_holder=0.0,
            drift_lipschitz=0.0, drift_growth=0.0,
            name="additive", sigma_bound=float(np.linalg.norm(mat)),
            flow=lambda x, db: x + mat @ db,
        )

    if kind == "geometric":
        s0 = float(sigma0)

        def sigma(t, x):
            x = _as_batch(x, 1)
            return s0 * x[..., None]

        return CoefficientField(
            sigma, _zero_drift(1), 1, 1,
            sigma_lipschitz=abs(s0), dsigma_holder=0.0, time_holder=0.0,
            drift_lipschitz=0.0, drift_growth=0.0,
            name=f"geometric:{s0:g}",
            flow=lambda x, db: x * math.exp(s0 * db[0]),
        )

    if kind == "sin":
        def sigma(t, x):
            x = _as_batch(x, 1)
            return np.sin(x)[..., None]

        return CoefficientField(
            sigma, _zero_drift(1), 1, 1,
            sigma_lipschitz=1.0, dsigma_holder=1.0, time_holder=0.0,
            drift_lipschitz=0.0, drift_growth=0.0,
            name="sin", sigma_bound=1.0,
        )

    if kind == "linear-drift":
        mat = np.atleast_2d(np.asarray(matrix if matrix is not None else [[sigma0]], dtype=float))
        d, m = mat.shape

        def sigma(t, x):
            x = _as_batch(x, d)
            return np.broadcast_to(mat, x.shape[:-1] + (d, m)).copy()

        def drift(t, x):
            return -_as_batch(x, d)

        return CoefficientField(
            sigma, drift, d, m,
            sigma_lipschitz=0.0, dsigma_holder=0.0, time_holder=0.0,
            drift_lipschitz=1.0, drift_growth=1.0,
            name="linear-drift", sigma_bound=float(np.linalg.norm(mat)),
        )

    raise ValueError(f"unknown builtin coefficient field {kind!r}")


def _parse_matrix(text: str) -> np.ndarray:
    return np.array([[float(v) for v in row.split(",")] for row in text.split(";")])


def parse_field(spec: str, sigma0: Optional[float] = None) -> CoefficientField:
    """Resolve a CLI/config field description.

    Accepted forms: ``builtin:<name>``, ``builtin:<name>:<params>`` where
    params is sigma0 for geometric or a ``0.5,1;0,1`` matrix for additive
    and linear-drift, and ``file:<path.json>`` for declarative expression
    fields.  ``sigma0`` sets the scale of geometric, additive and
    linear-drift given without params; any other use of it is an error.
    """
    parts = spec.split(":", 2)
    if sigma0 is not None and spec not in ("builtin:geometric", "builtin:additive", "builtin:linear-drift"):
        raise ValueError(f"sigma0 applies only to builtin geometric, additive and linear-drift without params, not to {spec!r}")
    if parts[0] == "builtin":
        if len(parts) < 2:
            raise ValueError("builtin field needs a name, e.g. builtin:geometric:0.5")
        kind = parts[1]
        param = parts[2] if len(parts) > 2 else None
        if param is None:
            return builtin_field(kind, sigma0=1.0 if sigma0 is None else sigma0)
        if kind == "geometric":
            return builtin_field(kind, sigma0=float(param))
        if kind in ("additive", "linear-drift"):
            return builtin_field(kind, matrix=_parse_matrix(param))
        if kind in ("zero", "sin"):
            raise ValueError(f"builtin:{kind} takes no parameter, got {param!r}")
        raise ValueError(f"unknown builtin coefficient field {kind!r}")
    if parts[0] == "file":
        if len(parts) < 2 or not parts[1]:
            raise ValueError("file field needs a path, e.g. file:coeffs.json")
        return load_expression_field(spec.split(":", 1)[1])
    raise ValueError(f"cannot parse coefficient field {spec!r}")


def _compile_expressions(rows, symbols, allowed, label):
    import sympy

    compiled = []
    for row in rows:
        compiled_row = []
        for text in row:
            expr = sympy.parse_expr(str(text), local_dict={**{str(s): s for s in symbols}, **allowed})
            extra = expr.free_symbols - set(symbols)
            if extra:
                raise ValueError(f"{label} expression {text!r} uses unknown symbols {sorted(map(str, extra))}")
            compiled_row.append(sympy.lambdify(symbols, expr, modules="numpy"))
        compiled.append(compiled_row)
    return compiled


def load_expression_field(path: Union[str, Path]) -> CoefficientField:
    """Load a declarative coefficient file: arithmetic and sin/cos/exp/tanh over t and x1..xd.

    JSON schema: ``dim``, ``noise_dim``, ``sigma`` (d rows of m expressions),
    ``drift`` (d expressions), optional constants and Holder orders.
    """
    import sympy  # deferred: only expression fields need it, and it is slow to import

    allowed = {name: getattr(sympy, name) for name in ("sin", "cos", "exp", "tanh", "cosh", "sinh", "sqrt", "Abs")}
    with open(path) as fh:
        doc = json.load(fh)
    d = int(doc["dim"])
    m = int(doc["noise_dim"])
    t_sym = sympy.Symbol("t")
    x_syms = [sympy.Symbol(f"x{i + 1}") for i in range(d)]
    symbols = [t_sym, *x_syms]
    sigma_rows = doc["sigma"]
    drift_row = doc.get("drift", ["0"] * d)
    if len(sigma_rows) != d or any(len(r) != m for r in sigma_rows):
        raise ValueError(f"sigma must be {d} rows of {m} expressions")
    if len(drift_row) != d:
        raise ValueError(f"drift must have {d} expressions")
    sig_fns = _compile_expressions(sigma_rows, symbols, allowed, "sigma")
    dri_fns = _compile_expressions([drift_row], symbols, allowed, "drift")[0]

    def _eval_layer(fns_grid, t, x, out_shape):
        x = _as_batch(x, d)
        comps = [x[..., i] for i in range(d)]
        out = np.zeros(x.shape[:-1] + out_shape)
        for i, row in enumerate(fns_grid):
            for j, fn in enumerate(row):
                idx = (..., i, j) if len(out_shape) == 2 else (..., i)
                out[idx] = fn(t, *comps)
        return out

    def sigma(t, x):
        return _eval_layer(sig_fns, t, x, (d, m))

    def drift(t, x):
        return _eval_layer([[fn] for fn in dri_fns], t, x, (d,))

    constants = doc.get("constants", {})
    return CoefficientField(
        sigma, drift, d, m,
        sigma_lipschitz=float(constants.get("sigma_lipschitz", 1.0)),
        dsigma_holder=float(constants.get("dsigma_holder", 1.0)),
        time_holder=float(constants.get("time_holder", 1.0)),
        drift_lipschitz=float(constants.get("drift_lipschitz", 1.0)),
        drift_growth=float(constants.get("drift_growth", 1.0)),
        dsigma_holder_order=float(doc.get("delta", 1.0)),
        time_holder_order=float(doc.get("beta", 1.0)),
        name=doc.get("name", f"file:{path}"),
        sigma_bound=constants.get("sigma_bound"),
    )


@dataclass(frozen=True)
class CoefficientReport:
    """Empirical constants maximized over a lattice, against the declared ones.

    ``consistent`` means no declared constant was exceeded on the lattice;
    it does not certify the hypotheses globally.
    """

    empirical: dict
    declared: dict
    exceeded: dict
    consistent: bool


def _dsigma(field: CoefficientField, t: float, x: np.ndarray, step: float) -> np.ndarray:
    """Central finite differences of sigma in x: shape (..., d_coord, d, m)."""
    cols = []
    for i in range(field.dim):
        e = np.zeros(field.dim)
        e[i] = step
        cols.append((field.sigma(t, x + e) - field.sigma(t, x - e)) / (2.0 * step))
    return np.stack(cols, axis=-3)


def validate_coefficients(
    c: CoefficientField,
    samples: int = 64,
    radius: float = 2.0,
    horizon: float = 1.0,
    time_points: int = 9,
    rng_seed: int = 0,
    fd_step: float = 1e-5,
    lattice: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> CoefficientReport:
    """Estimate the hypothesis constants by maximizing ratios over a lattice.

    ``lattice`` may supply (times, x_points, y_points) directly; otherwise
    points are drawn uniformly from the centered box of the given radius.
    """
    if lattice is not None:
        times, xs, ys = lattice
        times = np.asarray(times, dtype=float)
        xs = _as_batch(np.asarray(xs, dtype=float), c.dim)
        ys = _as_batch(np.asarray(ys, dtype=float), c.dim)
    else:
        rng = np.random.default_rng(rng_seed)
        times = np.linspace(0.0, horizon, time_points)
        xs = rng.uniform(-radius, radius, size=(samples, c.dim))
        ys = rng.uniform(-radius, radius, size=(samples, c.dim))

    gap = np.linalg.norm(xs - ys, axis=-1)
    keep = gap > 1e-12
    m1 = m2 = m3 = l1 = l2 = 0.0
    frob = lambda a: np.linalg.norm(a.reshape(a.shape[0], -1), axis=-1)
    sig_x, dsig_x = {}, {}
    for t in times:
        sx, sy = c.sigma(t, xs), c.sigma(t, ys)
        bx, by = c.drift(t, xs), c.drift(t, ys)
        if not (np.isfinite(sx).all() and np.isfinite(bx).all()):
            raise ValueError(f"coefficients returned non-finite values at t = {t}")
        dx = _dsigma(c, t, xs, fd_step)
        sig_x[t], dsig_x[t] = sx, dx
        dy = _dsigma(c, t, ys, fd_step)
        if keep.any():
            m1 = max(m1, float((frob(sx - sy)[keep] / gap[keep]).max()))
            per_i = np.linalg.norm((dx - dy).reshape(xs.shape[0], c.dim, -1), axis=-1).max(axis=-1)
            m2 = max(m2, float((per_i[keep] / gap[keep] ** c.dsigma_holder_order).max()))
            l1 = max(l1, float((np.linalg.norm(bx - by, axis=-1)[keep] / gap[keep]).max()))
        l2 = max(l2, float((np.linalg.norm(bx, axis=-1) / (1.0 + np.linalg.norm(xs, axis=-1))).max()))
    t_list = list(times)
    for a in range(len(t_list)):
        for b in range(a + 1, len(t_list)):
            ta, tb = t_list[a], t_list[b]
            dt = abs(tb - ta) ** c.time_holder_order
            step_sigma = frob(sig_x[ta] - sig_x[tb])
            step_dsig = np.linalg.norm((dsig_x[ta] - dsig_x[tb]).reshape(xs.shape[0], c.dim, -1), axis=-1).max(axis=-1)
            m3 = max(m3, float(((step_sigma + step_dsig) / dt).max()))

    empirical = {"m1": m1, "m2": m2, "m3": m3, "l1": l1, "l2": l2}
    declared = {
        "m1": c.sigma_lipschitz,
        "m2": c.dsigma_holder,
        "m3": c.time_holder,
        "l1": c.drift_lipschitz,
        "l2": c.drift_growth,
    }
    # the finite-difference step makes empirical values fuzzy at the 1e-8 scale
    exceeded = {k: empirical[k] > declared[k] * (1.0 + 1e-6) + 1e-6 for k in empirical}
    return CoefficientReport(empirical, declared, exceeded, consistent=not any(exceeded.values()))
