"""Coefficient fields (diffusion matrix and drift) with their regularity constants.

A field carries vectorized callables and the constants declared for the
Lipschitz/Holder/growth hypotheses.  The constants are declared and
trusted, never estimated, and only their zeros are read: ``grid_exact``
reads constant sigma and b = 0 from them, and the stepping kernel skips
the drift of a field that declares ``drift_growth = 0``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "CoefficientField",
    "builtin_field",
    "parse_field",
    "load_expression_field",
]

# the declared hypothesis constants, each a finite number >= 0
_CONSTANTS = ("sigma_lipschitz", "dsigma_holder", "time_holder", "drift_lipschitz", "drift_growth")
_FILE_KEYS = {"dim", "noise_dim", "sigma", "drift", "constants", "delta", "beta", "name"}


def _is_constant(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and 0.0 <= v < math.inf


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
    drift_growth: float = 1.0           # |b(x)| <= drift_growth (1 + |x|); 0 means b = 0, and the solver skips drift
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
        for label, key in (("dsigma_holder_order", "delta"), ("time_holder_order", "beta")):
            v = getattr(self, label)
            if not (isinstance(v, numbers.Real) and not isinstance(v, bool) and 0.0 < v <= 1.0):
                raise ValueError(f"{label} ({key}) must lie in (0, 1], got {v!r}")
        for label in _CONSTANTS:
            if not _is_constant(getattr(self, label)):
                raise ValueError(f"{label} must be a finite number >= 0, got {getattr(self, label)!r}")
        if self.sigma_bound is not None and not _is_constant(self.sigma_bound):
            raise ValueError(f"sigma_bound must be None or a finite number >= 0, got {self.sigma_bound!r}")


def _as_batch(x: np.ndarray, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != d:
        raise ValueError(f"state has dimension {x.shape[-1]}, field expects {d}")
    return x


def _zero_drift(d: int) -> Callable[[float, np.ndarray], np.ndarray]:
    return lambda t, x: np.zeros_like(_as_batch(x, d))


def _constant_sigma(mat: np.ndarray) -> Callable[[float, np.ndarray], np.ndarray]:
    d, m = mat.shape
    return lambda t, x: np.broadcast_to(mat, _as_batch(x, d).shape[:-1] + (d, m)).copy()


def builtin_field(kind: str, matrix: Optional[np.ndarray] = None, sigma0: float = 1.0) -> CoefficientField:
    """Ready-made fields: zero, additive, geometric, sin, linear-drift."""
    if not (np.isfinite(sigma0) and np.isfinite(0.0 if matrix is None else matrix).all()):
        raise ValueError(f"builtin field {kind!r} needs finite parameters, got sigma0 = {sigma0}, matrix = {matrix}")
    if kind == "zero":
        return builtin_field("additive", matrix=np.zeros((1, 1)))

    if kind == "additive":
        mat = np.atleast_2d(np.asarray(matrix if matrix is not None else [[sigma0]], dtype=float))
        d, m = mat.shape
        return CoefficientField(
            _constant_sigma(mat), _zero_drift(d), d, m,
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
        return CoefficientField(
            _constant_sigma(mat), lambda t, x: -_as_batch(x, d), d, m,
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


def _parse_expressions(rows, symbols, allowed, label):
    import sympy

    parsed = []
    for row in rows:
        parsed_row = []
        for text in row:
            expr = sympy.parse_expr(str(text), local_dict={**{str(s): s for s in symbols}, **allowed})
            if not isinstance(expr, sympy.Expr):  # null, a list or a comparison parses, but is no value
                raise ValueError(f"{label} entry {text!r} is not an expression")
            extra = expr.free_symbols - set(symbols)
            if extra:
                raise ValueError(f"{label} expression {text!r} uses unknown symbols {sorted(map(str, extra))}")
            parsed_row.append(expr)
        parsed.append(parsed_row)
    return parsed


def load_expression_field(path: Union[str, Path]) -> CoefficientField:
    """Load a declarative coefficient file: arithmetic and sin/cos/exp/tanh over t and x1..xd.

    JSON schema: ``dim``, ``noise_dim``, ``sigma`` (d rows of m expressions),
    ``drift`` (d expressions), optional constants and Holder orders.
    """
    import sympy  # deferred: only expression fields need it, and it is slow to import

    from .fbm import _integral

    allowed = {name: getattr(sympy, name) for name in ("sin", "cos", "exp", "tanh", "cosh", "sinh", "sqrt", "Abs")}
    with open(path) as fh:
        doc = json.load(fh)
    constants = doc.get("constants", {})
    if not isinstance(constants, dict):
        raise ValueError(f"constants in {path} must map names to numbers, got {constants!r}")
    unknown = sorted(set(doc) - _FILE_KEYS) + sorted(set(constants) - {*_CONSTANTS, "sigma_bound"})
    if unknown:
        raise ValueError(f"unknown keys {unknown} in {path}; expected {sorted(_FILE_KEYS)} and "
                         f"constants named {[*_CONSTANTS, 'sigma_bound']}")
    d = _integral("dim", doc["dim"])
    m = _integral("noise_dim", doc["noise_dim"])
    t_sym = sympy.Symbol("t")
    x_syms = [sympy.Symbol(f"x{i + 1}") for i in range(d)]
    symbols = [t_sym, *x_syms]
    sigma_rows = doc["sigma"]
    drift_row = doc.get("drift", ["0"] * d)
    if not isinstance(sigma_rows, list) or len(sigma_rows) != d or any(
            not isinstance(r, list) or len(r) != m for r in sigma_rows):
        raise ValueError(f"sigma must be {d} rows of {m} expressions")
    if not isinstance(drift_row, list) or len(drift_row) != d:
        raise ValueError(f"drift must have {d} expressions")
    sig_exprs = _parse_expressions(sigma_rows, symbols, allowed, "sigma")
    dri_exprs = _parse_expressions([drift_row], symbols, allowed, "drift")[0]
    declared = {label: constants.get(label, 1.0) for label in _CONSTANTS}  # CoefficientField checks each
    # the solver reads a declared drift_growth of 0 as b = 0 and never evaluates the drift;
    # the check is sympy's parse-time reduction, so an identity it does not apply is rejected too
    nonzero = [str(e) for e in dri_exprs if e != 0]
    if declared["drift_growth"] == 0.0 and nonzero:
        raise ValueError(f"{path} declares drift_growth = 0, but its drift {nonzero} does not reduce to 0; "
                         "write the drift as 0 or declare drift_growth > 0")
    sig_fns = [[sympy.lambdify(symbols, e, modules="numpy") for e in row] for row in sig_exprs]
    dri_fns = [sympy.lambdify(symbols, e, modules="numpy") for e in dri_exprs]

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

    return CoefficientField(
        sigma, drift, d, m,
        **declared,
        dsigma_holder_order=doc.get("delta", 1.0),
        time_holder_order=doc.get("beta", 1.0),
        name=doc.get("name", f"file:{path}"),
        sigma_bound=constants.get("sigma_bound"),
    )
