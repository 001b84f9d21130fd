"""Pathwise stochastic analysis toolkit.

Samples fractional Brownian motion, computes fractional-calculus
operators and Holder-scale norms, evaluates Young integrals two
independent ways, solves differential equations driven by rough paths,
and orchestrates the numerical experiments that check the flow and
homeomorphism properties of those solutions.
"""

from .paths import (
    GridPath,
    f_alpha_one_norm,
    holder_seminorm,
    w_alpha_lambda_norm,
    w_one_minus_alpha_norm,
)

__version__ = "0.1.0"

__all__ = [
    "GridPath",
    "holder_seminorm",
    "w_alpha_lambda_norm",
    "w_one_minus_alpha_norm",
    "f_alpha_one_norm",
    "__version__",
]
