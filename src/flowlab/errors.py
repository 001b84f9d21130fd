"""Exception types shared across the toolkit."""


class FactorizationError(ValueError):
    """Covariance factorization failed; ``minor`` names the first non-positive leading minor."""

    def __init__(self, minor: int, message: str | None = None):
        self.minor = minor
        super().__init__(message or f"covariance matrix is not positive definite: leading minor {minor} failed to factor")


class EmbeddingError(RuntimeError):
    """Circulant embedding produced negative eigenvalues beyond tolerance.

    Raised after a fixed number of doublings (``fbm._MAX_EMBED_DOUBLINGS``,
    not an option); the Cholesky sampler needs no embedding.
    """


class RegularityError(RuntimeError):
    """A singular integral diverged numerically; the input path is too rough for the requested order."""


class BlowUpError(RuntimeError):
    """Solver state crossed the blow-up guard; signals a hypothesis violation or a too-coarse grid."""
