"""Exception hierarchy shared by all zneboundary modules."""

from __future__ import annotations


class ZneBoundaryError(Exception):
    """Base class for every error raised by this package."""


class RuleError(ZneBoundaryError):
    """Invalid scale set or allocation, or a scale set whose float
    coefficients miss the identities."""


class DomainError(ZneBoundaryError):
    """Noise strength outside a model's valid domain.

    Carries the offending base strength, the scale factor that pushed it out
    of range (1.0 for unscaled evaluations), and the violated bound.
    """

    def __init__(self, message: str, *, eps: float, scale: float = 1.0):
        super().__init__(message)
        self.eps = eps
        self.scale = scale


class ModelError(ZneBoundaryError):
    """Operation not supported by the model (e.g. no sampler, no mean curve)."""


class AllocationError(ZneBoundaryError):
    """Shot allocation is degenerate or cannot be integerized."""


class RegimeError(ZneBoundaryError):
    """Regime classification precondition violated (no usable leading bias)."""


class FitError(ZneBoundaryError):
    """Regression precondition violated (too few points, bad window, ...)."""


class ConfigError(ZneBoundaryError):
    """Experiment configuration is malformed or inconsistent."""
