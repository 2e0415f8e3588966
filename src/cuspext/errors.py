"""Exception types shared across the package."""


class CuspExtError(Exception):
    """Base class for all package-specific errors."""


class ProfileDomainError(CuspExtError, ValueError):
    """Evaluation outside the profile domain (0, 1] or a malformed point."""


class ProfileFormatError(CuspExtError, ValueError):
    """Invalid profile table or config; carries a row/field-indexed message."""


class NotNormalizedError(CuspExtError, RuntimeError):
    """Operation requires a normalized domain (2*psi(1) < 1 with margin).

    Callers should run ``geometry.normalize`` first.
    """


class ConvergenceError(CuspExtError, RuntimeError):
    """A root solve did not converge; ``bracket`` holds the last interval."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class QuadratureError(CuspExtError, RuntimeError):
    """Non-finite integrand sample; ``node`` holds the offending point."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class ConfigError(CuspExtError, ValueError):
    """Invalid run configuration; message lists field-level problems."""
