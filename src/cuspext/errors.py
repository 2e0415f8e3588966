"""Exception types, the check record and the unknown-key message, shared across the package."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """A measured value and the bound it must not exceed: ``ok`` is value <= bound, so NaN fails.

    x < b is kept as bound nextafter(b, 0), 0 < x as Check(-x, -nextafter(0, 1))
    and x < inf as bound sys.float_info.max: the same comparisons, bit for bit.
    """

    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return bool(self.value <= self.bound)


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


def unknown_key(field: str, key: str, known) -> str:
    """Message for a config key nothing reads, naming the closest known key."""
    import difflib  # on this error path only, so a valid config loads no extra module

    # above difflib's default 0.6, which offers 'seed' for a stray 'extend' section
    close = difflib.get_close_matches(key, list(known), n=1, cutoff=0.7)
    hint = f"did you mean {close[0]!r}?" if close else f"known keys: {', '.join(known)}"
    return f"{field}: unknown key; {hint}"
