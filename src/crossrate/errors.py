"""Exception hierarchy shared across the package.

The CLI exits 2 on a ConfigError or DomainError and 3 on a NumericsError.
"""


class CrossrateError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CrossrateError):
    """A scenario configuration is malformed or inconsistent."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


class NumericsError(CrossrateError):
    """A numerical procedure failed (singular matrix, lost PSD, Riccati non-convergence)."""


class DomainError(CrossrateError, ValueError):
    """Input is outside the mathematical domain of an operation."""
