"""Exception types shared across the package.

Each type carries the ``gtmseq`` command-line exit code it maps to.
"""

__all__ = [
    "GtmseqError",
    "SpecParseError",
    "WindowExceededError",
    "BudgetExceededError",
    "PeriodicSpecError",
    "MTooSmallError",
]


class GtmseqError(Exception):
    """Base class for all library errors."""

    exit_code = 2


class SpecParseError(GtmseqError):
    """A spec file could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class WindowExceededError(GtmseqError):
    """A finite-window kappa spec was queried beyond its window bound."""

    exit_code = 4


class BudgetExceededError(GtmseqError):
    """A requested computation exceeds the configured memory budget."""

    exit_code = 5


class PeriodicSpecError(GtmseqError):
    """Operation requires a non-periodic sequence but the spec is periodic
    (or could not be shown non-periodic)."""

    exit_code = 3


class MTooSmallError(GtmseqError):
    """Stammering construction index m is below the legal minimum."""

    exit_code = 6

