"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: DomainError family -> 1,
NumericError -> 2, ResourceError -> 3.
"""


class OlxError(Exception):
    """Base class for all package errors."""


class DomainError(OlxError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class RangeError(DomainError):
    """A parameter exceeds the range covered by precomputed coefficients."""


class UnsupportedModelError(DomainError):
    """The requested operation has no implementation for this model."""


class ResourceError(OlxError, RuntimeError):
    """A parameter exceeds a compute or memory budget."""


class NumericError(OlxError, ArithmeticError):
    """A numeric computation degenerated or failed to converge."""
