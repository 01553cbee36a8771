"""Exception types shared across the package."""
from __future__ import annotations

__all__ = [
    "FracsumError",
    "ParameterError",
    "DomainError",
    "PoleError",
    "BranchCutError",
    "UnknownIdentityError",
    "SummandSpecError",
]


class FracsumError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(FracsumError, ValueError):
    """A configuration or algorithm parameter is outside its allowed range."""


class DomainError(FracsumError, ValueError):
    """An input lies outside the mathematical domain of the operation.

    The offending value is kept in ``value`` so callers can report it.
    """

    def __init__(self, message: str, value: complex | None = None):
        super().__init__(message)
        self.value = value


class PoleError(DomainError):
    """The requested point is a pole of the function being evaluated."""


class BranchCutError(DomainError):
    """A logarithm was requested on or across the principal branch cut."""


class UnknownIdentityError(FracsumError, KeyError):
    """Lookup of an identity id that is not registered."""

    __str__ = Exception.__str__  # KeyError's would quote the message


class SummandSpecError(FracsumError, ValueError):
    """A summand family spec string could not be parsed."""
