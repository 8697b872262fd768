"""Exception types shared across the package."""


class BolError(Exception):
    """Base class for package errors."""


class DomainError(BolError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DivergenceError(BolError, ArithmeticError):
    """An improper integral fails its integrability requirement.

    ``end`` names the failing end ("head" or "tail").
    """

    def __init__(self, message, end):
        super().__init__(message)
        self.end = end


class ResourceGuardError(BolError, RuntimeError):
    """A resource guard tripped (grid too fine, shift budget exceeded)."""

    def __init__(self, message, guard):
        super().__init__(message)
        self.guard = guard
