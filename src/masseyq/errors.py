"""Exception types shared across the package."""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for algebra-level failures."""


class AlgebraValidationError(AlgebraError):
    """An algebra, morphism or transfer datum violates a structural axiom."""


class DifferentialSquareError(AlgebraValidationError):
    """A free presentation is well formed but its d*d is nonzero."""


class DegreeCapError(AlgebraError):
    """An operation would need degrees above the declared cap.

    Carries ``required_cap`` so callers can report the cap that would
    have been sufficient.
    """

    def __init__(self, message: str, required_cap: int | None = None):
        super().__init__(message)
        self.required_cap = required_cap


class BudgetError(Exception):
    """A presentation's size passes the package limit before it is built.

    ``required_size``, the size counted when the count passed
    ``size_limit``, is a lower bound on the full size: the count stops there.
    """

    def __init__(self, message: str, required_size: int, size_limit: int):
        super().__init__(message)
        self.required_size = required_size
        self.size_limit = size_limit


class UndefinedProductError(AlgebraError):
    """A Massey product needed by a check is not defined."""


class PremiseError(AlgebraError):
    """A check was invoked on inputs that violate its hypothesis."""


class ConsistencyError(AlgebraError):
    """Two independent code paths that must agree disagreed.

    This is always a hard failure: it means either a bug or corrupted
    input data, never a mathematical outcome.
    """


class ParseError(Exception):
    """Input document rejected; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
