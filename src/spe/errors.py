"""Exception types shared across the package."""
from __future__ import annotations


class EstimationError(Exception):
    """Base class for errors raised by this package."""


class InvalidParams(EstimationError, ValueError):
    """A parameter object violates its constraints (negative probability, row sum off, ...)."""


class ZeroObservationProbability(EstimationError):
    """A Bayes belief update was attempted on an observation with probability zero.

    Carries the time step at which filtering broke down, when known.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class MaxIterExceeded(EstimationError):
    """A solver missed its tolerance.

    An iterative solver hit its iteration cap, or a direct solve's residual is above tol.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class NonFiniteObjective(EstimationError):
    """The objective became non-finite at an iterate reached by the optimizer."""


class ParseError(EstimationError):
    """A dataset file could not be parsed. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class SchemaError(EstimationError):
    """A dataset record parsed but violates the schema (missing key, length mismatch)."""


class ContractionUndefined(EstimationError):
    """No vertex pair with positive observation probability exists for this transition."""
