"""Exception types shared across the package.

Every error message names the operation that raised it and the violated
precondition, so batch drivers can surface failures without a traceback.
"""


class LogHLSError(Exception):
    """Base class for all package errors."""


class DomainError(LogHLSError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DimensionMismatchError(LogHLSError, ValueError):
    """Array shape does not match the grid it is paired with."""


class PreconditionError(LogHLSError, ValueError):
    """A stated operation precondition is violated (e.g. a field's mean not zero)."""


class NormalizationError(PreconditionError):
    """A density violates a unit-mass (or fixed-mass) precondition."""


class PositivityError(LogHLSError, ValueError):
    """A quantity that must be positive is not (e.g. log of a density)."""


class ConvergenceError(LogHLSError, RuntimeError):
    """An iteration failed to converge within its configured budget."""


class StepSizeError(LogHLSError, RuntimeError):
    """A requested time step violates a step-size safeguard or cap."""


class MassConservationError(LogHLSError, RuntimeError):
    """Mass drifted beyond tolerance during a flow."""


class ParseError(LogHLSError, ValueError):
    """An input specification string could not be parsed."""
