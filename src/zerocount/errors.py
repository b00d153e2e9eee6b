"""Typed exceptions shared across the package.

The hierarchy is intentionally small: callers that want to distinguish bad
input from numerical trouble can catch ``DomainError`` versus
``ConvergenceError``/``QuadratureError``; everything derives from
``ZeroCountError`` so blanket handling stays possible.
"""

__all__ = [
    "ZeroCountError",
    "DomainError",
    "ConvergenceError",
    "QuadratureError",
    "ImproperPosteriorError",
    "ImproperError",
]


class ZeroCountError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ZeroCountError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(ZeroCountError, ArithmeticError):
    """An iterative routine exhausted its budget before converging.

    ``bracket`` holds the last root bracket when a solver failed;
    ``residual`` holds the last function residual when known.
    """

    def __init__(self, message, *, bracket=None, residual=None):
        super().__init__(message)
        self.bracket = bracket
        self.residual = residual


class QuadratureError(ZeroCountError, ArithmeticError):
    """Numerical integration failed or detected a divergent integrand.

    Carries the partial sum and the running error estimate so a failure is
    diagnosable; it is never reported as a silent NaN.
    """

    def __init__(self, message, *, partial_sum=None, error_estimate=None):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.error_estimate = error_estimate


class ImproperPosteriorError(ZeroCountError):
    """The prior and data combine to a posterior that cannot be normalized.

    ``shape`` is the offending Gamma shape parameter (S + a); ``total_counts``
    is the observed total; ``replicate`` is set when a simulation run hit the
    condition mid-stream.
    """

    def __init__(self, message, *, shape=None, total_counts=None, replicate=None):
        super().__init__(message)
        self.shape = shape
        self.total_counts = total_counts
        self.replicate = replicate


# Shorter alias used in docs and by callers that predate the longer name.
ImproperError = ImproperPosteriorError


def _require_int(value, name: str, minimum: int = 0) -> int:
    """Return ``value`` as an ``int`` if it is an integer >= ``minimum``.

    Bool, non-integral, infinite and NaN values raise ``DomainError``, as
    does anything ``int()`` cannot convert, so no caller sees an
    ``OverflowError`` or a bare ``ValueError`` from the conversion.
    """
    # integrands call this once per evaluation; a plain int skips the rest
    if type(value) is int and value >= minimum:
        return value
    try:
        valid = not isinstance(value, bool) and int(value) == value and value >= minimum
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)
