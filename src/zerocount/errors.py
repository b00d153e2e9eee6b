"""Typed exceptions shared across the package.

The hierarchy is intentionally small: callers that want to distinguish bad
input from numerical trouble can catch ``DomainError`` versus
``ConvergenceError``/``QuadratureError``; everything derives from
``ZeroCountError`` so blanket handling stays possible.

Arguments are checked by two private validators that raise ``DomainError``
naming the parameter and the bound it broke: ``_require_real`` for real
values, which must be finite and inside their stated interval, and
``_require_int`` for counts, sizes and seeds, which owns every integer
bound: a minimum, the float range and a cap such as the seed width.
Messages show values by ``_shown``.

The package's frozen records derive from ``_Record``: each declares its
fields once, in ``__slots__``, and ``_Record`` compiles from them a
constructor that takes them in that order and stores each one through its
slot's member descriptor (``__set__``), which bypasses the record's own
``__setattr__``; after that, assignment and deletion raise
``AttributeError``.
"""

import math
import numbers

__all__ = [
    "ZeroCountError",
    "DomainError",
    "ConvergenceError",
    "QuadratureError",
    "ImproperPosteriorError",
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
    """The prior and data combine to a posterior with no finite integral.

    ``shape`` is the offending Gamma shape parameter (S + a); ``total_counts``
    is the observed total; ``replicate`` is set when a simulation run hit the
    condition mid-stream.
    """

    def __init__(self, message, *, shape=None, total_counts=None, replicate=None):
        super().__init__(message)
        self.shape = shape
        self.total_counts = total_counts
        self.replicate = replicate


class _Record:
    """Base of the frozen records: constructor, equality, hash and repr over ``__slots__``.

    A subclass declares its fields once, in ``__slots__``; ``_store`` is an
    ``__init__(self, <fields>)`` compiled from them (PEP 557 style) that stores
    each through its slot descriptor's ``__set__`` (``object.__setattr__``
    would look the field up through the class on every store), and a subclass
    that validates defines ``__init__`` to end in ``self._store(...)``.

    The repr reads ``Name(field=value, ...)`` in slot order, and two records
    are equal when they are of one class and their field tuples are; a
    record of another class compares ``NotImplemented``. Pickling and
    ``copy`` rebuild a record by calling its class on the field values.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # the setters are the compiled function's globals, not default
        # arguments, so that inspect.signature lists only the fields
        namespace = {f"_set_{name}": cls.__dict__[name].__set__ for name in cls.__slots__}
        stores = "".join(f"\n _set_{name}(self, {name})" for name in cls.__slots__)
        exec(f"def __init__(self, {', '.join(cls.__slots__)}):{stores}", namespace)
        cls._store = namespace["__init__"]
        cls._store.__qualname__ = f"{cls.__qualname__}.__init__"  # TypeError messages name it
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._store

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def _shown(value) -> str:
    """``repr(value)``, or an int of over 1,024 bits by its bit length: such an
    int is past every double, and ``repr`` raises past 4,300 digits."""
    if isinstance(value, int) and value.bit_length() > 1024:
        return f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit integer"
    return repr(value)


# the largest int float() converts; from 2^1024 - 2^970 on, ints round past every double
_FLOAT_INT_MAX = 2**1024 - 2**970 - 1


def _require_int(value, name: str, minimum: int = 0, maximum: int = _FLOAT_INT_MAX) -> int:
    """Return ``value`` as an ``int`` if it is an integer in [``minimum``, ``maximum``].

    Bool, non-integral, infinite and NaN values raise ``DomainError``, as
    does anything ``int()`` cannot convert, so no caller sees an
    ``OverflowError`` or a bare ``ValueError`` from the conversion. Every
    count is used as a float, so an int past the float range raises with
    ``_require_real``'s message, and one above a lower ``maximum`` names it.
    """
    # posterior_from_sufficient checks S and n on every limit: a plain int skips the rest
    if type(value) is int and minimum <= value <= maximum:
        return value
    try:
        valid = not isinstance(value, bool) and int(value) == value and value >= minimum
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {_shown(value)}")
    value = _require_real(int(value), name, minimum)  # an int past the float range raises
    if value > maximum:
        raise DomainError(f"{name} must be at most {maximum}, got {_shown(value)}")
    return value


def _require_real(value, name: str, low: float, high: float = math.inf, *, strict: bool = False):
    """Return ``value`` if it is a finite real in ``[low, high]``, or ``(low, high)`` if ``strict``.

    Bool, non-numbers, infinite and NaN values raise ``DomainError``, whose
    message names the parameter and its interval.
    """
    # an upper limit runs four checks; an in-range float skips the rest
    if type(value) is float and (low < value if strict else low <= value) and value < high:
        return value
    try:
        valid = isinstance(value, numbers.Real) and not isinstance(value, bool) and (
            math.isfinite(value) and (low < value < high if strict else low <= value <= high))
    except OverflowError:  # an int beyond the float range
        valid = False
    if not valid:
        closing = ")" if strict or high == math.inf else "]"
        interval = f"{'(' if strict else '['}{low:g}, {high:g}{closing}"
        raise DomainError(f"{name} must be finite and in {interval}, got {_shown(value)}")
    return value
