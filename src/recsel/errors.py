"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage errors exit with 2, data errors
with 3 and numeric failures with 4.
"""

import math
import numbers


class RecselError(Exception):
    """Base class for all recsel errors."""


class UsageError(RecselError):
    """Caller misused an interface (bad arguments, kind mismatch, missing cell)."""


class DataError(RecselError):
    """Input data is malformed or violates a precondition."""


class DomainError(DataError):
    """A numeric argument lies outside the mathematically valid domain."""


class NumericError(RecselError):
    """A numerical routine failed to reach its accuracy target."""


def whole_number(name: str, value, error: type[RecselError] = UsageError) -> int:
    """value as an int when it is a whole number, an int or an integral
    float such as 1e5 (a bool, a string, a fraction or an infinity is not
    one), else `error` naming it."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be a whole number, got {value!r}")
    return int(value)


def finite_number(name: str, value) -> float:
    """value as a float when it is a finite real number (a bool or a string
    is not one), else a usage error naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise UsageError(f"{name} must be a finite number, got {value!r}")
    return float(value)
