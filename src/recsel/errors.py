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


def finite_number(name: str, value) -> float:
    """value as a float when it is a finite real number (a bool or a string
    is not one), else a usage error naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise UsageError(f"{name} must be a finite number, got {value!r}")
    return float(value)
