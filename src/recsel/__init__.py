"""recsel: inference for the parameter of the population behind the current
record value in a sequence of independently parameterized observations.

Importing the package loads no submodule and no numpy."""

from .errors import DataError, DomainError, NumericError, RecselError, UsageError

__version__ = "0.1.0"

# sigma-band half-width in risk SDs: the estimators' and --band-factor's default
DEFAULT_BAND_FACTOR = 1.5

__all__ = [
    "RecselError",
    "UsageError",
    "DataError",
    "DomainError",
    "NumericError",
    "DEFAULT_BAND_FACTOR",
    "__version__",
]
