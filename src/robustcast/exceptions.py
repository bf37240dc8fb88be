"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError (and its
subclasses) -> 3, anything else -> 4.
"""


class RobustcastError(Exception):
    """Base class for all package errors."""


class ConfigError(RobustcastError):
    """Invalid configuration value or malformed run config."""


class DataError(RobustcastError):
    """Problem with input data."""


class ParseError(DataError):
    """Malformed file content; message names the offending line."""


class DomainError(DataError):
    """Value outside its admissible domain (range, support, shape)."""


class OrderError(DataError):
    """Period indices not strictly increasing with a constant step."""


class SizeError(DataError):
    """A data segment is empty or too short for the requested operation."""


class NumericalError(RobustcastError):
    """A computation produced a non-finite value, e.g. a diverged training loss."""


class CapacityError(RobustcastError):
    """Guarded combinatorial operation asked to exceed its size limit."""
