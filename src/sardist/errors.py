"""Error taxonomy shared across the package.

Validation failures (bad values, malformed files, contract violations) are
distinct from storage failures (missing files, short reads) so the CLI can
map them to separate exit codes.
"""


class SardistError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(SardistError, ValueError):
    """Input values or configuration violate a documented contract."""


class ShapeError(ValidationError):
    """Array shape does not match the expected layout."""


class FormatError(ValidationError):
    """A container file is malformed (bad magic, header, or payload size)."""


class NumericError(SardistError, ArithmeticError):
    """A numeric procedure diverged or produced non-finite values."""


class StorageError(SardistError, OSError):
    """An I/O operation failed."""
