"""Error taxonomy shared across the package.

Validation failures (bad values, malformed files, contract violations) are
distinct from storage failures, which are plain OSError, so the CLI can map
them to separate exit codes.
"""

import math
from dataclasses import fields


class SardistError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(SardistError, ValueError):
    """Input values or configuration violate a documented contract."""


class ShapeError(ValidationError):
    """Array shape does not match the expected layout."""


class FormatError(ValidationError):
    """A container file is malformed (bad magic, header, or payload size)."""


class ProvenanceError(ValidationError):
    """An estimate was not forecast from the frames before the one it scores."""


def check_seed(seed: int) -> int:
    """`seed` if 0 <= seed < 2**64, else ValidationError: numpy rejects a negative
    seed, and splitmix64 would wrap a larger one onto a seed below 2**64."""
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return seed


#: the values a config field of each annotated type accepts; a bool is no int here
_FIELD_TYPES = {"str": str, "int": int, "int | None": (int, type(None)), "float": (int, float),
                "tuple[tuple[float, float], ...] | None": (tuple, list, type(None))}


def check_fields(config) -> None:
    """ValidationError unless every field of the dataclass `config` has its annotated type,
    finite if a float (an int may be past float range, where math.isfinite overflows)."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
            raise ValidationError(f"{f.name} must be {f.type}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{f.name} must be finite, got {value!r}")
