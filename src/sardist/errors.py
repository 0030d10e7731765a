"""Error taxonomy shared across the package, and one rule per kind of input.

Validation failures (bad values, malformed files, contract violations) are
distinct from storage failures, which are plain OSError, so the CLI can map
them to separate exit codes. `check_seed` takes seeds, `check_fields` config
fields and `finite_array` the float arrays of `sweep_estimate`, `train`,
`RasterStack`, `DistributionEstimate` and `DisturbanceMap`, and `float_array`
(its dtype rule alone) those of `despeckle_values` and `LabeledScores`: a
malformed one is a SardistError there, never a numpy error or warning.
"""

import sys
from dataclasses import field, fields

import numpy as np


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


def _shown(value) -> str:
    """repr(value), or `<int of N digits>` for an int too long to print, also in a tuple."""
    try:
        return repr(value)
    except ValueError:   # repr refuses an int past sys.get_int_max_str_digits()
        if isinstance(value, (tuple, list)):
            return "(%s)" % ", ".join(map(_shown, value))
        n = abs(value).bit_length() * 30103 // 100000   # its digits, or one fewer
        return f"<{'negative ' * (value < 0)}int of {n + (abs(value) >= 10 ** n)} digits>"


def check_seed(seed: int) -> int:
    """`seed` if 0 <= seed < 2**64, else ValidationError: numpy rejects a negative
    seed, and splitmix64 would wrap a larger one onto a seed below 2**64."""
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be an integer in [0, 2**64), got {_shown(seed)}")
    return seed


#: the values a config field of each annotated type accepts; a bool is no int here
_FIELD_TYPES = {"str": str, "int": int, "int | None": (int, type(None)), "float": (int, float),
                "tuple[tuple[float, float], ...] | None": (tuple, list, type(None))}


def bound(default, rule: str | tuple):
    """A config field with `default` that `check_fields` keeps within `rule`: ">= a", "> a",
    an interval such as "(a, b]", or a tuple of the allowed values. None passes any rule."""
    if isinstance(rule, tuple):
        return field(default=default, metadata={"bound": "in {%s}" % ", ".join(map(repr, rule)),
                                                "choices": rule, "within": rule.__contains__})
    lo, hi = map(float, rule[1:-1].split(",") if rule[0] in "[(" else (rule.split()[1], "inf"))
    lo_closed, hi_closed = rule[0] == "[" or rule.startswith(">="), rule[-1] == "]"
    return field(default=default, metadata={
        "bound": rule if rule[0] == ">" else f"in {rule}", "ends": (lo, lo_closed, hi, hi_closed),
        "within": lambda v: ((lo <= v if lo_closed else lo < v)
                             and (v <= hi if hi_closed else v < hi))})


def _check_bound(name: str, value, f) -> None:
    """ValidationError `<name> must be <bound>, got <value>` unless `value` is within `f`'s."""
    if value is not None and "bound" in f.metadata and not f.metadata["within"](value):
        raise ValidationError(f"{name} must be {f.metadata['bound']}, got {_shown(value)}")


def check_fields(config) -> None:
    """ValidationError unless every field of the dataclass `config` has its annotated type,
    is finite if a number (no NaN, no infinity, no int past float range) and is within
    its declared bound. Each config runs it, and its cross-field rules, when it is made."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
            raise ValidationError(f"{f.name} must be {f.type}, got {_shown(value)}")
        if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
            raise ValidationError(f"{f.name} must be finite, got {_shown(value)}")
        _check_bound(f.name, value, f)


def float_array(values, what: str, layout: str, dtype=np.float32) -> np.ndarray:
    """`values` as a `dtype` array (no copy if it is one), inf past its range and with no
    warning; a ragged or non-numeric one is a ShapeError or ValidationError naming `what`."""
    try:
        values = np.asarray(values)
    except ValueError:   # numpy's "inhomogeneous shape" of a ragged nested sequence
        raise ShapeError(f"{what} must be ({layout}), got a ragged sequence") from None
    if values.dtype.kind not in "biuf":
        raise ValidationError(f"{what} must be numeric, got dtype {values.dtype}")
    with np.errstate(over="ignore"):
        return values.astype(dtype, copy=False)


def finite_array(values, what: str, axes: str, dtype=np.float32, plural: bool = False):
    """`float_array`, then an axis per letter of `axes`, all finite; else errors naming `what`."""
    values = float_array(values, what, ",".join(axes), dtype)
    if values.ndim != len(axes):
        raise ShapeError(f"{what} must be ({','.join(axes)}), got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValidationError(f"{what} contain{'' if plural else 's'} non-finite values")
    return values
