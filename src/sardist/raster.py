"""In-memory raster types and the RTS binary container.

The RTS container is a little-endian binary layout:

    bytes 0..3   magic ``RTS0``
    bytes 4..7   uint32 length N of the JSON header
    bytes 8..8+N UTF-8 JSON header
    remainder    exactly T*C*H*W float32 values, C-contiguous, TCHW order

The JSON header always carries ``shape`` ([T, C, H, W]), ``dtype``
("f32le"), ``order`` ("TCHW"), ``timestamps`` and ``pol_names``; writers may
add extra keys (metric maps add ``units``). Header bytes are produced with
sorted keys and no whitespace so identical content yields identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeError, ValidationError

MAGIC = b"RTS0"
DTYPE_TAG = "f32le"
ORDER_TAG = "TCHW"

#: units accepted on DisturbanceMap; "decibels" maps carry raw log10-ratio
#: values (multiply by 10 only when displaying as dB).
METRIC_UNITS = ("standard_deviations", "decibels")

_REQUIRED_KEYS = ("shape", "dtype", "order", "timestamps", "pol_names")


@dataclass
class RasterStack:
    """A time series of co-registered dual-polarization backscatter frames.

    values: float32 array of shape (T, C, H, W) with every entry strictly
        inside (0, 1).
    timestamps: one ISO-8601 date string per frame, strictly increasing.
    pol_names: channel names, default ("VV", "VH").
    """

    values: np.ndarray
    timestamps: list[str]
    pol_names: tuple[str, str] = ("VV", "VH")

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float32)
        self.timestamps = list(self.timestamps)
        self.pol_names = tuple(self.pol_names)
        self.validate()

    def validate(self) -> None:
        v = self.values
        if v.ndim != 4:
            raise ShapeError(f"stack must be 4-d (T,C,H,W), got shape {v.shape}")
        t, c, h, w = v.shape
        if t < 2:
            raise ValidationError(f"stack needs at least 2 frames, got {t}")
        if c != 2:
            raise ShapeError(f"stack must have exactly 2 polarization channels, got {c}")
        if h < 1 or w < 1:
            raise ShapeError(f"empty spatial extent {h}x{w}")
        if len(self.timestamps) != t:
            raise ValidationError(
                f"{len(self.timestamps)} timestamps for {t} frames"
            )
        for a, b in zip(self.timestamps, self.timestamps[1:]):
            if not a < b:
                raise ValidationError(f"timestamps not strictly increasing: {a!r} >= {b!r}")
        if len(self.pol_names) != 2:
            raise ValidationError(f"expected 2 pol names, got {self.pol_names!r}")
        _check_unit_interval(v)

    @classmethod
    def raw(cls, values: np.ndarray, timestamps: list[str],
            pol_names: tuple[str, str] = ("VV", "VH")) -> "RasterStack":
        """Construct without the (0,1) range check (pre-clip data).

        Structural invariants (4-d, T>=2, C=2, finite, timestamp count) still
        hold; only the value-range check is skipped.
        """
        stack = cls.__new__(cls)
        stack.values = np.asarray(values, dtype=np.float32)
        stack.timestamps = list(timestamps)
        stack.pol_names = tuple(pol_names)
        if stack.values.ndim != 4 or stack.values.shape[0] < 2 or stack.values.shape[1] != 2:
            raise ShapeError(f"not a (T>=2, C=2, H, W) stack: {stack.values.shape}")
        if len(stack.timestamps) != stack.values.shape[0]:
            raise ValidationError(
                f"{len(stack.timestamps)} timestamps for {stack.values.shape[0]} frames"
            )
        if not np.all(np.isfinite(stack.values)):
            raise ValidationError("values contain NaN or Inf")
        return stack

    @property
    def num_steps(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[2]

    @property
    def width(self) -> int:
        return self.values.shape[3]


@dataclass
class DistributionEstimate:
    """Per-pixel forecast of the next frame: mean and standard deviation.

    Both arrays have shape (C, H, W) and live in logit space. sigma is
    strictly positive.
    """

    mu: np.ndarray
    sigma: np.ndarray
    pol_names: tuple[str, str] = ("VV", "VH")

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=np.float32)
        self.sigma = np.asarray(self.sigma, dtype=np.float32)
        if self.mu.ndim != 3 or self.mu.shape[0] != 2:
            raise ShapeError(f"mu must be (2,H,W), got {self.mu.shape}")
        if self.sigma.shape != self.mu.shape:
            raise ShapeError(
                f"sigma shape {self.sigma.shape} != mu shape {self.mu.shape}"
            )
        if not np.all(np.isfinite(self.mu)) or not np.all(np.isfinite(self.sigma)):
            raise ValidationError("estimate contains non-finite values")
        if not np.all(self.sigma > 0):
            raise ValidationError("sigma must be strictly positive")


@dataclass
class DisturbanceMap:
    """Single-channel non-negative disturbance metric over the scene."""

    values: np.ndarray
    units: str

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 2:
            raise ShapeError(f"metric map must be 2-d, got {self.values.shape}")
        if self.units not in METRIC_UNITS:
            raise ValidationError(f"unknown units {self.units!r}, expected one of {METRIC_UNITS}")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("metric map contains non-finite values")
        if np.any(self.values < 0):
            raise ValidationError("metric map values must be >= 0")


@dataclass
class BinaryDelineation:
    """Boolean disturbance mask plus the threshold that produced it."""

    mask: np.ndarray
    threshold: float

    def __post_init__(self) -> None:
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.ndim != 2:
            raise ShapeError(f"mask must be 2-d, got {self.mask.shape}")
        if not (self.threshold > 0) or not np.isfinite(self.threshold):
            raise ValidationError(f"threshold must be finite and > 0, got {self.threshold}")


def _check_unit_interval(v: np.ndarray) -> None:
    if not np.all(np.isfinite(v)):
        raise ValidationError("values contain NaN or Inf")
    if np.any(v <= 0.0) or np.any(v >= 1.0):
        lo, hi = float(v.min()), float(v.max())
        raise ValidationError(
            f"backscatter values must lie strictly inside (0,1); found range [{lo}, {hi}]"
        )


# ---------------------------------------------------------------------------
# low-level container I/O (any float payload; shape [T, C, H, W])
# ---------------------------------------------------------------------------

def encode_header(shape: tuple[int, ...], timestamps: list[str],
                  pol_names: tuple[str, ...], extra: dict | None = None) -> bytes:
    header = {
        "shape": [int(s) for s in shape],
        "dtype": DTYPE_TAG,
        "order": ORDER_TAG,
        "timestamps": list(timestamps),
        "pol_names": list(pol_names),
    }
    if extra:
        for k, v in extra.items():
            if k in header:
                raise ValidationError(f"extra header key {k!r} collides with a required key")
            header[k] = v
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_array(path: str, values: np.ndarray, timestamps: list[str],
                pol_names: tuple[str, ...] = ("VV", "VH"),
                extra: dict | None = None) -> None:
    """Write a 4-d float array to an RTS container (no value-range checks)."""
    values = np.asarray(values, dtype=np.float32)
    if values.ndim != 4:
        raise ShapeError(f"container payload must be 4-d, got {values.shape}")
    header = encode_header(values.shape, timestamps, pol_names, extra)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(len(header)).tobytes())
        fh.write(header)
        fh.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


def read_array(path: str) -> tuple[np.ndarray, dict]:
    """Read an RTS container; returns (values, header). Structural checks only."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise FormatError(f"{path}: truncated container ({len(raw)} bytes)")
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    header_len = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    if len(raw) < 8 + header_len:
        raise FormatError(f"{path}: header extends past end of file")
    try:
        header = json.loads(raw[8:8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable header: {exc}") from exc
    for key in _REQUIRED_KEYS:
        if key not in header:
            raise FormatError(f"{path}: header missing key {key!r}")
    if header["dtype"] != DTYPE_TAG:
        raise FormatError(f"{path}: unsupported dtype {header['dtype']!r}")
    if header["order"] != ORDER_TAG:
        raise FormatError(f"{path}: unsupported order {header['order']!r}")
    shape = tuple(int(s) for s in header["shape"])
    if len(shape) != 4 or any(s < 1 for s in shape):
        raise FormatError(f"{path}: bad shape {shape}")
    expected = int(np.prod(shape)) * 4
    payload = raw[8 + header_len:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    values = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
    if len(header["timestamps"]) != shape[0]:
        raise FormatError(
            f"{path}: {len(header['timestamps'])} timestamps for {shape[0]} frames"
        )
    return values, header


# ---------------------------------------------------------------------------
# typed wrappers
# ---------------------------------------------------------------------------

def write_stack(stack: RasterStack, path: str) -> None:
    stack.validate()
    write_array(path, stack.values, stack.timestamps, stack.pol_names)


def read_stack(path: str, allow_raw: bool = False) -> RasterStack:
    """Read a backscatter stack.

    allow_raw skips the strict (0,1) range check (escape hatch for data that
    has not been clipped yet); NaN/Inf are always rejected.
    """
    values, header = read_array(path)
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{path}: values contain NaN or Inf")
    if allow_raw:
        return RasterStack.raw(values, list(header["timestamps"]), tuple(header["pol_names"]))
    return RasterStack(values, list(header["timestamps"]), tuple(header["pol_names"]))


def write_mask(mask: np.ndarray, path: str, timestamp: str = "mask") -> None:
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ShapeError(f"mask must be 2-d, got {mask.shape}")
    values = mask.astype(np.float32).reshape(1, 1, *mask.shape)
    write_array(path, values, [timestamp], ("mask",))


def read_mask(path: str) -> np.ndarray:
    values, _ = read_array(path)
    if values.shape[0] != 1 or values.shape[1] != 1:
        raise FormatError(f"{path}: mask container must be [1,1,H,W], got {values.shape}")
    if not np.all((values == 0.0) | (values == 1.0)):
        raise ValidationError(f"{path}: mask values must be exactly 0.0 or 1.0")
    return values[0, 0] > 0.5


def write_metric_map(dmap: DisturbanceMap, path: str, timestamp: str = "metric") -> None:
    values = dmap.values.reshape(1, 1, *dmap.values.shape)
    write_array(path, values, [timestamp], ("metric",), extra={"units": dmap.units})


def read_metric_map(path: str) -> DisturbanceMap:
    values, header = read_array(path)
    if values.shape[0] != 1 or values.shape[1] != 1:
        raise FormatError(f"{path}: metric container must be [1,1,H,W], got {values.shape}")
    if "units" not in header:
        raise FormatError(f"{path}: metric map header missing 'units'")
    return DisturbanceMap(values[0, 0], header["units"])


def write_delineation(delineation: BinaryDelineation, path: str,
                      timestamp: str = "mask") -> None:
    values = delineation.mask.astype(np.float32).reshape(1, 1, *delineation.mask.shape)
    write_array(path, values, [timestamp], ("mask",),
                extra={"threshold": float(delineation.threshold)})


def read_delineation(path: str) -> BinaryDelineation:
    values, header = read_array(path)
    if values.shape[0] != 1 or values.shape[1] != 1:
        raise FormatError(f"{path}: mask container must be [1,1,H,W], got {values.shape}")
    if "threshold" not in header:
        raise FormatError(f"{path}: delineation header missing 'threshold'")
    if not np.all((values == 0.0) | (values == 1.0)):
        raise ValidationError(f"{path}: mask values must be exactly 0.0 or 1.0")
    return BinaryDelineation(values[0, 0] > 0.5, float(header["threshold"]))


def write_estimate(est: DistributionEstimate, mu_path: str, sigma_path: str,
                   timestamp: str = "forecast") -> None:
    write_array(mu_path, est.mu.reshape(1, *est.mu.shape), [timestamp],
                est.pol_names, extra={"units": "logit"})
    write_array(sigma_path, est.sigma.reshape(1, *est.sigma.shape), [timestamp],
                est.pol_names, extra={"units": "logit"})


def read_estimate(mu_path: str, sigma_path: str) -> DistributionEstimate:
    mu, mu_hdr = read_array(mu_path)
    sigma, _ = read_array(sigma_path)
    if mu.shape != sigma.shape or mu.shape[0] != 1:
        raise FormatError(
            f"estimate containers disagree: mu {mu.shape} vs sigma {sigma.shape}"
        )
    return DistributionEstimate(mu[0], sigma[0], tuple(mu_hdr["pol_names"]))

