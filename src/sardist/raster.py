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

Every artifact the package writes goes through `write_file`, which writes a
temporary sibling and then replaces the target, so a failed write leaves the
previous file as it was. JSON sidecars share `write_json` and `read_json`.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import FormatError, ShapeError, ValidationError

MAGIC = b"RTS0"
DTYPE_TAG = "f32le"
ORDER_TAG = "TCHW"

#: units accepted on DisturbanceMap; "log10_ratio" maps carry raw log10-ratio
#: values (multiply by 10 only when displaying as dB). Maps written before the
#: tag had its name read their legacy "decibels" tag as "log10_ratio".
METRIC_UNITS = ("standard_deviations", "log10_ratio")

_REQUIRED_KEYS = ("shape", "dtype", "order", "timestamps", "pol_names")


@dataclass
class RasterStack:
    """A time series of co-registered dual-polarization backscatter frames.

    values: float32 array of shape (T, C, H, W) with every entry strictly
        inside (0, 1).
    timestamps: one ISO-8601 date string per frame, strictly increasing.
    pol_names: channel names, default ("VV", "VH").
    unit_range=False skips only the (0, 1) check, for data not yet clipped.
    """

    values: np.ndarray
    timestamps: list[str]
    pol_names: tuple[str, str] = ("VV", "VH")
    unit_range: InitVar[bool] = True

    def __post_init__(self, unit_range: bool) -> None:
        self.values = np.asarray(self.values, dtype=np.float32)
        self.timestamps = list(self.timestamps)
        self.pol_names = tuple(self.pol_names)
        self.validate(unit_range)

    def validate(self, unit_range: bool = True) -> None:
        """Check every invariant; `unit_range=False` skips only the (0,1) check."""
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
        if not np.all(np.isfinite(v)):
            raise ValidationError("values contain NaN or Inf")
        if unit_range and (np.any(v <= 0.0) or np.any(v >= 1.0)):
            lo, hi = float(v.min()), float(v.max())
            raise ValidationError(
                f"backscatter values must lie strictly inside (0,1); found range [{lo}, {hi}]"
            )

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
    strictly positive. timestamp names the last frame the forecast saw.
    """

    mu: np.ndarray
    sigma: np.ndarray
    pol_names: tuple[str, str] = ("VV", "VH")
    timestamp: str = "forecast"

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


# ---------------------------------------------------------------------------
# whole-file writes and JSON sidecars
# ---------------------------------------------------------------------------

def write_file(path: str, chunks) -> None:
    """Write byte chunks (bytes or contiguous arrays) to `path`, atomically.

    The chunks go one by one into a temporary sibling, which then replaces
    `path`; if anything fails, the sibling is removed and `path` is left as
    it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_text(path: str, text: str) -> None:
    write_file(path, [text.encode("utf-8")])


def write_json(path: str, obj) -> None:
    """The one sidecar format: 2-space indent, sorted keys, trailing newline."""
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: str):
    """Parse a UTF-8 JSON file; FormatError naming `path` if it does not decode."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise FormatError(f"{path}: not valid UTF-8 JSON: {exc}") from None


# ---------------------------------------------------------------------------
# low-level container I/O (any float payload; shape [T, C, H, W])
# ---------------------------------------------------------------------------

def write_array(path: str, values: np.ndarray, timestamps: list[str],
                pol_names: tuple[str, ...] = ("VV", "VH"),
                extra: dict | None = None) -> None:
    """Write a 4-d float array to an RTS container (no value-range checks)."""
    values = np.asarray(values, dtype=np.float32)
    if values.ndim != 4:
        raise ShapeError(f"container payload must be 4-d, got {values.shape}")
    header = {
        "shape": [int(s) for s in values.shape],
        "dtype": DTYPE_TAG,
        "order": ORDER_TAG,
        "timestamps": list(timestamps),
        "pol_names": list(pol_names),
    }
    for k, v in (extra or {}).items():
        if k in header:
            raise ValidationError(f"extra header key {k!r} collides with a required key")
        header[k] = v
    header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_file(path, [MAGIC, np.uint32(len(header)).tobytes(), header,
                      np.ascontiguousarray(values, dtype="<f4")])


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
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    for key in _REQUIRED_KEYS:
        if key not in header:
            raise FormatError(f"{path}: header missing key {key!r}")
    if header["dtype"] != DTYPE_TAG:
        raise FormatError(f"{path}: unsupported dtype {header['dtype']!r}")
    if header["order"] != ORDER_TAG:
        raise FormatError(f"{path}: unsupported order {header['order']!r}")
    shape = header["shape"]
    if not (isinstance(shape, list) and len(shape) == 4
            and all(type(s) is int and s >= 1 for s in shape)):
        raise FormatError(f"{path}: bad shape {shape!r}")
    for key in ("timestamps", "pol_names"):
        if not (isinstance(header[key], list) and all(isinstance(n, str) for n in header[key])):
            raise FormatError(f"{path}: header {key!r} is not a list of strings")
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
    """Read a backscatter stack and run every RasterStack check.

    allow_raw skips only the strict (0,1) range check (escape hatch for data
    that has not been clipped yet).
    """
    values, header = read_array(path)
    try:
        return RasterStack(values, header["timestamps"], header["pol_names"],
                           unit_range=not allow_raw)
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _write_frame(path: str, frame: np.ndarray, timestamp: str,
                 pol_names: tuple[str, ...], extra: dict | None = None) -> None:
    """Write one (C, H, W) frame as a [1, C, H, W] container."""
    write_array(path, frame[None], [timestamp], pol_names, extra)


def _read_frame(path: str, what: str, key: str | None = None,
                one_channel: bool = True, binary: bool = False) -> tuple[np.ndarray, dict]:
    """(C, H, W) frame and header of a [1, C, H, W] container of kind `what`;
    C must be 1 if `one_channel`, header `key` must exist, values must be 0/1 if `binary`."""
    values, header = read_array(path)
    if values.shape[0] != 1 or (one_channel and values.shape[1] != 1):
        layout = "[1,1,H,W]" if one_channel else "[1,C,H,W]"
        raise FormatError(f"{path}: {what} container must be {layout}, got {values.shape}")
    if key is not None and key not in header:
        raise FormatError(f"{path}: {what} header missing {key!r}")
    if binary and not np.all((values == 0.0) | (values == 1.0)):
        raise ValidationError(f"{path}: mask values must be exactly 0.0 or 1.0")
    return values[0], header


def write_mask(mask: np.ndarray, path: str) -> None:
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ShapeError(f"mask must be 2-d, got {mask.shape}")
    _write_frame(path, mask[None], "mask", ("mask",))


def read_mask(path: str) -> np.ndarray:
    frame, _ = _read_frame(path, "mask", binary=True)
    return frame[0] > 0.5


def write_metric_map(dmap: DisturbanceMap, path: str) -> None:
    _write_frame(path, dmap.values[None], "metric", ("metric",), {"units": dmap.units})


def read_metric_map(path: str) -> DisturbanceMap:
    frame, header = _read_frame(path, "metric map", key="units")
    units = header["units"]
    return DisturbanceMap(frame[0], "log10_ratio" if units == "decibels" else units)


def write_delineation(delineation: BinaryDelineation, path: str) -> None:
    _write_frame(path, delineation.mask[None], "mask", ("mask",),
                 {"threshold": float(delineation.threshold)})


def read_delineation(path: str) -> BinaryDelineation:
    frame, header = _read_frame(path, "delineation", key="threshold", binary=True)
    threshold = header["threshold"]
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
        raise FormatError(f"{path}: delineation threshold must be a number, got {threshold!r}")
    return BinaryDelineation(frame[0] > 0.5, float(threshold))


def write_estimate(est: DistributionEstimate, mu_path: str, sigma_path: str) -> None:
    for path, frame in ((mu_path, est.mu), (sigma_path, est.sigma)):
        _write_frame(path, frame, est.timestamp, est.pol_names, {"units": "logit"})


def read_estimate(mu_path: str, sigma_path: str) -> DistributionEstimate:
    mu, mu_hdr = _read_frame(mu_path, "estimate", one_channel=False)
    sigma, sigma_hdr = _read_frame(sigma_path, "estimate", one_channel=False)
    (mu_time,), (sigma_time,) = mu_hdr["timestamps"], sigma_hdr["timestamps"]
    if mu.shape != sigma.shape or mu_time != sigma_time:
        raise FormatError(f"estimate containers disagree: mu {mu.shape} from {mu_time!r} "
                          f"vs sigma {sigma.shape} from {sigma_time!r}")
    return DistributionEstimate(mu, sigma, tuple(mu_hdr["pol_names"]), mu_time)
