"""In-memory raster types and the binary container.

A container is little-endian: bytes 0..3 the magic ``RTS0``, 4..7 the uint32
length N of a UTF-8 JSON header (sorted keys, no whitespace) at 8..8+N, then
float32 values. `write_container` and `read_container` frame RTS stacks and
checkpoints (`model.save_checkpoint`) alike; the reader checks the payload
length against the file size, then reads the payload into one array.

An RTS header always carries ``shape`` ([T, C, H, W]), ``dtype`` ("f32le"),
``order`` ("TCHW"), ``timestamps`` and ``pol_names``, and its payload is
T*C*H*W values in C order; writers may add extra keys (metric maps add
``units``). Identical content yields identical files.

Every artifact the package writes goes through `write_file`, which writes a
temporary sibling and then replaces the target, so a failed write leaves the
previous file as it was. JSON sidecars share `write_json` and `read_json`.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import InitVar, dataclass
from itertools import chain

import numpy as np

from .errors import FormatError, ShapeError, ValidationError, _shown, finite_array

MAGIC = b"RTS0"
DTYPE_TAG = "f32le"
ORDER_TAG = "TCHW"

#: units accepted on DisturbanceMap; "log10_ratio" maps carry raw log10-ratio
#: values (multiply by 10 only when displaying as dB)
METRIC_UNITS = ("standard_deviations", "log10_ratio")


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
        self.timestamps = list(self.timestamps)
        self.pol_names = tuple(self.pol_names)
        self.validate(unit_range)

    def validate(self, unit_range: bool = True) -> None:
        """Check every invariant, casting values to float32; `unit_range=False` skips (0,1)."""
        self.values = v = finite_array(self.values, "stack", "TCHW")
        t, c, h, w = v.shape
        if t < 2:
            raise ValidationError(f"stack needs at least 2 frames, got {t}")
        if c != 2:
            raise ShapeError(f"stack must have exactly 2 polarization channels, got {c}")
        if h < 1 or w < 1:
            raise ShapeError(f"empty spatial extent {h}x{w}")
        if len(self.timestamps) != t:
            raise ValidationError(f"{len(self.timestamps)} timestamps for {t} frames")
        for a, b in zip(self.timestamps, self.timestamps[1:]):
            if not a < b:
                raise ValidationError(f"timestamps not strictly increasing: {a!r} >= {b!r}")
        if len(self.pol_names) != 2:
            raise ValidationError(f"expected 2 pol names, got {self.pol_names!r}")
        if unit_range and (np.any(v <= 0.0) or np.any(v >= 1.0)):
            raise ValidationError("backscatter values must lie strictly inside (0,1); "
                                  f"found range [{float(v.min())}, {float(v.max())}]")

    @property
    def num_steps(self) -> int:
        return self.values.shape[0]

    def digest(self, frames: int) -> str:
        """SHA-256 of the first `frames` frames: float32 bytes, then timestamps and pol names."""
        return _sha256(np.ascontiguousarray(self.values[:frames]),   # no bytes copy
                       json.dumps([self.timestamps[:frames], self.pol_names]).encode("utf-8"))


@dataclass
class DistributionEstimate:
    """Per-pixel forecast of the next frame: mean and standard deviation.

    Both arrays have shape (C, H, W) and live in logit space. sigma is
    strictly positive. timestamp names the last frame the forecast saw and
    source the digest of every frame it saw (`RasterStack.digest`).
    """

    mu: np.ndarray
    sigma: np.ndarray
    pol_names: tuple[str, str] = ("VV", "VH")
    timestamp: str = "forecast"
    source: str = ""

    def __post_init__(self) -> None:
        self.mu = finite_array(self.mu, "mu", "CHW")
        self.sigma = finite_array(self.sigma, "sigma", "CHW")
        if self.mu.shape[0] != 2:
            raise ShapeError(f"mu must be (2,H,W), got {self.mu.shape}")
        if self.sigma.shape != self.mu.shape:
            raise ShapeError(f"sigma shape {self.sigma.shape} != mu shape {self.mu.shape}")
        if not np.all(self.sigma > 0):
            raise ValidationError("sigma must be strictly positive")


@dataclass
class DisturbanceMap:
    """Single-channel non-negative disturbance metric over the scene."""

    values: np.ndarray
    units: str

    def __post_init__(self) -> None:
        self.values = finite_array(self.values, "metric map", "HW")
        if self.units not in METRIC_UNITS:
            raise ValidationError(f"unknown units {self.units!r}, expected one of {METRIC_UNITS}")
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
# whole-file writes, digests and JSON sidecars
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


def _sha256(*buffers) -> str:
    """Hex SHA-256 of the contiguous `buffers`, one after another."""
    import hashlib   # here, as it loads OpenSSL: 3 MB of RSS that only scoring needs
    sha = hashlib.sha256()
    for buffer in buffers:
        sha.update(buffer)
    return sha.hexdigest()


def write_json(path: str, obj) -> None:
    """The one sidecar format: 2-space indent, sorted keys, trailing newline."""
    write_file(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")])


def read_json(path: str):
    """Parse a UTF-8 JSON file; FormatError naming `path` if it does not decode."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # decode errors alike; nesting too deep
        raise FormatError(f"{path}: not valid UTF-8 JSON: {exc}") from None


# ---------------------------------------------------------------------------
# the container framing, shared by RTS stacks and checkpoints
# ---------------------------------------------------------------------------

def write_container(path: str, header: dict, payload) -> None:
    """Write `header` (sorted compact JSON) and the float32 `payload` chunks, atomically."""
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_file(path, chain([MAGIC, np.uint32(len(raw)).tobytes(), raw], payload))


def read_container(path: str, count) -> tuple[dict, np.ndarray]:
    """(header, flat float32 payload) of a container; `count(header)` checks the header
    and returns how many values the payload must hold, which the file size must match."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 8:
            raise FormatError(f"{path}: truncated container ({size} bytes)")
        head = fh.read(8)
        if head[:4] != MAGIC:
            raise FormatError(f"{path}: bad magic {head[:4]!r}")
        length = int(np.frombuffer(head[4:], dtype="<u4")[0])
        if size < 8 + length:
            raise FormatError(f"{path}: header extends past end of file")
        try:
            header = json.loads(fh.read(length).decode("utf-8"))
        except (ValueError, RecursionError) as exc:   # RecursionError: nested too deep
            raise FormatError(f"{path}: unreadable header: {exc}") from exc
        if not isinstance(header, dict):
            raise FormatError(f"{path}: header is not a JSON object")
        n = count(header)
        if size - 8 - length != 4 * n:
            raise FormatError(f"{path}: payload is {size - 8 - length} bytes, expected {4 * n}")
        values = np.empty(n, dtype="<f4")
        if fh.readinto(values) != 4 * n:
            raise FormatError(f"{path}: payload shrank while it was read")
    return header, values


def _stack_count(path: str, header: dict) -> int:
    """Values in an RTS payload, once its header holds every key in valid form."""
    for key in ("shape", "dtype", "order", "timestamps", "pol_names"):
        if key not in header:
            raise FormatError(f"{path}: header missing key {key!r}")
    for key, tag in (("dtype", DTYPE_TAG), ("order", ORDER_TAG)):
        if header[key] != tag:
            raise FormatError(f"{path}: unsupported {key} {header[key]!r}")
    shape = header["shape"]
    if not (isinstance(shape, list) and len(shape) == 4
            and all(type(s) is int and s >= 1 for s in shape)):
        raise FormatError(f"{path}: bad shape {shape!r}")
    for key in ("timestamps", "pol_names"):
        if not (isinstance(header[key], list) and all(isinstance(n, str) for n in header[key])):
            raise FormatError(f"{path}: header {key!r} is not a list of strings")
    if len(header["timestamps"]) != shape[0]:
        raise FormatError(f"{path}: {len(header['timestamps'])} timestamps for {shape[0]} frames")
    return int(np.prod(shape, dtype=object))   # exact: an int64 product can wrap to 0


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
    write_container(path, header, [np.ascontiguousarray(values, dtype="<f4")])


def read_array(path: str) -> tuple[np.ndarray, dict]:
    """Read an RTS container; returns (values, header). Structural checks only."""
    header, values = read_container(path, lambda header: _stack_count(path, header))
    return values.reshape(header["shape"]), header


# ---------------------------------------------------------------------------
# typed wrappers
# ---------------------------------------------------------------------------

def _typed(paths: list[str], make, *args, **kwargs):
    """make(*args, **kwargs), the type a reader returns; a ValidationError from its checks,
    which know no file, gets `paths` before its message."""
    try:
        return make(*args, **kwargs)
    except ValidationError as exc:
        raise type(exc)(f"{', '.join(paths)}: {exc}") from None


def write_stack(stack: RasterStack, path: str) -> None:
    stack.validate()
    write_array(path, stack.values, stack.timestamps, stack.pol_names)


def read_stack(path: str, allow_raw: bool = False) -> RasterStack:
    """Read a backscatter stack and run every RasterStack check.

    allow_raw skips only the strict (0,1) range check (escape hatch for data
    that has not been clipped yet).
    """
    values, header = read_array(path)
    return _typed([path], RasterStack, values, header["timestamps"], header["pol_names"],
                  unit_range=not allow_raw)


def _read_frame(path: str, what: str, keys: tuple[str, ...] = (),
                one_channel: bool = True, binary: bool = False) -> tuple[np.ndarray, dict]:
    """(C, H, W) frame and header of a [1, C, H, W] container of kind `what`;
    C must be 1 if `one_channel`, header `keys` must exist, values must be 0/1 if `binary`."""
    values, header = read_array(path)
    if values.shape[0] != 1 or (one_channel and values.shape[1] != 1):
        layout = "[1,1,H,W]" if one_channel else "[1,C,H,W]"
        raise FormatError(f"{path}: {what} container must be {layout}, got {values.shape}")
    for key in keys:
        if key not in header:
            raise FormatError(f"{path}: {what} header missing {key!r}")
    if binary and not np.all((values == 0.0) | (values == 1.0)):
        raise ValidationError(f"{path}: mask values must be exactly 0.0 or 1.0")
    return values[0], header


def write_mask(mask: np.ndarray, path: str) -> None:
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ShapeError(f"mask must be 2-d, got {mask.shape}")
    write_array(path, mask[None, None], ["mask"], ("mask",))


def read_mask(path: str) -> np.ndarray:
    frame, _ = _read_frame(path, "mask", binary=True)
    return frame[0] > 0.5


def write_metric_map(dmap: DisturbanceMap, path: str) -> None:
    write_array(path, dmap.values[None, None], ["metric"], ("metric",), {"units": dmap.units})


def read_metric_map(path: str) -> DisturbanceMap:
    frame, header = _read_frame(path, "metric map", ("units",))
    return _typed([path], DisturbanceMap, frame[0], header["units"])


def write_delineation(delineation: BinaryDelineation, path: str) -> None:
    write_array(path, delineation.mask[None, None], ["mask"], ("mask",),
                {"threshold": float(delineation.threshold)})


def read_delineation(path: str) -> BinaryDelineation:
    frame, header = _read_frame(path, "delineation", ("threshold",), binary=True)
    threshold = header["threshold"]
    if type(threshold) not in (int, float) or abs(threshold) >= 2 ** 1024:   # float() overflows
        raise FormatError(f"{path}: delineation threshold must be a number in float range, "
                          f"got {_shown(threshold)}")
    return _typed([path], BinaryDelineation, frame[0] > 0.5, float(threshold))


def write_estimate(est: DistributionEstimate, mu_path: str, sigma_path: str) -> None:
    """Write mu and sigma; both headers hold `pair`, the SHA-256 of the two payloads."""
    pair = _sha256(*(np.ascontiguousarray(a, dtype="<f4") for a in (est.mu, est.sigma)))
    extra = {"units": "logit", "source": est.source, "pair": pair}
    for path, frame in ((mu_path, est.mu), (sigma_path, est.sigma)):
        write_array(path, frame[None], [est.timestamp], est.pol_names, extra)


def read_estimate(mu_path: str, sigma_path: str) -> DistributionEstimate:
    mu, mu_hdr = _read_frame(mu_path, "estimate", ("source", "pair"), one_channel=False)
    sigma, sigma_hdr = _read_frame(sigma_path, "estimate", ("source", "pair"), one_channel=False)
    (mu_time,), (sigma_time,) = mu_hdr["timestamps"], sigma_hdr["timestamps"]
    sources = mu_hdr["source"], sigma_hdr["source"]
    if mu.shape != sigma.shape or mu_time != sigma_time or sources[0] != sources[1]:
        raise FormatError(f"estimate containers disagree: mu {mu.shape} from {mu_time!r} "
                          f"vs sigma {sigma.shape} from {sigma_time!r}, sources {sources}")
    if not isinstance(sources[0], str):
        raise FormatError(f"{mu_path}: estimate header 'source' is not a string")
    est = _typed([mu_path, sigma_path], DistributionEstimate, mu, sigma,
                 tuple(mu_hdr["pol_names"]), mu_time, sources[0])
    if not mu_hdr["pair"] == sigma_hdr["pair"] == _sha256(mu, sigma):
        raise FormatError(f"{mu_path}, {sigma_path}: mu and sigma are not one estimate's pair")
    return est
