"""Whole-scene forecasting by sweeping the model window over the image.

Window positions step by `stride` along each axis, with the final position
clamped so the last window ends exactly at the image edge. Every pixel is
covered by at least one window; per-pixel mu and sigma are the arithmetic
means over all covering windows.

Determinism: windows are enumerated row-major and accumulated in that fixed
order, so the result is independent of batch size and of how many worker
threads computed the forward passes (threads only parallelize the pure
forward computations; accumulation stays serial and ordered). The forward
passes run under `no_grad`, so no backward graph is built or kept.

Threads: with `threads > 1` the sweep caps numpy's OpenBLAS at one thread
while its workers run, so N workers use N cores, then restores the previous
count; overlapping sweeps share the cap until the last leaves. The cap is
process-wide: meanwhile a GEMM on any other thread runs single-threaded too
(sardist runs none). Another BLAS build is left alone. Bits do not change.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .autodiff import no_grad
from .errors import ValidationError
from .model import Model
from .preprocess import to_logit
from .raster import DistributionEstimate


@dataclass(frozen=True)
class SweepConfig:
    stride: int = 4
    batch_size: int = 64
    threads: int = 1

    def validate(self) -> None:
        if self.stride < 1:
            raise ValidationError(f"stride must be >= 1, got {self.stride}")
        if self.batch_size < 1:
            raise ValidationError(f"batch size must be >= 1, got {self.batch_size}")
        if self.threads < 1:
            raise ValidationError(f"threads must be >= 1, got {self.threads}")


def _find_openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_-*.so")):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = (lib.scipy_openblas_get_num_threads64_,
                         lib.scipy_openblas_set_num_threads64_)
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        return get, set_
    return None


_BLAS = _find_openblas()
_blas_cap_lock = threading.Lock()
_blas_cap = {"depth": 0, "saved": 1}


@contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS at one thread; the last overlapping caller restores it."""
    if _BLAS is None:
        yield
        return
    get, set_ = _BLAS
    with _blas_cap_lock:
        if _blas_cap["depth"] == 0:
            _blas_cap["saved"] = get()
            set_(1)
        _blas_cap["depth"] += 1
    try:
        yield
    finally:
        with _blas_cap_lock:
            _blas_cap["depth"] -= 1
            if _blas_cap["depth"] == 0:
                set_(_blas_cap["saved"])


def window_positions(extent: int, window: int, stride: int) -> list[int]:
    """Start offsets {0, stride, 2*stride, ...} with the last clamped to extent-window."""
    if window > extent:
        raise ValidationError(f"window {window} larger than extent {extent}")
    last = extent - window
    positions = list(range(0, last + 1, stride))
    if positions[-1] != last:
        positions.append(last)
    return positions


def _coverage(extent: int, positions: list[int], window: int) -> np.ndarray:
    """How many windows starting at `positions` cover each index of one axis."""
    cover = np.zeros(extent, dtype=np.int64)
    for p in positions:
        cover[p:p + window] += 1
    return cover


def sweep_estimate(model: Model, frames_logit: np.ndarray,
                   cfg: SweepConfig | None = None) -> DistributionEstimate:
    """Forecast the next frame per pixel from a (T, C, H, W) logit stack."""
    cfg = cfg or SweepConfig()
    cfg.validate()
    frames_logit = np.asarray(frames_logit, dtype=np.float32)
    if frames_logit.ndim != 4:
        raise ValidationError(f"expected (T,C,H,W), got {frames_logit.shape}")
    t, c, height, width = frames_logit.shape
    size = model.cfg.input_size
    if cfg.stride > size:
        # a stride past the window would leave coverage gaps
        raise ValidationError(f"stride {cfg.stride} exceeds window {size}")
    rows = window_positions(height, size, cfg.stride)
    cols = window_positions(width, size, cfg.stride)
    offsets = [(r, ch) for r in rows for ch in cols]   # fixed row-major order

    batches = [offsets[i:i + cfg.batch_size] for i in range(0, len(offsets), cfg.batch_size)]

    def run_batch(batch: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
        x = np.stack([frames_logit[:, :, r:r + size, ch:ch + size] for r, ch in batch])
        with no_grad():   # per thread, so it is entered inside each worker
            mu, sigma = model.forward(x, train=False)
        return mu.data, sigma.data

    if cfg.threads == 1:
        results = [run_batch(b) for b in batches]
    else:
        with _one_blas_thread(), ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(run_batch, batches))

    mu_sum = np.zeros((c, height, width), dtype=np.float64)
    sigma_sum = np.zeros((c, height, width), dtype=np.float64)
    for batch, (mu_b, sigma_b) in zip(batches, results):
        for i, (r, ch) in enumerate(batch):
            mu_sum[:, r:r + size, ch:ch + size] += mu_b[i]
            sigma_sum[:, r:r + size, ch:ch + size] += sigma_b[i]
    # the windows are a product grid, so a pixel's cover is its row's times its column's
    count = np.outer(_coverage(height, rows, size), _coverage(width, cols, size))
    mu = (mu_sum / count).astype(np.float32)
    sigma = (sigma_sum / count).astype(np.float32)
    return DistributionEstimate(mu, sigma)


def forecast(model: Model, values: np.ndarray,
             sweep: SweepConfig | None = None) -> DistributionEstimate:
    """Forecast the frame after a (T, C, H, W) backscatter stack in (0, 1)."""
    return sweep_estimate(model, to_logit(values), sweep)
