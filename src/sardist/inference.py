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

Memory: the sweep holds the scene, its two float64 sums and a fixed amount
per worker, whatever the window count. One forward covers at most
`min(batch_size, _FORWARD_WINDOWS)` windows (a chunk), so its working set
stays small; the forward is bitwise batch-invariant, so the chunk size
changes no output bit. With `threads > 1` at most 2 x `threads` chunks are
in flight: each finished chunk is added to the sums, in window order,
before the next one is submitted. With one thread each chunk is added as
soon as its forward returns.

The first sweep in a process pins glibc's allocator (`native.pin_malloc`):
unpinned, a 3,249-window sweep trims freed forward buffers and faults them
back in about 220K times. With `threads > 1` the sweep caps OpenBLAS at one
thread while its workers run (`native.one_blas_thread`), so N workers use N
cores; meanwhile a GEMM on any other thread runs single-threaded too.
"""

from __future__ import annotations

import itertools
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .autodiff import no_grad
from .errors import ValidationError
from .model import Model
from .native import one_blas_thread, pin_malloc
from .preprocess import to_logit
from .raster import DistributionEstimate


#: most windows one forward covers (a chunk): the benchmark model (ff 512,
#: 2 layers, 9 frames) needs about 400 KiB of forward scratch per window. A
#: 3,249-window sweep on 2 workers (2-core Xeon, pinned allocator) peaked at
#: 61 MB RSS in 1.66-1.83 s at 16, 107 MB in 1.62-1.68 s at 64, and 53 MB in
#: 2.15 s at 8
_FORWARD_WINDOWS = 16


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


def sweep_estimate(model: Model, frames_logit: np.ndarray, cfg: SweepConfig | None = None,
                   stats: dict | None = None) -> DistributionEstimate:
    """Forecast the next frame per pixel from a (T, C, H, W) logit stack.

    `stats`, if given, receives the sweep's deterministic facts: `windows`,
    `windows_per_forward`, `max_chunks_in_flight` and `mallopt_pinned`."""
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
    windows = len(rows) * len(cols)
    per_forward = min(cfg.batch_size, _FORWARD_WINDOWS, windows)
    # fixed row-major order, cut into chunks as they are submitted, so no
    # list grows with the window count
    offsets = itertools.product(rows, cols)
    chunks = iter(lambda: list(itertools.islice(offsets, per_forward)), [])
    pinned = pin_malloc()

    def run_chunk(chunk: list[tuple[int, int]]):
        x = np.stack([frames_logit[:, :, r:r + size, ch:ch + size] for r, ch in chunk])
        with no_grad():   # per thread, so it is entered inside each worker
            mu, sigma = model.forward(x, train=False)
        return chunk, mu.data, sigma.data

    mu_sum = np.zeros((c, height, width), dtype=np.float64)
    sigma_sum = np.zeros((c, height, width), dtype=np.float64)

    def accumulate(chunk, mu_b, sigma_b) -> None:
        for i, (r, ch) in enumerate(chunk):
            mu_sum[:, r:r + size, ch:ch + size] += mu_b[i]
            sigma_sum[:, r:r + size, ch:ch + size] += sigma_b[i]

    if cfg.threads == 1:
        held = 1
        for chunk in chunks:
            accumulate(*run_chunk(chunk))
    else:
        limit, held = 2 * cfg.threads, 0
        with one_blas_thread(), ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            in_flight = deque()
            for chunk in chunks:
                if len(in_flight) == limit:
                    accumulate(*in_flight.popleft().result())
                in_flight.append(pool.submit(run_chunk, chunk))
                held = max(held, len(in_flight))
            while in_flight:
                accumulate(*in_flight.popleft().result())
    if stats is not None:
        stats.update(windows=windows, windows_per_forward=per_forward,
                     max_chunks_in_flight=held, mallopt_pinned=pinned)
    # the windows are a product grid, so a pixel's cover is its row's times its column's
    count = np.outer(_coverage(height, rows, size), _coverage(width, cols, size))
    mu = (mu_sum / count).astype(np.float32)
    sigma = (sigma_sum / count).astype(np.float32)
    return DistributionEstimate(mu, sigma)


def forecast(model: Model, values: np.ndarray, sweep: SweepConfig | None = None,
             stats: dict | None = None) -> DistributionEstimate:
    """Forecast the frame after a (T, C, H, W) backscatter stack in (0, 1)."""
    return sweep_estimate(model, to_logit(values), sweep, stats)
