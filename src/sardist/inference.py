"""Whole-scene forecasting by sweeping the model window over the image.

Window positions step by `stride` along each axis, with the final position
clamped so the last window ends exactly at the image edge. Every pixel is
covered by at least one window; per-pixel mu and sigma are the arithmetic
means over all covering windows.

Determinism: windows are enumerated row-major and cut into chunks of at
most `min(batch_size, _FORWARD_WINDOWS)` windows, chunk k holding windows
[k * per_forward, (k + 1) * per_forward). `native.in_order` forwards the
chunks under `no_grad` on min(`threads`, chunks) threads (one thread: the
calling thread, one chunk at a time) and hands them back to the calling
thread in chunk order, which adds them into the sums. So no bit depends on
the batch size, the thread count or which thread ran a chunk, and one thread
is the same path. A failed forward stops every thread.

Memory: the sweep holds the scene, its two float64 sums and at most
2 x `threads` chunks forwarded and not yet summed (a bound of `threads`
measured a fifth slower), whatever the window count. The forward is
bitwise batch-invariant, so the chunk size changes no output bit.

The first sweep in a process pins glibc's allocator (`native.pin_malloc`):
unpinned, a 3,249-window sweep trims freed forward buffers and faults them
back in about 220K times. Pinned, the process keeps all it frees, so each sweep
first hands the free heap back (`native.trim_malloc`). With `threads > 1` it
caps OpenBLAS at one thread while its workers run (`native.one_blas_thread`),
so N workers use N cores; meanwhile any other thread's GEMM runs single-threaded.
"""

from __future__ import annotations

from contextlib import closing, nullcontext
from dataclasses import dataclass

import numpy as np

from . import native
from .autodiff import no_grad
from .errors import ValidationError, bound, check_fields, finite_array
from .model import Model
from .native import one_blas_thread, pin_malloc, trim_malloc
from .preprocess import to_logit
from .raster import DistributionEstimate, RasterStack


#: most windows one forward covers (a chunk): the benchmark model (ff 512,
#: 2 layers, 9 frames) needs about 400 KiB of forward scratch per window. A
#: 3,249-window sweep on 2 workers (2-core Xeon, pinned allocator) peaked at
#: 61 MB RSS in 1.66-1.83 s at 16, 107 MB in 1.62-1.68 s at 64, and 53 MB in
#: 2.15 s at 8
_FORWARD_WINDOWS = 16


@dataclass(frozen=True)
class SweepConfig:
    stride: int = bound(4, ">= 1")
    batch_size: int = bound(64, ">= 1")
    threads: int = bound(1, ">= 1")

    __post_init__ = check_fields


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
    """Forecast the next frame per pixel from a finite (T, C, H, W) logit stack.

    `stats`, if given, receives the sweep's deterministic facts: `windows`,
    `windows_per_forward` and `mallopt_pinned`."""
    cfg = cfg or SweepConfig()
    frames_logit = finite_array(frames_logit, "frames", "TCHW", plural=True)
    t, c, height, width = frames_logit.shape
    size = model.cfg.input_size
    if cfg.stride > size:
        # a stride past the window would leave coverage gaps
        raise ValidationError(f"stride {cfg.stride} exceeds window {size}")
    rows = window_positions(height, size, cfg.stride)
    cols = window_positions(width, size, cfg.stride)
    windows = len(rows) * len(cols)
    per_forward = min(cfg.batch_size, _FORWARD_WINDOWS, windows)
    chunks = -(-windows // per_forward)
    pinned = pin_malloc()
    trim_malloc()   # start the pinned working set on returned pages
    mu_sum = np.zeros((c, height, width), dtype=np.float64)
    sigma_sum = np.zeros((c, height, width), dtype=np.float64)

    def forward(k: int) -> tuple:
        """Chunk k, windows [k * per_forward, (k + 1) * per_forward) row-major, and
        its mu and sigma."""
        chunk = [(rows[i // len(cols)], cols[i % len(cols)])
                 for i in range(k * per_forward, min((k + 1) * per_forward, windows))]
        x = np.stack([frames_logit[:, :, r:r + size, ch:ch + size] for r, ch in chunk])
        with no_grad():   # per thread, so it is entered on the thread that forwards
            mu, sigma = model.forward(x, train=False)
        return chunk, mu.data, sigma.data

    with (one_blas_thread() if cfg.threads > 1 else nullcontext(),
          closing(native.in_order(forward, chunks, cfg.threads)) as forwarded):
        for chunk, mu, sigma in forwarded:   # in window order, on this thread
            for i, (r, ch) in enumerate(chunk):
                mu_sum[:, r:r + size, ch:ch + size] += mu[i]
                sigma_sum[:, r:r + size, ch:ch + size] += sigma[i]
            mu = sigma = None   # hold no chunk during the next forward
    if stats is not None:
        stats.update(windows=windows, windows_per_forward=per_forward, mallopt_pinned=pinned)
    # the windows are a product grid, so a pixel's cover is its row's times its column's
    count = np.outer(_coverage(height, rows, size), _coverage(width, cols, size))
    return DistributionEstimate(mu_sum / count, sigma_sum / count)   # it casts to float32


def forecast(model: Model, stack: RasterStack, sweep: SweepConfig | None = None,
             drop_last: int = 0, stats: dict | None = None) -> DistributionEstimate:
    """Forecast the frame after the first T - `drop_last` frames of `stack`, stamped with
    the last of them, their digest and the stack's pol names: what a scorer checks."""
    if drop_last < 0:
        raise ValidationError(f"drop-last must be >= 0, got {drop_last}")
    seen = max(stack.num_steps - drop_last, 0)
    if seen < 2:
        raise ValidationError(f"only {seen} frames left after --drop-last")
    est = sweep_estimate(model, to_logit(stack.values[:seen]), sweep, stats)
    est.timestamp, est.source = stack.timestamps[seen - 1], stack.digest(seen)
    est.pol_names = stack.pol_names
    return est
