"""Backscatter preprocessing: clipping, logit transform, TV despeckling.

Despeckling is homomorphic: intensities go to dB (10*log10), where the
multiplicative speckle becomes additive, a total-variation denoiser runs in
that domain, and the result maps back through 10^(y/10) and a final clip.

The denoiser minimizes the anisotropic ROF objective

    0.5 * ||u - f||^2 + weight * sum(|du/dx| + |du/dy|)

with a Chambolle-style projected dual iteration (fixed iteration count,
fixed step). The solver is flip-equivariant: mirroring a slice mirrors its
result byte for byte. A flip only negates forward differences, the
projection divides by 1 + step*|g|, and IEEE rounding is symmetric in sign,
so each iterate of the mirrored slice is the mirror of the original's.
Averaging the four flip orientations would thus add four equal solves a and
scale by a quarter, which returns a exactly (both scalings are powers of
two) unless 4a overflows, i.e. |a| > 4.49e307, far outside the [-40, 0] dB
that `clip_unit` allows; so each slice is solved once.

Layout of the solve. Each run of whole slices (at most `_CHUNK_PX` pixels,
at least one slice) goes through the whole chain alone: float64 cast, dB
(despeckling only), solve, back, cast into the output. Runs are dealt
round-robin to workers, the calling thread one: at most the runs, the
usable cores and as many as fit their buffers in two float32 copies of the
stack. Each worker's buffers start on a 64-byte boundary (where the heap
put them moved a solve's time by up to 25 %); numpy drops the GIL inside
each pass. `despeckle_stacks` solves consecutive stacks of one frame shape
in one call. An iteration makes 11 passes over 16n floats. It scales g by
step before t = 1 + |g|, a 2n pass fewer than scaling |g|, with the same
bits for step > 0: abs only clears the sign bit and IEEE rounding is
symmetric in sign, so |g*step| == |g|*step.

Zero-edge invariant. The x dual is 0 on every slice's last column and the y
dual on its last row, as are the forward differences there. The
differences and the divergence therefore run over the flat buffer with unit
(x) or row (y) shift: an x difference that wraps from a row end into the
next row, or a y difference that crosses into the next slice, lands on such
an edge and is reset to 0, and a backward difference at a row or slice
start subtracts the previous edge's 0. Slices never exchange values, and
every other step is elementwise, so no bit depends on the runs, the
workers or which stacks share a call.

Descent safeguard, per slice. After the iterations each slice compares its
objective with that of its input and comes back unchanged if it did not
drop (in practice only when it holds a NaN).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import native
from .errors import ValidationError, bound, check_fields
from .raster import RasterStack


#: clip margin of every (0, 1) -> logit or dB transform in the package
CLIP_EPS = 1e-4


@dataclass(frozen=True)
class PreprocessConfig:
    tv_weight_db: float = bound(1.5, ">= 0")
    tv_iterations: int = bound(50, ">= 1")
    tv_step: float = bound(0.25, "(0, 0.25]")

    __post_init__ = check_fields


def clip_unit(x: np.ndarray) -> np.ndarray:
    """Clip into [CLIP_EPS, 1 - CLIP_EPS] so logit and log10 stay finite."""
    return np.clip(x, CLIP_EPS, 1.0 - CLIP_EPS)


def logit(x: np.ndarray) -> np.ndarray:
    """log(x / (1-x)) for x strictly inside (0, 1)."""
    x = np.asarray(x)
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise ValidationError("logit input must lie strictly inside (0,1); clip first")
    return np.log(x) - np.log1p(-x)


def to_logit(values: np.ndarray) -> np.ndarray:
    """Backscatter in (0, 1) to the model's logit space, clipped by CLIP_EPS."""
    return logit(clip_unit(values))


def inverse_logit(y: np.ndarray) -> np.ndarray:
    """Numerically stable 1 / (1 + exp(-y)), saturating strictly inside (0,1).

    Beyond |y| ~ 37 the exact value rounds to 0.0 or 1.0 in float64; the
    result is clamped to the nearest representable interior values so logit
    stays applicable to anything this returns.
    """
    y = np.asarray(y)
    out = np.empty_like(y, dtype=np.result_type(y.dtype, np.float32))
    pos = y >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-y[pos]))
    ey = np.exp(y[~pos])
    out[~pos] = ey / (1.0 + ey)
    tiny = np.finfo(out.dtype).smallest_subnormal
    return np.clip(out, tiny, np.nextafter(out.dtype.type(1.0), out.dtype.type(0.0)))


# ---------------------------------------------------------------------------
# anisotropic TV on stacked 2-d slices
# ---------------------------------------------------------------------------

#: most pixels one solve covers (at least one slice): its nine float64
#: buffers (about 1.2 MB at this size) then stay in a core's L2 cache
_CHUNK_PX = 1 << 14

#: most pixels `despeckle_stacks` solves in one call, so its memory does not grow
_GROUP_PX = 1 << 16


def _forward_diff(u: np.ndarray, width: int, plane: int, out: np.ndarray):
    """A call writing the x and y forward differences of flat stacked slices u into
    out[0], out[1], 0 on each slice's trailing column (x) and row (y); views built once."""
    parts = ((u[1:], u[:-1], out[0, :-1], out[0, width - 1::width]),
             (u[width:], u[:-width], out[1, :-width], out[1].reshape(-1, plane)[:, -width:]))

    def run() -> None:
        for a, b, diff, edge in parts:
            np.subtract(a, b, out=diff)
            edge.fill(0.0)
    return run


def _dual_div(p: np.ndarray, width: int, out: np.ndarray, scratch: np.ndarray):
    """A call writing into out the divergence, adjoint to `_forward_diff`, of
    p = (2, width + n): `width` leading zeros, then px and py, 0 on the trailing edges."""
    xa, xb, ya, yb = p[0, width:], p[0, width - 1:-1], p[1, width:], p[1, :-width]
    return lambda: np.add(np.subtract(xa, xb, out=out), np.subtract(ya, yb, out=scratch), out=out)


def _objectives(u: np.ndarray, f: np.ndarray, weight: float, width: int, plane: int,
                scratch: np.ndarray) -> np.ndarray:
    """Per-slice 0.5*||u-f||^2 + weight*TV(u) of flat stacked slices."""
    _forward_diff(u, width, plane, scratch)()
    np.abs(scratch, out=scratch)
    tv = scratch.reshape(2, -1, plane).sum(axis=2)
    np.subtract(u, f, out=scratch[0])
    np.square(scratch[0], out=scratch[0])
    return 0.5 * scratch[0].reshape(-1, plane).sum(axis=1) + weight * (tv[0] + tv[1])


def tv_objective(u: np.ndarray, f: np.ndarray, weight: float) -> float:
    """0.5*||u-f||^2 + weight * anisotropic TV, summed over all slices."""
    u = np.ascontiguousarray(u, dtype=np.float64)
    f = np.ascontiguousarray(f, dtype=np.float64)
    height, width = u.shape[-2:]
    rows = _objectives(u.reshape(-1), f.reshape(-1), weight, width, height * width,
                       np.empty((2, u.size)))
    return float(np.sum(rows))


def _aligned_empty(n: int) -> np.ndarray:
    """n uninitialised float64s starting on a 64-byte (cache-line) boundary."""
    raw = np.empty(n + 8)
    lead = -raw.ctypes.data % 64 // 8
    return raw[lead:lead + n]


def _tv_solve(f: np.ndarray, u: np.ndarray, weight: float, iterations: int, step: float,
              width: int, plane: int, work: np.ndarray) -> None:
    """Dual-projection solve of every flat slice of f into u, in place.

    work is flat scratch of at least 7 * f.size + 2 * width floats. A slice
    whose objective did not drop (a NaN in it, say) comes back as its input."""
    if weight == 0.0:
        np.copyto(u, f)
        return
    n = f.size
    fw, p, g, t = np.split(work[:7 * n + 2 * width], np.cumsum((n, 2 * n + 2 * width, 2 * n)))
    p, g, t = p.reshape(2, -1), g.reshape(2, n), t.reshape(2, n)
    np.divide(f, weight, out=fw)
    p.fill(0.0)
    pxy = p[:, width:]
    div, diff = _dual_div(p, width, u, t[0]), _forward_diff(u, width, plane, g)
    for _ in range(iterations):
        div()
        np.subtract(u, fw, out=u)
        diff()
        np.multiply(g, step, out=g)
        np.abs(g, out=t)   # |g*step| == |g|*step exactly for step > 0
        np.add(t, 1.0, out=t)
        np.add(pxy, g, out=pxy)
        np.divide(pxy, t, out=pxy)
    div()
    np.multiply(u, weight, out=u)
    np.subtract(f, u, out=u)
    worse = ~(_objectives(u, f, weight, width, plane, g)
              <= _objectives(f, f, weight, width, plane, g))
    np.copyto(u.reshape(-1, plane), f.reshape(-1, plane), where=worse[:, None])


def _solve_runs(src: np.ndarray, dst: np.ndarray, weight: float, iterations: int,
                step: float, in_db: bool) -> None:
    """Solve the (..., H, W) slices of src into dst, in dB if in_db (see Layout)."""
    if src.ndim < 2 or src.size == 0:
        raise ValidationError(f"need a non-empty stack of 2-d slices, got shape {src.shape}")
    width, plane = src.shape[-1], src.shape[-2] * src.shape[-1]
    src, dst = src.reshape(-1), dst.reshape(-1)
    solve_px = min(src.size, max(1, _CHUNK_PX // plane) * plane)
    runs = [slice(lo, min(lo + solve_px, src.size)) for lo in range(0, src.size, solve_px)]
    sizes = (solve_px, solve_px, 7 * solve_px + 2 * width)   # a worker's f, u and scratch
    # a float64 per pixel is two float32 stacks; `_aligned_empty` adds 8 to each buffer
    workers = min(len(runs), native.usable_cores(), max(1, src.size // (sum(sizes) + 24)))

    def work(first: int) -> None:
        f, u, scratch = map(_aligned_empty, sizes)
        for run in runs[first::workers]:
            fr, ur = f[:run.stop - run.start], u[:run.stop - run.start]
            fr[...] = src[run]
            if in_db:
                np.log10(np.clip(fr, CLIP_EPS, 1.0 - CLIP_EPS, out=fr), out=fr)
                fr *= 10.0
            _tv_solve(fr, ur, weight, iterations, step, width, plane, scratch)
            if in_db:
                ur /= 10.0
                np.clip(np.power(10.0, ur, out=ur), CLIP_EPS, 1.0 - CLIP_EPS, out=ur)
            dst[run] = ur

    with ThreadPoolExecutor(max(1, workers - 1)) as pool:   # starts no thread for 1 worker
        others = pool.map(work, range(1, workers))
        work(0)
        list(others)


def tv_denoise(f: np.ndarray, weight: float, iterations: int = 50,
               step: float = 0.25) -> np.ndarray:
    """Flip-equivariant anisotropic TV denoise of (..., H, W) slices; step > 0."""
    out = _aligned_empty(np.size(f)).reshape(np.shape(f))
    _solve_runs(np.asarray(f), out, weight, iterations, step, in_db=False)
    return out


def despeckle_values(values: np.ndarray, cfg: PreprocessConfig | None = None) -> np.ndarray:
    """Despeckle (..., H, W) backscatter intensities in (0,1) into float32."""
    cfg = cfg or PreprocessConfig()
    out = np.empty(np.shape(values), np.float32)
    _solve_runs(np.asarray(values), out, cfg.tv_weight_db, cfg.tv_iterations, cfg.tv_step, True)
    return out


def despeckle_stack(stack: RasterStack, cfg: PreprocessConfig | None = None) -> RasterStack:
    """Despeckle every frame/polarization of a stack independently."""
    out = despeckle_values(stack.values, cfg)
    return RasterStack(out, list(stack.timestamps), stack.pol_names)


def despeckle_stacks(stacks: Iterable[RasterStack],
                     cfg: PreprocessConfig | None = None) -> Iterator[RasterStack]:
    """`despeckle_stack` of each stack in order; consecutive stacks of one frame shape
    share a call of at most `_GROUP_PX` pixels (or one stack), taken from `stacks` lazily."""
    group: list[RasterStack] = []
    for stack in chain(stacks, [None]):
        if group and (stack is None or stack.values.shape[1:] != group[0].values.shape[1:]
                      or sum(s.values.size for s in group) + stack.values.size > _GROUP_PX):
            out = despeckle_values(np.concatenate([s.values for s in group]), cfg)
            ends = np.cumsum([s.num_steps for s in group])[:-1]
            # copies, so a stack the caller still holds does not keep its group alive
            yield from (RasterStack(v.copy(), s.timestamps, s.pol_names)
                        for s, v in zip(group, np.split(out, ends)))
            group, out = [], None
        group.append(stack)
