"""Backscatter preprocessing: clipping, logit transform, TV despeckling.

Despeckling is homomorphic: intensities go to dB (10*log10), where the
multiplicative speckle becomes additive, a total-variation denoiser runs in
that domain, and the result maps back through 10^(y/10) and a final clip.

The denoiser minimizes the anisotropic ROF objective

    0.5 * ||u - f||^2 + weight * sum(|du/dx| + |du/dy|)

with a Chambolle-style projected dual iteration (fixed iteration count,
fixed step). The anisotropic penalty is exactly invariant under axis flips,
and the solver output is additionally symmetrized over the four axis-flip
orientations, so despeckling commutes with horizontal/vertical mirroring by
construction rather than approximately. A descent safeguard returns the
input unchanged in the (pathological) case the objective failed to drop;
convexity of the objective then guarantees the averaged output descends too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .raster import RasterStack


#: clip margin of every (0, 1) -> logit or dB transform in the package
CLIP_EPS = 1e-4


@dataclass(frozen=True)
class PreprocessConfig:
    tv_weight_db: float = 1.5
    tv_iterations: int = 50
    tv_step: float = 0.25

    def validate(self) -> None:
        if self.tv_weight_db < 0:
            raise ValidationError(f"tv weight must be >= 0, got {self.tv_weight_db}")
        if self.tv_iterations < 1:
            raise ValidationError(f"tv iterations must be >= 1, got {self.tv_iterations}")
        if not 0 < self.tv_step <= 0.25:
            raise ValidationError(f"tv step must be in (0, 0.25], got {self.tv_step}")


def clip_unit(x: np.ndarray, eps: float = CLIP_EPS) -> np.ndarray:
    """Clip into [eps, 1-eps] so logit and log10 stay finite."""
    if not 0 < eps < 0.5:
        raise ValidationError(f"clip epsilon must be in (0, 0.5), got {eps}")
    return np.clip(x, eps, 1.0 - eps)


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

def _grad(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # forward differences, zero at the trailing edge
    gx = np.zeros_like(u)
    gy = np.zeros_like(u)
    gx[..., :, :-1] = u[..., :, 1:] - u[..., :, :-1]
    gy[..., :-1, :] = u[..., 1:, :] - u[..., :-1, :]
    return gx, gy


def tv_objective(u: np.ndarray, f: np.ndarray, weight: float) -> float:
    """0.5*||u-f||^2 + weight * anisotropic TV, summed over all slices."""
    gx, gy = _grad(np.asarray(u, dtype=np.float64))
    fidelity = 0.5 * float(np.sum((np.asarray(u, np.float64) - np.asarray(f, np.float64)) ** 2))
    return fidelity + weight * float(np.sum(np.abs(gx)) + np.sum(np.abs(gy)))


def _tv_solve(f: np.ndarray, weight: float, iterations: int, step: float) -> np.ndarray:
    """One dual-projection solve on (..., H, W); descent-safeguarded."""
    if weight == 0.0:
        return f.copy()
    px = np.zeros_like(f)
    py = np.zeros_like(f)
    for _ in range(iterations):
        div_p = _dual_div(px, py)
        gx, gy = _grad(div_p - f / weight)
        px = (px + step * gx) / (1.0 + step * np.abs(gx))
        py = (py + step * gy) / (1.0 + step * np.abs(gy))
    u = f - weight * _dual_div(px, py)
    if tv_objective(u, f, weight) <= tv_objective(f, f, weight):
        return u
    return f.copy()


def _dual_div(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Discrete divergence adjoint to the forward-difference gradient."""
    div = np.zeros_like(px)
    # x component: px[..., j] - px[..., j-1], with one-sided ends
    div[..., :, 0] += px[..., :, 0]
    if px.shape[-1] > 1:
        div[..., :, 1:-1] += px[..., :, 1:-1] - px[..., :, :-2]
        div[..., :, -1] += -px[..., :, -2]
    # y component
    div[..., 0, :] += py[..., 0, :]
    if py.shape[-2] > 1:
        div[..., 1:-1, :] += py[..., 1:-1, :] - py[..., :-2, :]
        div[..., -1, :] += -py[..., -2, :]
    return div


def tv_denoise(f: np.ndarray, weight: float, iterations: int = 50,
               step: float = 0.25) -> np.ndarray:
    """Flip-symmetrized anisotropic TV denoise of (..., H, W) slices."""
    f = np.asarray(f, dtype=np.float64)
    if f.ndim < 2:
        raise ValidationError(f"need at least 2 dims, got shape {f.shape}")
    a = _tv_solve(f, weight, iterations, step)
    b = _tv_solve(f[..., :, ::-1], weight, iterations, step)[..., :, ::-1]
    c = _tv_solve(f[..., ::-1, :], weight, iterations, step)[..., ::-1, :]
    d = _tv_solve(f[..., ::-1, ::-1], weight, iterations, step)[..., ::-1, ::-1]
    return 0.25 * ((a + b) + (c + d))


def despeckle_values(values: np.ndarray, cfg: PreprocessConfig | None = None) -> np.ndarray:
    """Despeckle (..., H, W) backscatter intensities in (0,1)."""
    cfg = cfg or PreprocessConfig()
    cfg.validate()
    v = clip_unit(np.asarray(values, dtype=np.float64))
    db = 10.0 * np.log10(v)
    smooth = tv_denoise(db, cfg.tv_weight_db, cfg.tv_iterations, cfg.tv_step)
    back = 10.0 ** (smooth / 10.0)
    return clip_unit(back).astype(np.float32)


def despeckle_stack(stack: RasterStack, cfg: PreprocessConfig | None = None) -> RasterStack:
    """Despeckle every frame/polarization of a stack independently."""
    out = despeckle_values(stack.values, cfg)
    return RasterStack(out, list(stack.timestamps), stack.pol_names)
