"""Disturbance metrics: forecast-normalized deviation and log ratio.

The learned metric measures how far the newly observed frame falls from the
model's forecast, per polarization, in units of the forecast's own standard
deviation:

    d_p = |x_p - mu_p| / sigma_p        (logit space)
    d   = max over polarizations

The classical baseline compares the new frame against a per-pixel temporal
reference built from the pre-event frames:

    l_p = |log10(x_p) - log10(I0_p)|,   I0 = lower median over time
    l   = max over polarizations

Log-ratio maps carry raw log10-ratio values and are tagged with "log10_ratio"
units; multiply by 10 only when displaying as dB. Thresholding is strict
(score > tau) for both metrics.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, ValidationError
from .raster import BinaryDelineation, DistributionEstimate, DisturbanceMap


def lower_median(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Median that returns the lower of the two central order statistics.

    For odd counts this is the ordinary median; for even counts it is the
    element at sorted index (n-1)//2, so the result is always an observed
    value (no interpolation between acquisition dates).
    """
    values = np.asarray(values)
    n = values.shape[axis]
    if n < 1:
        raise ValidationError("median of an empty axis")
    return np.take(np.sort(values, axis=axis), (n - 1) // 2, axis=axis)


def mahalanobis_map(est: DistributionEstimate, post_logit: np.ndarray) -> DisturbanceMap:
    """Forecast-normalized absolute deviation, max over polarizations."""
    post_logit = np.asarray(post_logit)
    if post_logit.shape != est.mu.shape:
        raise ShapeError(
            f"post frame {post_logit.shape} does not match estimate {est.mu.shape}"
        )
    if not np.all(np.isfinite(post_logit)):
        raise ValidationError("post frame contains non-finite values")
    d = np.abs(post_logit - est.mu) / est.sigma
    return DisturbanceMap(d.max(axis=0), units="standard_deviations")


def log_ratio_map(pre_frames: np.ndarray, post: np.ndarray) -> DisturbanceMap:
    """Absolute log10 ratio against the per-pixel temporal lower median.

    pre_frames: (T, C, H, W) backscatter in (0,1), T >= 2.
    post: (C, H, W) backscatter in (0,1).
    """
    pre_frames = np.asarray(pre_frames)
    post = np.asarray(post)
    if pre_frames.ndim != 4 or pre_frames.shape[0] < 2:
        raise ShapeError(f"need (T>=2, C, H, W) pre frames, got {pre_frames.shape}")
    if post.shape != pre_frames.shape[1:]:
        raise ShapeError(
            f"post frame {post.shape} does not match pre frames {pre_frames.shape}"
        )
    for arr, label in ((pre_frames, "pre"), (post, "post")):
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise ValidationError(f"{label} frames must be finite and > 0")
    reference = lower_median(pre_frames, axis=0)          # (C, H, W)
    ell = np.abs(np.log10(post) - np.log10(reference))
    return DisturbanceMap(ell.max(axis=0), units="log10_ratio")


def threshold_map(dmap: DisturbanceMap, tau: float) -> BinaryDelineation:
    """Binary delineation at strict threshold: disturbed iff value > tau."""
    if not (tau > 0) or not np.isfinite(tau):
        raise ValidationError(f"threshold must be finite and > 0, got {tau}")
    return BinaryDelineation(dmap.values > tau, float(tau))
