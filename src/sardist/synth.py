"""Synthetic dual-pol backscatter scenes with known disturbance truth.

Each scene is a Voronoi land-cover mosaic. Pixel intensities follow

    gamma0[class] * seasonal(t, class) * speckle

where speckle is a unit-mean Gamma(L, 1/L) multiplier (multiplicative
L-look noise) and the optional seasonal term is a per-class sinusoid in dB.
The final frame of a disturbed scene is additionally multiplied by
10^(delta_db/10) inside a randomly grown connected truth mask.

Frames are dated on one 12-day schedule from 2024-01-03. All randomness
flows from `SynthConfig.seed`, the only seed a scene or corpus reads, through
named child streams; per-sequence corpus seeds are splitmix64 mixes of it, so
generation order (or parallelism) cannot change content, and the config that
corpus.json records regenerates its corpus.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace
from datetime import date, timedelta
from numbers import Real

import numpy as np

from .errors import FormatError, ValidationError, _shown, bound, check_fields, check_seed
from .preprocess import clip_unit
from .raster import RasterStack, read_json, read_stack, write_json, write_stack

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SynthConfig:
    height: int = bound(16, ">= 1")
    width: int = bound(16, ">= 1")
    num_steps: int = bound(11, ">= 3")
    num_classes: int = bound(4, ">= 1")
    looks: float = bound(9.0, ">= 1")
    seasonal_amplitude_db: float = bound(0.0, ">= 0")
    seasonal_period: float = bound(8.0, "> 0")
    disturbance_delta_db: float = -6.0
    disturbance_fraction: float = bound(0.05, "[0, 1]")
    # (vv, vh) mean backscatter per class; None draws levels from the seed
    class_gamma0: tuple[tuple[float, float], ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.class_gamma0 is not None:
            if len(self.class_gamma0) != self.num_classes:
                raise ValidationError(f"class_gamma0 has {len(self.class_gamma0)} entries "
                                      f"for {self.num_classes} classes")
            for entry in self.class_gamma0:
                if not (isinstance(entry, (tuple, list)) and len(entry) == 2 and all(
                        isinstance(v, Real) and not isinstance(v, bool) and 0 < v < 1
                        for v in entry)):
                    raise ValidationError(f"class_gamma0 entries must be (vv, vh) pairs of "
                                          f"numbers in (0, 1), got {_shown(entry)}")
        check_seed(self.seed)


def splitmix64(seed: int, index: int) -> int:
    """Derive the index-th child seed from a master seed (splitmix64 mix)."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def make_mosaic(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Voronoi partition of random sites; returns (H, W) int class labels."""
    n_sites = 2 * cfg.num_classes
    sites_r = rng.uniform(0, cfg.height, size=n_sites)
    sites_c = rng.uniform(0, cfg.width, size=n_sites)
    rr, cc = np.meshgrid(np.arange(cfg.height) + 0.5, np.arange(cfg.width) + 0.5,
                         indexing="ij")
    d2 = (rr[..., None] - sites_r) ** 2 + (cc[..., None] - sites_c) ** 2
    nearest = np.argmin(d2, axis=-1)
    return (nearest % cfg.num_classes).astype(np.int64)


def _class_levels(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-class mean backscatter, shape (C, K). VH sits a few dB below VV.

    Levels come from cfg.class_gamma0 when given, otherwise from the seed.
    """
    if cfg.class_gamma0 is not None:
        return np.asarray(cfg.class_gamma0, dtype=np.float64).T.copy()
    vv = np.exp(rng.uniform(np.log(0.02), np.log(0.40), size=cfg.num_classes))
    ratio = np.exp(rng.uniform(np.log(0.15), np.log(0.40), size=cfg.num_classes))
    return np.stack([vv, vv * ratio], axis=0)


def _seasonal_db(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-frame per-class seasonal offset in dB, shape (T, K).

    Classes get individual phases and amplitude scales in [0.5, 1.5] so land
    covers cycle out of step with each other; a zero amplitude disables the
    term entirely (the draws are still consumed to keep streams aligned).
    """
    phase = rng.uniform(0.0, 2.0 * np.pi, size=cfg.num_classes)
    scale = rng.uniform(0.5, 1.5, size=cfg.num_classes)
    t = np.arange(cfg.num_steps)[:, None]
    return (cfg.seasonal_amplitude_db * scale
            * np.sin(2.0 * np.pi * t / cfg.seasonal_period + phase))


def make_connected_mask(height: int, width: int, fraction: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Grow one 4-connected random blob covering round(fraction*H*W) pixels.

    fraction 0 yields an all-false mask; any positive fraction marks at
    least one pixel.
    """
    mask = np.zeros((height, width), dtype=bool)
    if fraction <= 0:
        return mask
    target = max(1, int(round(fraction * height * width)))
    start = (int(rng.integers(height)), int(rng.integers(width)))
    mask[start] = True
    frontier = [start]
    count = 1
    while count < target and frontier:
        i = int(rng.integers(len(frontier)))
        frontier[i], frontier[-1] = frontier[-1], frontier[i]
        r, c = frontier.pop()
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < height and 0 <= nc < width and not mask[nr, nc]:
                mask[nr, nc] = True
                frontier.append((nr, nc))
                count += 1
                if count >= target:
                    break
    return mask


def generate_scene(cfg: SynthConfig) -> tuple[RasterStack, np.ndarray]:
    """Scene with a disturbance in the final frame; returns (stack, truth mask)."""
    rng = np.random.default_rng(cfg.seed)
    labels = make_mosaic(cfg, rng)                       # (H, W)
    levels = _class_levels(cfg, rng)                     # (C, K)
    season_db = _seasonal_db(cfg, rng)                   # (T, K)
    season = 10.0 ** (season_db[:, labels][:, None, :, :] / 10.0)  # (T, 1, H, W)
    speckle = rng.gamma(shape=cfg.looks, scale=1.0 / cfg.looks,
                        size=(cfg.num_steps, 2, cfg.height, cfg.width))
    values = levels[:, labels][None, :, :, :] * season * speckle
    mask_rng = np.random.default_rng(splitmix64(cfg.seed, 0x5EED))
    mask = make_connected_mask(cfg.height, cfg.width, cfg.disturbance_fraction, mask_rng)
    values[-1] = np.where(mask[None, :, :],
                          values[-1] * 10.0 ** (cfg.disturbance_delta_db / 10.0),
                          values[-1])
    dates = [(date(2024, 1, 3) + timedelta(days=12 * i)).isoformat()
             for i in range(cfg.num_steps)]
    return RasterStack(clip_unit(values).astype(np.float32, order="C"), dates), mask


def generate_training_corpus(cfg: SynthConfig, count: int, out_dir: str) -> str:
    """Write `count` nominal sequences plus a manifest; returns manifest path.

    Sequence i is the scene of seed splitmix64(cfg.seed, i) with no disturbance
    (its last frame is left as drawn), so any subset can be regenerated
    independently.
    """
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ValidationError(f"corpus size must be an integer >= 1, got {_shown(count)}")
    os.makedirs(out_dir, exist_ok=True)
    nominal = replace(cfg, disturbance_fraction=0.0)
    entries = []
    for i in range(count):
        seed_i = splitmix64(cfg.seed, i)
        name = f"seq_{i:05d}.rts"
        write_stack(generate_scene(replace(nominal, seed=seed_i))[0], os.path.join(out_dir, name))
        entries.append({"path": name, "seed": seed_i})
    manifest = {
        "master_seed": cfg.seed,
        "config": asdict(cfg),
        "entries": entries,
    }
    manifest_path = os.path.join(out_dir, "corpus.json")
    write_json(manifest_path, manifest)
    return manifest_path


def read_corpus_manifest(manifest_path: str) -> dict:
    """Parse a corpus.json; FormatError unless it lists entries with a path each."""
    manifest = read_json(manifest_path)
    entries = manifest.get("entries") if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("path"), str) for e in entries):
        raise FormatError(f"{manifest_path}: corpus manifest needs a list of "
                          f"entries, each with a path")
    for entry in entries:
        # entry paths are joined to input and output directories alike
        if os.path.isabs(entry["path"]) or os.pardir in entry["path"].split(os.sep):
            raise FormatError(f"{manifest_path}: entry path {entry['path']!r} "
                              f"leaves the corpus directory")
    return manifest


def load_corpus(manifest_path: str) -> np.ndarray:
    """Load every corpus sequence into one (N, T, C, H, W) float32 array, stack by stack."""
    paths = [os.path.join(os.path.dirname(manifest_path), e["path"])
             for e in read_corpus_manifest(manifest_path)["entries"]]
    if not paths:
        raise ValidationError(f"{manifest_path}: empty corpus")
    for i, path in enumerate(paths):
        values = read_stack(path).values
        if i == 0:
            corpus = np.empty((len(paths), *values.shape), dtype=np.float32)
        elif values.shape != corpus.shape[1:]:
            raise ValidationError(f"{manifest_path}: mixed sequence shapes {corpus.shape[1:]}, "
                                  f"{values.shape}")
        corpus[i] = values
    return corpus
