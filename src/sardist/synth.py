"""Synthetic dual-pol backscatter scenes with known disturbance truth.

Each scene is a Voronoi land-cover mosaic. Pixel intensities follow

    gamma0[class] * seasonal(t, class) * speckle

where speckle is a unit-mean Gamma(L, 1/L) multiplier (multiplicative
L-look noise) and the optional seasonal term is a per-class sinusoid in dB.
The final frame of a disturbed scene is additionally multiplied by
10^(delta_db/10) inside a randomly grown connected truth mask.

All randomness flows from a single seed through named child streams, and
per-sequence corpus seeds are derived with a splitmix64 mix of the master
seed, so corpus generation order (or parallelism) cannot change content.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import FormatError, ValidationError
from .preprocess import CLIP_EPS
from .raster import RasterStack, read_stack, write_stack

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SynthConfig:
    height: int = 16
    width: int = 16
    num_steps: int = 11
    num_classes: int = 4
    looks: float = 9.0
    seasonal_amplitude_db: float = 0.0
    seasonal_period: float = 8.0
    disturbance_delta_db: float = -6.0
    disturbance_fraction: float = 0.05
    start_date: str = "2024-01-03"
    cadence_days: int = 12
    # (vv, vh) mean backscatter per class; None draws levels from the seed
    class_gamma0: tuple[tuple[float, float], ...] | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.height < 1 or self.width < 1:
            raise ValidationError(f"bad extent {self.height}x{self.width}")
        if self.num_steps < 3:
            raise ValidationError(f"need at least 3 steps, got {self.num_steps}")
        if self.num_classes < 1:
            raise ValidationError(f"need at least 1 class, got {self.num_classes}")
        if not self.looks >= 1:
            raise ValidationError(f"looks must be >= 1, got {self.looks}")
        if self.seasonal_amplitude_db < 0:
            raise ValidationError("seasonal amplitude must be >= 0")
        if not self.seasonal_period > 0:
            raise ValidationError("seasonal period must be > 0")
        if not 0 <= self.disturbance_fraction <= 1:
            raise ValidationError(
                f"disturbance fraction must be in [0,1], got {self.disturbance_fraction}"
            )
        if self.cadence_days < 1:
            raise ValidationError("cadence must be >= 1 day")
        if self.class_gamma0 is not None:
            if len(self.class_gamma0) != self.num_classes:
                raise ValidationError(
                    f"class_gamma0 has {len(self.class_gamma0)} entries "
                    f"for {self.num_classes} classes"
                )
            for entry in self.class_gamma0:
                if len(entry) != 2:
                    raise ValidationError("class_gamma0 entries must be (vv, vh) pairs")
                for v in entry:
                    if not 0 < v < 1:
                        raise ValidationError(f"class_gamma0 value {v} outside (0,1)")
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must fit in uint64, got {self.seed}")


def splitmix64(seed: int, index: int) -> int:
    """Derive the index-th child seed from a master seed (splitmix64 mix)."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _timestamps(cfg: SynthConfig, count: int) -> list[str]:
    from datetime import date, timedelta

    y, m, d = (int(p) for p in cfg.start_date.split("-"))
    t0 = date(y, m, d)
    return [(t0 + timedelta(days=i * cfg.cadence_days)).isoformat() for i in range(count)]


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


def _base_sequence(cfg: SynthConfig, seed: int, num_steps: int) -> np.ndarray:
    """Disturbance-free (T, C, H, W) intensities before clipping."""
    rng = np.random.default_rng(seed)
    labels = make_mosaic(cfg, rng)                       # (H, W)
    levels = _class_levels(cfg, rng)                     # (C, K)
    season_db = _seasonal_db(cfg, rng)                   # (num_steps, K)
    base = levels[:, labels]                             # (C, H, W)
    season = 10.0 ** (season_db[:, labels][:, None, :, :] / 10.0)  # (T, 1, H, W)
    speckle = rng.gamma(shape=cfg.looks, scale=1.0 / cfg.looks,
                        size=(num_steps, 2, cfg.height, cfg.width))
    return base[None, :, :, :] * season * speckle


def generate_scene(cfg: SynthConfig, seed: int | None = None) -> tuple[RasterStack, np.ndarray]:
    """Scene with a disturbance in the final frame; returns (stack, truth mask).

    seed overrides cfg.seed when given.
    """
    cfg.validate()
    seed = cfg.seed if seed is None else seed
    values = _base_sequence(cfg, seed, cfg.num_steps)
    mask_rng = np.random.default_rng(splitmix64(seed, 0x5EED))
    mask = make_connected_mask(cfg.height, cfg.width, cfg.disturbance_fraction, mask_rng)
    values[-1] = np.where(mask[None, :, :],
                          values[-1] * 10.0 ** (cfg.disturbance_delta_db / 10.0),
                          values[-1])
    values = np.clip(values, CLIP_EPS, 1.0 - CLIP_EPS).astype(np.float32)
    stack = RasterStack(values, _timestamps(cfg, cfg.num_steps))
    return stack, mask


def generate_nominal_sequence(cfg: SynthConfig, seed: int | None = None) -> RasterStack:
    """Disturbance-free sequence used for self-supervised training."""
    cfg.validate()
    seed = cfg.seed if seed is None else seed
    values = _base_sequence(cfg, seed, cfg.num_steps)
    values = np.clip(values, CLIP_EPS, 1.0 - CLIP_EPS).astype(np.float32)
    return RasterStack(values, _timestamps(cfg, cfg.num_steps))


def generate_training_corpus(cfg: SynthConfig, count: int, master_seed: int | None = None,
                             out_dir: str = ".") -> str:
    """Write `count` nominal sequences plus a manifest; returns manifest path.

    Per-sequence seeds are splitmix64(master_seed, i), so any subset can be
    regenerated independently. master_seed defaults to cfg.seed.
    """
    cfg.validate()
    master_seed = cfg.seed if master_seed is None else master_seed
    if count < 1:
        raise ValidationError(f"corpus size must be >= 1, got {count}")
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for i in range(count):
        seed_i = splitmix64(master_seed, i)
        name = f"seq_{i:05d}.rts"
        write_stack(generate_nominal_sequence(cfg, seed_i), os.path.join(out_dir, name))
        entries.append({"path": name, "seed": seed_i})
    manifest = {
        "master_seed": int(master_seed),
        "config": asdict(cfg),
        "entries": entries,
    }
    manifest_path = os.path.join(out_dir, "corpus.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path


def read_corpus_manifest(manifest_path: str) -> dict:
    """Parse a corpus.json; FormatError unless it lists entries with a path each."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise FormatError(f"{manifest_path}: corpus manifest is not JSON: {exc}") from None
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
    """Load every corpus sequence into one (N, T, C, H, W) float32 array."""
    manifest = read_corpus_manifest(manifest_path)
    base = os.path.dirname(manifest_path)
    stacks = [read_stack(os.path.join(base, e["path"])) for e in manifest["entries"]]
    if not stacks:
        raise ValidationError(f"{manifest_path}: empty corpus")
    shapes = {s.values.shape for s in stacks}
    if len(shapes) != 1:
        raise ValidationError(f"{manifest_path}: mixed sequence shapes {shapes}")
    return np.stack([s.values for s in stacks], axis=0)
