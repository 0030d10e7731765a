"""Tests for the sliding-window scene sweep."""

import threading
import time
import tracemalloc
import weakref
from dataclasses import replace
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sardist import inference, native
from sardist.autodiff import Tensor
from sardist.errors import ValidationError
from sardist.inference import SweepConfig, forecast, sweep_estimate, window_positions
from sardist.model import Model, ModelConfig
from sardist.preprocess import clip_unit, logit


class ConstantStub:
    """Model stand-in that forecasts a constant everywhere."""

    def __init__(self, size: int, mu_value: float = 1.0, sigma_value: float = 1.0):
        self.cfg = SimpleNamespace(input_size=size)
        self.mu_value = mu_value
        self.sigma_value = sigma_value
        self.windows_seen = 0
        self.forward_sizes = []

    def forward(self, x, train=False, rng=None):
        b, t, c, h, w = x.shape
        self.windows_seen += b
        self.forward_sizes.append(b)
        mu = Tensor(np.full((b, c, h, w), self.mu_value, dtype=np.float32))
        sigma = Tensor(np.full((b, c, h, w), self.sigma_value, dtype=np.float32))
        return mu, sigma


def tiny_model(seed=0) -> Model:
    cfg = ModelConfig(input_size=4, patch_size=2, d_model=8, num_heads=2,
                      num_layers=1, ff_dim=8, max_t=10, dropout=0.0)
    return Model(cfg, seed=seed)


def logit_frames(rng: np.random.Generator, t=5, h=8, w=8) -> np.ndarray:
    return rng.normal(-2.0, 0.5, size=(t, 2, h, w)).astype(np.float32)


# ---------------------------------------------------------------------------
# window enumeration
# ---------------------------------------------------------------------------

class TestWindowPositions:
    def test_hand_cases(self):
        assert window_positions(64, 16, 16) == [0, 16, 32, 48]
        assert window_positions(20, 16, 4) == [0, 4]
        assert window_positions(16, 16, 1) == [0]
        assert window_positions(64, 16, 12) == [0, 12, 24, 36, 48]

    def test_last_position_clamped_to_edge(self):
        assert window_positions(65, 16, 16) == [0, 16, 32, 48, 49]
        assert window_positions(10, 4, 5) == [0, 5, 6]

    def test_window_larger_than_extent_rejected(self):
        with pytest.raises(ValidationError):
            window_positions(8, 16, 4)

    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=32))
    @settings(max_examples=120, deadline=None)
    def test_complete_coverage_properties(self, extent, window, stride):
        # full coverage is only promised for stride <= window (enforced at
        # sweep level); the enumeration itself stays permissive
        if window > extent or stride > window:
            return
        positions = window_positions(extent, window, stride)
        assert positions[0] == 0
        assert positions[-1] == extent - window
        assert positions == sorted(set(positions))
        covered = np.zeros(extent, dtype=bool)
        for p in positions:
            covered[p:p + window] = True
        assert covered.all()
        assert all(b - a <= stride for a, b in zip(positions, positions[1:]))


def coverage_counts(height: int, width: int, window: int, stride: int) -> np.ndarray:
    """How many sweep windows cover each pixel."""
    count = np.zeros((height, width), dtype=np.int64)
    for r in window_positions(height, window, stride):
        for ch in window_positions(width, window, stride):
            count[r:r + window, ch:ch + window] += 1
    return count


class TestCoverageCounts:
    def test_every_pixel_covered(self):
        for stride in (1, 3, 4, 7, 16):
            counts = coverage_counts(64, 64, 16, stride)
            assert counts.min() >= 1

    def test_disjoint_tiling_counts_one(self):
        counts = coverage_counts(64, 64, 16, 16)
        np.testing.assert_array_equal(counts, np.ones((64, 64), dtype=np.int64))

    def test_matches_brute_force(self):
        expected = np.zeros((10, 12), dtype=np.int64)
        for r in window_positions(10, 4, 3):
            for c in window_positions(12, 4, 3):
                expected[r:r + 4, c:c + 4] += 1
        np.testing.assert_array_equal(coverage_counts(10, 12, 4, 3), expected)

    def test_twenty_by_twenty_hand_case(self):
        # window 16, stride 4 on a 20x20 scene: positions {0, 4} each axis,
        # so counts are products of 1-d coverage {1, 2}: {1, 2, 4}, with the
        # 12x12 centre covered by all four windows
        counts = coverage_counts(20, 20, 16, 4)
        assert set(np.unique(counts)) == {1, 2, 4}
        np.testing.assert_array_equal(counts[4:16, 4:16], np.full((12, 12), 4))
        assert counts[0, 0] == 1 and counts[19, 19] == 1


# ---------------------------------------------------------------------------
# sweep averaging
# ---------------------------------------------------------------------------

class TestSweepAveraging:
    @pytest.mark.parametrize("stride", [1, 4, 8, 16])
    def test_constant_stub_is_exact(self, stride):
        # averaging any number of exactly-1.0 forecasts must stay exactly 1.0
        stub = ConstantStub(size=16, mu_value=1.0, sigma_value=1.0)
        frames = np.full((5, 2, 64, 64), -2.0, dtype=np.float32)
        est = sweep_estimate(stub, frames, SweepConfig(stride=stride))
        assert est.mu.shape == (2, 64, 64)
        np.testing.assert_array_equal(est.mu, np.ones((2, 64, 64), np.float32))
        np.testing.assert_array_equal(est.sigma, np.ones((2, 64, 64), np.float32))

    def test_stub_sees_every_window_once(self):
        stub = ConstantStub(size=16)
        frames = np.zeros((3, 2, 64, 64), dtype=np.float32)
        sweep_estimate(stub, frames, SweepConfig(stride=16, batch_size=3))
        assert stub.windows_seen == 16

    def test_disjoint_tiling_equals_per_tile_forward(self):
        # stride == window: each tile is covered exactly once, so the sweep
        # must reproduce the raw per-tile forward bitwise
        model = tiny_model()
        rng = np.random.default_rng(0)
        frames = logit_frames(rng, h=8, w=8)
        est = sweep_estimate(model, frames, SweepConfig(stride=4))
        for r in (0, 4):
            for c in (0, 4):
                tile = frames[None, :, :, r:r + 4, c:c + 4]
                mu, sigma = model.forward(tile, train=False)
                np.testing.assert_array_equal(est.mu[:, r:r + 4, c:c + 4],
                                              mu.data[0].astype(np.float32))
                np.testing.assert_array_equal(est.sigma[:, r:r + 4, c:c + 4],
                                              sigma.data[0].astype(np.float32))

    def test_overlap_average_matches_loop_oracle(self):
        model = tiny_model(seed=1)
        rng = np.random.default_rng(1)
        frames = logit_frames(rng, h=10, w=12)
        cfg = SweepConfig(stride=3, batch_size=5)
        est = sweep_estimate(model, frames, cfg)

        size = model.cfg.input_size
        mu_sum = np.zeros((2, 10, 12), dtype=np.float64)
        sigma_sum = np.zeros((2, 10, 12), dtype=np.float64)
        count = np.zeros((10, 12), dtype=np.int64)
        for r in window_positions(10, size, 3):
            for c in window_positions(12, size, 3):
                x = frames[None, :, :, r:r + size, c:c + size]
                mu, sigma = model.forward(x, train=False)
                mu_sum[:, r:r + size, c:c + size] += mu.data[0]
                sigma_sum[:, r:r + size, c:c + size] += sigma.data[0]
                count[r:r + size, c:c + size] += 1
        np.testing.assert_allclose(est.mu, (mu_sum / count).astype(np.float32),
                                   rtol=0, atol=1e-7)
        np.testing.assert_allclose(est.sigma, (sigma_sum / count).astype(np.float32),
                                   rtol=0, atol=1e-7)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_clamped_non_square_scene_matches_per_window_accumulation(self, threads):
        # an 11x17 scene at window 4, stride 3: both axes end on a clamped
        # window, so coverage counts vary along rows and columns separately
        class Shifting(ConstantStub):
            def forward(self, x, train=False, rng=None):
                return Tensor(1.5 * x[:, -1]), Tensor(np.abs(x[:, 0]) + np.float32(0.1))

        stub = Shifting(size=4)
        frames = logit_frames(np.random.default_rng(6), t=3, h=11, w=17)
        est = sweep_estimate(stub, frames, SweepConfig(stride=3, batch_size=5, threads=threads))

        mu_sum = np.zeros((2, 11, 17), dtype=np.float64)
        sigma_sum = np.zeros((2, 11, 17), dtype=np.float64)
        count = np.zeros((11, 17), dtype=np.int64)
        for r in window_positions(11, 4, 3):
            for c in window_positions(17, 4, 3):
                mu, sigma = stub.forward(frames[None, :, :, r:r + 4, c:c + 4])
                mu_sum[:, r:r + 4, c:c + 4] += mu.data[0]
                sigma_sum[:, r:r + 4, c:c + 4] += sigma.data[0]
                count[r:r + 4, c:c + 4] += 1
        assert window_positions(11, 4, 3)[-1] == 7 and window_positions(17, 4, 3)[-1] == 13
        np.testing.assert_array_equal(est.mu, (mu_sum / count).astype(np.float32))
        np.testing.assert_array_equal(est.sigma, (sigma_sum / count).astype(np.float32))

    def test_batch_size_invariance_bitwise(self):
        model = tiny_model(seed=2)
        rng = np.random.default_rng(2)
        frames = logit_frames(rng, h=12, w=12)
        base = sweep_estimate(model, frames, SweepConfig(stride=2, batch_size=1))
        for batch in (3, 7, 64):
            other = sweep_estimate(model, frames, SweepConfig(stride=2, batch_size=batch))
            np.testing.assert_array_equal(base.mu, other.mu)
            np.testing.assert_array_equal(base.sigma, other.sigma)

    def test_thread_count_invariance_bitwise(self):
        model = tiny_model(seed=3)
        rng = np.random.default_rng(3)
        frames = logit_frames(rng, h=16, w=16)
        single = sweep_estimate(model, frames, SweepConfig(stride=2, batch_size=4, threads=1))
        threaded = sweep_estimate(model, frames, SweepConfig(stride=2, batch_size=4, threads=4))
        np.testing.assert_array_equal(single.mu, threaded.mu)
        np.testing.assert_array_equal(single.sigma, threaded.sigma)

    def test_frozen_size_batch_and_thread_invariance_bitwise(self):
        # the benchmark's model size: 36-row encoder GEMMs and 4-row last-block
        # and head GEMMs per window, where BLAS kernel choice depends on shape
        cfg = replace(ModelConfig.transformer_default(), ff_dim=512, num_layers=2)
        model = Model(cfg, seed=1)
        frames = np.random.default_rng(8).normal(-2.0, 0.5, size=(9, 2, 20, 20))
        frames = frames.astype(np.float32)
        base = sweep_estimate(model, frames, SweepConfig(stride=2, batch_size=1, threads=1))
        for batch in (1, 4, 9):
            for threads in (1, 2):
                other = sweep_estimate(model, frames, SweepConfig(
                    stride=2, batch_size=batch, threads=threads))
                np.testing.assert_array_equal(base.mu, other.mu)
                np.testing.assert_array_equal(base.sigma, other.sigma)
        # 25 windows: batch 64 runs capped forwards of 16 and a last one of 9
        frames = np.random.default_rng(9).normal(-2.0, 0.5, size=(9, 2, 24, 24))
        frames = frames.astype(np.float32)
        base = sweep_estimate(model, frames, SweepConfig(stride=2, batch_size=1, threads=1))
        for threads in (1, 2):
            stats = {}
            other = sweep_estimate(model, frames, SweepConfig(
                stride=2, batch_size=64, threads=threads), stats)
            assert (stats["windows"], stats["windows_per_forward"]) == (25, 16)
            np.testing.assert_array_equal(base.mu, other.mu)
            np.testing.assert_array_equal(base.sigma, other.sigma)

    def test_rerun_determinism(self):
        model = tiny_model(seed=4)
        rng = np.random.default_rng(4)
        frames = logit_frames(rng)
        a = sweep_estimate(model, frames, SweepConfig(stride=2))
        b = sweep_estimate(model, frames, SweepConfig(stride=2))
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.sigma, b.sigma)

    def test_sigma_strictly_positive(self):
        model = tiny_model(seed=5)
        rng = np.random.default_rng(5)
        est = sweep_estimate(model, logit_frames(rng), SweepConfig(stride=4))
        assert np.all(est.sigma > 0)

    def test_stride_choice_changes_little(self):
        # denser overlap only smooths; fully seeded, so the bound is stable
        from sardist.preprocess import despeckle_values
        from sardist.synth import SynthConfig, generate_nominal_sequence

        stack = generate_nominal_sequence(SynthConfig(height=32, width=32), seed=20)
        den = despeckle_values(stack.values.reshape(-1, 32, 32)).reshape(stack.values.shape)
        frames = logit(clip_unit(den, 1e-4))
        cfg = ModelConfig(input_size=16, patch_size=8, d_model=32, num_heads=2,
                          num_layers=1, ff_dim=32, max_t=10, dropout=0.0)
        model = Model(cfg, seed=0)
        dense = sweep_estimate(model, frames[:9], SweepConfig(stride=1))
        coarse = sweep_estimate(model, frames[:9], SweepConfig(stride=4))
        in_sd_units = np.abs(coarse.mu - dense.mu) / dense.sigma
        assert float(np.percentile(in_sd_units, 95)) < 0.5


# ---------------------------------------------------------------------------
# bounded memory: windows per forward and chunks in flight
# ---------------------------------------------------------------------------

class TestSweepMemory:
    def test_windows_per_forward_capped_at_sixteen(self):
        frames = np.zeros((2, 2, 40, 40), dtype=np.float32)   # 100 windows at stride 4
        for batch, expected in ((64, 16), (3, 3)):
            stub = ConstantStub(size=4)
            stats = {}
            sweep_estimate(stub, frames, SweepConfig(stride=4, batch_size=batch), stats)
            assert max(stub.forward_sizes) == expected and stub.windows_seen == 100
            assert (stats["windows"], stats["windows_per_forward"]) == (100, expected)

    def test_one_thread_holds_one_chunk(self):
        # each forward's outputs must be gone before the next forward starts
        class Holding(ConstantStub):
            def __init__(self):
                super().__init__(size=4)
                self.outputs, self.most_alive = [], 0

            def forward(self, x, train=False, rng=None):
                alive = sum(ref() is not None for ref in self.outputs)
                self.most_alive = max(self.most_alive, alive)
                mu, sigma = super().forward(x)
                self.outputs += [weakref.ref(mu.data), weakref.ref(sigma.data)]
                return mu, sigma

        stub = Holding()
        stats = {}
        sweep_estimate(stub, np.zeros((2, 2, 40, 40), dtype=np.float32),
                       SweepConfig(stride=4, batch_size=1), stats)
        assert len(stub.outputs) == 200
        assert stub.most_alive == 0
        assert stats["max_chunks_in_flight"] == 1

    @pytest.mark.parametrize("threads", [2, 3])
    def test_threads_hold_at_most_two_chunks_each(self, threads):
        # The first forward stalls, so its chunk cannot be accumulated: a
        # bounded sweep starts at most 2 x threads forwards meanwhile, while an
        # unbounded one lets the other workers run through every chunk.
        class Stalling(ConstantStub):
            def __init__(self):
                super().__init__(size=4)
                self.lock, self.started, self.started_during_stall = threading.Lock(), 0, None

            def forward(self, x, train=False, rng=None):
                with self.lock:
                    self.started += 1
                    first = self.started == 1
                if first:
                    time.sleep(0.3)
                    with self.lock:
                        self.started_during_stall = self.started
                return super().forward(x)

        stub = Stalling()
        stats = {}
        frames = np.zeros((2, 2, 40, 40), dtype=np.float32)   # 100 one-window chunks
        est = sweep_estimate(stub, frames, SweepConfig(stride=4, batch_size=1, threads=threads),
                             stats)
        assert stub.started == 100 and np.all(est.mu == 1.0)
        assert stub.started_during_stall <= 2 * threads
        assert stats["max_chunks_in_flight"] == 2 * threads

    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_memory_bounded_by_scene_not_window_count(self, threads):
        # 7,921 windows of 2 KiB of outputs each (16 MiB in all) over a scene
        # of 144 KiB: the sweep may hold the scene, its sums and a few chunks
        frames = np.zeros((2, 2, 96, 96), dtype=np.float32)
        stub = ConstantStub(size=8)
        tracemalloc.start()
        try:
            sweep_estimate(stub, frames, SweepConfig(stride=1, threads=threads))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stub.windows_seen == 89 * 89
        assert peak < 8 * frames.nbytes


# ---------------------------------------------------------------------------
# validation and the stack front end
# ---------------------------------------------------------------------------

class TestSweepValidation:
    @pytest.mark.parametrize("kw", [
        {"stride": 0}, {"batch_size": 0}, {"threads": 0},
    ])
    def test_config_rejections(self, kw):
        with pytest.raises(ValidationError):
            SweepConfig(**kw).validate()

    def test_frames_must_be_4d(self):
        with pytest.raises(ValidationError):
            sweep_estimate(tiny_model(), np.zeros((5, 2, 8), dtype=np.float32))

    def test_scene_smaller_than_window_rejected(self):
        with pytest.raises(ValidationError):
            sweep_estimate(tiny_model(), np.zeros((5, 2, 3, 3), dtype=np.float32))

    def test_stride_beyond_window_rejected(self):
        frames = np.zeros((5, 2, 8, 8), dtype=np.float32)
        with pytest.raises(ValidationError):
            sweep_estimate(tiny_model(), frames, SweepConfig(stride=5))


class TestEstimateFromStack:
    """forecast(): clip + logit of the frame stack, then the sweep."""

    def test_matches_manual_preprocext_chain(self):
        rng = np.random.default_rng(6)
        values = rng.uniform(0.05, 0.6, size=(5, 2, 8, 8)).astype(np.float32)
        model = tiny_model(seed=6)
        via_stack = forecast(model, values, SweepConfig(stride=2))
        direct = sweep_estimate(model, logit(clip_unit(values, 1e-4)),
                                SweepConfig(stride=2))
        np.testing.assert_array_equal(via_stack.mu, direct.mu)
        np.testing.assert_array_equal(via_stack.sigma, direct.sigma)


# ---------------------------------------------------------------------------
# one BLAS thread per sweep worker
# ---------------------------------------------------------------------------

class BlasProbe(ConstantStub):
    """Stub whose forward records the OpenBLAS thread count, then runs `hook`."""

    def __init__(self, get, hook=lambda: None):
        super().__init__(size=16)
        self.get, self.hook, self.seen = get, hook, []

    def forward(self, x, train=False, rng=None):
        self.seen.append(self.get())
        self.hook()
        return super().forward(x, train, rng)


class TestBlasCap:
    FRAMES = np.zeros((3, 2, 32, 32), dtype=np.float32)   # 4 windows at stride 16
    THREADED = SweepConfig(stride=16, batch_size=1, threads=2)

    @pytest.fixture
    def get(self):
        """The BLAS count getter, with the pool at 2 threads so a cap to 1 shows."""
        if native._BLAS is None:
            pytest.skip("numpy's bundled OpenBLAS thread symbols not found; the cap is a no-op")
        get, set_ = native._BLAS
        before = get()
        set_(2)
        yield get
        set_(before)

    def test_forwards_see_one_thread_only_when_threaded(self, get):
        probe = BlasProbe(get)
        sweep_estimate(probe, self.FRAMES, self.THREADED)
        assert probe.seen == [1] * 4
        probe.seen.clear()
        sweep_estimate(probe, self.FRAMES, replace(self.THREADED, threads=1))
        assert probe.seen == [2] * 4

    def test_count_restored_after_sweep(self, get):
        sweep_estimate(BlasProbe(get), self.FRAMES, self.THREADED)
        assert get() == 2

    def test_count_restored_after_sweep_raises(self, get):
        def fail():
            raise RuntimeError("forward failed")

        with pytest.raises(RuntimeError, match="forward failed"):
            sweep_estimate(BlasProbe(get, fail), self.FRAMES, self.THREADED)
        assert get() == 2

    def test_overlapping_sweeps_restore_only_when_the_last_leaves(self, get):
        # A enters, B enters, A leaves, B leaves: a cap that saves and restores
        # per sweep would lift while B runs, or leave the pool at 1 after B
        a_in, b_in, release_b = threading.Event(), threading.Event(), threading.Event()
        frame = self.FRAMES[:, :, :16, :16]   # one window, so one forward per sweep

        def sweep(probe):
            return threading.Thread(target=sweep_estimate, args=(probe, frame, self.THREADED))

        probe_a = BlasProbe(get, lambda: (a_in.set(), b_in.wait(timeout=10)))
        probe_b = BlasProbe(get, lambda: (b_in.set(), release_b.wait(timeout=10)))
        a, b = sweep(probe_a), sweep(probe_b)
        a.start()
        assert a_in.wait(timeout=10)
        b.start()
        a.join(timeout=10)
        assert not a.is_alive() and b_in.is_set()
        assert get() == 1
        release_b.set()
        b.join(timeout=10)
        assert not b.is_alive()
        assert get() == 2
        assert probe_a.seen == probe_b.seen == [1]

    def test_sweep_without_blas_library_is_unchanged(self, monkeypatch):
        model = tiny_model(seed=9)
        frames = logit_frames(np.random.default_rng(9), h=12, w=12)
        monkeypatch.setattr(native, "_BLAS", None)
        single = sweep_estimate(model, frames, SweepConfig(stride=2, batch_size=4))
        threaded = sweep_estimate(model, frames, SweepConfig(stride=2, batch_size=4, threads=2))
        np.testing.assert_array_equal(single.mu, threaded.mu)
        np.testing.assert_array_equal(single.sigma, threaded.sigma)


# ---------------------------------------------------------------------------
# the allocator pin
# ---------------------------------------------------------------------------

class FakeLibc:
    """`ctypes.CDLL` stand-in whose mallopt records its calls and accepts them."""

    def __init__(self):
        self.calls = []

    def __call__(self, name):
        assert name is None

        def mallopt(param, value):   # a function, so argtypes and restype can be set
            self.calls.append((param, value))
            return 1

        return SimpleNamespace(mallopt=mallopt)


class TestMallocPin:
    def test_sweep_without_mallopt_is_unchanged(self, monkeypatch):
        model = tiny_model(seed=10)
        frames = logit_frames(np.random.default_rng(10), h=12, w=12)
        cfg = SweepConfig(stride=2, batch_size=4, threads=2)
        before = sweep_estimate(model, frames, cfg)
        monkeypatch.setattr(inference, "pin_malloc", cache(native.pin_malloc.__wrapped__))
        monkeypatch.setattr(native.ctypes, "CDLL", lambda name: SimpleNamespace())
        stats = {}
        after = sweep_estimate(model, frames, cfg, stats)
        assert stats["mallopt_pinned"] is False
        np.testing.assert_array_equal(before.mu, after.mu)
        np.testing.assert_array_equal(before.sigma, after.sigma)

    def test_pinned_once_per_process(self, monkeypatch):
        libc = FakeLibc()
        monkeypatch.setattr(inference, "pin_malloc", cache(native.pin_malloc.__wrapped__))
        monkeypatch.setattr(native.ctypes, "CDLL", libc)
        frames = np.zeros((2, 2, 8, 8), dtype=np.float32)
        for threads in (1, 2, 1):
            stats = {}
            sweep_estimate(ConstantStub(size=4), frames, SweepConfig(threads=threads), stats)
            assert stats["mallopt_pinned"] is True
        assert libc.calls == [(-3, 32 << 20), (-1, 128 << 20)]
