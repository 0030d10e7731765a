"""Tests for the training loop: objective, optimizer, batching, gradient checks."""

import math
import sys
import threading
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import replace
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sardist import model as model_module
from sardist import native, training
from sardist.autodiff import Tensor
from sardist.errors import ValidationError
from sardist.model import Model, ModelConfig, save_checkpoint
from sardist.synth import splitmix64
from sardist.training import (
    Adam,
    TrainConfig,
    lr_at,
    nll_loss,
    sample_batch,
    train,
)

from conftest import run_under_optimize
from gradcheck import gradient_check, relative_error

HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def tiny_cfg(**overrides) -> ModelConfig:
    base = dict(input_size=4, patch_size=2, d_model=8, num_heads=2,
                num_layers=1, ff_dim=8, max_t=10, dropout=0.0)
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# config and schedule
# ---------------------------------------------------------------------------

class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig()

    @pytest.mark.parametrize("kw", [
        {"batch_size": 0},
        {"epochs": 0},
        {"lr_initial": 0.0},
        {"lr_after_decay": -1e-5},
        {"decay_epoch": 0},
        {"t_min": 1},
        {"t_min": 7, "t_max": 6},
        {"t_max": 1},
        {"lr_after_decay": 0.0},
        {"decay_epoch": -1},
        {"steps_per_epoch": 0},
    ])
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValidationError):
            TrainConfig(**kw)

    def test_lr_schedule_boundary(self):
        cfg = TrainConfig(lr_initial=1e-4, lr_after_decay=1e-5, decay_epoch=25)
        assert lr_at(1, cfg) == 1e-4
        assert lr_at(25, cfg) == 1e-4  # decay epoch itself still runs at the initial rate
        assert lr_at(26, cfg) == 1e-5
        assert lr_at(50, cfg) == 1e-5


# ---------------------------------------------------------------------------
# negative log likelihood
# ---------------------------------------------------------------------------

class TestNllLoss:
    def test_perfect_mean_unit_sigma_closed_form(self):
        # residual 0, sigma 1: only the log(2 pi)/2 constant survives
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 2, 4, 4))
        mu = Tensor(x.copy())
        sigma = Tensor(np.ones_like(x))
        value = float(nll_loss(mu, sigma, x).data)
        assert abs(value - HALF_LOG_TWO_PI) < 1e-9
        assert abs(value - 0.918939) < 1e-6

    def test_single_element_hand_case(self):
        # mu 0, sigma 2, x 1: c + log 2 + (1/2)^2 / 2
        mu = Tensor(np.zeros((1,)))
        sigma = Tensor(np.full((1,), 2.0))
        value = float(nll_loss(mu, sigma, np.ones((1,))).data)
        expected = HALF_LOG_TWO_PI + math.log(2.0) + 0.125
        assert abs(value - expected) < 1e-12

    def test_mean_reduction(self):
        # two elements with known terms average, not sum
        mu = Tensor(np.array([0.0, 0.0]))
        sigma = Tensor(np.array([1.0, 2.0]))
        x = np.array([1.0, 0.0])
        a = HALF_LOG_TWO_PI + 0.5
        b = HALF_LOG_TWO_PI + math.log(2.0)
        value = float(nll_loss(mu, sigma, x).data)
        assert abs(value - 0.5 * (a + b)) < 1e-12

    def test_shape_mismatch_rejected(self):
        mu = Tensor(np.zeros((2, 3)))
        sigma = Tensor(np.ones((2, 3)))
        with pytest.raises(ValidationError):
            nll_loss(mu, Tensor(np.ones((3, 2))), np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            nll_loss(mu, sigma, np.zeros((3, 2)))

    def test_gradients_match_closed_form(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5,))
        mu = Tensor(rng.normal(size=(5,)), requires_grad=True)
        sigma = Tensor(rng.uniform(0.5, 2.0, size=(5,)), requires_grad=True)
        nll_loss(mu, sigma, x).backward()
        r = mu.data - x
        n = x.size
        np.testing.assert_allclose(mu.grad, r / sigma.data ** 2 / n, rtol=1e-12)
        np.testing.assert_allclose(
            sigma.grad, (1.0 / sigma.data - r ** 2 / sigma.data ** 3) / n, rtol=1e-12)

    def test_sigma_grid_minimum_at_abs_residual(self):
        # 1-d scan over sigma for a fixed residual bottoms out at |residual|
        residual = 0.73
        grid = np.linspace(0.05, 2.0, 1951)  # 1e-3 spacing
        target = np.array([residual])
        vals = [float(nll_loss(Tensor(np.zeros(1)), Tensor(np.array([s])), target).data)
                for s in grid]
        best = grid[int(np.argmin(vals))]
        assert abs(best - residual) <= 1e-3 + 1e-12

    def test_mu_grid_minimum_at_observation(self):
        observed = 0.3
        grid = np.linspace(-1.0, 1.0, 2001)  # 1e-3 spacing
        target = np.array([observed])
        vals = [float(nll_loss(Tensor(np.array([m])), Tensor(np.ones(1)), target).data)
                for m in grid]
        best = grid[int(np.argmin(vals))]
        assert abs(best - observed) <= 1e-3 + 1e-12

    @given(st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_density(self, r, s):
        # cross-check against the Gaussian density evaluated directly
        mu = Tensor(np.array([0.0]))
        sigma = Tensor(np.array([s]))
        value = float(nll_loss(mu, sigma, np.array([r])).data)
        density = math.exp(-0.5 * (r / s) ** 2) / (s * math.sqrt(2 * math.pi))
        assert abs(value + math.log(density)) < 1e-9


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def adam_mirror(w0: np.ndarray, grads: list[np.ndarray], lr: float,
                b1: float = 0.9, b2: float = 0.999, eps: float = 1e-8) -> np.ndarray:
    w = w0.astype(np.float64).copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        w -= lr * mhat / (np.sqrt(vhat) + eps)
    return w


class TestAdam:
    def test_first_step_closed_form(self):
        # bias corrections cancel at t=1: delta = lr * g / (|g| + eps)
        w0 = np.array([1.0, -2.0, 0.5, 3.0])
        g = np.array([0.3, -0.01, 4.0, -2.5])
        p = Tensor(w0.copy(), requires_grad=True)
        p.grad = g.copy()
        opt = Adam({"w": p})
        opt.step(1e-3)
        expected = w0 - 1e-3 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(p.data, expected, rtol=0, atol=1e-15)

    def test_step_size_near_lr_for_visible_grads(self):
        # any gradient at or above 1e-2 moves the weight by essentially lr
        g = np.array([1e-2, -1e-2, 0.5, -3.0, 40.0])
        p = Tensor(np.zeros(5), requires_grad=True)
        p.grad = g.copy()
        opt = Adam({"w": p})
        opt.step(1e-4)
        assert np.all(np.abs(np.abs(p.data) - 1e-4) < 1e-4 * 1e-5)
        assert np.all(np.sign(p.data) == -np.sign(g))

    def test_multi_step_matches_mirror(self):
        rng = np.random.default_rng(2)
        w0 = rng.normal(size=(3, 4))
        grads = [rng.normal(size=(3, 4)) for _ in range(7)]
        p = Tensor(w0.copy(), requires_grad=True)
        opt = Adam({"w": p})
        for g in grads:
            p.grad = g.copy()
            opt.step(3e-4)
        np.testing.assert_allclose(p.data, adam_mirror(w0, grads, 3e-4), rtol=1e-12)

    def test_none_grad_skipped(self):
        p = Tensor(np.ones(3), requires_grad=True)
        q = Tensor(np.ones(3), requires_grad=True)
        q.grad = np.ones(3)
        opt = Adam({"p": p, "q": q})
        opt.step(1e-3)
        np.testing.assert_array_equal(p.data, np.ones(3))
        assert not np.array_equal(q.data, np.ones(3))

    def test_zero_grad_leaves_param_fixed(self):
        p = Tensor(np.full(4, 2.0), requires_grad=True)
        p.grad = np.zeros(4)
        opt = Adam({"p": p})
        opt.step(1e-2)
        np.testing.assert_array_equal(p.data, np.full(4, 2.0))

    def test_identical_grads_identical_updates(self):
        a = Tensor(np.linspace(0, 1, 6), requires_grad=True)
        b = Tensor(np.linspace(0, 1, 6), requires_grad=True)
        opt = Adam({"a": a, "b": b})
        for _ in range(3):
            g = np.arange(6, dtype=np.float64)
            a.grad = g.copy()
            b.grad = g.copy()
            opt.step(1e-3)
        np.testing.assert_array_equal(a.data, b.data)

    def test_step_counter_shared_across_params(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = Adam({"p": p})
        for _ in range(4):
            p.grad = np.ones(2)
            opt.step(1e-3)
        assert opt.t == 4

    @given(st.integers(min_value=1, max_value=9))
    @settings(max_examples=20, deadline=None)
    def test_mirror_property_over_lengths(self, steps):
        rng = np.random.default_rng(steps)
        w0 = rng.normal(size=(5,))
        grads = [rng.normal(size=(5,)) * 10.0 ** float(rng.integers(-3, 2))
                 for _ in range(steps)]
        p = Tensor(w0.copy(), requires_grad=True)
        opt = Adam({"w": p})
        for g in grads:
            p.grad = g.copy()
            opt.step(1e-3)
        np.testing.assert_allclose(p.data, adam_mirror(w0, grads, 1e-3), rtol=1e-11)


def allocating_adam(w0: np.ndarray, grads: list[np.ndarray], lr: float,
                    b1: float = 0.9, b2: float = 0.999, eps: float = 1e-8):
    """The allocating update, op for op, in w0's dtype; returns the final (w, m, v),
    where m and v are the scaled moments m/(1-b1) and v/(1-b2)."""
    w, m, v = w0.copy(), np.zeros_like(w0), np.zeros_like(w0)
    for t, g in enumerate(grads, start=1):
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        root = math.sqrt(c2 / (1.0 - b2))
        m = b1 * m + g
        v = b2 * v + g * g
        w = w - m / (np.sqrt(v) + eps * root) * (lr * (1.0 - b1) / c1 * root)
    return w, m, v


def run_adam(w0: np.ndarray, grads: list[np.ndarray], lr: float) -> Adam:
    p = Tensor(w0.copy(), requires_grad=True)
    opt = Adam({"w": p})
    for g in grads:
        p.grad = g
        opt.step(lr)
    return opt


def subnormals(a: np.ndarray) -> int:
    return int(np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)))


def assert_bitwise(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def zero_tail_grads(size: int = 64) -> list[np.ndarray]:
    """One normal gradient, then 900 zeros: m decays below float32's normal range
    from about step 810 and is still nonzero at step 901 (0.1 * 0.9**900 ~ 7e-43)."""
    first = np.random.default_rng(20).normal(size=size).astype(np.float32)
    return [first] + [np.zeros(size, np.float32)] * 900


def subnormal_product() -> float:
    """1e-20 * 1e-20 in float32: 1e-40 where subnormals survive, 0 where they flush."""
    return float((np.full(4, 1e-20, np.float32) * np.float32(1e-20))[0])


def second_step_peak(names: list[str], split: bool = False) -> int:
    """tracemalloc's peak over the second Adam step of 4 MiB float32 parameters."""
    rng = np.random.default_rng(22)
    params = {k: Tensor(rng.normal(size=1 << 20).astype(np.float32), requires_grad=True)
              for k in names}
    for p in params.values():
        p.grad = rng.normal(size=p.data.size).astype(np.float32)
    with native.workers(2 if split else 1) as run:
        opt = Adam(params, run, 2 if split else 1)
        opt.step(1e-3)   # the first step may settle lazy state and start the threads
        tracemalloc.start()
        try:
            opt.step(1e-3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.fixture
def fenv():
    if native._FENV is None:
        pytest.skip("no x86-64 libm fenv calls here; the flush scope is a no-op")


class TestAdamInPlace:
    def test_fifty_steps_bitwise_equal_to_allocating_form(self):
        rng = np.random.default_rng(21)
        w0 = rng.normal(size=(37, 11)).astype(np.float32)
        grads = [(rng.normal(size=w0.shape) * 10.0 ** rng.uniform(-3, 1)).astype(np.float32)
                 for _ in range(50)]
        opt = run_adam(w0, grads, 1e-3)
        w, m, v = allocating_adam(w0, grads, 1e-3)
        assert_bitwise(opt.params["w"].data, w)
        assert_bitwise(opt.m["w"], m)
        assert_bitwise(opt.v["w"], v)

    def test_state_arrays_keep_their_identity(self):
        p = Tensor(np.ones((4, 3), np.float32), requires_grad=True)
        opt = Adam({"p": p})
        held = (p.data, opt.m["p"], opt.v["p"])
        for k in range(3):
            p.grad = np.full((4, 3), k + 1.0, np.float32)
            opt.step(1e-2)
        assert all(a is b for a, b in zip((p.data, opt.m["p"], opt.v["p"]), held))

    def test_step_allocates_no_parameter_sized_array(self):
        assert second_step_peak(["p"]) < 64 << 10

    def test_mixed_dtypes_match_mirror(self):
        rng = np.random.default_rng(23)
        w32 = rng.normal(size=(3, 4)).astype(np.float32)
        w64 = rng.normal(size=(5,))
        g32 = [rng.normal(size=w32.shape).astype(np.float32) for _ in range(7)]
        g64 = [rng.normal(size=w64.shape) for _ in range(7)]
        a = Tensor(w32.copy(), requires_grad=True)
        b = Tensor(w64.copy(), requires_grad=True)
        opt = Adam({"a": a, "b": b})
        for ga, gb in zip(g32, g64):
            a.grad, b.grad = ga, gb
            opt.step(3e-4)
        assert a.data.dtype == np.float32 and b.data.dtype == np.float64
        np.testing.assert_allclose(a.data, adam_mirror(w32, g32, 3e-4), rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(b.data, adam_mirror(w64, g64, 3e-4), rtol=1e-12)
        assert_bitwise(a.data, allocating_adam(w32, g32, 3e-4)[0])
        assert_bitwise(b.data, allocating_adam(w64, g64, 3e-4)[0])


class TestAdamFlush:
    def test_zero_grad_tail_leaves_no_subnormal_and_same_weights(self, fenv):
        w0 = np.random.default_rng(24).normal(size=64).astype(np.float32)
        grads = zero_tail_grads()
        w, m, _ = allocating_adam(w0, grads, 1e-3)
        assert subnormals(m) == 64   # the allocating form keeps every m subnormal
        opt = run_adam(w0, grads, 1e-3)
        assert opt.subnormals_flushed
        assert subnormals(opt.m["w"]) == 0
        assert_bitwise(opt.params["w"].data, w)

    def test_scope_flushes_and_restores(self, fenv):
        assert subnormal_product() != 0.0
        with native.flush_subnormals() as flushed:
            assert flushed and subnormal_product() == 0.0
        assert subnormal_product() != 0.0

    def test_mxcsr_restored_after_a_step_and_a_raising_step(self, fenv):
        p = Tensor(np.ones(8, np.float32), requires_grad=True)
        p.grad = np.ones(8, np.float32)
        opt = Adam({"p": p})
        opt.step(1e-3)
        assert subnormal_product() != 0.0
        p.grad = np.ones(5, np.float32)   # wrong shape: the update raises mid-scope
        with pytest.raises(ValueError):
            opt.step(1e-3)
        assert subnormal_product() != 0.0

    def test_without_libm_step_is_bitwise_equal(self, monkeypatch):
        monkeypatch.setattr(native, "_FENV", None)
        w0 = np.random.default_rng(25).normal(size=64).astype(np.float32)
        grads = zero_tail_grads()
        opt = run_adam(w0, grads, 1e-3)
        w, m, v = allocating_adam(w0, grads, 1e-3)
        assert not opt.subnormals_flushed
        assert_bitwise(opt.params["w"].data, w)
        assert_bitwise(opt.m["w"], m)
        assert_bitwise(opt.v["w"], v)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def labelled_corpus(n=6, steps=11, c=2, side=4) -> np.ndarray:
    # frame value encodes (sequence, step) so a batch can be traced exactly
    seqs = np.zeros((n, steps, c, side, side), dtype=np.float64)
    for i in range(n):
        for s in range(steps):
            seqs[i, s] = i * 100 + s
    return seqs


class TestSampleBatch:
    def test_windows_are_consecutive_prefixes(self):
        seqs = labelled_corpus()
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y = sample_batch(seqs, rng, batch_size=5, t_min=2, t_max=10)
            t = x.shape[1]
            assert 2 <= t <= 10
            assert x.shape == (5, t, 2, 4, 4)
            assert y.shape == (5, 2, 4, 4)
            for i in range(5):
                seq_id = int(x[i, 0].flat[0]) // 100
                for j in range(t):
                    assert np.all(x[i, j] == seq_id * 100 + j)
                assert np.all(y[i] == seq_id * 100 + t)

    def test_window_length_spans_range(self):
        seqs = labelled_corpus()
        rng = np.random.default_rng(4)
        lengths = {sample_batch(seqs, rng, 2, 2, 10)[0].shape[1] for _ in range(60)}
        assert lengths <= set(range(2, 11))
        assert len(lengths) >= 5

    def test_deterministic_for_seeded_rng(self):
        seqs = labelled_corpus()
        a = sample_batch(seqs, np.random.default_rng(7), 4, 2, 10)
        b = sample_batch(seqs, np.random.default_rng(7), 4, 2, 10)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_crop_is_contiguous_block(self):
        # spatial ramp makes every crop identifiable by its corner value
        n, steps, side, window = 3, 11, 8, 4
        seqs = np.zeros((n, steps, 1, side, side))
        ramp = np.arange(side * side, dtype=np.float64).reshape(side, side)
        seqs[:, :, 0] = ramp
        rng = np.random.default_rng(5)
        x, y = sample_batch(seqs, rng, 6, 2, 10, window=window)
        assert x.shape[-2:] == (window, window)
        assert y.shape[-2:] == (window, window)
        for i in range(6):
            corner = x[i, 0, 0, 0, 0]
            r, c = int(corner) // side, int(corner) % side
            block = ramp[r:r + window, c:c + window]
            for j in range(x.shape[1]):
                np.testing.assert_array_equal(x[i, j, 0], block)
            np.testing.assert_array_equal(y[i, 0], block)

    def test_full_window_matches_no_crop(self):
        seqs = labelled_corpus(side=4)
        a = sample_batch(seqs, np.random.default_rng(9), 4, 2, 10, window=4)
        b = sample_batch(seqs, np.random.default_rng(9), 4, 2, 10, window=None)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_short_corpus_rejected(self):
        seqs = labelled_corpus(steps=10)  # t_max=10 needs 11 frames
        with pytest.raises(ValidationError):
            sample_batch(seqs, np.random.default_rng(0), 2, 2, 10)

    def test_oversized_crop_rejected(self):
        seqs = labelled_corpus(side=4)
        with pytest.raises(ValidationError):
            sample_batch(seqs, np.random.default_rng(0), 2, 2, 10, window=5)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def small_corpus(seed=0, n=8, steps=11, c=2, side=4, scale=0.1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=(n, steps, c, side, side)).astype(np.float32)


class TestTrainLoop:
    def test_deterministic_reruns(self):
        cfg = TrainConfig(batch_size=4, epochs=3, lr_initial=1e-3,
                          lr_after_decay=1e-4, decay_epoch=2, steps_per_epoch=4, seed=0)
        runs = []
        for _ in range(2):
            model = Model(tiny_cfg(), seed=11)
            runs.append(train(model, cfg, small_corpus()))
        assert runs[0].loss_rows == runs[1].loss_rows
        for name in runs[0].model.params:
            np.testing.assert_array_equal(runs[0].model.params[name].data,
                                          runs[1].model.params[name].data)

    def test_loss_rows_and_csv_shape(self):
        cfg = TrainConfig(batch_size=4, epochs=3, lr_initial=1e-3,
                          lr_after_decay=1e-4, decay_epoch=2, steps_per_epoch=2, seed=1)
        res = train(Model(tiny_cfg(), seed=0), cfg, small_corpus())
        assert res.completed_epochs == 3
        assert not res.diverged
        assert [row[0] for row in res.loss_rows] == [1, 2, 3]
        assert [row[2] for row in res.loss_rows] == [1e-3, 1e-3, 1e-4]
        assert all(math.isfinite(row[1]) for row in res.loss_rows)
        lines = res.loss_csv().splitlines()
        assert lines[0] == "epoch,mean_nll,lr"
        assert len(lines) == 4
        for line, row in zip(lines[1:], res.loss_rows):
            parts = line.split(",")
            assert int(parts[0]) == row[0]
            assert abs(float(parts[1]) - row[1]) < 1e-6 * max(1.0, abs(row[1]))

    def test_loss_decreases_on_easy_corpus(self):
        # near-constant logits: predicting the running frame is learnable fast
        cfg = TrainConfig(batch_size=4, epochs=6, lr_initial=3e-3,
                          lr_after_decay=3e-3, decay_epoch=6, steps_per_epoch=8, seed=2)
        res = train(Model(tiny_cfg(), seed=3), cfg, small_corpus(scale=0.05))
        assert res.loss_rows[-1][1] < res.loss_rows[0][1]

    def test_default_steps_per_epoch_is_ceil(self):
        # N=8, batch 3 -> 3 steps; an explicit 3 must reproduce the same run
        cfg_none = TrainConfig(batch_size=3, epochs=2, lr_initial=1e-3,
                               lr_after_decay=1e-3, decay_epoch=2, seed=4)
        cfg_three = TrainConfig(batch_size=3, epochs=2, lr_initial=1e-3,
                                lr_after_decay=1e-3, decay_epoch=2,
                                steps_per_epoch=3, seed=4)
        res_a = train(Model(tiny_cfg(), seed=5), cfg_none, small_corpus())
        res_b = train(Model(tiny_cfg(), seed=5), cfg_three, small_corpus())
        assert res_a.loss_rows == res_b.loss_rows

    def test_transformer_t_max_past_max_t_rejected_before_a_step(self):
        # it used to fail only once a batch drew a window past max_t, at a step that
        # depended on the seed, naming neither setting
        model = Model(tiny_cfg(max_t=4), seed=0)
        before = {k: p.data.copy() for k, p in model.params.items()}
        cfg = TrainConfig(batch_size=1, epochs=1, steps_per_epoch=64, t_max=5)
        with pytest.raises(ValidationError, match="^t_max 5 exceeds the transformer's max_t 4$"):
            train(model, cfg, small_corpus())
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, before[name])

    def test_gru_takes_windows_past_max_t(self):
        cfg = TrainConfig(batch_size=1, epochs=1, steps_per_epoch=2, t_min=6, t_max=10)
        res = train(Model(tiny_cfg(kind="gru", max_t=4), seed=0), cfg, small_corpus())
        assert res.completed_epochs == 1 and not res.diverged

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_corpus_rejected_before_a_forward(self, bad, monkeypatch):
        # one bad value used to warn and then diverge, or pass unnoticed when the
        # sampler never drew its sequence
        model = Model(tiny_cfg(), seed=0)
        monkeypatch.setattr(model, "forward", lambda *a, **k: pytest.fail("forward ran"))
        corpus = small_corpus()
        corpus[5, 10, 1, 3, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^corpus contains non-finite values$"):
                train(model, TrainConfig(batch_size=2, epochs=1, steps_per_epoch=1), corpus)

    @staticmethod
    def train_under_optimize(corpus: str) -> tuple:
        """(exit code, stdout, stderr) of `train` on the corpus that the code `corpus`
        builds, run by python -O (no asserts) -W error (any warning raises)."""
        return run_under_optimize(
            "import numpy as np\n"
            "from sardist.errors import ValidationError\n"
            "from sardist.model import Model, ModelConfig\n"
            "from sardist.training import TrainConfig, train\n"
            f"{corpus}\n"
            "model = Model(ModelConfig(input_size=4, patch_size=2, d_model=8, num_heads=2,"
            " num_layers=1, ff_dim=8), seed=0)\n"
            "try:\n"
            "    train(model, TrainConfig(batch_size=2, epochs=1), corpus)\n"
            "except ValidationError as exc:\n"
            "    print(exc)\n")

    @pytest.mark.parametrize("big", [1e300, -1e300])
    def test_float64_corpus_past_float32_range_rejected(self, big, monkeypatch):
        # finite as float64 but inf in the model's float32: it used to warn in the
        # model's cast and then report a divergence
        model = Model(tiny_cfg(), seed=0)
        monkeypatch.setattr(model, "forward", lambda *a, **k: pytest.fail("forward ran"))
        corpus = small_corpus().astype(np.float64)
        corpus[5, 10, 1, 3, 2] = big
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^corpus contains non-finite values$"):
                train(model, TrainConfig(batch_size=2, epochs=1, steps_per_epoch=1), corpus)

    def test_float32_corpus_not_copied(self, monkeypatch):
        # the cast to the model's dtype draws batches from the caller's own array
        class Drawn(Exception):
            pass

        def record(sequences, *args, **kwargs):
            seen.append(sequences)
            raise Drawn

        seen, corpus = [], small_corpus()
        monkeypatch.setattr(training, "sample_batch", record)
        with pytest.raises(Drawn):
            train(Model(tiny_cfg(), seed=0), TrainConfig(batch_size=2, epochs=1), corpus)
        assert seen[0] is corpus

    def test_corpus_rank_checked(self):
        with pytest.raises(ValidationError):
            train(Model(tiny_cfg(), seed=0), TrainConfig(),
                  np.zeros((4, 11, 2, 4)))

    @pytest.mark.parametrize("corpus, message", [
        (small_corpus()[:0], r"corpus is empty, shape \(0, 11, 2, 4, 4\)"),
        (small_corpus()[:, :, :, :0], r"corpus is empty, shape \(8, 11, 2, 0, 4\)"),
        ("abc", "corpus must be numeric, got dtype <U3"),
        (small_corpus().astype(complex), "corpus must be numeric, got dtype complex128"),
    ], ids=["no-sequences", "no-columns", "string", "complex"])
    def test_empty_or_non_numeric_corpus_rejected_before_a_step(self, corpus, message,
                                                                  monkeypatch, started):
        # they used to raise numpy's bare ValueError (`high <= 0` from the batch
        # draw, or `could not convert string to float`)
        model = Model(tiny_cfg(), seed=0)
        monkeypatch.setattr(model, "forward", lambda *a, **k: pytest.fail("forward ran"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^{message}$"):
                train(model, TrainConfig(batch_size=1, epochs=1, steps_per_epoch=1), corpus)
        assert started == []

    @pytest.mark.parametrize("corpus, message", [
        ("corpus = np.zeros((0, 11, 2, 4, 4), np.float32)",
         "corpus is empty, shape (0, 11, 2, 4, 4)"),
        ("corpus = 'abc'", "corpus must be numeric, got dtype <U3"),
    ], ids=["empty", "string"])
    def test_empty_or_non_numeric_corpus_rejected_under_optimize(self, corpus, message):
        assert self.train_under_optimize(corpus) == (0, message + "\n", "")

    def test_stats_record_run_facts(self):
        cfg = TrainConfig(batch_size=2, epochs=3, lr_initial=1e-3, lr_after_decay=1e-3,
                          decay_epoch=3, steps_per_epoch=2, seed=3)
        stats = {}
        plain = train(Model(tiny_cfg(), seed=7), cfg, small_corpus())
        res = train(Model(tiny_cfg(), seed=7), cfg, small_corpus(), stats)
        assert sorted(stats) == ["blas_capped", "cpu_s", "epoch_step_seconds", "malloc_pinned",
                                 "subnormals_flushed"]
        assert isinstance(stats["malloc_pinned"], bool)
        assert stats["subnormals_flushed"] is (native._FENV is not None)
        assert stats["blas_capped"] is False and stats["cpu_s"] > 0   # batch 2 keeps threads
        assert len(stats["epoch_step_seconds"]) == 3
        assert all(s > 0 for s in stats["epoch_step_seconds"])
        assert res.loss_csv() == plain.loss_csv()   # timings stay out of loss.csv

    def test_without_glibc_allocator_calls_is_unchanged(self, monkeypatch):
        cfg = TrainConfig(batch_size=2, epochs=2, lr_initial=1e-3, lr_after_decay=1e-3,
                          decay_epoch=2, steps_per_epoch=2, seed=4)
        before = train(Model(tiny_cfg(), seed=8), cfg, small_corpus())
        monkeypatch.setattr(training, "pin_malloc", cache(native.pin_malloc.__wrapped__))
        monkeypatch.setattr(native.ctypes, "CDLL", lambda name: SimpleNamespace())
        stats = {}
        after = train(Model(tiny_cfg(), seed=8), cfg, small_corpus(), stats)
        assert stats["malloc_pinned"] is False
        assert after.loss_rows == before.loss_rows
        for name, p in after.model.params.items():
            assert_bitwise(p.data, before.model.params[name].data)

    def test_epoch_end_allocates_no_parameter_sized_array(self, monkeypatch):
        # the rollback copy is refreshed in place: from the end of each Adam step to
        # the next batch draw, epoch ends included, nothing parameter-sized is made
        model = Model(tiny_cfg(d_model=32, ff_dim=1024), seed=0)
        largest = max(p.data.nbytes for p in model.params.values())
        assert largest >= 128 << 10
        step, sample = Adam.step, training.sample_batch
        marks, peaks = [], []

        def step_then_mark(opt, lr):
            step(opt, lr)
            tracemalloc.reset_peak()
            marks.append(tracemalloc.get_traced_memory()[0])

        def measure_then_sample(*args, **kwargs):
            if marks:
                peaks.append(tracemalloc.get_traced_memory()[1] - marks[-1])
            return sample(*args, **kwargs)

        monkeypatch.setattr(Adam, "step", step_then_mark)
        monkeypatch.setattr(training, "sample_batch", measure_then_sample)
        cfg = TrainConfig(batch_size=1, epochs=3, lr_initial=1e-3, lr_after_decay=1e-3,
                          decay_epoch=3, steps_per_epoch=2, seed=9)
        tracemalloc.start()
        try:
            res = train(model, cfg, small_corpus())
        finally:
            tracemalloc.stop()
        assert res.completed_epochs == 3 and len(peaks) == 5
        assert max(peaks) < largest // 4

    def test_hands_no_heap_back(self, monkeypatch):
        # a trim here frees little and makes the next training fault its buffers in
        calls = []
        libc = SimpleNamespace(mallopt=lambda param, value: calls.append("mallopt") or 1,
                               malloc_trim=lambda pad: calls.append("malloc_trim") or 1)
        monkeypatch.setattr(training, "pin_malloc", cache(native.pin_malloc.__wrapped__))
        monkeypatch.setattr(native.ctypes, "CDLL", lambda name: libc)
        cfg = TrainConfig(batch_size=2, epochs=2, steps_per_epoch=2, seed=4)
        stats = {}
        train(Model(tiny_cfg(), seed=8), cfg, small_corpus(), stats)
        assert stats["malloc_pinned"] is True
        assert calls == ["mallopt", "mallopt"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_rolls_back_to_init(self):
        # an absurd learning rate blows up inside epoch 1; the model must come
        # back untouched
        cfg = TrainConfig(batch_size=2, epochs=3, lr_initial=1e10,
                          lr_after_decay=1e10, decay_epoch=2,
                          steps_per_epoch=4, seed=0)
        model = Model(tiny_cfg(), seed=0)
        stats = {}
        res = train(model, cfg, small_corpus(scale=4.0), stats)
        assert res.diverged
        assert stats["epoch_step_seconds"] == []
        assert res.completed_epochs == 0
        assert res.loss_rows == []
        fresh = Model(tiny_cfg(), seed=0)
        for name in model.params:
            np.testing.assert_array_equal(model.params[name].data,
                                          fresh.params[name].data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_mid_run_keeps_last_finished_epoch(self):
        # poison a sequence that the seeded sampler first touches after epoch 1,
        # so the rollback target is the epoch-1 state rather than the init
        n, batch = 8, 3
        seed = None
        for candidate in range(64):
            rng = np.random.default_rng(splitmix64(candidate, 1))
            draws = []
            for _ in range(3):
                rng.integers(2, 11)
                draws.append(set(rng.integers(0, n, batch).tolist()))
            later = (draws[1] | draws[2]) - draws[0]
            if later:
                seed = candidate
                poison = min(later)
                poison_epoch = 2 if poison in draws[1] else 3
                break
        assert seed is not None
        corpus = small_corpus(n=n)
        # finite, so train takes the corpus, but the forward overflows on it
        corpus[poison] = np.finfo(np.float32).max
        cfg = TrainConfig(batch_size=batch, epochs=3, lr_initial=1e-3,
                          lr_after_decay=1e-3, decay_epoch=3,
                          steps_per_epoch=1, seed=seed)
        model = Model(tiny_cfg(), seed=6)
        res = train(model, cfg, corpus)
        assert res.diverged
        assert res.completed_epochs == poison_epoch - 1
        # replaying only the finished epochs lands on the rolled-back weights
        replay_cfg = TrainConfig(batch_size=batch, epochs=poison_epoch - 1,
                                 lr_initial=1e-3, lr_after_decay=1e-3,
                                 decay_epoch=3, steps_per_epoch=1, seed=seed)
        replay = Model(tiny_cfg(), seed=6)
        train(replay, replay_cfg, corpus)
        for name in model.params:
            np.testing.assert_array_equal(model.params[name].data,
                                          replay.params[name].data)


class TestTrainBlasCap:
    CFG = TrainConfig(batch_size=1, epochs=2, lr_initial=1e-3, lr_after_decay=1e-3,
                      decay_epoch=2, steps_per_epoch=2, seed=5)

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

    @pytest.fixture
    def seen(self, get, monkeypatch):
        """The BLAS thread count at each Adam step of a training run."""
        counts, step = [], Adam.step
        monkeypatch.setattr(Adam, "step", lambda opt, lr: (counts.append(get()), step(opt, lr)))
        return counts

    def test_batch_one_steps_run_at_one_thread_and_restore(self, get, seen):
        stats = {}
        train(Model(tiny_cfg(), seed=1), self.CFG, small_corpus(), stats)
        assert seen == [1] * 4 and stats["blas_capped"] is True
        assert get() == 2

    def test_batch_two_is_not_capped(self, get, seen):
        stats = {}
        train(Model(tiny_cfg(), seed=1), replace(self.CFG, batch_size=2), small_corpus(), stats)
        assert seen == [2] * 4 and stats["blas_capped"] is False
        assert get() == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_count_restored_after_divergence(self, get, seen):
        cfg = replace(self.CFG, lr_initial=1e10, lr_after_decay=1e10)
        stats = {}
        assert train(Model(tiny_cfg(), seed=0), cfg, small_corpus(scale=4.0), stats).diverged
        assert seen and set(seen) == {1} and stats["blas_capped"] is True
        assert get() == 2


# ---------------------------------------------------------------------------
# Adam workers
# ---------------------------------------------------------------------------

@pytest.fixture
def adam_threads(monkeypatch):
    """The id of the thread of each flush scope that Adam opens, from now on."""
    flush, threads = training.flush_subnormals, []

    @contextmanager
    def recording_flush():
        threads.append(threading.get_ident())
        with flush() as flushed:
            yield flushed
    monkeypatch.setattr(training, "flush_subnormals", recording_flush)
    return threads


@pytest.fixture
def split(monkeypatch):
    """Batch-1 training splits Adam at any model size."""
    if native._BLAS is None:
        pytest.skip("numpy's bundled OpenBLAS thread symbols not found; Adam keeps one worker")
    monkeypatch.setattr(training, "_ADAM_SPLIT_FLOATS", 1)


class TestAdamWorkers:
    CFG = TrainConfig(batch_size=1, epochs=3, lr_initial=1e-3, lr_after_decay=1e-4,
                      decay_epoch=2, steps_per_epoch=3, seed=6)

    @pytest.mark.parametrize("kind", ["transformer", "gru"])
    def test_bytes_do_not_depend_on_cores(self, kind, split, adam_threads, monkeypatch,
                                          tmp_path):
        outputs = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # hand the GIL between workers as often as possible
        try:
            for cores in (1, 2, 8):
                monkeypatch.setattr(native, "usable_cores", lambda: cores)
                adam_threads.clear()
                res = train(Model(tiny_cfg(kind=kind), seed=4), self.CFG, small_corpus())
                save_checkpoint(res.model, str(tmp_path / str(cores)))
                outputs.append((res.loss_csv(), {f.name: f.read_bytes()
                                                 for f in (tmp_path / str(cores)).iterdir()}))
                # a flush scope per worker and step, two workers at most
                assert len(adam_threads) == 9 * min(cores, 2)
                assert (len(set(adam_threads)) > 1) is (cores > 1)
        finally:
            sys.setswitchinterval(switch)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_mixed_dtypes_bytes_equal_at_one_and_more_workers(self, workers):
        rng = np.random.default_rng(26)
        w0 = [rng.normal(size=shape).astype(dt) for shape, dt in
              (((370, 11), np.float32), ((5,), np.float64), ((3000,), np.float32),
               ((90, 9), np.float64), ((3,), np.float32), ((2000,), np.float64))]
        grads = [[(rng.normal(size=w.shape) * 10.0 ** rng.uniform(-3, 1)).astype(w.dtype)
                  for w in w0] for _ in range(50)]

        def steps(run=None, n=1):
            params = {f"p{i}": Tensor(w.copy(), requires_grad=True) for i, w in enumerate(w0)}
            opt = Adam(params, run, n)
            for step_grads in grads:
                for p, g in zip(params.values(), step_grads):
                    p.grad = g
                opt.step(1e-3)
            return [(p.data.dtype, p.data.tobytes(), opt.m[k].tobytes(), opt.v[k].tobytes())
                    for k, p in params.items()]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # hand the GIL between workers as often as possible
        try:
            with native.workers(workers) as run:
                assert steps(run, workers) == steps()
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("ending", ["returns", "diverges", "raises"])
    def test_no_thread_outlives_train(self, ending, split, adam_threads, monkeypatch):
        monkeypatch.setattr(native, "usable_cores", lambda: 4)
        model, cfg, corpus = Model(tiny_cfg(), seed=0), self.CFG, small_corpus()
        if ending == "diverges":
            cfg = replace(cfg, lr_initial=1e10, lr_after_decay=1e10)
            corpus = small_corpus(scale=4.0)
        if ending == "raises":
            forward, calls = model.forward, []

            def fourth_forward_fails(*args, **kwargs):
                calls.append(1)
                if len(calls) == 4:
                    raise MemoryError("forward")
                return forward(*args, **kwargs)
            monkeypatch.setattr(model, "forward", fourth_forward_fails)
        before = threading.active_count()
        if ending == "raises":
            with pytest.raises(MemoryError, match="forward"):
                train(model, cfg, corpus)
        else:
            assert train(model, cfg, corpus).diverged is (ending == "diverges")
        assert len(set(adam_threads)) > 1
        assert threading.active_count() == before

    def test_worker_error_reaches_the_caller(self, fenv, monkeypatch):
        caller, flush = threading.get_ident(), training.flush_subnormals

        @contextmanager
        def flush_failing_in_workers():
            with flush() as flushed:
                yield flushed
                if threading.get_ident() != caller:
                    raise MemoryError("adam worker")
        monkeypatch.setattr(training, "flush_subnormals", flush_failing_in_workers)
        params = {k: Tensor(np.ones(8, np.float32), requires_grad=True) for k in "pq"}
        for p in params.values():
            p.grad = np.ones(8, np.float32)
        with native.workers(2) as run:
            opt = Adam(params, run, 2)
            with pytest.raises(MemoryError, match="adam worker"):
                opt.step(1e-3)
            products = {}
            run(lambda worker: products.update({worker: subnormal_product()}))
            assert products[0] != 0.0 and products[1] != 0.0   # the caller's and the worker's

    def test_worker_flushes_subnormals(self, fenv, adam_threads):
        # two equal parameters: worker 0 (the caller) steps "a", worker 1 steps "w"
        w0 = np.random.default_rng(24).normal(size=64).astype(np.float32)
        grads = zero_tail_grads()
        params = {k: Tensor(w0.copy(), requires_grad=True) for k in ("a", "w")}
        with native.workers(2) as run:
            opt = Adam(params, run, 2)
            for g in grads:
                params["a"].grad, params["w"].grad = np.zeros_like(g), g
                opt.step(1e-3)
        assert len(set(adam_threads)) == 2 and threading.get_ident() in adam_threads
        assert subnormals(opt.m["w"]) == 0
        assert_bitwise(params["w"].data, allocating_adam(w0, grads, 1e-3)[0])

    def test_two_worker_step_allocates_no_parameter_sized_array(self):
        assert second_step_peak(["a", "b"], split=True) < 64 << 10

    @pytest.mark.parametrize("batch, cores, floor, threads", [
        (2, 2, 1, 0),          # BLAS owns the cores
        (1, 1, 1, 0),          # one core
        (1, 2, None, 0),       # a model under the split floor
        (1, 2, 1, 1),          # the split: one pool thread
        (1, 8, 1, 1),          # more cores: still one pool thread
    ])
    def test_threads_started(self, batch, cores, floor, threads, monkeypatch, started):
        if threads and native._BLAS is None:
            pytest.skip("numpy's bundled OpenBLAS thread symbols not found; Adam keeps one worker")
        if floor is not None:
            monkeypatch.setattr(training, "_ADAM_SPLIT_FLOATS", floor)
        monkeypatch.setattr(native, "usable_cores", lambda: cores)
        cfg = replace(self.CFG, batch_size=batch)
        train(Model(tiny_cfg(), seed=0), cfg, small_corpus())
        assert len(started) == threads

    def test_adam_alone_starts_no_thread(self, started):
        p = Tensor(np.ones((1 << 20) + 1, np.float32), requires_grad=True)
        p.grad = np.ones_like(p.data)
        Adam({"p": p}).step(1e-3)
        assert started == []


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

class TestRelativeError:
    def test_exact_match_is_zero(self):
        assert relative_error(3.0, 3.0) == 0.0
        assert relative_error(0.0, 0.0) == 0.0

    def test_floor_caps_blowup_near_zero(self):
        assert relative_error(1e-12, 0.0) == pytest.approx(1e-4)

    def test_symmetric(self):
        assert relative_error(2.0, 3.0) == relative_error(3.0, 2.0)

    @given(st.floats(min_value=-1e3, max_value=1e3),
           st.floats(min_value=-1e3, max_value=1e3))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_zero_iff_equal(self, a, b):
        err = relative_error(a, b)
        assert err >= 0.0
        if a == b:
            assert err == 0.0


class TestGradientCheck:
    def test_tiny_transformer_passes(self):
        rng = np.random.default_rng(0)
        model = Model(tiny_cfg(), seed=1)
        x = rng.normal(size=(2, 4, 2, 4, 4))
        y = rng.normal(size=(2, 2, 4, 4))
        report = gradient_check(model, x, y, num_probes=60, h=1e-5, seed=0)
        assert report.passed
        assert report.max_relative_error < 1e-5
        assert len(report.probes) == 60

    def test_probe_bookkeeping(self):
        rng = np.random.default_rng(1)
        model = Model(tiny_cfg(), seed=2)
        x = rng.normal(size=(1, 3, 2, 4, 4))
        y = rng.normal(size=(1, 2, 4, 4))
        report = gradient_check(model, x, y, num_probes=25, h=1e-5, seed=3)
        seen = set()
        for name, flat, analytic, fd, rel in report.probes:
            assert name in model.params
            assert 0 <= flat < model.params[name].data.size
            assert rel == relative_error(analytic, fd)
            seen.add((name, flat))
        assert len(seen) == 25  # probes are distinct weights

    def test_probe_selection_deterministic(self):
        rng = np.random.default_rng(2)
        model = Model(tiny_cfg(), seed=4)
        x = rng.normal(size=(1, 3, 2, 4, 4))
        y = rng.normal(size=(1, 2, 4, 4))
        a = gradient_check(model, x, y, num_probes=20, h=1e-5, seed=9)
        b = gradient_check(model, x, y, num_probes=20, h=1e-5, seed=9)
        assert a.probes == b.probes

    def test_detects_corrupted_backward(self, monkeypatch):
        # a 1.3x error injected into the relu backward must trip the check
        def bad_relu(x, overwrite_x=False):
            out_data = np.maximum(x.data, 0)

            def back(g):
                if x.requires_grad:
                    x.accumulate(g * (x.data > 0) * 1.3)

            return Tensor(out_data, parents=(x,), backward=back)

        monkeypatch.setattr(model_module, "relu", bad_relu)
        rng = np.random.default_rng(3)
        model = Model(tiny_cfg(), seed=5)
        x = rng.normal(size=(2, 4, 2, 4, 4))
        y = rng.normal(size=(2, 2, 4, 4))
        report = gradient_check(model, x, y, num_probes=60, h=1e-5, seed=0)
        assert not report.passed
        assert report.max_relative_error > 0.1

    def test_default_recurrent_model_gradients(self):
        # the recurrent baseline needs a smaller step: its gradients span many
        # decades, so the pass condition is absolute-or-relative per probe
        rng = np.random.default_rng(4)
        model = Model(ModelConfig.gru_default(), seed=0)
        x = rng.normal(size=(1, 5, 2, 8, 8))
        y = rng.normal(size=(1, 2, 8, 8))
        report = gradient_check(model, x, y, num_probes=80, h=1e-6, seed=0)
        for name, flat, analytic, fd, rel in report.probes:
            assert abs(analytic - fd) < 1e-9 or rel < 1e-4
        big = [p for p in report.probes if max(abs(p[2]), abs(p[3])) >= 1e-5]
        assert len(big) >= 10
        assert all(p[4] < 1e-4 for p in big)
