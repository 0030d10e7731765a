"""Tests for the training loop: objective, optimizer, batching, gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sardist import model as model_module
from sardist.autodiff import Tensor
from sardist.errors import ValidationError
from sardist.model import Model, ModelConfig
from sardist.synth import splitmix64
from sardist.training import (
    Adam,
    TrainConfig,
    lr_at,
    nll_loss,
    sample_batch,
    train,
)

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
        TrainConfig().validate()

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
            TrainConfig(**kw).validate()

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
        opt = Adam({"w": p}, beta1=0.9, beta2=0.999, eps=1e-8)
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

    def test_corpus_rank_checked(self):
        with pytest.raises(ValidationError):
            train(Model(tiny_cfg(), seed=0), TrainConfig(),
                  np.zeros((4, 11, 2, 4)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_rolls_back_to_init(self):
        # an absurd learning rate blows up inside epoch 1; the model must come
        # back untouched
        cfg = TrainConfig(batch_size=2, epochs=3, lr_initial=1e10,
                          lr_after_decay=1e10, decay_epoch=2,
                          steps_per_epoch=4, seed=0)
        model = Model(tiny_cfg(), seed=0)
        res = train(model, cfg, small_corpus(scale=4.0))
        assert res.diverged
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
        corpus[poison] = np.nan
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
