"""Model architecture tests.

The param-count oracles below are computed from the layer shapes by hand in
`expected_*_params`, independently of the parameter dict, and the frozen
totals pin the architecture against silent drift. The forward passes are
checked against plain-numpy mirror implementations written from the module
docstring (explicit patch loops, no shared tensor code).
"""

import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from sardist.autodiff import no_grad
from sardist.errors import FormatError, ShapeError, ValidationError
from sardist.model import (Model, ModelConfig, load_checkpoint, patch_split,
                           save_checkpoint)

from conftest import edit_header, payload_offset
from gradcheck import cast


def expected_transformer_params(cfg: ModelConfig) -> int:
    d, ff, hh = cfg.d_model, cfg.ff_dim, cfg.resolved_head_hidden
    pd, npf = cfg.patch_dim, cfg.patches_per_frame
    total = pd * d + d                      # embed
    total += npf * d + cfg.max_t * d        # positional tables
    per_layer = (4 * d                      # two layer norms
                 + 4 * (d * d + d)          # q, k, v, o projections
                 + d * ff + ff              # ff1
                 + ff * d + d)              # ff2
    total += cfg.num_layers * per_layer
    total += 2 * d                          # final layer norm
    total += 2 * (d * hh + hh + hh * pd + pd)   # mu and sigma heads
    return total


def expected_gru_params(cfg: ModelConfig) -> int:
    h, hh, fd = cfg.d_model, cfg.resolved_head_hidden, cfg.frame_dim
    total = 0
    for layer in range(cfg.num_layers):
        fan_in = fd if layer == 0 else h
        total += fan_in * 3 * h + h * 3 * h + 6 * h
    total += 2 * (h * hh + hh + hh * fd + fd)
    return total


class TestParameterCounts:
    def test_default_transformer_frozen(self):
        model = Model(ModelConfig())
        count = model.parameter_count()
        assert count == expected_transformer_params(model.cfg)
        assert count == 3_262_464
        assert abs(count - 3.3e6) / 3.3e6 < 0.05

    def test_default_gru_frozen(self):
        model = Model(ModelConfig.gru_default())
        count = model.parameter_count()
        assert count == expected_gru_params(model.cfg)
        assert count == 3_255_040
        assert abs(count - 3.3e6) / 3.3e6 < 0.05

    def test_small_preset(self):
        count = Model(ModelConfig(ff_dim=512, num_layers=2)).parameter_count()
        assert count == 1_485_824
        assert abs(count - 1.5e6) / 1.5e6 < 0.10

    def test_mid_preset_equals_default(self):
        assert Model(ModelConfig(ff_dim=768, num_layers=4)).parameter_count() == 3_262_464

    def test_large_preset(self):
        count = Model(ModelConfig(ff_dim=1024, num_layers=8)).parameter_count()
        assert count == 7_143_936
        assert abs(count - 7.1e6) / 7.1e6 < 0.10

    def test_input_patch_presets_token_grid(self):
        for size, patch, tokens_per_frame in ((16, 8, 4), (32, 8, 16), (32, 16, 4)):
            cfg = ModelConfig(input_size=size, patch_size=patch)
            assert cfg.patches_per_frame == tokens_per_frame


def patch_merge(patches: np.ndarray, patch: int, size: int, channels: int = 2) -> np.ndarray:
    """Inverse of patch_split, (..., Np, C*patch*patch) -> (..., C, S, S): the
    round trip TestTokenLayout checks."""
    *lead, np_, pd = patches.shape
    n = size // patch
    if np_ != n * n or pd != channels * patch * patch:
        raise ShapeError(f"patch array {patches.shape} does not tile a "
                         f"{channels}x{size}x{size} frame with patch {patch}")
    x = patches.reshape(*lead, n, n, channels, patch, patch)
    x = np.moveaxis(x, (-5, -4), (-4, -2))  # (..., c, n, patch, n, patch)
    return np.ascontiguousarray(x).reshape(*lead, channels, size, size)


class TestTokenLayout:
    def test_forty_tokens_for_ten_frames(self):
        cfg = ModelConfig()
        frames = np.zeros((1, 10, 2, 16, 16), dtype=np.float32)
        tokens = patch_split(frames, cfg.patch_size)
        assert tokens.shape == (1, 10, 4, 128)
        assert tokens.shape[1] * tokens.shape[2] == 40

    def test_patch_split_hand_case(self):
        # S=2, P=1: four patches in row-major order, each [vv, vh]
        frame = np.array([[[1.0, 2.0], [3.0, 4.0]],
                          [[10.0, 20.0], [30.0, 40.0]]])
        tokens = patch_split(frame, 1)
        assert np.array_equal(tokens, [[1.0, 10.0], [2.0, 20.0],
                                       [3.0, 30.0], [4.0, 40.0]])

    def test_patch_split_channel_major_within_patch(self):
        frame = np.arange(2 * 4 * 4, dtype=np.float64).reshape(2, 4, 4)
        tokens = patch_split(frame, 2)
        # patch 0 covers rows 0-1, cols 0-1, flattened channel-first
        assert np.array_equal(tokens[0], [0, 1, 4, 5, 16, 17, 20, 21])
        # patch 1 covers rows 0-1, cols 2-3
        assert np.array_equal(tokens[1], [2, 3, 6, 7, 18, 19, 22, 23])

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        frames = rng.normal(size=(3, 5, 2, 16, 16)).astype(np.float32)
        back = patch_merge(patch_split(frames, 8), 8, 16)
        assert np.array_equal(back, frames)

    def test_split_rejects_bad_geometry(self):
        with pytest.raises(ShapeError):
            patch_split(np.zeros((2, 16, 16)), 5)
        with pytest.raises(ShapeError):
            patch_split(np.zeros((2, 16, 8)), 8)

    def test_merge_rejects_wrong_tile_count(self):
        with pytest.raises(ShapeError):
            patch_merge(np.zeros((3, 128)), 8, 16)


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            ModelConfig(kind="cnn")

    def test_patch_must_divide_input(self):
        with pytest.raises(ValidationError):
            ModelConfig(input_size=16, patch_size=5)

    def test_heads_must_divide_d_model(self):
        with pytest.raises(ValidationError):
            ModelConfig(d_model=256, num_heads=5)

    def test_dual_pol_only(self):
        with pytest.raises(ValidationError):
            ModelConfig(channels=1)

    def test_dropout_range(self):
        with pytest.raises(ValidationError):
            ModelConfig(dropout=1.0)
        with pytest.raises(ValidationError):
            ModelConfig(dropout=-0.1)

    def test_max_t_floor(self):
        with pytest.raises(ValidationError):
            ModelConfig(max_t=1)

    def test_sigma_floor_positive(self):
        with pytest.raises(ValidationError):
            ModelConfig(sigma_floor=0.0)


def tiny_transformer_cfg():
    return ModelConfig(input_size=2, patch_size=1, d_model=4, num_heads=2,
                       num_layers=2, ff_dim=8, max_t=4, dropout=0.2)


def tiny_gru_cfg():
    return ModelConfig(kind="gru", input_size=4, d_model=6, num_layers=2,
                       head_hidden=5, max_t=5, dropout=0.2)


def mirror_transformer(model: Model, x: np.ndarray):
    """Plain-numpy re-implementation of the transformer forward (eval mode)."""
    cfg = model.cfg
    weights = {name: p.data.astype(np.float64) for name, p in model.params.items()}
    batch, t = x.shape[0], x.shape[1]
    npf, d = cfg.patches_per_frame, cfg.d_model
    heads, dk = cfg.num_heads, cfg.d_model // cfg.num_heads
    n = cfg.input_size // cfg.patch_size
    p = cfg.patch_size

    def norm(h, g, b):
        mu = h.mean(axis=-1, keepdims=True)
        var = ((h - mu) ** 2).mean(axis=-1, keepdims=True)
        return (h - mu) / np.sqrt(var + 1e-5) * g + b

    def softmax(z):
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    tokens = np.zeros((batch, t, npf, cfg.patch_dim))
    for bi in range(batch):
        for ti in range(t):
            for pi in range(npf):
                pr, pc = divmod(pi, n)
                block = x[bi, ti, :, pr * p:(pr + 1) * p, pc * p:(pc + 1) * p]
                tokens[bi, ti, pi] = block.reshape(-1)

    h = tokens @ weights["embed.w"] + weights["embed.b"]
    h = h + weights["pos_spatial"][None, None]
    h = h + weights["pos_temporal"][:t][None, :, None]
    h = h.reshape(batch, t * npf, d)
    seq = t * npf
    for i in range(cfg.num_layers):
        pre = norm(h, weights[f"enc{i}.ln1.g"], weights[f"enc{i}.ln1.b"])
        q = pre @ weights[f"enc{i}.attn.wq.w"] + weights[f"enc{i}.attn.wq.b"]
        k = pre @ weights[f"enc{i}.attn.wk.w"] + weights[f"enc{i}.attn.wk.b"]
        v = pre @ weights[f"enc{i}.attn.wv.w"] + weights[f"enc{i}.attn.wv.b"]
        q = q.reshape(batch, seq, heads, dk).transpose(0, 2, 1, 3)
        k = k.reshape(batch, seq, heads, dk).transpose(0, 2, 1, 3)
        v = v.reshape(batch, seq, heads, dk).transpose(0, 2, 1, 3)
        att = softmax(q @ k.transpose(0, 1, 3, 2) / np.sqrt(dk))
        ctx = (att @ v).transpose(0, 2, 1, 3).reshape(batch, seq, d)
        h = h + ctx @ weights[f"enc{i}.attn.wo.w"] + weights[f"enc{i}.attn.wo.b"]
        pre = norm(h, weights[f"enc{i}.ln2.g"], weights[f"enc{i}.ln2.b"])
        ff = np.maximum(pre @ weights[f"enc{i}.ff1.w"] + weights[f"enc{i}.ff1.b"], 0.0)
        h = h + ff @ weights[f"enc{i}.ff2.w"] + weights[f"enc{i}.ff2.b"]
    h = norm(h, weights["final_ln.g"], weights["final_ln.b"])
    latest = h.reshape(batch, t, npf, d)[:, -1]

    def head(z, name):
        z1 = np.maximum(z @ weights[f"{name}.l1.w"] + weights[f"{name}.l1.b"], 0.0)
        return z1 @ weights[f"{name}.l2.w"] + weights[f"{name}.l2.b"]

    def merge(patch_rows):
        out = np.zeros((batch, cfg.channels, cfg.input_size, cfg.input_size))
        for bi in range(batch):
            for pi in range(npf):
                pr, pc = divmod(pi, n)
                block = patch_rows[bi, pi].reshape(cfg.channels, p, p)
                out[bi, :, pr * p:(pr + 1) * p, pc * p:(pc + 1) * p] = block
        return out

    mu = merge(head(latest, "mu_head"))
    sigma = merge(np.logaddexp(0.0, head(latest, "sigma_head")) + cfg.sigma_floor)
    return mu, sigma


def mirror_gru(model: Model, x: np.ndarray):
    """Plain-numpy re-implementation of the stacked-GRU forward (eval mode)."""
    cfg = model.cfg
    weights = {name: p.data.astype(np.float64) for name, p in model.params.items()}
    batch, t = x.shape[0], x.shape[1]
    hd = cfg.d_model
    frames = x.reshape(batch, t, cfg.frame_dim)
    states = [np.zeros((batch, hd)) for _ in range(cfg.num_layers)]

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    for step in range(t):
        inp = frames[:, step]
        for layer in range(cfg.num_layers):
            gi = inp @ weights[f"gru{layer}.w_ih"] + weights[f"gru{layer}.b_ih"]
            gh = states[layer] @ weights[f"gru{layer}.w_hh"] + weights[f"gru{layer}.b_hh"]
            r = sigmoid(gi[:, :hd] + gh[:, :hd])
            z = sigmoid(gi[:, hd:2 * hd] + gh[:, hd:2 * hd])
            n = np.tanh(gi[:, 2 * hd:] + r * gh[:, 2 * hd:])
            states[layer] = (1.0 - z) * n + z * states[layer]
            inp = states[layer]

    def head(z, name):
        z1 = np.maximum(z @ weights[f"{name}.l1.w"] + weights[f"{name}.l1.b"], 0.0)
        return z1 @ weights[f"{name}.l2.w"] + weights[f"{name}.l2.b"]

    shape = (batch, cfg.channels, cfg.input_size, cfg.input_size)
    mu = head(states[-1], "mu_head").reshape(shape)
    sigma = (np.logaddexp(0.0, head(states[-1], "sigma_head"))
             + cfg.sigma_floor).reshape(shape)
    return mu, sigma


class TestForwardOracle:
    def test_transformer_matches_numpy_mirror(self):
        model = cast(Model(tiny_transformer_cfg(), seed=3), np.float64)
        x = np.random.default_rng(0).normal(size=(3, 3, 2, 2, 2))
        mu, sigma = model.forward(x)
        mu_ref, sigma_ref = mirror_transformer(model, x)
        assert np.max(np.abs(mu.data - mu_ref)) < 1e-10
        assert np.max(np.abs(sigma.data - sigma_ref)) < 1e-10

    def test_gru_matches_numpy_mirror(self):
        model = cast(Model(tiny_gru_cfg(), seed=4), np.float64)
        x = np.random.default_rng(1).normal(size=(2, 5, 2, 4, 4))
        mu, sigma = model.forward(x)
        mu_ref, sigma_ref = mirror_gru(model, x)
        assert np.max(np.abs(mu.data - mu_ref)) < 1e-10
        assert np.max(np.abs(sigma.data - sigma_ref)) < 1e-10


class TestForwardBehavior:
    def test_output_shapes(self):
        for cfg in (tiny_transformer_cfg(), tiny_gru_cfg()):
            model = Model(cfg, seed=0)
            s = cfg.input_size
            x = np.zeros((4, 3, 2, s, s), dtype=np.float32)
            mu, sigma = model.forward(x)
            assert mu.shape == (4, 2, s, s)
            assert sigma.shape == (4, 2, s, s)

    def test_sigma_above_floor(self):
        for cfg in (tiny_transformer_cfg(), tiny_gru_cfg()):
            model = Model(cfg, seed=1)
            s = cfg.input_size
            x = np.random.default_rng(0).normal(size=(2, 3, 2, s, s)) * 10.0
            _, sigma = model.forward(x.astype(np.float32))
            assert (sigma.data > cfg.sigma_floor).all()

    def test_transformer_batch_bitwise_invariant(self):
        model = Model(tiny_transformer_cfg(), seed=0)
        x = np.random.default_rng(2).normal(size=(5, 3, 2, 2, 2)).astype(np.float32)
        mu_all, sigma_all = model.forward(x)
        for i in range(5):
            mu_i, sigma_i = model.forward(x[i:i + 1])
            assert np.array_equal(mu_all.data[i:i + 1], mu_i.data)
            assert np.array_equal(sigma_all.data[i:i + 1], sigma_i.data)

    @staticmethod
    def _assert_no_grad_forward_writes_nothing(model, x):
        params = {name: p.data.tobytes() for name, p in model.params.items()}
        window = x.tobytes()
        with no_grad():
            mu, sigma = model.forward(x)
        assert x.tobytes() == window
        for name, p in model.params.items():
            assert p.data.tobytes() == params[name], name
        graph_mu, graph_sigma = model.forward(x)
        np.testing.assert_array_equal(mu.data, graph_mu.data)
        np.testing.assert_array_equal(sigma.data, graph_sigma.data)

    def test_no_grad_forward_leaves_params_and_window_frozen_size(self):
        cfg = ModelConfig(ff_dim=512, num_layers=2)   # the benchmark model
        x = np.random.default_rng(11).normal(size=(4, 9, 2, 16, 16)).astype(np.float32)
        self._assert_no_grad_forward_writes_nothing(Model(cfg, seed=1), x)

    def test_no_grad_forward_leaves_window_when_tokens_view_it(self):
        # one patch per frame: the token matrix is the caller's window itself,
        # and patch_dim == d_model, so a write into it would be shape-legal
        cfg = ModelConfig(input_size=4, patch_size=4, d_model=32, num_heads=2,
                          num_layers=2, ff_dim=16, max_t=4, dropout=0.0)
        x = np.random.default_rng(12).normal(size=(3, 4, 2, 4, 4)).astype(np.float32)
        assert np.shares_memory(patch_split(x, 4), x)
        self._assert_no_grad_forward_writes_nothing(Model(cfg, seed=2), x)

    def test_no_grad_forward_leaves_window_when_gru_frames_view_it(self):
        cfg = tiny_gru_cfg()
        x = np.random.default_rng(13).normal(size=(1, 5, 2, 4, 4)).astype(np.float32)
        frames = x.reshape(1, 5, cfg.frame_dim)
        assert np.shares_memory(np.ascontiguousarray(frames[:, 2]), x)
        self._assert_no_grad_forward_writes_nothing(Model(cfg, seed=3), x)

    def test_gru_batch_invariant_to_float32_accuracy(self):
        # GEMM kernel selection depends on batch size, so only closeness
        # (not bit equality) holds for the recurrent path
        model = Model(tiny_gru_cfg(), seed=0)
        x = np.random.default_rng(3).normal(size=(5, 4, 2, 4, 4)).astype(np.float32)
        mu_all, _ = model.forward(x)
        for i in range(5):
            mu_i, _ = model.forward(x[i:i + 1])
            assert np.allclose(mu_all.data[i:i + 1], mu_i.data,
                               rtol=1e-5, atol=1e-6)

    def test_last_frame_drives_prediction(self):
        model = Model(tiny_transformer_cfg(), seed=0)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 3, 2, 2, 2)).astype(np.float32)
        base, _ = model.forward(x)
        bumped = x.copy()
        bumped[:, -1] += 1.0
        shifted, _ = model.forward(bumped)
        assert not np.allclose(base.data, shifted.data)

    def test_frame_order_matters(self):
        model = Model(tiny_transformer_cfg(), seed=0)
        x = np.random.default_rng(5).normal(size=(1, 3, 2, 2, 2)).astype(np.float32)
        mu_fwd, _ = model.forward(x)
        mu_rev, _ = model.forward(x[:, ::-1])
        assert not np.allclose(mu_fwd.data, mu_rev.data)

    def test_window_shorter_than_max_t_accepted(self):
        model = Model(tiny_transformer_cfg(), seed=0)
        mu, _ = model.forward(np.zeros((1, 2, 2, 2, 2), dtype=np.float32))
        assert mu.shape == (1, 2, 2, 2)

    def test_window_length_limits(self):
        model = Model(tiny_transformer_cfg(), seed=0)
        with pytest.raises(ValidationError):
            model.forward(np.zeros((1, 1, 2, 2, 2), dtype=np.float32))
        with pytest.raises(ValidationError):
            model.forward(np.zeros((1, 5, 2, 2, 2), dtype=np.float32))

    def test_shape_rejections(self):
        model = Model(tiny_transformer_cfg(), seed=0)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((3, 2, 2, 2), dtype=np.float32))
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 3, 2, 4, 4), dtype=np.float32))

    def test_gru_accepts_long_windows(self):
        # recurrence has no positional table, so no max_t ceiling applies
        cfg = tiny_gru_cfg()
        model = Model(cfg, seed=0)
        mu, _ = model.forward(np.zeros((1, 9, 2, 4, 4), dtype=np.float32))
        assert mu.shape == (1, 2, 4, 4)


class TestDropoutMode:
    def test_train_mode_differs_from_eval(self):
        model = Model(tiny_transformer_cfg(), seed=0)
        x = np.random.default_rng(6).normal(size=(1, 3, 2, 2, 2)).astype(np.float32)
        mu_eval, _ = model.forward(x)
        mu_train, _ = model.forward(x, train=True, rng=np.random.default_rng(0))
        assert not np.array_equal(mu_eval.data, mu_train.data)

    def test_train_mode_seeded_reproducible(self):
        model = Model(tiny_transformer_cfg(), seed=0)
        x = np.random.default_rng(7).normal(size=(1, 3, 2, 2, 2)).astype(np.float32)
        a, _ = model.forward(x, train=True, rng=np.random.default_rng(11))
        b, _ = model.forward(x, train=True, rng=np.random.default_rng(11))
        assert np.array_equal(a.data, b.data)

    def test_zero_dropout_train_equals_eval(self):
        cfg = ModelConfig(input_size=2, patch_size=1, d_model=4, num_heads=2,
                          num_layers=1, ff_dim=8, max_t=4, dropout=0.0)
        model = Model(cfg, seed=0)
        x = np.random.default_rng(8).normal(size=(1, 3, 2, 2, 2)).astype(np.float32)
        mu_eval, _ = model.forward(x)
        mu_train, _ = model.forward(x, train=True, rng=np.random.default_rng(0))
        assert np.array_equal(mu_eval.data, mu_train.data)


class TestCast:
    def test_cast_returns_independent_copy(self):
        model = Model(tiny_transformer_cfg(), seed=0)
        double = cast(model, np.float64)
        assert double is not model
        assert double.dtype == np.float64
        assert model.dtype == np.float32
        double.params["embed.w"].data[0, 0] += 1.0
        assert model.params["embed.w"].data[0, 0] != double.params["embed.w"].data[0, 0]

    def test_cast_preserves_values(self):
        model = Model(tiny_gru_cfg(), seed=2)
        double = cast(model, np.float64)
        for name, p in model.params.items():
            assert np.array_equal(p.data.astype(np.float64),
                                  double.params[name].data)

    def test_float64_forward_close_to_float32(self):
        model = Model(tiny_transformer_cfg(), seed=0)
        x = np.random.default_rng(9).normal(size=(1, 3, 2, 2, 2)).astype(np.float32)
        mu32, _ = model.forward(x)
        mu64, _ = cast(model, np.float64).forward(x)
        assert np.allclose(mu32.data, mu64.data, atol=1e-4)


def _json_edit(change):
    """A bytes -> bytes edit that rewrites a JSON document with `change`."""
    import json

    return lambda blob: json.dumps(change(json.loads(blob))).encode()


class TestCheckpoints:
    def test_roundtrip_bitwise(self, tmp_path):
        model = Model(tiny_transformer_cfg(), seed=5)
        save_checkpoint(model, str(tmp_path))
        loaded = load_checkpoint(str(tmp_path))
        assert loaded.cfg == model.cfg
        for name, p in model.params.items():
            assert np.array_equal(p.data, loaded.params[name].data), name
        x = np.random.default_rng(10).normal(size=(2, 3, 2, 2, 2)).astype(np.float32)
        mu_a, _ = model.forward(x)
        mu_b, _ = loaded.forward(x)
        assert np.array_equal(mu_a.data, mu_b.data)

    def test_gru_roundtrip(self, tmp_path):
        model = Model(tiny_gru_cfg(), seed=6)
        save_checkpoint(model, str(tmp_path))
        loaded = load_checkpoint(str(tmp_path))
        assert loaded.cfg.kind == "gru"
        for name, p in model.params.items():
            assert np.array_equal(p.data, loaded.params[name].data)

    @pytest.mark.parametrize("cfg", [tiny_transformer_cfg(), tiny_gru_cfg()],
                             ids=["transformer", "gru"])
    def test_one_file_of_header_then_every_parameter_in_name_order(self, tmp_path, cfg):
        # the payload holds the bytes of the three-file checkpoint's weights.bin
        model = Model(cfg, seed=3)
        save_checkpoint(model, str(tmp_path))
        assert os.listdir(tmp_path) == ["weights.bin"]
        blob = (tmp_path / "weights.bin").read_bytes()
        start = payload_offset(blob)
        assert blob[:4] == b"RTS0"
        assert json.loads(blob[8:start]) == {"version": 2, "config": asdict(cfg)}
        assert blob[start:] == b"".join(model.params[name].data.astype("<f4").tobytes()
                                        for name in sorted(model.params))

    @pytest.mark.parametrize("cfg", [tiny_transformer_cfg(), tiny_gru_cfg()],
                             ids=["transformer", "gru"])
    def test_loads_without_drawing(self, tmp_path, monkeypatch, cfg):
        # the config's layout gives every shape; the loader used to draw a whole model
        model = Model(cfg, seed=4)
        save_checkpoint(model, str(tmp_path))

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr("sardist.model.np.random.default_rng", no_draw)
        loaded = load_checkpoint(str(tmp_path))
        assert list(loaded.params) == list(model.params)   # Adam breaks size ties by order
        assert loaded.dtype == np.float32
        for name, p in model.params.items():
            data = loaded.params[name].data
            assert data.dtype == np.float32 and data.flags.c_contiguous and data.flags.owndata
            assert np.array_equal(data, p.data), name

    def test_save_deterministic_bytes(self, tmp_path):
        model = Model(tiny_transformer_cfg(), seed=7)
        save_checkpoint(model, str(tmp_path / "a"))
        save_checkpoint(model, str(tmp_path / "b"))
        assert os.listdir(tmp_path / "a") == os.listdir(tmp_path / "b") == ["weights.bin"]
        assert (tmp_path / "a" / "weights.bin").read_bytes() == \
            (tmp_path / "b" / "weights.bin").read_bytes()

    def test_truncated_weights_rejected(self, tmp_path):
        model = Model(tiny_transformer_cfg(), seed=0)
        save_checkpoint(model, str(tmp_path))
        path = tmp_path / "weights.bin"
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:-8])
        with pytest.raises(FormatError):
            load_checkpoint(str(tmp_path))

    def test_unknown_version_rejected(self, tmp_path):
        model = Model(tiny_transformer_cfg(), seed=0)
        save_checkpoint(model, str(tmp_path))
        edit_header(tmp_path / "weights.bin", _json_edit(lambda meta: meta | {"version": 99}))
        with pytest.raises(FormatError, match="weights.bin: not a version 2 checkpoint"):
            load_checkpoint(str(tmp_path))

    def test_missing_parameter_rejected(self, tmp_path):
        # a config with one more layer asks for parameters the payload lacks
        model = Model(tiny_transformer_cfg(), seed=0)
        save_checkpoint(model, str(tmp_path))
        edit_header(tmp_path / "weights.bin", _json_edit(
            lambda meta: meta | {"config": meta["config"] | {"num_layers": 3}}))
        with pytest.raises(FormatError, match="weights.bin: payload is"):
            load_checkpoint(str(tmp_path))

    def test_three_file_checkpoint_rejected(self, tmp_path):
        # a checkpoint from before version 2: raw weights, index.json and model.json
        model = Model(tiny_transformer_cfg(), seed=0)
        (tmp_path / "weights.bin").write_bytes(b"".join(
            model.params[name].data.astype("<f4").tobytes() for name in sorted(model.params)))
        (tmp_path / "index.json").write_text("[]")
        (tmp_path / "model.json").write_text(
            json.dumps({"version": 1, "config": asdict(model.cfg)}))
        with pytest.raises(FormatError, match="weights.bin: bad magic"):
            load_checkpoint(str(tmp_path))

    @pytest.mark.parametrize("edit, named", [
        (lambda meta: meta["config"].update(bogus=1), "'bogus'"),
        (lambda meta: meta.pop("config"), "config"),
        (lambda meta: meta.update(config=[1, 2]), "config"),
        (lambda meta: meta.update(config="transformer"), "config"),
    ])
    def test_bad_config_rejected(self, tmp_path, edit, named):
        save_checkpoint(Model(tiny_transformer_cfg(), seed=0), str(tmp_path))

        def change(meta):
            edit(meta)
            return meta

        edit_header(tmp_path / "weights.bin", _json_edit(change))
        with pytest.raises(FormatError, match=named):
            load_checkpoint(str(tmp_path))

    @pytest.mark.parametrize("part, edit", [
        ("header", _json_edit(lambda m: m | {"config": m["config"] | {"d_model": "abc"}})),
        ("header", lambda blob: blob.replace(b'"transformer"', b'"transf\xffrmer"')),
        ("payload", lambda blob: blob + bytes(16)),
        ("payload", lambda blob: np.float32(np.nan).tobytes() + blob[4:]),
    ], ids=["wrong-type", "non-utf8", "trailing-bytes", "nan-weight"])
    def test_malformed_checkpoint_rejected(self, tmp_path, part, edit):
        save_checkpoint(Model(tiny_transformer_cfg(), seed=0), str(tmp_path))
        path = tmp_path / "weights.bin"
        if part == "header":
            edit_header(path, edit)
        else:
            blob = path.read_bytes()
            path.write_bytes(blob[:payload_offset(blob)] + edit(blob[payload_offset(blob):]))
        with pytest.raises(FormatError, match="weights.bin"):
            load_checkpoint(str(tmp_path))

    def test_non_object_metadata_rejected(self, tmp_path):
        save_checkpoint(Model(tiny_transformer_cfg(), seed=0), str(tmp_path))
        edit_header(tmp_path / "weights.bin", lambda blob: b"[1]")
        with pytest.raises(FormatError):
            load_checkpoint(str(tmp_path))

    def test_corrupt_json_rejected(self, tmp_path):
        model = Model(tiny_transformer_cfg(), seed=0)
        save_checkpoint(model, str(tmp_path))
        edit_header(tmp_path / "weights.bin", lambda blob: b"{not json")
        with pytest.raises(FormatError):
            load_checkpoint(str(tmp_path))


def arrays_of(model: Model) -> dict[str, np.ndarray]:
    return {name: p.data for name, p in model.params.items()}


class TestGivenParameters:
    @pytest.mark.parametrize("cfg", [tiny_transformer_cfg(), tiny_gru_cfg()],
                             ids=["transformer", "gru"])
    def test_wraps_the_arrays_in_layout_order(self, cfg):
        drawn = Model(cfg, seed=8)
        given = dict(reversed(arrays_of(drawn).items()))
        model = Model(cfg, params=given)
        assert list(model.params) == list(drawn.params)
        assert all(model.params[name].data is a for name, a in given.items())
        assert all(p.requires_grad for p in model.params.values())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_follows_the_parameters(self, dtype):
        drawn = Model(tiny_gru_cfg(), seed=1)
        model = Model(drawn.cfg, params={n: a.astype(dtype) for n, a in arrays_of(drawn).items()})
        assert model.dtype == dtype
        x = np.random.default_rng(2).normal(size=(1, 3, 2, 4, 4))
        assert model.forward(x)[0].data.dtype == dtype

    @pytest.mark.parametrize("change", [
        lambda a: a.pop("embed.w"),
        lambda a: a.update(extra=np.zeros(3, np.float32)),
        lambda a: a.update({"embed.w": a["embed.w"].T}),
        lambda a: a.update({"embed.b": a["embed.b"].astype(np.float64)}),
        lambda a: a.update({name: v.astype(np.int32) for name, v in a.items()}),
        lambda a: a.clear(),
        lambda a: a.update({"embed.w": a["embed.w"].tolist()}),
        lambda a: a.update({"embed.w": [[1.0], [1.0, 2.0]]}),
    ], ids=["missing", "extra", "misshapen", "mixed-dtypes", "integer", "empty", "list",
            "ragged"])
    def test_arrays_off_the_layout_are_a_validation_error(self, change):
        arrays = arrays_of(Model(tiny_transformer_cfg(), seed=0))
        change(arrays)
        with pytest.raises(ValidationError, match="transformer layout"):
            Model(tiny_transformer_cfg(), params=arrays)


class TestInitialization:
    def test_seeded_init_reproducible(self):
        a = Model(tiny_transformer_cfg(), seed=12)
        b = Model(tiny_transformer_cfg(), seed=12)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_different_seeds_differ(self):
        a = Model(tiny_transformer_cfg(), seed=0)
        b = Model(tiny_transformer_cfg(), seed=1)
        assert not np.array_equal(a.params["embed.w"].data, b.params["embed.w"].data)

    def test_params_are_float32_by_default(self):
        model = Model(tiny_gru_cfg(), seed=0)
        for p in model.params.values():
            assert p.data.dtype == np.float32
            assert p.requires_grad
