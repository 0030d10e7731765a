"""Spatiotemporal forecasting models over backscatter windows.

Both models consume a logit-space window (B, T, C, S, S) and emit two maps
(mu, sigma) of shape (B, C, S, S): the predicted per-pixel mean and standard
deviation of the *next* frame. sigma comes from a softplus plus a small
floor, so it is strictly positive by construction.

transformer: frames are cut into P x P patches (each flattened across both
channels), embedded linearly, tagged with learned spatial and temporal
embeddings, and run through pre-norm encoder blocks (LN -> multi-head
attention -> residual, LN -> ReLU feed-forward -> residual, dropout on each
sublayer output). The token at each spatial position's latest time step
feeds two independent 2-layer heads that predict that patch's mu and sigma.

Layout: after the embedding, tokens are rows of one (B*T*Np, D) matrix, so
each encoder linear layer is a single 2-D GEMM and each layer norm runs over
the same rows; only the two attention products see (B, heads, N, dk). Only
the latest frame's Np tokens reach the heads, so the last block takes keys
and values from every token but computes queries, attention output, the
feed-forward and the final norm for those Np tokens alone, as per-window
(B, Np, D) products. The maths is that of the full block; the bits move at
float32 rounding level.

gru: frames are flattened to C*S^2 vectors and run through a stacked GRU
(first layer consumes the flattened frame directly; hidden size d_model);
the final hidden state feeds the same kind of two-headed readout for the
whole frame.

One forward serves training and inference: `forward` builds the graph when
gradients are on and, under `autodiff.no_grad`, the same code writes each
ReLU into the GEMM result it reads (see `autodiff`'s in-place rule).
Parameters and the caller's window are never written.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tensor, dropout, layer_norm, linear, relu, softplus
from .errors import FormatError, ShapeError, ValidationError, bound, check_fields, check_seed
from .raster import read_container, write_container

KINDS = ("transformer", "gru")


@dataclass(frozen=True)
class ModelConfig:
    kind: str = bound("transformer", KINDS)
    input_size: int = bound(16, ">= 1")
    patch_size: int = bound(8, ">= 1")
    channels: int = bound(2, (2,))   # models are dual-pol only
    d_model: int = bound(256, ">= 1")
    num_heads: int = bound(4, ">= 1")
    num_layers: int = bound(4, ">= 1")
    ff_dim: int = bound(768, ">= 1")
    # None ties the head width to ff_dim (the transformer's head and
    # feed-forward widths are one knob); the gru default pins 978.
    head_hidden: int | None = bound(None, ">= 1")
    dropout: float = bound(0.2, "[0, 1)")
    max_t: int = bound(10, ">= 2")
    sigma_floor: float = bound(1e-3, "> 0")

    @staticmethod
    def gru_default() -> "ModelConfig":
        return ModelConfig(kind="gru", input_size=8, d_model=326,
                           num_layers=4, head_hidden=978)

    @property
    def resolved_head_hidden(self) -> int:
        return self.ff_dim if self.head_hidden is None else self.head_hidden

    @property
    def patches_per_frame(self) -> int:
        return (self.input_size // self.patch_size) ** 2

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch_size ** 2

    @property
    def frame_dim(self) -> int:
        return self.channels * self.input_size ** 2

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind == "transformer" and self.input_size % self.patch_size != 0:
            raise ValidationError(f"patch size {self.patch_size} must divide input size "
                                  f"{self.input_size}")
        if self.kind == "transformer" and self.d_model % self.num_heads != 0:
            raise ValidationError(f"num_heads {self.num_heads} must divide d_model {self.d_model}")


# ---------------------------------------------------------------------------
# patch layout helper (pure numpy; the tensor-graph version lives in Model)
# ---------------------------------------------------------------------------

def patch_split(frames: np.ndarray, patch: int) -> np.ndarray:
    """(..., C, S, S) -> (..., Np, C*patch*patch); row-major patch order."""
    *lead, c, s, s2 = frames.shape
    if s != s2 or s % patch != 0:
        raise ShapeError(f"cannot split {s}x{s2} frames into {patch}x{patch} patches")
    n = s // patch
    x = frames.reshape(*lead, c, n, patch, n, patch)
    x = np.moveaxis(x, (-4, -2), (-5, -4))  # (..., n, n, c, patch, patch)
    return np.ascontiguousarray(x).reshape(*lead, n * n, c * patch * patch)


class Model:
    """Parameter container plus forward pass for either model kind."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        self.dtype = np.dtype(np.float32)
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(check_seed(seed))
        if cfg.kind == "transformer":
            self._init_transformer(rng)
        else:
            self._init_gru(rng)

    # -- initialization -----------------------------------------------------

    def _linear(self, rng, name: str, fan_in: int, fan_out: int) -> None:
        bound = 1.0 / np.sqrt(fan_in)
        self.params[f"{name}.w"] = self._param(rng.uniform(-bound, bound, (fan_in, fan_out)))
        self.params[f"{name}.b"] = self._param(rng.uniform(-bound, bound, (fan_out,)))

    def _param(self, values) -> Tensor:
        return Tensor(np.asarray(values, dtype=self.dtype), requires_grad=True)

    def _init_transformer(self, rng) -> None:
        cfg = self.cfg
        self._linear(rng, "embed", cfg.patch_dim, cfg.d_model)
        self.params["pos_spatial"] = self._param(
            rng.normal(0.0, 0.02, (cfg.patches_per_frame, cfg.d_model)))
        self.params["pos_temporal"] = self._param(
            rng.normal(0.0, 0.02, (cfg.max_t, cfg.d_model)))
        for i in range(cfg.num_layers):
            self._layer_norm_init(f"enc{i}.ln1", cfg.d_model)
            for proj in ("wq", "wk", "wv", "wo"):
                self._linear(rng, f"enc{i}.attn.{proj}", cfg.d_model, cfg.d_model)
            self._layer_norm_init(f"enc{i}.ln2", cfg.d_model)
            self._linear(rng, f"enc{i}.ff1", cfg.d_model, cfg.ff_dim)
            self._linear(rng, f"enc{i}.ff2", cfg.ff_dim, cfg.d_model)
        self._layer_norm_init("final_ln", cfg.d_model)
        hidden = cfg.resolved_head_hidden
        for head in ("mu_head", "sigma_head"):
            self._linear(rng, f"{head}.l1", cfg.d_model, hidden)
            self._linear(rng, f"{head}.l2", hidden, cfg.patch_dim)

    def _init_gru(self, rng) -> None:
        cfg = self.cfg
        h = cfg.d_model
        for layer in range(cfg.num_layers):
            fan_in = cfg.frame_dim if layer == 0 else h
            bound = 1.0 / np.sqrt(h)
            self.params[f"gru{layer}.w_ih"] = self._param(
                rng.uniform(-bound, bound, (fan_in, 3 * h)))
            self.params[f"gru{layer}.w_hh"] = self._param(
                rng.uniform(-bound, bound, (h, 3 * h)))
            self.params[f"gru{layer}.b_ih"] = self._param(rng.uniform(-bound, bound, (3 * h,)))
            self.params[f"gru{layer}.b_hh"] = self._param(rng.uniform(-bound, bound, (3 * h,)))
        hidden = cfg.resolved_head_hidden
        for head in ("mu_head", "sigma_head"):
            self._linear(rng, f"{head}.l1", h, hidden)
            self._linear(rng, f"{head}.l2", hidden, cfg.frame_dim)

    def _layer_norm_init(self, name: str, dim: int) -> None:
        self.params[f"{name}.g"] = self._param(np.ones(dim))
        self.params[f"{name}.b"] = self._param(np.zeros(dim))

    # -- bookkeeping ----------------------------------------------------------

    def parameter_count(self) -> int:
        return sum(int(p.data.size) for p in self.params.values())

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    # -- forward --------------------------------------------------------------

    def forward(self, x: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor]:
        """Forecast the frame after the window; returns (mu, sigma) tensors."""
        cfg = self.cfg
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 5:
            raise ShapeError(f"window must be (B,T,C,S,S), got {x.shape}")
        b, t, c, s, s2 = x.shape
        if c != cfg.channels or s != cfg.input_size or s2 != cfg.input_size:
            raise ShapeError(
                f"window {x.shape} does not match model input "
                f"({cfg.channels}, {cfg.input_size}, {cfg.input_size})"
            )
        if t < 2:
            raise ValidationError(f"window needs at least 2 frames, got {t}")
        if cfg.kind == "transformer" and t > cfg.max_t:
            raise ValidationError(f"window length {t} exceeds max_t {cfg.max_t}")
        if cfg.kind == "transformer":
            return self._forward_transformer(x, train, rng)
        return self._forward_gru(x, train, rng)

    def _heads(self, h: Tensor) -> tuple[Tensor, Tensor]:
        """The mu and sigma readouts of h; sigma is a softplus plus the floor."""
        p = self.params

        def head(name):
            z = relu(linear(h, p[f"{name}.l1.w"], p[f"{name}.l1.b"]), overwrite_x=True)
            return linear(z, p[f"{name}.l2.w"], p[f"{name}.l2.b"])

        return head("mu_head"), softplus(head("sigma_head")) + self.cfg.sigma_floor

    def _forward_transformer(self, x, train, rng):
        cfg, p = self.cfg, self.params
        b, t = x.shape[0], x.shape[1]
        npf, d = cfg.patches_per_frame, cfg.d_model

        tokens = patch_split(x, cfg.patch_size)           # (B, T, Np, patch_dim); may view x
        h = linear(Tensor(tokens), p["embed.w"], p["embed.b"])  # (B, T, Np, D)
        h = h + p["pos_spatial"].reshape(1, 1, npf, d)
        h = h + p["pos_temporal"][:t].reshape(1, t, 1, d)
        h = h.reshape(b * t * npf, d)                     # one row per token

        for i in range(cfg.num_layers):
            h = self._encoder_block(h, i, b, t, train, rng,
                                    latest_only=i == cfg.num_layers - 1)
        latest = layer_norm(h, p["final_ln.g"], p["final_ln.b"])  # (B, Np, D)

        mu_p, sig_p = self._heads(latest)                 # (B, Np, patch_dim) each
        return self._merge_patches(mu_p), self._merge_patches(sig_p)

    def _encoder_block(self, h, i, b, t, train, rng, latest_only):
        """One pre-norm block over token rows h (B*T*Np, D).

        Keys and values come from every token. With `latest_only`, queries
        and everything after them are computed for the latest frame's tokens
        alone, as (B, Np, D): those per-window products keep a window's
        result independent of how many windows share the batch.
        """
        cfg, p = self.cfg, self.params
        npf, d = cfg.patches_per_frame, cfg.d_model
        heads, dk = cfg.num_heads, cfg.d_model // cfg.num_heads
        n = t * npf

        def dense(z, name):
            return linear(z, p[f"enc{i}.{name}.w"], p[f"enc{i}.{name}.b"])

        def split_heads(z, rows):                         # -> (B, heads, rows, dk)
            return z.reshape(b, rows, heads, dk).transpose((0, 2, 1, 3))

        pre = layer_norm(h, p[f"enc{i}.ln1.g"], p[f"enc{i}.ln1.b"])
        k = split_heads(dense(pre, "attn.wk"), n)
        v = split_heads(dense(pre, "attn.wv"), n)
        rows = n
        if latest_only:
            h = h.reshape(b, t, npf, d)[:, t - 1]
            pre = pre.reshape(b, t, npf, d)[:, t - 1]
            rows = npf
        q = split_heads(dense(pre, "attn.wq"), rows)
        scores = (q @ k.transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(dk))
        ctx = (scores.softmax() @ v).transpose((0, 2, 1, 3)).reshape(h.shape)
        h = h + dropout(dense(ctx, "attn.wo"), cfg.dropout, rng, train)

        pre = layer_norm(h, p[f"enc{i}.ln2.g"], p[f"enc{i}.ln2.b"])
        ff = dense(relu(dense(pre, "ff1"), overwrite_x=True), "ff2")
        return h + dropout(ff, cfg.dropout, rng, train)

    def _merge_patches(self, patches: Tensor) -> Tensor:
        cfg = self.cfg
        b = patches.shape[0]
        n = cfg.input_size // cfg.patch_size
        x = patches.reshape(b, n, n, cfg.channels, cfg.patch_size, cfg.patch_size)
        x = x.transpose((0, 3, 1, 4, 2, 5))
        return x.reshape(b, cfg.channels, cfg.input_size, cfg.input_size)

    def _forward_gru(self, x, train, rng):
        cfg, p = self.cfg, self.params
        b, t = x.shape[0], x.shape[1]
        hdim = cfg.d_model
        frames = x.reshape(b, t, cfg.frame_dim)
        states = [Tensor(np.zeros((b, hdim), dtype=self.dtype)) for _ in range(cfg.num_layers)]
        for step in range(t):
            inp = Tensor(np.ascontiguousarray(frames[:, step]))
            for layer in range(cfg.num_layers):
                hprev = states[layer]
                gi = linear(inp, p[f"gru{layer}.w_ih"], p[f"gru{layer}.b_ih"])
                gh = linear(hprev, p[f"gru{layer}.w_hh"], p[f"gru{layer}.b_hh"])
                r = (gi[:, :hdim] + gh[:, :hdim]).sigmoid()
                z = (gi[:, hdim:2 * hdim] + gh[:, hdim:2 * hdim]).sigmoid()
                n = (gi[:, 2 * hdim:] + r * gh[:, 2 * hdim:]).tanh()
                hnew = (1.0 - z) * n + z * hprev
                states[layer] = hnew
                out = hnew
                if layer < cfg.num_layers - 1:
                    out = dropout(hnew, cfg.dropout, rng, train)
                inp = out
        final = states[-1]                                # (B, H)
        mu, sig = self._heads(final)
        shape = (b, cfg.channels, cfg.input_size, cfg.input_size)
        return mu.reshape(shape), sig.reshape(shape)


# ---------------------------------------------------------------------------
# checkpoints: one container file, weights.bin
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 2


def save_checkpoint(model: Model, directory: str) -> None:
    """Write weights.bin: a container of the version and config, then each parameter by name."""
    os.makedirs(directory, exist_ok=True)
    # one bytes copy per parameter: passing the numpy buffers themselves measured
    # about 8 MB more peak RSS on the map-scene benchmark (malloc heap reuse)
    write_container(os.path.join(directory, "weights.bin"),
                    {"version": CHECKPOINT_VERSION, "config": asdict(model.cfg)},
                    (np.ascontiguousarray(model.params[name].data, dtype="<f4").tobytes()
                     for name in sorted(model.params)))


def load_checkpoint(directory: str) -> Model:
    """The model of weights.bin's config, if the payload holds its parameters, all finite."""
    path = os.path.join(directory, "weights.bin")
    model = None

    def count(header: dict) -> int:
        nonlocal model
        if header.get("version") != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: not a version {CHECKPOINT_VERSION} checkpoint")
        try:
            model = Model(ModelConfig(**header.get("config")), seed=0)
        except (TypeError, ValidationError) as exc:  # not a mapping, an unknown key, a bad value
            raise FormatError(f"{path}: config: {exc}") from None
        return model.parameter_count()

    _, values = read_container(path, count)
    start = 0
    for name, p in sorted(model.params.items()):
        # a copy each, as `Model` allocates them, so no GEMM reads an offset view
        p.data = values[start:start + p.data.size].reshape(p.data.shape).astype(np.float32)
        start += p.data.size
        if not np.all(np.isfinite(p.data)):
            raise FormatError(f"{path}: holds non-finite {name}")
    return model
