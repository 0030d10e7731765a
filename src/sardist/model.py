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

A model is its config plus its parameters, which `_layout(cfg)` declares once:
`Model(cfg, seed)` draws them; `load_checkpoint` reads them and draws nothing.

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


def _layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], object]]:
    """(name, shape, init) of each parameter of `cfg`'s model, in the order the seed's
    stream draws them: init(rng) gives its float64 values; a layer norm draws none."""
    d, hidden = cfg.d_model, cfg.resolved_head_hidden

    def uniform(name, shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return name, shape, lambda rng: rng.uniform(-bound, bound, shape)

    def linear(name, n_in, n_out):
        return [uniform(f"{name}.w", (n_in, n_out), n_in), uniform(f"{name}.b", (n_out,), n_in)]

    def norm(name):
        return [(f"{name}.{part}", (d,), lambda rng, v=v: np.full(d, v))
                for part, v in (("g", 1.0), ("b", 0.0))]

    if cfg.kind == "transformer":
        rows = linear("embed", cfg.patch_dim, d) + [
            (name, (n, d), lambda rng, n=n: rng.normal(0.0, 0.02, (n, d)))
            for name, n in (("pos_spatial", cfg.patches_per_frame), ("pos_temporal", cfg.max_t))]
        for i in range(cfg.num_layers):
            rows += norm(f"enc{i}.ln1")
            for proj in ("wq", "wk", "wv", "wo"):
                rows += linear(f"enc{i}.attn.{proj}", d, d)
            rows += [*norm(f"enc{i}.ln2"), *linear(f"enc{i}.ff1", d, cfg.ff_dim),
                     *linear(f"enc{i}.ff2", cfg.ff_dim, d)]
        rows, out = rows + norm("final_ln"), cfg.patch_dim
    else:
        rows = [uniform(f"gru{layer}.{name}", shape, d) for layer in range(cfg.num_layers)
                for name, shape in (("w_ih", (cfg.frame_dim if layer == 0 else d, 3 * d)),
                                    ("w_hh", (d, 3 * d)), ("b_ih", (3 * d,)), ("b_hh", (3 * d,)))]
        out = cfg.frame_dim
    for head in ("mu_head", "sigma_head"):
        rows += [*linear(f"{head}.l1", d, hidden), *linear(f"{head}.l2", hidden, out)]
    return rows


class Model:
    """A config and its parameters, plus the forward pass for either model kind.

    `Model(cfg, seed)` draws the parameters of `_layout(cfg)` as float32, and
    `Model(cfg, params=arrays)` wraps numpy arrays of the layout's names and
    shapes that share one float dtype, the model's `dtype`.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0,
                 params: dict[str, np.ndarray] | None = None):
        self.cfg = cfg
        layout = _layout(cfg)
        if params is None:
            rng = np.random.default_rng(check_seed(seed))
            params = {name: init(rng).astype(np.float32) for name, _, init in layout}
        got = {n: (getattr(a, "shape", None), getattr(a, "dtype", None)) for n, a in params.items()}
        self.dtype = np.dtype(getattr(params.get(layout[0][0]), "dtype", object))
        if self.dtype.kind != "f" or got != {n: (shape, self.dtype) for n, shape, _ in layout}:
            raise ValidationError(f"parameters must have the names and shapes of the {cfg.kind} "
                                  f"layout and share one float dtype")
        self.params = {name: Tensor(params[name], requires_grad=True) for name, _, _ in layout}

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
                states[layer] = (1.0 - z) * n + z * hprev
                if layer < cfg.num_layers - 1:                # the top layer feeds the heads
                    inp = dropout(states[layer], cfg.dropout, rng, train)
        mu, sig = self._heads(states[-1])                 # from (B, H)
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

    def count(header: dict) -> int:
        if header.get("version") != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: not a version {CHECKPOINT_VERSION} checkpoint")
        try:
            cfg = ModelConfig(**header.get("config"))
        except (TypeError, ValidationError) as exc:  # not a mapping, an unknown key, a bad value
            raise FormatError(f"{path}: config: {exc}") from None
        return sum(int(np.prod(shape)) for _, shape, _ in _layout(cfg))

    header, values = read_container(path, count)
    cfg, params, start = ModelConfig(**header["config"]), {}, 0
    for name, shape, _ in sorted(_layout(cfg)):
        # a copy each, as `Model` draws them, so no GEMM reads an offset view
        params[name] = values[start:start + int(np.prod(shape))].reshape(shape).astype(np.float32)
        start += params[name].size
        if not np.all(np.isfinite(params[name])):
            raise FormatError(f"{path}: holds non-finite {name}")
    return Model(cfg, params=params)
