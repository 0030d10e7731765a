"""Self-supervised training: Gaussian NLL, Adam, batch sampling, the loop.

The objective is the mean (over batch, channels and pixels) negative log
likelihood of the observed next frame under the per-pixel Gaussian the
model predicts:

    nll = 0.5*log(2*pi) + log(sigma) + 0.5*((x - mu)/sigma)^2

Window length T is drawn once per batch, uniformly over [t_min, t_max]; the
first T frames of each sampled sequence are the input and frame T+1 is the
target, so no labels are ever needed. The learning rate is stepwise: the
initial rate through `decay_epoch`, the decayed rate afterwards.

A training run is fully determined by (model seed, train seed, corpus):
batch sampling and dropout draw from generators derived from the train seed
with fixed stream indices, and every array op is single-threaded numpy, so
rerunning reproduces the loss curve bit for bit. If the loss ever goes
non-finite the run aborts and reports the last finished epoch's weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ValidationError
from .model import Model
from .synth import splitmix64

LOG_TWO_PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 256
    epochs: int = 50
    lr_initial: float = 1e-4
    lr_after_decay: float = 1e-5
    decay_epoch: int = 25
    t_min: int = 2
    t_max: int = 10
    seed: int = 0
    steps_per_epoch: int | None = None  # None -> ceil(corpus / batch)

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValidationError("batch size must be >= 1")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if not (self.lr_initial > 0 and self.lr_after_decay > 0):
            raise ValidationError("learning rates must be > 0")
        if self.decay_epoch < 1:
            raise ValidationError("decay epoch must be >= 1")
        if not 2 <= self.t_min <= self.t_max:
            raise ValidationError(f"need 2 <= t_min <= t_max, got [{self.t_min}, {self.t_max}]")
        if self.steps_per_epoch is not None and self.steps_per_epoch < 1:
            raise ValidationError("steps per epoch must be >= 1")


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Learning rate for a 1-based epoch index."""
    return cfg.lr_initial if epoch <= cfg.decay_epoch else cfg.lr_after_decay


def nll_loss(mu: Tensor, sigma: Tensor, target: np.ndarray) -> Tensor:
    """Mean Gaussian negative log likelihood of `target` under (mu, sigma)."""
    if mu.shape != sigma.shape or tuple(target.shape) != tuple(mu.shape):
        raise ValidationError(
            f"shape mismatch: mu {mu.shape}, sigma {sigma.shape}, target {target.shape}"
        )
    t = Tensor(np.asarray(target, dtype=mu.data.dtype))
    z = (t - mu) / sigma
    return (0.5 * LOG_TWO_PI + sigma.log() + 0.5 * z * z).mean()


class Adam:
    """Adam with bias correction over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * (g * g)
            m_hat = self.m[name] / c1
            v_hat = self.v[name] / c2
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + self.eps)


def sample_batch(sequences: np.ndarray, rng: np.random.Generator,
                 batch_size: int, t_min: int, t_max: int,
                 window: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Draw a training batch; returns (x (B,T,C,S,S), target (B,C,S,S)).

    Sequences are drawn with replacement; T is drawn once for the whole
    batch; the first T frames are the window, frame T+1 the target. When
    `window` is smaller than the stored frames, a random square crop is
    drawn per item (the small-input model variants train on crops).
    """
    n, steps, c, h, w = sequences.shape
    if t_max + 1 > steps:
        raise ValidationError(
            f"sequences of {steps} steps are too short for t_max={t_max} (+1 target)"
        )
    t = int(rng.integers(t_min, t_max + 1))
    idx = rng.integers(0, n, size=batch_size)
    x = sequences[idx, :t]
    y = sequences[idx, t]
    if window is not None and window != h:
        if window > h or window > w:
            raise ValidationError(f"crop {window} exceeds stored frames {h}x{w}")
        rows = rng.integers(0, h - window + 1, size=batch_size)
        cols = rng.integers(0, w - window + 1, size=batch_size)
        xc = np.empty((batch_size, t, c, window, window), dtype=sequences.dtype)
        yc = np.empty((batch_size, c, window, window), dtype=sequences.dtype)
        for i, (r, cl) in enumerate(zip(rows, cols)):
            xc[i] = x[i, :, :, r:r + window, cl:cl + window]
            yc[i] = y[i, :, r:r + window, cl:cl + window]
        return xc, yc
    return np.ascontiguousarray(x), np.ascontiguousarray(y)


@dataclass
class TrainResult:
    model: Model
    loss_rows: list[tuple[int, float, float]] = field(default_factory=list)
    diverged: bool = False
    completed_epochs: int = 0

    def loss_csv(self) -> str:
        lines = ["epoch,mean_nll,lr"]
        for epoch, loss, lr in self.loss_rows:
            lines.append(f"{epoch},{loss:.9g},{lr:.9g}")
        return "\n".join(lines) + "\n"


def train(model: Model, cfg: TrainConfig, sequences: np.ndarray) -> TrainResult:
    """Run the training loop on logit-space sequences (N, steps, C, H, W)."""
    cfg.validate()
    if sequences.ndim != 5:
        raise ValidationError(f"corpus must be (N,steps,C,H,W), got {sequences.shape}")
    batch_rng = np.random.default_rng(splitmix64(cfg.seed, 1))
    drop_rng = np.random.default_rng(splitmix64(cfg.seed, 2))
    steps_per_epoch = cfg.steps_per_epoch
    if steps_per_epoch is None:
        steps_per_epoch = max(1, -(-sequences.shape[0] // cfg.batch_size))
    optimizer = Adam(model.params)
    result = TrainResult(model=model)
    last_good = {k: p.data.copy() for k, p in model.params.items()}
    for epoch in range(1, cfg.epochs + 1):
        lr = lr_at(epoch, cfg)
        total = 0.0
        for _ in range(steps_per_epoch):
            x, y = sample_batch(sequences, batch_rng, cfg.batch_size,
                                cfg.t_min, cfg.t_max, window=model.cfg.input_size)
            model.zero_grads()
            mu, sigma = model.forward(x, train=True, rng=drop_rng)
            loss = nll_loss(mu, sigma, y)
            value = float(loss.data)
            if not math.isfinite(value):
                # diverged: roll back to the last finished epoch
                for name, p in model.params.items():
                    p.data = last_good[name]
                result.diverged = True
                return result
            loss.backward()
            optimizer.step(lr)
            total += value
        result.loss_rows.append((epoch, total / steps_per_epoch, lr))
        result.completed_epochs = epoch
        last_good = {k: p.data.copy() for k, p in model.params.items()}
    return result
