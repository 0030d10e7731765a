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
with fixed stream indices, and no array op's result depends on how many
threads run it, so rerunning reproduces the loss curve bit for bit on any
machine. If the loss ever goes non-finite the run aborts and reports the last
finished epoch's weights.

Adam (b1 = 0.9, b2 = 0.999 and e = 1e-8, Kingma & Ba's defaults, fixed) keeps
the scaled moments m/(1-b1) and v/(1-b2), so both bias corrections fold into
two scalars (the last bits differ from the textbook order's) and a step is ten
in-place passes over each parameter, allocating nothing, with subnormals
flushed to zero in each thread that runs them (`native.flush_subnormals`):
where a gradient stays zero, `m` decays into float32 subnormals after about
700 steps, which x86 computes with about 19 times slower. Flushing changes a
parameter bit only where the subnormal update would exceed half an ulp of the
parameter; both benchmark trainings (64 and 1,024 steps) keep every bit.
`train` pins glibc's allocator (`native.pin_malloc`) before its first step,
so the backward's fresh gradient arrays reuse mapped memory rather than fresh
pages, and hands none back (its state is held until it returns; a sweep
trims). At batch 1 the loop runs with OpenBLAS at one thread
(`native.one_blas_thread`): its GEMMs are too small to share, and a second
thread only spent CPU. A second core that cap leaves idle takes half of
the Adam step instead, for models of at least `_ADAM_SPLIT_FLOATS` parameter
floats: two workers, each parameter's ten passes on one of them, so no bit
depends on the worker count. `train` owns the second worker's thread and
joins it before it returns; smaller models, larger batches and one-core
machines step on the calling thread alone.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Executor, ThreadPoolExecutor, wait
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import native
from .autodiff import Tensor
from .errors import ValidationError, bound, check_fields, check_seed
from .model import Model, ModelConfig
from .native import flush_subnormals, one_blas_thread, pin_malloc
from .synth import splitmix64

LOG_TWO_PI = math.log(2.0 * math.pi)
#: parameter floats from which batch-1 Adam takes a second worker. Measured on a 2-vCPU
#: box, a second worker lost time at 466K floats, broke even near 800K and saved 0.31 ms
#: per step at 959K; 2^20 is a round rule above the break-even, not a tuned constant.
_ADAM_SPLIT_FLOATS = 1 << 20


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = bound(256, ">= 1")
    epochs: int = bound(50, ">= 1")
    lr_initial: float = bound(1e-4, "> 0")
    lr_after_decay: float = bound(1e-5, "> 0")
    decay_epoch: int = bound(25, ">= 1")
    t_min: int = bound(2, ">= 2")
    t_max: int = 10
    seed: int = 0
    steps_per_epoch: int | None = bound(None, ">= 1")  # None -> ceil(corpus / batch)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.t_min > self.t_max:
            raise ValidationError(f"need t_min <= t_max, got [{self.t_min}, {self.t_max}]")
        check_seed(self.seed)


def _check_t_max(model_cfg: ModelConfig, cfg: TrainConfig) -> None:
    """ValidationError if a transformer of `model_cfg` cannot take cfg.t_max frames."""
    if model_cfg.kind == "transformer" and cfg.t_max > model_cfg.max_t:
        raise ValidationError(f"t_max {cfg.t_max} exceeds the transformer's max_t "
                              f"{model_cfg.max_t}")


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
    """Adam with bias correction over a named parameter dict, updated in place.

    `m` and `v` hold the scaled moments M = m/(1-b1) and V = v/(1-b2): a step
    is `M = b1*M + g`, `V = b2*V + g*g`, `p -= s*M / (sqrt(V) + e)` with both
    bias corrections folded into s and e (Kingma & Ba 2015, section 2), ten
    passes through one scratch buffer per dtype sized to its largest parameter.

    With a `pool`, a step runs on two threads: the calling one and one of the
    pool's, each with its own scratch and its own subnormal flush (MXCSR is per
    thread). They take the parameters, largest first, from one shared
    iterator, and each parameter gets all ten passes from one of them, so no
    bit depends on which thread ran it. Without one, no thread starts."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], pool: Executor | None = None):
        self.params = params
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        largest = {}
        for p in params.values():
            largest[p.data.dtype] = max(largest.get(p.data.dtype, 0), p.data.size)
        self._scratch = [{dt: np.empty(n, dt) for dt, n in largest.items()}
                         for _ in range(1 if pool is None else 2)]
        self._order = sorted(params, key=lambda k: -params[k].data.size)   # ties: dict order
        self._pool, self._taking = pool, threading.Lock()
        self.subnormals_flushed = False

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        # Python floats: an np.float64 scalar would run the float32 passes in float64
        root = math.sqrt(c2 / (1.0 - b2))
        size, eps = lr * (1.0 - b1) / c1 * root, self.eps * root
        names = iter(self._order)

        def work(scratch: dict) -> bool:
            with flush_subnormals() as flushed:
                while True:
                    with self._taking:
                        name = next(names, None)
                    if name is None:
                        return flushed
                    p = self.params[name]
                    if p.grad is None:
                        continue
                    g, m, v, w = p.grad, self.m[name], self.v[name], p.data
                    b = scratch[w.dtype][:w.size].reshape(w.shape)
                    m *= b1
                    m += g
                    v *= b2
                    v += np.square(g, out=b)
                    np.sqrt(v, out=b)
                    b += eps
                    np.divide(m, b, out=b)
                    b *= size
                    w -= b

        others = [self._pool.submit(work, s) for s in self._scratch[1:]]
        try:
            self.subnormals_flushed = work(self._scratch[0])
        finally:
            wait(others)   # no worker still writes once the step returns or raises
        for other in others:
            other.result()


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


def train(model: Model, cfg: TrainConfig, sequences: np.ndarray,
          stats: dict | None = None) -> TrainResult:
    """Run the training loop on logit sequences (N, steps, C, H, W), finite in model.dtype.

    `stats`, if given, receives the run's facts: `malloc_pinned`, `subnormals_flushed`,
    `blas_capped`, `cpu_s` (the loop's process CPU seconds) and `epoch_step_seconds`,
    the mean wall time of a step in each finished epoch."""
    _check_t_max(model.cfg, cfg)
    sequences = np.asarray(sequences)
    if sequences.dtype.kind not in "biuf":
        raise ValidationError(f"corpus must be numeric, got dtype {sequences.dtype}")
    with np.errstate(over="ignore"):   # past the model dtype's range is inf, rejected below
        sequences = sequences.astype(model.dtype, copy=False)
    if sequences.ndim != 5:
        raise ValidationError(f"corpus must be (N,steps,C,H,W), got {sequences.shape}")
    if sequences.size == 0:
        raise ValidationError(f"corpus is empty, shape {sequences.shape}")
    if not np.isfinite(sequences).all():
        raise ValidationError("corpus contains non-finite values")
    batch_rng = np.random.default_rng(splitmix64(cfg.seed, 1))
    drop_rng = np.random.default_rng(splitmix64(cfg.seed, 2))
    steps_per_epoch = cfg.steps_per_epoch
    if steps_per_epoch is None:
        steps_per_epoch = max(1, -(-sequences.shape[0] // cfg.batch_size))
    facts = {"malloc_pinned": pin_malloc(), "epoch_step_seconds": []}
    result = TrainResult(model=model)
    last_good = {k: p.data.copy() for k, p in model.params.items()}
    floats = sum(p.data.size for p in model.params.values())
    cpu = time.process_time()
    with ExitStack() as stack:
        facts["blas_capped"] = stack.enter_context(
            one_blas_thread() if cfg.batch_size == 1 else nullcontext(False))
        # BLAS at one thread leaves a core idle: a large model's Adam step takes it
        split = (facts["blas_capped"] and floats >= _ADAM_SPLIT_FLOATS
                 and native.usable_cores() > 1)
        pool = stack.enter_context(ThreadPoolExecutor(1)) if split else None
        optimizer = Adam(model.params, pool)
        for epoch in range(1, cfg.epochs + 1):
            lr = lr_at(epoch, cfg)
            total = 0.0
            start = time.perf_counter()
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
                    break
                loss.backward()
                optimizer.step(lr)
                total += value
            if result.diverged:
                break
            facts["epoch_step_seconds"].append((time.perf_counter() - start) / steps_per_epoch)
            result.loss_rows.append((epoch, total / steps_per_epoch, lr))
            result.completed_epochs = epoch
            for name, p in model.params.items():   # one rollback copy, kept in place
                np.copyto(last_good[name], p.data)
    facts["cpu_s"] = time.process_time() - cpu
    if stats is not None:
        stats.update(facts, subnormals_flushed=optimizer.subnormals_flushed)
    return result
