"""Built-in invariant checks, runnable without a test framework.

Each check is a small closed-form or structural assertion that must hold on
any machine before trusting longer runs. `sardist selftest` prints one
PASS/FAIL line per check and exits nonzero if any failed.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor, no_grad
from .disturbance import lower_median, mahalanobis_map, log_ratio_map
from .evaluation import LabeledScores, pr_curve
from .inference import SweepConfig, sweep_estimate, window_positions
from .model import Model, ModelConfig
from .preprocess import PreprocessConfig, despeckle_values, to_logit
from .raster import DistributionEstimate
from .synth import SynthConfig, generate_scene
from .training import Adam, nll_loss


def _require(ok, condition: str) -> None:
    # an explicit raise, unlike a bare assert, still checks under python -O
    if not ok:
        raise RuntimeError(f"expected {condition}")


def _check_logit_roundtrip() -> None:
    rng = np.random.default_rng(7)
    x = rng.uniform(1e-4, 1 - 1e-4, size=4096)
    back = 1.0 / (1.0 + np.exp(-to_logit(x)))
    _require(np.max(np.abs(back - x)) < 1e-6, "roundtrip error < 1e-6")


def _check_nll_unit() -> None:
    mu = Tensor(np.zeros((8, 8)), requires_grad=True)
    sigma = Tensor(np.ones((8, 8)), requires_grad=True)
    loss = nll_loss(mu, sigma, np.zeros((8, 8)))
    expect = 0.5 * math.log(2.0 * math.pi)
    _require(abs(float(loss.data) - expect) < 1e-9, "nll = log(2 pi) / 2")


def _check_adam_first_step() -> None:
    w = Tensor(np.zeros(5), requires_grad=True)
    w.grad = np.array([1.0, -1.0, 0.5, -2.0, 3.0])
    opt = Adam({"w": w})
    opt.step(1e-3)
    g = np.array([1.0, -1.0, 0.5, -2.0, 3.0])
    expect = -1e-3 * g / (np.abs(g) + 1e-8)
    _require(np.max(np.abs(w.data - expect)) < 1e-12, "first step = -lr * sign(g)")


def _check_lower_median() -> None:
    vals = np.array([5.0, 1.0, 4.0, 2.0])
    _require(lower_median(vals) == 2.0, "lower median of [5, 1, 4, 2] = 2")
    vals = np.array([3.0, 1.0, 2.0])
    _require(lower_median(vals) == 2.0, "median of [3, 1, 2] = 2")


def _check_metric_shapes() -> None:
    rng = np.random.default_rng(3)
    mu = rng.normal(size=(2, 8, 8))
    sigma = np.abs(rng.normal(size=(2, 8, 8))) + 0.5
    est = DistributionEstimate(mu=mu, sigma=sigma)
    post = rng.normal(size=(2, 8, 8)).astype(np.float32)
    dmap = mahalanobis_map(est, post)
    _require(dmap.values.shape == (8, 8), "mahalanobis map shape (8, 8)")
    _require(dmap.units == "standard_deviations", "mahalanobis units standard_deviations")
    pre = rng.uniform(0.01, 0.9, size=(4, 2, 8, 8)).astype(np.float32)
    lmap = log_ratio_map(pre, pre[0])
    _require(lmap.values.shape == (8, 8), "log ratio map shape (8, 8)")
    _require(lmap.units == "log10_ratio", "log ratio units log10_ratio")


def _check_window_positions() -> None:
    _require(window_positions(64, 16, 16) == [0, 16, 32, 48], "disjoint tiling")
    _require(window_positions(20, 16, 4) == [0, 4], "last window clamped")
    _require(window_positions(16, 16, 4) == [0], "one window")


def _check_tv_constant() -> None:
    u = np.full((16, 16), 0.2, dtype=np.float32)
    out = despeckle_values(u, PreprocessConfig(tv_iterations=20))
    _require(np.max(np.abs(out - u)) < 1e-6, "constant unchanged")


def _check_tv_descends() -> None:
    # 0.5*||x-f||^2 + weight*TV(x) in dB, of the despeckled u and of the input f
    cfg = PreprocessConfig(tv_iterations=30)
    values = np.random.default_rng(11).uniform(0.05, 0.5, size=(16, 16)).astype(np.float32)
    f, u = (10.0 * np.log10(v.astype(np.float64)) for v in (values, despeckle_values(values, cfg)))
    after, before = (0.5 * np.sum((x - f) ** 2) + cfg.tv_weight_db * sum(
        np.abs(np.diff(x, axis=a)).sum() for a in (0, 1)) for x in (u, f))
    _require(after < before, "objective drops")


def _check_forward_shapes() -> None:
    cfg = ModelConfig(d_model=32, num_heads=2, num_layers=1, ff_dim=48)
    model = Model(cfg, seed=0)
    x = np.random.default_rng(5).normal(size=(2, 3, 2, 16, 16)).astype(np.float32)
    mu, sigma = model.forward(x, train=False)
    _require(mu.data.shape == (2, 2, 16, 16), "mu shape (2, 2, 16, 16)")
    _require(np.all(sigma.data >= cfg.sigma_floor), "sigma >= floor")


def _check_no_grad_forward() -> None:
    cfg = ModelConfig(d_model=32, num_heads=2, num_layers=2, ff_dim=48)
    model = Model(cfg, seed=0)
    x = np.random.default_rng(6).normal(size=(2, 3, 2, 16, 16)).astype(np.float32)
    mu, sigma = model.forward(x, train=False)
    with no_grad():
        mu_ng, sigma_ng = model.forward(x, train=False)
    _require(np.array_equal(mu.data, mu_ng.data) and np.array_equal(sigma.data, sigma_ng.data),
             "grad-free forward equal to graph forward bitwise")
    _require(not mu_ng.requires_grad and not sigma_ng.requires_grad,
             "grad-free outputs outside the graph")
    _require((model.params["embed.w"] * 2.0).requires_grad,
             "gradient tracking back on after no_grad")


def _check_sweep_constant_stub() -> None:
    class _Stub:
        class cfg:
            input_size = 16
            channels = 2

        def forward(self, x, train=False, rng=None):
            b = x.data.shape[0]
            ones = np.ones((b, 2, 16, 16), dtype=np.float32)
            return Tensor(ones), Tensor(ones)

    frames = np.zeros((3, 2, 64, 64), dtype=np.float32)
    est = sweep_estimate(_Stub(), frames, SweepConfig(stride=4))
    _require(np.all(est.mu == 1.0) and np.all(est.sigma == 1.0), "mu = sigma = 1 everywhere")


def _check_pr_hand_case() -> None:
    ls = LabeledScores(scores=np.array([0.9, 0.8, 0.7, 0.6]),
                       labels=np.array([True, False, True, False]))
    curve = pr_curve(ls)
    _require(abs(curve.best_f1 - 0.8) < 1e-12, "best F1 0.8")
    _require(abs(curve.auc - 19.0 / 24.0) < 1e-12, "PR-AUC 19/24")


def _check_scene_determinism() -> None:
    cfg = SynthConfig(seed=42)
    a, mask_a = generate_scene(cfg)
    b, mask_b = generate_scene(cfg)
    _require(np.array_equal(a.values, b.values), "identical values")
    _require(np.array_equal(mask_a, mask_b), "identical masks")


CHECKS = (
    ("logit roundtrip within 1e-6", _check_logit_roundtrip),
    ("unit-gaussian nll closed form", _check_nll_unit),
    ("adam first step closed form", _check_adam_first_step),
    ("lower median tie-break", _check_lower_median),
    ("metric map shapes and units", _check_metric_shapes),
    ("sweep window positions", _check_window_positions),
    ("tv fixes constants", _check_tv_constant),
    ("tv objective descends", _check_tv_descends),
    ("model forward shapes, sigma floor", _check_forward_shapes),
    ("grad-free forward equals graph forward", _check_no_grad_forward),
    ("constant-stub sweep is exact", _check_sweep_constant_stub),
    ("pr curve hand case", _check_pr_hand_case),
    ("scene generation deterministic", _check_scene_determinism),
)


def run_selftest() -> int:
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # report, keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    if failures:
        print(f"{failures} of {len(CHECKS)} checks failed")
        return 1
    print(f"all {len(CHECKS)} checks passed")
    return 0
