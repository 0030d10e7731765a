"""Acceptance suite: ten numbered checks, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; each
check measures and enforces its own runtime bound. All inputs are seeded, so
results are identical across reruns and machines with the same numpy.
"""

import math
import os
import time

import numpy as np

from sardist.autodiff import Tensor
from sardist.disturbance import log_ratio_map, mahalanobis_map
from sardist.evaluation import LabeledScores, pr_curve, run_experiment
from sardist.inference import SweepConfig, sweep_estimate
from sardist.model import (
    Model,
    ModelConfig,
    patch_split,
)
from sardist.raster import DistributionEstimate
from sardist.synth import SynthConfig
from sardist.training import TrainConfig, nll_loss

from gradcheck import gradient_check


def _report(num: int, ok: bool, bound_s: float, elapsed: float, detail: str) -> None:
    status = "PASS" if ok and elapsed < bound_s else "FAIL"
    print(f"criterion {num:2d} [{status}] {detail} (t={elapsed:.2f}s, bound {bound_s:g}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < bound_s, f"criterion {num}: took {elapsed:.1f}s, bound {bound_s:g}s"


# ---------------------------------------------------------------------------

def test_criterion_01_parameter_counts():
    t0 = time.time()
    transformer = Model(ModelConfig(), seed=0).parameter_count()
    gru = Model(ModelConfig.gru_default(), seed=0).parameter_count()
    small = Model(ModelConfig(ff_dim=512, num_layers=2), seed=0).parameter_count()
    large = Model(ModelConfig(ff_dim=1024, num_layers=8), seed=0).parameter_count()
    ok = (abs(transformer - 3.3e6) <= 0.05 * 3.3e6
          and abs(gru - 3.3e6) <= 0.05 * 3.3e6
          and abs(small - 1.5e6) <= 0.10 * 1.5e6
          and abs(large - 7.1e6) <= 0.10 * 7.1e6)
    _report(1, ok, 1.0, time.time() - t0,
            f"params transformer={transformer} gru={gru} small={small} large={large}")


def test_criterion_02_token_count():
    t0 = time.time()
    frames = np.zeros((10, 2, 16, 16), dtype=np.float32)
    tokens = patch_split(frames, 8)
    count = tokens.shape[0] * tokens.shape[1]
    ok = tokens.shape[:2] == (10, 4) and count == 40
    _report(2, ok, 1.0, time.time() - t0, f"tokens={count} (shape {tokens.shape})")


def test_criterion_03_gradient_gate():
    t0 = time.time()
    rng = np.random.default_rng(0)
    model = Model(ModelConfig(), seed=0)
    x = rng.normal(-2.0, 1.0, size=(1, 5, 2, 16, 16))
    target = rng.normal(-2.0, 1.0, size=(1, 2, 16, 16))
    report = gradient_check(model, x, target, num_probes=50, h=1e-5, seed=0)
    ok = report.passed and report.max_relative_error < 1e-4 and len(report.probes) >= 50
    _report(3, ok, 300.0, time.time() - t0,
            f"max relative error {report.max_relative_error:.3e} over {len(report.probes)} probes")


def test_criterion_04_loss_analytics():
    t0 = time.time()
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 2, 6, 6))
    value = float(nll_loss(Tensor(x.copy()), Tensor(np.ones_like(x)), x).data)
    closed_form_ok = abs(value - 0.918939) < 1e-6

    residual = 0.63
    grid = np.linspace(0.05, 2.0, 1951)  # 1e-3 resolution
    vals = [float(nll_loss(Tensor(np.zeros(1)), Tensor(np.array([s])),
                           np.array([residual])).data) for s in grid]
    best_sigma = float(grid[int(np.argmin(vals))])
    stationary_ok = abs(best_sigma - residual) <= 1e-3 + 1e-12
    ok = closed_form_ok and stationary_ok
    _report(4, ok, 1.0, time.time() - t0,
            f"nll(mu=x,sigma=1)={value:.9f}, sigma* grid argmin {best_sigma:.3f} "
            f"vs |residual| {residual}")


def _scalar_mahalanobis(est, post):
    c, h, w = est.mu.shape
    out = np.zeros((h, w), dtype=np.float32)
    for r in range(h):
        for col in range(w):
            best = 0.0
            for p in range(c):
                d = abs(float(post[p, r, col]) - float(est.mu[p, r, col]))
                d /= float(est.sigma[p, r, col])
                best = max(best, d)
            out[r, col] = np.float32(best)
    return out


def _scalar_log_ratio(pre, post):
    t, c, h, w = pre.shape
    out = np.zeros((h, w), dtype=np.float32)
    for r in range(h):
        for col in range(w):
            best = 0.0
            for p in range(c):
                ordered = sorted(float(pre[k, p, r, col]) for k in range(t))
                ref = ordered[(t - 1) // 2]
                best = max(best, abs(float(np.log10(float(post[p, r, col])))
                                     - float(np.log10(ref))))
            out[r, col] = np.float32(best)
    return out


def test_criterion_05_metric_oracles():
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        est = DistributionEstimate(rng.normal(0, 2, size=(2, 8, 8)),
                                   rng.uniform(0.05, 3.0, size=(2, 8, 8)))
        post = rng.normal(0, 2, size=(2, 8, 8))
        got = mahalanobis_map(est, post).values
        worst = max(worst, float(np.abs(got - _scalar_mahalanobis(est, post)).max()))

        t = int(rng.integers(2, 9))
        pre = rng.uniform(0.01, 0.9, size=(t, 2, 8, 8))
        post_b = rng.uniform(0.01, 0.9, size=(2, 8, 8))
        got_b = log_ratio_map(pre, post_b).values
        worst = max(worst, float(np.abs(got_b - _scalar_log_ratio(pre, post_b)).max()))
    ok = worst <= 1e-12
    _report(5, ok, 30.0, time.time() - t0,
            f"worst |metric - scalar oracle| = {worst:.2e} over 2x1000 trials")


class _ConstantStub:
    def __init__(self, size):
        from types import SimpleNamespace

        self.cfg = SimpleNamespace(input_size=size)

    def forward(self, x, train=False, rng=None):
        b, _, c, h, w = x.shape
        one = np.ones((b, c, h, w), dtype=np.float32)
        return Tensor(one), Tensor(one.copy())


def test_criterion_06_sweep_exactness():
    t0 = time.time()
    frames = np.full((5, 2, 64, 64), -2.0, dtype=np.float32)
    stub = _ConstantStub(16)
    exact = True
    for stride in (1, 4, 8, 16):
        est = sweep_estimate(stub, frames, SweepConfig(stride=stride))
        exact = exact and bool((est.mu == 1.0).all() and (est.sigma == 1.0).all())

    cfg = ModelConfig(input_size=16, patch_size=8, d_model=16, num_heads=2,
                      num_layers=1, ff_dim=16, max_t=10, dropout=0.0)
    model = Model(cfg, seed=0)
    rng = np.random.default_rng(3)
    scene = rng.normal(-2.0, 0.5, size=(5, 2, 64, 64)).astype(np.float32)
    est = sweep_estimate(model, scene, SweepConfig(stride=16))
    tiled = True
    for r in range(0, 64, 16):
        for c in range(0, 64, 16):
            mu, sigma = model.forward(scene[None, :, :, r:r + 16, c:c + 16], train=False)
            tiled = tiled and np.array_equal(est.mu[:, r:r + 16, c:c + 16],
                                             mu.data[0].astype(np.float32))
            tiled = tiled and np.array_equal(est.sigma[:, r:r + 16, c:c + 16],
                                             sigma.data[0].astype(np.float32))
    ok = exact and tiled
    _report(6, ok, 60.0, time.time() - t0,
            f"constant-stub exact={exact}, disjoint tiling bitwise={tiled}")


def test_criterion_07_end_to_end_benchmark(tmp_path):
    t0 = time.time()
    # seeded corpus with a seasonal cycle longer than the model window; the
    # despeckled pipeline scores frames -2 and -1 of a despeckled scene
    syn = SynthConfig(seasonal_amplitude_db=1.5, seasonal_period=24, seed=2024)
    tc = TrainConfig(batch_size=1, epochs=5, lr_initial=5e-4, lr_after_decay=5e-4,
                     decay_epoch=5, seed=0)
    scene_cfg = SynthConfig(height=128, width=128, seasonal_amplitude_db=1.5,
                            seasonal_period=24, disturbance_fraction=0.05, seed=303)
    result, transformer, logratio = run_experiment(
        syn, 512, str(tmp_path / "corpus"), ModelConfig(ff_dim=512, num_layers=2), tc, scene_cfg,
        SweepConfig(stride=2, batch_size=64))

    ok = (not result.diverged and transformer.auc >= 0.85
          and transformer.auc >= logratio.auc)
    _report(7, ok, 1200.0, time.time() - t0,
            f"transformer pr_auc={transformer.auc!r} >= 0.85 and >= "
            f"logratio pr_auc={logratio.auc!r}")


def _exhaustive_pr_auc(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    positives = int(labels.sum())
    taus = sorted(set(scores.tolist()), reverse=True)
    taus.append(taus[-1] - 1.0)
    pts = []
    for tau in taus:
        predicted = scores > tau
        b = int(predicted.sum())
        if b == 0:
            continue
        tp = int((predicted & labels).sum())
        pts.append((tp / positives, tp / b))
    path = [(0.0, pts[0][1])] + pts
    return sum((r1 - r0) * 0.5 * (p0 + p1)
               for (r0, p0), (r1, p1) in zip(path, path[1:]))


def test_criterion_08_evaluation_oracle():
    t0 = time.time()
    rng = np.random.default_rng(4)
    scores = rng.normal(size=10_000)
    labels = (scores + rng.normal(0, 1.2, size=10_000)) > 0.6
    ls = LabeledScores(scores, labels)
    oracle = _exhaustive_pr_auc(scores, labels)
    down = pr_curve(ls, max_points=512).auc
    downsample_ok = abs(down - oracle) < 0.005

    hand = pr_curve(LabeledScores([0.9, 0.8, 0.7, 0.6], [True, False, True, False]),
                    max_points=None)
    hand_ok = (abs(hand.best_f1 - 0.8) < 1e-12
               and abs(hand.auc - 19.0 / 24.0) < 1e-12)
    ok = downsample_ok and hand_ok
    _report(8, ok, 60.0, time.time() - t0,
            f"|downsampled - exhaustive| = {abs(down - oracle):.2e}; hand case "
            f"best_f1={hand.best_f1:.3f} auc={hand.auc:.12f}")


def test_criterion_09_determinism(tmp_path):
    from sardist.cli import main as cli_main

    t0 = time.time()

    def pipeline(root: str) -> dict:
        os.makedirs(root, exist_ok=True)
        paths = {name: os.path.join(root, name) for name in
                 ("corpus", "ckpt", "scene.rts", "mask.rts", "mu.rts",
                  "sigma.rts", "report")}
        assert cli_main(["synth", "--kind", "corpus", "--count", "4", "--seed", "3",
                         "--out-dir", paths["corpus"]]) == 0
        assert cli_main(["train", "--corpus", os.path.join(paths["corpus"], "corpus.json"),
                         "--out", paths["ckpt"], "--model", "transformer",
                         "--input-size", "16", "--patch-size", "8", "--d-model", "8",
                         "--heads", "2", "--layers", "1", "--ff", "8",
                         "--dropout", "0.0", "--epochs", "1", "--batch-size", "2",
                         "--lr", "1e-4", "--seed", "0"]) == 0
        assert cli_main(["synth", "--kind", "scene", "--seed", "21", "--height", "16",
                         "--width", "16", "--steps", "6", "--fraction", "0.1",
                         "--out", paths["scene.rts"], "--mask", paths["mask.rts"]]) == 0
        assert cli_main(["estimate", "--checkpoint", paths["ckpt"],
                         "--input", paths["scene.rts"], "--out-mu", paths["mu.rts"],
                         "--out-sigma", paths["sigma.rts"], "--stride", "4",
                         "--drop-last", "2", "--threads", "1"]) == 0
        assert cli_main(["eval", "--method", "mahalanobis", "--stack", paths["scene.rts"],
                         "--truth", paths["mask.rts"], "--mu", paths["mu.rts"],
                         "--sigma", paths["sigma.rts"], "--out-dir", paths["report"]]) == 0
        tree = {}
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith("manifest.json"):
                    continue  # manifests record wall-clock durations
                full = os.path.join(dirpath, name)
                with open(full, "rb") as fh:
                    tree[os.path.relpath(full, root)] = fh.read()
        return tree, paths

    tree_a, paths_a = pipeline(str(tmp_path / "a"))
    tree_b, _ = pipeline(str(tmp_path / "b"))
    rerun_ok = set(tree_a) == set(tree_b) and all(
        tree_a[k] == tree_b[k] for k in tree_a)

    mu4 = str(tmp_path / "mu4.rts")
    sigma4 = str(tmp_path / "sigma4.rts")
    assert cli_main(["estimate", "--checkpoint", paths_a["ckpt"],
                     "--input", paths_a["scene.rts"], "--out-mu", mu4,
                     "--out-sigma", sigma4, "--stride", "4", "--drop-last", "2",
                     "--threads", "4"]) == 0
    with open(paths_a["mu.rts"], "rb") as fh:
        mu_single = fh.read()
    with open(mu4, "rb") as fh:
        mu_multi = fh.read()
    with open(paths_a["sigma.rts"], "rb") as fh:
        sigma_single = fh.read()
    with open(sigma4, "rb") as fh:
        sigma_multi = fh.read()
    threads_ok = mu_single == mu_multi and sigma_single == sigma_multi

    ok = rerun_ok and threads_ok
    _report(9, ok, 600.0, time.time() - t0,
            f"rerun byte-identical={rerun_ok} ({len(tree_a)} files), "
            f"threaded estimate bitwise={threads_ok}")


def test_criterion_10_tail_probability():
    t0 = time.time()
    rng = np.random.default_rng(5)
    h, w = 1000, 500  # 5e5 pixels -> 1e6 Gaussian samples across 2 channels
    est = DistributionEstimate(np.zeros((2, h, w)), np.ones((2, h, w)))
    post = rng.standard_normal((2, h, w))
    d = mahalanobis_map(est, post).values
    # d = max over 2 channels; every sample is Gaussian-consistent by construction
    fraction = float(np.mean(d > 3.0))
    ok = fraction < 0.01
    _report(10, ok, 30.0, time.time() - t0,
            f"P(d > 3) = {fraction:.5f} over 1e6 samples")
