"""Two-image evaluation protocol: PR curves, F1 sweeps, the eval report
(`emit_report`), and `run_experiment`, the whole pipeline from a synthetic
corpus to PR curves.

Scoring set: the metric map of a held-out pre-event frame contributes
all-negative pixels, the post-event metric map contributes pixels labeled by
the truth mask; both are flattened row-major and concatenated pre-first.

All thresholding is strict (predicted disturbed iff score > tau). Every
threshold metric reads one table of operating points from one sort of the
scores: the candidate thresholds in decreasing order, each unique score and
then a floor one below the minimum, with the predicted and true-positive
counts at each. The best F1 is the first maximum over all of them, so ties go
to the largest tau; an explicit tau reads the largest candidate at or below
it. A PR curve keeps the unique scores (quantile-downsampled to at most
`max_points`), the best-F1 candidate and the floor, less the first candidate:
the maximum score predicts nothing, so its precision is undefined. It is the
one skipped threshold, with F1 0 by convention.

PR-AUC is the trapezoidal integral over (recall, precision) sorted by
recall, with the left endpoint at recall=0 carrying the precision of the
highest defined threshold (no interpolation to (0,1)).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .disturbance import score_frame
from .errors import ShapeError, ValidationError, float_array
from .inference import SweepConfig, forecast
from .model import Model, ModelConfig
from .preprocess import despeckle_stack, despeckle_values, to_logit
from .raster import DistributionEstimate, DisturbanceMap, RasterStack, write_file, write_json
from .synth import SynthConfig, generate_scene, generate_training_corpus, load_corpus
from .training import TrainConfig, TrainResult, _check_t_max, train

#: the files `emit_report` writes into its output directory, in writing order
REPORT_FILES = ("pr_curve.csv", "f1_vs_tau.csv", "pr_curve.svg", "f1_vs_tau.svg",
                "summary.json")


def _bool_labels(labels, name: str) -> np.ndarray:
    """`labels` as a bool array of its own shape; only bool or 0/1 integers are labels."""
    try:
        labels = np.asarray(labels)
    except ValueError:   # numpy's "inhomogeneous shape" of a ragged nested sequence
        raise ShapeError(f"{name} must be (...), got a ragged sequence") from None
    if labels.size and labels.dtype != bool and not (
            labels.dtype.kind in "iu" and np.isin(labels, (0, 1)).all()):
        raise ValidationError(f"{name} must be bool or 0/1 integers, got dtype {labels.dtype}")
    return labels.astype(bool, copy=False)


@dataclass
class LabeledScores:
    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.scores = float_array(self.scores, "scores", "...", np.float64).ravel()
        self.labels = _bool_labels(self.labels, "labels").ravel()
        if self.scores.shape != self.labels.shape:
            raise ShapeError(f"{self.scores.size} scores vs {self.labels.size} labels")
        if self.scores.size == 0:
            raise ValidationError("empty score set")
        if not np.all(np.isfinite(self.scores)):
            raise ValidationError("scores contain non-finite values")
        if not self.labels.any():
            raise ValidationError("score set has no positive pixels")
        if self.labels.all():
            raise ValidationError("score set has no negative pixels")


def build_labeled_set(pre_map: DisturbanceMap, post_map: DisturbanceMap,
                      truth: np.ndarray) -> LabeledScores:
    """Concatenate (pre frame: all negative) + (post frame: truth labels)."""
    truth = _bool_labels(truth, "truth")
    if pre_map.units != post_map.units:
        raise ValidationError(
            f"mixing metric units {pre_map.units!r} and {post_map.units!r}"
        )
    if pre_map.values.shape != post_map.values.shape or truth.shape != post_map.values.shape:
        raise ShapeError(
            f"shape mismatch: pre {pre_map.values.shape}, post "
            f"{post_map.values.shape}, truth {truth.shape}"
        )
    scores = np.concatenate([pre_map.values.ravel(), post_map.values.ravel()])
    labels = np.concatenate([np.zeros(truth.size, dtype=bool), truth.ravel()])
    return LabeledScores(scores, labels)


def two_image_scores(stack: RasterStack, truth: np.ndarray,
                     est: DistributionEstimate | None = None) -> LabeledScores:
    """Score the held-out pre frame and the post frame of a stack of T >= 4 frames.

    Frames [:-2] are the baseline, frame -2 the held-out pre-event frame and
    frame -1 the post-event frame. With an estimate, which must have been
    forecast from exactly the baseline (`forecast(..., drop_last=2)`), both are
    scored against it; without one, by the log ratio against the baseline.
    """
    count = stack.num_steps
    if count < 4:
        raise ValidationError(f"evaluation needs >= 4 frames, got {count}")
    pre, post = (score_frame(stack, frame, est, count - 2) for frame in (-2, -1))
    return build_labeled_set(pre, post, truth)


@dataclass
class PRCurve:
    #: (tau, precision, recall, f1) rows in decreasing-tau order,
    #: defined-precision points only
    points: list[tuple[float, float, float, float]]
    auc: float
    best_tau: float
    best_f1: float
    best_precision: float
    best_recall: float
    max_score: float = 0.0
    num_positive: int = 0
    num_negative: int = 0


def _operating_points(ls: LabeledScores):
    """Candidate thresholds (unique scores, decreasing, then the floor) with
    the predicted and true-positive counts at each."""
    order = np.argsort(-ls.scores, kind="stable")
    s = ls.scores[order]
    cum_tp = np.concatenate([[0], np.cumsum(ls.labels[order])])
    predicted = np.append(np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]])), s.size)
    return np.append(s[predicted[:-1]], s[-1] - 1.0), predicted, cum_tp[predicted]


def _f1(tp: np.ndarray, predicted: np.ndarray, positives: int) -> np.ndarray:
    """2 TP / (2 TP + FP + FN), whose denominator is predicted + positives >= 1."""
    return 2.0 * tp / (predicted + positives)


def pr_curve(ls: LabeledScores, max_points: int | None = 512) -> PRCurve:
    return _pr_curve(ls, _operating_points(ls), max_points)


def _pr_curve(ls: LabeledScores, ops, max_points: int | None) -> PRCurve:
    """`pr_curve` from the operating points `ops` of `ls`."""
    if max_points is not None and max_points < 2:
        raise ValidationError(f"max_points must be >= 2, got {max_points}")
    tau, predicted, tp = ops
    positives = int(ls.labels.sum())
    f1 = _f1(tp, predicted, positives)
    best = int(np.argmax(f1))   # the first maximum: ties go to the largest tau
    k = tau.size - 1            # unique scores; candidate k is the floor
    if max_points is None or k <= max_points:
        selected = np.arange(k)
    else:
        selected = np.round(np.linspace(0, k - 1, max_points)).astype(int)
    # candidate 0 predicts nothing: its precision is undefined
    selected = np.union1d(selected, [best, k])[1:]
    precision = tp[selected] / predicted[selected]
    recall = tp / positives
    points = list(zip(tau[selected].tolist(), precision.tolist(),
                      recall[selected].tolist(), f1[selected].tolist()))
    return PRCurve(
        points=points,
        auc=_pr_auc(points),
        best_tau=float(tau[best]),
        best_f1=float(f1[best]),
        best_precision=float(tp[best] / predicted[best]),
        best_recall=float(recall[best]),
        max_score=float(tau[0]),
        num_positive=positives,
        num_negative=ls.scores.size - positives,
    )


def _pr_path(points: list[tuple[float, float, float, float]]) -> list[tuple[float, float]]:
    """(recall, precision) pairs, led by the recall=0 endpoint at the first precision."""
    # points arrive in decreasing-tau order, i.e. nondecreasing recall
    return [(0.0, points[0][1])] + [(r, p) for _, p, r, _ in points] if points else []


def _pr_auc(points: list[tuple[float, float, float, float]]) -> float:
    """Trapezoid over recall with the recall=0 endpoint carried flat."""
    path = _pr_path(points)
    auc = 0.0
    for (r0, p0), (r1, p1) in zip(path, path[1:]):
        auc += (r1 - r0) * 0.5 * (p0 + p1)
    return auc


def run_experiment(corpus_cfg: SynthConfig, corpus_size: int, corpus_dir: str,
                   model_cfg: ModelConfig, train_cfg: TrainConfig, scene_cfg: SynthConfig,
                   sweep: SweepConfig) -> tuple[TrainResult, PRCurve, PRCurve]:
    """The documented pipeline: (training result, forecast and log-ratio PR curves).

    `corpus_size` sequences of `corpus_cfg` (master seed `corpus_cfg.seed`) go to
    `corpus_dir`; a model seeded with `train_cfg.seed` trains on their despeckled
    logits and forecasts the despeckled scene of `scene_cfg` from its frames [:-2].
    The bits are those of the CLI chain synth, despeckle, train, synth, despeckle,
    estimate --drop-last 2 and eval (two-image protocol)."""
    _check_t_max(model_cfg, train_cfg)   # the rule across two configs, before any write
    manifest = generate_training_corpus(corpus_cfg, corpus_size, out_dir=corpus_dir)
    frames = to_logit(despeckle_values(load_corpus(manifest)))
    result = train(Model(model_cfg, seed=train_cfg.seed), train_cfg, frames)
    stack, truth = generate_scene(scene_cfg)
    stack = despeckle_stack(stack)
    est = forecast(result.model, stack, sweep, drop_last=2)
    return (result, pr_curve(two_image_scores(stack, truth, est)),
            pr_curve(two_image_scores(stack, truth)))


def _f1_rows(ls: LabeledScores, ops, taus: np.ndarray) -> list[tuple[float, float, float]]:
    """Rows (tau, tau/max_score, f1), strict >, at finite 1-d `taus` from `ops` of `ls`."""
    tau, predicted, tp = ops
    # the largest candidate at or below each tau; below the floor, the floor
    row = np.minimum(np.searchsorted(-tau, -taus), tau.size - 1)
    f1 = _f1(tp[row], predicted[row], int(ls.labels.sum()))
    max_score = float(tau[0])
    normalized = taus / max_score if max_score > 0 else np.zeros_like(taus)
    return list(zip(taus.tolist(), normalized.tolist(), f1.tolist()))


# ---------------------------------------------------------------------------
# report emission (CSV + deterministic hand-rolled SVG)
# ---------------------------------------------------------------------------

def _csv(header: str, rows) -> str:
    lines = [header] + [",".join(f"{v:.10g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 26, 56


def _sx(x: float) -> float:
    return _ML + min(max(x, 0.0), 1.0) * (_W - _ML - _MR)


def _sy(y: float) -> float:
    return _H - _MB - y * (_H - _MT - _MB)


def _plot(title: str, xlabel: str, ylabel: str, path: list[tuple[float, float]],
          colour: str, star: tuple[float, float], caption: str | None = None) -> str:
    """SVG of the unit square, x clamped to it: `path` as a polyline, a star, a caption."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="16" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
    ]
    for i in range(6):
        v = i / 5.0
        x, y = _sx(v), _sy(v)
        parts.append(f'<line x1="{x:.1f}" y1="{_sy(0):.1f}" x2="{x:.1f}" '
                     f'y2="{_sy(0) + 5:.1f}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{_sy(0) + 18:.1f}" text-anchor="middle" '
                     f'font-family="monospace" font-size="11">{v:.1f}</text>')
        parts.append(f'<line x1="{_sx(0):.1f}" y1="{y:.1f}" x2="{_sx(0) - 5:.1f}" '
                     f'y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_sx(0) - 8:.1f}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-family="monospace" font-size="11">{v:.1f}</text>')
    parts.append(f'<rect x="{_sx(0):.1f}" y="{_sy(1):.1f}" '
                 f'width="{_sx(1) - _sx(0):.1f}" height="{_sy(0) - _sy(1):.1f}" '
                 f'fill="none" stroke="black"/>')
    parts.append(f'<text x="{(_sx(0) + _sx(1)) / 2:.1f}" y="{_H - 12}" '
                 f'text-anchor="middle" font-family="monospace" font-size="12">{xlabel}</text>')
    parts.append(f'<text x="18" y="{(_sy(0) + _sy(1)) / 2:.1f}" text-anchor="middle" '
                 f'font-family="monospace" font-size="12" '
                 f'transform="rotate(-90 18 {(_sy(0) + _sy(1)) / 2:.1f})">{ylabel}</text>')
    poly = " ".join(f"{_sx(x):.2f},{_sy(y):.2f}" for x, y in path)
    parts.append(f'<polyline points="{poly}" fill="none" stroke="{colour}" stroke-width="2"/>')
    cx, cy = _sx(star[0]), _sy(star[1])
    pts = []
    for i in range(10):
        r = 7.0 if i % 2 == 0 else 7.0 * 0.42
        ang = -np.pi / 2 + i * np.pi / 5
        pts.append(f"{cx + r * np.cos(ang):.2f},{cy + r * np.sin(ang):.2f}")
    parts.append(f'<polygon points="{" ".join(pts)}" fill="gold" stroke="black"/>')
    if caption is not None:
        parts.append(f'<text x="{_sx(0.02):.1f}" y="{_sy(0.04):.1f}" font-family="monospace" '
                     f'font-size="12">{caption}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(out_dir: str, ls: LabeledScores, max_points: int | None = 512) -> dict:
    """Write the REPORT_FILES of `ls` into `out_dir`, return the summary: its PR curve and
    its F1 at 256 thresholds from 0 to the maximum score as CSV and SVG, then summary.json."""
    ops = _operating_points(ls)   # one sort of the scores for the whole report
    curve = _pr_curve(ls, ops, max_points)
    f1_rows = _f1_rows(ls, ops, np.linspace(0.0, curve.max_score, 256))
    best_tau_normalized = curve.best_tau / curve.max_score if curve.max_score > 0 else 0.0
    summary = {
        "pr_auc": curve.auc,
        "best_tau": curve.best_tau,
        "best_tau_normalized": best_tau_normalized,
        "best_f1": curve.best_f1,
        "best_precision": curve.best_precision,
        "best_recall": curve.best_recall,
        "num_positive": curve.num_positive,
        "num_negative": curve.num_negative,
        "skipped_thresholds": [curve.max_score],
    }
    texts = (
        _csv("tau,precision,recall,f1", curve.points),
        _csv("tau,tau_normalized,f1", f1_rows),
        _plot("precision vs recall", "recall", "precision", _pr_path(curve.points),
              "steelblue", (curve.best_recall, curve.best_precision),
              f"AUC={curve.auc:.4f} bestF1={curve.best_f1:.4f} tau={curve.best_tau:.4f}"),
        _plot("F1 vs normalized threshold", "tau / max score", "F1",
              [(tn, f1) for _, tn, f1 in f1_rows], "firebrick",
              (best_tau_normalized, curve.best_f1)),
    )
    os.makedirs(out_dir, exist_ok=True)
    for name, text in zip(REPORT_FILES[:-1], texts):
        write_file(os.path.join(out_dir, name), [text.encode("utf-8")])
    write_json(os.path.join(out_dir, REPORT_FILES[-1]), summary)
    return summary
