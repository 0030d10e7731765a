"""Two-image evaluation protocol: PR curves, F1 sweeps, report emission.

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
from dataclasses import dataclass, field

import numpy as np

from .disturbance import log_ratio_map, mahalanobis_map
from .errors import ShapeError, ValidationError
from .preprocess import to_logit
from .raster import DistributionEstimate, DisturbanceMap, write_json, write_text

_FMT = "{:.10g}"

#: the files `emit_report` writes into its output directory, in writing order
REPORT_FILES = ("pr_curve.csv", "f1_vs_tau.csv", "pr_curve.svg", "f1_vs_tau.svg",
                "summary.json")


@dataclass
class LabeledScores:
    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64).ravel()
        self.labels = np.asarray(self.labels, dtype=bool).ravel()
        if self.scores.shape != self.labels.shape:
            raise ShapeError(
                f"{self.scores.size} scores vs {self.labels.size} labels"
            )
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
    truth = np.asarray(truth, dtype=bool)
    if pre_map.units != post_map.units:
        raise ValidationError(
            f"mixing metric units {pre_map.units!r} and {post_map.units!r}"
        )
    if pre_map.values.shape != post_map.values.shape or truth.shape != post_map.values.shape:
        raise ShapeError(
            f"shape mismatch: pre {pre_map.values.shape}, post "
            f"{post_map.values.shape}, truth {truth.shape}"
        )
    if not truth.any():
        raise ValidationError("truth mask has no positive pixels")
    scores = np.concatenate([pre_map.values.ravel(), post_map.values.ravel()])
    labels = np.concatenate([np.zeros(truth.size, dtype=bool), truth.ravel()])
    return LabeledScores(scores.astype(np.float64), labels)


def two_image_scores(values: np.ndarray, truth: np.ndarray,
                     est: DistributionEstimate | None = None) -> LabeledScores:
    """Score the held-out pre frame and the post frame of a (S, C, H, W) stack.

    Frames [:-2] are the baseline, frame -2 the held-out pre-event frame and
    frame -1 the post-event frame. With an estimate, the forecast from the
    baseline, both are scored against it; without one, by the log ratio
    against the baseline.
    """
    if values.shape[0] < 4:
        raise ValidationError(f"evaluation needs >= 4 frames, got {values.shape[0]}")
    baseline, pre, post = values[:-2], values[-2], values[-1]
    if est is None:
        pre_map, post_map = log_ratio_map(baseline, pre), log_ratio_map(baseline, post)
    else:
        pre_map = mahalanobis_map(est, to_logit(pre))
        post_map = mahalanobis_map(est, to_logit(post))
    return build_labeled_set(pre_map, post_map, truth)


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
    #: thresholds with zero predicted positives: [max_score]
    skipped_thresholds: list[float] = field(default_factory=list)
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
    if max_points is not None and max_points < 2:
        raise ValidationError(f"max_points must be >= 2, got {max_points}")
    tau, predicted, tp = _operating_points(ls)
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
        skipped_thresholds=[float(tau[0])],
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


def normalized_tau(tau: float, max_score: float) -> float:
    return tau / max_score if max_score > 0 else 0.0


def f1_vs_threshold(ls: LabeledScores, taus) -> list[tuple[float, float, float]]:
    """Rows (tau, tau/max_score, f1) for explicit thresholds, strict >."""
    taus = np.asarray(taus, dtype=np.float64)
    if taus.ndim != 1 or taus.size == 0:
        raise ValidationError("need a non-empty 1-d threshold list")
    if not np.all(np.isfinite(taus)):
        raise ValidationError("thresholds contain non-finite values")
    tau, predicted, tp = _operating_points(ls)
    # the largest candidate at or below each tau; below the floor, the floor
    row = np.minimum(np.searchsorted(-tau, -taus), tau.size - 1)
    f1 = _f1(tp[row], predicted[row], int(ls.labels.sum()))
    max_score = float(tau[0])
    normalized = taus / max_score if max_score > 0 else np.zeros_like(taus)
    return list(zip(taus.tolist(), normalized.tolist(), f1.tolist()))


def default_tau_grid(ls: LabeledScores, count: int = 256) -> np.ndarray:
    """Evenly spaced thresholds from 0 to the maximum score."""
    if count < 2:
        raise ValidationError(f"grid needs >= 2 points, got {count}")
    return np.linspace(0.0, float(ls.scores.max()), count)


# ---------------------------------------------------------------------------
# report emission (CSV + deterministic hand-rolled SVG)
# ---------------------------------------------------------------------------

def pr_curve_csv(curve: PRCurve) -> str:
    lines = ["tau,precision,recall,f1"]
    for tau, precision, recall, f1 in curve.points:
        lines.append(",".join(_FMT.format(v) for v in (tau, precision, recall, f1)))
    return "\n".join(lines) + "\n"


def f1_table_csv(rows: list[tuple[float, float, float]]) -> str:
    lines = ["tau,tau_normalized,f1"]
    for tau, tau_norm, f1 in rows:
        lines.append(",".join(_FMT.format(v) for v in (tau, tau_norm, f1)))
    return "\n".join(lines) + "\n"


_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 26, 56


def _sx(x: float) -> float:
    return _ML + x * (_W - _ML - _MR)


def _sy(y: float) -> float:
    return _H - _MB - y * (_H - _MT - _MB)


def _svg_frame(title: str, xlabel: str, ylabel: str, body: list[str]) -> str:
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
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _star(cx: float, cy: float, radius: float = 7.0) -> str:
    pts = []
    for i in range(10):
        r = radius if i % 2 == 0 else radius * 0.42
        ang = -np.pi / 2 + i * np.pi / 5
        pts.append(f"{cx + r * np.cos(ang):.2f},{cy + r * np.sin(ang):.2f}")
    return f'<polygon points="{" ".join(pts)}" fill="gold" stroke="black"/>'


def render_pr_svg(curve: PRCurve) -> str:
    poly = " ".join(f"{_sx(r):.2f},{_sy(p):.2f}" for r, p in _pr_path(curve.points))
    body = [f'<polyline points="{poly}" fill="none" stroke="steelblue" stroke-width="2"/>']
    body.append(_star(_sx(curve.best_recall), _sy(curve.best_precision)))
    body.append(f'<text x="{_sx(0.02):.1f}" y="{_sy(0.04):.1f}" font-family="monospace" '
                f'font-size="12">AUC={curve.auc:.4f} bestF1={curve.best_f1:.4f} '
                f'tau={curve.best_tau:.4f}</text>')
    return _svg_frame("precision vs recall", "recall", "precision", body)


def render_f1_svg(rows: list[tuple[float, float, float]], best_tau_norm: float,
                  best_f1: float) -> str:
    poly = " ".join(
        f"{_sx(min(max(tn, 0.0), 1.0)):.2f},{_sy(f1):.2f}" for _, tn, f1 in rows
    )
    body = [f'<polyline points="{poly}" fill="none" stroke="firebrick" stroke-width="2"/>']
    body.append(_star(_sx(min(max(best_tau_norm, 0.0), 1.0)), _sy(best_f1)))
    return _svg_frame("F1 vs normalized threshold", "tau / max score", "F1", body)


def emit_report(out_dir: str, curve: PRCurve,
                f1_rows: list[tuple[float, float, float]]) -> dict:
    """Write the REPORT_FILES (both CSVs, both SVGs, summary.json) into `out_dir`."""
    best_tau_normalized = normalized_tau(curve.best_tau, curve.max_score)
    summary = {
        "pr_auc": curve.auc,
        "best_tau": curve.best_tau,
        "best_tau_normalized": best_tau_normalized,
        "best_f1": curve.best_f1,
        "best_precision": curve.best_precision,
        "best_recall": curve.best_recall,
        "num_positive": curve.num_positive,
        "num_negative": curve.num_negative,
        "skipped_thresholds": curve.skipped_thresholds,
    }
    texts = (pr_curve_csv(curve), f1_table_csv(f1_rows), render_pr_svg(curve),
             render_f1_svg(f1_rows, best_tau_normalized, curve.best_f1))
    os.makedirs(out_dir, exist_ok=True)
    for name, text in zip(REPORT_FILES[:-1], texts):
        write_text(os.path.join(out_dir, name), text)
    write_json(os.path.join(out_dir, REPORT_FILES[-1]), summary)
    return summary
