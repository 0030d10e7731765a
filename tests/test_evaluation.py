"""Tests for PR curves and report emission against a brute-force oracle."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sardist.disturbance import log_ratio_map
from sardist.errors import ShapeError, ValidationError
from sardist.evaluation import (
    LabeledScores,
    build_labeled_set,
    default_tau_grid,
    emit_report,
    f1_table_csv,
    f1_vs_threshold,
    normalized_tau,
    pr_curve,
    pr_curve_csv,
    render_f1_svg,
    render_pr_svg,
    two_image_scores,
)
from sardist.preprocess import to_logit
from sardist.raster import DistributionEstimate, DisturbanceMap


def exhaustive_pr(scores, labels):
    """Brute force over every unique threshold plus a floor below the minimum.

    Returns (auc, best_f1, best_tau, points) with points as
    (tau, precision, recall, f1) in decreasing-tau order, defined-precision
    operating points only. Thresholding is strict (score > tau).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    positives = int(labels.sum())
    taus = sorted(set(scores.tolist()), reverse=True)
    taus.append(taus[-1] - 1.0)
    points = []
    best_f1, best_tau = -1.0, None
    for tau in taus:
        predicted = scores > tau
        b = int(predicted.sum())
        tp = int((predicted & labels).sum())
        denom = 2 * tp + (b - tp) + (positives - tp)
        f1 = 2.0 * tp / denom if denom > 0 else 0.0
        if f1 > best_f1:
            best_f1, best_tau = f1, tau
        if b == 0:
            continue
        points.append((tau, tp / b, tp / positives, f1))
    path = [(0.0, points[0][1])] + [(r, p) for _, p, r, _ in points]
    auc = 0.0
    for (r0, p0), (r1, p1) in zip(path, path[1:]):
        auc += (r1 - r0) * 0.5 * (p0 + p1)
    return auc, best_f1, best_tau, points


def random_set(rng, n, informative=True, ties=False):
    """Normal scores; with `ties`, rounded to integers so that most are tied."""
    scores = rng.normal(size=n)
    if ties:
        scores = np.round(2.0 * scores)
    if informative:
        labels = (scores + rng.normal(0, 1.2, size=n)) > 0.6
    else:
        labels = rng.random(n) < 0.5
    if not labels.any():
        labels[int(np.argmax(scores))] = True
    if labels.all():
        labels[int(np.argmin(scores))] = False
    return LabeledScores(scores, labels)


# ---------------------------------------------------------------------------
# score-set assembly
# ---------------------------------------------------------------------------

class TestLabeledScores:
    def test_basic_construction(self):
        ls = LabeledScores([0.5, 0.2, 0.9], [True, False, True])
        assert ls.scores.dtype == np.float64
        assert ls.labels.dtype == bool

    @pytest.mark.parametrize("scores,labels", [
        ([0.1, 0.2], [True]),                 # length mismatch
        ([], []),                             # empty
        ([0.1, np.nan], [True, False]),       # non-finite
        ([0.1, 0.2], [False, False]),         # no positives
        ([0.1, 0.2], [True, True]),           # no negatives
    ])
    def test_degenerate_sets_rejected(self, scores, labels):
        with pytest.raises((ValidationError, ShapeError)):
            LabeledScores(scores, labels)

    def test_build_concatenates_pre_first(self):
        pre = DisturbanceMap(np.array([[0.1, 0.2], [0.3, 0.4]]), "standard_deviations")
        post = DisturbanceMap(np.array([[1.0, 2.0], [3.0, 4.0]]), "standard_deviations")
        truth = np.array([[True, False], [False, True]])
        ls = build_labeled_set(pre, post, truth)
        np.testing.assert_allclose(ls.scores[:4], [0.1, 0.2, 0.3, 0.4], atol=1e-7)
        np.testing.assert_allclose(ls.scores[4:], [1.0, 2.0, 3.0, 4.0], atol=1e-7)
        assert not ls.labels[:4].any()      # held-out pre frame is all negative
        np.testing.assert_array_equal(ls.labels[4:], [True, False, False, True])

    def test_mixed_units_rejected(self):
        pre = DisturbanceMap(np.ones((2, 2)), "standard_deviations")
        post = DisturbanceMap(np.ones((2, 2)), "log10_ratio")
        with pytest.raises(ValidationError):
            build_labeled_set(pre, post, np.ones((2, 2), dtype=bool))

    def test_shape_mismatch_rejected(self):
        pre = DisturbanceMap(np.ones((2, 2)), "log10_ratio")
        post = DisturbanceMap(np.ones((2, 3)), "log10_ratio")
        with pytest.raises(ShapeError):
            build_labeled_set(pre, post, np.ones((2, 3), dtype=bool))

    def test_empty_truth_rejected(self):
        pre = DisturbanceMap(np.ones((2, 2)), "log10_ratio")
        post = DisturbanceMap(np.ones((2, 2)), "log10_ratio")
        with pytest.raises(ValidationError):
            build_labeled_set(pre, post, np.zeros((2, 2), dtype=bool))


class TestTwoImageScores:
    """Frames -2 and -1 scored against an estimate, or by the log ratio."""

    def setup_method(self):
        rng = np.random.default_rng(8)
        self.values = rng.uniform(0.05, 0.6, size=(5, 2, 3, 4)).astype(np.float32)
        self.truth = rng.random((3, 4)) < 0.5
        self.truth[0, 0] = True

    def test_estimate_scores_the_held_out_pair(self):
        # sigma 1 and mu equal to the pre frame's logits: the pre frame scores
        # 0 and the post frame its largest logit deviation
        pre, post = to_logit(self.values[-2]), to_logit(self.values[-1])
        est = DistributionEstimate(pre, np.ones_like(pre))
        ls = two_image_scores(self.values, self.truth, est)
        np.testing.assert_array_equal(ls.scores[:12], 0.0)
        expected = np.abs(post - est.mu).max(axis=0).astype(np.float32)
        np.testing.assert_array_equal(ls.scores[12:], expected.ravel())
        np.testing.assert_array_equal(ls.labels[12:], self.truth.ravel())

    def test_without_estimate_uses_the_log_ratio(self):
        ls = two_image_scores(self.values, self.truth)
        baseline = self.values[:-2]
        expected = build_labeled_set(log_ratio_map(baseline, self.values[-2]),
                                     log_ratio_map(baseline, self.values[-1]), self.truth)
        np.testing.assert_array_equal(ls.scores, expected.scores)
        np.testing.assert_array_equal(ls.labels, expected.labels)

    def test_needs_four_frames(self):
        with pytest.raises(ValidationError, match="4 frames"):
            two_image_scores(self.values[:3], self.truth)


# ---------------------------------------------------------------------------
# PR curve against the oracle
# ---------------------------------------------------------------------------

class TestPRCurve:
    def test_hand_case(self):
        # scores [0.9, 0.8, 0.7, 0.6], labels [1, 0, 1, 0]; strict thresholds:
        #   tau=0.8 -> P=1, R=1/2; tau=0.7 -> P=1/2, R=1/2;
        #   tau=0.6 -> P=2/3, R=1 (best F1 0.8); floor -> P=1/2, R=1
        # AUC: 0.5*1 + 0 + 0.5*(0.5+2/3)/2 + 0 = 19/24
        ls = LabeledScores([0.9, 0.8, 0.7, 0.6], [True, False, True, False])
        curve = pr_curve(ls, max_points=None)
        assert abs(curve.best_f1 - 0.8) < 1e-12
        assert curve.best_tau == 0.6
        assert abs(curve.auc - 19.0 / 24.0) < 1e-12
        oracle_auc, oracle_f1, oracle_tau, oracle_pts = exhaustive_pr(
            ls.scores, ls.labels)
        assert abs(curve.auc - oracle_auc) < 1e-12
        assert abs(curve.best_f1 - oracle_f1) < 1e-12
        assert curve.best_tau == oracle_tau
        assert curve.skipped_thresholds == [0.9]

    def test_matches_oracle_exactly_without_downsampling(self):
        rng = np.random.default_rng(0)
        for trial in range(35):
            ls = random_set(rng, int(rng.integers(5, 400)), ties=trial >= 25)
            curve = pr_curve(ls, max_points=None)
            oracle_auc, oracle_f1, oracle_tau, oracle_pts = exhaustive_pr(
                ls.scores, ls.labels)
            assert abs(curve.auc - oracle_auc) < 1e-12
            assert abs(curve.best_f1 - oracle_f1) < 1e-12
            assert curve.best_tau == oracle_tau
            assert len(curve.points) == len(oracle_pts)
            for mine, ref in zip(curve.points, oracle_pts):
                np.testing.assert_allclose(mine, ref, rtol=0, atol=1e-12)

    def test_downsampled_auc_close_to_exhaustive(self):
        rng = np.random.default_rng(1)
        ls = random_set(rng, 10_000)
        full = pr_curve(ls, max_points=None)
        down = pr_curve(ls, max_points=512)
        oracle_auc, _, _, _ = exhaustive_pr(ls.scores, ls.labels)
        assert abs(full.auc - oracle_auc) < 1e-12
        assert abs(down.auc - oracle_auc) < 0.005
        assert len(down.points) <= 514  # 512 + forced best + floor

    def test_perfect_separation(self):
        ls = LabeledScores([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        curve = pr_curve(ls)
        assert curve.auc == 1.0
        assert curve.best_f1 == 1.0
        assert curve.best_recall == 1.0
        assert curve.best_precision == 1.0

    def test_all_scores_identical(self):
        # one defined operating point: everything predicted positive
        ls = LabeledScores([0.4] * 8, [True, False, False, True, False, False, False, False])
        curve = pr_curve(ls)
        assert len(curve.points) == 1
        tau, precision, recall, f1 = curve.points[0]
        assert precision == 0.25   # prevalence
        assert recall == 1.0
        assert abs(curve.auc - 0.25) < 1e-12
        assert curve.skipped_thresholds == [0.4]

    def test_best_point_always_on_curve(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            ls = random_set(rng, 3000)
            curve = pr_curve(ls, max_points=40)
            taus = [point[0] for point in curve.points]
            assert curve.best_tau in taus
            row = curve.points[taus.index(curve.best_tau)]
            assert row[3] == curve.best_f1

    def test_random_scores_auc_near_prevalence(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=10_000)
        labels = rng.random(10_000) < 0.5
        curve = pr_curve(LabeledScores(scores, labels))
        prevalence = labels.mean()
        assert abs(curve.auc - prevalence) < 0.05

    def test_counts_recorded(self):
        ls = LabeledScores([0.9, 0.8, 0.7], [True, False, True])
        curve = pr_curve(ls)
        assert curve.num_positive == 2
        assert curve.num_negative == 1
        assert curve.max_score == 0.9

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        ls = random_set(rng, 500)
        a = pr_curve(ls)
        b = pr_curve(ls)
        assert a.points == b.points and a.auc == b.auc

    def test_max_points_validation(self):
        ls = LabeledScores([0.1, 0.9], [False, True])
        with pytest.raises(ValidationError):
            pr_curve(ls, max_points=1)

    @given(st.integers(min_value=10, max_value=200), st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_auc_and_f1_bounded(self, n, seed):
        rng = np.random.default_rng(seed)
        ls = random_set(rng, n, informative=False)
        curve = pr_curve(ls, max_points=16)
        assert 0.0 <= curve.auc <= 1.0
        assert 0.0 <= curve.best_f1 <= 1.0
        recalls = [r for _, _, r, _ in curve.points]
        assert recalls == sorted(recalls)  # decreasing tau, nondecreasing recall


# ---------------------------------------------------------------------------
# explicit-threshold F1 table
# ---------------------------------------------------------------------------

class TestF1VsThreshold:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(5)
        # continuous scores on a grid; integer scores, heavily tied, at every
        # score, between scores, and below the minimum by more than 1
        continuous, tied = random_set(rng, 300), random_set(rng, 300, ties=True)
        cases = [(continuous, np.linspace(-2.5, 2.5, 41)),
                 (tied, np.concatenate([np.unique(tied.scores), np.arange(-9.5, 9.0),
                                        [tied.scores.min() - 1.5, -100.0]]))]
        for ls, taus in cases:
            rows = f1_vs_threshold(ls, taus)
            positives = int(ls.labels.sum())
            for (tau, tau_norm, f1), tau_in in zip(rows, taus):
                predicted = ls.scores > tau_in
                tp = int((predicted & ls.labels).sum())
                denom = 2 * tp + int(predicted.sum()) - tp + positives - tp
                expected = 2.0 * tp / denom if denom > 0 else 0.0
                assert tau == tau_in
                assert abs(f1 - expected) < 1e-12
                assert tau_norm == normalized_tau(tau_in, float(ls.scores.max()))

    def test_thresholds_outside_score_range(self):
        ls = LabeledScores([0.2, 0.8], [False, True])
        rows = f1_vs_threshold(ls, [-1.0, 10.0])
        assert rows[0][2] == pytest.approx(2 / 3)  # everything predicted
        assert rows[1][2] == 0.0                   # nothing predicted

    def test_bad_threshold_lists_rejected(self):
        ls = LabeledScores([0.2, 0.8], [False, True])
        with pytest.raises(ValidationError):
            f1_vs_threshold(ls, [])
        with pytest.raises(ValidationError):
            f1_vs_threshold(ls, [0.1, np.inf])

    def test_default_grid(self):
        ls = LabeledScores([0.0, 2.0, 4.0], [False, True, True])
        grid = default_tau_grid(ls, count=5)
        np.testing.assert_allclose(grid, [0.0, 1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValidationError):
            default_tau_grid(ls, count=1)

    def test_normalized_tau_zero_guard(self):
        assert normalized_tau(0.5, 0.0) == 0.0
        assert normalized_tau(0.5, 2.0) == 0.25


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

class TestEmission:
    def make_curve(self, seed=6):
        rng = np.random.default_rng(seed)
        ls = random_set(rng, 400)
        return pr_curve(ls), f1_vs_threshold(ls, default_tau_grid(ls, 32))

    def test_pr_csv_shape(self):
        curve, _ = self.make_curve()
        lines = pr_curve_csv(curve).splitlines()
        assert lines[0] == "tau,precision,recall,f1"
        assert len(lines) == len(curve.points) + 1
        for line, point in zip(lines[1:], curve.points):
            parsed = tuple(float(v) for v in line.split(","))
            np.testing.assert_allclose(parsed, point, rtol=1e-9)

    def test_f1_csv_shape(self):
        _, rows = self.make_curve()
        lines = f1_table_csv(rows).splitlines()
        assert lines[0] == "tau,tau_normalized,f1"
        assert len(lines) == len(rows) + 1

    def test_svgs_are_well_formed_xml(self):
        curve, rows = self.make_curve()
        for text in (render_pr_svg(curve),
                     render_f1_svg(rows, 0.4, 0.9)):
            root = ET.fromstring(text)
            assert root.tag.endswith("svg")
            assert "polyline" in text and "polygon" in text

    def test_emit_report_files_and_determinism(self, tmp_path):
        curve, rows = self.make_curve()
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        summary = emit_report(str(a_dir), curve, rows)
        emit_report(str(b_dir), curve, rows)
        names = ["pr_curve.csv", "f1_vs_tau.csv", "pr_curve.svg",
                 "f1_vs_tau.svg", "summary.json"]
        for name in names:
            a_bytes = (a_dir / name).read_bytes()
            assert a_bytes == (b_dir / name).read_bytes()
            assert len(a_bytes) > 0
        parsed = json.loads((a_dir / "summary.json").read_text())
        assert parsed["pr_auc"] == summary["pr_auc"]
        assert parsed["best_f1"] == curve.best_f1
        assert parsed["num_positive"] == curve.num_positive
