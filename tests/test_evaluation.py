"""Tests for PR curves and report emission against a brute-force oracle."""

import hashlib
import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sardist import evaluation
from sardist.disturbance import log_ratio_map
from sardist.errors import ProvenanceError, ShapeError, ValidationError
from sardist.evaluation import (
    REPORT_FILES,
    LabeledScores,
    build_labeled_set,
    emit_report,
    pr_curve,
    run_experiment,
    two_image_scores,
)
from sardist.inference import SweepConfig, forecast, sweep_estimate
from sardist.model import Model, ModelConfig
from sardist.synth import SynthConfig
from sardist.training import TrainConfig
from sardist.preprocess import to_logit
from sardist.raster import DistributionEstimate, DisturbanceMap, RasterStack


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


def read_csv(path):
    """The rows of a report CSV, without its header."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


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
        self.values = rng.uniform(0.05, 0.6, size=(5, 2, 4, 4)).astype(np.float32)
        self.stack = RasterStack(self.values, [f"2024-05-{d:02d}" for d in range(1, 6)])
        self.truth = rng.random((4, 4)) < 0.5
        self.truth[0, 0] = True

    def test_estimate_scores_the_held_out_pair(self):
        # sigma 1 and mu equal to the pre frame's logits: the pre frame scores
        # 0 and the post frame its largest logit deviation
        pre, post = to_logit(self.values[-2]), to_logit(self.values[-1])
        est = DistributionEstimate(pre, np.ones_like(pre), timestamp=self.stack.timestamps[-3],
                                   source=self.stack.digest(3))
        ls = two_image_scores(self.stack, self.truth, est)
        np.testing.assert_array_equal(ls.scores[:16], 0.0)
        expected = np.abs(post - est.mu).max(axis=0).astype(np.float32)
        np.testing.assert_array_equal(ls.scores[16:], expected.ravel())
        np.testing.assert_array_equal(ls.labels[16:], self.truth.ravel())

    def test_without_estimate_uses_the_log_ratio(self):
        ls = two_image_scores(self.stack, self.truth)
        baseline = self.values[:-2]
        expected = build_labeled_set(log_ratio_map(baseline, self.values[-2]),
                                     log_ratio_map(baseline, self.values[-1]), self.truth)
        np.testing.assert_array_equal(ls.scores, expected.scores)
        np.testing.assert_array_equal(ls.labels, expected.labels)

    def test_needs_four_frames(self):
        short = RasterStack(self.values[:3], self.stack.timestamps[:3])
        with pytest.raises(ValidationError, match="4 frames"):
            two_image_scores(short, self.truth)

    def test_scores_only_a_forecast_of_the_baseline(self):
        model = Model(ModelConfig(input_size=4, patch_size=2, d_model=8, num_heads=2,
                                  num_layers=1, ff_dim=8, max_t=10, dropout=0.0), seed=0)
        sweep = SweepConfig(stride=2)
        two_image_scores(self.stack, self.truth, forecast(model, self.stack, sweep, 2))
        # one that saw the pre frame, and an unstamped sweep of exactly the baseline
        for est in (forecast(model, self.stack, sweep, 1),
                    sweep_estimate(model, to_logit(self.values[:-2]), sweep)):
            with pytest.raises(ProvenanceError, match=r"not from the first 3 frames "
                                                      r"\(a forecast with drop_last=2\)$"):
                two_image_scores(self.stack, self.truth, est)


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
        assert curve.max_score == 0.9

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
        assert curve.max_score == 0.4

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

def f1_rows(ls, taus):
    """emit_report's F1 rows (tau, tau/max_score, f1) of `ls` at explicit thresholds."""
    return evaluation._f1_rows(ls, evaluation._operating_points(ls),
                               np.asarray(taus, dtype=np.float64))


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
            rows = f1_rows(ls, taus)
            positives = int(ls.labels.sum())
            max_score = float(ls.scores.max())
            for (tau, tau_norm, f1), tau_in in zip(rows, taus):
                predicted = ls.scores > tau_in
                tp = int((predicted & ls.labels).sum())
                denom = 2 * tp + int(predicted.sum()) - tp + positives - tp
                expected = 2.0 * tp / denom if denom > 0 else 0.0
                assert tau == tau_in
                assert abs(f1 - expected) < 1e-12
                assert tau_norm == tau_in / max_score

    def test_thresholds_outside_score_range(self):
        ls = LabeledScores([0.2, 0.8], [False, True])
        rows = f1_rows(ls, [-1.0, 10.0])
        assert rows[0][2] == pytest.approx(2 / 3)  # everything predicted
        assert rows[1][2] == 0.0                   # nothing predicted

    def test_default_grid(self, tmp_path):
        # emit_report tabulates F1 at 256 evenly spaced thresholds from 0 to the max
        ls = LabeledScores([0.0, 2.0, 4.0], [False, True, True])
        emit_report(str(tmp_path), ls)
        rows = read_csv(tmp_path / "f1_vs_tau.csv")
        np.testing.assert_allclose(rows[:, 0], np.linspace(0.0, 4.0, 256), rtol=1e-9)
        np.testing.assert_allclose(rows[:, 1], np.linspace(0.0, 1.0, 256), rtol=1e-9)
        assert rows[0, 2] == 1.0 and rows[-1, 2] == 0.0   # tau 0 leaves out the 0.0 score

    def test_normalized_tau_zero_guard(self, tmp_path):
        # no positive score: every normalized threshold reads 0, not a division by <= 0
        summary = emit_report(str(tmp_path / "a"),
                              LabeledScores([-3.0, -1.0, -2.0], [False, True, False]))
        assert summary["best_tau_normalized"] == 0.0
        assert (read_csv(tmp_path / "a" / "f1_vs_tau.csv")[:, 1] == 0.0).all()
        summary = emit_report(str(tmp_path / "b"),
                              LabeledScores([0.5, 2.0, 0.1, 1.0], [False, True, False, True]))
        assert summary["best_tau"] == 0.5 and summary["best_tau_normalized"] == 0.25


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

class TestEmission:
    def make_report(self, out_dir, seed=6):
        ls = random_set(np.random.default_rng(seed), 400)
        return ls, emit_report(str(out_dir), ls)

    def test_pr_csv_shape(self, tmp_path):
        ls, _ = self.make_report(tmp_path)
        curve = pr_curve(ls)
        lines = (tmp_path / "pr_curve.csv").read_text().splitlines()
        assert lines[0] == "tau,precision,recall,f1"
        assert len(lines) == len(curve.points) + 1
        for line, point in zip(lines[1:], curve.points):
            parsed = tuple(float(v) for v in line.split(","))
            np.testing.assert_allclose(parsed, point, rtol=1e-9)

    def test_f1_csv_shape(self, tmp_path):
        ls, _ = self.make_report(tmp_path)
        lines = (tmp_path / "f1_vs_tau.csv").read_text().splitlines()
        assert lines[0] == "tau,tau_normalized,f1"
        assert len(lines) == 256 + 1
        expected = f1_rows(ls, np.linspace(0.0, ls.scores.max(), 256))
        np.testing.assert_allclose(read_csv(tmp_path / "f1_vs_tau.csv"), expected, rtol=1e-9)

    def test_svgs_are_well_formed_xml(self, tmp_path):
        self.make_report(tmp_path)
        for name in ("pr_curve.svg", "f1_vs_tau.svg"):
            text = (tmp_path / name).read_text()
            root = ET.fromstring(text)
            assert root.tag.endswith("svg")
            assert "polyline" in text and "polygon" in text

    def test_emit_report_files_and_determinism(self, tmp_path):
        ls, summary = self.make_report(tmp_path / "a")
        self.make_report(tmp_path / "b")
        curve = pr_curve(ls)
        for name in REPORT_FILES:
            a_bytes = (tmp_path / "a" / name).read_bytes()
            assert a_bytes == (tmp_path / "b" / name).read_bytes()
            assert len(a_bytes) > 0
        parsed = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert parsed == summary
        assert parsed["pr_auc"] == curve.auc
        assert parsed["best_f1"] == curve.best_f1
        assert parsed["num_positive"] == curve.num_positive
        assert parsed["skipped_thresholds"] == [curve.max_score]

    # SHA-256 of each of the REPORT_FILES for random_set(default_rng(20), 3000), in
    # order; a change to the report path that keeps the report keeps these bytes
    PINNED = {
        512: ("5195ff850b04030b208d370ef451a728dab1e3969e03155af21eb78ca9c17ad3",
              "042ac9de06cd7a6509420f9be069ed121692417bdd1f6f144867dcc3f39ab805",
              "84504dbea059eba76b5013ce60f713f20558312446b137fe94def204a1e38719",
              "44d5edd54c18ad1ce84278db2507c64c7185adef2236a8eda5604e0e2c28e065",
              "d4d7923d57389c167f3aec539bd621dea66b5a780c0dace510e0b0a7c0a8f6e0"),
        None: ("5bc15c6e4a7f2e7e67b0fc0388c05a62133e897637ae0c35e2541a36764007df",
               "042ac9de06cd7a6509420f9be069ed121692417bdd1f6f144867dcc3f39ab805",
               "a7ad85227fd1f581da007b7ccb7964505d32f3f36d793f77abbbe180e9fb5c0d",
               "44d5edd54c18ad1ce84278db2507c64c7185adef2236a8eda5604e0e2c28e065",
               "73386ad8980c72e676408b953ae601913b527e98e48447932a778d812e765220"),
    }

    @pytest.mark.parametrize("max_points", [512, None])
    def test_report_bytes_pinned(self, tmp_path, max_points):
        ls = random_set(np.random.default_rng(20), 3000)
        emit_report(str(tmp_path), ls, max_points)
        digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                        for name in REPORT_FILES)
        assert digests == self.PINNED[max_points]

    def test_one_sort_per_report(self, tmp_path, monkeypatch):
        # the PR curve and the F1 table read the same operating points
        sorts = []
        operating_points = evaluation._operating_points
        monkeypatch.setattr(evaluation, "_operating_points",
                            lambda ls: sorts.append(ls) or operating_points(ls))
        emit_report(str(tmp_path), random_set(np.random.default_rng(6), 400))
        assert len(sorts) == 1


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

TINY_MODEL = ModelConfig(d_model=8, num_heads=2, num_layers=1, ff_dim=8)
EXPERIMENT = {"corpus_cfg": SynthConfig(), "corpus_size": 1, "model_cfg": TINY_MODEL,
              "train_cfg": TrainConfig(epochs=1, batch_size=1), "scene_cfg": SynthConfig(),
              "sweep": SweepConfig()}
# one bad value per argument of run_experiment, made when the test calls it: a config
# checks itself when it is made
BAD_EXPERIMENT = {"corpus_cfg": lambda: SynthConfig(height=0), "corpus_size": lambda: 0,
                  "model_cfg": lambda: ModelConfig(d_model=8, num_heads=3, num_layers=1,
                                                   ff_dim=8),
                  "train_cfg": lambda: TrainConfig(epochs=0),
                  "scene_cfg": lambda: SynthConfig(num_steps=2),
                  "sweep": lambda: SweepConfig(threads=0)}


@pytest.mark.parametrize("name", list(BAD_EXPERIMENT))
def test_experiment_checks_every_input_before_writing(tmp_path, name):
    # a bad training or sweep setting used to fail after the corpus was written,
    # or after the whole model had trained
    corpus_dir = tmp_path / "corpus"
    with pytest.raises(ValidationError):
        run_experiment(**{**EXPERIMENT, name: BAD_EXPERIMENT[name]()}, corpus_dir=str(corpus_dir))
    assert not os.path.exists(corpus_dir)


def test_experiment_checks_t_max_against_max_t_before_writing(tmp_path):
    # each config is valid alone, but the windows would outgrow the transformer's max_t
    corpus_dir = tmp_path / "corpus"
    with pytest.raises(ValidationError, match="^t_max 11 exceeds the transformer's max_t 10$"):
        run_experiment(**{**EXPERIMENT, "train_cfg": TrainConfig(epochs=1, batch_size=1,
                                                                 t_max=11)},
                       corpus_dir=str(corpus_dir))
    assert not os.path.exists(corpus_dir)
