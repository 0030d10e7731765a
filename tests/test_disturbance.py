"""Tests for the disturbance metrics against scalar-loop oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sardist.disturbance import (
    log_ratio_map,
    lower_median,
    mahalanobis_map,
    threshold_map,
)
from sardist.errors import ShapeError, ValidationError
from sardist.raster import DistributionEstimate


def scalar_mahalanobis(est: DistributionEstimate, post: np.ndarray) -> np.ndarray:
    """Reference implementation: explicit loops, one pixel at a time."""
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


def scalar_log_ratio(pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    """Reference implementation: per-pixel sort for the lower median."""
    t, c, h, w = pre.shape
    out = np.zeros((h, w), dtype=np.float32)
    for r in range(h):
        for col in range(w):
            best = 0.0
            for p in range(c):
                ordered = sorted(float(pre[k, p, r, col]) for k in range(t))
                reference = ordered[(t - 1) // 2]
                ell = abs(float(np.log10(float(post[p, r, col])))
                          - float(np.log10(reference)))
                best = max(best, ell)
            out[r, col] = np.float32(best)
    return out


def random_estimate(rng: np.random.Generator, h=8, w=8) -> DistributionEstimate:
    mu = rng.normal(0.0, 2.0, size=(2, h, w))
    sigma = rng.uniform(0.05, 3.0, size=(2, h, w))
    return DistributionEstimate(mu, sigma)


# ---------------------------------------------------------------------------
# lower median
# ---------------------------------------------------------------------------

class TestLowerMedian:
    def test_odd_count_is_ordinary_median(self):
        assert lower_median(np.array([5.0, 1.0, 3.0])) == 3.0

    def test_even_count_takes_lower_central(self):
        assert lower_median(np.array([4.0, 1.0, 3.0, 2.0])) == 2.0
        assert lower_median(np.array([1.0, 2.0])) == 1.0

    def test_axis_selection(self):
        values = np.array([[1.0, 9.0], [5.0, 3.0], [2.0, 6.0], [8.0, 4.0]])
        np.testing.assert_array_equal(lower_median(values, axis=0), [2.0, 4.0])
        np.testing.assert_array_equal(lower_median(values, axis=1), [1.0, 3.0, 2.0, 4.0])

    def test_empty_axis_rejected(self):
        with pytest.raises(ValidationError):
            lower_median(np.zeros((0, 4)))

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=15))
    @settings(max_examples=80, deadline=None)
    def test_result_is_an_observed_value(self, values):
        arr = np.asarray(values)
        result = float(lower_median(arr))
        assert result in set(values)
        assert np.sum(arr <= result) >= (len(values) + 1) // 2

    def test_matches_sort_index_oracle(self):
        rng = np.random.default_rng(0)
        for n in range(1, 9):
            stack = rng.normal(size=(n, 3, 5))
            expected = np.sort(stack, axis=0)[(n - 1) // 2]
            np.testing.assert_array_equal(lower_median(stack, axis=0), expected)


# ---------------------------------------------------------------------------
# forecast-normalized deviation
# ---------------------------------------------------------------------------

class TestMahalanobisMap:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            est = random_estimate(rng)
            post = rng.normal(0.0, 2.0, size=(2, 8, 8))
            result = mahalanobis_map(est, post)
            np.testing.assert_allclose(result.values, scalar_mahalanobis(est, post),
                                       rtol=0, atol=1e-12)

    def test_hand_case(self):
        # pol 0: |3 - 0| / 2 = 1.5 dominates pol 1: |0.5 - 0| / 1 = 0.5
        mu = np.zeros((2, 1, 1))
        sigma = np.stack([np.full((1, 1), 2.0), np.ones((1, 1))])
        post = np.stack([np.full((1, 1), 3.0), np.full((1, 1), 0.5)])
        result = mahalanobis_map(DistributionEstimate(mu, sigma), post)
        assert result.values[0, 0] == pytest.approx(1.5, abs=1e-7)

    def test_perfect_forecast_scores_zero(self):
        rng = np.random.default_rng(2)
        est = random_estimate(rng)
        result = mahalanobis_map(est, est.mu.copy())
        np.testing.assert_array_equal(result.values, np.zeros((8, 8), np.float32))

    def test_units_tag(self):
        rng = np.random.default_rng(3)
        est = random_estimate(rng)
        assert mahalanobis_map(est, est.mu).units == "standard_deviations"

    def test_sign_of_residual_irrelevant(self):
        rng = np.random.default_rng(4)
        est = DistributionEstimate(np.zeros((2, 4, 4)), np.ones((2, 4, 4)))
        delta = rng.uniform(0.1, 2.0, size=(2, 4, 4))
        up = mahalanobis_map(est, delta)
        down = mahalanobis_map(est, -delta)
        np.testing.assert_array_equal(up.values, down.values)

    def test_doubling_sigma_halves_metric(self):
        rng = np.random.default_rng(5)
        mu = rng.normal(size=(2, 6, 6))
        sigma = rng.uniform(0.1, 1.0, size=(2, 6, 6))
        post = rng.normal(size=(2, 6, 6))
        narrow = mahalanobis_map(DistributionEstimate(mu, sigma), post)
        wide = mahalanobis_map(DistributionEstimate(mu, 2.0 * sigma), post)
        np.testing.assert_allclose(wide.values, narrow.values / 2.0, rtol=1e-6)

    def test_max_over_polarizations(self):
        est = DistributionEstimate(np.zeros((2, 2, 2)), np.ones((2, 2, 2)))
        post = np.zeros((2, 2, 2))
        post[1] = 7.0  # only the second polarization deviates
        result = mahalanobis_map(est, post)
        np.testing.assert_array_equal(result.values, np.full((2, 2), 7.0, np.float32))

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        est = random_estimate(rng)
        with pytest.raises(ShapeError):
            mahalanobis_map(est, np.zeros((2, 8, 9)))

    def test_nonfinite_post_rejected(self):
        rng = np.random.default_rng(7)
        est = random_estimate(rng)
        post = est.mu.copy().astype(np.float64)
        post[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            mahalanobis_map(est, post)


# ---------------------------------------------------------------------------
# log ratio
# ---------------------------------------------------------------------------

class TestLogRatioMap:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            t = int(rng.integers(2, 9))
            pre = rng.uniform(0.01, 0.9, size=(t, 2, 8, 8))
            post = rng.uniform(0.01, 0.9, size=(2, 8, 8))
            result = log_ratio_map(pre, post)
            np.testing.assert_allclose(result.values, scalar_log_ratio(pre, post),
                                       rtol=0, atol=1e-12)

    def test_factor_ten_drop_reads_one(self):
        # post = reference / 10 -> |log10 ratio| = 1 (i.e. 10 dB)
        pre = np.full((3, 2, 2, 2), 0.2)
        post = np.full((2, 2, 2), 0.02)
        result = log_ratio_map(pre, post)
        np.testing.assert_allclose(result.values, np.ones((2, 2)), atol=1e-6)
        assert result.units == "log10_ratio"

    def test_post_equal_to_reference_scores_zero(self):
        rng = np.random.default_rng(9)
        pre = rng.uniform(0.05, 0.8, size=(5, 2, 6, 6)).astype(np.float32)
        post = lower_median(pre, axis=0)
        result = log_ratio_map(pre, post)
        np.testing.assert_array_equal(result.values, np.zeros((6, 6), np.float32))

    def test_pre_frame_order_irrelevant(self):
        rng = np.random.default_rng(10)
        pre = rng.uniform(0.05, 0.8, size=(6, 2, 4, 4))
        post = rng.uniform(0.05, 0.8, size=(2, 4, 4))
        base = log_ratio_map(pre, post)
        shuffled = log_ratio_map(pre[::-1].copy(), post)
        np.testing.assert_array_equal(base.values, shuffled.values)

    def test_brightening_and_darkening_both_count(self):
        pre = np.full((2, 2, 1, 1), 0.1)
        brighter = log_ratio_map(pre, np.full((2, 1, 1), 0.4))
        darker = log_ratio_map(pre, np.full((2, 1, 1), 0.025))
        assert brighter.values[0, 0] == pytest.approx(np.log10(4.0), abs=1e-6)
        assert darker.values[0, 0] == pytest.approx(np.log10(4.0), abs=1e-6)

    def test_single_pre_frame_rejected(self):
        with pytest.raises(ShapeError):
            log_ratio_map(np.full((1, 2, 2, 2), 0.1), np.full((2, 2, 2), 0.1))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            log_ratio_map(np.full((3, 2, 2, 2), 0.1), np.full((2, 2, 3), 0.1))

    def test_nonpositive_values_rejected(self):
        pre = np.full((3, 2, 2, 2), 0.1)
        bad_pre = pre.copy()
        bad_pre[0, 0, 0, 0] = 0.0
        with pytest.raises(ValidationError):
            log_ratio_map(bad_pre, np.full((2, 2, 2), 0.1))
        bad_post = np.full((2, 2, 2), 0.1)
        bad_post[1, 1, 1] = -0.2
        with pytest.raises(ValidationError):
            log_ratio_map(pre, bad_post)

    def test_nan_rejected(self):
        pre = np.full((3, 2, 2, 2), 0.1)
        post = np.full((2, 2, 2), 0.1)
        post[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            log_ratio_map(pre, post)


# ---------------------------------------------------------------------------
# thresholding
# ---------------------------------------------------------------------------

class TestThresholdMap:
    def test_strict_inequality(self):
        rng = np.random.default_rng(11)
        est = DistributionEstimate(np.zeros((2, 1, 3)), np.ones((2, 1, 3)))
        post = np.stack([np.array([[0.5, 1.0, 1.5]]), np.zeros((1, 3))])
        dmap = mahalanobis_map(est, post)
        delineation = threshold_map(dmap, 1.0)
        np.testing.assert_array_equal(delineation.mask, [[False, False, True]])
        assert delineation.threshold == 1.0
        assert delineation.mask.dtype == bool

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_threshold_rejected(self, tau):
        est = DistributionEstimate(np.zeros((2, 2, 2)), np.ones((2, 2, 2)))
        dmap = mahalanobis_map(est, np.ones((2, 2, 2)))
        with pytest.raises(ValidationError):
            threshold_map(dmap, tau)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(12)
        est = random_estimate(rng)
        dmap = mahalanobis_map(est, rng.normal(0, 2, size=(2, 8, 8)))
        low = threshold_map(dmap, 0.5).mask
        high = threshold_map(dmap, 1.5).mask
        assert np.all(high <= low)  # raising tau can only shrink the mask


# ---------------------------------------------------------------------------
# calibration of the normalized metric
# ---------------------------------------------------------------------------

class TestTailProbability:
    def test_three_sigma_exceedance_is_rare_but_present(self):
        # max over two standard normals: P(d > 3) = 1 - (2 Phi(3) - 1)^2, about 0.0054
        rng = np.random.default_rng(13)
        n = 100_000
        side = 250  # 250 * 400 pixels = 1e5 samples per polarization pair
        est = DistributionEstimate(np.zeros((2, side, 400)), np.ones((2, side, 400)))
        post = rng.standard_normal((2, side, 400))
        d = mahalanobis_map(est, post).values
        fraction = float(np.mean(d > 3.0))
        assert fraction < 0.01
        assert fraction > 0.001
