import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coughscreen import conformal


ALPHAS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def calibration_sets(draw):
    """(p_pos, labels) of 1 to 40 calibration units; probabilities repeat, so scores tie."""
    units = st.tuples(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                                st.floats(0.0, 1.0)), st.integers(0, 1))
    p, y = zip(*draw(st.lists(units, min_size=1, max_size=40)))
    return list(p), list(y)


class TestNonconformity:
    def test_positive_label(self):
        assert conformal.nonconformity(0.9, 1) == pytest.approx(0.1)

    def test_negative_label(self):
        assert conformal.nonconformity(0.9, 0) == pytest.approx(0.9)

    def test_complement_identity(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0, 1, 100)
        s1 = conformal.nonconformity(p, np.ones(100))
        s0 = conformal.nonconformity(p, np.zeros(100))
        np.testing.assert_allclose(s1 + s0, 1.0)


class TestQuantileOracle:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(calibration_sets(), ALPHAS)
    def test_kth_smallest_score_by_brute_force(self, calib, alpha):
        p, y = calib
        scores = [1.0 - pi if yi == 1 else pi for pi, yi in zip(p, y)]
        k = math.ceil((len(p) + 1) * (1.0 - alpha))
        # the k-th smallest score is the least one with at least k scores at or below it
        want = 1.0 if k > len(p) else min(s for s in scores
                                          if sum(t <= s for t in scores) >= k)
        assert conformal.fit_quantile(p, y, alpha) == want

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(calibration_sets(), st.lists(ALPHAS, min_size=2, max_size=5))
    def test_quantiles_nest_across_alpha(self, calib, alphas):
        # a smaller alpha never gets a smaller quantile, so its sets contain the others'
        quantiles = [conformal.fit_quantile(*calib, a) for a in sorted(alphas)]
        assert quantiles == sorted(quantiles, reverse=True)


class TestQuantile:
    def test_n9_alpha10_is_max(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0, 1, 9)
        y = (rng.random(9) < 0.5).astype(int)
        scores = np.sort(conformal.nonconformity(p, y))
        assert conformal.fit_quantile(p, y, 0.1) == pytest.approx(scores[-1])

    def test_n19_alpha05_is_max(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0, 1, 19)
        y = (rng.random(19) < 0.5).astype(int)
        scores = np.sort(conformal.nonconformity(p, y))
        assert conformal.fit_quantile(p, y, 0.05) == pytest.approx(scores[-1])

    def test_n99_alpha10_sort_oracle(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0, 1, 99)
        y = (rng.random(99) < 0.5).astype(int)
        # sort-based oracle: k = ceil(100 * 0.9) = 90 -> 90th smallest
        scores = sorted(conformal.nonconformity(p, y))
        assert conformal.fit_quantile(p, y, 0.1) == pytest.approx(scores[89])

    def test_tiny_calibration_degenerates_to_one(self):
        assert conformal.fit_quantile([0.5, 0.9], [1, 0], 0.05) == 1.0

    def test_empty_calibration_rejected(self):
        with pytest.raises(ValueError):
            conformal.fit_quantile([], [], 0.1)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(0, 1, 200)
        y = (rng.random(200) < 0.4).astype(int)
        qs = [conformal.fit_quantile(p, y, a) for a in (0.2, 0.1, 0.05, 0.01)]
        assert all(qs[i] <= qs[i + 1] for i in range(len(qs) - 1))


def label_set(p_pos, qhat):
    """The labels of the prediction set of one probability."""
    return {y for y in (0, 1) if conformal.prediction_sets(p_pos, qhat)[y]}


def scalar_rule_sets(p_pos, qhat):
    """Membership one probability at a time with Python floats: y in the set iff p_y >= 1 - qhat."""
    return np.array([[1.0 - p >= 1.0 - qhat, p >= 1.0 - qhat] for p in map(float, p_pos)],
                    dtype=bool).reshape(-1, 2)


class TestPredictionSet:
    def test_confident_positive(self):
        assert label_set(0.95, 0.2) == {1}

    def test_both_labels(self):
        assert label_set(0.5, 0.6) == {0, 1}

    def test_empty_set(self):
        assert label_set(0.5, 0.3) == set()
        assert conformal.prediction_sets([0.5], 0.3).sum() == 0

    def test_boundary_inclusive(self):
        assert 1 in label_set(0.8, 0.2)

    def test_nested_across_alpha(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0, 1, 150)
        y = (rng.random(150) < 0.5).astype(int)
        cal = conformal.fit_conformal(p, y, alphas=(0.2, 0.1, 0.05))
        probe = rng.uniform(0, 1, 40)
        strict = cal.prediction_sets(probe, 0.2)
        mid = cal.prediction_sets(probe, 0.1)
        loose = cal.prediction_sets(probe, 0.05)
        assert np.all(strict <= mid) and np.all(mid <= loose)

    def test_membership_reproducible(self):
        for p_pos in np.linspace(0, 1, 21):
            for qhat in np.linspace(0, 1, 21):
                a = conformal.prediction_sets(p_pos, qhat)
                b = conformal.prediction_sets(p_pos, qhat)
                np.testing.assert_array_equal(a, b)

    def test_matrix_matches_scalar_rule(self):
        rng = np.random.default_rng(11)
        p = np.concatenate([rng.uniform(0, 1, 200), np.linspace(0, 1, 21)])
        for qhat in [*rng.uniform(0, 1, 20), *np.linspace(0, 1, 21)]:
            got = conformal.prediction_sets(p, qhat)
            assert got.shape == (p.size, 2) and got.dtype == bool
            np.testing.assert_array_equal(got, scalar_rule_sets(p, qhat))

    def test_boundary_qhat_one_and_empty_sets(self):
        for qhat in (0.2, 0.05, 0.3, 0.5, 0.731):
            p = np.array([1.0 - qhat, qhat])  # p_1 = 1 - qhat, then p_0 = 1 - qhat
            got = conformal.prediction_sets(p, qhat)
            np.testing.assert_array_equal(got, scalar_rule_sets(p, qhat))
            assert got[0, 1] and got[1, 0]  # the boundary is inclusive
        assert conformal.prediction_sets([0.0, 1e-12, 0.3, 0.5, 0.999, 1.0], 1.0).all()
        empty = conformal.prediction_sets([0.3, 0.5, 0.6], 0.25)
        np.testing.assert_array_equal(empty, np.zeros((3, 2), dtype=bool))
        np.testing.assert_array_equal(empty, scalar_rule_sets([0.3, 0.5, 0.6], 0.25))

    def test_calibrator_uses_its_alpha_quantile(self):
        rng = np.random.default_rng(12)
        cal = conformal.fit_conformal(rng.uniform(0, 1, 60), (rng.random(60) < 0.4).astype(int),
                                      alphas=(0.1, 0.2))
        probe = rng.uniform(0, 1, 30)
        for alpha in (0.1, 0.2):
            np.testing.assert_array_equal(cal.prediction_sets(probe, alpha),
                                          scalar_rule_sets(probe, cal.quantiles[alpha]))


class TestLevelGuard:
    def test_cougher_level_accepted(self):
        # k = ceil(4 * 0.9) = 4 exceeds the 3 calibration coughers
        cal = conformal.fit_conformal([0.5, 0.8, 0.3], [0, 1, 0], alphas=(0.1,))
        assert cal.quantiles == {0.1: 1.0}


class TestEvaluateSets:
    def test_all_full_sets(self):
        sets = conformal.prediction_sets(np.full(4, 0.5), 1.0)
        out = conformal.evaluate_sets(sets, [0, 1, 0, 1])
        assert out["coverage"] == 1.0
        assert out["mean_size"] == 2.0
        assert out["singleton_rate"] == 0.0
        assert out["empty_rate"] == 0.0

    def test_empty_sets_count_as_misses(self):
        sets = conformal.prediction_sets(np.full(3, 0.5), 0.1)
        out = conformal.evaluate_sets(sets, [1, 0, 1])
        assert out["coverage"] == 0.0
        assert out["empty_rate"] == 1.0


class TestSelective:
    def test_all_singletons_all_correct(self):
        sets = conformal.prediction_sets([0.9, 0.1], 0.2)
        out = conformal.selective_metrics([1, 0], sets, [1, 0])
        assert out["accuracy"] == 1.0
        assert out["accuracy_singleton"] == 1.0
        assert out["p_singleton_given_correct"] == 1.0
        assert math.isnan(out["accuracy_ambiguous"])

    def test_no_singletons(self):
        sets = conformal.prediction_sets(np.full(4, 0.5), 1.0)
        out = conformal.selective_metrics([1, 1, 0, 0], sets, [1, 0, 0, 1])
        assert math.isnan(out["accuracy_singleton"])
        assert out["p_singleton_given_correct"] == 0.0

    def test_pooling_counts(self):
        sets = np.vstack([conformal.prediction_sets([0.9], 0.2),
                          conformal.prediction_sets([0.5], 1.0)])
        out = conformal.selective_metrics([1, 1], sets, [1, 0])
        assert out["n_correct_singleton"] == 1
        assert out["n_correct_ambiguous"] == 0
        assert out["n_singleton"] == 1
        assert out["n_ambiguous"] == 1


class TestMarginalCoverage:
    def test_exchangeable_coverage_within_binomial_band(self):
        # with 99 calibration points the coverage probability is exactly 1 - alpha
        rng = np.random.default_rng(6)
        for alpha in (0.10, 0.05):
            hits = []
            for _ in range(500):
                p_cal = np.concatenate([rng.beta(4, 2, 30), rng.beta(2, 4, 69)])
                y_cal = np.concatenate([np.ones(30, dtype=int), np.zeros(69, dtype=int)])
                qhat = conformal.fit_quantile(p_cal, y_cal, alpha)
                y_new = int(rng.random() < 30 / 99)
                p_new = rng.beta(4, 2) if y_new else rng.beta(2, 4)
                hits.append(int(conformal.prediction_sets(p_new, qhat)[y_new]))
            margin = 3 * math.sqrt(alpha * (1 - alpha) / 500)
            assert abs(np.mean(hits) - (1 - alpha)) <= margin
