import math

import numpy as np
import pytest

from coughscreen import metrics
from coughscreen.calibration import youden_threshold


def mann_whitney_oracle(probs, labels):
    """Pairwise comparison statistic, ties counted one half."""
    pos = [p for p, y in zip(probs, labels) if y == 1]
    neg = [p for p, y in zip(probs, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def average_precision_oracle(probs, labels):
    """Enumerate every cutoff induced by a distinct score, descending."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    thresholds = sorted(set(probs), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for tau in thresholds:
        pred = probs >= tau
        tp = int(np.sum(pred & (labels == 1)))
        recall = tp / n_pos
        precision = tp / int(pred.sum())
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


class TestConfusion:
    def test_tau_zero_all_positive(self):
        c = metrics.confusion_at([0.2, 0.9], [0, 1], 0.0)
        assert (c.tn, c.fn) == (0, 0)
        assert (c.tp, c.fp) == (1, 1)

    def test_tau_above_max_all_negative(self):
        c = metrics.confusion_at([0.2, 0.9], [0, 1], 0.95)
        assert (c.tp, c.fp) == (0, 0)

    def test_boundary_inclusive(self):
        c = metrics.confusion_at([0.5], [1], 0.5)
        assert c.tp == 1

    def test_direct_count(self):
        c = metrics.confusion_at([0.9, 0.4, 0.6, 0.2], [1, 0, 1, 0], 0.5)
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 0, 2, 0)

    def test_counts_sum(self):
        c = metrics.confusion_at([0.1, 0.5, 0.9], [0, 1, 1], 0.3)
        assert c.tp + c.fp + c.tn + c.fn == 3


class TestMetricSuite:
    def test_hand_computed_example(self):
        suite = metrics.metric_suite(metrics.ConfusionCounts(tp=8, fp=3, tn=7, fn=2))
        assert suite.sens == pytest.approx(0.8)
        assert suite.spec == pytest.approx(0.7)
        assert suite.uar == pytest.approx(0.75)
        assert suite.ppv == pytest.approx(8 / 11)
        assert suite.npv == pytest.approx(7 / 9)
        assert suite.youden_j == pytest.approx(0.5)

    def test_ppv_sentinel_when_no_predicted_positives(self):
        suite = metrics.metric_suite(metrics.ConfusionCounts(tp=0, fp=0, tn=5, fn=5))
        assert math.isnan(suite.ppv)
        assert suite.npv == pytest.approx(0.5)

    def test_npv_sentinel_when_no_predicted_negatives(self):
        suite = metrics.metric_suite(metrics.ConfusionCounts(tp=5, fp=5, tn=0, fn=0))
        assert math.isnan(suite.npv)


class TestRocAuc:
    def test_perfect_ranking(self):
        assert metrics.roc_auc([0.9, 0.8, 0.7, 0.6], [1, 1, 0, 0]) == 1.0

    def test_three_of_four_concordant(self):
        assert metrics.roc_auc([0.9, 0.5, 0.6, 0.4], [1, 1, 0, 0]) == pytest.approx(0.75)

    def test_all_ties_half(self):
        assert metrics.roc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            metrics.roc_auc([0.5, 0.6], [1, 1])

    def test_matches_mann_whitney_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(4, 80))
            probs = np.round(rng.uniform(0, 1, n), 2)  # rounding forces ties
            labels = (rng.random(n) < 0.4).astype(int)
            if labels.min() == labels.max():
                continue
            assert metrics.roc_auc(probs, labels) == pytest.approx(
                mann_whitney_oracle(probs, labels), abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            probs = rng.uniform(0, 1, 60)
            labels = (rng.random(60) < 0.5).astype(int)
            if labels.min() == labels.max():
                continue
            base = metrics.roc_auc(probs, labels)
            transformed = metrics.roc_auc(np.exp(3 * probs) / 50.0, labels)
            assert transformed == pytest.approx(base, abs=1e-12)

    def test_label_complement_sums_to_one(self):
        rng = np.random.default_rng(2)
        probs = rng.permutation(np.linspace(0.01, 0.99, 40))  # tie-free
        labels = (rng.random(40) < 0.5).astype(int)
        labels[:2] = [0, 1]
        a = metrics.roc_auc(probs, labels)
        b = metrics.roc_auc(probs, 1 - labels)
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_curve_endpoints_and_trapezoid_consistency(self):
        rng = np.random.default_rng(3)
        probs = rng.uniform(0, 1, 50)
        labels = (rng.random(50) < 0.5).astype(int)
        labels[:2] = [0, 1]
        curve = metrics.roc_curve(probs, labels)
        assert (curve.xs[0], curve.ys[0]) == (0.0, 0.0)
        assert (curve.xs[-1], curve.ys[-1]) == (1.0, 1.0)
        assert np.all(np.diff(curve.xs) >= 0)
        trapezoid = float(np.trapezoid(curve.ys, curve.xs))
        assert trapezoid == pytest.approx(metrics.roc_auc(probs, labels), abs=1e-12)


class TestPrAuc:
    def test_perfect_ranking(self):
        assert metrics.pr_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_all_ties_equal_prevalence(self):
        labels = [1, 0, 0, 1, 0]
        assert metrics.pr_auc([0.5] * 5, labels) == pytest.approx(np.mean(labels))

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            metrics.pr_auc([0.5, 0.6], [0, 0])

    def test_matches_exhaustive_cutoff_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(3, 51))
            probs = np.round(rng.uniform(0, 1, n), 2)
            labels = (rng.random(n) < 0.4).astype(int)
            if labels.sum() == 0:
                continue
            assert metrics.pr_auc(probs, labels) == pytest.approx(
                average_precision_oracle(probs, labels), abs=1e-12)


class TestAggregateCougher:
    def test_mean_per_cougher(self):
        ids, agg = metrics.aggregate_cougher([0.2, 0.4], ["c1", "c1"])
        assert list(ids) == ["c1"]
        assert agg[0] == pytest.approx(0.3)

    def test_singletons_pass_through(self):
        ids, agg = metrics.aggregate_cougher([0.7, 0.1], ["b", "a"])
        assert list(ids) == ["a", "b"]
        np.testing.assert_allclose(agg, [0.1, 0.7])

    def test_output_count_is_distinct_coughers(self):
        probs = [0.1, 0.2, 0.3, 0.4, 0.5]
        ids = ["a", "b", "a", "c", "b"]
        out_ids, agg = metrics.aggregate_cougher(probs, ids)
        assert len(out_ids) == 3


class TestCrossModule:
    def test_uar_at_youden_equals_half_one_plus_j(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(6, 60))
            probs = rng.uniform(0, 1, n)
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.min() == labels.max():
                continue
            tau, j = youden_threshold(probs, labels)
            suite = metrics.metric_suite(metrics.confusion_at(probs, labels, tau))
            assert suite.uar == pytest.approx((1.0 + j) / 2.0, abs=1e-12)

    def test_suite_reproducible_from_counts(self):
        c = metrics.ConfusionCounts(tp=3, fp=1, tn=4, fn=2)
        assert metrics.metric_suite(c) == metrics.metric_suite(c)
