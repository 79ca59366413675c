import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def scores_with_counts(tp, fp, tn, fn):
    """(probs, labels) whose counts at tau = 0.5 are the given ones."""
    probs = [0.9] * tp + [0.8] * fp + [0.2] * tn + [0.1] * fn
    labels = [1] * tp + [0] * fp + [0] * tn + [1] * fn
    return probs, labels


class TestConfusion:
    def test_tau_zero_all_positive(self):
        suite = metrics.full_suite([0.2, 0.9], [0, 1], 0.0)
        assert (suite.sens, suite.spec, suite.ppv) == (1.0, 0.0, 0.5)
        assert math.isnan(suite.npv)

    def test_tau_above_max_all_negative(self):
        suite = metrics.full_suite([0.2, 0.9], [0, 1], 0.95)
        assert (suite.sens, suite.spec, suite.npv) == (0.0, 1.0, 0.5)
        assert math.isnan(suite.ppv)

    def test_boundary_inclusive(self):
        assert metrics.full_suite([0.5, 0.2], [1, 0], 0.5).sens == 1.0
        assert metrics.full_suite([0.5, 0.2], [1, 0], np.nextafter(0.5, 1.0)).sens == 0.0

    def test_direct_count(self):
        suite = metrics.full_suite([0.9, 0.4, 0.6, 0.2], [1, 0, 1, 0], 0.5)
        assert (suite.sens, suite.spec, suite.ppv, suite.npv) == (1.0, 1.0, 1.0, 1.0)

    def test_counts_sum(self):
        # tp=2, fp=1, tn=1, fn=0: the tied pair at 0.5 lands on the positive side
        suite = metrics.full_suite([0.1, 0.5, 0.5, 0.9], [0, 1, 0, 1], 0.3)
        assert (suite.sens, suite.spec, suite.ppv, suite.npv) == (1.0, 0.5, 2 / 3, 1.0)


class TestMetricSuite:
    def test_hand_computed_example(self):
        suite = metrics.full_suite(*scores_with_counts(tp=8, fp=3, tn=7, fn=2), 0.5)
        assert suite.sens == pytest.approx(0.8)
        assert suite.spec == pytest.approx(0.7)
        assert suite.uar == pytest.approx(0.75)
        assert suite.ppv == pytest.approx(8 / 11)
        assert suite.npv == pytest.approx(7 / 9)
        assert suite.youden_j == pytest.approx(0.5)

    def test_ppv_sentinel_when_no_predicted_positives(self):
        suite = metrics.full_suite(*scores_with_counts(tp=0, fp=0, tn=5, fn=5), 0.5)
        assert math.isnan(suite.ppv)
        assert suite.npv == pytest.approx(0.5)

    def test_npv_sentinel_when_no_predicted_negatives(self):
        suite = metrics.full_suite(*scores_with_counts(tp=5, fp=5, tn=0, fn=0), 0.5)
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

    def test_one_array_keeps_its_shapes(self):
        ids, agg = metrics.aggregate_cougher([0.1, 0.2, 0.3], ["b", "a", "b"])
        assert ids.shape == agg.shape == (2,)
        assert agg.dtype == np.float64

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stack_equals_one_call_per_row_in_bytes(self, k):
        rng = np.random.default_rng(k)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            ids = rng.choice([f"c{i}" for i in range(int(rng.integers(1, 9)))], n)
            stack = rng.random((k, n))
            stack[-1] = rng.integers(0, 2, n)  # a row of labels, as _at_level passes
            uniq, means = metrics.aggregate_cougher(stack, ids)
            assert means.shape == (k, uniq.size)
            for row, got in zip(stack, means):
                want_ids, want = metrics.aggregate_cougher(row, ids)
                np.testing.assert_array_equal(uniq, want_ids)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("values, ids", [
        ([0.1, 0.2], ["a"]), ([[0.1], [0.2]], ["a", "b"]), ([[[0.1]]], ["a"]),
        ([0.1, 0.2], [["a", "b"]]), (0.5, ["a"])])
    def test_unaligned_ids_rejected(self, values, ids):
        with pytest.raises(ValueError, match="tagged with a cougher id"):
            metrics.aggregate_cougher(values, ids)


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
            suite = metrics.full_suite(probs, labels, tau)
            assert suite.uar == pytest.approx((1.0 + j) / 2.0, abs=1e-12)

    def test_suite_reproducible_from_counts(self):
        probs, labels = scores_with_counts(tp=3, fp=1, tn=4, fn=2)
        assert metrics.full_suite(probs, labels, 0.5) == metrics.full_suite(probs, labels, 0.5)


# Scores with ties, adjacent floats (whose midpoints round onto a neighbour),
# the smallest subnormal and values outside [0, 1].
SCORES = st.one_of(
    st.sampled_from([0.0, 0.3, 0.5, float(np.nextafter(0.5, 0.0)), float(np.nextafter(0.5, 1.0)),
                     float(np.nextafter(np.nextafter(0.5, 1.0), 1.0)), 1.0, 5e-324]),
    st.floats(0.0, 1.0), st.floats(-2.0, 3.0))
SAMPLES = st.lists(st.tuples(SCORES, st.integers(0, 1)), min_size=2, max_size=40)
ORACLE_SETTINGS = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def split(samples):
    probs = np.array([p for p, _ in samples], dtype=np.float64)
    labels = np.array([y for _, y in samples])
    return probs, labels


def brute_counts_at(probs, labels, tau):
    """(tp, fp) at p >= tau, as Python ints."""
    pred = probs >= tau
    return int(np.sum(pred & (labels == 1))), int(np.sum(pred & (labels == 0)))


class TestExactOracles:
    """Each threshold statistic equals its brute-force definition exactly."""

    @ORACLE_SETTINGS
    @given(SAMPLES)
    def test_roc_auc_is_the_rounded_pair_count(self, samples):
        probs, labels = split(samples)
        pos, neg = probs[labels == 1], probs[labels == 0]
        assume(pos.size and neg.size)
        # twice U: 2 for every positive above a negative, 1 for every tie
        u2 = sum(2 * (p > q) + (p == q) for p in pos for q in neg)
        assert metrics.roc_auc(probs, labels) == float(Fraction(u2, 2 * pos.size * neg.size))

    @ORACLE_SETTINGS
    @given(SAMPLES)
    def test_curves_are_the_counts_at_every_distinct_score(self, samples):
        probs, labels = split(samples)
        n_pos, n_neg = int(np.sum(labels == 1)), int(np.sum(labels == 0))
        assume(n_pos)
        counts = [brute_counts_at(probs, labels, t) for t in sorted(set(probs), reverse=True)]
        pr = metrics.pr_curve(probs, labels)
        assert pr.xs.tolist() == [tp / n_pos for tp, _ in counts]
        assert pr.ys.tolist() == [tp / (tp + fp) for tp, fp in counts]
        assume(n_neg)
        roc = metrics.roc_curve(probs, labels)
        assert roc.xs.tolist() == [0.0] + [fp / n_neg for _, fp in counts]
        assert roc.ys.tolist() == [0.0] + [tp / n_pos for tp, _ in counts]

    @ORACLE_SETTINGS
    @given(SAMPLES)
    def test_full_suite_areas_are_the_area_functions(self, samples):
        probs, labels = split(samples)
        assume(np.any(labels == 1) and np.any(labels == 0))
        suite = metrics.full_suite(probs, labels, 0.5)
        assert suite.roc_auc == metrics.roc_auc(probs, labels)
        assert suite.pr_auc == metrics.pr_auc(probs, labels)

    @ORACLE_SETTINGS
    @given(SAMPLES, st.data())
    def test_full_suite_counts_are_the_counts_at_tau(self, samples, data):
        probs, labels = split(samples)
        n_pos, n_neg = int(np.sum(labels == 1)), int(np.sum(labels == 0))
        assume(n_pos and n_neg)
        distinct = sorted(set(probs))
        midpoints = [0.5 * (a + b) for a, b in zip(distinct, distinct[1:])]
        tau = data.draw(st.sampled_from([*distinct, *midpoints, distinct[0] - 1.0,
                                         distinct[-1] + 1.0]))
        tp, fp = brute_counts_at(probs, labels, tau)
        tn, fn = n_neg - fp, n_pos - tp
        sens, spec = tp / n_pos, tn / n_neg
        suite = metrics.full_suite(probs, labels, tau)
        assert (suite.sens, suite.spec) == (sens, spec)
        assert (suite.uar, suite.youden_j) == ((sens + spec) / 2.0, sens + spec - 1.0)
        if tp + fp:
            assert suite.ppv == tp / (tp + fp)
        else:
            assert math.isnan(suite.ppv)
        if tn + fn:
            assert suite.npv == tn / (tn + fn)
        else:
            assert math.isnan(suite.npv)

    @ORACLE_SETTINGS
    @given(SAMPLES)
    def test_youden_is_the_exhaustive_scan(self, samples):
        probs, labels = split(samples)
        n_pos, n_neg = int(np.sum(labels == 1)), int(np.sum(labels == 0))
        assume(n_pos and n_neg)
        distinct = sorted(set(probs))
        candidates = [0.0, *(0.5 * (a + b) for a, b in zip(distinct, distinct[1:])), 1.0]
        # J = (tp * n_neg - fp * n_pos) / (n_pos * n_neg): compare integer numerators
        numerator = {}
        for tau in candidates:
            tp, fp = brute_counts_at(probs, labels, tau)
            numerator[tau] = tp * n_neg - fp * n_pos
        best = max(numerator.values())
        tau, j = youden_threshold(probs, labels)
        assert numerator[tau] == best
        tp, fp = brute_counts_at(probs, labels, tau)
        assert j == tp / n_pos - fp / n_neg
        if 0.0 <= probs.min() and probs.max() <= 1.0:  # candidates ascend: the lowest tau wins
            assert tau == min(t for t, v in numerator.items() if v == best)


class TestThresholdAtTheEnds:
    """A tau of +-inf is a threshold beyond every score; a NaN tau is no threshold."""

    def test_nan_tau_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            metrics.full_suite([0.2, 0.6, 0.9], [0, 1, 1], math.nan)

    @pytest.mark.parametrize("tau, sens_spec", [(math.inf, (0.0, 1.0)),
                                                (-math.inf, (1.0, 0.0))])
    def test_infinite_tau_predicts_none_or_all_positive(self, tau, sens_spec):
        suite = metrics.full_suite([0.2, 0.6, 0.9], [0, 1, 1], tau)
        assert (suite.sens, suite.spec) == sens_spec


THRESHOLD_STATISTICS = [metrics.roc_auc, metrics.roc_curve, metrics.pr_curve, metrics.pr_auc,
                        youden_threshold]


class TestInputRule:
    @pytest.mark.parametrize("fn", THRESHOLD_STATISTICS, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("labels", [[0, 1, 2], [0, 1, -1], [0, 1, 0.5]])
    def test_label_outside_zero_one_rejected(self, fn, labels):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            fn([0.2, 0.6, 0.4], labels)

    @pytest.mark.parametrize("fn", THRESHOLD_STATISTICS, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_rejected(self, fn, bad):
        with pytest.raises(ValueError, match="scores must be finite"):
            fn([0.2, bad, 0.4], [0, 1, 1])

    @pytest.mark.parametrize("fn", THRESHOLD_STATISTICS, ids=lambda fn: fn.__name__)
    def test_empty_rejected(self, fn):
        with pytest.raises(ValueError):
            fn([], [])

    def test_sweep_counts_each_distinct_score_once(self):
        thresholds, tp, fp = metrics.score_sweep([0.2, 0.9, 0.2, 0.5, 0.9], [0, 1, 1, 0, 0])
        assert thresholds.tolist() == [0.9, 0.5, 0.2]
        assert tp.tolist() == [1, 1, 2]
        assert fp.tolist() == [1, 2, 3]
