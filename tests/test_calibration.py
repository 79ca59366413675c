import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coughscreen import calibration


def isotonic_oracle(labels):
    """Exhaustive monotone fit: best SSE over all contiguous-block partitions."""
    labels = np.asarray(labels, dtype=float)
    n = labels.size
    best_sse, best_fit = np.inf, None
    for cuts in itertools.product([0, 1], repeat=n - 1):
        fit = np.empty(n)
        start = 0
        means = []
        ok = True
        for end in list(np.flatnonzero(cuts)) + [n - 1]:
            block = labels[start: end + 1]
            m = block.mean()
            if means and m < means[-1] - 1e-12:
                ok = False
                break
            means.append(m)
            fit[start: end + 1] = m
            start = end + 1
        if not ok:
            continue
        sse = float(np.sum((fit - labels) ** 2))
        if sse < best_sse - 1e-15:
            best_sse, best_fit = sse, fit
    return best_fit, best_sse


def reference_pava(scores, labels):
    """The pool-adjacent-violators loop ``fit_isotonic`` ran before it called scipy:
    (distinct scores, fitted values)."""
    xs, inverse = np.unique(np.asarray(scores, float), return_inverse=True)
    w = np.bincount(inverse).astype(np.float64)
    ys = np.bincount(inverse, weights=np.asarray(labels, float)) / w
    # merge blocks while any block mean decreases
    vals, weights, sizes = list(ys), list(w), [1] * len(ys)
    i = 0
    while i < len(vals) - 1:
        if vals[i] > vals[i + 1]:
            tot = weights[i] + weights[i + 1]
            vals[i] = (vals[i] * weights[i] + vals[i + 1] * weights[i + 1]) / tot
            weights[i] = tot
            sizes[i] += sizes[i + 1]
            del vals[i + 1], weights[i + 1], sizes[i + 1]
            if i > 0:
                i -= 1
        else:
            i += 1
    return xs, np.repeat(vals, sizes)


class TestIsotonic:
    def test_already_monotone_unchanged(self):
        m = calibration.fit_isotonic([0.1, 0.3, 0.4, 0.8], [0, 0, 1, 1])
        np.testing.assert_allclose(m.values, [0, 0, 1, 1])

    def test_violator_pooling(self):
        m = calibration.fit_isotonic([0.1, 0.3, 0.4, 0.8], [0, 1, 0, 1])
        np.testing.assert_allclose(m.values, [0, 0.5, 0.5, 1])

    def test_ties_share_pooled_value(self):
        m = calibration.fit_isotonic([0.2, 0.2, 0.8], [0, 1, 1])
        np.testing.assert_allclose(m.scores, [0.2, 0.8])
        np.testing.assert_allclose(m.values, [0.5, 1.0])

    def test_matches_exhaustive_oracle_small_patterns(self):
        for n in range(2, 7):
            for labels in itertools.product([0, 1], repeat=n):
                if len(set(labels)) < 2:
                    continue
                scores = np.arange(n, dtype=float)
                m = calibration.fit_isotonic(scores, labels)
                fitted = calibration.apply_isotonic(m, scores)
                oracle_fit, oracle_sse = isotonic_oracle(labels)
                np.testing.assert_allclose(fitted, oracle_fit, atol=1e-12)
                assert float(np.sum((fitted - labels) ** 2)) == pytest.approx(
                    oracle_sse, abs=1e-12)

    def test_matches_reference_pava_with_ties(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(2, 400))
            scores = np.round(rng.uniform(0, 1, n), int(rng.integers(1, 4)))
            labels = (rng.random(n) < scores).astype(int)
            if labels.min() == labels.max():
                continue
            m = calibration.fit_isotonic(scores, labels)
            xs, values = reference_pava(scores, labels)
            np.testing.assert_array_equal(m.scores, xs)
            assert np.max(np.abs(m.values - values)) <= 1e-15

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.integers(0, 3), st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 1)),
                                       min_size=2, max_size=80))
    def test_matches_reference_pava_on_random_ties(self, places, units):
        # scores on a grid of 10^-places steps tie often; both classes are present
        scores = [v % (10 ** places + 1) / 10 ** places for v, _ in units]
        labels = [0, 1] + [y for _, y in units[2:]]
        m = calibration.fit_isotonic(scores, labels)
        xs, values = reference_pava(scores, labels)
        np.testing.assert_array_equal(m.scores, xs)
        assert np.max(np.abs(m.values - values)) <= 1e-15

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            calibration.fit_isotonic([0.1, 0.2], [1, 1])

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            calibration.fit_isotonic([0.5], [1])


class TestApplyIsotonic:
    def setup_method(self):
        self.map = calibration.fit_isotonic([0.2, 0.4, 0.6, 0.8], [0, 1, 0, 1])

    def test_clamp_below(self):
        assert calibration.apply_isotonic(self.map, [0.0])[0] == self.map.values[0]

    def test_clamp_above(self):
        assert calibration.apply_isotonic(self.map, [1.0])[0] == self.map.values[-1]

    def test_breakpoint_exact(self):
        out = calibration.apply_isotonic(self.map, self.map.scores)
        np.testing.assert_array_equal(out, self.map.values)

    def test_monotone_on_random_batch(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores = rng.uniform(0, 1, 100)
            labels = (rng.random(100) < scores).astype(int)
            m = calibration.fit_isotonic(scores, labels)
            x = np.sort(rng.uniform(-0.2, 1.2, 200))
            y = calibration.apply_isotonic(m, x)
            assert np.all(np.diff(y) >= -1e-15)

    def test_brier_never_increases_on_fit_data(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(5, 60))
            scores = rng.uniform(0, 1, n)
            labels = (rng.random(n) < 0.4).astype(int)
            if labels.min() == labels.max():
                continue
            m = calibration.fit_isotonic(scores, labels)
            cal = calibration.apply_isotonic(m, scores)
            assert calibration.brier(cal, labels) <= \
                calibration.brier(scores, labels) + 1e-12


class TestBrier:
    def test_perfect(self):
        assert calibration.brier([1.0, 0.0], [1, 0]) == 0.0

    def test_half(self):
        assert calibration.brier([0.5, 0.5], [1, 0]) == pytest.approx(0.25)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            calibration.brier([0.5], [1, 0])


class TestEce:
    def test_perfectly_confident_correct(self):
        assert calibration.ece([1.0] * 5, [1] * 5) == pytest.approx(0.0)

    def test_matched_confidence(self):
        probs = [0.7] * 10
        labels = [1] * 7 + [0] * 3
        assert calibration.ece(probs, labels) == pytest.approx(0.0)

    def test_overconfident(self):
        probs = [0.9] * 10
        labels = [1, 0] * 5
        assert calibration.ece(probs, labels) == pytest.approx(0.4)

    def test_prob_one_lands_in_last_bin(self):
        assert calibration.ece([1.0], [1]) == pytest.approx(0.0)

    def test_equals_per_bin_loop_reference(self):
        # the per-bin loop ECE was computed with before it read reliability_bins
        def reference_ece(probs, labels, n_bins):
            probs, labels = np.asarray(probs, float), np.asarray(labels, float)
            bins = np.minimum((probs * n_bins).astype(int), n_bins - 1)
            total = 0.0
            for b in range(n_bins):
                mask = bins == b
                if mask.any():
                    total += (int(mask.sum()) / probs.size
                              * abs(labels[mask].mean() - probs[mask].mean()))
            return float(total)

        rng = np.random.default_rng(0)
        for _ in range(4):
            for n in (1, 2, 7, 50, 333):
                probs = np.round(rng.uniform(0, 1, n), int(rng.integers(1, 4)))
                labels = rng.integers(0, 2, n)
                assert calibration.ece(probs, labels) == reference_ece(probs, labels, 10)


def youden_scan_oracle(probs, labels):
    """Evaluate J over every threshold interval by brute force."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    candidates = sorted(set([0.0, 1.0]) | set(
        0.5 * (a + b) for a, b in zip(sorted(set(probs))[:-1], sorted(set(probs))[1:])))
    best_j = -np.inf
    best_taus = []
    for tau in candidates:
        pred = probs >= tau
        tp = np.sum(pred & (labels == 1))
        fn = np.sum(~pred & (labels == 1))
        tn = np.sum(~pred & (labels == 0))
        fp = np.sum(pred & (labels == 0))
        j = tp / (tp + fn) + tn / (tn + fp) - 1
        if j > best_j + 1e-12:
            best_j, best_taus = j, [tau]
        elif abs(j - best_j) <= 1e-12:
            best_taus.append(tau)
    return best_j, best_taus


class TestYouden:
    def test_perfect_separation(self):
        tau, j = calibration.youden_threshold([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert j == pytest.approx(1.0)
        assert 0.2 < tau < 0.8

    def test_interleaved_example(self):
        tau, j = calibration.youden_threshold([0.2, 0.4, 0.6, 0.8], [0, 1, 0, 1])
        assert j == pytest.approx(0.5)
        # ties in J break toward the lower threshold (higher sensitivity)
        assert tau == pytest.approx(0.3)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            calibration.youden_threshold([0.5, 0.6], [1, 1])

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(4, 40))
            probs = np.round(rng.uniform(0, 1, n), 2)
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.min() == labels.max():
                continue
            tau, j = calibration.youden_threshold(probs, labels)
            best_j, best_taus = youden_scan_oracle(probs, labels)
            assert j == pytest.approx(best_j, abs=1e-12)
            assert tau == pytest.approx(min(best_taus), abs=1e-12)


def reference_reliability_bins(probs, labels, n_bins):
    """The per-bin loop ``reliability_bins`` ran before it used ``np.bincount``."""
    probs, labels = np.asarray(probs, float), np.asarray(labels, float)
    bins = np.minimum((probs * n_bins).astype(int), n_bins - 1)
    rows = []
    for b in range(n_bins):
        mask = bins == b
        center = (b + 0.5) / n_bins
        if mask.any():
            rows.append((center, float(probs[mask].mean()),
                         float(labels[mask].mean()), int(mask.sum())))
        else:
            rows.append((center, math.nan, math.nan, 0))
    return rows


class TestReliabilityBins:
    def test_matches_per_bin_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            for n in (1, 2, 7, 50, 333, 2000):
                probs = np.round(rng.uniform(0, 1, n), int(rng.integers(1, 4)))
                labels = rng.integers(0, 2, n)
                got = calibration.reliability_bins(probs, labels)
                want = reference_reliability_bins(probs, labels, 10)
                assert [(r[0], r[3]) for r in got] == [(r[0], r[3]) for r in want]
                got_means, want_means = np.array(got)[:, 1:3], np.array(want)[:, 1:3]
                np.testing.assert_array_equal(np.isnan(got_means), np.isnan(want_means))
                # a mean of m values in [0, 1] summed in another order moves by at
                # most m ulps of 1
                counts = np.array([r[3] for r in want])
                filled = counts > 0
                assert np.all(np.abs(got_means - want_means)[filled]
                              <= counts[filled, None] * np.finfo(float).eps)

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(3)
        probs = rng.uniform(0, 1, 100)
        labels = (rng.random(100) < probs).astype(int)
        rows = calibration.reliability_bins(probs, labels)
        assert sum(r[3] for r in rows) == 100
        assert len(rows) == 10
