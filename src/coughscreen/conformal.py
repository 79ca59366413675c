"""Split conformal prediction at the cougher level.

Nonconformity of a calibration example is one minus the calibrated
probability assigned to its true label. For a miscoverage target alpha,
the quantile is the k-th smallest calibration score with
k = ceil((n + 1) (1 - alpha)); a label enters the prediction set when its
probability is >= 1 - qhat. Empty sets are allowed (and count as coverage
misses): they flag inputs more atypical than anything seen in calibration.

Coverage is only meaningful when calibration and test units are
exchangeable. Recordings from one cougher are not exchangeable with each
other, so the pipeline fits and applies these sets to cougher-level mean
probabilities, never to waveform probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def nonconformity(p_pos, label):
    """1 - p_pos for positives, p_pos for negatives (vectorized)."""
    p_pos = np.asarray(p_pos, dtype=np.float64)
    label = np.asarray(label)
    return np.where(label == 1, 1.0 - p_pos, p_pos)


def fit_quantile(calib_p_pos, calib_labels, alpha: float) -> float:
    """Finite-sample conformal quantile from calibration scores.

    With k = ceil((n + 1)(1 - alpha)) the quantile is the k-th smallest
    score; when k exceeds n (tiny calibration sets) the quantile is 1,
    which degenerates to always predicting both labels — conservative and
    still valid.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    scores = np.sort(nonconformity(calib_p_pos, calib_labels))
    n = scores.size
    if n == 0:
        raise ValueError("empty calibration set")
    k = math.ceil((n + 1) * (1.0 - alpha))
    if k > n:
        return 1.0
    return float(scores[k - 1])


def prediction_sets(p_pos, qhat: float) -> np.ndarray:
    """Label sets at quantile qhat as an (n, 2) bool membership matrix.

    Column y says whether label y is in the set: p_y >= 1 - qhat.
    """
    p_pos = np.asarray(p_pos, dtype=np.float64)
    return np.stack([1.0 - p_pos >= 1.0 - qhat, p_pos >= 1.0 - qhat], axis=-1)


@dataclass
class ConformalCalibrator:
    """The conformal quantile for each requested alpha."""

    quantiles: dict

    def prediction_sets(self, p_pos, alpha: float) -> np.ndarray:
        return prediction_sets(p_pos, self.quantiles[alpha])


def fit_conformal(calib_p_pos, calib_labels, alphas) -> ConformalCalibrator:
    """Quantiles from cougher-level calibration probabilities and labels."""
    quantiles = {float(a): fit_quantile(calib_p_pos, calib_labels, a) for a in alphas}
    return ConformalCalibrator(quantiles=quantiles)


def evaluate_sets(sets, labels) -> dict:
    """Coverage, mean set size, singleton rate, and empty-set rate.

    ``sets`` is the (n, 2) membership matrix of ``prediction_sets``.
    """
    sets, labels = np.asarray(sets, dtype=bool), np.asarray(labels, dtype=int)
    if sets.shape != (labels.size, 2) or labels.size == 0:
        raise ValueError("sets and labels must be nonempty and aligned")
    covered = sets[np.arange(labels.size), labels]
    sizes = sets.sum(axis=1)
    return {
        "coverage": float(covered.mean()),
        "mean_size": float(sizes.mean()),
        "singleton_rate": float(np.mean(sizes == 1)),
        "empty_rate": float(np.mean(sizes == 0)),
    }


def selective_ratios(counts) -> dict:
    """The four selective ratios from ``selective_metrics``' counts: overall point
    accuracy, accuracy conditional on singleton and on ambiguous (two-label) sets,
    and the fraction of correct point predictions returned as singletons. A ratio
    is a NaN sentinel when its denominator is 0."""
    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else math.nan

    return {"accuracy": ratio("n_correct", "n"),
            "accuracy_singleton": ratio("n_correct_singleton", "n_singleton"),
            "accuracy_ambiguous": ratio("n_correct_ambiguous", "n_ambiguous"),
            "p_singleton_given_correct": ratio("n_correct_singleton", "n_correct")}


def selective_metrics(point_preds, sets, labels) -> dict:
    """Selective (reject-option) evaluation treating singletons as accepted.

    ``sets`` is the (n, 2) membership matrix of ``prediction_sets``. Returns
    the ``selective_ratios`` of the counts, then the counts.
    """
    point_preds = np.asarray(point_preds)
    sets, labels = np.asarray(sets, dtype=bool), np.asarray(labels)
    if sets.shape != (labels.size, 2) or point_preds.size != labels.size or labels.size == 0:
        raise ValueError("point_preds, sets, and labels must be nonempty and aligned")
    correct = point_preds == labels
    sizes = sets.sum(axis=1)
    singleton, ambiguous = sizes == 1, sizes == 2
    counts = {"n": int(labels.size), "n_singleton": int(singleton.sum()),
              "n_ambiguous": int(ambiguous.sum()), "n_correct": int(correct.sum()),
              "n_correct_singleton": int(np.sum(correct & singleton)),
              "n_correct_ambiguous": int(np.sum(correct & ambiguous))}
    return {**selective_ratios(counts), **counts}
