"""Isotonic probability calibration, calibration diagnostics, and Youden thresholds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import isotonic_regression

from .metrics import counts_at, score_sweep

N_BINS = 10  # equal-width probability bins of the ECE and the reliability tables


@dataclass(frozen=True)
class IsotonicMap:
    """Nondecreasing score -> probability map fitted by pool-adjacent-violators.

    ``scores`` are the distinct breakpoint abscissae in increasing order and
    ``values`` the fitted probabilities. Evaluation interpolates linearly
    between breakpoints and clamps outside the fitted range.
    """

    scores: np.ndarray
    values: np.ndarray


def fit_isotonic(scores, labels) -> IsotonicMap:
    """Least-squares nondecreasing fit of labels ordered by score (PAVA).

    Samples with tied scores are pooled into one count-weighted breakpoint
    before ``scipy.optimize.isotonic_regression``'s violator sweep, so ties
    always share a single fitted value.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-D and aligned")
    if scores.size < 2:
        raise ValueError("isotonic fit needs at least 2 samples")
    if labels.min() == labels.max():
        raise ValueError("isotonic fit needs both classes present")

    xs, inverse = np.unique(scores, return_inverse=True)
    w = np.bincount(inverse).astype(np.float64)
    ys = np.bincount(inverse, weights=labels) / w

    fitted = isotonic_regression(ys, weights=w).x
    return IsotonicMap(scores=xs, values=fitted)


def apply_isotonic(mapping: IsotonicMap, scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    return np.interp(scores, mapping.scores, mapping.values)


def brier(probs, labels) -> float:
    """Mean squared error of probabilities against 0/1 labels."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.shape != labels.shape or probs.size == 0:
        raise ValueError("probs and labels must be nonempty and aligned")
    return float(np.mean((probs - labels) ** 2))


def ece(probs, labels) -> float:
    """Expected calibration error over the ``N_BINS`` equal-width probability bins.

    Gap between mean confidence and empirical accuracy in each bin of
    ``reliability_bins``, weighted by the bin's share of the samples;
    empty bins contribute nothing.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.shape != labels.shape or probs.size == 0:
        raise ValueError("probs and labels must be nonempty and aligned")
    bins = np.minimum((probs * N_BINS).astype(int), N_BINS - 1)
    total = 0.0
    # numpy's pairwise bin means, which reliability_bins' sequential bincount
    # sums can miss in the last bit; the ECE keeps this loop's exact value
    for b in np.unique(bins):
        mask = bins == b
        total += mask.sum() / probs.size * abs(labels[mask].mean() - probs[mask].mean())
    return float(total)


def youden_threshold(probs, labels):
    """Threshold maximizing J = sensitivity + specificity - 1.

    Candidates are 0, 1, and the midpoints between consecutive distinct
    probabilities; prediction is positive at p >= tau. Ties in J break
    toward the lower threshold (higher sensitivity), matching a screening
    operating point. Returns (tau, J). Labels must be 0 or 1 and
    probabilities finite (``metrics.score_sweep``).
    """
    thresholds, tp, fp = score_sweep(probs, labels)
    n_pos, n_neg = int(tp[-1]), int(fp[-1])
    if n_pos == 0 or n_neg == 0:
        raise ValueError("Youden threshold needs both classes present")

    distinct = thresholds[::-1]
    candidates = np.concatenate([[0.0], 0.5 * (distinct[:-1] + distinct[1:]), [1.0]])
    tp, fp = counts_at(thresholds, tp, fp, candidates)
    # J = tp/n_pos - fp/n_neg; compare via the integer numerator over the
    # common denominator so ties are detected exactly, free of float noise
    numerator = tp * n_neg - fp * n_pos
    best = int(np.argmax(numerator))  # argmax takes the first (lowest) tau on ties
    j = tp[best] / n_pos - fp[best] / n_neg
    return float(candidates[best]), float(j)


def reliability_bins(probs, labels):
    """Reliability-diagram rows, one per ``N_BINS`` bin: (bin_center,
    mean_confidence, accuracy, count)."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    bins = np.minimum((probs * N_BINS).astype(int), N_BINS - 1)
    count = np.bincount(bins, minlength=N_BINS)
    with np.errstate(invalid="ignore"):  # 0/0 is NaN in an empty bin
        conf = np.bincount(bins, probs, N_BINS) / count
        acc = np.bincount(bins, labels, N_BINS) / count
    centers = (np.arange(N_BINS) + 0.5) / N_BINS
    return list(zip(centers.tolist(), conf.tolist(), acc.tolist(), count.tolist()))
