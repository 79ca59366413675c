"""Confusion-based metrics, ROC/PR curves and areas, and cougher aggregation.

Thresholding is boundary-inclusive: a sample is predicted positive when
its probability is >= tau. PPV and NPV are undefined (NaN sentinel) when
their denominators are empty; aggregation layers must exclude sentinels
from means rather than substituting zeros. The ROC and PR curves, ROC
AUC, ``full_suite`` and ``calibration.youden_threshold`` all read one
``score_sweep``; ``counts_at`` reads its counts at any threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MetricSuite:
    sens: float
    spec: float
    ppv: float
    npv: float
    uar: float
    youden_j: float
    roc_auc: float
    pr_auc: float


@dataclass(frozen=True)
class CurvePoints:
    xs: np.ndarray
    ys: np.ndarray


def _check_aligned(probs, labels):
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.shape != labels.shape or probs.ndim != 1:
        raise ValueError(f"probs and labels must be aligned 1-D arrays, "
                         f"got {probs.shape} and {labels.shape}")
    return probs, labels


def score_sweep(probs, labels):
    """Every threshold's counts from one sort: ``(thresholds, tp, fp)``.

    ``thresholds`` are the distinct scores, highest first; ``tp[k]`` and
    ``fp[k]`` count the positives and negatives scoring >= ``thresholds[k]``,
    so ``tp[-1]`` and ``fp[-1]`` are the class sizes. Labels must be 0 or 1
    and scores finite.
    """
    probs, labels = _check_aligned(probs, labels)
    if probs.size == 0:
        raise ValueError("a score sweep needs at least one score")
    if not np.isfinite(probs).all():
        raise ValueError("scores must be finite")
    pos = labels == 1
    if not np.all(pos | (labels == 0)):
        raise ValueError("labels must be 0 or 1")
    order = np.argsort(-probs, kind="stable")
    sorted_probs = probs[order]
    last = np.flatnonzero(np.append(sorted_probs[:-1] != sorted_probs[1:], True))
    tp = np.cumsum(pos[order])[last]
    return sorted_probs[last], tp, last + 1 - tp


def counts_at(thresholds, tp, fp, taus):
    """A ``score_sweep``'s (tp, fp) at p >= each of ``taus``: the number of distinct
    scores >= tau indexes the sweep, so a tau above every score, +inf included, counts
    nothing, one below every score (-inf) counts all, and a NaN tau raises ValueError."""
    if np.isnan(taus).any():
        raise ValueError("a threshold must not be NaN")
    at = np.searchsorted(-thresholds, -np.asarray(taus), side="right")
    return np.append(0, tp)[at], np.append(0, fp)[at]


def roc_auc(probs, labels) -> float:
    """Area under the ROC curve: the Mann-Whitney U over n_pos * n_neg, ties counted 1/2.

    2U is counted in integers (each negative scores 2 per positive above it and
    1 per tied positive), so the result is the correctly rounded quotient.
    """
    return _roc_auc(*score_sweep(probs, labels)[1:])


def _roc_auc(tp, fp) -> float:
    """``roc_auc`` from a ``score_sweep``'s counts."""
    if tp[-1] == 0 or fp[-1] == 0:
        raise ValueError("ROC AUC needs both classes present")
    u2 = int(np.dot(np.diff(fp, prepend=0), 2 * tp - np.diff(tp, prepend=0)))
    return u2 / (2 * int(tp[-1]) * int(fp[-1]))


def roc_curve(probs, labels) -> CurvePoints:
    """ROC operating points over thresholds induced by the distinct scores."""
    _, tp, fp = score_sweep(probs, labels)
    if tp[-1] == 0 or fp[-1] == 0:
        raise ValueError("ROC curve needs both classes present")
    return CurvePoints(xs=np.concatenate([[0.0], fp / fp[-1]]),
                       ys=np.concatenate([[0.0], tp / tp[-1]]))


def pr_curve(probs, labels) -> CurvePoints:
    """Precision-recall operating points over descending score thresholds."""
    return _pr_curve(*score_sweep(probs, labels)[1:])


def _pr_curve(tp, fp) -> CurvePoints:
    """``pr_curve`` from a ``score_sweep``'s counts."""
    if tp[-1] == 0:
        raise ValueError("PR curve needs at least one positive")
    return CurvePoints(xs=tp / tp[-1], ys=tp / (tp + fp))


def pr_auc(probs, labels) -> float:
    """Average precision: sum of (R_i - R_{i-1}) * P_i over operating points.

    Step-wise summation is used instead of trapezoids, which are
    optimistically biased on PR curves.
    """
    return _pr_auc(*score_sweep(probs, labels)[1:])


def _pr_auc(tp, fp) -> float:
    """``pr_auc`` from a ``score_sweep``'s counts."""
    curve = _pr_curve(tp, fp)
    recall = np.concatenate([[0.0], curve.xs])
    return float(np.sum(np.diff(recall) * curve.ys))


def full_suite(probs, labels, tau: float) -> MetricSuite:
    """Threshold-dependent metrics at tau plus both threshold-free areas, read off
    one ``score_sweep``; ROC AUC's class check comes first."""
    thresholds, tp, fp = score_sweep(probs, labels)
    auc = _roc_auc(tp, fp)
    n_pos, n_neg = int(tp[-1]), int(fp[-1])
    tp_tau, fp_tau = map(int, counts_at(thresholds, tp, fp, tau))
    tn_tau, fn_tau = n_neg - fp_tau, n_pos - tp_tau
    sens, spec = tp_tau / n_pos, tn_tau / n_neg
    return MetricSuite(
        sens=sens, spec=spec,
        ppv=tp_tau / (tp_tau + fp_tau) if tp_tau + fp_tau else math.nan,
        npv=tn_tau / (tn_tau + fn_tau) if tn_tau + fn_tau else math.nan,
        uar=(sens + spec) / 2.0, youden_j=sens + spec - 1.0,
        roc_auc=auc, pr_auc=_pr_auc(tp, fp))


def aggregate_cougher(values, cougher_ids):
    """Mean per cougher of one array of values, or of each row of a (k, n) stack of them.

    Returns (unique_ids, means) with ids sorted, one entry per distinct
    cougher: means has one row per row of ``values``, or is 1-D for one array.
    The ids are sorted once for every row.
    """
    values = np.asarray(values, dtype=np.float64)
    ids = np.asarray(cougher_ids)
    if ids.ndim != 1 or values.ndim > 2 or values.shape[-1:] != ids.shape:
        raise ValueError("every value must be tagged with a cougher id")
    uniq, inverse = np.unique(ids, return_inverse=True)
    sums = np.array([np.bincount(inverse, weights=row) for row in np.atleast_2d(values)])
    return uniq, (sums / np.bincount(inverse)).reshape(values.shape[:-1] + uniq.shape)
