"""Confusion-based metrics, ROC/PR curves and areas, and cougher aggregation.

Thresholding is boundary-inclusive: a sample is predicted positive when
its probability is >= tau. PPV and NPV are undefined (NaN sentinel) when
their denominators are empty; aggregation layers must exclude sentinels
from means rather than substituting zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import rankdata


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass(frozen=True)
class MetricSuite:
    sens: float
    spec: float
    ppv: float
    npv: float
    uar: float
    youden_j: float
    roc_auc: float = math.nan
    pr_auc: float = math.nan


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


def confusion_at(probs, labels, tau: float) -> ConfusionCounts:
    probs, labels = _check_aligned(probs, labels)
    pred = probs >= tau
    pos = labels == 1
    return ConfusionCounts(
        tp=int(np.sum(pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        tn=int(np.sum(~pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
    )


def metric_suite(c: ConfusionCounts) -> MetricSuite:
    sens = c.tp / (c.tp + c.fn) if c.tp + c.fn else math.nan
    spec = c.tn / (c.tn + c.fp) if c.tn + c.fp else math.nan
    ppv = c.tp / (c.tp + c.fp) if c.tp + c.fp else math.nan
    npv = c.tn / (c.tn + c.fn) if c.tn + c.fn else math.nan
    uar = (sens + spec) / 2.0
    return MetricSuite(sens=sens, spec=spec, ppv=ppv, npv=npv, uar=uar,
                       youden_j=sens + spec - 1.0)


def roc_auc(probs, labels) -> float:
    """Area under the ROC curve via the Mann-Whitney statistic, ties counted 1/2."""
    probs, labels = _check_aligned(probs, labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = probs.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC AUC needs both classes present")
    ranks = rankdata(probs, method="average")  # ties share their group's mean rank
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def roc_curve(probs, labels) -> CurvePoints:
    """ROC operating points over thresholds induced by the distinct scores."""
    probs, labels = _check_aligned(probs, labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = probs.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC curve needs both classes present")
    order = np.argsort(-probs, kind="stable")
    sorted_probs = probs[order]
    tp = np.cumsum(pos[order])
    fp = np.cumsum(~pos[order])
    boundary = np.concatenate([sorted_probs[:-1] != sorted_probs[1:], [True]])
    tpr = np.concatenate([[0.0], tp[boundary] / n_pos])
    fpr = np.concatenate([[0.0], fp[boundary] / n_neg])
    return CurvePoints(xs=fpr, ys=tpr)


def pr_curve(probs, labels) -> CurvePoints:
    """Precision-recall operating points over descending score thresholds."""
    probs, labels = _check_aligned(probs, labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    if n_pos == 0:
        raise ValueError("PR curve needs at least one positive")
    order = np.argsort(-probs, kind="stable")
    sorted_probs = probs[order]
    tp = np.cumsum(pos[order])
    n_pred = np.arange(1, probs.size + 1)
    boundary = np.concatenate([sorted_probs[:-1] != sorted_probs[1:], [True]])
    recall = tp[boundary] / n_pos
    precision = tp[boundary] / n_pred[boundary]
    return CurvePoints(xs=recall, ys=precision)


def pr_auc(probs, labels) -> float:
    """Average precision: sum of (R_i - R_{i-1}) * P_i over operating points.

    Step-wise summation is used instead of trapezoids, which are
    optimistically biased on PR curves.
    """
    curve = pr_curve(probs, labels)
    recall = np.concatenate([[0.0], curve.xs])
    return float(np.sum(np.diff(recall) * curve.ys))


def full_suite(probs, labels, tau: float) -> MetricSuite:
    """Threshold-dependent metrics at tau plus both threshold-free areas."""
    return replace(metric_suite(confusion_at(probs, labels, tau)),
                   roc_auc=roc_auc(probs, labels), pr_auc=pr_auc(probs, labels))


def aggregate_cougher(probs, cougher_ids):
    """Mean probability per cougher.

    Returns (unique_ids, mean_probs) with ids sorted, one entry per
    distinct cougher.
    """
    probs = np.asarray(probs, dtype=np.float64)
    ids = np.asarray(cougher_ids)
    if probs.shape != ids.shape:
        raise ValueError("every probability must be tagged with a cougher id")
    uniq, inverse = np.unique(ids, return_inverse=True)
    sums = np.bincount(inverse, weights=probs)
    counts = np.bincount(inverse)
    return uniq, sums / counts
