"""Nested cougher-disjoint evaluation: grid search, calibration, conformal, metrics.

Per outer fold the protocol is:

1. carve a disjoint calibration subset out of the outer training pool;
2. grid search on the remaining (tuning) coughers via the inner grouped
   5-fold split, selecting hyperparameters by mean UAR at fold-wise Youden
   thresholds on raw inner-fold probabilities;
3. collect out-of-fold probabilities on the tuning pool at the selected
   hyperparameters and fit the isotonic calibrator on them;
4. train the final model on the full tuning pool;
5. score the calibration subset (calibrated) to pick the waveform and
   cougher thresholds by Youden and the conformal quantile per alpha;
6. score the untouched test fold: thresholded metrics, ROC/PR areas,
   Brier/ECE before and after calibration, conformal sets, and selective
   correctness — all at both waveform and cougher level where defined.

Step 1 is the fold plan's. ``score_inner_fold`` makes step 2's fits on one inner fold;
``run_fold``, the model half, picks the winner (2), its out-of-fold probabilities (3)
and the final fit (4), which scores the calibration subset (5) and the test fold (6);
``evaluate_fold`` does the rest of 3, 5 and 6 from probabilities, labels and ids alone.
Rows are picked by role code: scalers and models see only tuning (inner-train) rows.
``run_nested`` audits every plan (``splits.audit_plan``) before any fit, and a
violation aborts the run with ``LeakageError``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import logging
import math
import os
import types
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import calibration, conformal, metrics, models
from .data import ManifestError, apply_scaler, fit_scaler
from .features import VECTOR_LENGTH, extract_all
from .splits import (CALIB, TEST, LeakageError, NestedPlan, audit_plan, build_nested_plan,
                     model_seed, single_class_sets)

log = logging.getLogger(__name__)

FAMILIES = ("LR", "GBDT")
# feature mode -> the columns of ``FeatureTable.features`` it reads
FEATURE_COLUMNS = {"audio": slice(VECTOR_LENGTH), "fused": slice(None)}
FEATURE_MODES = tuple(FEATURE_COLUMNS)
DEFAULT_ALPHAS = (0.10, 0.05)
# evaluation level -> (its tag in the fold record's keys, the key of its threshold)
LEVELS = {"waveform": ("wf", "tau_w"), "cougher": ("cg", "tau_s")}


@dataclass(frozen=True)
class RunConfig:
    alphas: tuple = DEFAULT_ALPHAS
    calib_frac: float = 0.15
    seed: int = 42
    k_outer: int = 10
    k_inner: int = 5
    grid: tuple | None = None  # optional reduced candidate list for desk-scale runs

    def candidates(self, family: str) -> list:
        if self.grid is not None:
            return [dict(c) for c in self.grid]
        return models.grid_candidates(family)


@dataclass
class FeatureTable:
    """Per-recording feature rows, extracted once; cougher facts derive from the rows."""

    recording_ids: list
    cougher_ids: np.ndarray
    labels: np.ndarray
    features: np.ndarray  # the 261 audio features, then the 16 clinical columns

    @property
    def audio(self) -> np.ndarray:
        """The audio block of every row, a view of ``features``."""
        return self.features[:, FEATURE_COLUMNS["audio"]]

    @cached_property
    def cougher_index(self) -> tuple:
        """``np.unique`` of ``cougher_ids``: the cougher ids, each one's first row, each
        row's cougher's position in the ids (and so in their plan) and each one's row count."""
        return np.unique(self.cougher_ids, return_index=True, return_inverse=True,
                         return_counts=True)

    def coughers(self) -> tuple:
        """(ids, labels, recording counts) of the table's coughers, as lists in id order."""
        ids, first, _, counts = self.cougher_index
        return ids.tolist(), self.labels[first].tolist(), counts.tolist()

    @property
    def cougher_pos(self) -> np.ndarray:
        """Each row's cougher's index in the ids of ``coughers()``, and so in their plan."""
        return self.cougher_index[2]


def build_feature_table(coughers) -> FeatureTable:
    """Extract the 261-value audio vector and clinical encoding per recording.

    ``coughers`` may be any iterable, a generator included. Recordings are
    read and extracted in frame-bounded batches as they arrive
    (``features.extract_all``), so no more than one batch of waveforms is
    decoded at a time. Rows are ordered by cougher id, then recording id.
    """
    keys, clinical = [], []  # per recording, in extraction order

    def waveforms():
        for c in coughers:
            vector = c.clinical.to_vector()
            for rec in c.recordings:
                keys.append((c.id, rec.id, c.tb_label))
                clinical.append(vector)
                yield rec.audio()

    # the clinical rows are stacked once extraction has listed them
    features = np.hstack([extract_all(waveforms()), np.vstack(clinical)])
    order = sorted(range(len(keys)), key=keys.__getitem__)
    cids, rids, labels = zip(*(keys[i] for i in order))
    return FeatureTable(recording_ids=list(rids), cougher_ids=np.asarray(cids),
                        labels=np.asarray(labels, dtype=int), features=features[order])


def _at_level(level: str, labels, recording_ids, cougher_ids, *probs) -> tuple:
    """Each of ``probs`` at ``level``, then the labels and ids there: as given at the
    waveform level, and averaged per cougher, in cougher id order, at the cougher level."""
    if level == "waveform":
        return (*probs, labels, recording_ids)
    # a cougher's recordings share its label, so the label's mean is the label
    aggregated = [metrics.aggregate_cougher(p, cougher_ids) for p in (*probs, labels)]
    *means, labels = (mean for _, mean in aggregated)
    return (*means, labels.astype(int), aggregated[0][0].tolist())


def json_clean(obj):
    """``obj`` with containers made JSON-native and NaN/inf floats made None."""
    if isinstance(obj, dict):
        return {str(k): json_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return json_clean(obj.tolist())
    if isinstance(obj, np.generic):
        return json_clean(obj.item())
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return None
    return obj


class FoldResult(types.SimpleNamespace):
    """One outer fold's record, holding the keys ``run_fold`` sets; at each of ``LEVELS``
    a ``metrics.MetricSuite`` of the test fold."""

    def to_dict(self) -> dict:
        return json_clean(dict(vars(self), **{level: asdict(getattr(self, level))
                                              for level in LEVELS}))


def _fit_and_score(family: str, candidates: list, X, y, train_rows, eval_rows: list,
                   seed: int) -> tuple:
    """Fit the scaler, then each of ``models.fit_groups`` once, on the ``train_rows`` of
    (X, y), and score each array of rows in ``eval_rows`` on its own: the (candidates x
    rows) probabilities of each, and the C of each LR fit that stopped unconverged."""
    # the scaler does not depend on the candidate, so every candidate shares it
    X_train = X[train_rows]
    scaler = fit_scaler(X_train)
    X_train = apply_scaler(scaler, X_train)
    X_evals = [apply_scaler(scaler, X[rows]) for rows in eval_rows]
    probs = [np.empty((len(candidates), rows.size)) for rows in eval_rows]
    unconverged = []
    for members in models.fit_groups(family, candidates):
        score, group_unconverged = models.fit_group(
            family, [candidates[ci] for ci in members], X_train, y[train_rows], seed)
        unconverged += group_unconverged
        for out, X_eval in zip(probs, X_evals):
            out[members] = score(X_eval)
    return probs, unconverged


def score_inner_fold(table: FeatureTable, codes: np.ndarray, fold: int, j: int, family: str,
                     feature_mode: str, cfg: RunConfig):
    """Step (2) of the protocol on inner fold ``j`` of outer fold ``fold``, whose role
    codes (``NestedPlan.codes[fold]``) are ``codes``.

    Returns plain picklable values: each candidate's UAR at its Youden
    threshold, the (candidates x validation rows) probabilities, and the C of
    each LR fit that stopped unconverged.
    """
    X, y = table.features[:, FEATURE_COLUMNS[feature_mode]], table.labels
    role = codes[table.cougher_pos]
    train_rows, val_rows = np.flatnonzero((role >= 0) & (role != j)), np.flatnonzero(role == j)
    (probs,), unconverged = _fit_and_score(family, cfg.candidates(family), X, y, train_rows,
                                           [val_rows], model_seed(cfg.seed, fold, 0))
    uars = np.array([(1.0 + calibration.youden_threshold(p, y[val_rows])[1]) / 2.0
                     for p in probs])
    return uars, probs, unconverged


def run_fold(table: FeatureTable, codes: np.ndarray, fold: int, family: str,
             feature_mode: str, cfg: RunConfig, inner) -> tuple[FoldResult, list]:
    """The model half of outer fold ``fold``, whose role codes are ``codes``, given in
    ``inner`` the ``score_inner_fold`` output of each of its inner folds, in order.
    Returns the ``FoldResult``, with the keys of ``evaluate_fold``, and the C of each of
    the fold's LR fits that stopped unconverged."""
    X, y = table.features[:, FEATURE_COLUMNS[feature_mode]], table.labels
    role = codes[table.cougher_pos]
    tuning_rows = np.flatnonzero(role >= 0)
    calib_rows = np.flatnonzero(role == CALIB)
    test_rows = np.flatnonzero(role == TEST)
    candidates = cfg.candidates(family)
    oof = np.full((len(candidates), tuning_rows.size), np.nan)
    uars = np.empty((len(candidates), len(inner)))
    unconverged = []  # C of each LR fit of this fold that stopped unconverged
    for j, (unit_uars, probs, unit_unconverged) in enumerate(inner):
        uars[:, j] = unit_uars
        oof[:, role[tuning_rows] == j] = probs
        unconverged += unit_unconverged
    # the first candidate in grid order with the largest mean inner UAR wins;
    # its out-of-fold probabilities fit the calibrator
    mean_uars = [float(np.mean(u)) for u in uars]
    best_idx = int(np.argmax(mean_uars))
    best_params, best_uar = dict(candidates[best_idx]), mean_uars[best_idx]
    best_oof = oof[best_idx].copy()
    if np.isnan(best_oof).any():
        raise RuntimeError("out-of-fold probabilities missing for some tuning rows")

    # the final fit, a group of one on every tuning row, scores the calibration
    # subset and the untouched outer test fold once each
    ((calib_raw,), (test_raw,)), final_unconverged = _fit_and_score(
        family, [best_params], X, y, tuning_rows, [calib_rows, test_rows],
        model_seed(cfg.seed, fold, 1))
    unconverged += final_unconverged

    roles = ((best_oof, tuning_rows), (calib_raw, calib_rows), (test_raw, test_rows))
    record = evaluate_fold(*[(p, y[rows], [table.recording_ids[r] for r in rows],
                              table.cougher_ids[rows]) for p, rows in roles], cfg.alphas)
    # true by construction: run_nested audits the plan, and rows are picked by role code
    audit = {
        "boundaries_disjoint": True,
        "scaler_fit_coughers": table.cougher_index[0][codes >= 0].tolist(),
        "scaler_fit_within_tuning": True,
        "outer_positive_rates": None,  # filled by run_nested
    }
    return FoldResult(
        fold=fold, family=family, feature_mode=feature_mode,
        best_params=best_params, best_inner_uar=best_uar, **record,
        n_test_coughers=int(np.sum(codes == TEST)), n_calib_coughers=int(np.sum(codes == CALIB)),
        n_tuning_coughers=int(np.sum(codes >= 0)), audit=audit,
    ), unconverged


def evaluate_fold(oof: tuple, calib: tuple, test: tuple, alphas) -> dict:
    """The fold record's keys that steps (3), (5) and (6) derive from ``oof``, ``calib`` and
    ``test``: each the (raw probabilities, labels, recording ids, cougher ids) of one role's
    rows, the winner's out-of-fold probabilities of the tuning rows, which fit the isotonic
    calibrator, then the final fit's of the calibration subset and of the test fold."""
    iso = calibration.fit_isotonic(*oof[:2])
    calib_cal = calibration.apply_isotonic(iso, calib[0])
    test_cal = calibration.apply_isotonic(iso, test[0])

    # Per level: the Youden threshold on the calibration subset, then the test fold's
    # metric suite, and Brier and ECE before and after calibration.
    record, at, test_ids = {}, {}, {}
    for level, (tag, threshold_key) in LEVELS.items():
        calib_p, calib_y, _ = _at_level(level, *calib[1:], calib_cal)
        raw, cal, y, test_ids[level] = _at_level(level, *test[1:], test[0], test_cal)
        tau, _ = calibration.youden_threshold(calib_p, calib_y)
        at[level] = calib_p, calib_y, cal, y, tau
        record.update({threshold_key: tau, level: metrics.full_suite(cal, y, tau),
                       f"test_{tag}_raw": raw, f"test_{tag}_cal": cal, f"test_{tag}_labels": y})
        for stage, p in (("raw", raw), ("cal", cal)):
            record[f"brier_{stage}_{tag}"] = calibration.brier(p, y)
            record[f"ece_{stage}_{tag}"] = calibration.ece(p, y)

    # Conformal sets and selective correctness, at the cougher level.
    calib_cg, calib_cg_y, cg_cal, cg_labels, tau_s = at["cougher"]
    conf = conformal.fit_conformal(calib_cg, calib_cg_y, alphas)
    conf_out, sel_out, sets_out = {}, {}, {}
    point_preds = (cg_cal >= tau_s).astype(int)
    for alpha in alphas:
        sets = conf.prediction_sets(cg_cal, alpha)
        ev = conformal.evaluate_sets(sets, cg_labels)
        ev["qhat"] = conf.quantiles[float(alpha)]
        conf_out[float(alpha)] = ev
        sel_out[float(alpha)] = conformal.selective_metrics(point_preds, sets, cg_labels)
        sets_out[float(alpha)] = {"has_pos": sets[:, 1], "has_neg": sets[:, 0]}
    return dict(record, conformal=conf_out, selective=sel_out, oof_recording_ids=oof[2],
                oof_probs=oof[0], test_recording_ids=test_ids["waveform"],
                test_cg_ids=test_ids["cougher"], test_sets=sets_out)


_worker_table = None  # a pool worker's FeatureTable, set once by _init_worker


def _init_worker(table: FeatureTable) -> None:
    global _worker_table
    _worker_table = table


def _score_on_worker_table(unit: tuple):
    """``score_inner_fold`` on one unit's arguments, in a pool worker."""
    return score_inner_fold(_worker_table, *unit)


def _finish_on_worker_table(*args):
    """``run_fold`` on one outer fold's arguments, in a pool worker."""
    return run_fold(_worker_table, *args)


# the thread-count setter of each OpenBLAS build numpy and scipy may bundle
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads")


def pin_blas_threads() -> None:
    """Set every OpenBLAS loaded in this process to one thread.

    Nothing here needs a second BLAS thread, and each bundled OpenBLAS starts
    one per CPU, so worker processes would oversubscribe the cores. The
    libraries are found in ``/proc/self/maps``; without that file, a library
    or a setter, this does nothing. The setting is process-wide.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            paths = {parts[5].strip() for parts in (line.split(maxsplit=5) for line in fh)
                     if len(parts) == 6 and "openblas" in os.path.basename(parts[5]).lower()}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setter = next((getattr(lib, name) for name in _BLAS_SETTERS if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def worker_count(jobs: int, units: int) -> int:
    """Workers for ``jobs`` requested and ``units`` to run: at most one per unit
    and one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(jobs, units, cpus)


def run_nested(table: FeatureTable, family: str, feature_mode: str, cfg: RunConfig,
               jobs: int = 1, plan: NestedPlan | None = None):
    """Run the full nested protocol on a feature table; returns (fold_results, plan).

    A given ``plan`` must cover exactly the table's coughers (else ``ManifestError``),
    and every plan, built or given, must pass ``audit_plan`` (else ``LeakageError``)
    and hold both classes in each set (``single_class_sets``, else ``ManifestError``),
    all before any fit. Each (outer fold, inner fold) unit runs
    ``score_inner_fold``, then each outer fold ``run_fold`` on its units' outputs,
    handed on as soon as they arrive. At ``jobs=1`` both run lazily in this process,
    one fold at a time; otherwise on one pool of ``worker_count(jobs, units)``
    workers that each get the table once, every fold's ``run_fold`` queued behind
    the units, and an error drops every queued task. Numerical results do not
    depend on ``jobs``. Every loaded OpenBLAS is first pinned to one thread
    (``pin_blas_threads``).
    """
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if feature_mode not in FEATURE_MODES:
        raise ValueError(f"feature_mode must be one of {FEATURE_MODES}, got {feature_mode!r}")
    ids, labels, counts = table.coughers()
    if plan is None:
        plan = build_nested_plan(ids, labels, counts, cfg.k_outer, cfg.k_inner, cfg.calib_frac,
                                 cfg.seed)
    elif not np.array_equal(plan.ids, ids):
        planned = set(plan.ids.tolist())
        raise ManifestError(f"the fold plan does not cover the table's coughers: "
                            f"{len(set(ids) - planned)} of the table's are not in the plan, "
                            f"{len(planned - set(ids))} of the plan's are not in the table")
    if violations := audit_plan(plan):
        raise LeakageError(f"the fold plan fails the leakage audit with {len(violations)} "
                           f"violation(s), the first: {violations[0]}")
    if sets := single_class_sets(plan.codes, labels):
        raise ManifestError(f"{len(sets)} set(s) of the fold plan lack a class, the first: "
                            f"{sets[0]}")
    pin_blas_threads()
    k_inner = int(plan.codes.max()) + 1
    units = [(codes, f, j, family, feature_mode, cfg)
             for f, codes in enumerate(plan.codes) for j in range(k_inner)]
    workers = worker_count(jobs, len(units))
    log.info("%d inner-fold units, %d outer folds, %d workers", len(units), len(plan.codes),
             workers)
    with contextlib.ExitStack() as stack:
        if workers == 1:
            scores = (score_inner_fold(table, *unit) for unit in units)
            finish = functools.partial(run_fold, table)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker, initargs=(table,)))
            # runs before the pool's own exit, which would wait for every queued task
            stack.callback(pool.shutdown, cancel_futures=True)
            scores = iter(pool.map(_score_on_worker_table, units))
            finish = functools.partial(pool.submit, _finish_on_worker_table)
        finished = (finish(codes, f, family, feature_mode, cfg,
                           list(itertools.islice(scores, k_inner)))
                    for f, codes in enumerate(plan.codes))
        if workers > 1:  # every fold is queued before any is awaited
            finished = [future.result() for future in list(finished)]
        results = []
        for f, (result, unconverged) in enumerate(finished):
            # logged here, not in a worker, so the caller's handlers receive it;
            # LR fits only, one per candidate and inner fold, then the final fit
            if unconverged:
                log.warning("outer fold %d (%s): %d of %d LR fits did not converge, at C = %s",
                            f, feature_mode, len(unconverged),
                            len(cfg.candidates(family)) * k_inner + 1,
                            ", ".join(map(repr, sorted(set(unconverged)))))
            results.append(result)
    rates = [float(np.mean(np.asarray(labels)[codes == TEST])) for codes in plan.codes]
    for r in results:
        r.audit["outer_positive_rates"] = rates
    return results, plan
