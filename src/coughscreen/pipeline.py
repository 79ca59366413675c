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

``score_inner_fold`` runs step 2 on one inner fold, ``run_fold`` runs the
other steps on the inner folds' outputs, and ``run_nested`` schedules both.
Scalers and models only ever see tuning rows (inner-train rows during the
grid search); every boundary is re-asserted at run time and a violation
aborts the run with ``LeakageError``.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from . import calibration, conformal, metrics, models
from .data import apply_scaler, fit_scaler, fuse
from .features import extract_all
from .splits import LeakageError, NestedPlan, assert_cougher_disjoint, build_nested_plan, model_seed

log = logging.getLogger(__name__)

FAMILIES = ("LR", "GBDT")
FEATURE_MODES = ("audio", "fused")
DEFAULT_ALPHAS = (0.10, 0.05)


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
    """Per-recording feature rows plus cougher bookkeeping, extracted once."""

    recording_ids: list
    cougher_ids: np.ndarray
    labels: np.ndarray
    audio: np.ndarray
    clinical: np.ndarray
    cougher_label: dict
    cougher_rec_count: dict

    @property
    def all_coughers(self) -> list:
        return sorted(self.cougher_label)

    @cached_property
    def fused(self) -> np.ndarray:
        """The audio then the clinical block of every row, built once, on first use."""
        return fuse(self.audio, self.clinical)


def build_feature_table(coughers) -> FeatureTable:
    """Extract the 261-value audio vector and clinical encoding per recording.

    ``coughers`` may be any iterable, a generator included. Recordings are
    read and extracted in frame-bounded batches as they arrive
    (``features.extract_all``), so no more than one batch of waveforms is
    decoded at a time. Rows are ordered by cougher id, then recording id.
    """
    keys, clinical, cougher_label, rec_count = [], {}, {}, {}

    def waveforms():
        for c in coughers:
            cougher_label[c.id] = c.tb_label
            rec_count[c.id] = len(c.recordings)
            clinical[c.id] = c.clinical.to_vector()
            for rec in c.recordings:
                keys.append((c.id, rec.id))
                yield rec.audio()

    audio = extract_all(waveforms())
    order = sorted(range(len(keys)), key=keys.__getitem__)
    cids = [keys[i][0] for i in order]
    return FeatureTable(
        recording_ids=[keys[i][1] for i in order],
        cougher_ids=np.asarray(cids),
        labels=np.asarray([cougher_label[c] for c in cids], dtype=int),
        audio=audio[order],
        clinical=np.vstack([clinical[c] for c in cids]),
        cougher_label=cougher_label,
        cougher_rec_count=rec_count,
    )


def _design_matrix(table: FeatureTable, feature_mode: str) -> np.ndarray:
    if feature_mode == "audio":
        return table.audio
    if feature_mode == "fused":
        return table.fused
    raise ValueError(f"unknown feature_mode {feature_mode!r}")


def _rows_for(table: FeatureTable, coughers) -> np.ndarray:
    return np.flatnonzero(np.isin(table.cougher_ids, list(coughers)))


def _cougher_level(table, rows, probs):
    """Aggregate waveform probabilities to (ids, mean prob, label) per cougher."""
    ids, agg = metrics.aggregate_cougher(probs, table.cougher_ids[rows])
    labels = np.array([table.cougher_label[c] for c in ids], dtype=int)
    return ids, agg, labels


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


@dataclass
class FoldResult:
    fold: int
    family: str
    feature_mode: str
    best_params: dict
    best_inner_uar: float
    tau_w: float
    tau_s: float
    waveform: metrics.MetricSuite
    cougher: metrics.MetricSuite
    brier_raw_wf: float
    brier_cal_wf: float
    ece_raw_wf: float
    ece_cal_wf: float
    brier_raw_cg: float
    brier_cal_cg: float
    ece_raw_cg: float
    ece_cal_cg: float
    conformal: dict  # alpha -> {qhat, coverage, mean_size, singleton_rate, empty_rate}
    selective: dict  # alpha -> selective_metrics output
    n_test_coughers: int
    n_calib_coughers: int
    n_tuning_coughers: int
    oof_recording_ids: list = field(default_factory=list)
    oof_probs: np.ndarray | None = None
    test_recording_ids: list = field(default_factory=list)
    test_wf_raw: np.ndarray | None = None
    test_wf_cal: np.ndarray | None = None
    test_wf_labels: np.ndarray | None = None
    test_cg_ids: list = field(default_factory=list)
    test_cg_raw: np.ndarray | None = None
    test_cg_cal: np.ndarray | None = None
    test_cg_labels: np.ndarray | None = None
    test_sets: dict = field(default_factory=dict)  # alpha -> {has_pos, has_neg}
    audit: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return json_clean(dict(self.__dict__, waveform=asdict(self.waveform),
                               cougher=asdict(self.cougher)))


def _fit_groups(family: str, candidates: list) -> list:
    """The member indices of each group of candidates that share one inner fit.

    LR candidates form one group, fitted in lockstep by ``fit_lr_batch``. GBDT
    candidates equal but for ``iterations`` share one fit at their largest
    ``iterations``, scored per member as a prefix of its trees; every other
    GBDT candidate is a group of its own. Groups and members keep grid order.
    """
    if family != "GBDT":
        return [list(range(len(candidates)))]
    groups = {}
    for ci, cand in enumerate(candidates):
        key = tuple(sorted((k, v) for k, v in cand.items() if k != "iterations"))
        groups.setdefault(key, []).append(ci)
    return list(groups.values())


def score_inner_fold(table: FeatureTable, fold_plan, j: int, family: str, feature_mode: str,
                     cfg: RunConfig):
    """Step (2) of the protocol on inner fold ``j`` of one outer fold.

    Returns plain picklable values: each candidate's UAR at its Youden
    threshold, the validation rows' positions among the tuning rows, the
    (candidates x validation rows) probabilities, and the C of each LR fit
    that stopped unconverged.
    """
    val_c = fold_plan.inner.fold_members(j)
    train_c = sorted(set(fold_plan.tuning) - set(val_c))
    assert_cougher_disjoint(inner_train=train_c, inner_val=val_c, test=fold_plan.test,
                            calib=fold_plan.calib)
    X_all, y_all = _design_matrix(table, feature_mode), table.labels
    tuning_rows, val_rows = _rows_for(table, fold_plan.tuning), _rows_for(table, val_c)
    train_rows = np.setdiff1d(tuning_rows, val_rows, assume_unique=True)
    oof_pos = np.searchsorted(tuning_rows, val_rows)
    if not np.array_equal(tuning_rows[np.minimum(oof_pos, tuning_rows.size - 1)], val_rows):
        raise LeakageError(f"fold {fold_plan.fold}: inner validation rows outside "
                           "the tuning pool")
    # the scaler does not depend on the candidate, so every candidate shares it
    X_train, y_train = X_all[train_rows], y_all[train_rows]
    scaler = fit_scaler(X_train)
    X_train = apply_scaler(scaler, X_train)
    X_val = apply_scaler(scaler, X_all[val_rows])
    candidates = cfg.candidates(family)
    uars = np.empty(len(candidates))
    probs = np.empty((len(candidates), val_rows.size))
    unconverged = []
    seed = model_seed(cfg.seed, fold_plan.fold, 0)
    for members in _fit_groups(family, candidates):
        group = [candidates[ci] for ci in members]
        if family == "GBDT":
            params = max(group, key=lambda c: int(c["iterations"]))
            model = models.fit_gbdt(X_train, y_train, params, seed=seed)
            member_probs = models.staged_proba_gbdt(model, X_val,
                                                    [c["iterations"] for c in group])
        else:
            fitted = models.fit_lr_batch(X_train, y_train, group)
            unconverged += [m.C for m in fitted if not m.converged]
            member_probs = models.predict_proba_lr_batch(fitted, X_val)
        for ci, member in zip(members, member_probs):
            _, j_stat = calibration.youden_threshold(member, y_all[val_rows])
            uars[ci] = (1.0 + j_stat) / 2.0
            probs[ci] = member
    return uars, oof_pos, probs, unconverged


def run_fold(table: FeatureTable, fold_plan, family: str, feature_mode: str,
             cfg: RunConfig, inner) -> tuple[FoldResult, list]:
    """Steps (1) and (3)-(6) of the protocol for one outer fold, given in ``inner``
    the ``score_inner_fold`` output of each of its inner folds, in order. Returns
    the ``FoldResult`` and the C of each of the fold's LR fits that stopped unconverged."""
    test_c, calib_c, tuning_c = fold_plan.test, fold_plan.calib, fold_plan.tuning
    assert_cougher_disjoint(test=test_c, calib=calib_c, tuning=tuning_c)

    X_all, y_all = _design_matrix(table, feature_mode), table.labels
    tuning_rows = _rows_for(table, tuning_c)
    calib_rows = _rows_for(table, calib_c)
    test_rows = _rows_for(table, test_c)
    candidates = cfg.candidates(family)
    oof = np.full((len(candidates), tuning_rows.size), np.nan)
    uars = np.empty((len(candidates), fold_plan.inner.k))
    unconverged = []  # C of each LR fit of this fold that stopped unconverged
    for j, (unit_uars, oof_pos, probs, unit_unconverged) in enumerate(inner):
        uars[:, j] = unit_uars
        oof[:, oof_pos] = probs
        unconverged += unit_unconverged
    # the first candidate in grid order with the largest mean inner UAR wins;
    # its out-of-fold probabilities fit the calibrator
    mean_uars = [float(np.mean(u)) for u in uars]
    best_idx = int(np.argmax(mean_uars))
    best_params, best_uar = dict(candidates[best_idx]), mean_uars[best_idx]
    best_oof = oof[best_idx].copy()
    if np.isnan(best_oof).any():
        raise RuntimeError("out-of-fold probabilities missing for some tuning rows")

    iso = calibration.fit_isotonic(best_oof, y_all[tuning_rows])

    X_tuning = X_all[tuning_rows]
    scaler_final = fit_scaler(X_tuning)
    model_final = models.fit_model(family, best_params, apply_scaler(scaler_final, X_tuning),
                                   y_all[tuning_rows], seed=model_seed(cfg.seed, fold_plan.fold, 1))
    if isinstance(model_final, models.LRModel) and not model_final.converged:
        unconverged.append(model_final.C)

    # Calibration subset: thresholds and conformal quantiles.
    calib_raw = models.predict_model(model_final, apply_scaler(scaler_final, X_all[calib_rows]))
    calib_cal = calibration.apply_isotonic(iso, calib_raw)
    tau_w, _ = calibration.youden_threshold(calib_cal, y_all[calib_rows])
    _, calib_cg_cal, calib_cg_labels = _cougher_level(table, calib_rows, calib_cal)
    tau_s, _ = calibration.youden_threshold(calib_cg_cal, calib_cg_labels)
    conf = conformal.fit_conformal(calib_cg_cal, calib_cg_labels, cfg.alphas)

    # Untouched outer test fold.
    test_raw = models.predict_model(model_final, apply_scaler(scaler_final, X_all[test_rows]))
    test_cal = calibration.apply_isotonic(iso, test_raw)
    y_test = y_all[test_rows]
    wf_suite = metrics.full_suite(test_cal, y_test, tau_w)

    cg_ids, cg_raw, cg_labels = _cougher_level(table, test_rows, test_raw)
    _, cg_cal = metrics.aggregate_cougher(test_cal, table.cougher_ids[test_rows])
    cg_suite = metrics.full_suite(cg_cal, cg_labels, tau_s)

    conf_out, sel_out, sets_out = {}, {}, {}
    point_preds = (cg_cal >= tau_s).astype(int)
    for alpha in cfg.alphas:
        sets = conf.prediction_sets(cg_cal, alpha)
        ev = conformal.evaluate_sets(sets, cg_labels)
        ev["qhat"] = conf.quantiles[float(alpha)]
        conf_out[float(alpha)] = ev
        sel_out[float(alpha)] = conformal.selective_metrics(point_preds, sets, cg_labels)
        sets_out[float(alpha)] = {"has_pos": sets[:, 1], "has_neg": sets[:, 0]}

    audit = {
        "boundaries_disjoint": True,
        "scaler_fit_coughers": sorted(set(table.cougher_ids[tuning_rows])),
        "scaler_fit_within_tuning": set(table.cougher_ids[tuning_rows]) <= set(tuning_c),
        "outer_positive_rates": None,  # filled by run_nested
    }
    if not audit["scaler_fit_within_tuning"]:
        raise LeakageError(f"fold {fold_plan.fold}: scaler saw rows outside the tuning pool")

    return FoldResult(
        fold=fold_plan.fold, family=family, feature_mode=feature_mode,
        best_params=best_params, best_inner_uar=best_uar,
        tau_w=tau_w, tau_s=tau_s, waveform=wf_suite, cougher=cg_suite,
        brier_raw_wf=calibration.brier(test_raw, y_test),
        brier_cal_wf=calibration.brier(test_cal, y_test),
        ece_raw_wf=calibration.ece(test_raw, y_test),
        ece_cal_wf=calibration.ece(test_cal, y_test),
        brier_raw_cg=calibration.brier(cg_raw, cg_labels),
        brier_cal_cg=calibration.brier(cg_cal, cg_labels),
        ece_raw_cg=calibration.ece(cg_raw, cg_labels),
        ece_cal_cg=calibration.ece(cg_cal, cg_labels),
        conformal=conf_out, selective=sel_out,
        n_test_coughers=len(test_c), n_calib_coughers=len(calib_c),
        n_tuning_coughers=len(tuning_c),
        oof_recording_ids=[table.recording_ids[r] for r in tuning_rows],
        oof_probs=best_oof,
        test_recording_ids=[table.recording_ids[r] for r in test_rows],
        test_wf_raw=test_raw, test_wf_cal=test_cal, test_wf_labels=y_test,
        test_cg_ids=list(cg_ids), test_cg_raw=cg_raw, test_cg_cal=cg_cal,
        test_cg_labels=cg_labels, test_sets=sets_out, audit=audit,
    ), unconverged


_worker_table = None  # a pool worker's FeatureTable, set once by _init_worker


def _init_worker(table: FeatureTable) -> None:
    global _worker_table
    _worker_table = table


def _call_on_worker_table(fn, args):
    return fn(_worker_table, *args)


def run_nested(table: FeatureTable, family: str, feature_mode: str, cfg: RunConfig,
               jobs: int = 1, plan: NestedPlan | None = None):
    """Run the full nested protocol on a feature table; returns (fold_results, plan).

    Each (outer fold, inner fold) unit runs ``score_inner_fold``, then each outer
    fold ``run_fold``. At ``jobs=1`` both run lazily in this process, one fold at
    a time; otherwise on one pool of ``min(jobs, units)`` workers that each get
    the table once. Numerical results do not depend on ``jobs``.
    """
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if feature_mode not in FEATURE_MODES:
        raise ValueError(f"feature_mode must be one of {FEATURE_MODES}, got {feature_mode!r}")
    if plan is None:
        ids = table.all_coughers
        plan = build_nested_plan(ids, [table.cougher_label[c] for c in ids],
                                 [table.cougher_rec_count[c] for c in ids],
                                 cfg.k_outer, cfg.k_inner, cfg.calib_frac, cfg.seed)
    n_units = sum(fp.inner.k for fp in plan.folds)
    workers = min(jobs, n_units)
    log.info("%d inner-fold units, %d outer folds, %d workers", n_units, len(plan.folds),
             workers)
    with contextlib.ExitStack() as stack:
        if workers == 1:
            def mapper(fn, arg_tuples):
                return (fn(table, *args) for args in arg_tuples)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker, initargs=(table,)))

            def mapper(fn, arg_tuples):
                return pool.map(_call_on_worker_table, itertools.repeat(fn), arg_tuples)
        units = iter(mapper(score_inner_fold, ((fp, j, family, feature_mode, cfg)
                                               for fp in plan.folds for j in range(fp.inner.k))))
        inner = (list(itertools.islice(units, fp.inner.k)) for fp in plan.folds)
        finished = mapper(run_fold, ((fp, family, feature_mode, cfg, scores)
                                     for fp, scores in zip(plan.folds, inner)))
        results = []
        for fp, (result, unconverged) in zip(plan.folds, finished):
            # logged here, not in a worker, so the caller's handlers receive it;
            # LR fits only, one per candidate and inner fold, then the final fit
            if unconverged:
                log.warning("outer fold %d (%s): %d of %d LR fits did not converge, at C = %s",
                            fp.fold, feature_mode, len(unconverged),
                            len(cfg.candidates(family)) * fp.inner.k + 1,
                            ", ".join(map(repr, sorted(set(unconverged)))))
            results.append(result)
    rates = plan.outer.positive_rates(table.cougher_label)
    for r in results:
        r.audit["outer_positive_rates"] = rates
    return results, plan
