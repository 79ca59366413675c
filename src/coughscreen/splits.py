"""Cougher-disjoint stratified grouped splits and the nested fold plan.

Every partition here operates on coughers, never on recordings: all
recordings of a participant travel together, so no identity signal can
leak across a boundary. The split helpers take the coughers' labels (and
recording counts) and return positions into them. The nested plan is, per outer fold:

    test (held-out outer fold)
    calib (disjoint calibration subset carved from the training pool)
    tuning (remaining coughers), partitioned again into inner folds

A plan holds one role code per cougher and outer fold, so the three roles
are disjoint and cover the cohort by construction. ``audit_plan`` checks the
rest of the protocol on the codes; ``pipeline.run_nested`` runs it on every plan
before any fit. Plans export to CSV, and ``audit_plan_rows``, the check
``coughscreen audit`` runs, rebuilds the codes from the rows, then audits them.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .data import ManifestError, read_csv_rows

ROLE_TEST = "test"
ROLE_CALIB = "calib"
ROLE_TUNING = "tuning"
PLAN_COLUMNS = ["cougher_id", "outer_fold", "role", "inner_fold"]
# the role codes of a NestedPlan; a tuning cougher's code is its inner fold
TEST, CALIB = -1, -2
ROLES = (ROLE_CALIB, ROLE_TEST, ROLE_TUNING)  # code c's is ROLES[clip(c, CALIB, 0) - CALIB]

# Fixed tags for deriving independent per-purpose RNG streams from one master seed.
_STREAM_OUTER, _STREAM_CALIB, _STREAM_INNER, _STREAM_MODEL = 0, 1, 2, 3


class LeakageError(RuntimeError):
    """A cougher appeared on both sides of a train/evaluation boundary."""


def derive_seed(master_seed: int, *path: int) -> int:
    """Deterministic child seed for (master, path...) — stable across platforms."""
    ss = np.random.SeedSequence([int(master_seed)] + [int(p) for p in path])
    return int(ss.generate_state(1)[0])


def stratified_group_kfold(labels, recording_counts, k: int, seed: int) -> np.ndarray:
    """Greedy stratified assignment of coughers, given by their 0/1 ``labels`` and
    ``recording_counts``, to k folds: each cougher's fold index, in input order.

    Coughers are shuffled with the seed, then visited in descending
    recording count; each goes to the fold with the fewest coughers of its
    class, ties broken by fewest total recordings, then lowest fold index.
    """
    labels = [int(v) for v in labels]
    counts = list(recording_counts)
    if len(counts) != len(labels):
        raise ValueError("labels and recording_counts lengths differ")
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(labels) < k:
        raise ValueError(f"cannot split {len(labels)} coughers into {k} folds")
    for cls in (0, 1):
        n_cls = sum(1 for v in labels if v == cls)
        if n_cls < k:
            raise ValueError(f"class {cls} has only {n_cls} coughers for k={k}")

    order = np.random.default_rng(seed).permutation(len(labels))
    order = sorted(order, key=lambda i: -counts[i])  # stable: shuffle breaks ties

    fold_class = [[0, 0] for _ in range(k)]
    fold_recs = [0] * k
    folds = np.empty(len(labels), dtype=int)
    for i in order:
        y = labels[i]
        best = min(range(k), key=lambda f: (fold_class[f][y], fold_recs[f], f))
        folds[i] = best
        fold_class[best][y] += 1
        fold_recs[best] += counts[i]
    return folds


def carve_calibration(labels, frac: float, seed: int) -> tuple:
    """Stratified carve-out of round(frac * n) calibration coughers from n coughers
    with 0/1 ``labels``.

    Per-class counts are apportioned by largest remainder. Both the carved
    subset and the remainder must keep at least one cougher of each class.
    Returns (calib, tuning), the sorted positions of each part.
    """
    if not 0.0 < frac <= 0.5:
        raise ValueError("calibration fraction must lie in (0, 0.5]")
    labels = np.asarray(labels, dtype=int)
    n = len(labels)
    total = int(np.floor(frac * n + 0.5))
    by_class = {c: np.flatnonzero(labels == c) for c in (0, 1)}
    quota = {c: total * len(by_class[c]) / n for c in (0, 1)}
    take = {c: int(np.floor(quota[c])) for c in (0, 1)}
    leftover = total - take[0] - take[1]
    # largest remainder, but a class must never end up empty while budget remains
    order = sorted((0, 1), key=lambda c: (take[c] > 0, take[c] - quota[c], c))
    for c in order:
        if leftover <= 0:
            break
        take[c] += 1
        leftover -= 1
    for c in (0, 1):
        if take[c] == 0 and take[1 - c] >= 2:
            take[c] += 1
            take[1 - c] -= 1
    for c in (0, 1):
        if take[c] < 1 or take[c] >= len(by_class[c]):
            raise ValueError(f"frac={frac} would leave class {c} absent from "
                             "the calibration or tuning part")
    rng = np.random.default_rng(seed)
    calib = np.sort(np.concatenate([by_class[c][rng.permutation(len(by_class[c]))[: take[c]]]
                                    for c in (0, 1)]))
    return calib, np.setdiff1d(np.arange(n), calib)


@dataclass(frozen=True)
class NestedPlan:
    """The nested plan: ``ids``, the coughers sorted by id, and ``codes``, a
    ``(k_outer, len(ids))`` integer array of each cougher's role code in each outer
    fold: ``TEST``, ``CALIB`` or, in the tuning role, its inner fold."""

    ids: np.ndarray
    codes: np.ndarray

    def rows(self) -> list:
        """(cougher_id, outer_fold, role, inner_fold) tuples in cougher-id, then fold
        order, which is the order of fold_plan.csv."""
        k_outer, n = self.codes.shape
        codes = self.codes.T.ravel()
        roles = np.array(ROLES)[np.clip(codes, CALIB, 0) - CALIB]
        return list(zip(np.repeat(self.ids, k_outer).tolist(),
                        np.tile(np.arange(k_outer), n).tolist(), roles.tolist(),
                        np.maximum(codes, -1).tolist()))


def build_nested_plan(cougher_ids, labels, recording_counts, k_outer: int,
                      k_inner: int, calib_frac: float, master_seed: int) -> NestedPlan:
    """The nested plan of the coughers, taken in id order.

    Outer fold ``f`` of ``stratified_group_kfold`` is the test role of outer fold
    ``f``; ``carve_calibration`` takes the calibration role from the rest, and the
    remaining tuning coughers are split again into ``k_inner`` inner folds.
    """
    order = np.argsort(np.asarray(cougher_ids), kind="stable")
    ids = np.asarray(cougher_ids)[order]
    labels = np.asarray(labels, dtype=int)[order]
    counts = np.asarray(recording_counts)[order]
    outer = stratified_group_kfold(labels, counts, k_outer,
                                   derive_seed(master_seed, _STREAM_OUTER))
    codes = np.full((k_outer, ids.size), TEST)
    for f in range(k_outer):
        pool = np.flatnonzero(outer != f)
        calib, tuning = (pool[part] for part in carve_calibration(
            labels[pool], calib_frac, derive_seed(master_seed, _STREAM_CALIB, f)))
        codes[f, calib] = CALIB
        codes[f, tuning] = stratified_group_kfold(labels[tuning], counts[tuning], k_inner,
                                                  derive_seed(master_seed, _STREAM_INNER, f))
    return NestedPlan(ids, codes)


def model_seed(master_seed: int, fold: int, stage: int) -> int:
    """Seed for model fitting inside a fold; parallel execution stays reproducible."""
    return derive_seed(master_seed, _STREAM_MODEL, fold, stage)


def plan_csv_text(plan: NestedPlan) -> str:
    """fold_plan.csv's text: the header, then ``plan.rows()``, with csv.writer's
    default ``\\r\\n`` line ends."""
    buf = io.StringIO()
    csv.writer(buf).writerows([PLAN_COLUMNS, *plan.rows()])
    return buf.getvalue()


def audit_plan(plan: NestedPlan) -> list:
    """The plan's protocol violations: every cougher must be in the test role of exactly
    one outer fold, and every outer fold hold a calibration cougher and, as its other
    codes, exactly the inner folds ``0..k_inner-1``, with ``k_inner`` (the largest code
    + 1) at least 2."""
    codes = plan.codes
    n_test = np.count_nonzero(codes == TEST, axis=0)
    violations = [f"cougher {plan.ids[i]} is in the test role of {n_test[i]} outer folds "
                  "(expected exactly 1)" for i in np.flatnonzero(n_test != 1)]
    violations += [f"outer fold {f} has no calibration cougher"
                   for f in np.flatnonzero(~np.any(codes == CALIB, axis=1))]
    k_inner = int(codes.max(initial=-1)) + 1
    for f, row in enumerate(codes):
        inner = np.unique(row[(row != TEST) & (row != CALIB)])  # sorted and distinct
        if k_inner < 2 or inner.size != k_inner or inner[0] != 0:
            violations.append(f"the tuning codes of outer fold {f} are not the inner folds "
                              f"0..{max(k_inner, 2) - 1}")
    return violations


def single_class_sets(codes, labels) -> list:
    """The sets of a plan that lack a class, given its role ``codes``, which pass
    ``audit_plan``, and its coughers' 0/1 ``labels``: per outer fold, the test set, the
    calibration set and each inner fold (so each inner-train set holds both classes)."""
    names = {TEST: "test set", CALIB: "calibration set"}
    found = []
    for f, row in enumerate(codes):
        # per code, from CALIB up: the set's size and its positives
        sizes = np.bincount(row - CALIB)
        positives = np.bincount(row - CALIB, weights=labels)
        for c in np.flatnonzero((positives == 0) | (positives == sizes)) + CALIB:
            found.append(f"outer fold {f}: the {names.get(c, f'inner fold {c}')} lacks a class")
    return found


def audit_plan_rows(rows) -> list:
    """The violations of fold_plan.csv rows, (cougher_id, outer_fold, role, inner_fold)
    tuples. The rows are rebuilt into a ``NestedPlan``: the outer folds must be numbered
    from 0, and each (outer fold, cougher) cell given by one row, of a known role, with
    inner fold -1 unless the role is tuning. The rebuilt plan must pass ``audit_plan``."""
    ids = sorted({cid for cid, _, _, _ in rows})  # a numpy string array drops trailing NULs
    folds = sorted({fold for _, fold, _, _ in rows})
    # fold numbers and the cell count are checked before any array is sized by them
    if folds != list(range(len(folds))):
        return [f"the {len(folds)} outer folds are numbered {folds[0]}..{folds[-1]}, not from 0"]
    if len(folds) * len(ids) > len(rows):
        return [f"some (outer fold, cougher) cell is never given in the {len(rows)} rows"]
    pos = {cid: i for i, cid in enumerate(ids)}
    codes = np.full((len(folds), len(ids)), CALIB - 1)  # CALIB - 1: not given
    violations = []
    for cid, fold, role, inner in rows:
        if role not in ROLES:
            violations.append(f"unknown role {role!r} for cougher {cid}")
        elif inner < -1 or (inner >= 0) != (role == ROLE_TUNING):
            violations.append(f"{role} cougher {cid} in outer fold {fold} has inner fold {inner}")
        elif codes[fold, pos[cid]] >= CALIB:
            violations.append(f"cougher {cid} appears twice in outer fold {fold}")
        else:
            # an inner fold past the row count leaves a gap however large; capped, it fits
            codes[fold, pos[cid]] = (min(inner, len(rows)) if role == ROLE_TUNING
                                     else ROLES.index(role) + CALIB)
    # with no violation, the rows give distinct cells, at least as many as there are
    return violations or audit_plan(NestedPlan(np.array(ids, dtype=object), codes))


def load_plan_csv(path) -> list:
    """The (cougher_id, outer_fold, role, inner_fold) rows of a plan CSV; a fold cell
    that is not an integer, or no data rows, raises ``ManifestError`` naming the file."""
    rows = []
    for line_no, row in read_csv_rows(path, PLAN_COLUMNS, "plan file"):
        try:
            rows.append((row["cougher_id"], int(row["outer_fold"]), row["role"],
                         int(row["inner_fold"])))
        except ValueError as exc:
            raise ManifestError(f"plan file {path} line {line_no}: {exc}") from exc
    if not rows:
        raise ManifestError(f"plan file {path} has no data rows")
    return rows
