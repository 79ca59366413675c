"""Cougher-disjoint stratified grouped splits and the nested fold plan.

Every partition here operates on coughers, never on recordings: all
recordings of a participant travel together, so no identity signal can
leak across a boundary. The nested plan is, per outer fold:

    test (held-out outer fold)
    calib (disjoint calibration subset carved from the training pool)
    tuning (remaining coughers), partitioned again into inner folds

The three roles are pairwise disjoint and cover the cohort; violations
raise ``LeakageError``. Plans export to CSV so the disjointness can be
re-verified bit-exactly by external tools.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import ManifestError, read_csv_rows

ROLE_TEST = "test"
ROLE_CALIB = "calib"
ROLE_TUNING = "tuning"
PLAN_COLUMNS = ["cougher_id", "outer_fold", "role", "inner_fold"]

# Fixed tags for deriving independent per-purpose RNG streams from one master seed.
_STREAM_OUTER, _STREAM_CALIB, _STREAM_INNER, _STREAM_MODEL = 0, 1, 2, 3


class LeakageError(RuntimeError):
    """A cougher appeared on both sides of a train/evaluation boundary."""


def derive_seed(master_seed: int, *path: int) -> int:
    """Deterministic child seed for (master, path...) — stable across platforms."""
    ss = np.random.SeedSequence([int(master_seed)] + [int(p) for p in path])
    return int(ss.generate_state(1)[0])


@dataclass
class GroupedFoldPlan:
    k: int
    assignment: dict  # cougher_id -> fold index

    def fold_members(self, fold: int) -> list:
        return sorted(cid for cid, f in self.assignment.items() if f == fold)

    def positive_rates(self, labels: dict) -> list:
        """Per-fold positive-cougher rate (soft balance diagnostic)."""
        rates = []
        for f in range(self.k):
            members = self.fold_members(f)
            rates.append(sum(labels[c] for c in members) / len(members))
        return rates


def stratified_group_kfold(cougher_ids, labels, k: int, seed: int,
                           recording_counts=None) -> GroupedFoldPlan:
    """Greedy stratified assignment of coughers to k folds.

    Coughers are shuffled with the seed, then visited in descending
    recording count; each goes to the fold with the fewest coughers of its
    class, ties broken by fewest total recordings, then lowest fold index.
    """
    ids = list(cougher_ids)
    labels = [int(v) for v in labels]
    if len(ids) != len(labels):
        raise ValueError("cougher_ids and labels lengths differ")
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(ids) < k:
        raise ValueError(f"cannot split {len(ids)} coughers into {k} folds")
    counts = list(recording_counts) if recording_counts is not None else [1] * len(ids)
    for cls in (0, 1):
        n_cls = sum(1 for v in labels if v == cls)
        if n_cls < k:
            raise ValueError(f"class {cls} has only {n_cls} coughers for k={k}")

    order = np.random.default_rng(seed).permutation(len(ids))
    order = sorted(order, key=lambda i: -counts[i])  # stable: shuffle breaks ties

    fold_class = [[0, 0] for _ in range(k)]
    fold_recs = [0] * k
    assignment = {}
    for i in order:
        y = labels[i]
        best = min(range(k), key=lambda f: (fold_class[f][y], fold_recs[f], f))
        assignment[ids[i]] = best
        fold_class[best][y] += 1
        fold_recs[best] += counts[i]
    return GroupedFoldPlan(k=k, assignment=assignment)


def carve_calibration(cougher_ids, labels, frac: float, seed: int):
    """Stratified cougher-level carve-out of round(frac * n) calibration coughers.

    Per-class counts are apportioned by largest remainder. Both the carved
    subset and the remainder must keep at least one cougher of each class.
    Returns (calib_ids, tuning_ids), each sorted.
    """
    if not 0.0 < frac <= 0.5:
        raise ValueError("calibration fraction must lie in (0, 0.5]")
    ids = list(cougher_ids)
    labels = [int(v) for v in labels]
    n = len(ids)
    total = int(np.floor(frac * n + 0.5))
    by_class = {0: [i for i, v in enumerate(labels) if v == 0],
                1: [i for i, v in enumerate(labels) if v == 1]}
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
    calib_idx = []
    for c in (0, 1):
        perm = rng.permutation(len(by_class[c]))
        calib_idx.extend(by_class[c][j] for j in perm[: take[c]])
    calib = set(calib_idx)
    return (sorted(ids[i] for i in calib),
            sorted(ids[i] for i in range(n) if i not in calib))


@dataclass
class OuterFoldPlan:
    fold: int
    test: list
    calib: list
    tuning: list
    inner: GroupedFoldPlan


@dataclass
class NestedPlan:
    outer: GroupedFoldPlan
    folds: list = field(default_factory=list)

    def rows(self) -> list:
        """Flatten to (cougher_id, outer_fold, role, inner_fold) tuples."""
        out = []
        for fp in self.folds:
            for cid in fp.test:
                out.append((cid, fp.fold, ROLE_TEST, -1))
            for cid in fp.calib:
                out.append((cid, fp.fold, ROLE_CALIB, -1))
            for cid in fp.tuning:
                out.append((cid, fp.fold, ROLE_TUNING, fp.inner.assignment[cid]))
        return out


def assert_cougher_disjoint(**named_sets) -> None:
    """Raise LeakageError if any cougher appears in two of the named sets."""
    names = list(named_sets)
    sets = {name: set(named_sets[name]) for name in names}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            overlap = sets[a] & sets[b]
            if overlap:
                raise LeakageError(f"cougher(s) {sorted(overlap)[:5]} appear in "
                                   f"both {a!r} and {b!r}")


def build_nested_plan(cougher_ids, labels, recording_counts, k_outer: int,
                      k_inner: int, calib_frac: float, master_seed: int) -> NestedPlan:
    """Construct and audit the full nested split plan."""
    ids = list(cougher_ids)
    label_of = dict(zip(ids, (int(v) for v in labels)))
    count_of = dict(zip(ids, recording_counts))
    outer = stratified_group_kfold(ids, [label_of[c] for c in ids], k_outer,
                                   derive_seed(master_seed, _STREAM_OUTER),
                                   recording_counts=[count_of[c] for c in ids])
    plan = NestedPlan(outer=outer)
    universe = set(ids)
    for f in range(k_outer):
        test = outer.fold_members(f)
        pool = sorted(universe - set(test))
        calib, tuning = carve_calibration(pool, [label_of[c] for c in pool],
                                          calib_frac,
                                          derive_seed(master_seed, _STREAM_CALIB, f))
        inner = stratified_group_kfold(tuning, [label_of[c] for c in tuning],
                                       k_inner,
                                       derive_seed(master_seed, _STREAM_INNER, f),
                                       recording_counts=[count_of[c] for c in tuning])
        assert_cougher_disjoint(test=test, calib=calib, tuning=tuning)
        if set(test) | set(calib) | set(tuning) != universe:
            raise LeakageError(f"outer fold {f}: roles do not cover the cohort")
        plan.folds.append(OuterFoldPlan(f, test, calib, tuning, inner))
    return plan


def model_seed(master_seed: int, fold: int, stage: int) -> int:
    """Seed for model fitting inside a fold; parallel execution stays reproducible."""
    return derive_seed(master_seed, _STREAM_MODEL, fold, stage)


def export_plan_csv(plan: NestedPlan, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PLAN_COLUMNS)
        for row in sorted(plan.rows()):
            writer.writerow(row)


def audit_plan_rows(rows) -> list:
    """Check exported plan rows for disjointness; returns a list of violations.

    Expects (cougher_id, outer_fold, role, inner_fold) tuples. An empty
    return value means the plan is cougher-disjoint at every boundary.
    """
    violations = []
    by_fold: dict = {}
    test_folds: dict = {}
    for cid, fold, role, inner in rows:
        if role not in (ROLE_TEST, ROLE_CALIB, ROLE_TUNING):
            violations.append(f"unknown role {role!r} for cougher {cid}")
            continue
        key = (int(fold), cid)
        if key in by_fold:
            violations.append(f"cougher {cid} appears twice in outer fold {fold} "
                              f"(roles {by_fold[key]!r} and {role!r})")
        by_fold[key] = role
        if role == ROLE_TUNING and int(inner) < 0:
            violations.append(f"tuning cougher {cid} in outer fold {fold} has no inner fold")
        if role != ROLE_TUNING and int(inner) >= 0:
            violations.append(f"{role} cougher {cid} in outer fold {fold} carries an inner fold")
        if role == ROLE_TEST:
            test_folds.setdefault(cid, []).append(int(fold))
    folds = sorted({f for f, _ in by_fold})
    universes = {f: {cid for ff, cid in by_fold if ff == f} for f in folds}
    if folds:
        reference = universes[folds[0]]
        for f in folds[1:]:
            if universes[f] != reference:
                violations.append(f"outer fold {f} covers a different cougher set "
                                  f"than fold {folds[0]}")
        for cid in reference:
            n_test = len(test_folds.get(cid, []))
            if n_test != 1:
                violations.append(f"cougher {cid} is in the test role of {n_test} "
                                  "outer folds (expected exactly 1)")
    return violations


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
