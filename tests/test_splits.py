import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coughscreen import splits


def random_cohort(rng, n_min=24, n_max=80):
    n = int(rng.integers(n_min, n_max))
    ids = [f"c{i:03d}" for i in range(n)]
    # keep every class large enough for a 10-fold outer split
    labels = np.zeros(n, dtype=int)
    n_pos = int(rng.integers(10, max(11, n // 2)))
    labels[rng.choice(n, size=n_pos, replace=False)] = 1
    counts = rng.integers(1, 12, size=n).tolist()
    return ids, labels.tolist(), counts


class TestStratifiedGroupKfold:
    def test_ten_coughers_two_folds(self):
        ids = [f"c{i}" for i in range(10)]
        labels = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        folds = splits.stratified_group_kfold(ids, labels, k=2, seed=0)
        for f in (0, 1):
            members = np.flatnonzero(folds == f)
            assert len(members) == 5
            pos = sum(labels[i] for i in members)
            assert pos in (2, 3)

    def test_every_cougher_in_exactly_one_fold(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            ids, labels, counts = random_cohort(rng)
            k = int(rng.integers(2, 6))
            folds = splits.stratified_group_kfold(ids, labels, k, seed=trial,
                                                  recording_counts=counts)
            assert folds.shape == (len(ids),)
            assert np.unique(folds).tolist() == list(range(k))

    def test_determinism_and_seed_sensitivity(self):
        ids = [f"c{i}" for i in range(40)]
        labels = ([1] * 12 + [0] * 28)
        a = splits.stratified_group_kfold(ids, labels, 5, seed=7)
        b = splits.stratified_group_kfold(ids, labels, 5, seed=7)
        c = splits.stratified_group_kfold(ids, labels, 5, seed=8)
        assert a.tolist() == b.tolist()
        assert a.tolist() != c.tolist()

    def test_positive_rate_balance(self):
        rng = np.random.default_rng(1)
        ids, labels, counts = random_cohort(rng, 60, 61)
        folds = splits.stratified_group_kfold(ids, labels, 5, seed=0,
                                              recording_counts=counts)
        rates = [np.mean(np.asarray(labels)[folds == f]) for f in range(5)]
        global_rate = np.mean(labels)
        assert max(abs(r - global_rate) for r in rates) <= 0.1

    def test_too_few_coughers_rejected(self):
        with pytest.raises(ValueError):
            splits.stratified_group_kfold(["a", "b"], [0, 1], k=3, seed=0)

    def test_class_thinner_than_folds_rejected(self):
        ids = [f"c{i}" for i in range(20)]
        labels = [1] * 2 + [0] * 18
        with pytest.raises(ValueError):
            splits.stratified_group_kfold(ids, labels, k=5, seed=0)


class TestCarveCalibration:
    def test_stratified_counting(self):
        # apportionment oracle: 15 total, 27/100 positive -> 4 positive
        ids = [f"c{i}" for i in range(100)]
        labels = [1] * 27 + [0] * 73
        calib, tuning = splits.carve_calibration(ids, labels, frac=0.15, seed=0)
        assert len(calib) == 15
        label_of = dict(zip(ids, labels))
        assert sum(label_of[c] for c in calib) == 4
        assert len(tuning) == 85

    def test_tiny_fraction_rejected(self):
        ids = [f"c{i}" for i in range(100)]
        labels = [1] * 3 + [0] * 97
        with pytest.raises(ValueError):
            splits.carve_calibration(ids, labels, frac=0.01, seed=0)

    def test_disjoint_and_covering(self):
        rng = np.random.default_rng(2)
        for trial in range(200):
            ids, labels, _ = random_cohort(rng)
            calib, tuning = splits.carve_calibration(ids, labels, frac=0.2, seed=trial)
            assert not set(calib) & set(tuning)
            assert set(calib) | set(tuning) == set(ids)

    def test_both_parts_keep_both_classes(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            ids, labels, _ = random_cohort(rng)
            calib, tuning = splits.carve_calibration(ids, labels, frac=0.15, seed=trial)
            label_of = dict(zip(ids, labels))
            for part in (calib, tuning):
                part_labels = {label_of[c] for c in part}
                assert part_labels == {0, 1}


class TestNestedPlan:
    def build(self, seed=0, n=60):
        rng = np.random.default_rng(seed)
        ids = [f"c{i:03d}" for i in range(n)]
        labels = ([1] * (n // 3) + [0] * (n - n // 3))
        rng.shuffle(labels)
        counts = rng.integers(3, 9, size=n).tolist()
        return ids, labels, counts, splits.build_nested_plan(
            ids, labels, counts, k_outer=10, k_inner=5, calib_frac=0.15,
            master_seed=seed)

    def test_roles_partition_cohort(self):
        ids, labels, counts, plan = self.build()
        # one code per cougher and fold: the roles are disjoint, and they cover the
        # cohort when every code is a role's
        assert plan.ids.tolist() == ids
        assert plan.codes.shape == (10, len(ids))
        assert set(plan.codes.ravel().tolist()) == {splits.TEST, splits.CALIB, *range(5)}

    def test_inner_folds_partition_tuning(self):
        _, _, _, plan = self.build(1)
        for codes in plan.codes:
            assert np.unique(codes[codes >= 0]).tolist() == list(range(5))

    def test_export_audit_clean(self, tmp_path):
        _, _, _, plan = self.build(2)
        path = tmp_path / "plan.csv"
        path.write_text(splits.plan_csv_text(plan), encoding="utf-8", newline="")
        rows = splits.load_plan_csv(path)
        assert splits.audit_plan_rows(rows) == []

    def test_audit_catches_duplicated_cougher(self, tmp_path):
        _, _, _, plan = self.build(3)
        rows = plan.rows()
        # corrupt: place one test cougher in the tuning role of the same fold
        cid, fold, _, _ = next(r for r in rows if r[2] == "test")
        rows.append((cid, fold, "tuning", 0))
        violations = splits.audit_plan_rows(rows)
        assert any("twice" in v for v in violations)

    def test_audit_catches_double_test_assignment(self):
        _, _, _, plan = self.build(4)
        rows = [list(r) for r in plan.rows()]
        moved = next(r for r in rows if r[2] == "calib")
        moved[2] = "test"
        moved[3] = -1
        violations = splits.audit_plan_rows([tuple(r) for r in rows])
        assert any("test role" in v for v in violations)

    def test_single_class_sets_names_each_set_that_lacks_a_class(self):
        # coughers 6-11 are all TB-: fold 1's test set, and every other set of fold 0
        labels = [0, 1] * 3 + [0] * 6
        codes = np.array([[-1] * 6 + [-2, -2, 0, 0, 1, 1], [-2, -2, 0, 0, 1, 1] + [-1] * 6])
        assert splits.audit_plan(splits.NestedPlan(np.arange(12), codes)) == []
        assert splits.single_class_sets(codes, labels) == [
            f"outer fold {f}: the {name} lacks a class"
            for f, name in ((0, "calibration set"), (0, "inner fold 0"), (0, "inner fold 1"),
                            (1, "test set"))]

    def test_derive_seed_stable(self):
        assert splits.derive_seed(42, 1, 2) == splits.derive_seed(42, 1, 2)
        assert splits.derive_seed(42, 1, 2) != splits.derive_seed(42, 2, 1)


@st.composite
def cohorts(draw):
    """A cohort shape and plan settings: (ids, labels, counts, k_outer, k_inner,
    calib_frac, seed), with each class large enough for the fold counts."""
    k_outer, k_inner = draw(st.integers(2, 6)), draw(st.integers(2, 5))
    calib_frac = draw(st.floats(0.1, 0.5))
    # per class: every inner fold gets coughers, and the carve-out takes at least two
    least = max(3 * k_outer * k_inner, math.ceil(2 / calib_frac))
    n_pos, n_neg = draw(st.integers(least, least + 40)), draw(st.integers(least, least + 40))
    labels = draw(st.permutations([1] * n_pos + [0] * n_neg))
    counts = draw(st.lists(st.integers(1, 12), min_size=len(labels), max_size=len(labels)))
    ids = [f"c{i:03d}" for i in range(len(labels))]
    return ids, labels, counts, k_outer, k_inner, calib_frac, draw(st.integers(0, 2 ** 32 - 1))


class TestPlanInvariants:
    """The nested plan's protocol invariants over random cohort shapes."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(cohorts(), st.randoms(use_true_random=False))
    def test_protocol_invariants(self, cohort, shuffler):
        ids, labels, counts, k_outer, k_inner, calib_frac, seed = cohort
        plan = splits.build_nested_plan(ids, labels, counts, k_outer, k_inner, calib_frac, seed)
        codes, y = plan.codes, np.asarray(labels)
        # every cougher is in the test role of exactly one outer fold
        assert (codes == splits.TEST).sum(axis=0).tolist() == [1] * len(ids)
        test_fold = np.argmax(codes == splits.TEST, axis=0)
        # the greedy splits' class counts differ by at most 1 across folds, outer and inner
        splits_of = [(test_fold, np.ones(len(ids), dtype=bool), k_outer)]
        splits_of += [(row, row >= 0, k_inner) for row in codes]
        for fold, members, k in splits_of:
            for cls in (0, 1):
                sizes = np.bincount(fold[members & (y == cls)], minlength=k)
                assert sizes.max() - sizes.min() <= 1
        # the inner folds partition each tuning pool into k_inner non-empty folds
        for row in codes:
            assert np.unique(row[row >= 0]).tolist() == list(range(k_inner))
        assert splits.audit_plan_rows(plan.rows()) == []
        assert splits.audit_plan(plan) == []
        # every test set, calibration set and inner fold holds both classes
        assert splits.single_class_sets(codes, labels) == []
        # shuffling the input order gives the same codes
        order = list(range(len(ids)))
        shuffler.shuffle(order)
        shuffled = splits.build_nested_plan([ids[i] for i in order], [labels[i] for i in order],
                                            [counts[i] for i in order], k_outer, k_inner,
                                            calib_frac, seed)
        assert shuffled.ids.tolist() == ids
        assert np.array_equal(shuffled.codes, codes)
