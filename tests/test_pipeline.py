import dataclasses
import logging
import os
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from coughscreen import calibration, data, features, models, pipeline, synth
from coughscreen.data import ManifestError
from coughscreen.splits import (CALIB, TEST, LeakageError, NestedPlan, audit_plan,
                                build_nested_plan)

LR_GRID = ({"C": 0.05, "class_weight": "balanced"},
           {"C": 0.01, "class_weight": None})


def small_dataset(seed=0, n=60, s_audio=1.0, s_clinical=1.0):
    cfg = synth.SyntheticConfig(n_coughers=n, prevalence=0.3, coughs_mean=5,
                                coughs_std=2, coughs_min=3, coughs_max=8,
                                signal_strength_audio=s_audio,
                                signal_strength_clinical=s_clinical, seed=seed)
    return synth.generate_synthetic(cfg)


@pytest.fixture(scope="module")
def table():
    return pipeline.build_feature_table(small_dataset())


@pytest.fixture(scope="module")
def results_and_plan(table):
    cfg = pipeline.RunConfig(seed=42, grid=LR_GRID)
    return pipeline.run_nested(table, "LR", "fused", cfg)


class TestRunNested:
    def test_ten_fold_results(self, results_and_plan):
        results, _ = results_and_plan
        assert len(results) == 10
        assert [r.fold for r in results] == list(range(10))

    def test_fold_sizes(self, results_and_plan, table):
        results, _ = results_and_plan
        sizes = [r.n_test_coughers for r in results]
        assert sum(sizes) == len(table.coughers()[0])
        assert max(sizes) - min(sizes) <= 2

    def test_every_test_cougher_scored_exactly_once(self, results_and_plan, table):
        results, _ = results_and_plan
        seen = [c for r in results for c in r.test_cg_ids]
        assert sorted(seen) == table.coughers()[0]

    def test_probabilities_in_unit_interval(self, results_and_plan):
        results, _ = results_and_plan
        for r in results:
            for arr in (r.test_wf_raw, r.test_wf_cal, r.test_cg_raw, r.test_cg_cal,
                        r.oof_probs):
                assert np.all((arr >= 0) & (arr <= 1))

    def test_scaler_audit_within_tuning(self, results_and_plan):
        results, _ = results_and_plan
        for r in results:
            assert r.audit["scaler_fit_within_tuning"]
            assert r.audit["boundaries_disjoint"]

    def test_best_params_from_grid(self, results_and_plan):
        results, _ = results_and_plan
        for r in results:
            assert r.best_params in [dict(c) for c in LR_GRID]

    def test_thresholds_in_unit_interval(self, results_and_plan):
        results, _ = results_and_plan
        for r in results:
            assert 0.0 <= r.tau_w <= 1.0
            assert 0.0 <= r.tau_s <= 1.0

    def test_conformal_reported_per_alpha(self, results_and_plan):
        results, _ = results_and_plan
        for r in results:
            assert set(r.conformal) == {0.10, 0.05}
            for a, block in r.conformal.items():
                assert 0.0 <= block["coverage"] <= 1.0
                assert 0.0 <= block["mean_size"] <= 2.0

    def test_coughers_derived_from_rows(self, table):
        cohort = sorted(small_dataset(), key=lambda c: c.id)
        assert table.coughers() == ([c.id for c in cohort], [c.tb_label for c in cohort],
                                    [len(c.recordings) for c in cohort])

    @pytest.mark.parametrize("drop, add", [(15, 0), (0, 6)])
    def test_plan_must_cover_exactly_the_tables_coughers(self, table, monkeypatch, drop, add):
        def fail(*args):
            pytest.fail("an inner fold was scored")

        monkeypatch.setattr(pipeline, "score_inner_fold", fail)
        ids, labels, counts = table.coughers()
        keep = len(ids) - drop
        plan = build_nested_plan(ids[:keep] + [f"zz{i}" for i in range(add)],
                                 labels[:keep] + [i % 2 for i in range(add)],
                                 counts[:keep] + [1] * add,
                                 k_outer=4, k_inner=2, calib_frac=0.2, master_seed=3)
        cfg = pipeline.RunConfig(seed=3, grid=LR_GRID[:1], k_outer=4, k_inner=2, calib_frac=0.2)
        with pytest.raises(ManifestError, match=f"{drop} of the table's are not in the plan, "
                                                f"{add} of the plan's are not in the table"):
            pipeline.run_nested(table, "LR", "audio", cfg, plan=plan)

    def test_plan_that_fails_the_audit_is_refused_before_any_fit(self, table, monkeypatch):
        def fail(*args):
            pytest.fail("the run went past the plan audit")

        monkeypatch.setattr(pipeline, "score_inner_fold", fail)
        monkeypatch.setattr(pipeline, "pin_blas_threads", fail)
        plan = build_nested_plan(*table.coughers(), k_outer=4, k_inner=2, calib_frac=0.2,
                                 master_seed=3)
        codes = plan.codes.copy()
        cougher = int(np.flatnonzero(codes[0] == TEST)[0])
        codes[1, cougher] = TEST  # a test cougher of fold 0 is also one of fold 1
        cfg = pipeline.RunConfig(seed=3, grid=LR_GRID[:1], k_outer=4, k_inner=2, calib_frac=0.2)
        with pytest.raises(LeakageError, match=f"cougher {plan.ids[cougher]} is in the test "
                                               "role of 2 outer folds"):
            pipeline.run_nested(table, "LR", "audio", cfg, plan=NestedPlan(plan.ids, codes))
        # fold 0's tuning coughers all in inner fold 0, an inner-fold gap, no calib cougher
        for mutate in (lambda row: np.minimum(row, 0), lambda row: row + (row > 0),
                       lambda row: np.where(row == CALIB, 0, row)):
            codes = plan.codes.copy()
            codes[0] = mutate(codes[0])
            with pytest.raises(LeakageError, match="outer fold 0"):
                pipeline.run_nested(table, "LR", "audio", cfg, plan=NestedPlan(plan.ids, codes))

    def test_plan_with_a_one_class_set_is_refused_before_any_fit(self, monkeypatch):
        def fail(*args):
            pytest.fail("the run went past the class check")

        monkeypatch.setattr(pipeline, "score_inner_fold", fail)
        monkeypatch.setattr(pipeline, "pin_blas_threads", fail)
        table = pipeline.build_feature_table(small_dataset(n=40))
        ids, labels, counts = table.coughers()
        plan = build_nested_plan(ids, labels, counts, k_outer=4, k_inner=2, calib_frac=0.2,
                                 master_seed=3)
        codes, y = plan.codes.copy(), np.asarray(labels)
        # fold 0's TB+ calibration coughers trade roles with as many TB- tuning coughers
        calib_pos = np.flatnonzero((codes[0] == CALIB) & (y == 1))
        tuning_neg = np.flatnonzero((codes[0] >= 0) & (y == 0))[:calib_pos.size]
        codes[0, calib_pos], codes[0, tuning_neg] = codes[0, tuning_neg], CALIB
        one_class = NestedPlan(plan.ids, codes)
        assert audit_plan(one_class) == []
        cfg = pipeline.RunConfig(seed=3, grid=LR_GRID[:1], k_outer=4, k_inner=2, calib_frac=0.2)
        with pytest.raises(ManifestError, match="outer fold 0: the calibration set lacks a class"):
            pipeline.run_nested(table, "LR", "audio", cfg, plan=one_class)

    def test_unknown_family_rejected(self, table):
        with pytest.raises(ValueError):
            pipeline.run_nested(table, "SVM", "audio", pipeline.RunConfig())

    def test_unknown_mode_rejected(self, table):
        with pytest.raises(ValueError):
            pipeline.run_nested(table, "LR", "spectro", pipeline.RunConfig())


class TestFeatureTable:
    def test_rows_hold_their_recording_and_cougher_when_built_out_of_order(self):
        # coughers and each one's recordings arrive in reverse id order
        coughers = [data.Cougher(c.id, c.tb_label, c.clinical, c.recordings[::-1])
                    for c in reversed(small_dataset(seed=3, n=8))]
        table = pipeline.build_feature_table(coughers)
        by_id = {rec.id: (c, rec) for c in coughers for rec in c.recordings}
        assert list(zip(table.cougher_ids.tolist(), table.recording_ids)) == sorted(
            (c.id, rec_id) for rec_id, (c, _) in by_id.items())
        for row, rec_id in enumerate(table.recording_ids):
            cougher, rec = by_id[rec_id]
            assert table.labels[row] == cougher.tb_label
            np.testing.assert_array_equal(table.features[row, features.VECTOR_LENGTH:],
                                          cougher.clinical.to_vector())
            np.testing.assert_array_equal(table.features[row, :features.VECTOR_LENGTH],
                                          features.extract(rec.audio()))

    @staticmethod
    def random_table(n_rows=10_103, n_coughers=1_105, seed=0):
        """A table of random rows, in no cougher order, of labels fixed per cougher."""
        rng = np.random.default_rng(seed)
        cougher = rng.integers(0, n_coughers, n_rows)
        return pipeline.FeatureTable(
            recording_ids=[f"r{i:05d}" for i in range(n_rows)],
            cougher_ids=np.array([f"c{c:04d}" for c in cougher]),
            labels=rng.integers(0, 2, n_coughers)[cougher],
            features=rng.standard_normal((n_rows, 277)))  # 261 audio + 16 clinical

    def test_one_fused_matrix_with_the_audio_block_as_its_view(self, table):
        assert [f.name for f in dataclasses.fields(table)] == [
            "recording_ids", "cougher_ids", "labels", "features"]
        assert not hasattr(table, "fused") and not hasattr(table, "clinical")
        assert np.shares_memory(table.audio, table.features)
        assert table.audio.shape == (len(table.recording_ids), features.VECTOR_LENGTH)
        fused = table.features[:, pipeline.FEATURE_COLUMNS["fused"]]
        assert np.shares_memory(fused, table.features) and fused.shape == table.features.shape

    def test_features_is_the_only_float_array_after_both_modes(self):
        table = self.random_table()
        table.audio
        table.coughers()
        held = [a for v in vars(table).values() for a in (v if isinstance(v, tuple) else (v,))]
        floats = [a for a in held if isinstance(a, np.ndarray) and a.dtype.kind == "f"]
        assert len(floats) == 1 and floats[0] is table.features
        assert table.features.nbytes == 10_103 * 277 * 8

    def test_cougher_facts_match_a_string_unique(self):
        table = self.random_table(n_rows=2_000, n_coughers=300, seed=1)
        ids, inverse, counts = np.unique(table.cougher_ids, return_inverse=True,
                                         return_counts=True)
        label_of = dict(zip(table.cougher_ids.tolist(), table.labels.tolist()))
        assert table.coughers() == (ids.tolist(), [label_of[c] for c in ids.tolist()],
                                    counts.tolist())
        np.testing.assert_array_equal(table.cougher_pos, inverse)


class TestDeterminism:
    def test_same_config_same_results(self, table):
        cfg = pipeline.RunConfig(seed=7, grid=LR_GRID[:1])
        a, _ = pipeline.run_nested(table, "LR", "audio", cfg)
        b, _ = pipeline.run_nested(table, "LR", "audio", cfg)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.test_wf_cal, rb.test_wf_cal)
            assert ra.tau_w == rb.tau_w
            assert ra.conformal == rb.conformal

    def test_jobs_do_not_change_numbers(self, table):
        # the GBDT grid has two fit groups: iterations 1 and 2 share one fit
        gbdt_grid = (gbdt_candidate(1), gbdt_candidate(2), gbdt_candidate(2, 0.1))
        for family, mode, cfg in (
                ("LR", "audio", pipeline.RunConfig(seed=7, grid=LR_GRID[:1])),
                ("GBDT", "fused", pipeline.RunConfig(seed=7, grid=gbdt_grid, k_outer=4,
                                                     k_inner=3))):
            serial = [r.to_dict() for r in pipeline.run_nested(table, family, mode, cfg)[0]]
            for jobs in (2, 3):
                results, _ = pipeline.run_nested(table, family, mode, cfg, jobs=jobs)
                assert [r.to_dict() for r in results] == serial, (family, jobs)

    def test_recording_order_invariance(self):
        coughers = small_dataset(seed=3, n=40)
        cfg = pipeline.RunConfig(seed=11, grid=LR_GRID[:1], k_outer=4, k_inner=3,
                                 calib_frac=0.2)
        fwd, _ = pipeline.run_nested(pipeline.build_feature_table(coughers),
                                     "LR", "fused", cfg)
        rev, _ = pipeline.run_nested(pipeline.build_feature_table(coughers[::-1]),
                                     "LR", "fused", cfg)
        for ra, rb in zip(fwd, rev):
            np.testing.assert_array_equal(ra.test_cg_cal, rb.test_cg_cal)
            assert ra.test_cg_ids == rb.test_cg_ids


class TestEvaluateFold:
    """``evaluate_fold`` scores an outer fold from probabilities, labels and ids alone."""

    def test_equals_run_folds_record(self, table):
        cfg = pipeline.RunConfig(seed=42, grid=LR_GRID)
        plan = build_nested_plan(*table.coughers(), k_outer=10, k_inner=5, calib_frac=0.15,
                                 master_seed=42)
        codes = plan.codes[3]
        inner = [pipeline.score_inner_fold(table, codes, 3, j, "LR", "fused", cfg)
                 for j in range(5)]
        want = pipeline.run_fold(table, codes, 3, "LR", "fused", cfg, inner)[0].to_dict()
        # the final fit by hand: a scaler and one LR fit on the tuning rows
        role = codes[table.cougher_pos]
        tuning = np.flatnonzero(role >= 0)
        scaler = data.fit_scaler(table.features[tuning])
        model = models.fit_lr(data.apply_scaler(scaler, table.features[tuning]),
                              table.labels[tuning], **want["best_params"])

        def role_rows(probs, rows):
            return (probs, table.labels[rows], [table.recording_ids[r] for r in rows],
                    table.cougher_ids[rows])

        def final(rows):
            return role_rows(models.predict_model(
                model, data.apply_scaler(scaler, table.features[rows])), rows)

        record = pipeline.evaluate_fold(role_rows(np.array(want["oof_probs"]), tuning),
                                        final(np.flatnonzero(role == CALIB)),
                                        final(np.flatnonzero(role == TEST)), cfg.alphas)
        got = pipeline.FoldResult(**record).to_dict()
        assert got == {key: want[key] for key in got}
        assert set(want) - set(got) == {"fold", "family", "feature_mode", "best_params",
                                         "best_inner_uar", "n_test_coughers",
                                         "n_calib_coughers", "n_tuning_coughers", "audit"}

    def test_cougher_level_groups_rows_by_id_in_any_order(self):
        rng = np.random.default_rng(4)

        def role_rows(prefix, coughers, labels):
            # each cougher's recordings interleaved with the others', in no id order
            cids = np.array([c for c in coughers for _ in range(3)])[rng.permutation(
                3 * len(coughers))]
            y = np.array([labels[coughers.index(c)] for c in cids])
            probs = np.clip(0.3 * y + 0.7 * rng.random(cids.size), 0.0, 1.0)
            return probs, y, [f"{prefix}{i}" for i in range(cids.size)], cids

        oof = role_rows("o", [f"t{i}" for i in range(12)], [0, 1] * 6)
        calib = role_rows("c", ["c2", "c0", "c3", "c1"], [1, 0, 1, 0])
        test = role_rows("x", ["x1", "x0", "x2"], [0, 1, 1])
        record = pipeline.evaluate_fold(oof, calib, test, (0.1, 0.05))
        iso = calibration.fit_isotonic(*oof[:2])
        cal = calibration.apply_isotonic(iso, test[0])
        assert record["test_recording_ids"] == test[2]
        np.testing.assert_array_equal(record["test_wf_cal"], cal)
        assert record["test_cg_ids"] == ["x0", "x1", "x2"]
        for i, c in enumerate(record["test_cg_ids"]):
            rows = test[3] == c
            assert record["test_cg_raw"][i] == pytest.approx(test[0][rows].mean(), abs=1e-15)
            assert record["test_cg_cal"][i] == pytest.approx(cal[rows].mean(), abs=1e-15)
            assert record["test_cg_labels"][i] == test[1][rows][0]
        calib_cal = calibration.apply_isotonic(iso, calib[0])
        calib_ids = sorted(set(calib[3]))
        tau_s, _ = calibration.youden_threshold(
            [calib_cal[calib[3] == c].mean() for c in calib_ids],
            [calib[1][calib[3] == c][0] for c in calib_ids])
        assert record["tau_s"] == pytest.approx(tau_s, abs=1e-15)
        assert record["oof_recording_ids"] == oof[2]


class TestNoTestDependence:
    @staticmethod
    def run(table, plan, cfg):
        inner = [pipeline.score_inner_fold(table, plan.codes[0], 0, j, "LR", "fused", cfg)
                 for j in range(5)]
        return inner, pipeline.run_fold(table, plan.codes[0], 0, "LR", "fused", cfg, inner)[0]

    def test_dropping_test_cougher_keeps_training_artifacts(self, table):
        cfg = pipeline.RunConfig(seed=5, grid=LR_GRID)
        plan = build_nested_plan(*table.coughers(), k_outer=10, k_inner=5, calib_frac=0.15,
                                 master_seed=5)
        # the first test cougher of outer fold 0 leaves both the table and the plan
        dropped = int(np.flatnonzero(plan.codes[0] == TEST)[0])
        keep = table.cougher_ids != plan.ids[dropped]
        reduced_table = pipeline.FeatureTable(
            recording_ids=[r for r, k in zip(table.recording_ids, keep) if k],
            cougher_ids=table.cougher_ids[keep], labels=table.labels[keep],
            features=table.features[keep])
        reduced_plan = NestedPlan(np.delete(plan.ids, dropped),
                                  np.delete(plan.codes, dropped, axis=1))
        (full_inner, full), (reduced_inner, reduced) = [
            self.run(t, p, cfg) for t, p in ((table, plan), (reduced_table, reduced_plan))]
        for got, want in zip(reduced_inner, full_inner):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
        assert full.best_params == reduced.best_params
        assert full.tau_w == reduced.tau_w
        assert full.tau_s == reduced.tau_s
        np.testing.assert_array_equal(full.oof_probs, reduced.oof_probs)
        for a in (0.10, 0.05):
            assert full.conformal[a]["qhat"] == reduced.conformal[a]["qhat"]


@pytest.fixture
def in_process_pool(monkeypatch):
    """Stands in for the process pool; returns the record of each pool's size and of
    every task's (function, arguments). Tasks run here, in order."""
    record = {"sizes": [], "tasks": []}

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            record["sizes"].append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass  # every task ran when it was queued

        def map(self, fn, *iterables):
            tasks = list(zip(*iterables))  # Executor.map submits every task at once
            record["tasks"] += [(fn, args) for args in tasks]
            return (fn(*args) for args in tasks)  # an iterator, as Executor.map returns

        def submit(self, fn, *args):
            record["tasks"].append((fn, args))
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(pipeline, "_worker_table", None)
    return record


def record_run_fold_pids(monkeypatch) -> list:
    """Patch ``pipeline.run_fold`` to append the calling process's pid to the returned
    list. A forked worker appends to its own copy, which this process never sees."""
    pids, run_fold = [], pipeline.run_fold

    def recording_run_fold(*args):
        pids.append(os.getpid())
        return run_fold(*args)

    monkeypatch.setattr(pipeline, "run_fold", recording_run_fold)
    return pids


class TestScheduling:
    CFG = pipeline.RunConfig(seed=3, grid=LR_GRID[:1], k_outer=4, k_inner=2, calib_frac=0.2)

    def test_pool_capped_at_unit_count(self, table, in_process_pool, caplog):
        with caplog.at_level(logging.INFO, logger="coughscreen.pipeline"):
            pooled, _ = pipeline.run_nested(table, "LR", "audio", self.CFG, jobs=10_000)
        workers = pipeline.worker_count(10_000, 8)  # 8 units, and no more than the CPUs
        assert in_process_pool["sizes"] == ([workers] if workers > 1 else [])
        assert [rec.getMessage() for rec in caplog.records if rec.levelno == logging.INFO] == [
            f"8 inner-fold units, 4 outer folds, {workers} workers"]
        serial, _ = pipeline.run_nested(table, "LR", "audio", self.CFG)
        assert [r.to_dict() for r in pooled] == [r.to_dict() for r in serial]

    def test_pool_scores_units_then_finishes_each_fold(self, table, monkeypatch,
                                                       in_process_pool):
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(64)),
                            raising=False)
        results, plan = pipeline.run_nested(table, "LR", "audio", self.CFG, jobs=10_000)
        assert in_process_pool["sizes"] == [8]  # one worker per unit
        tasks = in_process_pool["tasks"]
        # the 4 x 2 units, mapped at once, then one run_fold per outer fold, in fold order
        assert [fn for fn, _ in tasks] == ([pipeline._score_on_worker_table] * 8
                                           + [pipeline._finish_on_worker_table] * 4)
        assert [(codes.tolist(), f, j, rest) for _, ((codes, f, j, *rest),) in tasks[:8]] == [
            (plan.codes[f].tolist(), f, j, ["LR", "audio", self.CFG])
            for f in range(4) for j in range(2)]
        assert [(codes.tolist(), f, rest, len(inner))
                for _, (codes, f, *rest, inner) in tasks[8:]] == [
            (plan.codes[f].tolist(), f, ["LR", "audio", self.CFG], 2) for f in range(4)]
        assert [r.fold for r in results] == list(range(4))

    def test_folds_finish_on_real_workers(self, table, monkeypatch):
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)  # 2 workers even on a 1-CPU machine
        pids = record_run_fold_pids(monkeypatch)
        serial, _ = pipeline.run_nested(table, "LR", "audio", self.CFG)
        assert pids == [os.getpid()] * 4
        pids.clear()
        pooled, _ = pipeline.run_nested(table, "LR", "audio", self.CFG, jobs=2)
        assert pids == []  # every run_fold ran in a worker
        assert [r.to_dict() for r in pooled] == [r.to_dict() for r in serial]

    def test_failure_drops_queued_tasks(self, table, monkeypatch, tmp_path):
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)  # 2 workers even on a 1-CPU machine
        cfg = pipeline.RunConfig(seed=3, grid=LR_GRID)  # 10 x 5 units
        calls = tmp_path / "calls"
        calls.write_text("")
        score_inner_fold, run_fold = pipeline.score_inner_fold, pipeline.run_fold

        def ran(task):  # a forked worker's record reaches this process through the file
            with open(calls, "a") as fh:
                fh.write(task + "\n")

        def failing_first_unit(table, codes, fold, j, *rest):
            if (fold, j) == (0, 0):
                raise LeakageError("unit (0, 0) failed")
            ran("unit")
            return score_inner_fold(table, codes, fold, j, *rest)

        def failing_first_fold(table, codes, fold, *rest):
            if fold == 0:
                raise LeakageError("fold 0 failed")
            ran("fold")
            return run_fold(table, codes, fold, *rest)

        # a unit fails: the units queued behind it do not run
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "score_inner_fold", failing_first_unit)
            with pytest.raises(LeakageError, match=r"unit \(0, 0\) failed"):
                pipeline.run_nested(table, "LR", "audio", cfg, jobs=2)
        assert calls.read_text().count("unit") < 10 * 5 - 1
        # every unit has run when the first fold fails: the folds queued behind it do not run
        calls.write_text("")
        monkeypatch.setattr(pipeline, "run_fold", failing_first_fold)
        with pytest.raises(LeakageError, match="fold 0 failed"):
            pipeline.run_nested(table, "LR", "audio", cfg, jobs=2)
        assert calls.read_text().count("fold") < 10 - 1

    def test_workers_capped_at_jobs_units_and_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert [pipeline.worker_count(jobs, units)
                for jobs, units in [(10_000, 8), (2, 8), (10_000, 1), (1, 50)]] == [3, 2, 1, 1]
        # where the affinity call does not exist, the CPU count stands in for it
        monkeypatch.delattr(pipeline.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 6)
        assert pipeline.worker_count(10_000, 50) == 6
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: None)
        assert pipeline.worker_count(10_000, 50) == 1


class TestGbdtPath:
    def test_gbdt_through_pipeline(self, table):
        grid = ({"depth": 3, "iterations": 15, "learning_rate": 0.1,
                 "l2_leaf_reg": 3.0, "subsample": 0.9, "rsm": 0.9,
                 "class_weights": "balanced"},)
        cfg = pipeline.RunConfig(seed=13, grid=grid, k_outer=4, k_inner=3,
                                 calib_frac=0.2)
        results, _ = pipeline.run_nested(table, "GBDT", "fused", cfg)
        assert len(results) == 4
        for r in results:
            assert np.isfinite(r.cougher.roc_auc)
            assert r.best_params["iterations"] == 15


def gbdt_candidate(iterations, learning_rate=0.3):
    return {"depth": 3, "iterations": iterations, "learning_rate": learning_rate,
            "l2_leaf_reg": 3.0, "subsample": 0.8, "rsm": 0.8, "class_weights": "balanced"}


class TestStagedGridSearch:
    """Candidates differing only in iterations share one fit per inner fold."""

    def run(self, table, grid):
        cfg = pipeline.RunConfig(seed=17, grid=grid, k_outer=4, k_inner=3, calib_frac=0.2)
        return pipeline.run_nested(table, "GBDT", "fused", cfg)[0]

    def test_matches_best_single_candidate_runs(self, table):
        grid = tuple(gbdt_candidate(it) for it in (1, 3, 2))
        staged = self.run(table, grid)
        singles = [self.run(table, (c,)) for c in grid]
        for fold, got in enumerate(staged):
            uars = [runs[fold].best_inner_uar for runs in singles]
            want = singles[uars.index(max(uars))][fold]  # ties go to the earlier candidate
            assert got.best_inner_uar == want.best_inner_uar
            assert got.best_params == want.best_params
            np.testing.assert_array_equal(got.oof_probs, want.oof_probs)
            np.testing.assert_array_equal(got.test_wf_cal, want.test_wf_cal)

    def test_tie_goes_to_earlier_candidate(self, table):
        # a zero learning rate scores every candidate 0.5 on every inner fold
        grid = tuple(gbdt_candidate(it, learning_rate=0.0) for it in (2, 3, 1))
        for r in self.run(table, grid):
            assert r.best_inner_uar == 0.5
            assert r.best_params == grid[0]

    def test_tie_across_groups_goes_to_earlier_candidate(self, table):
        # candidate 1 is candidate 2 plus a key the booster ignores: it is a
        # group of its own, scored after candidate 2, and must win their tie
        grid = (gbdt_candidate(1), dict(gbdt_candidate(2), eval_metric="AUC"),
                gbdt_candidate(2))
        winners = [r.best_params for r in self.run(table, grid)]
        assert grid[1] in winners
        assert grid[2] not in winners

    def test_one_fit_per_group_and_inner_fold(self, table, monkeypatch):
        fitted = []
        fit_gbdt = pipeline.models.fit_gbdt

        def counting_fit(X, y, params, seed=0):
            fitted.append(params["iterations"])
            return fit_gbdt(X, y, params, seed=seed)

        monkeypatch.setattr(pipeline.models, "fit_gbdt", counting_fit)
        grid = tuple(gbdt_candidate(it) for it in (1, 3, 2)) + (gbdt_candidate(2, 0.1),)
        results = self.run(table, grid)
        # per outer fold: on each of the 3 inner folds, one fit per group at its
        # largest iterations; then the final fit of the winner
        assert len(fitted) == 4 * (3 * 2 + 1)
        for f, r in enumerate(results):
            assert fitted[7 * f: 7 * f + 7] == [3, 2] * 3 + [r.best_params["iterations"]]


class TestConvergenceWarning:
    def test_one_warning_per_fold_with_unconverged_fits(self, table, monkeypatch, caplog):
        fit_lr_batch = pipeline.models.fit_lr_batch

        def capped_fit_lr_batch(X, y, params_list, max_iter=None):
            # the C = 0.01 fits stop after one iteration; the C = 0.05 fits converge
            return [fit_lr_batch(X, y, [p], max_iter=1 if p["C"] == 0.01 else 10000)[0]
                    for p in params_list]

        monkeypatch.setattr(pipeline.models, "fit_lr_batch", capped_fit_lr_batch)
        cfg = pipeline.RunConfig(seed=42, grid=LR_GRID, k_outer=4, k_inner=3, calib_frac=0.2)
        with caplog.at_level(logging.WARNING, logger="coughscreen.pipeline"):
            results, _ = pipeline.run_nested(table, "LR", "audio", cfg)
        # per outer fold: 2 candidates x 3 inner folds, then the winner's final fit
        assert [rec.getMessage() for rec in caplog.records] == [
            f"outer fold {r.fold} (audio): {3 + (r.best_params['C'] == 0.01)} of 7 LR fits "
            "did not converge, at C = 0.01" for r in results]

    def test_warnings_from_pool_workers_reach_the_caller(self, table, monkeypatch, caplog):
        fit_lr_batch = pipeline.models.fit_lr_batch
        monkeypatch.setattr(pipeline.models, "fit_lr_batch",
                            lambda X, y, params_list, max_iter=None:
                            fit_lr_batch(X, y, params_list, max_iter=1))
        cfg = pipeline.RunConfig(seed=42, grid=LR_GRID, k_outer=3, k_inner=2, calib_frac=0.2)
        messages = {}
        for jobs in (1, 2):  # a real pool of 2 forked workers, which inherit the cap
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="coughscreen.pipeline"):
                pipeline.run_nested(table, "LR", "audio", cfg, jobs=jobs)
            messages[jobs] = [rec.getMessage() for rec in caplog.records]
        assert messages[1] == [f"outer fold {f} (audio): 5 of 5 LR fits did not converge, "
                               "at C = 0.01, 0.05" for f in range(3)]
        assert messages[2] == messages[1]


class TestStreamingMemory:
    """The peak memory of building a table grows with the table, not with the audio.

    Every cougher has 4 recordings, so the largest cougher (the unit the
    synthetic generator yields) is the same at both cohort sizes.
    """

    # bytes per added recording; its feature row is 277 floats (2.2 KB), while a
    # 0.5 s float64 waveform is 62.5 KB
    MAX_GROWTH = 8 * 1024

    @staticmethod
    def cohort(n_coughers):
        return synth.SyntheticConfig(n_coughers=n_coughers, coughs_mean=4, coughs_std=0,
                                     coughs_min=4, coughs_max=4, seed=3)

    @staticmethod
    def peak_bytes(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def growth_per_recording(self, build):
        small = self.peak_bytes(lambda: build(10))
        large = self.peak_bytes(lambda: build(40))
        return (large - small) / (4 * 30)

    def test_synthetic_path_is_flat(self):
        growth = self.growth_per_recording(
            lambda n: pipeline.build_feature_table(synth.iter_synthetic(self.cohort(n))))
        assert growth < self.MAX_GROWTH

    def test_manifest_path_is_flat(self, tmp_path):
        manifests = {n: synth.export_dataset(synth.generate_synthetic(self.cohort(n)),
                                             tmp_path / str(n)) for n in (10, 40)}
        growth = self.growth_per_recording(
            lambda n: pipeline.build_feature_table(data.load_manifest(manifests[n])))
        assert growth < self.MAX_GROWTH
