import logging
import tracemalloc

import numpy as np
import pytest

from coughscreen import data, pipeline, synth
from coughscreen.splits import build_nested_plan

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
        assert sum(sizes) == len(table.all_coughers)
        assert max(sizes) - min(sizes) <= 2

    def test_every_test_cougher_scored_exactly_once(self, results_and_plan, table):
        results, _ = results_and_plan
        seen = [c for r in results for c in r.test_cg_ids]
        assert sorted(seen) == table.all_coughers

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

    def test_unknown_family_rejected(self, table):
        with pytest.raises(ValueError):
            pipeline.run_nested(table, "SVM", "audio", pipeline.RunConfig())

    def test_unknown_mode_rejected(self, table):
        with pytest.raises(ValueError):
            pipeline.run_nested(table, "LR", "spectro", pipeline.RunConfig())


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


class TestNoTestDependence:
    @staticmethod
    def run(table, fold_plan, cfg):
        inner = [pipeline.score_inner_fold(table, fold_plan, j, "LR", "fused", cfg)
                 for j in range(fold_plan.inner.k)]
        return inner, pipeline.run_fold(table, fold_plan, "LR", "fused", cfg, inner)[0]

    def test_dropping_test_cougher_keeps_training_artifacts(self, table):
        cfg = pipeline.RunConfig(seed=5, grid=LR_GRID)
        ids = table.all_coughers
        plan = build_nested_plan(ids, [table.cougher_label[c] for c in ids],
                                 [table.cougher_rec_count[c] for c in ids],
                                 k_outer=10, k_inner=5, calib_frac=0.15, master_seed=5)
        fp = plan.folds[0]
        reduced_plan = type(fp)(fold=fp.fold, test=fp.test[1:], calib=fp.calib,
                                tuning=fp.tuning, inner=fp.inner)
        (full_inner, full), (reduced_inner, reduced) = [self.run(table, p, cfg)
                                                        for p in (fp, reduced_plan)]
        for got, want in zip(reduced_inner, full_inner):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
        assert full.best_params == reduced.best_params
        assert full.tau_w == reduced.tau_w
        assert full.tau_s == reduced.tau_s
        np.testing.assert_array_equal(full.oof_probs, reduced.oof_probs)
        for a in (0.10, 0.05):
            assert full.conformal[a]["qhat"] == reduced.conformal[a]["qhat"]


class TestScheduling:
    def test_pool_capped_at_unit_count(self, table, monkeypatch, caplog):
        sizes = []

        class InProcessPool:
            """Stands in for the process pool: records its size, runs each task here."""

            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return list(map(fn, *iterables))

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(pipeline, "_worker_table", None)
        cfg = pipeline.RunConfig(seed=3, grid=LR_GRID[:1], k_outer=4, k_inner=2,
                                 calib_frac=0.2)
        with caplog.at_level(logging.INFO, logger="coughscreen.pipeline"):
            pooled, _ = pipeline.run_nested(table, "LR", "audio", cfg, jobs=10_000)
        assert sizes == [8]
        assert [rec.getMessage() for rec in caplog.records if rec.levelno == logging.INFO] == [
            "8 inner-fold units, 4 outer folds, 8 workers"]
        serial, _ = pipeline.run_nested(table, "LR", "audio", cfg)
        assert [r.to_dict() for r in pooled] == [r.to_dict() for r in serial]


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
