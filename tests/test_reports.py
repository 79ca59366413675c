import csv
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from coughscreen import reports
from coughscreen.reports import emit_plots, report_doc, write_report


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestEmittedFiles:
    def test_expected_files_present(self, tiny_run):
        _, out = tiny_run
        expected = ["report.json", "meta.json", "fold_plan.csv", "folds.csv"]
        for mode in ("audio", "fused"):
            expected += [f"{name}_{mode}.csv" for name in
                         ("classification", "calibration", "conformal", "selective")]
        for name in expected:
            assert (out / name).exists(), name

    def test_report_that_fails_to_render_writes_nothing(self, tiny_run, tmp_path, monkeypatch):
        def fail(*args):
            raise RuntimeError("failed to render")

        # the fold plan's CSV renders first, the curves CSVs last
        for renderer in ("plan_csv_text", "_curves"):
            with monkeypatch.context() as patch:
                patch.setattr(reports, renderer, fail)
                with pytest.raises(RuntimeError, match="failed to render"):
                    write_report(tiny_run[0], tmp_path / "out")
            assert not (tmp_path / "out").exists(), renderer

    def test_four_blocks_each_with_ten_fold_rows(self, tiny_run):
        report, out = tiny_run
        assert len(report.blocks) == 4
        for block in report.blocks.values():
            assert len(block["folds"]) == 10
        rows = read_csv(out / "folds.csv")
        assert len(rows) - 1 == 4 * 10

    def test_folds_csv_header(self, tiny_run):
        _, out = tiny_run
        assert read_csv(out / "folds.csv")[0] == [
            "family", "feature_mode", "fold", "best_params", "tau_w", "tau_s",
            "wf_roc_auc", "wf_pr_auc", "wf_uar", "wf_sensitivity", "wf_specificity",
            "wf_ppv", "wf_npv", "cg_roc_auc", "cg_pr_auc", "cg_uar", "cg_sensitivity",
            "cg_specificity", "cg_ppv", "cg_npv", "brier_raw_wf", "brier_cal_wf",
            "ece_raw_wf", "ece_cal_wf", "brier_raw_cg", "brier_cal_cg", "ece_raw_cg",
            "ece_cal_cg", "qhat_a0.10", "coverage_a0.10", "mean_size_a0.10",
            "singleton_rate_a0.10", "empty_rate_a0.10", "sel_accuracy_a0.10",
            "sel_acc_singleton_a0.10", "sel_acc_ambiguous_a0.10",
            "sel_p_singleton_correct_a0.10", "qhat_a0.05", "coverage_a0.05",
            "mean_size_a0.05", "singleton_rate_a0.05", "empty_rate_a0.05",
            "sel_accuracy_a0.05", "sel_acc_singleton_a0.05", "sel_acc_ambiguous_a0.05",
            "sel_p_singleton_correct_a0.05"]

    def test_fold_record_keys(self, tiny_run):
        _, out = tiny_run
        doc = json.loads((out / "report.json").read_text())
        keys = sorted([
            "fold", "family", "feature_mode", "best_params", "best_inner_uar", "tau_w", "tau_s",
            "waveform", "cougher", "brier_raw_wf", "brier_cal_wf", "ece_raw_wf", "ece_cal_wf",
            "brier_raw_cg", "brier_cal_cg", "ece_raw_cg", "ece_cal_cg", "conformal",
            "selective", "n_test_coughers", "n_calib_coughers", "n_tuning_coughers",
            "oof_recording_ids", "oof_probs", "test_recording_ids", "test_wf_raw",
            "test_wf_cal", "test_wf_labels", "test_cg_ids", "test_cg_raw", "test_cg_cal",
            "test_cg_labels", "test_sets", "audit"])
        assert len(keys) == 34
        for block in doc["blocks"].values():
            for fold in block["folds"]:
                assert sorted(fold) == keys

    def test_config_echo_reproduces_run(self, tiny_run):
        report, out = tiny_run
        doc = json.loads((out / "report.json").read_text())
        cfg = doc["config"]
        assert cfg["seed"] == 42
        assert cfg["synthetic"]["n_coughers"] == 60
        assert cfg["grids"]["LR"][0]["C"] == 0.05

    def test_wall_clock_only_in_meta(self, tiny_run):
        _, out = tiny_run
        report_text = (out / "report.json").read_text()
        meta = json.loads((out / "meta.json").read_text())
        assert "wall_clock_s" in meta
        assert "wall_clock_s" not in report_text
        assert "environment" in meta

    def test_config_echo_reproduces_run_exactly(self, tmp_path):
        from conftest import tiny_experiment_doc
        from coughscreen.experiment import ExperimentConfig, run_experiment

        first = tmp_path / "first"
        doc = tiny_experiment_doc(first, family="LR", feature_mode="audio",
                                  k_outer=3, k_inner=2, calib_frac=0.25)
        doc["synthetic"].update(n_coughers=30, prevalence=0.4)
        run_experiment(ExperimentConfig.from_dict(doc))
        echo = json.loads((first / "report.json").read_text())["config"]
        echo["grids"] = {k: [dict(c) for c in v] for k, v in echo["grids"].items()}
        second = tmp_path / "second"
        echo.update(out=str(second), alphas=tuple(echo["alphas"]))
        run_experiment(ExperimentConfig.from_dict(echo))
        assert (first / "report.json").read_bytes() == \
            (second / "report.json").read_bytes()


class TestSelfConsistency:
    def test_aggregate_cells_recomputable_from_fold_rows(self, tiny_run):
        """Every mean ± std in a table equals the stats of the emitted fold rows."""
        _, out = tiny_run
        fold_rows = read_csv(out / "folds.csv")
        header = fold_rows[0]

        def fold_values(family, mode, column):
            idx = header.index(column)
            vals = [float(r[idx]) for r in fold_rows[1:]
                    if r[0] == family and r[1] == mode and r[idx] != ""]
            return np.asarray(vals)

        for mode in ("audio", "fused"):
            table = read_csv(out / f"classification_{mode}.csv")
            cols = table[0]
            for row in table[1:]:
                metric = row[0]
                for j, cell in enumerate(row[1:], start=1):
                    family, level = cols[j].rsplit("_", 1)
                    tag = "wf" if level == "waveform" else "cg"
                    col = ("tau_w" if metric == "threshold" and tag == "wf"
                           else "tau_s" if metric == "threshold"
                           else f"{tag}_{metric}")
                    vals = fold_values(family, mode, col)
                    if cell == "n/a":
                        assert vals.size == 0
                        continue
                    mean_s, std_s = cell.split(" ± ")
                    assert float(mean_s) == pytest.approx(vals.mean(), abs=5.1e-3)
                    expected_std = vals.std(ddof=1) if vals.size > 1 else 0.0
                    assert float(std_s) == pytest.approx(expected_std, abs=5.1e-3)

    def test_conformal_cells_recomputable(self, tiny_run):
        _, out = tiny_run
        fold_rows = read_csv(out / "folds.csv")
        header = fold_rows[0]
        for mode in ("audio", "fused"):
            table = read_csv(out / f"conformal_{mode}.csv")
            cols = table[0]
            for row in table[1:]:
                alpha = row[1]
                for j in range(2, len(cols), 2):
                    family = cols[j].rsplit("_", 1)[0]
                    idx = header.index(f"coverage_a{alpha}")
                    vals = [float(r[idx]) for r in fold_rows[1:]
                            if r[0] == family and r[1] == mode]
                    mean_s = row[j].split(" ± ")[0]
                    assert float(mean_s) == pytest.approx(np.mean(vals), abs=5.1e-3)

    def test_pooled_conformal_counts_every_test_cougher(self, tiny_run):
        report, _ = tiny_run
        for block in report_doc(report)["blocks"].values():
            for alpha, agg in block["aggregates"]["conformal"].items():
                covered = sizes = singletons = empties = n = 0
                for fold in block["folds"]:
                    s = fold["test_sets"][alpha]
                    for y, pos, neg in zip(fold["test_cg_labels"], s["has_pos"], s["has_neg"]):
                        covered += bool(pos if y == 1 else neg)
                        size = int(bool(pos)) + int(bool(neg))
                        sizes += size
                        singletons += size == 1
                        empties += size == 0
                        n += 1
                assert agg["pooled"] == {"coverage": covered / n, "mean_size": sizes / n,
                                         "singleton_rate": singletons / n,
                                         "empty_rate": empties / n, "n": n}


class TestPlots:
    def test_svgs_well_formed(self, tiny_run, tmp_path):
        report, _ = tiny_run
        paths = emit_plots(report_doc(report), tmp_path)
        assert paths
        for p in paths:
            root = ET.parse(p).getroot()
            assert root.tag.endswith("svg")

    def test_expected_plot_kinds(self, tiny_run, tmp_path):
        report, _ = tiny_run
        names = {p.rsplit("/", 1)[-1] for p in emit_plots(report_doc(report), tmp_path)}
        assert "roc_LR_fused_cougher.svg" in names
        assert "pr_GBDT_audio_waveform.svg" in names
        assert "reliability_LR_audio_cougher.svg" in names
        assert "coverage_vs_alpha_LR_fused.svg" in names

    def test_empty_alphas_skips_coverage_plot(self, tiny_run, tmp_path):
        report, _ = tiny_run
        stripped = dict(report_doc(report), alphas=[])
        names = {p.rsplit("/", 1)[-1] for p in emit_plots(stripped, tmp_path)}
        assert not any(n.startswith("coverage_vs_alpha") for n in names)
        assert any(n.startswith("roc_") for n in names)

    def test_report_json_roundtrip_supports_plotting(self, tiny_run, tmp_path):
        report, out = tiny_run
        doc = json.loads((out / "report.json").read_text())
        assert doc == report_doc(report)
        assert len(doc["blocks"]) == 4
        paths = emit_plots(doc, tmp_path)
        assert len(paths) == 28


class TestNanHandling:
    def test_json_has_no_bare_nan(self, tiny_run):
        _, out = tiny_run
        text = (out / "report.json").read_text()
        json.loads(text)  # strict JSON parses
        assert "NaN" not in text

    def test_sentinels_reported_with_exclusion_counts(self, tiny_run):
        report, _ = tiny_run
        block = report_doc(report)["blocks"]["LR|audio"]["aggregates"]
        for level in ("waveform", "cougher"):
            for metric, agg in block["classification"][level].items():
                assert agg["n"] + agg["n_excluded"] == 10
                if agg["mean"] is not None:
                    assert math.isfinite(agg["mean"])
