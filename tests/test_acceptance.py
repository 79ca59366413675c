"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import contextlib
import csv
import filecmp
import itertools
import json
import math
import time

import numpy as np
import pytest

from conftest import TINY_LR_GRID, tiny_experiment_doc
from coughscreen import calibration, cli, conformal, dsp, features, metrics, pipeline, synth
from coughscreen.experiment import ExperimentConfig, run_experiment
from coughscreen.splits import CALIB, TEST, build_nested_plan, plan_csv_text

from test_calibration import youden_scan_oracle
from test_features import summarize_oracle
from test_metrics import average_precision_oracle, mann_whitney_oracle, scores_with_counts


@contextlib.contextmanager
def criterion(number, description, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL {description} "
              f"({time.monotonic() - start:.1f}s)")
        raise
    elapsed = time.monotonic() - start
    print(f"[criterion {number:2d}] PASS {description} ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def test_c01_feature_fidelity():
    with criterion(1, "261 features from 32 frames; functionals vs brute force", 10):
        rng = np.random.default_rng(0)
        for _ in range(5):
            w = dsp.Waveform(rng.uniform(-0.8, 0.8, 8000), 16000)
            assert dsp.frame(w.samples).shape == (32, 512)
            vec = features.extract(w)
            assert vec.shape == (261,)
            assert np.isfinite(vec).all()
        for _ in range(1000):
            n = int(rng.integers(4, 65))
            x = rng.standard_normal(n) * rng.uniform(0.1, 100)
            got = features.summarize(x)
            np.testing.assert_allclose(got, summarize_oracle(x),
                                       rtol=1e-10, atol=1e-10)


def test_c02_metric_oracles():
    with criterion(2, "ROC/PR against pairwise and cutoff oracles", 30):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(4, 201))
            probs = np.round(rng.uniform(0, 1, n), 2)
            labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
            if labels.min() == labels.max():
                continue
            got = metrics.roc_auc(probs, labels)
            assert got == pytest.approx(mann_whitney_oracle(probs, labels), abs=1e-12)
        for _ in range(300):
            n = int(rng.integers(3, 51))
            probs = np.round(rng.uniform(0, 1, n), 2)
            labels = (rng.random(n) < 0.4).astype(int)
            if labels.sum() == 0:
                continue
            assert metrics.pr_auc(probs, labels) == pytest.approx(
                average_precision_oracle(probs, labels), abs=1e-14)
        suite = metrics.full_suite(*scores_with_counts(tp=8, fp=3, tn=7, fn=2), 0.5)
        assert (suite.sens, suite.spec, suite.uar) == (0.8, 0.7, 0.75)
        assert suite.ppv == 8 / 11 and suite.npv == 7 / 9
        assert math.isnan(metrics.full_suite(
            *scores_with_counts(tp=0, fp=0, tn=5, fn=5), 0.5).ppv)


def _isotonic_exhaustive(labels):
    """Best monotone fit by enumerating contiguous partitions (prefix sums).

    Labels are 0/1 so block SSE is s - s^2/k; minimizing total SSE equals
    maximizing sum(s^2/k) over partitions with nondecreasing block means.
    """
    n = len(labels)
    prefix = [0]
    for v in labels:
        prefix.append(prefix[-1] + v)
    best_score, best_blocks = -1.0, None
    for mask in range(1 << (n - 1)):
        bounds = [0]
        for i in range(n - 1):
            if mask >> i & 1:
                bounds.append(i + 1)
        bounds.append(n)
        score = 0.0
        prev_mean = -1.0
        ok = True
        blocks = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            s = prefix[b] - prefix[a]
            mean = s / (b - a)
            if mean < prev_mean - 1e-12:
                ok = False
                break
            prev_mean = mean
            score += s * s / (b - a)
            blocks.append((a, b, mean))
        if ok and score > best_score + 1e-12:
            best_score, best_blocks = score, blocks
    fit = np.empty(n)
    for a, b, mean in best_blocks:
        fit[a:b] = mean
    sse = float(sum(labels) - best_score)
    return fit, sse


def test_c03_isotonic_oracle():
    with criterion(3, "PAVA equals exhaustive monotone fit for all n<=10 patterns", 60):
        for n in range(2, 11):
            scores = np.arange(1, n + 1) / (n + 1)  # distinct probabilities
            for labels in itertools.product([0, 1], repeat=n):
                if len(set(labels)) < 2:
                    continue
                mapping = calibration.fit_isotonic(scores, labels)
                fitted = calibration.apply_isotonic(mapping, scores)
                oracle_fit, oracle_sse = _isotonic_exhaustive(labels)
                np.testing.assert_allclose(fitted, oracle_fit, atol=1e-12)
                sse = float(np.sum((fitted - np.asarray(labels)) ** 2))
                assert abs(sse - oracle_sse) <= 1e-12
                assert calibration.brier(fitted, labels) <= \
                    calibration.brier(scores, labels) + 1e-12


def test_c04_youden_oracle():
    with criterion(4, "Youden threshold attains exhaustive-scan maximum", 10):
        rng = np.random.default_rng(2)
        done = 0
        while done < 500:
            n = int(rng.integers(4, 120))
            probs = np.round(rng.uniform(0, 1, n), 2)
            labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
            if labels.min() == labels.max():
                continue
            tau, j = calibration.youden_threshold(probs, labels)
            best_j, best_taus = youden_scan_oracle(probs, labels)
            assert j == pytest.approx(best_j, abs=1e-12)
            assert tau == pytest.approx(min(best_taus), abs=1e-12)
            done += 1


def test_c05_conformal_validity():
    with criterion(5, "coverage in 3-sigma band; quantiles monotone; sets nested", 60):
        rng = np.random.default_rng(3)
        for alpha in (0.10, 0.05):
            coverages = []
            for _ in range(500):
                # exchangeable cougher-level scores: one beta-mixture population
                y = (rng.random(99 + 40) < 0.3).astype(int)
                p = np.where(y == 1, rng.beta(4, 2, y.size), rng.beta(2, 4, y.size))
                qhat = conformal.fit_quantile(p[:99], y[:99], alpha)
                sets = conformal.prediction_sets(p[99:], qhat)
                out = conformal.evaluate_sets(sets, y[99:])
                coverages.append(out["coverage"])
            margin = 3 * math.sqrt(alpha * (1 - alpha) / 500)
            assert abs(np.mean(coverages) - (1 - alpha)) <= margin
        p = rng.uniform(0, 1, 200)
        y = (rng.random(200) < 0.4).astype(int)
        cal = conformal.fit_conformal(p, y, alphas=(0.2, 0.1, 0.05, 0.01))
        qs = [cal.quantiles[a] for a in (0.2, 0.1, 0.05, 0.01)]
        assert all(a <= b for a, b in zip(qs, qs[1:]))
        probe = rng.uniform(0, 1, 50)
        for tight, loose in zip((0.2, 0.1, 0.05), (0.1, 0.05, 0.01)):
            assert np.all(cal.prediction_sets(probe, tight)
                          <= cal.prediction_sets(probe, loose))


def test_c06_leakage_audit(tmp_path):
    with criterion(6, "1000 randomized datasets cougher-disjoint; audit verifies", 60):
        rng = np.random.default_rng(4)
        for trial in range(1000):
            n = int(rng.integers(30, 80))
            ids = [f"c{i:03d}" for i in range(n)]
            labels = np.zeros(n, dtype=int)
            labels[rng.choice(n, size=int(rng.integers(10, n - 10)), replace=False)] = 1
            counts = rng.integers(1, 12, size=n).tolist()
            k_outer = int(rng.integers(3, 6))
            plan = build_nested_plan(ids, labels.tolist(), counts, k_outer=k_outer,
                                     k_inner=2, calib_frac=0.2, master_seed=trial)
            # one role code per cougher and fold, so the roles are disjoint; every code
            # names a role, so they cover the cohort
            assert plan.ids.tolist() == ids and plan.codes.shape == (k_outer, n)
            for codes in plan.codes:
                assert np.all((codes == TEST) | (codes == CALIB) | (codes >= 0))
                assert {TEST, CALIB} <= set(codes.tolist())
                assert np.unique(codes[codes >= 0]).tolist() == [0, 1]  # k_inner = 2
            if trial % 200 == 0:
                path = tmp_path / f"plan_{trial}.csv"
                path.write_text(plan_csv_text(plan), encoding="utf-8", newline="")
                assert cli.main(["audit", str(path)]) == 0


NULL_GRID = ({"C": 0.01, "class_weight": "balanced"},)
SIGNAL_GRID = ({"C": 0.05, "class_weight": "balanced"},)


def _cohort(seed, s_audio, s_clinical):
    return synth.SyntheticConfig(n_coughers=100, prevalence=0.3, coughs_mean=4,
                                 coughs_std=1.5, coughs_min=3, coughs_max=6,
                                 signal_strength_audio=s_audio,
                                 signal_strength_clinical=s_clinical, seed=seed)


def _nested_lr(table, seed, modes, grid):
    run_cfg = pipeline.RunConfig(seed=1000 + seed, grid=grid)
    out = {}
    plan = None
    for mode in modes:
        results, plan = pipeline.run_nested(table, "LR", mode, run_cfg, plan=plan)
        out[mode] = results
    return out


def test_c07_null_control(synthetic_table):
    with criterion(7, "zero-signal nested pipeline stays near chance", 600):
        fold_aucs = []
        for seed in range(20):
            table = synthetic_table(_cohort(seed, 0.0, 0.0))
            results = _nested_lr(table, seed, ("fused",), NULL_GRID)["fused"]
            fold_aucs.extend(r.cougher.roc_auc for r in results)
        mean_auc = float(np.mean(fold_aucs))
        print(f"    null mean cougher ROC AUC over 20 seeds: {mean_auc:.3f}")
        assert 0.42 <= mean_auc <= 0.58


def test_c08_signal_and_fusion_ordering():
    with criterion(8, "fusion beats audio-only; isotonic does not hurt ECE", 900):
        fused_wins = 0
        ece_improved = 0
        for seed in range(20):
            table = pipeline.build_feature_table(
                synth.generate_synthetic(_cohort(seed, 0.35, 1.2)))
            out = _nested_lr(table, seed, ("audio", "fused"), SIGNAL_GRID)
            audio_auc = float(np.mean([r.cougher.roc_auc for r in out["audio"]]))
            fused_auc = float(np.mean([r.cougher.roc_auc for r in out["fused"]]))
            if fused_auc > audio_auc:
                fused_wins += 1
            ece_raw = float(np.mean([r.ece_raw_wf for r in out["fused"]]))
            ece_cal = float(np.mean([r.ece_cal_wf for r in out["fused"]]))
            if ece_cal <= ece_raw:
                ece_improved += 1
        print(f"    fused>audio in {fused_wins}/20 seeds; "
              f"ECE improved in {ece_improved}/20 seeds")
        assert fused_wins >= 18
        assert ece_improved >= 16


STABLE_FILES = ["report.json", "folds.csv", "fold_plan.csv",
                "classification_audio.csv", "calibration_audio.csv",
                "conformal_audio.csv", "selective_audio.csv"]


def test_c09_determinism(tmp_path):
    with criterion(9, "byte-identical reports regardless of --jobs", 300):
        doc = tiny_experiment_doc(None, family="LR", feature_mode="audio",
                                  k_outer=4, k_inner=2, calib_frac=0.2,
                                  grids={"LR": TINY_LR_GRID})
        doc["synthetic"]["n_coughers"] = 30
        doc["synthetic"]["prevalence"] = 0.4
        outs = []
        for jobs, name in ((1, "serial"), (3, "parallel"), (1, "again")):
            out = tmp_path / name
            doc.update(out=str(out), jobs=jobs)
            run_experiment(ExperimentConfig.from_dict(dict(doc)))
            outs.append(out)
        for name in STABLE_FILES:
            assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name
            assert filecmp.cmp(outs[0] / name, outs[2] / name, shallow=False), name


def test_c10_schema_fidelity(tiny_run):
    with criterion(10, "emitted tables match the golden layouts", 60):
        from test_cli import CELL_FORMATS

        _, out = tiny_run
        for table in ("classification", "calibration", "conformal", "selective"):
            for mode in ("audio", "fused"):
                with open(out / f"{table}_{mode}.csv", newline="") as fh:
                    got = list(csv.reader(fh))
                with open(f"tests/golden/{table}_{mode}.csv", newline="") as fh:
                    golden = list(csv.reader(fh))
                assert got[0] == golden[0]
                assert [r[0] for r in got] == [r[0] for r in golden]
                n_label = 2 if table in ("conformal", "selective") else 1
                for got_row, golden_row in zip(got[1:], golden[1:]):
                    assert len(got_row) == len(golden_row)
                    for cell in got_row[n_label:]:
                        assert CELL_FORMATS.match(cell), cell
        report = json.loads((out / "report.json").read_text())
        assert set(report["blocks"]) == {"LR|audio", "LR|fused",
                                         "GBDT|audio", "GBDT|fused"}
        for block in report["blocks"].values():
            sel = block["aggregates"]["selective"]
            for alpha_block in sel.values():
                assert "pooled" in alpha_block
                for metric in ("overall_accuracy", "accuracy_singleton",
                               "accuracy_ambiguous", "p_singleton_given_correct"):
                    assert metric in alpha_block
