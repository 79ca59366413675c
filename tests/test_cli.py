import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import wave
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from conftest import TINY_GBDT_GRID, TINY_LR_GRID, tiny_experiment_doc
from coughscreen import cli, pipeline, reports, splits
from coughscreen.data import load_manifest
from coughscreen.features import extract
from coughscreen.reports import emit_plots, report_doc


def run_cli(args):
    return cli.main(list(args))


def plan_rows():
    """The rows of a clean 4 x 2 plan of 40 coughers."""
    ids = [f"c{i:02d}" for i in range(40)]
    return splits.build_nested_plan(ids, [int(i % 3 == 0) for i in range(40)], [2] * 40,
                                    k_outer=4, k_inner=2, calib_frac=0.2, master_seed=3).rows()


def write_plan(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([splits.PLAN_COLUMNS, *rows])
    return path


# each malformed plan as a change to every (cougher, outer fold, role, inner fold) row
MALFORMED_PLANS = {
    "calib-inner-fold-minus-5": lambda c, f, role, j: (c, f, role, -5 if role == "calib" else j),
    "outer-folds-3-to-6": lambda c, f, role, j: (c, f + 3, role, j),
    "outer-folds-minus-1-to-2": lambda c, f, role, j: (c, f - 1, role, j),
    "one-inner-fold": lambda c, f, role, j: (c, f, role, min(j, 0)),
    "inner-folds-0-and-2": lambda c, f, role, j: (c, f, role, j + (j > 0)),
    "no-calib": lambda c, f, role, j: (c, f, "tuning", 0) if role == "calib" else (c, f, role, j),
}


class TestSynthAndFeatures:
    def test_synth_then_features(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert run_cli(["synth", "--out", str(ds), "--coughers", "5", "--seed", "3",
                        "--coughs-mean", "3", "--coughs-std", "0.5",
                        "--coughs-min", "3", "--coughs-max", "4"]) == 0
        assert (ds / "manifest.csv").exists()
        out_csv = tmp_path / "features.csv"
        assert run_cli(["features", str(ds / "manifest.csv"),
                        "--out", str(out_csv)]) == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["recording_id", "cougher_id"]
        assert len(rows[0]) == 2 + 261
        assert len(rows) > 1
        # every cell is the shortest float literal that reads back to the extracted value
        waveforms = {rec.id: rec.audio() for c in load_manifest(ds / "manifest.csv")
                     for rec in c.recordings}
        assert sorted(r[0] for r in rows[1:]) == sorted(waveforms)
        for row in rows[1:]:
            values = extract(waveforms[row[0]]).tolist()
            assert [float(cell) for cell in row[2:]] == values
            assert row[2:] == [repr(v) for v in values]

    def test_features_missing_manifest_exit_3(self, tmp_path):
        assert run_cli(["features", str(tmp_path / "nope.csv")]) == 3

    @pytest.mark.parametrize("out", ["missing/f.csv", "."], ids=["no-directory", "a-directory"])
    def test_features_unwritable_out_exit_3_before_extracting(self, tmp_path, capsys,
                                                             monkeypatch, out):
        ds = tmp_path / "ds"
        assert run_cli(["synth", "--out", str(ds), "--coughers", "4", "--coughs-mean", "3",
                        "--coughs-std", "0.5", "--coughs-min", "3", "--coughs-max", "3"]) == 0
        monkeypatch.setattr(cli, "build_feature_table", lambda *a: pytest.fail("extracted"))
        before = sorted(tmp_path.rglob("*"))
        assert run_cli(["features", str(ds / "manifest.csv"), "--out", str(tmp_path / out)]) == 3
        assert f"data error: cannot write {tmp_path / out}" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("flag, value", [
        ("--coughers", "0"), ("--prevalence", "1.5"), ("--coughs-std", "-1"),
        ("--coughs-mean", "nan"), ("--coughs-std", "nan"), ("--signal-audio", "inf"),
        ("--seed", "-1"), ("--coughers", "1000000000000")])
    def test_bad_synth_flag_exit_2(self, tmp_path, capsys, flag, value):
        start = time.monotonic()  # an oversized cohort is refused before any draw
        assert run_cli(["synth", "--out", str(tmp_path / "ds"), flag, value]) == 2
        assert time.monotonic() - start < 1.0
        assert f"config error: {cli._SYNTH_FLAGS[flag]} must be" in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("command, change", [
        ("audit", "short"), ("audit", "long"), ("features", "short"), ("features", "long")])
    def test_row_with_wrong_cell_count_exit_3(self, tmp_path, capsys, command, change):
        if command == "audit":
            path = tmp_path / "plan.csv"
            lines = ["cougher_id,outer_fold,role,inner_fold", "c1,0,test,-1"]
        else:
            ds = tmp_path / "ds"
            assert run_cli(["synth", "--out", str(ds), "--coughers", "2", "--coughs-mean", "3",
                            "--coughs-std", "0", "--coughs-max", "3"]) == 0
            path = ds / "manifest.csv"
            lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] if change == "short" else lines[1] + ",x"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli([command, str(path)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "line 2: the row does not have the header's" in err

    @pytest.mark.parametrize("command", ["features", "run"])
    def test_manifest_not_utf8_exit_3(self, tmp_path, capsys, command):
        ds = tmp_path / "ds"
        assert run_cli(["synth", "--out", str(ds), "--coughers", "2", "--coughs-mean", "3",
                        "--coughs-std", "0", "--coughs-max", "3"]) == 0
        path = ds / "manifest.csv"
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b",", b",\xff", 1)  # once a UnicodeDecodeError, exit 1
        path.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        args = ["--out", str(tmp_path / "out")]
        args = [str(path)] + args if command == "features" else ["--manifest", str(path)] + args
        assert run_cli([command] + args) == 3
        err = capsys.readouterr().err
        assert f"data error: manifest {path} line 3: the row is not UTF-8 text" in err


def parser_flags(command):
    """flag -> (type, default, choices) of one subcommand's parser."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.option_strings[-1]: (a.type, a.default, a.choices)
            for a in sub.choices[command]._actions if a.option_strings and a.dest != "help"}


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal about doubles the CLI's start time; only resampling and synthesis call it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    program = "import sys, coughscreen.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["False"]


class TestFlags:
    """Flag names, types and defaults, which scripts depend on."""

    def test_synth_flags(self, monkeypatch):
        monkeypatch.delenv("COUGHSCREEN_OUT", raising=False)
        assert parser_flags("synth") == {
            "--out": (None, os.path.join("runs", "synth"), None),
            "--seed": (int, 42, None),
            "--coughers": (int, 80, None),
            "--prevalence": (float, 295 / 1105, None),
            "--coughs-mean": (float, 9.03, None),
            "--coughs-std": (float, 5.7, None),
            "--coughs-min": (int, 3, None),
            "--coughs-max": (int, 50, None),
            "--signal-audio": (float, 1.0, None),
            "--signal-clinical": (float, 1.0, None),
        }

    def test_run_flags(self):
        assert parser_flags("run") == {
            "--config": (None, None, None),
            "--manifest": (None, None, None),
            "--audio-root": (None, None, None),
            "--synthetic": (None, False, None),
            "--coughers": (int, None, None),
            "--seed": (int, None, None),
            "--out": (None, None, None),
            "--jobs": (int, None, None),
            "--feature-mode": (None, None, ["audio", "fused", "both"]),
            "--model": (None, None, ["LR", "GBDT", "both"]),
            "--alpha": (float, None, None),
            "--plots": (None, False, None),
        }


def write_malformed_wav(path, kind):
    if kind == "not-riff":
        path.write_bytes(b"not a RIFF file " * 64)
        return
    channels, width, frames, rate = {"stereo": (2, 2, 400, 16000),
                                     "8-bit": (1, 1, 800, 16000),
                                     "zero-frames": (1, 2, 0, 16000),
                                     "8-khz": (1, 2, 800, 8000),
                                     "999999999-hz": (1, 2, 800, 999_999_999)}[kind]
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(width)
        fh.setframerate(rate)
        fh.writeframes(b"\x00" * (channels * width * frames))


class TestMalformedAudio:
    @pytest.mark.parametrize("command", ["features", "run"])
    @pytest.mark.parametrize("kind", ["not-riff", "stereo", "8-bit", "zero-frames", "8-khz",
                                      "999999999-hz"])
    def test_malformed_wav_exit_3_naming_the_file(self, tmp_path, capsys, command, kind):
        ds = tmp_path / "ds"
        assert run_cli(["synth", "--out", str(ds), "--coughers", "16",
                        "--prevalence", "0.5", "--seed", "6",
                        "--coughs-mean", "4", "--coughs-std", "1",
                        "--coughs-min", "3", "--coughs-max", "5"]) == 0
        bad = sorted((ds / "audio").glob("*.wav"))[5]
        write_malformed_wav(bad, kind)
        manifest = str(ds / "manifest.csv")
        if command == "features":
            args = ["features", manifest, "--out", str(tmp_path / "f.csv")]
        else:
            doc = tiny_experiment_doc(tmp_path / "exp", family="LR", feature_mode="audio",
                                      k_outer=2, k_inner=2, calib_frac=0.25)
            del doc["synthetic"]
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(doc))
            args = ["run", "--config", str(cfg_path), "--manifest", manifest]
        capsys.readouterr()
        assert run_cli(args) == 3
        err = capsys.readouterr().err
        assert "data error" in err and bad.name in err


class TestRunCommand:
    def test_run_with_config_file(self, tmp_path, capsys):
        out = tmp_path / "exp"
        doc = tiny_experiment_doc(out, family="LR", feature_mode="audio",
                                  k_outer=3, k_inner=2, calib_frac=0.25)
        doc["synthetic"]["n_coughers"] = 30
        doc["synthetic"]["prevalence"] = 0.4
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert run_cli(["run", "--config", str(cfg_path)]) == 0
        assert (out / "report.json").exists()
        assert (out / "classification_audio.csv").exists()

    def test_flag_overrides_config(self, tmp_path):
        out = tmp_path / "exp"
        doc = tiny_experiment_doc(out, family="LR", feature_mode="audio",
                                  k_outer=3, k_inner=2, calib_frac=0.25)
        doc["synthetic"]["n_coughers"] = 30
        doc["synthetic"]["prevalence"] = 0.4
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out2 = tmp_path / "exp2"
        assert run_cli(["run", "--config", str(cfg_path), "--out", str(out2),
                        "--alpha", "0.2"]) == 0
        report = json.loads((out2 / "report.json").read_text())
        assert report["alphas"] == [0.2]

    def test_invalid_config_exit_2(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"family": "XGB", "synthetic": {}}))
        assert run_cli(["run", "--config", str(cfg_path)]) == 2

    def test_repeated_alpha_flag_exit_2(self, tmp_path, capsys):
        out = tmp_path / "exp"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_experiment_doc(out)))
        assert run_cli(["run", "--config", str(cfg_path),
                        "--alpha", "0.1", "--alpha", "0.1"]) == 2
        assert "alphas" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[1, 2]", "null", "5", '"cfg"'])
    def test_config_not_an_object_exit_2(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert run_cli(["run", "--config", str(cfg_path)]) == 2
        assert "the config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("synthetic", [None, [], 5, "yes"])
    def test_coughers_with_non_object_synthetic_exit_2(self, tmp_path, capsys, synthetic):
        out = tmp_path / "exp"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_experiment_doc(out, synthetic=synthetic)))
        assert run_cli(["run", "--config", str(cfg_path), "--coughers", "5"]) == 2
        assert "synthetic must be an object" in capsys.readouterr().err
        assert not out.exists()

    def test_no_data_source_exit_2(self):
        assert run_cli(["run"]) == 2

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "latin1.json"
        cfg_path.write_bytes(b'{"synthetic": {}, "out": "r\xe9sultats"}')
        assert run_cli(["run", "--config", str(cfg_path)]) == 2
        assert f"config error: config file {cfg_path} is not UTF-8 JSON" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"synthetic": {}, "bogus": 1}))
        assert run_cli(["run", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("override", [
        {"calib_frac": "0.2"},
        {"synthetic": {"n_coughers": "x"}},
        {"alphas": 0.1},
        {"alphas": ["x"]},
        {"seed": "7"},
        {"k_outer": 2.5},
        {"grids": {"LR": [{"class_weight": "balanced"}]}},
        {"grids": {"LR": [{"C": 0}]}},
        {"grids": {"LR": [{"C": math.inf}]}},
        {"grids": {"LR": [{"C": "0.05"}]}},
        {"grids": {"LR": [{"C": 0.05, "class_weight": "auto"}]}},
        {"grids": {"LR": [{"C": 0.05, "solver": "newton"}]}},
        {"grids": {"LR": [{"C": 0.05, "penalty": "l1"}]}},
        {"grids": {"GBDT": [{k: v for k, v in TINY_GBDT_GRID[0].items() if k != "rsm"}]}},
        {"grids": {"GBDT": [dict(TINY_GBDT_GRID[0], depth=2.5)]}},
        {"grids": {"GBDT": [dict(TINY_GBDT_GRID[0], iterations=0)]}},
        {"grids": {"GBDT": [dict(TINY_GBDT_GRID[0], learning_rate=0)]}},
        {"grids": {"GBDT": [dict(TINY_GBDT_GRID[0], learning_rate=math.inf)]}},
        {"grids": {"GBDT": [dict(TINY_GBDT_GRID[0], l2_leaf_reg=-1.0)]}},
        {"grids": {"GBDT": [dict(TINY_GBDT_GRID[0], subsample=0)]}},
        {"grids": {"GBDT": [dict(TINY_GBDT_GRID[0], rsm=1.5)]}},
        {"grids": {"GBDT": [dict(TINY_GBDT_GRID[0], class_weights="auto")]}},
        {"grids": {"GBDT": [dict(TINY_GBDT_GRID[0], eval_metric="AUC")]}},
        {"family": "LR", "grids": {"LR": TINY_LR_GRID, "GBDT": []}},
        {"alphas": [0.1, 0.1]},
        {"alphas": [0.101, 0.104]},
        {"alphas": [0.001, 0.2]},
        {"alphas": [0.997]},
        {"ece_bins": 10},
        {"scale_binary_clinical": True},
        {"synthetic": {"coughs_std": -1}},
        {"alphas": []},
    ], ids=["calib_frac-str", "n_coughers-str", "alphas-scalar", "alphas-str", "seed-str",
            "k_outer-float", "lr-no-C", "lr-C-zero", "lr-C-inf", "lr-C-str",
            "lr-class_weight", "lr-solver", "lr-unknown-key", "gbdt-no-rsm",
            "gbdt-depth-float", "gbdt-iterations-zero", "gbdt-learning_rate-zero",
            "gbdt-learning_rate-inf", "gbdt-l2-negative", "gbdt-subsample-zero",
            "gbdt-rsm-above-1", "gbdt-class_weights", "gbdt-unknown-key", "gbdt-empty-grid",
            "alphas-repeated", "alphas-same-tag", "alpha-tag-0.00", "alpha-tag-1.00",
            "removed-ece_bins", "removed-scale_binary_clinical", "synthetic-coughs_std-negative",
            "alphas-empty"])
    def test_config_type_error_exit_2(self, tmp_path, capsys, override):
        out = tmp_path / "exp"
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(tiny_experiment_doc(out, **override)))
        assert run_cli(["run", "--config", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where, field", [
        ("LR", "C"), ("GBDT", "learning_rate"), ("GBDT", "l2_leaf_reg"),
        ("synthetic", "coughs_mean")])
    def test_integer_beyond_float_range_exit_2(self, tmp_path, capsys, where, field):
        # -inf < 10**400 < inf holds for a Python int, but float() of it overflows
        out = tmp_path / "exp"
        doc = json.loads(json.dumps(tiny_experiment_doc(out)))  # a copy: the grids are shared
        target = doc["synthetic"] if where == "synthetic" else doc["grids"][where][0]
        target[field] = 10 ** 400
        cfg_path = tmp_path / "huge.json"
        cfg_path.write_text(json.dumps(doc))
        assert run_cli(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{field} must be" in err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_that_cannot_be_a_directory_exit_2(self, tmp_path, capsys, out):
        # unchecked, the whole experiment would run before makedirs raised
        (tmp_path / "taken").write_text("a file")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_experiment_doc(tmp_path / out)))
        start = time.monotonic()
        assert run_cli(["run", "--config", str(cfg_path)]) == 2
        assert time.monotonic() - start < 1.0
        assert "config error: out must be a path that is, or whose nearest existing " \
            "ancestor is, a directory" in capsys.readouterr().err
        assert (tmp_path / "taken").read_text() == "a file"

    def test_config_a_directory_exit_2(self, tmp_path, capsys):
        assert run_cli(["run", "--config", str(tmp_path)]) == 2
        assert f"config error: cannot read config file {tmp_path}" in capsys.readouterr().err

    def test_out_the_os_cannot_name_exit_2(self, tmp_path, capsys):
        # unchecked, the whole experiment would run and writing the report would raise
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_experiment_doc(str(tmp_path / "exp") + "\x00")))
        assert run_cli(["run", "--config", str(cfg_path)]) == 2
        assert "config error: out must be a path" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("field, value", [
        ("n_coughers", 10 ** 12), ("coughs_max", 10 ** 300), ("coughs_min", 2 ** 63)],
        ids=["n_coughers-10**12", "coughs_max-10**300", "coughs_min-2**63"])
    def test_oversized_synthetic_cohort_exit_2(self, tmp_path, capsys, field, value):
        # unbounded, these would allocate terabytes or overflow the int64 cough counts
        out = tmp_path / "exp"
        doc = tiny_experiment_doc(out)
        doc["synthetic"][field] = value
        cfg_path = tmp_path / "huge.json"
        cfg_path.write_text(json.dumps(doc))
        start = time.monotonic()
        assert run_cli(["run", "--config", str(cfg_path)]) == 2
        assert time.monotonic() - start < 1.0
        err = capsys.readouterr().err
        assert f"config error: synthetic: {field} must be an integer in [1, " in err
        assert not out.exists()

    @pytest.mark.parametrize("override, reason", [
        ({"synthetic": {"n_coughers": 12, "prevalence": 0.3, "coughs_mean": 4,
                        "coughs_std": 1, "coughs_min": 3, "coughs_max": 6}},
         "class 1 has only 2 coughers for k=4"),
        ({"calib_frac": 0.01}, "absent from the calibration or tuning part"),
        ({"k_inner": 9}, "class 1 has only 6 coughers for k=9"),
    ], ids=["outer-folds", "calibration-carve-out", "inner-folds"])
    def test_cohort_too_small_exit_3(self, tmp_path, capsys, override, reason):
        out = tmp_path / "exp"
        cfg_path = tmp_path / "small.json"
        cfg_path.write_text(json.dumps(tiny_experiment_doc(out, **override)))
        assert run_cli(["run", "--config", str(cfg_path)]) == 3
        captured = capsys.readouterr()
        assert "data error" in captured.err and reason in captured.err
        assert "extracting features" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("check, code", [("audit_plan", 4), ("single_class_sets", 3)])
    def test_plan_check_fails_before_any_recording_is_extracted(self, tmp_path, capsys,
                                                                monkeypatch, check, code):
        def extract_all(waveforms):
            pytest.fail("a recording was extracted")

        monkeypatch.setattr(pipeline, check, lambda *args: ["outer fold 0: a seeded fault"])
        monkeypatch.setattr(pipeline, "extract_all", extract_all)
        out = tmp_path / "exp"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_experiment_doc(out)))
        assert run_cli(["run", "--config", str(cfg_path)]) == code
        captured = capsys.readouterr()
        assert "the first: outer fold 0: a seeded fault" in captured.err
        assert "extracting features" not in captured.out
        assert not out.exists()

    def test_run_from_manifest_source(self, tmp_path):
        ds = tmp_path / "ds"
        assert run_cli(["synth", "--out", str(ds), "--coughers", "16",
                        "--prevalence", "0.5", "--seed", "6",
                        "--coughs-mean", "4", "--coughs-std", "1",
                        "--coughs-min", "3", "--coughs-max", "5"]) == 0
        out = tmp_path / "exp"
        doc = tiny_experiment_doc(out, family="LR", feature_mode="audio",
                                  k_outer=2, k_inner=2, calib_frac=0.25)
        del doc["synthetic"]
        doc["manifest"] = str(ds / "manifest.csv")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert run_cli(["run", "--config", str(cfg_path)]) == 0
        assert (out / "report.json").exists()

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COUGHSCREEN_OUT", str(tmp_path / "root"))
        assert run_cli(["synth", "--coughers", "4", "--coughs-mean", "3",
                        "--coughs-std", "0.5", "--coughs-min", "3",
                        "--coughs-max", "3"]) == 0
        assert (tmp_path / "root" / "synth" / "manifest.csv").exists()


class TestAuditCommand:
    def test_clean_plan_passes(self, tiny_run):
        _, out = tiny_run
        assert run_cli(["audit", str(out / "fold_plan.csv")]) == 0

    def test_corrupted_plan_exit_4(self, tiny_run, tmp_path, capsys):
        _, out = tiny_run
        rows = (out / "fold_plan.csv").read_text().splitlines()
        test_row = next(r for r in rows[1:] if ",test," in r)
        cid, fold, _, inner = test_row.split(",")
        rows.append(f"{cid},{fold},tuning,0")
        bad = tmp_path / "bad_plan.csv"
        bad.write_text("\n".join(rows) + "\n")
        assert run_cli(["audit", str(bad)]) == 4
        assert "VIOLATION" in capsys.readouterr().out

    @pytest.mark.parametrize("mutate", MALFORMED_PLANS.values(), ids=MALFORMED_PLANS.keys())
    def test_malformed_plan_exit_4(self, tmp_path, mutate):
        rows = [mutate(*row) for row in plan_rows()]
        assert splits.audit_plan_rows(rows)
        assert run_cli(["audit", str(write_plan(tmp_path / "plan.csv", rows))]) == 4

    def test_huge_outer_fold_exit_4_without_an_array_of_its_size(self, tmp_path):
        # outer fold 3 renumbered, so the rows still give 4 folds of 40 coughers
        rows = [(c, 10 ** 12 if f == 3 else f, *rest) for c, f, *rest in plan_rows()]
        path = write_plan(tmp_path / "plan.csv", rows)
        tracemalloc.start()
        try:
            assert run_cli(["audit", str(path)]) == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_ids_that_differ_by_a_trailing_nul_stay_apart(self, tmp_path):
        # a numpy string array would read "c00\x00" as "c00", the id of another cougher
        rows = [("c00\x00" if c == "c01" else c, *rest) for c, *rest in plan_rows()]
        assert splits.audit_plan_rows(rows) == []
        assert run_cli(["audit", str(write_plan(tmp_path / "plan.csv", rows))]) == 0

    def test_missing_plan_exit_3(self, tmp_path):
        assert run_cli(["audit", str(tmp_path / "none.csv")]) == 3

    def test_header_only_plan_exit_3(self, tmp_path, capsys):
        # a truncated export must not pass as "0 rows, cougher-disjoint"
        plan = tmp_path / "plan.csv"
        plan.write_text("cougher_id,outer_fold,role,inner_fold\n")
        assert run_cli(["audit", str(plan)]) == 3
        assert f"data error: plan file {plan} has no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, message", [
        ("c1,x,test,-1", "line 2: invalid literal for int() with base 10: 'x'"),
        ("c1,0,test,-1\nc2,0," + "x" * 140_000 + ",-1", "line 3: field larger than field limit"),
    ], ids=["not-an-integer", "oversized-field"])
    def test_bad_plan_cell_exit_3_naming_file_and_line(self, tmp_path, capsys, rows, message):
        plan = tmp_path / "plan.csv"
        plan.write_text(f"cougher_id,outer_fold,role,inner_fold\n{rows}\n")
        assert run_cli(["audit", str(plan)]) == 3
        assert f"data error: plan file {plan} {message}" in capsys.readouterr().err


class TestPlotCommand:
    def test_plot_from_report(self, tiny_run, tmp_path):
        _, out = tiny_run
        plots = tmp_path / "plots"
        assert run_cli(["plot", str(out / "report.json"), "--out", str(plots)]) == 0
        svgs = list(plots.glob("*.svg"))
        assert svgs
        for svg in svgs:
            ET.parse(svg)

    def test_plot_matches_run_plots_byte_for_byte(self, tiny_run, tmp_path):
        report, out = tiny_run
        live = tmp_path / "live"
        emit_plots(report_doc(report), live)  # the in-memory document of the run
        assert run_cli(["plot", str(out / "report.json"), "--out", str(tmp_path / "cli")]) == 0
        names = sorted(p.name for p in live.iterdir())
        assert len(names) == 28
        assert names == sorted(p.name for p in (tmp_path / "cli").iterdir())
        for name in names:
            assert (tmp_path / "cli" / name).read_bytes() == (live / name).read_bytes(), name

    def test_run_plots_render_the_written_report_once(self, tmp_path, monkeypatch):
        aggregations = []
        aggregate = reports.aggregate_folds
        monkeypatch.setattr(reports, "aggregate_folds",
                            lambda *a: aggregations.append(1) or aggregate(*a))
        out = tmp_path / "exp"
        doc = tiny_experiment_doc(out, family="LR", feature_mode="audio",
                                  k_outer=3, k_inner=2, calib_frac=0.25)
        doc["synthetic"].update(n_coughers=30, prevalence=0.4)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert run_cli(["run", "--config", str(cfg_path), "--plots"]) == 0
        assert len(aggregations) == 1  # one block, one report document
        assert run_cli(["plot", str(out / "report.json"), "--out", str(tmp_path / "cli")]) == 0
        names = sorted(p.name for p in out.glob("*.svg"))
        assert len(names) == 7
        assert names == sorted(p.name for p in (tmp_path / "cli").iterdir())
        for name in names:
            assert (tmp_path / "cli" / name).read_bytes() == (out / name).read_bytes(), name
            ET.parse(out / name)  # well-formed XML: every title is escaped or safe

    @pytest.mark.parametrize("text", [
        "not json {", "[1, 2]", '{"config": {}, "alphas": []}',
        '{"config": {}, "alphas": [], "blocks": []}',
        '{"config": {}, "alphas": [], "blocks": {"LR|audio": {}}}',
        '{"config": {}, "alphas": [], "blocks": {"LR|audio": {"folds": [{}]}}}',
        '{"config": {}, "alphas": [], "blocks": {"LR|audio": {"folds": [{"fold": "a&<b"}]}}}'],
        ids=["not-json", "not-an-object", "no-blocks", "blocks-not-an-object",
             "block-without-folds", "fold-without-number", "fold-number-not-an-integer"])
    def test_bad_report_exit_3_naming_the_file(self, tmp_path, capsys, text):
        bad = tmp_path / "bad_report.json"
        bad.write_text(text)
        assert run_cli(["plot", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "bad_report.json" in err

    def test_bad_later_block_writes_no_plots(self, tiny_run, tmp_path, capsys):
        _, out = tiny_run
        doc = json.loads((out / "report.json").read_text())
        assert max(doc["blocks"]) == "LR|fused"
        doc["blocks"]["LR|fused"] = {}  # the block rendered last
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["plot", str(bad)]) == 3
        assert "data error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.svg"))

    @pytest.mark.parametrize("number", ["a&<b", True, 1.0, None])
    def test_fold_number_not_an_integer_exit_3_writing_nothing(self, tiny_run, tmp_path,
                                                               capsys, number):
        # a fold number becomes the title of its curves
        _, out = tiny_run
        doc = json.loads((out / "report.json").read_text())
        doc["blocks"]["LR|audio"]["folds"][0]["fold"] = number
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["plot", str(bad), "--out", str(tmp_path / "plots")]) == 3
        assert (f"data error: {bad} is not a report.json: fold {number!r} is not an integer"
                in capsys.readouterr().err)
        assert not (tmp_path / "plots").exists()

    @pytest.mark.parametrize("key", ["A<&b|audio", "sub/dir|audio"])
    def test_block_key_outside_family_and_mode_exit_3_writing_nothing(self, tiny_run, tmp_path,
                                                                       capsys, key):
        # a key becomes an SVG title and part of a file name
        _, out = tiny_run
        doc = json.loads((out / "report.json").read_text())
        doc["blocks"][key] = doc["blocks"]["LR|audio"]
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(doc))
        (tmp_path / "plots" / "roc_sub").mkdir(parents=True)
        assert run_cli(["plot", str(bad), "--out", str(tmp_path / "plots")]) == 3
        assert "block keys must be among" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["report.json"]


CELL_FORMATS = re.compile(
    r"^(n/a"
    r"|-?\d+\.\d{2} ± \d+\.\d{2}( \[\d+\.\d{2}\])?"
    r"|-?\d+\.\d{2}"
    r"|\d+\.\d{2})$")


class TestGoldenLayouts:
    """Emitted tables must keep the documented structure: same header, same
    label column, and every data cell in a recognized presentation format."""

    @pytest.mark.parametrize("name", [
        f"{table}_{mode}" for table in ("classification", "calibration",
                                        "conformal", "selective")
        for mode in ("audio", "fused")])
    def test_table_structure_matches_golden(self, tiny_run, name):
        _, out = tiny_run
        with open(out / f"{name}.csv", newline="") as fh:
            got = list(csv.reader(fh))
        with open(f"tests/golden/{name}.csv", newline="") as fh:
            golden = list(csv.reader(fh))
        assert got[0] == golden[0], "header changed"
        assert len(got) == len(golden), "row count changed"
        n_label_cols = 2 if name.startswith(("conformal", "selective")) else 1
        for got_row, golden_row in zip(got[1:], golden[1:]):
            assert got_row[:n_label_cols] == golden_row[:n_label_cols]
            assert len(got_row) == len(golden_row)
            for cell in got_row[n_label_cols:]:
                assert CELL_FORMATS.match(cell), f"unrecognized cell {cell!r}"
