import csv
import re
from pathlib import Path

import numpy as np
import pytest

from coughscreen import data, dsp, models, synth
from coughscreen.metrics import aggregate_cougher, roc_auc
from coughscreen.splits import stratified_group_kfold


def sample_clinical(**overrides):
    base = dict(age=35.0, sex=1, height=170.0, weight=65.0, cough_duration=21.0,
                prior_tb=0, prior_tb_pulmonary=0, prior_tb_extrapulmonary=0,
                prior_tb_unknown=0, hemoptysis=0, heart_rate=80.0, temperature=36.8,
                smoked_last_week=0, fever=1, night_sweats=0, weight_loss=1)
    base.update(overrides)
    return data.ClinicalRecord(**base)


def write_tiny_manifest(tmp_path, rows):
    rng = np.random.default_rng(0)
    audio = tmp_path / "audio"
    audio.mkdir(exist_ok=True)
    manifest = tmp_path / "manifest.csv"
    clinical = sample_clinical()
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.MANIFEST_COLUMNS)
        for rec_id, cougher_id, label in rows:
            path = f"audio/{rec_id}.wav"
            w = dsp.Waveform(rng.uniform(-0.3, 0.3, 8000), 16000)
            dsp.write_wav(tmp_path / path, w)
            writer.writerow([rec_id, cougher_id, label, path]
                            + [getattr(clinical, f) for f in data.CLINICAL_FIELDS])
    return manifest


class TestClinicalRecord:
    def test_encode_all_no_zero_valued(self):
        rec = sample_clinical(sex=0, fever=0, weight_loss=0)
        vec = rec.to_vector()
        binary = vec[[data.CLINICAL_FIELDS.index(f) for f in data.BINARY_CLINICAL_FIELDS]]
        np.testing.assert_array_equal(binary, 0.0)

    def test_sex_toggles_one_coordinate(self):
        a = sample_clinical(sex=0).to_vector()
        b = sample_clinical(sex=1).to_vector()
        diff = np.flatnonzero(a != b)
        assert list(diff) == [data.CLINICAL_FIELDS.index("sex")]

    def test_roundtrip_by_position(self):
        vec = sample_clinical(age=52.5, hemoptysis=1).to_vector()
        assert vec[data.CLINICAL_FIELDS.index("age")] == 52.5
        assert vec[data.CLINICAL_FIELDS.index("hemoptysis")] == 1.0

    def test_manifest_columns_match_readme(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme[readme.index("**Manifest (CSV"):readme.index("Binary columns")]
        names = [name for quoted in re.findall(r"`([^`]+)`", section)
                 for name in re.split(r",\s+", quoted)]
        assert data.MANIFEST_COLUMNS == names
        assert len(names) == 4 + 16

    def test_exactly_16_fields(self):
        assert len(data.CLINICAL_FIELDS) == 16
        assert sample_clinical().to_vector().shape == (16,)

    def test_non_binary_flag_rejected(self):
        with pytest.raises(ValueError):
            sample_clinical(fever=2)

    def test_out_of_range_warns_only(self, caplog):
        with caplog.at_level("WARNING"):
            rec = sample_clinical(temperature=49.0)
        assert rec.temperature == 49.0
        assert any("temperature" in m for m in caplog.messages)


class TestManifest:
    def test_two_rows_one_cougher(self, tmp_path):
        manifest = write_tiny_manifest(tmp_path, [("r1", "c1", 1), ("r2", "c1", 1)])
        coughers = data.load_manifest(manifest)
        assert len(coughers) == 1
        assert len(coughers[0].recordings) == 2
        assert coughers[0].recordings[0].audio().sample_rate_hz == 16000

    def test_label_conflict_rejected(self, tmp_path):
        manifest = write_tiny_manifest(tmp_path, [("r1", "c1", 1), ("r2", "c1", 0)])
        with pytest.raises(data.ManifestError, match="conflicting tb_label"):
            data.load_manifest(manifest)

    @pytest.mark.parametrize("second", ["c1", "c2"], ids=["same-cougher", "two-coughers"])
    def test_duplicate_recording_id_rejected(self, tmp_path, second):
        manifest = write_tiny_manifest(tmp_path, [("r1", "c1", 1), ("r2", "c2", 0),
                                                  ("r1", second, 1 if second == "c1" else 0)])
        with pytest.raises(data.ManifestError, match="duplicate recording_id 'r1'"):
            data.load_manifest(manifest)

    def test_missing_audio_rejected(self, tmp_path):
        manifest = write_tiny_manifest(tmp_path, [("r1", "c1", 1)])
        (tmp_path / "audio" / "r1.wav").unlink()
        with pytest.raises(data.ManifestError, match="not found"):
            data.load_manifest(manifest)

    def test_missing_clinical_value_is_hard_error(self, tmp_path):
        manifest = write_tiny_manifest(tmp_path, [("r1", "c1", 1)])
        lines = manifest.read_text().splitlines()
        cells = lines[1].split(",")
        cells[data.MANIFEST_COLUMNS.index("fever")] = ""
        manifest.write_text(lines[0] + "\n" + ",".join(cells) + "\n")
        with pytest.raises(data.ManifestError, match="missing value"):
            data.load_manifest(manifest)

    def test_missing_column_rejected(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("recording_id,cougher_id\n")
        with pytest.raises(data.ManifestError, match="missing columns"):
            data.load_manifest(manifest)

    def test_recording_needs_waveform_or_path(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            data.CoughRecording("r1", "c1")
        with pytest.raises(ValueError, match="exactly one"):
            data.CoughRecording("r1", "c1", dsp.Waveform(np.ones(8), 16000), tmp_path / "r1.wav")

    def test_multichannel_audio_rejected(self, tmp_path):
        import wave

        manifest = write_tiny_manifest(tmp_path, [("r1", "c1", 1)])
        stereo = tmp_path / "audio" / "r1.wav"
        with wave.open(str(stereo), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(b"\x00\x00" * 400)
        recording = data.load_manifest(manifest)[0].recordings[0]
        with pytest.raises(data.ManifestError, match="mono"):
            recording.audio()


class TestScaler:
    def test_fit_columns_standardized_population_std(self):
        scaler = data.fit_scaler(np.array([[1.0], [2.0], [3.0]]))
        out = data.apply_scaler(scaler, np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_constant_column_passthrough_flagged(self):
        # a constant column gets mean 0 and std 1, so applying the scaler leaves it as it was
        X = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
        scaler = data.fit_scaler(X)
        assert (scaler.means[1], scaler.stds[1]) == (0.0, 1.0)
        assert scaler.means[0] == 2.0 and scaler.stds[0] != 1.0
        out = data.apply_scaler(scaler, X)
        np.testing.assert_array_equal(out[:, 1], X[:, 1])

    def test_fit_then_apply_centers(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 4)) * 3 + 1
        out = data.apply_scaler(data.fit_scaler(X), X)
        assert np.abs(out.mean(axis=0)).max() < 1e-12
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        scaler = data.fit_scaler(np.ones((3, 2)) + np.arange(3)[:, None])
        with pytest.raises(ValueError):
            data.apply_scaler(scaler, np.ones((3, 5)))


class TestSyntheticGenerator:
    def test_table1_shaped_statistics(self):
        cfg = synth.SyntheticConfig(seed=42)  # defaults target the real cohort
        coughers = synth.generate_synthetic(cfg)
        labels = np.array([c.tb_label for c in coughers])
        counts = np.array([len(c.recordings) for c in coughers])
        assert len(coughers) == 1105
        assert abs(labels.mean() - 295 / 1105) <= 0.02
        assert abs(counts.mean() - 9.03) <= 0.5
        assert counts.min() >= 3 and counts.max() <= 50

    def test_same_seed_bit_identical(self):
        cfg = synth.SyntheticConfig(n_coughers=6, coughs_mean=4, coughs_std=1,
                                    coughs_min=3, coughs_max=6, seed=11)
        a = synth.generate_synthetic(cfg)
        b = synth.generate_synthetic(cfg)
        assert [c.id for c in a] == [c.id for c in b]
        assert [c.tb_label for c in a] == [c.tb_label for c in b]
        assert all(ca.clinical == cb.clinical for ca, cb in zip(a, b))
        for ca, cb in zip(a, b):
            for ra, rb in zip(ca.recordings, cb.recordings):
                np.testing.assert_array_equal(ra.waveform.samples, rb.waveform.samples)

    def test_different_seed_differs(self):
        base = dict(n_coughers=6, coughs_mean=4, coughs_std=1, coughs_min=3, coughs_max=6)
        a = synth.generate_synthetic(synth.SyntheticConfig(seed=1, **base))
        b = synth.generate_synthetic(synth.SyntheticConfig(seed=2, **base))
        assert any(not np.array_equal(ra.waveform.samples, rb.waveform.samples)
                   for ca, cb in zip(a, b) for ra, rb in zip(ca.recordings, cb.recordings))

    def test_cohort_shape_matches_generated_cohort(self):
        cfg = synth.SyntheticConfig(n_coughers=12, coughs_mean=4, coughs_std=2,
                                    coughs_min=3, coughs_max=8, seed=4)
        assert synth.cohort_shape(cfg) == [(c.id, c.tb_label, len(c.recordings))
                                           for c in synth.iter_synthetic(cfg)]

    def test_infeasible_config_rejected(self):
        with pytest.raises(ValueError):
            synth.SyntheticConfig(coughs_min=10, coughs_max=5)
        with pytest.raises(ValueError):
            synth.SyntheticConfig(prevalence=1.5)

    def test_label_constant_within_cougher(self):
        cfg = synth.SyntheticConfig(n_coughers=10, coughs_mean=4, coughs_std=1,
                                    coughs_min=3, coughs_max=6, seed=3)
        for c in synth.generate_synthetic(cfg):
            assert all(r.cougher_id == c.id for r in c.recordings)

    def test_export_roundtrip(self, tmp_path):
        cfg = synth.SyntheticConfig(n_coughers=4, coughs_mean=3, coughs_std=0.5,
                                    coughs_min=3, coughs_max=4, seed=5)
        coughers = synth.generate_synthetic(cfg)
        manifest = synth.export_dataset(coughers, tmp_path)
        loaded = data.load_manifest(manifest)
        assert [c.id for c in loaded] == [c.id for c in coughers]
        assert [c.tb_label for c in loaded] == [c.tb_label for c in coughers]
        orig = coughers[0].recordings[0].waveform.samples
        back = loaded[0].recordings[0].audio().samples
        assert np.abs(orig - back).max() < 1.0 / 32768  # PCM16 quantization only

    def test_zero_signal_null_auc(self, synthetic_table):
        # no-signal control: grouped split + LR, cougher-level AUC near chance
        aucs = []
        for seed in range(20):
            cfg = synth.SyntheticConfig(n_coughers=100, prevalence=0.3, coughs_mean=4,
                                        coughs_std=1.5, coughs_min=3, coughs_max=6,
                                        signal_strength_audio=0.0,
                                        signal_strength_clinical=0.0, seed=seed)
            table = synthetic_table(cfg)
            ids, labels, counts = table.coughers()
            folds = stratified_group_kfold(labels, counts, 2, seed=seed)
            train = [c for c, f in zip(ids, folds) if f == 0]
            tr = np.isin(table.cougher_ids, train)
            te = ~tr
            X = table.features
            scaler = data.fit_scaler(X[tr])
            m = models.fit_lr(data.apply_scaler(scaler, X[tr]), table.labels[tr],
                              C=0.01, class_weight="balanced")
            probs = models.predict_model(m, data.apply_scaler(scaler, X[te]))
            cids, agg = aggregate_cougher(probs, table.cougher_ids[te])
            label_of = dict(zip(ids, labels))
            y = np.array([label_of[c] for c in cids])
            aucs.append(roc_auc(agg, y))
        assert 0.45 <= float(np.mean(aucs)) <= 0.55
