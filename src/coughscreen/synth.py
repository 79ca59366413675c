"""Statistics-matched synthetic cough datasets for desk-scale verification.

Real cough/TB data is access-restricted, so verification runs on
synthetic coughers whose summary statistics can be dialed to match the
target cohort: label prevalence, a clipped discretized-normal count of
coughs per cougher, and two signal knobs.

``signal_strength_audio`` shifts the spectral tilt (one-pole lowpass
coefficient) of TB-positive coughs, which moves centroid, bandwidth, and
MFCC features. ``signal_strength_clinical`` shifts symptom probabilities
and vitals for TB-positive coughers. Both at 0 produce a label-free null
dataset. Generation is a pure function of the config (same seed, same
bytes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp
from .data import (ClinicalRecord, ConfigError, Cougher, CoughRecording, _int_at_least,
                   _is_int, _is_real, check_object, write_manifest)

# Upper bounds on the cohort's size, far above the paper's 1,105 coughers and
# 50 coughs each; they keep the shape draw small and its counts inside int64.
MAX_COUGHERS = 10 ** 6
MAX_COUGHS = 10 ** 4


def _int_in(low: int, high: int) -> tuple:
    return (lambda v: _is_int(v) and low <= v <= high, f"an integer in [{low}, {high}]")


# SyntheticConfig field -> (check, what it must be)
_SYNTH_RULES = {
    "n_coughers": _int_in(1, MAX_COUGHERS),
    "prevalence": (lambda v: _is_real(v) and 0 < v < 1, "a number in (0, 1)"),
    "coughs_mean": (_is_real, "a number"),
    "coughs_std": (lambda v: _is_real(v) and v >= 0, "a number >= 0"),
    "coughs_min": _int_in(1, MAX_COUGHS),
    "coughs_max": _int_in(1, MAX_COUGHS),
    "signal_strength_audio": (lambda v: _is_real(v) and v >= 0, "a number >= 0"),
    "signal_strength_clinical": (lambda v: _is_real(v) and v >= 0, "a number >= 0"),
    "seed": _int_at_least(0),
}


@dataclass(frozen=True)
class SyntheticConfig:
    n_coughers: int = 1105
    prevalence: float = 295 / 1105
    coughs_mean: float = 9.03
    coughs_std: float = 5.7
    coughs_min: int = 3
    coughs_max: int = 50
    signal_strength_audio: float = 1.0
    signal_strength_clinical: float = 1.0
    seed: int = 42

    def __post_init__(self):
        check_object(_SYNTH_RULES, vars(self))
        if self.coughs_min > self.coughs_max:
            raise ConfigError(f"coughs_min {self.coughs_min} exceeds coughs_max {self.coughs_max}")


def _cough_audio(rng: np.random.Generator, label: int, strength: float,
                 cougher_tilt: float) -> dsp.Waveform:
    """One 0.5 s noise burst; the lowpass pole shifts with the label."""
    from scipy.signal import lfilter  # loaded on first use: it doubles the CLI's start time
    n = int(0.5 * dsp.TARGET_SAMPLE_RATE_HZ)
    pole = np.clip(0.55 + 0.05 * strength * label + cougher_tilt
                   + rng.normal(0.0, 0.04), 0.0, 0.97)
    noise = rng.standard_normal(n)
    shaped = lfilter([1.0 - pole], [1.0, -pole], noise)
    t = np.arange(n) / dsp.TARGET_SAMPLE_RATE_HZ
    decay = 0.12 * (1.0 + rng.uniform(-0.2, 0.2))
    envelope = np.minimum(t / 0.01, 1.0) * np.exp(-t / decay)
    burst = shaped * envelope
    rms = math.sqrt(float(np.mean(burst ** 2))) or 1.0
    burst *= 0.15 * math.exp(rng.normal(0.0, 0.2)) / rms
    return dsp.Waveform(np.clip(burst, -0.999, 0.999), dsp.TARGET_SAMPLE_RATE_HZ)


def _bern(rng, p) -> int:
    return int(rng.random() < np.clip(p, 0.0, 0.95))


def _clinical(rng: np.random.Generator, label: int, s: float) -> ClinicalRecord:
    shift = s * label
    prior = _bern(rng, 0.08 + 0.06 * shift)
    sub = rng.random()
    return ClinicalRecord(
        age=float(np.clip(rng.normal(41, 13), 18, 90)),
        sex=_bern(rng, 0.55),
        height=float(np.clip(rng.normal(164, 9), 140, 200)),
        weight=float(np.clip(rng.normal(62, 11) - 3.0 * shift, 35, 120)),
        cough_duration=float(np.clip(rng.lognormal(math.log(21), 0.5)
                                     * (1.0 + 0.2 * shift), 14, 365)),
        prior_tb=prior,
        prior_tb_pulmonary=int(prior and sub < 0.6),
        prior_tb_extrapulmonary=int(prior and 0.6 <= sub < 0.8),
        prior_tb_unknown=int(prior and sub >= 0.8),
        hemoptysis=_bern(rng, 0.06 + 0.10 * shift),
        heart_rate=float(np.clip(rng.normal(82, 10) + 4.0 * shift, 45, 160)),
        temperature=float(np.clip(rng.normal(36.7, 0.35) + 0.20 * shift, 35, 41)),
        smoked_last_week=_bern(rng, 0.25),
        fever=_bern(rng, 0.25 + 0.18 * shift),
        night_sweats=_bern(rng, 0.22 + 0.18 * shift),
        weight_loss=_bern(rng, 0.25 + 0.20 * shift),
    )


def _draw_shape(rng: np.random.Generator, cfg: SyntheticConfig) -> list:
    """(cougher id, label, recording count) per cougher: the generator's first draws."""
    labels = (rng.random(cfg.n_coughers) < cfg.prevalence).astype(int)
    counts = np.clip(np.rint(rng.normal(cfg.coughs_mean, cfg.coughs_std, cfg.n_coughers)),
                     cfg.coughs_min, cfg.coughs_max).astype(int)
    width = len(str(cfg.n_coughers))
    return [(f"c{i + 1:0{width}d}", int(labels[i]), int(counts[i]))
            for i in range(cfg.n_coughers)]


def cohort_shape(cfg: SyntheticConfig) -> list:
    """(cougher id, label, recording count) of every cougher ``iter_synthetic`` yields,
    in order, without generating any audio."""
    return _draw_shape(np.random.default_rng(cfg.seed), cfg)


def iter_synthetic(cfg: SyntheticConfig):
    """Yield the synthetic cohort one cougher at a time, deterministic under cfg.seed.

    Only the cougher being yielded holds waveforms, so a consumer that keeps
    no cougher holds no more than one cougher's audio.
    """
    rng = np.random.default_rng(cfg.seed)
    for cid, label, count in _draw_shape(rng, cfg):
        cougher_tilt = rng.normal(0.0, 0.05)
        clinical = _clinical(rng, label, cfg.signal_strength_clinical)
        recordings = tuple(
            CoughRecording(f"{cid}_r{j + 1:02d}", cid,
                           _cough_audio(rng, label, cfg.signal_strength_audio, cougher_tilt))
            for j in range(count)
        )
        yield Cougher(cid, label, clinical, recordings)


def generate_synthetic(cfg: SyntheticConfig) -> list:
    """Generate a synthetic cohort of coughers, deterministic under cfg.seed."""
    return list(iter_synthetic(cfg))


def export_dataset(coughers, outdir) -> Path:
    """Write the cohort as WAV files plus a manifest; returns the manifest path.

    ``coughers`` may be a generator: each cougher's WAVs are written as it
    arrives, and no cougher is kept.
    """
    outdir = Path(outdir)
    audio_dir = outdir / "audio"
    audio_dir.mkdir(parents=True, exist_ok=True)
    wav_paths = {}

    def written():
        for c in coughers:
            for rec in c.recordings:
                wav_paths[rec.id] = f"audio/{rec.id}.wav"
                dsp.write_wav(outdir / wav_paths[rec.id], rec.audio())
            yield c

    manifest = outdir / "manifest.csv"
    write_manifest(written(), manifest, wav_paths)
    return manifest
