"""Per-frame acoustic descriptors and their distributional summaries.

Each frame is described by 29 values: 4 spectral shape statistics
(centroid, bandwidth, 85% roll-off, flatness), 13 MFCCs, and 12 chroma
energies. Each of the 29 trajectories is then compressed into 9
functionals (mean, std, skewness, kurtosis, and the 10/25/50/75/90th
percentiles), producing a fixed 261-value vector per recording.

Conventions for degenerate frames (all-zero spectrum): centroid,
bandwidth, roll-off, flatness, and chroma are all defined as 0 so that
silence maps to a finite vector.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.fft import dct

from .dsp import (
    MagnitudeSpectra,
    TARGET_SAMPLE_RATE_HZ,
    Waveform,
    frame,
    magnitude_spectrum,
    pad_to_duration,
    window_hamming,
)

N_MFCC = 13
N_CHROMA = 12
N_MEL_FILTERS = 40
MEL_FMIN_HZ = 0.0
MEL_FMAX_HZ = 8000.0
ROLLOFF_FRACTION = 0.85
BANDWIDTH_ORDER = 2
FLATNESS_FLOOR = 1e-10
LOG_FLOOR = 1e-10
CHROMA_MIN_HZ = 27.5
CHROMA_REF_HZ = 440.0  # reference A4; pitch class C has index 0

FRAME_FEATURE_NAMES = (
    ["centroid", "bandwidth", "rolloff85", "flatness"]
    + [f"mfcc{i:02d}" for i in range(N_MFCC)]
    + [f"chroma{i:02d}" for i in range(N_CHROMA)]
)
FUNCTIONAL_NAMES = ["mean", "std", "skew", "kurt", "p10", "p25", "p50", "p75", "p90"]
VECTOR_COLUMN_NAMES = [f"{feat}_{func}" for feat in FRAME_FEATURE_NAMES
                       for func in FUNCTIONAL_NAMES]
N_FRAME_FEATURES = len(FRAME_FEATURE_NAMES)
VECTOR_LENGTH = len(VECTOR_COLUMN_NAMES)


def spectral_centroid(spectra: MagnitudeSpectra) -> np.ndarray:
    """Magnitude-weighted mean frequency per frame; 0 for all-zero frames."""
    total = spectra.X.sum(axis=1)
    weighted = spectra.X @ spectra.bin_freqs
    return np.divide(weighted, total, out=np.zeros_like(total), where=total > 0)


def spectral_bandwidth(spectra: MagnitudeSpectra, p: int = BANDWIDTH_ORDER) -> np.ndarray:
    """p-th order magnitude-weighted spread around the centroid (unnormalized)."""
    centroid = spectral_centroid(spectra)
    dev = np.abs(spectra.bin_freqs[None, :] - centroid[:, None]) ** p
    return (spectra.X * dev).sum(axis=1) ** (1.0 / p)


def spectral_rolloff(spectra: MagnitudeSpectra,
                     fraction: float = ROLLOFF_FRACTION) -> np.ndarray:
    """Lowest bin frequency where cumulative energy reaches ``fraction`` of total."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("rolloff fraction must lie in (0, 1)")
    energy = spectra.X ** 2
    cum = np.cumsum(energy, axis=1)
    threshold = fraction * cum[:, -1:]
    idx = np.argmax(cum >= threshold, axis=1)
    return spectra.bin_freqs[idx]


def spectral_flatness(spectra: MagnitudeSpectra) -> np.ndarray:
    """Geometric over arithmetic mean of the floored power spectrum, in [0, 1].

    All-zero frames return 0 by convention (a silent frame is treated as
    maximally non-noise-like rather than flat).
    """
    power = spectra.X ** 2
    nonzero = power.sum(axis=1) > 0
    floored = np.maximum(power, FLATNESS_FLOOR)
    gmean = np.exp(np.mean(np.log(floored), axis=1))
    amean = np.mean(floored, axis=1)
    return np.where(nonzero, gmean / amean, 0.0)


def _hz_to_mel(f):
    # Slaney-style scale: linear below 1 kHz, logarithmic above.
    f = np.asarray(f, dtype=np.float64)
    mel = f / (200.0 / 3.0)
    log_region = f >= 1000.0
    mel = np.where(log_region, 15.0 + 27.0 * np.log(np.maximum(f, 1.0) / 1000.0) / np.log(6.4), mel)
    return mel


def _mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    f = m * (200.0 / 3.0)
    log_region = m >= 15.0
    return np.where(log_region, 1000.0 * np.exp(np.log(6.4) * (m - 15.0) / 27.0), f)


@lru_cache(maxsize=8)
def mel_filterbank(sample_rate_hz: int, n_fft: int, n_filters: int = N_MEL_FILTERS,
                   fmin_hz: float = MEL_FMIN_HZ, fmax_hz: float = MEL_FMAX_HZ) -> np.ndarray:
    """Triangular unit-peak mel filters evaluated at the FFT bin frequencies.

    Returns an (n_filters, n_fft//2 + 1) weight matrix. Edge frequencies are
    n_filters + 2 points equally spaced on the mel scale between fmin and fmax.
    """
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate_hz / n_fft)
    mel_edges = np.linspace(_hz_to_mel(fmin_hz), _hz_to_mel(fmax_hz), n_filters + 2)
    hz_edges = _mel_to_hz(mel_edges)
    fb = np.zeros((n_filters, bin_freqs.size))
    for m in range(n_filters):
        lo, mid, hi = hz_edges[m], hz_edges[m + 1], hz_edges[m + 2]
        rising = (bin_freqs - lo) / (mid - lo)
        falling = (hi - bin_freqs) / (hi - mid)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


def mfcc(spectra: MagnitudeSpectra, n_mfcc: int = N_MFCC) -> np.ndarray:
    """Mel-frequency cepstral coefficients per frame.

    Power spectrum -> mel filterbank energies -> floored log -> orthonormal
    DCT-II, keeping the first ``n_mfcc`` coefficients (DC included).
    """
    fb = mel_filterbank(spectra.sample_rate_hz, spectra.n_fft)
    mel_energy = (spectra.X ** 2) @ fb.T
    log_energy = np.log(np.maximum(mel_energy, LOG_FLOOR))
    return dct(log_energy, type=2, norm="ortho", axis=1)[:, :n_mfcc]


@lru_cache(maxsize=8)
def _chroma_folding(sample_rate_hz: int, n_fft: int, n_bins: int) -> np.ndarray:
    """(n_fft//2 + 1, n_bins) indicator matrix folding FFT bins into pitch classes."""
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate_hz / n_fft)
    fold = np.zeros((bin_freqs.size, n_bins))
    audible = bin_freqs > CHROMA_MIN_HZ
    semitones = np.rint(12.0 * np.log2(bin_freqs[audible] / CHROMA_REF_HZ)).astype(int)
    classes = (semitones + 9) % n_bins  # A440 is pitch class 9 when C is 0
    fold[np.flatnonzero(audible), classes] = 1.0
    return fold


def chroma(spectra: MagnitudeSpectra, n_bins: int = N_CHROMA) -> np.ndarray:
    """Pitch-class energy profile per frame, max-normalized to [0, 1]."""
    fold = _chroma_folding(spectra.sample_rate_hz, spectra.n_fft, n_bins)
    energy = (spectra.X ** 2) @ fold
    peak = energy.max(axis=1, keepdims=True)
    return np.divide(energy, peak, out=np.zeros_like(energy), where=peak > 0)


def summarize(trajectories) -> np.ndarray:
    """Distributional summary of feature trajectories, one row per column.

    Takes an (L, F) matrix of F trajectories of length L and returns (F, 9);
    a 1-D (L,) trajectory gives (9,). The 9 functionals are, in order, mean,
    std, skew, kurt, p10, p25, p50, p75, p90. std uses the L-1 denominator
    (0 when L = 1). Skewness is the bias-corrected third moment ratio
    sqrt(L(L-1))/(L-2) * m3/m2^1.5 and kurtosis is
    (L+1)L/((L-1)^3 (L-2)(L-3)) * sum((x-mu)^4)/s^4 minus the
    3(L-1)^2/((L-2)(L-3)) correction, with s the L-1 standard deviation.
    Both are defined as 0 on constant or too-short trajectories (skew needs
    L >= 3, kurtosis L >= 4). Percentiles interpolate linearly between
    order statistics.
    """
    x = np.asarray(trajectories, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] == 0:
        raise ValueError("trajectories must be a nonempty (L,) or (L, F) array")
    if x.ndim == 1:
        return summarize(x[:, None])[0]
    n = x.shape[0]
    # one contiguous row per trajectory, so every sum runs along a row in the
    # same order as on a lone 1-D trajectory
    rows = np.ascontiguousarray(x.T)
    mu = rows.mean(axis=1)
    dev = rows - mu[:, None]
    ss = np.sum(dev ** 2, axis=1)
    std = np.sqrt(ss / (n - 1)) if n > 1 else np.zeros_like(mu)
    varying = std > 0

    skew = np.zeros_like(mu)
    if n >= 3:
        m2, m3 = ss[varying] / n, np.mean(dev[varying] ** 3, axis=1)
        # scalar powers go through libm; numpy's SIMD power can differ by an ulp
        m2_15 = np.array([m ** 1.5 for m in m2.tolist()])
        skew[varying] = np.sqrt(n * (n - 1)) / (n - 2) * m3 / m2_15

    kurt = np.zeros_like(mu)
    if n >= 4:
        lead = (n + 1) * n / ((n - 1) ** 3 * (n - 2) * (n - 3))
        std4 = np.array([s ** 4 for s in std[varying].tolist()])
        kurt[varying] = (lead * np.sum(dev[varying] ** 4, axis=1) / std4
                         - 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3)))

    pct = np.percentile(rows, [10, 25, 50, 75, 90], axis=1)
    return np.column_stack([mu, std, skew, kurt, pct.T])


def frame_features(spectra: MagnitudeSpectra) -> np.ndarray:
    """All 29 per-frame descriptors, columns in the documented order."""
    cols = [
        spectral_centroid(spectra),
        spectral_bandwidth(spectra),
        spectral_rolloff(spectra),
        spectral_flatness(spectra),
    ]
    out = np.column_stack(cols + [mfcc(spectra), chroma(spectra)])
    assert out.shape[1] == N_FRAME_FEATURES
    return out


def extract(w: Waveform) -> np.ndarray:
    """Full 261-value feature vector for one 16 kHz recording.

    Recordings shorter than 0.5 s are tail-padded with zeros first. The
    layout is, for each of the 29 frame features in order, its 9
    functionals in the order mean, std, skew, kurt, p10..p90.
    """
    if w.sample_rate_hz != TARGET_SAMPLE_RATE_HZ:
        raise ValueError(f"extract expects {TARGET_SAMPLE_RATE_HZ} Hz audio, "
                         f"got {w.sample_rate_hz} Hz (resample first)")
    padded = pad_to_duration(w)
    spectra = magnitude_spectrum(window_hamming(frame(padded)))
    vec = summarize(frame_features(spectra)).ravel()
    assert vec.shape == (VECTOR_LENGTH,)
    return vec
