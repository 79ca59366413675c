"""Per-frame acoustic descriptors and their distributional summaries.

Each frame is described by 29 values: 4 spectral shape statistics
(centroid, bandwidth, 85% roll-off, flatness), 13 MFCCs, and 12 chroma
energies. Each of the 29 trajectories is then compressed into 9
functionals (mean, std, skewness, kurtosis, and the 10/25/50/75/90th
percentiles), producing a fixed 261-value vector per recording. Every
descriptor takes (..., L, 1025) spectra from ``dsp.magnitude_spectrum``,
the magnitudes ``X`` or the power ``P = X ** 2``, and returns one value (or
row) per frame. ``extract_batch`` analyses a stack of equal-length clips;
``extract_all`` streams any number of recordings through it in batches of
a bounded number of frames.

Conventions for degenerate frames (all-zero spectrum): centroid,
bandwidth, roll-off, flatness, and chroma are all defined as 0 so that
silence maps to a finite vector.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dct
from scipy.sparse import csr_array

from .dsp import (BIN_FREQS_HZ, HOP_SAMPLES, TARGET_SAMPLE_RATE_HZ, Waveform, frame,
                  magnitude_spectrum)

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
MIN_SAMPLES = TARGET_SAMPLE_RATE_HZ // 2  # clips are tail-padded to 0.5 s
# A batch of clips is extracted once it reaches this many frames (four 0.5 s
# clips). It bounds the waveforms and the (N, L, 1025) spectra held at once.
BATCH_FRAMES = 128

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


def spectral_centroid(X: np.ndarray) -> np.ndarray:
    """Magnitude-weighted mean frequency per frame; 0 for all-zero frames."""
    total = X.sum(axis=-1)
    # einsum's own loop, not BLAS: the same bytes at any thread count, and no
    # (..., L, 1025) temporary
    weighted = np.einsum("...k,k->...", X, BIN_FREQS_HZ)
    return np.divide(weighted, total, out=np.zeros_like(total), where=total > 0)


def spectral_bandwidth(X: np.ndarray, centroid: np.ndarray | None = None) -> np.ndarray:
    """Second-order magnitude-weighted spread around the centroid (unnormalized);
    ``centroid`` is ``spectral_centroid(X)``, computed here when not given."""
    if centroid is None:
        centroid = spectral_centroid(X)
    dev = np.abs(BIN_FREQS_HZ - centroid[..., None]) ** BANDWIDTH_ORDER
    return (X * dev).sum(axis=-1) ** (1.0 / BANDWIDTH_ORDER)


def spectral_rolloff(P: np.ndarray) -> np.ndarray:
    """Lowest bin frequency where cumulative energy reaches 85% of the total."""
    cum = np.cumsum(P, axis=-1)
    idx = np.argmax(cum >= ROLLOFF_FRACTION * cum[..., -1:], axis=-1)
    return BIN_FREQS_HZ[idx]


def spectral_flatness(P: np.ndarray) -> np.ndarray:
    """Geometric over arithmetic mean of the floored power spectrum, in [0, 1].

    All-zero frames return 0 by convention (a silent frame is treated as
    maximally non-noise-like rather than flat).
    """
    nonzero = P.sum(axis=-1) > 0
    floored = np.maximum(P, FLATNESS_FLOOR)
    gmean = np.exp(np.mean(np.log(floored), axis=-1))
    amean = np.mean(floored, axis=-1)
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


def _mel_filterbank() -> csr_array:
    """(40, 1025) triangular unit-peak mel filters evaluated at the bin frequencies.

    Edge frequencies are 42 points equally spaced on the mel scale between
    0 and 8000 Hz; filter m rises from edge m to edge m+1 and falls to m+2.
    """
    mel_edges = np.linspace(_hz_to_mel(MEL_FMIN_HZ), _hz_to_mel(MEL_FMAX_HZ), N_MEL_FILTERS + 2)
    hz_edges = _mel_to_hz(mel_edges)[:, None]
    lo, mid, hi = hz_edges[:-2], hz_edges[1:-1], hz_edges[2:]
    rising = (BIN_FREQS_HZ - lo) / (mid - lo)
    falling = (hi - BIN_FREQS_HZ) / (hi - mid)
    return csr_array(np.maximum(0.0, np.minimum(rising, falling)))


def _chroma_fold() -> csr_array:
    """(12, 1025) indicator matrix folding FFT bins into pitch classes."""
    audible = np.flatnonzero(BIN_FREQS_HZ > CHROMA_MIN_HZ)
    semitones = np.rint(12.0 * np.log2(BIN_FREQS_HZ[audible] / CHROMA_REF_HZ)).astype(int)
    classes = (semitones + 9) % N_CHROMA  # A440 is pitch class 9 when C is 0
    return csr_array((np.ones(audible.size), (classes, audible)),
                     shape=(N_CHROMA, BIN_FREQS_HZ.size))


MEL_FILTERBANK = _mel_filterbank()
CHROMA_FOLD = _chroma_fold()
MEL_FILTERBANK.data.setflags(write=False)
CHROMA_FOLD.data.setflags(write=False)


def _fold(M: csr_array, P: np.ndarray) -> np.ndarray:
    """(..., 1025) spectra folded by the sparse (K, 1025) ``M``: (..., K).

    scipy's CSR-times-dense product is single-threaded and sums each output
    over the row's stored bins in a fixed order, and every frame is its own
    column, so a frame's values depend neither on the BLAS thread count nor
    on the batch its clip is in.
    """
    return (M @ P.reshape(-1, P.shape[-1]).T).T.reshape(*P.shape[:-1], M.shape[0])


def mfcc(P: np.ndarray) -> np.ndarray:
    """13 mel-frequency cepstral coefficients per frame.

    Power spectrum -> mel filterbank energies -> floored log -> orthonormal
    DCT-II, keeping the first 13 coefficients (DC included).
    """
    mel_energy = _fold(MEL_FILTERBANK, P)
    log_energy = np.log(np.maximum(mel_energy, LOG_FLOOR))
    return dct(log_energy, type=2, norm="ortho", axis=-1)[..., :N_MFCC]


def chroma(P: np.ndarray) -> np.ndarray:
    """12-class pitch energy profile per frame, max-normalized to [0, 1]."""
    energy = _fold(CHROMA_FOLD, P)
    peak = energy.max(axis=-1, keepdims=True)
    return np.divide(energy, peak, out=np.zeros_like(energy), where=peak > 0)


def summarize(trajectories) -> np.ndarray:
    """Distributional summary of feature trajectories, one row per column.

    Takes (..., L, F) stacks of F trajectories of length L and returns
    (..., F, 9); a 1-D (L,) trajectory gives (9,). The 9 functionals are, in
    order, mean, std, skew, kurt, p10, p25, p50, p75, p90. std uses the L-1
    denominator (0 when L = 1). Skewness is the bias-corrected third moment
    ratio sqrt(L(L-1))/(L-2) * m3/m2^1.5 and kurtosis is
    (L+1)L/((L-1)^3 (L-2)(L-3)) * sum((x-mu)^4)/s^4 minus the
    3(L-1)^2/((L-2)(L-3)) correction, with s the L-1 standard deviation.
    Both are defined as 0 on constant or too-short trajectories (skew needs
    L >= 3, kurtosis L >= 4). Percentiles interpolate linearly between
    order statistics.
    """
    x = np.asarray(trajectories, dtype=np.float64)
    if x.ndim == 1:
        return summarize(x[:, None])[0]
    if x.ndim == 0 or x.shape[-2] == 0:
        raise ValueError("trajectories must be a nonempty (L,) or (..., L, F) array")
    n = x.shape[-2]
    # one contiguous row per trajectory, so every sum runs along a row in the
    # same order as on a lone 1-D trajectory
    rows = np.ascontiguousarray(np.swapaxes(x, -1, -2))
    mu = rows.mean(axis=-1)
    dev = rows - mu[..., None]
    ss = np.sum(dev ** 2, axis=-1)
    std = np.sqrt(ss / (n - 1)) if n > 1 else np.zeros_like(mu)
    varying = std > 0

    skew = np.zeros_like(mu)
    if n >= 3:
        m2, m3 = ss[varying] / n, np.mean(dev[varying] ** 3, axis=-1)
        # scalar powers go through libm; numpy's SIMD power can differ by an ulp
        m2_15 = np.array([m ** 1.5 for m in m2.tolist()])
        skew[varying] = np.sqrt(n * (n - 1)) / (n - 2) * m3 / m2_15

    kurt = np.zeros_like(mu)
    if n >= 4:
        lead = (n + 1) * n / ((n - 1) ** 3 * (n - 2) * (n - 3))
        std4 = np.array([s ** 4 for s in std[varying].tolist()])
        kurt[varying] = (lead * np.sum(dev[varying] ** 4, axis=-1) / std4
                         - 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3)))

    pct = np.percentile(rows, [10, 25, 50, 75, 90], axis=-1)
    return np.stack([mu, std, skew, kurt, *pct], axis=-1)


def frame_features(X: np.ndarray) -> np.ndarray:
    """All 29 per-frame descriptors of (..., L, 1025) magnitude spectra: (..., L, 29),
    columns in the documented order."""
    P = X ** 2
    centroid = spectral_centroid(X)
    cols = [centroid, spectral_bandwidth(X, centroid), spectral_rolloff(P),
            spectral_flatness(P)]
    out = np.concatenate([np.stack(cols, axis=-1), mfcc(P), chroma(P)], axis=-1)
    assert out.shape[-1] == N_FRAME_FEATURES
    return out


def _frame_count(n_samples: int) -> int:
    """Frames ``extract_batch`` analyses in an n-sample clip, tail pad included."""
    return 1 + max(n_samples, MIN_SAMPLES) // HOP_SAMPLES


def extract_batch(samples) -> np.ndarray:
    """Feature vectors of N equal-length 16 kHz clips: (N, n) samples -> (N, 261).

    Clips shorter than 0.5 s are tail-padded with zeros first; this is the
    one place the pipeline pads. Each row is byte-identical to the clip's
    row in any other batch. The layout is, for each of the 29 frame features
    in order, its 9 functionals in the order mean, std, skew, kurt, p10..p90.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] == 0:
        raise ValueError("extract_batch takes a nonempty (N, n) array of clips")
    short = MIN_SAMPLES - samples.shape[1]
    if short > 0:
        samples = np.pad(samples, ((0, 0), (0, short)))
    X = magnitude_spectrum(frame(samples))
    return summarize(frame_features(X)).reshape(len(samples), VECTOR_LENGTH)


def _samples_16k(w: Waveform) -> np.ndarray:
    if w.sample_rate_hz != TARGET_SAMPLE_RATE_HZ:
        raise ValueError(f"extraction expects {TARGET_SAMPLE_RATE_HZ} Hz audio, "
                         f"got {w.sample_rate_hz} Hz (resample first)")
    return w.samples


def extract(w: Waveform) -> np.ndarray:
    """Full 261-value feature vector for one 16 kHz recording (see ``extract_batch``)."""
    return extract_batch(_samples_16k(w)[None, :])[0]


def _extract_grouped(clips: list) -> np.ndarray:
    """(len(clips), 261) rows of 1-D clips, one ``extract_batch`` call per frame count.

    Clips with the same frame count are zero-extended to one length; the
    extension only overwrites zeros that centered framing pads the tail with,
    so no frame changes.
    """
    out = np.empty((len(clips), VECTOR_LENGTH))
    groups: dict = {}
    for i, s in enumerate(clips):
        groups.setdefault(_frame_count(s.size), []).append(i)
    for rows in groups.values():
        block = np.zeros((len(rows), max(clips[i].size for i in rows)))
        for r, i in enumerate(rows):
            block[r, : clips[i].size] = clips[i]
        out[rows] = extract_batch(block)
    return out


def extract_all(waveforms) -> np.ndarray:
    """Feature vectors of an iterable of 16 kHz waveforms, (R, 261) in input order.

    The waveforms are consumed in batches of about ``BATCH_FRAMES`` frames, so
    at most one batch of them is held at a time however long the iterable is.
    """
    parts, batch, frames = [], [], 0
    for w in waveforms:
        batch.append(_samples_16k(w))
        frames += _frame_count(batch[-1].size)
        if frames >= BATCH_FRAMES:
            parts.append(_extract_grouped(batch))
            batch, frames = [], 0
    if batch:
        parts.append(_extract_grouped(batch))
    return np.concatenate(parts) if parts else np.empty((0, VECTOR_LENGTH))
