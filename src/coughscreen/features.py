"""Per-frame acoustic descriptors and their distributional summaries.

Each frame is described by 29 values: 4 spectral shape statistics
(centroid, bandwidth, 85% roll-off, flatness), 13 MFCCs, and 12 chroma
energies. Each of the 29 trajectories is then compressed into 9
functionals (mean, std, skewness, kurtosis, and the 10/25/50/75/90th
percentiles), producing a fixed 261-value vector per recording. Every
descriptor returns one value (or row) per frame of (..., L, 1025) spectra from
``dsp.magnitude_spectrum``. It takes the magnitudes ``X``, the power
``P = X ** 2`` or the intermediates that ``frame_features`` computes once and
shares: bandwidth takes the centroid, MFCC and chroma ``fold_spectra(P)``.
``extract`` analyses one recording; ``extract_all`` streams any number of them
in batches of a bounded number of frames, analysing the clips of a batch that
share a frame count as one stack.

Conventions for degenerate frames (all-zero spectrum): centroid,
bandwidth, roll-off, flatness, and chroma are all defined as 0 so that
silence maps to a finite vector.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dct
from scipy.sparse import csr_array, vstack

from .dsp import BIN_FREQS_HZ, TARGET_SAMPLE_RATE_HZ, Waveform, frame, magnitude_spectrum

N_MFCC = 13
N_CHROMA = 12
N_MEL_FILTERS = 40
MEL_FMIN_HZ = 0.0
MEL_FMAX_HZ = 8000.0
ROLLOFF_FRACTION = 0.85
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
PERCENTILES = (10, 25, 50, 75, 90)
FUNCTIONAL_NAMES = ["mean", "std", "skew", "kurt"] + [f"p{q}" for q in PERCENTILES]
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


def spectral_bandwidth(X: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """Second-order magnitude-weighted spread around the centroid (unnormalized);
    ``centroid`` is ``spectral_centroid(X)``."""
    # one (..., L, 1025) buffer: the signed deviation, squared (|d|^2 = d^2
    # exactly), then weighted by X
    dev = BIN_FREQS_HZ - centroid[..., None]
    np.multiply(dev, dev, out=dev)
    np.multiply(dev, X, out=dev)
    return np.sqrt(dev.sum(axis=-1))


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
    amean = floored.mean(axis=-1)
    gmean = np.exp(np.log(floored, out=floored).mean(axis=-1))
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
# both folds as one (52, 1025) matrix, so each batch of spectra is transposed
# and folded once; every row still sums its own stored bins in the same order
SPECTRAL_FOLD = vstack([MEL_FILTERBANK, CHROMA_FOLD], format="csr")
MEL_FILTERBANK.data.setflags(write=False)
CHROMA_FOLD.data.setflags(write=False)
SPECTRAL_FOLD.data.setflags(write=False)


def fold_spectra(P: np.ndarray) -> np.ndarray:
    """(..., 1025) power spectra folded by ``SPECTRAL_FOLD``: (..., 52), the 40
    mel-band energies, then the 12 pitch-class energies.

    scipy's CSR-times-dense product is single-threaded and sums each output
    over the row's stored bins in a fixed order, and every frame is its own
    column, so a frame's values depend neither on the BLAS thread count nor
    on the batch its clip is in.
    """
    M = SPECTRAL_FOLD
    return (M @ P.reshape(-1, P.shape[-1]).T).T.reshape(*P.shape[:-1], M.shape[0])


def mfcc(folded: np.ndarray) -> np.ndarray:
    """13 mel-frequency cepstral coefficients per frame of ``fold_spectra(P)``.

    Power spectrum -> mel filterbank energies -> floored log -> orthonormal
    DCT-II, keeping the first 13 coefficients (DC included).
    """
    log_energy = np.log(np.maximum(folded[..., :N_MEL_FILTERS], LOG_FLOOR))
    return dct(log_energy, type=2, norm="ortho", axis=-1)[..., :N_MFCC]


def chroma(folded: np.ndarray) -> np.ndarray:
    """12-class pitch energy profile per frame of ``fold_spectra(P)``, max-normalized
    to [0, 1]."""
    energy = folded[..., N_MEL_FILTERS:]
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
    L >= 3, kurtosis L >= 4). The third and fourth central moments are
    product moments, (d*d)*d and (d*d)*(d*d) for each deviation d.
    Percentiles are numpy's linear rule (Hyndman & Fan type 7) applied to
    each sorted row: they equal ``np.percentile`` byte for byte, except that
    on a row holding both -0.0 and +0.0 a zero percentile's sign can differ.
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
    out = np.zeros(rows.shape[:-1] + (len(FUNCTIONAL_NAMES),))
    with np.errstate(over="ignore"):  # a row that overflows is scaled below
        mu = rows.mean(axis=-1)
        dev = rows - mu[..., None]
        sq = dev * dev
        ss = sq.sum(axis=-1)
    # Past 2**510 (values from about 1e77) a fourth power, cube or square overflows, and
    # below 2**-400 it is subnormal; a row's sum may overflow too. Such a row is scaled to
    # a largest magnitude in [0.5, 1), which mean and std undo and skew and kurt ignore.
    scaled = ~np.isnan(mu) & ~((2.0 ** -400 <= ss) & (ss <= 2.0 ** 510))
    exp = np.zeros(ss.shape, dtype=np.intc)
    if scaled.any():
        exp[scaled] = np.frexp(np.abs(rows[scaled]).max(axis=-1))[1]
        part = np.ldexp(rows[scaled], -exp[scaled][:, None])
        mu[scaled] = part.mean(axis=-1)
        dev[scaled] = part - mu[scaled, None]
        sq[scaled] = dev[scaled] * dev[scaled]
        ss[scaled] = sq[scaled].sum(axis=-1)
    out[..., 0] = np.ldexp(mu, exp)
    std = np.sqrt(ss / (n - 1)) if n > 1 else np.zeros_like(mu)
    out[..., 1] = np.ldexp(std, exp)
    varying = std > 0

    if n >= 3:
        cube = np.multiply(sq, dev, out=dev)  # dev is not read again
        m2, m3 = ss[varying] / n, cube.mean(axis=-1)[varying]
        # scalar powers go through libm (numpy's SIMD power can differ by an ulp),
        # and a numpy scalar's overflows to inf
        m2_15 = np.array([m ** 1.5 for m in m2])
        out[..., 2][varying] = np.sqrt(n * (n - 1)) / (n - 2) * m3 / m2_15

    if n >= 4:
        lead = (n + 1) * n / ((n - 1) ** 3 * (n - 2) * (n - 3))
        std4 = np.array([s ** 4 for s in std[varying]])
        s4 = np.multiply(sq, sq, out=sq).sum(axis=-1)[varying]  # sq is not read again
        out[..., 3][varying] = lead * s4 / std4 - 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3))

    # as numpy's _quantile: the points around each virtual index (-1 at or past the
    # last), and the weight from the lower point; one sort serves every percentile
    vi = (n - 1) * np.true_divide(PERCENTILES, 100)
    lo = np.where(vi >= n - 1, -1, np.floor(vi)).astype(np.intp)
    hi, gamma = np.where(lo < 0, -1, lo + 1), vi - lo
    ranked = np.sort(rows, axis=-1)
    a, b = ranked[..., lo], ranked[..., hi]
    diff = b - a
    # numpy's _lerp: from the upper point when gamma >= 0.5
    out[..., 4:] = np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
    return out


def frame_features(X: np.ndarray) -> np.ndarray:
    """All 29 per-frame descriptors of (..., L, 1025) magnitude spectra: (..., L, 29),
    columns in the documented order."""
    P = X ** 2
    centroid = spectral_centroid(X)
    folded = fold_spectra(P)
    cols = [centroid, spectral_bandwidth(X, centroid), spectral_rolloff(P),
            spectral_flatness(P)]
    out = np.concatenate([np.stack(cols, axis=-1), mfcc(folded), chroma(folded)], axis=-1)
    assert out.shape[-1] == N_FRAME_FEATURES
    return out


def _clip_frames(w: Waveform) -> np.ndarray:
    """The (L, 512) frames of one 16 kHz clip, tail-padded with zeros to 0.5 s
    first; this is the one place the pipeline pads."""
    if w.sample_rate_hz != TARGET_SAMPLE_RATE_HZ:
        raise ValueError(f"extraction expects {TARGET_SAMPLE_RATE_HZ} Hz audio, "
                         f"got {w.sample_rate_hz} Hz (resample first)")
    short = MIN_SAMPLES - w.samples.size
    return frame(np.concatenate((w.samples, np.zeros(short))) if short > 0 else w.samples)


def _extract_frames(clips: list) -> np.ndarray:
    """(len(clips), 261) feature rows of per-clip (L, 512) frame arrays.

    Clips with the same frame count L are analysed as one (N, L, 512) stack.
    Each row is byte-identical to the clip's row in any other batch. The
    layout is, for each of the 29 frame features in order, its 9 functionals
    in the order mean, std, skew, kurt, p10..p90.
    """
    out = np.empty((len(clips), VECTOR_LENGTH))
    groups: dict = {}
    for i, frames in enumerate(clips):
        groups.setdefault(len(frames), []).append(i)
    for rows in groups.values():
        X = magnitude_spectrum(np.stack([clips[i] for i in rows]))
        out[rows] = summarize(frame_features(X)).reshape(len(rows), VECTOR_LENGTH)
    return out


def extract(w: Waveform) -> np.ndarray:
    """Full 261-value feature vector for one 16 kHz recording."""
    return _extract_frames([_clip_frames(w)])[0]


def extract_all(waveforms) -> np.ndarray:
    """Feature vectors of an iterable of 16 kHz waveforms, (R, 261) in input order.

    The waveforms are consumed in batches of about ``BATCH_FRAMES`` frames, so
    at most one batch of them is held at a time however long the iterable is.
    """
    parts, batch, frames = [], [], 0
    for w in waveforms:
        batch.append(_clip_frames(w))
        frames += len(batch[-1])
        if frames >= BATCH_FRAMES:
            parts.append(_extract_frames(batch))
            batch, frames = [], 0
    if batch:
        parts.append(_extract_frames(batch))
    return np.concatenate(parts) if parts else np.empty((0, VECTOR_LENGTH))
