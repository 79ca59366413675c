"""Waveform ingestion and short-time spectral analysis.

Reads WAVs, resamples them down to 16 kHz (``resample``), and turns a cough
recording into overlapping Hamming-windowed frames and one-sided FFT magnitude
spectra. The analysis geometry is fixed: 16 kHz audio, centered 512-sample
(32 ms) frames with a 256-sample (16 ms) hop, and a 2048-point FFT, so a 0.5 s
recording yields 32 frames of 1025 magnitudes.

All functions here are pure: they never mutate their inputs and are safe
to call concurrently across recordings.
"""

from __future__ import annotations

import functools
import wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

TARGET_SAMPLE_RATE_HZ = 16000
# the highest rate resampled; the largest filter, for 383,999 Hz, has 7,679,981 taps (61 MB)
MAX_SAMPLE_RATE_HZ = 384000
WINDOW_SAMPLES = 512
HOP_SAMPLES = 256
N_FFT = 2048

# frequency of each of the N_FFT // 2 + 1 one-sided bins
BIN_FREQS_HZ = np.arange(N_FFT // 2 + 1) * (TARGET_SAMPLE_RATE_HZ / N_FFT)
# symmetric Hamming window 0.54 - 0.46 cos(2*pi*i/(W-1))
HAMMING_TAPER = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(WINDOW_SAMPLES)
                                     / (WINDOW_SAMPLES - 1))
BIN_FREQS_HZ.setflags(write=False)
HAMMING_TAPER.setflags(write=False)


@dataclass(frozen=True)
class Waveform:
    """Mono audio signal with amplitudes nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("waveform must be a nonempty 1-D signal")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")


def read_wav(path) -> Waveform:
    """Read a mono 16-bit PCM RIFF WAV file.

    Samples are mapped to [-1, 1) by division by 32768. Multi-channel or
    non-16-bit input is rejected.
    """
    with wave.open(str(path), "rb") as fh:
        if fh.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono audio, got {fh.getnchannels()} channels")
        if fh.getsampwidth() != 2:
            raise ValueError(f"{path}: expected 16-bit PCM, got {8 * fh.getsampwidth()}-bit")
        rate = fh.getframerate()
        raw = fh.readframes(fh.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, rate)


def write_wav(path, w: Waveform) -> None:
    """Write a waveform as mono 16-bit PCM, clipping to the representable range."""
    pcm = np.clip(np.rint(w.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(w.sample_rate_hz)
        fh.writeframes(pcm.tobytes())


@functools.lru_cache(maxsize=8)  # a few source rates per cohort; an odd rate's filter is large
def _antialias_fir(max_rate: int) -> np.ndarray:
    """The low-pass FIR that ``resample_poly`` designs for a reduced up/down pair
    with max(up, down) = max_rate."""
    from scipy.signal import firwin  # loaded on first use: it doubles the CLI's start time
    h = firwin(2 * 10 * max_rate + 1, 1.0 / max_rate, window=("kaiser", 5.0))
    h.setflags(write=False)
    return h


def resample(w: Waveform) -> Waveform:
    """Band-limited polyphase resampling to 16 kHz (anti-aliasing before decimation).

    Pass-through is bit-exact for 16 kHz input. A rate below 16 kHz (the pipeline only
    moves down) or above ``MAX_SAMPLE_RATE_HZ`` is rejected. The output is byte-equal to
    ``resample_poly``'s default Kaiser design, whose filter is cached per rate ratio.
    """
    if w.sample_rate_hz < TARGET_SAMPLE_RATE_HZ:
        raise ValueError(f"upsampling {w.sample_rate_hz} -> {TARGET_SAMPLE_RATE_HZ} Hz is "
                         "not supported")
    if w.sample_rate_hz > MAX_SAMPLE_RATE_HZ:
        raise ValueError(f"{w.sample_rate_hz} Hz is above the {MAX_SAMPLE_RATE_HZ} Hz maximum")
    if w.sample_rate_hz == TARGET_SAMPLE_RATE_HZ:
        return w
    g = np.gcd(TARGET_SAMPLE_RATE_HZ, w.sample_rate_hz)
    up, down = TARGET_SAMPLE_RATE_HZ // g, w.sample_rate_hz // g
    from scipy.signal import resample_poly  # loaded on first use: it doubles the CLI's start time
    out = resample_poly(w.samples, up, down, window=_antialias_fir(max(up, down)))
    return Waveform(out, TARGET_SAMPLE_RATE_HZ)


def frame(samples: np.ndarray) -> np.ndarray:
    """Slice a 16 kHz signal into centered frames: (n,) -> an (L, 512) read-only view.

    The signal is symmetrically zero-padded by half a window, so frame l is
    centered on sample 256*l and L = 1 + n // 256.
    """
    half = np.zeros(WINDOW_SAMPLES // 2)
    padded = np.concatenate((half, samples, half))
    step = padded.strides[0]
    # concatenate and as_strided, not np.pad and sliding_window_view: the same
    # frames for about a quarter of the per-call overhead, paid once per clip
    return as_strided(padded, (1 + samples.size // HOP_SAMPLES, WINDOW_SAMPLES),
                      (HOP_SAMPLES * step, step), writeable=False)


def magnitude_spectrum(frames: np.ndarray) -> np.ndarray:
    """(..., L, 1025) one-sided FFT magnitudes of the Hamming-tapered (..., L, 512) frames.

    Each tapered frame is zero-padded to 2048 points.
    """
    return np.abs(np.fft.rfft(frames * HAMMING_TAPER, n=N_FFT, axis=-1))
