import numpy as np
import pytest
from scipy.signal import resample_poly

from coughscreen import dsp


def hamming_oracle(n):
    return np.array([0.54 - 0.46 * np.cos(2 * np.pi * i / (n - 1)) for i in range(n)])


def dft_magnitude_oracle(frames, n_fft=2048):
    """Direct one-sided DFT magnitudes of zero-padded frames: one matrix product."""
    k = np.arange(n_fft // 2 + 1)[:, None]
    n = np.arange(frames.shape[1])[None, :]
    basis = np.exp(-2j * np.pi * ((k * n) % n_fft) / n_fft)
    return np.abs(frames @ basis.T)


class TestWaveform:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dsp.Waveform(np.array([]), 16000)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dsp.Waveform(np.array([0.0, np.nan]), 16000)

    def test_wav_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        w = dsp.Waveform(rng.uniform(-0.5, 0.5, 1000), 16000)
        path = tmp_path / "x.wav"
        dsp.write_wav(path, w)
        back = dsp.read_wav(path)
        assert back.sample_rate_hz == 16000
        # 16-bit quantization error only
        assert np.abs(back.samples - w.samples).max() < 1.0 / 32768


class TestResample:
    def test_dc_preserved(self):
        w = dsp.Waveform(np.full(22050, 0.3), 44100)
        y = dsp.resample(w).samples
        assert np.abs(y[100:-100] - 0.3).max() < 1e-3

    def test_sinusoid_against_direct_synthesis(self):
        # oracle: synthesize the same 1 kHz tone directly at 16 kHz
        t44 = np.arange(22050) / 44100
        w = dsp.Waveform(np.sin(2 * np.pi * 1000 * t44), 44100)
        y = dsp.resample(w).samples
        ref = np.sin(2 * np.pi * 1000 * np.arange(y.size) / 16000)
        mid = slice(400, y.size - 400)
        assert np.abs(y[mid] - ref[mid]).max() < 0.01

    def test_length_ratio(self):
        w = dsp.Waveform(np.ones(22050) * 0.1, 44100)
        assert dsp.resample(w).samples.size == 8000

    def test_identity_passthrough_bit_exact(self):
        w = dsp.Waveform(np.random.default_rng(1).standard_normal(777), 16000)
        y = dsp.resample(w)
        assert y is w

    @pytest.mark.parametrize("rate", [22050, 32000, 44100, 48000])
    def test_cached_filter_matches_plain_resample_poly(self, rate):
        x = np.random.default_rng(rate).uniform(-0.9, 0.9, rate // 2)
        g = np.gcd(16000, rate)
        expected = resample_poly(x, 16000 // g, rate // g)
        for _ in range(2):  # the second call reuses the cached filter
            np.testing.assert_array_equal(dsp.resample(dsp.Waveform(x, rate)).samples,
                                          expected)

    def test_upsampling_rejected(self):
        w = dsp.Waveform(np.ones(100), 8000)
        with pytest.raises(ValueError, match="upsampling 8000 -> 16000 Hz"):
            dsp.resample(w)


class TestFrame:
    def test_centered_half_second_gives_32_frames(self):
        x = np.random.default_rng(2).standard_normal(8000)
        assert dsp.frame(x).shape == (32, 512)

    def test_exact_window_fit(self):
        # frame n is centered on sample 256 n, so frame 1 spans samples 0..511
        x = np.random.default_rng(3).standard_normal(512)
        frames = dsp.frame(x)
        assert frames.shape == (3, 512)
        np.testing.assert_array_equal(frames[1], x)
        np.testing.assert_array_equal(frames[0], np.r_[np.zeros(256), x[:256]])

    def test_frame_count_formula_all_lengths(self):
        # index-walk oracle over every length up to 20000
        win, hop = 512, 256
        for n in range(1, 20001):
            # centered: window positions over the padded signal
            padded = n + 2 * (win // 2)
            count = 0
            start = 0
            while start + win <= padded:
                count += 1
                start += hop
            assert count == 1 + n // hop, f"length {n}"

    def test_frame_matches_formula_sampled_lengths(self):
        rng = np.random.default_rng(4)
        for n in list(range(1, 300, 7)) + [511, 512, 513, 4097, 8000, 19999]:
            assert dsp.frame(rng.standard_normal(n)).shape == (1 + n // 256, 512)


class TestHammingWindow:
    def test_all_ones_frame_becomes_taper(self):
        out = dsp.magnitude_spectrum(np.ones((1, 512)))
        np.testing.assert_allclose(out[0], np.abs(np.fft.rfft(hamming_oracle(512), 2048)))

    def test_endpoints_and_midpoint(self):
        taper = dsp.HAMMING_TAPER
        assert taper.shape == (512,)
        assert taper[0] == pytest.approx(0.08)
        assert taper[-1] == pytest.approx(0.08)
        assert taper[255] == pytest.approx(1.0, abs=1e-4)

    def test_windowed_energy_matches_loop_oracle(self):
        w = 512
        expected = 0.0
        for i in range(w):
            expected += (0.54 - 0.46 * np.cos(2 * np.pi * i / (w - 1))) ** 2
        mags = dsp.magnitude_spectrum(np.ones((1, w)))[0]
        # Parseval over the one-sided spectrum of the tapered all-ones frame
        energy = (mags[0] ** 2 + mags[-1] ** 2 + 2 * np.sum(mags[1:-1] ** 2)) / 2048
        assert energy == pytest.approx(expected, rel=1e-12)


class TestMagnitudeSpectrum:
    def test_zero_frame_gives_zero_row(self):
        spec = dsp.magnitude_spectrum(np.zeros((1, 512)))
        assert spec.shape == (1, 1025)
        np.testing.assert_array_equal(spec[0], 0.0)

    def test_sinusoid_peak_bin(self):
        # the tapered 1 kHz cosine peaks at bin 128 (= 1000 Hz)
        t = np.arange(512) / 16000
        spec = dsp.magnitude_spectrum(np.cos(2 * np.pi * 1000 * t)[None, :])
        assert int(np.argmax(spec[0])) == 128
        assert dsp.BIN_FREQS_HZ[128] == pytest.approx(1000.0)

    def test_matches_naive_dft_oracle(self):
        rng = np.random.default_rng(5)
        frames = rng.standard_normal((6, 512))
        frames[5] = 0.0
        oracle = dft_magnitude_oracle(frames * hamming_oracle(512))
        np.testing.assert_allclose(dsp.magnitude_spectrum(frames), oracle,
                                   rtol=1e-9, atol=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(512)
        mags = dsp.magnitude_spectrum(x[None, :])[0]
        # reconstruct the two-sided energy from the one-sided magnitudes
        full_energy = mags[0] ** 2 + mags[-1] ** 2 + 2 * np.sum(mags[1:-1] ** 2)
        time_energy = np.sum((x * hamming_oracle(512)) ** 2)
        assert full_energy / 2048 == pytest.approx(time_energy, rel=1e-6)

    def test_bin_freqs_span_zero_to_nyquist(self):
        freqs = dsp.BIN_FREQS_HZ
        assert freqs.shape == (1025,)
        assert freqs[0] == 0.0
        assert freqs[-1] == 8000.0
        assert np.all(np.diff(freqs) > 0)
