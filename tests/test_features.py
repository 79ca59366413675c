import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from coughscreen import dsp, features, synth

BIN_FREQS = np.arange(1025) * (16000 / 2048)


def make_spectra(rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    assert rows.shape[1] == BIN_FREQS.size
    return rows


def one_hot_row(bin_idx, value=1.0, n_bins=1025):
    row = np.zeros(n_bins)
    for b, v in zip(np.atleast_1d(bin_idx), np.atleast_1d(value)):
        row[b] = v
    return row


class TestSpectralShape:
    def test_centroid_single_mass(self):
        spectra = make_spectra(one_hot_row(128))  # bin 128 = 1000 Hz
        assert features.spectral_centroid(spectra)[0] == pytest.approx(1000.0)

    def test_centroid_flat_spectrum(self):
        spectra = make_spectra(np.ones(1025))
        assert features.spectral_centroid(spectra)[0] == pytest.approx(BIN_FREQS.mean())

    def test_centroid_two_equal_masses(self):
        spectra = make_spectra(one_hot_row([64, 192], [1.0, 1.0]))  # 500 and 1500 Hz
        assert features.spectral_centroid(spectra)[0] == pytest.approx(1000.0)

    def test_centroid_zero_frame(self):
        assert features.spectral_centroid(make_spectra(np.zeros(1025)))[0] == 0.0

    def test_bandwidth_single_line(self):
        assert features.spectral_bandwidth(make_spectra(one_hot_row(128)))[0] == \
            pytest.approx(0.0)

    def test_bandwidth_two_unit_masses_direct_substitution(self):
        # oracle by direct substitution: (1*500^2 + 1*500^2)^(1/2)
        spectra = make_spectra(one_hot_row([64, 192], [1.0, 1.0]))
        expected = np.sqrt(2 * 500.0 ** 2)
        assert features.spectral_bandwidth(spectra)[0] == pytest.approx(expected)
        assert expected == pytest.approx(707.1, abs=0.05)

    def test_bandwidth_homogeneity(self):
        rng = np.random.default_rng(0)
        row = rng.uniform(0, 1, 1025)
        b1 = features.spectral_bandwidth(make_spectra(row))[0]
        b4 = features.spectral_bandwidth(make_spectra(4.0 * row))[0]
        assert b4 == pytest.approx(2.0 * b1, rel=1e-12)

    def test_rolloff_single_bin(self):
        spectra = make_spectra(one_hot_row(300))
        assert features.spectral_rolloff(spectra ** 2)[0] == pytest.approx(BIN_FREQS[300])

    def test_rolloff_flat_100_bins_cumulative_oracle(self):
        row = np.zeros(1025)
        row[:100] = 1.0
        spectra = make_spectra(row)
        # cumulative-sum oracle: first index where cumsum >= 0.85 * total
        energy = row ** 2
        cum = np.cumsum(energy)
        idx = int(np.argmax(cum >= 0.85 * cum[-1]))
        assert idx == 84  # the 85th bin, 1-indexed
        assert features.spectral_rolloff(spectra ** 2)[0] == pytest.approx(BIN_FREQS[idx])

    def test_rolloff_zero_frame(self):
        assert features.spectral_rolloff(make_spectra(np.zeros(1025)) ** 2)[0] == 0.0

    def test_flatness_flat_spectrum(self):
        assert features.spectral_flatness(make_spectra(np.ones(1025)) ** 2)[0] == \
            pytest.approx(1.0)

    def test_flatness_single_line_closed_form(self):
        spectra = make_spectra(one_hot_row(128))
        n = 1025
        floor = 1e-10
        gm = np.exp((np.log(1.0) + (n - 1) * np.log(floor)) / n)
        am = (1.0 + (n - 1) * floor) / n
        expected = gm / am
        got = features.spectral_flatness(spectra ** 2)[0]
        assert got == pytest.approx(expected, rel=1e-10)
        assert got < 1e-5

    def test_flatness_in_unit_interval(self):
        rng = np.random.default_rng(1)
        spectra = make_spectra(rng.uniform(0, 2, (50, 1025)))
        f = features.spectral_flatness(spectra ** 2)
        assert np.all(f >= 0.0) and np.all(f <= 1.0 + 1e-12)

    def test_flatness_zero_frame(self):
        assert features.spectral_flatness(make_spectra(np.zeros(1025)) ** 2)[0] == 0.0


def mfcc_oracle(mag_row, sample_rate=16000, n_fft=2048, n_filters=40, n_mfcc=13):
    """Straight-line loop reimplementation: filterbank, floored log, DCT-II."""
    def hz_to_mel(f):
        if f < 1000.0:
            return f / (200.0 / 3.0)
        return 15.0 + 27.0 * np.log(f / 1000.0) / np.log(6.4)

    def mel_to_hz(m):
        if m < 15.0:
            return m * (200.0 / 3.0)
        return 1000.0 * np.exp(np.log(6.4) * (m - 15.0) / 27.0)

    bin_freqs = [k * sample_rate / n_fft for k in range(n_fft // 2 + 1)]
    edges = [mel_to_hz(hz_to_mel(0.0) + (hz_to_mel(8000.0) - hz_to_mel(0.0)) * i / (n_filters + 1))
             for i in range(n_filters + 2)]
    power = [m * m for m in mag_row]
    logE = []
    for m in range(n_filters):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        acc = 0.0
        for k, f in enumerate(bin_freqs):
            if lo < f < hi:
                w = (f - lo) / (mid - lo) if f <= mid else (hi - f) / (hi - mid)
                acc += w * power[k]
            elif f == mid:
                acc += power[k]
        logE.append(np.log(max(acc, 1e-10)))
    coeffs = []
    for i in range(n_mfcc):
        scale = np.sqrt(1.0 / n_filters) if i == 0 else np.sqrt(2.0 / n_filters)
        coeffs.append(scale * sum(logE[j] * np.cos(np.pi * i * (2 * j + 1) / (2 * n_filters))
                                  for j in range(n_filters)))
    return np.array(coeffs)


class TestMfcc:
    def test_silence_dct_of_constant(self):
        spectra = make_spectra(np.zeros(1025))
        out = features.mfcc(spectra ** 2)[0]
        assert out[0] == pytest.approx(np.sqrt(40) * np.log(1e-10))
        np.testing.assert_allclose(out[1:], 0.0, atol=1e-9)

    def test_amplitude_doubling_shifts_dc_only(self):
        rng = np.random.default_rng(2)
        row = rng.uniform(0.1, 1.0, 1025)
        base = features.mfcc(make_spectra(row) ** 2)[0]
        doubled = features.mfcc(make_spectra(2.0 * row) ** 2)[0]
        assert doubled[0] - base[0] == pytest.approx(np.sqrt(1 / 40) * 40 * np.log(4.0))
        np.testing.assert_allclose(doubled[1:], base[1:], atol=1e-9)

    def test_white_noise_against_loop_oracle(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal(512)
        spectra = dsp.magnitude_spectrum(t[None, :])
        got = features.mfcc(spectra ** 2)[0]
        expected = mfcc_oracle(spectra[0])
        np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-8)


class TestSpectralFold:
    def test_stacked_fold_bit_identical_to_separate_folds(self):
        rng = np.random.default_rng(15)
        P = rng.uniform(0, 2, (3, 17, 1025)) ** 2
        P[1, 4] = 0.0
        folded = features.fold_spectra(P)
        flat = P.reshape(-1, 1025).T
        for M, cols in ((features.MEL_FILTERBANK, folded[..., :features.N_MEL_FILTERS]),
                        (features.CHROMA_FOLD, folded[..., features.N_MEL_FILTERS:])):
            alone = (M @ flat).T.reshape(3, 17, M.shape[0])
            assert np.ascontiguousarray(cols).tobytes() == alone.tobytes()


class TestChroma:
    def test_single_line_at_a440(self):
        # nearest bin to 440 Hz is 56 (437.5 Hz)
        out = features.chroma(make_spectra(one_hot_row(56)) ** 2)[0]
        assert out[9] == pytest.approx(1.0)
        assert out.sum() == pytest.approx(1.0)

    def test_octave_equivalence(self):
        out = features.chroma(make_spectra(one_hot_row([56, 113], [1.0, 1.0])) ** 2)[0]
        assert out[9] == pytest.approx(1.0)
        assert np.count_nonzero(out) == 1

    def test_two_pitch_classes_bin_assignment_oracle(self):
        # 437.5 Hz -> class A, 523.4 Hz (bin 67) -> class C; equal energies
        bins = [56, 67]
        out = features.chroma(make_spectra(one_hot_row(bins, [1.0, 1.0])) ** 2)[0]
        # oracle: fold each bin individually
        freqs = np.array(bins) * 16000 / 2048
        classes = (np.rint(12 * np.log2(freqs / 440.0)).astype(int) + 9) % 12
        assert sorted(classes) == [0, 9]
        for c in classes:
            assert out[c] == pytest.approx(1.0)
        assert out.sum() == pytest.approx(2.0)

    def test_zero_frame_all_zero(self):
        np.testing.assert_array_equal(
            features.chroma(make_spectra(np.zeros(1025)) ** 2)[0], 0.0)


def summarize_oracle(x):
    """Brute-force functionals: direct moment loops, explicit rank interpolation."""
    x = list(map(float, x))
    n = len(x)
    mu = sum(x) / n
    var = sum((v - mu) ** 2 for v in x) / (n - 1) if n > 1 else 0.0
    std = var ** 0.5
    skew = 0.0
    if n >= 3 and std > 0:
        m2 = sum((v - mu) ** 2 for v in x) / n
        m3 = sum((v - mu) ** 3 for v in x) / n
        skew = (n * (n - 1)) ** 0.5 / (n - 2) * m3 / m2 ** 1.5
    kurt = 0.0
    if n >= 4 and std > 0:
        s4 = sum((v - mu) ** 4 for v in x)
        kurt = ((n + 1) * n / ((n - 1) ** 3 * (n - 2) * (n - 3)) * s4 / std ** 4
                - 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3)))
    xs = sorted(x)
    pcts = []
    for q in (0.10, 0.25, 0.50, 0.75, 0.90):
        h = (n - 1) * q
        lo = int(np.floor(h))
        frac = h - lo
        pcts.append(xs[lo] + frac * (xs[min(lo + 1, n - 1)] - xs[lo]) if n > 1 else xs[0])
    return [mu, std, skew, kurt] + pcts


def reference_summarize(trajectory):
    """The per-column functionals, one scalar at a time: the bit-level reference."""
    x = np.asarray(trajectory, dtype=np.float64)
    n = x.size
    mu = float(x.mean())
    dev = x - mu
    std = float(np.sqrt(np.sum(dev ** 2) / (n - 1))) if n > 1 else 0.0
    skew = 0.0
    if n >= 3 and std > 0:
        m2 = np.mean(dev ** 2)
        m3 = np.mean(dev * dev * dev)
        skew = float(np.sqrt(n * (n - 1)) / (n - 2) * m3 / m2 ** 1.5)
    kurt = 0.0
    if n >= 4 and std > 0:
        lead = (n + 1) * n / ((n - 1) ** 3 * (n - 2) * (n - 3))
        kurt = float(lead * np.sum((dev * dev) * (dev * dev)) / std ** 4
                     - 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3)))
    p10, p25, p50, p75, p90 = np.percentile(x, [10, 25, 50, 75, 90])
    return np.array([mu, std, skew, kurt, float(p10), float(p25), float(p50), float(p75),
                     float(p90)])


def reference_extract(w):
    """The per-column pipeline, with padding, framing, taper and FFT written out."""
    x = np.zeros(max(w.samples.size, 8000))
    x[: w.samples.size] = w.samples
    frames = sliding_window_view(np.pad(x, 256), 512)[::256].copy()
    taper = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(512) / 511)
    spectra = np.abs(np.fft.rfft(frames * taper, n=2048, axis=1))
    per_frame = features.frame_features(spectra)
    return np.concatenate([reference_summarize(per_frame[:, j])
                           for j in range(features.N_FRAME_FEATURES)])


def functionals(x):
    """summarize of one trajectory, by functional name."""
    return dict(zip(features.FUNCTIONAL_NAMES, features.summarize(x)))


class TestSummarize:
    def test_constant_trajectory(self):
        s = functionals([5.0, 5.0, 5.0, 5.0])
        assert (s["mean"], s["std"], s["skew"], s["kurt"]) == (5.0, 0.0, 0.0, 0.0)
        assert (s["p10"], s["p25"], s["p50"], s["p75"], s["p90"]) == (5.0,) * 5

    def test_symmetric_sequence(self):
        s = functionals([1, 2, 3, 4, 5])
        assert s["mean"] == pytest.approx(3.0)
        assert s["std"] == pytest.approx(np.sqrt(2.5))
        assert s["skew"] == pytest.approx(0.0, abs=1e-12)
        assert s["p50"] == pytest.approx(3.0)

    def test_kurtosis_hand_evaluated(self):
        # direct substitution with L=5: lead = 30/384, sum dev^4 = 34, s^4 = 6.25
        lead = 30 / (4 ** 3 * 3 * 2)
        expected = lead * 34 / 6.25 - 3 * 16 / 6
        assert expected == pytest.approx(-7.575)
        assert functionals([1, 2, 3, 4, 5])["kurt"] == pytest.approx(expected)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            features.summarize([])

    def test_matches_brute_force_on_random_trajectories(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(4, 65))
            x = rng.standard_normal(n) * rng.uniform(0.5, 10)
            got = features.summarize(x)
            np.testing.assert_allclose(got, summarize_oracle(x), rtol=1e-10, atol=1e-10)

    def test_short_trajectory_guards(self):
        two = functionals([1.0, 3.0])
        assert (two["skew"], two["kurt"]) == (0.0, 0.0)
        assert two["std"] == pytest.approx(np.sqrt(2.0))
        three = functionals([1.0, 2.0, 4.0])
        assert three["skew"] != 0.0
        assert three["kurt"] == 0.0

    @pytest.mark.parametrize("n", [*range(1, 13), 31, 32, 33, 63, 64])
    def test_percentiles_bit_identical_to_numpy(self, n):
        rng = np.random.default_rng(n)
        noise = rng.standard_normal((6, n, 4)) * 10.0 ** rng.uniform(-5, 4, (6, 1, 4))
        ties = rng.integers(0, 3, (6, n, 4)).astype(np.float64)
        constant = np.full((6, n, 4), -2.7)
        for x in (noise, ties, constant):
            expected = np.percentile(x, [10, 25, 50, 75, 90], axis=-2)
            assert features.summarize(x)[..., 4:].tobytes() == \
                np.moveaxis(expected, 0, -1).tobytes()

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 70), st.integers(1, 4)),
                  # any finite value, or one of a few, so rows hold ties
                  elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     st.sampled_from([-1.5, -0.0, 0.0, 2.0]))))
    @example(np.array([[-0.0]]))  # a lone -0.0 is every percentile
    @example(np.array([[0.0], [-0.0], [1.0], [1.0], [0.0], [-0.0], [0.0]]))  # mixed zeros
    @example(np.array([[1e120], [0.0], [0.0]]))  # m2 ** 1.5 overflows
    def test_percentiles_equal_numpy_on_random_stacks(self, x):
        got = features.summarize(x)[:, 4:]
        expected = np.percentile(x, [10, 25, 50, 75, 90], axis=0).T
        np.testing.assert_array_equal(got, expected)
        # byte for byte but on columns holding both -0.0 and +0.0, whose zeros np.sort
        # and np.percentile's partition may leave in another sign order
        mixed = np.any((x == 0) & np.signbit(x), axis=0) & np.any((x == 0) & ~np.signbit(x), axis=0)
        assert got[~mixed].tobytes() == expected[~mixed].tobytes()

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 70), st.integers(1, 4)),
                  # 0 or a magnitude in [1e-290, 1e290]: sums and deviations stay finite
                  # and normal, while squares and fourth powers may not
                  elements=st.one_of(
                      st.sampled_from([-1.5, 0.0, 2.0]),
                      st.builds(lambda sign, m, e: sign * m * 10.0 ** e, st.sampled_from([-1, 1]),
                                st.floats(1.0, 9.99), st.integers(-290, 289)))))
    @example(np.array([[1e80], [0.0], [0.0], [0.0]]))  # (d*d)*(d*d) overflows
    @example(np.array([[1e120], [0.0], [0.0]]))  # (d*d)*d overflows
    @example(np.array([[1e160], [0.0], [0.0], [0.0]]))  # d*d overflows
    @example(np.array([[1e-100], [0.0], [0.0], [0.0]]))  # (d*d)*(d*d) underflows
    def test_moments_equal_those_at_unit_scale(self, x):
        # each column scaled by an exact power of two to a largest magnitude in [0.5, 1),
        # where no power of a deviation overflows or is subnormal
        k = np.frexp(np.abs(x).max(axis=0))[1]
        got, unit = features.summarize(x), features.summarize(np.ldexp(x, -k))
        assert np.isfinite(got).all()
        np.testing.assert_allclose(np.ldexp(got[:, :2], -k[:, None]), unit[:, :2],
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(got[:, 2:4], unit[:, 2:4], rtol=1e-12, atol=1e-12)

    def test_stack_rows_bit_identical_to_one_dimensional_calls(self):
        rng = np.random.default_rng(14)
        for n in (1, 2, 3, 4, 32, 63):
            x = rng.standard_normal((5, n, 7)) * rng.uniform(0.1, 100, (5, 1, 7))
            x[2, :, 3] = 1.5  # a constant trajectory
            got = features.summarize(x)
            for i in range(5):
                for j in range(7):
                    assert got[i, j].tobytes() == features.summarize(x[i, :, j]).tobytes()

    def test_percentile_monotonicity(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            x = rng.standard_normal(int(rng.integers(1, 50)))
            s = functionals(x)
            assert s["p10"] <= s["p25"] <= s["p50"] <= s["p75"] <= s["p90"]


class TestExtract:
    def test_vector_length_any_half_second_recording(self):
        rng = np.random.default_rng(9)
        w = dsp.Waveform(rng.uniform(-0.5, 0.5, 8000), 16000)
        vec = features.extract(w)
        assert vec.shape == (261,)
        assert np.isfinite(vec).all()

    def test_silence_closed_form(self):
        vec = features.extract(dsp.Waveform(np.zeros(8000), 16000))
        expected = np.zeros(261)
        # the constant mfcc DC coefficient fills mean and all percentiles
        c0 = np.sqrt(40) * np.log(1e-10)
        base = 4 * 9  # after centroid/bandwidth/rolloff/flatness blocks
        for func_idx in (0, 4, 5, 6, 7, 8):
            expected[base + func_idx] = c0
        np.testing.assert_allclose(vec, expected, atol=1e-9)

    def test_frame_order_irrelevant(self):
        rng = np.random.default_rng(10)
        w = dsp.Waveform(rng.uniform(-0.5, 0.5, 8000), 16000)
        per_frame = features.frame_features(dsp.magnitude_spectrum(dsp.frame(w.samples)))
        perm = rng.permutation(per_frame.shape[0])
        direct = features.summarize(per_frame).ravel()
        shuffled = features.summarize(per_frame[perm]).ravel()
        np.testing.assert_allclose(direct, shuffled, rtol=1e-9, atol=1e-9)

    def test_wrong_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            features.extract(dsp.Waveform(np.ones(100), 44100))

    def test_column_names_layout(self):
        assert len(features.VECTOR_COLUMN_NAMES) == 261
        assert features.VECTOR_COLUMN_NAMES[0] == "centroid_mean"
        assert features.VECTOR_COLUMN_NAMES[9] == "bandwidth_mean"
        assert features.VECTOR_COLUMN_NAMES[-1] == "chroma11_p90"

    def test_short_recording_padded(self):
        w = dsp.Waveform(np.ones(1000) * 0.1, 16000)
        assert features.extract(w).shape == (261,)

    def test_longer_recording_still_261(self):
        rng = np.random.default_rng(13)
        w = dsp.Waveform(rng.uniform(-0.5, 0.5, 16000), 16000)
        vec = features.extract(w)
        assert vec.shape == (261,)
        assert np.isfinite(vec).all()

    def test_per_frame_invariants_on_real_signal(self):
        rng = np.random.default_rng(11)
        w = dsp.Waveform(rng.uniform(-0.8, 0.8, 8000), 16000)
        spectra = dsp.magnitude_spectrum(dsp.frame(w.samples))
        flat = features.spectral_flatness(spectra ** 2)
        roll = features.spectral_rolloff(spectra ** 2)
        band = features.spectral_bandwidth(spectra)
        assert np.all((flat >= 0) & (flat <= 1 + 1e-12))
        assert np.all(roll <= 8000.0)
        assert np.all(band >= 0)

    def test_bandwidth_zero_iff_single_nonzero_bin(self):
        rng = np.random.default_rng(12)
        single = one_hot_row(int(rng.integers(1, 1024)), 2.0)
        assert features.spectral_bandwidth(make_spectra(single))[0] == pytest.approx(0.0)
        double = one_hot_row([10, 500], [1.0, 1.0])
        assert features.spectral_bandwidth(make_spectra(double))[0] > 0

    def test_synthetic_recordings_bit_identical_to_per_column_reference(self):
        cfg = synth.SyntheticConfig(n_coughers=4, prevalence=0.5, coughs_mean=3,
                                    coughs_std=0.5, coughs_min=3, coughs_max=4, seed=3)
        for c in synth.generate_synthetic(cfg):
            for rec in c.recordings:
                assert (features.extract(rec.waveform).tobytes()
                        == reference_extract(rec.waveform).tobytes())

    @pytest.mark.parametrize("n_samples", [8000, 4800, 16000, 8001])
    @pytest.mark.parametrize("silent", [False, True])
    def test_edge_clips_bit_identical_to_per_column_reference(self, n_samples, silent):
        rng = np.random.default_rng(n_samples)
        w = dsp.Waveform(np.zeros(n_samples) if silent
                         else rng.uniform(-0.8, 0.8, n_samples), 16000)
        assert features.extract(w).tobytes() == reference_extract(w).tobytes()


def edge_clips(seed):
    """Silence and noise clips of 0.3 s, 0.5 s, 0.5 s + 1 sample and 1.0 s."""
    rng = np.random.default_rng(seed)
    clips = [np.zeros(8000), np.zeros(4800)]
    clips += [0.2 * rng.standard_normal(n) for n in (4800, 8000, 8001, 16000)]
    return [dsp.Waveform(x, 16000) for x in clips]


class TestBatchedExtraction:
    def test_streamed_rows_bit_identical_to_per_clip_reference(self):
        # shuffled so that batches mix frame counts; the run spans many batches
        waves = [w for seed in range(6) for w in edge_clips(seed)]
        waves = [waves[i] for i in np.random.default_rng(0).permutation(len(waves))]
        frames = sum(1 + max(w.samples.size, 8000) // 256 for w in waves)
        assert frames > 8 * features.BATCH_FRAMES
        rows = features.extract_all(iter(waves))
        assert rows.shape == (len(waves), 261)
        for w, row in zip(waves, rows):
            assert row.tobytes() == reference_extract(w).tobytes()
            assert row.tobytes() == features.extract(w).tobytes()

    @pytest.mark.parametrize("n_samples", [4800, 8000, 8001, 16000])
    def test_batch_rows_bit_identical_to_extract(self, n_samples):
        # 7 clips of one length, one of them silent, analysed as one stack
        rng = np.random.default_rng(n_samples)
        block = 0.2 * rng.standard_normal((7, n_samples))
        block[3] = 0.0
        waves = [dsp.Waveform(x, 16000) for x in block]
        rows = features.extract_all(waves)
        for w, row in zip(waves, rows):
            assert row.tobytes() == reference_extract(w).tobytes()
            assert row.tobytes() == features.extract(w).tobytes()

    def test_sample_counts_of_one_frame_count_in_one_batch(self):
        # 8,000, 8,100 and 8,191 samples all make 32 frames: one stack, no zero-extension
        rng = np.random.default_rng(8191)
        waves = [dsp.Waveform(0.2 * rng.standard_normal(n), 16000) for n in (8000, 8100, 8191)]
        assert {len(dsp.frame(w.samples)) for w in waves} == {32}
        rows = features.extract_all(waves)
        for w, row in zip(waves, rows):
            assert row.tobytes() == reference_extract(w).tobytes()

    def test_empty_stream(self):
        assert features.extract_all([]).shape == (0, 261)

    def test_wrong_sample_rate_rejected_in_stream(self):
        with pytest.raises(ValueError, match="16000 Hz"):
            features.extract_all([dsp.Waveform(np.ones(8000), 16000),
                                  dsp.Waveform(np.ones(100), 44100)])

    def test_batched_rows_equal_per_clip_at_two_blas_threads(self):
        code = textwrap.dedent("""
            import numpy as np
            from coughscreen import dsp, features
            rng = np.random.default_rng(4)
            waves = [dsp.Waveform(0.2 * rng.standard_normal(n), 16000)
                     for n in [8000, 4800, 8001, 16000] * 6]
            rows = features.extract_all(waves)
            print(all(r.tobytes() == features.extract(w).tobytes()
                      for r, w in zip(rows, waves)))
        """)
        src = str(Path(features.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        assert out.stdout.strip() == "True"
