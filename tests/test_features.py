"""Signal processing on synthetic audio, and the variance-bin quantizer."""

import numpy as np
import pytest

from hyperadapt import features
from hyperadapt.errors import InputError

CFG = features.FeatureConfig()


def sine(freq, seconds=1.0, sr=16000, amp=0.3):
    t = np.arange(int(seconds * sr)) / sr
    return (amp * np.sin(2 * np.pi * freq * t)).astype(np.float64)


class TestQuantize:
    def test_endpoints(self):
        assert features.quantize(0.0, 0.0, 1.0) == 0
        assert features.quantize(1.0, 0.0, 1.0) == 255

    def test_midpoint_example(self):
        assert features.quantize(128.5, 0.0, 256.0) == 128

    def test_out_of_range_clamps(self):
        assert features.quantize(-5.0, 0.0, 1.0) == 0
        assert features.quantize(7.0, 0.0, 1.0) == 255

    def test_roundtrip_within_bin_width(self):
        rng = np.random.default_rng(0)
        vmin, vmax = -2.0, 5.0
        width = (vmax - vmin) / 256
        vals = rng.uniform(vmin, vmax, size=200)
        centres = vmin + (features.quantize(vals, vmin, vmax) + 0.5) * width
        assert np.abs(centres - vals).max() <= width / 2 + 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            features.quantize(np.nan, 0.0, 1.0)

    def test_empty_range_rejected(self):
        with pytest.raises(InputError):
            features.quantize(0.5, 1.0, 1.0)


class TestStft:
    def test_frame_count_and_inverse(self):
        wave = sine(150.0, seconds=0.5)
        spec = features.stft(wave, CFG)
        assert spec.shape == (1 + len(wave) // CFG.hop, CFG.n_fft // 2 + 1)
        np.testing.assert_allclose(features.istft(spec, CFG, len(wave)), wave, atol=1e-9)


class TestMelFilterbank:
    def test_rows_cover_band(self):
        fb = features.mel_filterbank(CFG)
        assert fb.shape == (CFG.n_mels, CFG.n_fft // 2 + 1)
        assert (fb.sum(axis=1) > 0).all()
        assert fb.min() >= 0.0

    def test_phase_reconstruction_shape(self):
        # crude inverse: only checks it produces finite audio of the right length
        rng = np.random.default_rng(2)
        logmel = rng.standard_normal((40, CFG.n_mels)).astype(np.float32) - 4.0
        wave = features.mel_to_waveform(logmel, CFG, n_iter=4)
        assert wave.shape == (39 * CFG.hop,)
        assert np.isfinite(wave).all()
