"""Waveform-side signal processing: STFT/ISTFT, the mel filterbank, the
iterative phase reconstruction behind the `--wav` synthesis preview, a WAV
writer, and scalar quantization for the variance bins.

The synthetic corpus writes mel/F0/energy features directly, so nothing in
the pipeline reads audio.
"""

import wave as _wave
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass
class FeatureConfig:
    sample_rate: int = 16000
    n_fft: int = 1024
    hop: int = 256
    n_mels: int = 80
    fmin: float = 0.0
    fmax: float = 8000.0


def hann_window(n):
    # periodic form, matches overlap-add reconstruction
    return (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)).astype(np.float64)


def frame_signal(wave, n_fft, hop):
    """Center-padded frames, one per hop: shape (1 + len // hop, n_fft)."""
    pad = n_fft // 2
    padded = np.concatenate([np.zeros(pad), wave, np.zeros(pad)])
    n_frames = 1 + len(wave) // hop
    frames = np.lib.stride_tricks.sliding_window_view(padded, n_fft)[::hop]
    return frames[:n_frames]


def stft(wave, config):
    frames = frame_signal(np.asarray(wave, dtype=np.float64), config.n_fft, config.hop)
    return np.fft.rfft(frames * hann_window(config.n_fft), axis=-1)


def istft(spec, config, length):
    frames = np.fft.irfft(spec, n=config.n_fft, axis=-1)
    win = hann_window(config.n_fft)
    pad = config.n_fft // 2
    total = length + 2 * pad
    out = np.zeros(total)
    norm = np.zeros(total)
    for i in range(frames.shape[0]):
        start = i * config.hop
        if start + config.n_fft > total:
            break
        out[start : start + config.n_fft] += frames[i] * win
        norm[start : start + config.n_fft] += win * win
    out = out / np.maximum(norm, 1e-10)
    return out[pad : pad + length]


def mel_filterbank(config):
    """(n_mels, n_fft // 2 + 1) triangular filters on the mel scale."""
    n_bins = config.n_fft // 2 + 1

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)

    def to_hz(m):
        return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)

    mel_pts = np.linspace(to_mel(config.fmin), to_mel(config.fmax), config.n_mels + 2)
    hz_pts = to_hz(mel_pts)
    freqs = np.arange(n_bins) * config.sample_rate / config.n_fft
    fb = np.zeros((config.n_mels, n_bins))
    for i in range(config.n_mels):
        lo, center, hi = hz_pts[i], hz_pts[i + 1], hz_pts[i + 2]
        up = (freqs - lo) / max(center - lo, 1e-9)
        down = (hi - freqs) / max(hi - center, 1e-9)
        fb[i] = np.maximum(0.0, np.minimum(up, down))
    return fb


def quantize(value, vmin, vmax, n_bins=256):
    """Bin index in [0, n_bins): floor of the linear position inside [vmin, vmax]."""
    if vmax <= vmin:
        raise InputError(f"quantize: empty range [{vmin}, {vmax}]")
    value = np.asarray(value, dtype=np.float64)
    if not np.isfinite(value).all():
        raise InputError("quantize: non-finite value")
    idx = np.floor(n_bins * (value - vmin) / (vmax - vmin))
    return np.clip(idx, 0, n_bins - 1).astype(np.int64)


def mel_to_waveform(logmel, config, n_iter=30):
    """Iterative phase reconstruction (no vocoder): rough audio preview only,
    (m - 1) hops long (one hop at least), from a fixed random start phase."""
    mel = np.exp(np.asarray(logmel, dtype=np.float64))
    fb = mel_filterbank(config)
    mag = np.clip(mel @ np.linalg.pinv(fb).T, 0.0, None)
    m = mag.shape[0]
    length = max((m - 1) * config.hop, config.hop)
    rng = np.random.default_rng(0)
    phase = np.exp(2j * np.pi * rng.random(mag.shape))
    for _ in range(n_iter):
        wave = istft(mag * phase, config, length)
        spec = stft(wave, config)[:m]
        phase = np.exp(1j * np.angle(spec))
    return istft(mag * phase, config, length).astype(np.float32)


def write_wav(path, waveform, sample_rate):
    """Mono 16-bit PCM writer for the crude synthesis previews."""
    w = np.asarray(waveform, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise InputError("write_wav: need a non-empty 1-D waveform")
    peak = np.abs(w).max()
    if peak > 0:
        w = w / peak * 0.9
    pcm = np.clip(w * 32767.0, -32768, 32767).astype(np.int16)
    with _wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(int(sample_rate))
        f.writeframes(pcm.tobytes())
