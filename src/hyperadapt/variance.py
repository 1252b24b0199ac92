"""Variance modeling: durations, pitch through a wavelet decomposition, and
energy, plus the length regulator that moves between phoneme and frame time.

Pitch handling follows the decompose/reconstruct route: the raw contour is
interpolated through unvoiced gaps, logged, normalized, and expanded over a
bank of Mexican-hat wavelets at dyadic scales. The predictor regresses the
wavelet coefficients plus the contour's mean and variance; synthesis inverts
the bank and de-normalizes.

The three predictors share one conv trunk design with FastSpeech 2's kernel
size and dropout rate, fixed here as module constants, not config keys. Each
trunk, with its adapter site, records one tape node through an
`autodiff.Recorder` (see ConvStack).
"""

import numpy as np

from . import autodiff as ad
from .errors import InputError, NumericsError, StateError
from .layers import Conv1d, Dense, Embedding, LayerNorm, Module

N_SCALES = 10
KERNEL = 3  # of each variance-predictor conv
DROPOUT = 0.5  # after each variance-predictor conv
# Longest duration synthesis accepts for one phoneme: about 16 s at 16 kHz
# with a 256-sample hop.
MAX_FRAMES_PER_PHONEME = 1000
_SCALES = 2.0 ** np.arange(N_SCALES)

# Amplitude constant for the delta-style inverse of the dyadic Mexican-hat
# bank below. Fitted once by least squares over band-limited unit-variance
# contours (lengths 100..400); reconstruction correlation on that family
# exceeds 0.997.
_ICWT_GAIN = 0.3197


def _ricker(scale):
    half = int(np.ceil(4.0 * scale))
    t = np.arange(-half, half + 1, dtype=np.float64)
    amp = 2.0 / (np.sqrt(3.0 * scale) * np.pi ** 0.25)
    return amp * (1.0 - (t / scale) ** 2) * np.exp(-(t * t) / (2.0 * scale * scale))


_BANK = [_ricker(a) for a in _SCALES]


def normalize_f0(f0):
    """Interpolate unvoiced gaps, log, standardize.

    Returns (normalized contour, mean, std) where mean/std describe the
    log-domain contour before standardization. Edge gaps hold the nearest
    voiced value. A constant contour normalizes to zeros (std clamped).
    """
    f0 = np.asarray(f0, dtype=np.float64)
    if f0.ndim != 1 or f0.size == 0:
        raise InputError("normalize_f0: contour must be a non-empty 1-D array")
    voiced = f0 > 0
    if not voiced.any():
        raise InputError("normalize_f0: fully unvoiced contour cannot be normalized")
    idx = np.arange(f0.size)
    filled = np.interp(idx, idx[voiced], f0[voiced])
    log_f0 = np.log(filled)
    mean = float(log_f0.mean())
    std = float(log_f0.std())
    out = (log_f0 - mean) / max(std, 1e-8)
    return out, mean, std


def interpolated_log_f0(f0):
    """Log contour with unvoiced gaps filled, without standardization."""
    out, mean, std = normalize_f0(f0)
    return out * max(std, 1e-8) + mean


def cwt_decompose(contour):
    """(N_SCALES, m) wavelet coefficients of a normalized contour, convolved
    over its reflect extension (mirrored about the end samples, as often as
    the widest wavelet needs).

    That extension is periodic with period P = 2(m - 1), so each wavelet is
    folded onto one period and the bank is applied as one circular
    convolution over a single period of the signal.
    """
    x = np.asarray(contour, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise InputError("cwt_decompose: need a 1-D contour of length >= 2")
    m = x.size
    period = 2 * (m - 1)
    folded = np.empty((N_SCALES, period))
    for j, w in enumerate(_BANK):
        half = (len(w) - 1) // 2
        folded[j] = np.bincount(np.arange(-half, half + 1) % period, weights=w, minlength=period)
    one_period = np.concatenate([x, x[-2:0:-1]])
    spectrum = np.fft.rfft(folded, axis=1) * np.fft.rfft(one_period)
    return np.fft.irfft(spectrum, n=period, axis=1)[:, :m]


def icwt_reconstruct(spectrogram, mean, variance):
    """Invert the wavelet bank and de-normalize back to a contour in Hz."""
    spec = np.asarray(spectrogram, dtype=np.float64)
    if spec.ndim != 2 or spec.shape[0] != N_SCALES:
        raise InputError(f"icwt_reconstruct: expected ({N_SCALES}, m) spectrogram, got {spec.shape}")
    if variance < 0:
        raise InputError(f"icwt_reconstruct: negative variance {variance}")
    normalized = _ICWT_GAIN * (spec / np.sqrt(_SCALES)[:, None]).sum(axis=0)
    return np.exp(normalized * np.sqrt(variance) + mean)


def pitch_targets(f0):
    """Training targets for the pitch predictor: (spectrogram, mean, variance)."""
    normalized, mean, std = normalize_f0(f0)
    return cwt_decompose(normalized), mean, std * std


def length_regulate(h, durations):
    """Repeat hidden row i durations[i] times along the time axis: one
    gather over a pack's phonemes, whose durations are packed the same way,
    so utterance b's frames come out as its own contiguous run."""
    durations = np.asarray(durations)
    if not np.issubdtype(durations.dtype, np.integer):
        raise InputError("length_regulate: durations must be integers")
    if durations.ndim != 1 or durations.shape[0] != h.shape[0]:
        raise InputError(
            f"length_regulate: {durations.shape[0]} durations for {h.shape[0]} rows"
        )
    if (durations < 0).any():
        raise InputError("length_regulate: negative duration")
    if durations.sum() == 0:
        raise InputError("length_regulate: all durations zero, output would be empty")
    return ad.repeat_rows(h, durations)


def durations_from_log(log_durations):
    """Inference rounding: round(exp(x)) clamped to at least one frame. A
    prediction that is NaN or asks for more than MAX_FRAMES_PER_PHONEME
    frames (an infinite exp included) is a NumericsError, raised before any
    frame is allocated."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.rint(np.exp(np.asarray(log_durations, dtype=np.float64)))
    if not (d <= MAX_FRAMES_PER_PHONEME).all():  # False for NaN too
        raise NumericsError(f"durations_from_log: predicted duration is NaN or above "
                            f"{MAX_FRAMES_PER_PHONEME} frames")
    return np.maximum(d, 1).astype(np.int64)


class ConvStack(Module):
    """Two conv/ReLU/layer-norm/dropout blocks; the shared predictor trunk,
    run as one node: its ops and adapter site run through a Recorder, which
    derives the node's backward.

    An optional adapter site (an adaptation.AdapterSite) acts on the stack
    output, which is where parameter-efficient tuning hooks into the
    variance predictors.
    """

    def __init__(self, rng, d_h):
        self.conv1 = Conv1d(rng, d_h, d_h, KERNEL)
        self.norm1 = LayerNorm(d_h)
        self.conv2 = Conv1d(rng, d_h, d_h, KERNEL)
        self.norm2 = LayerNorm(d_h)
        self.d_h = d_h

    def __call__(self, x, seg, rngs, adapter):
        rec = ad.Recorder("conv_stack", x, seg, self.d_h)
        h = x
        for conv, norm in ((self.conv1, self.norm1), (self.conv2, self.norm2)):
            h = rec(ad.relu_array, (rec(ad.conv1d_array, (h, conv.w, conv.b), seg),))
            h = rec.dropout(rec(ad.layer_norm_array, (h, norm.gain, norm.bias)), DROPOUT, rngs, seg)
        if adapter is not None:
            h = rec(adapter, (h, adapter.table))
        return rec.node(h)


class DurationPredictor(Module):
    def __init__(self, rng, d_h):
        self.stack = ConvStack(rng, d_h)
        self.head = Dense(rng, d_h, 1)

    def __call__(self, h, seg, rngs):
        out = self.head(self.stack(h, seg, rngs, None))
        return ad.reshape(out, (h.shape[0],))


class PitchPredictor(Module):
    """Regresses wavelet coefficients per frame, (frames, scales), plus each
    utterance's contour mean and variance from its mean-pooled trunk, (B,)
    each."""

    def __init__(self, rng, d_h):
        self.stack = ConvStack(rng, d_h)
        self.spec_head = Dense(rng, d_h, N_SCALES)
        self.mean_head = Dense(rng, d_h, 1)
        self.var_head = Dense(rng, d_h, 1)

    def __call__(self, h, seg, rngs, adapter):
        trunk = self.stack(h, seg, rngs, adapter)
        spec = self.spec_head(trunk)
        pooled = ad.segment_mean(trunk, seg)
        mean = ad.reshape(self.mean_head(pooled), (pooled.shape[0],))
        var = ad.reshape(self.var_head(pooled), (pooled.shape[0],))
        return spec, mean, var


class EnergyPredictor(Module):
    def __init__(self, rng, d_h):
        self.stack = ConvStack(rng, d_h)
        self.head = Dense(rng, d_h, 1)

    def __call__(self, h, seg, rngs, adapter):
        out = self.head(self.stack(h, seg, rngs, adapter))
        return ad.reshape(out, (h.shape[0],))


def quantize(value, vmin, vmax, n_bins=256):
    """Bin index in [0, n_bins): floor of the linear position inside [vmin, vmax]."""
    if vmax <= vmin:
        raise InputError(f"quantize: empty range [{vmin}, {vmax}]")
    value = np.asarray(value, dtype=np.float64)
    if not np.isfinite(value).all():
        raise InputError("quantize: non-finite value")
    idx = np.floor(n_bins * (value - vmin) / (vmax - vmin))
    return np.clip(idx, 0, n_bins - 1).astype(np.int64)


class VarianceAdapter(Module):
    """Duration/pitch/energy predictors plus the quantized embedding tables
    that feed predicted (or teacher) values back into the frame sequence.

    Quantization ranges come from the training split and ride along in the
    checkpoint; using the energy or pitch tables before ranges are set is a
    state error.
    """

    N_BINS = 256

    def __init__(self, rng, d_h, d_spk):
        self.spk_proj = Dense(rng, d_spk, d_h)
        self.duration = DurationPredictor(rng, d_h)
        self.pitch = PitchPredictor(rng, d_h)
        self.energy = EnergyPredictor(rng, d_h)
        self.pitch_embed = Embedding(rng, self.N_BINS, d_h)
        self.energy_embed = Embedding(rng, self.N_BINS, d_h)
        self.pitch_range = None   # (min, max) of interpolated log-f0, train split
        self.energy_range = None  # (min, max) of frame energy, train split

    def set_ranges(self, pitch_range, energy_range):
        self.pitch_range = (float(pitch_range[0]), float(pitch_range[1]))
        self.energy_range = (float(energy_range[0]), float(energy_range[1]))

    def condition(self, h, spk_vecs, seg):
        """Add each utterance's projected speaker embedding, one (B, d_spk)
        row per segment, to every position of its segment."""
        if spk_vecs.data.ndim != 2 or spk_vecs.shape[0] != len(seg):
            raise InputError(f"condition: need one speaker row per segment ({len(seg)}), "
                             f"got {spk_vecs.shape}")
        return ad.add(h, ad.repeat_rows(self.spk_proj(spk_vecs), seg.lengths))

    def _require(self, which):
        value = getattr(self, which)
        if value is None:
            raise StateError(f"{which} not set: train ranges must be loaded before embedding lookup")
        return value

    def inject_pitch(self, h, log_f0):
        lo, hi = self._require("pitch_range")
        bins = quantize(log_f0, lo, hi, self.N_BINS)
        return ad.add(h, self.pitch_embed(bins))

    def inject_energy(self, h, energy):
        lo, hi = self._require("energy_range")
        bins = quantize(energy, lo, hi, self.N_BINS)
        return ad.add(h, self.energy_embed(bins))
