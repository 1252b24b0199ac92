"""The full acoustic model: backbone + variance adaptor + alignment, with the
teacher-forced training path and the free-running synthesis path.

Training consumes ground-truth mel/f0/energy; phoneme durations come from the
online alignment (Viterbi over the soft map), never from an external aligner.
Synthesis runs entirely from predictions: durations from the duration head,
pitch reconstructed from the predicted wavelet spectrogram, energy from the
energy head, all fed back through the quantized embedding tables.
"""

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import variance as var_mod
from .alignment import AlignmentEncoder, soft_align, viterbi_durations
from .autodiff import Tensor
from .backbone import Decoder, Encoder, Postnet
from .errors import ConfigError, InputError
from .layers import Module, RunCtx, rng_for
from .variance import VarianceAdapter


@dataclass
class ModelConfig:
    vocab_size: int = 40
    n_mels: int = 80
    d_h: int = 256
    heads: int = 2
    enc_layers: int = 4
    dec_layers: int = 6
    conv_kernel: int = 9
    d_spk: int = 256
    d_attn: int = 64
    postnet_channels: int = 256
    postnet_kernel: int = 5
    postnet_layers: int = 5
    dropout: float = 0.1
    var_kernel: int = 3
    var_dropout: float = 0.5

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown model config keys {sorted(unknown)}")
        return cls(**data)


class TTSModel(Module):
    def __init__(self, config, seed=0):
        c = config
        self.encoder = Encoder(
            rng_for(seed, "init", "encoder"), c.vocab_size, c.d_h, c.heads,
            c.enc_layers, (c.conv_kernel, 1), c.dropout,
        )
        self.variance = VarianceAdapter(
            rng_for(seed, "init", "variance"), c.d_h, c.d_spk,
            kernel=c.var_kernel, p_dropout=c.var_dropout,
        )
        self.decoder = Decoder(
            rng_for(seed, "init", "decoder"), c.d_h, c.n_mels, c.heads,
            c.dec_layers, (c.conv_kernel, 1), c.dropout,
        )
        self.postnet = Postnet(
            rng_for(seed, "init", "postnet"), c.n_mels, c.postnet_channels,
            c.postnet_kernel, c.postnet_layers, c.dropout,
        )
        self.aligner = AlignmentEncoder(rng_for(seed, "init", "aligner"), c.d_h, c.n_mels, c.d_attn)
        self.config = c

    def site_counts(self):
        return {"e": len(self.encoder.blocks), "v": 2, "d": len(self.decoder.blocks)}

    def set_ranges(self, pitch_range, energy_range):
        self.variance.set_ranges(pitch_range, energy_range)

    @staticmethod
    def _hook(hooks, tag):
        if hooks is None:
            return None
        return hooks.get(tag)

    def _speaker_tensor(self, spk):
        v = np.asarray(spk, dtype=ad.DEFAULT_DTYPE).reshape(1, -1)
        if v.shape[1] != self.config.d_spk:
            raise InputError(f"speaker embedding dim {v.shape[1]}, model expects {self.config.d_spk}")
        return Tensor(v)

    def forward_train(self, phonemes, mel, f0, energy, spk, ctx, hooks=None):
        """Teacher-forced pass. Returns predictions plus the alignment map and
        the Viterbi durations used for length regulation."""
        mel = np.asarray(mel, dtype=ad.DEFAULT_DTYPE)
        if mel.ndim != 2 or mel.shape[0] < len(phonemes):
            raise InputError(f"mel {mel.shape} too short for {len(phonemes)} phonemes")
        spk_t = self._speaker_tensor(spk)
        h_enc = self.encoder(phonemes, ctx, adapters=self._hook(hooks, "e"))

        text_feats = self.aligner.project_text(self.encoder.embed(np.asarray(phonemes)))
        mel_feats = self.aligner.project_mel(Tensor(mel))
        amap = soft_align(text_feats, mel_feats)
        durations = viterbi_durations(amap)

        h = self.variance.condition(h_enc, spk_t)
        log_dur_pred = self.variance.duration(h, ctx)
        h_reg = var_mod.length_regulate(h, durations)

        v_hooks = self._hook(hooks, "v")
        pitch_spec, pitch_mean, pitch_var = self.variance.pitch(
            h_reg, ctx, adapter=v_hooks[0] if v_hooks else None
        )
        h_p = self.variance.inject_pitch(h_reg, var_mod.interpolated_log_f0(f0))
        energy_pred = self.variance.energy(h_p, ctx, adapter=v_hooks[1] if v_hooks else None)
        h_pe = self.variance.inject_energy(h_p, np.asarray(energy, dtype=np.float64))

        mel_pre = self.decoder(h_pe, ctx, adapters=self._hook(hooks, "d"))
        mel_post = self.postnet(mel_pre, ctx)
        return {
            "mel_pre": mel_pre,
            "mel_post": mel_post,
            "log_dur": log_dur_pred,
            "pitch_spec": pitch_spec,
            "pitch_mean": pitch_mean,
            "pitch_var": pitch_var,
            "energy": energy_pred,
            "amap": amap,
            "durations": durations,
        }

    def synthesize(self, phonemes, spk, ctx=None, hooks=None):
        """Free-running synthesis from phonemes and a speaker embedding.

        Returns (mel (m, n_mels) float32, info dict with durations, f0, energy).
        """
        ctx = ctx if ctx is not None else RunCtx(training=False)
        spk_t = self._speaker_tensor(spk)
        h_enc = self.encoder(phonemes, ctx, adapters=self._hook(hooks, "e"))
        h = self.variance.condition(h_enc, spk_t)
        durations = var_mod.durations_from_log(self.variance.duration(h, ctx).data)
        h_reg = var_mod.length_regulate(h, durations)

        v_hooks = self._hook(hooks, "v")
        pitch_spec, pitch_mean, pitch_var = self.variance.pitch(
            h_reg, ctx, adapter=v_hooks[0] if v_hooks else None
        )
        f0 = var_mod.icwt_reconstruct(
            pitch_spec.data.astype(np.float64),
            float(pitch_mean.data[0]),
            max(float(pitch_var.data[0]), 0.0),
        )
        h_p = self.variance.inject_pitch(h_reg, np.log(f0))
        energy = self.variance.energy(h_p, ctx, adapter=v_hooks[1] if v_hooks else None)
        h_pe = self.variance.inject_energy(h_p, energy.data.astype(np.float64))

        mel_pre = self.decoder(h_pe, ctx, adapters=self._hook(hooks, "d"))
        mel_post = self.postnet(mel_pre, ctx)
        info = {
            "durations": durations,
            "f0": f0.astype(np.float32),
            "energy": energy.data.astype(np.float32).copy(),
        }
        return mel_post.data.astype(np.float32), info
