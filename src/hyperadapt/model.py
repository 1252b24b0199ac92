"""The full acoustic model: backbone + variance adaptor + alignment, with the
teacher-forced training path and the free-running synthesis path.

Training consumes ground-truth mel/f0/energy for a `Pack` of utterances:
their phonemes and frames stacked along time with no padding, run as one
graph. Phoneme durations come from the online alignment (Viterbi over the
soft map), never from an external aligner. Synthesis is a pack of one and
runs entirely from predictions: durations from the duration head, pitch
reconstructed from the predicted wavelet spectrogram, energy from the energy
head, all fed back through the quantized embedding tables.
"""

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import adaptation
from . import autodiff as ad
from . import variance as var_mod
from .alignment import AlignmentEncoder, soft_align, viterbi_durations
from .autodiff import Segments, Tensor
from .backbone import Decoder, Encoder, Postnet
from .errors import ConfigError, InputError, NumericsError
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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not 0 <= value < 1:
                raise ConfigError(f"model.{f.name} must be in [0, 1), got {value}")
            if f.type is int and value < 1:
                raise ConfigError(f"model.{f.name} must be at least 1, got {value}")

    def to_dict(self):
        return asdict(self)


class Pack:
    """B utterances (`corpus.Utterance`s) stacked along time for one
    teacher-forced pass.

    Phonemes, mel frames and the per-frame f0/energy are concatenated with no
    padding; `phonemes_seg` and `frames_seg` give each utterance's share of
    rows, and `utterances_seg` one row per utterance (pitch statistics).
    `embedding` is the (B, d_spk) speaker embeddings, so a pack stands in for
    an utterance where only `.embedding` is read (a hooks_fn). `log_f0` is
    each contour's interpolated log-F0, packed. `utt_ids` names the
    utterances in pack order.
    """

    def __init__(self, utts):
        if not utts:
            raise InputError("pack: need at least one utterance")
        mels = [np.asarray(u.mel, dtype=ad.DEFAULT_DTYPE) for u in utts]
        speakers = [np.asarray(u.embedding, dtype=ad.DEFAULT_DTYPE).reshape(-1) for u in utts]
        for u, mel, spk in zip(utts, mels, speakers):
            if mel.ndim != 2 or mel.shape[0] < len(u.phonemes):
                raise InputError(f"mel {mel.shape} too short for {len(u.phonemes)} phonemes")
            if len(u.f0) != mel.shape[0] or len(u.energy) != mel.shape[0]:
                raise InputError(f"f0/energy lengths {len(u.f0)}/{len(u.energy)} differ from "
                                 f"{mel.shape[0]} mel frames")
            if spk.size != speakers[0].size:
                raise InputError(f"speaker embeddings of {spk.size} and {speakers[0].size} dims")
        self.phonemes = np.concatenate([np.asarray(u.phonemes) for u in utts])
        self.mel = np.concatenate(mels)
        self.log_f0 = np.concatenate([var_mod.interpolated_log_f0(u.f0) for u in utts])
        self.energy = np.concatenate([np.asarray(u.energy, dtype=np.float64) for u in utts])
        self.embedding = np.stack(speakers)
        self.phonemes_seg = Segments([len(u.phonemes) for u in utts])
        self.frames_seg = Segments([mel.shape[0] for mel in mels])
        self.utterances_seg = Segments(np.ones(len(mels), dtype=np.int64))
        self.utt_ids = [u.utt_id for u in utts]


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

    def _adapters(self, hooks, tag, seg):
        """Per-site adapter callables of module `tag` over a packed sequence
        from the pack's tables (see adaptation.site_adapters), or one None
        per site."""
        n_sites = self.site_counts()[tag]
        table = None if hooks is None else hooks.get(tag)
        if table is None:
            return [None] * n_sites
        return adaptation.site_adapters(table, n_sites, seg)

    def _speaker_tensor(self, speakers):
        v = np.asarray(speakers, dtype=ad.DEFAULT_DTYPE)
        v = v.reshape(1, -1) if v.ndim == 1 else v
        if v.shape[1] != self.config.d_spk:
            raise InputError(f"speaker embedding dim {v.shape[1]}, model expects {self.config.d_spk}")
        return Tensor(v)

    def align(self, pack):
        """(soft alignment maps, packed Viterbi durations) of a Pack."""
        ph, fr = pack.phonemes_seg, pack.frames_seg
        text_feats = self.aligner.project_text(self.encoder.embed(pack.phonemes), ph)
        mel_feats = self.aligner.project_mel(Tensor(pack.mel), fr)
        amap = soft_align(text_feats, mel_feats, ph, fr)
        return amap, viterbi_durations(amap)

    def forward_train(self, pack, ctx, hooks=None, durations=None):
        """Teacher-forced pass over a Pack, one graph for all its utterances.
        `hooks` is AdaptedModel.hooks_for of the pack's speakers (one table
        per module for the whole pack), or None. Returns packed predictions
        (rows in pack order; pitch mean and variance one per utterance) plus
        the alignment maps and the packed Viterbi durations used for length
        regulation. Given `durations`
        (those a frozen aligner gave the pack before), the aligner does not
        run and the maps are None."""
        ph, fr = pack.phonemes_seg, pack.frames_seg
        spk_t = self._speaker_tensor(pack.embedding)
        h_enc = self.encoder(pack.phonemes, ctx, ph, adapters=self._adapters(hooks, "e", ph))

        amap = None
        if durations is None:
            amap, durations = self.align(pack)

        h = self.variance.condition(h_enc, spk_t, ph)
        log_dur_pred = self.variance.duration(h, ctx, ph)
        h_reg = var_mod.length_regulate(h, durations)

        pitch_adapter, energy_adapter = self._adapters(hooks, "v", fr)
        pitch_spec, pitch_mean, pitch_var = self.variance.pitch(h_reg, ctx, fr, adapter=pitch_adapter)
        h_p = self.variance.inject_pitch(h_reg, pack.log_f0)
        energy_pred = self.variance.energy(h_p, ctx, fr, adapter=energy_adapter)
        h_pe = self.variance.inject_energy(h_p, pack.energy)

        mel_pre = self.decoder(h_pe, ctx, fr, adapters=self._adapters(hooks, "d", fr))
        mel_post = self.postnet(mel_pre, ctx, fr)
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

    @ad.no_grad()
    def synthesize(self, phonemes, spk, hooks=None):
        """Free-running synthesis from phonemes and a speaker embedding, as a
        pack of one with dropout off; `hooks` is AdaptedModel.hooks_for of
        that one speaker, or None. Records no tape.

        Returns (mel (m, n_mels) float32, info dict with durations, f0, energy).
        A non-finite predicted f0, energy or mel is a NumericsError.
        """
        ctx = RunCtx((), training=False)
        ids = np.asarray(phonemes)
        spk_t = self._speaker_tensor(spk)
        if spk_t.shape[0] != 1:
            raise InputError(f"synthesize takes one speaker embedding, got {spk_t.shape[0]}")
        ph = Segments([ids.size])
        h_enc = self.encoder(ids, ctx, ph, adapters=self._adapters(hooks, "e", ph))
        h = self.variance.condition(h_enc, spk_t, ph)
        durations = var_mod.durations_from_log(self.variance.duration(h, ctx, ph).data)
        h_reg = var_mod.length_regulate(h, durations)

        fr = Segments([int(durations.sum())])
        pitch_adapter, energy_adapter = self._adapters(hooks, "v", fr)
        pitch_spec, pitch_mean, pitch_var = self.variance.pitch(h_reg, ctx, fr, adapter=pitch_adapter)
        f0 = _finite("f0", var_mod.icwt_reconstruct(
            pitch_spec.data.T.astype(np.float64),
            float(pitch_mean.data[0]),
            max(float(pitch_var.data[0]), 0.0),
        ))
        h_p = self.variance.inject_pitch(h_reg, np.log(f0))
        energy = _finite("energy", self.variance.energy(h_p, ctx, fr, adapter=energy_adapter).data)
        h_pe = self.variance.inject_energy(h_p, energy.astype(np.float64))

        mel_pre = self.decoder(h_pe, ctx, fr, adapters=self._adapters(hooks, "d", fr))
        mel_post = _finite("mel", self.postnet(mel_pre, ctx, fr).data)
        info = {
            "durations": durations,
            "f0": f0.astype(np.float32),
            "energy": energy.astype(np.float32).copy(),
        }
        return mel_post.astype(np.float32), info


def _finite(name, values):
    """A synthesis prediction, once every value is finite."""
    if not np.isfinite(values).all():
        raise NumericsError(f"synthesize: predicted {name} is non-finite")
    return values
