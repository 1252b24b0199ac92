"""The full acoustic model: backbone + variance adaptor + alignment, run as
one pass that training and synthesis share.

A pass runs over a pack of utterances: their phonemes stacked along time
with no padding, as one graph. Training teacher-forces it with a `Pack`'s
targets: durations from the online alignment (Viterbi over the soft map,
never an external aligner), and the true log-f0 and energy fed through the
quantized embedding tables. Synthesis is a pack of one run from its own
predictions: durations from the duration head, pitch reconstructed from the
predicted wavelet spectrogram, energy from the energy head. A pass drops
out only when it is given dropout streams, one per utterance: training steps
give them, and validation and synthesis give none and run under `no_grad`.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import adaptation
from . import autodiff as ad
from . import variance as var_mod
from .alignment import AlignmentEncoder, soft_align, viterbi_durations
from .autodiff import Segments, Tensor
from .backbone import Decoder, Encoder, Postnet
from .errors import ConfigError, InputError, NumericsError, check_fields, ranged
from .layers import Module, rng_for
from .variance import VarianceAdapter


@dataclass
class ModelConfig:
    vocab_size: int = ranged(40, "[4, inf)")  # CorpusSpec's range: the corpus takes it
    n_mels: int = ranged(80, "[2, inf)")  # CorpusSpec's range: the corpus takes it
    d_h: int = ranged(256, "[1, inf)")
    heads: int = ranged(2, "[1, inf)")
    enc_layers: int = ranged(4, "[1, inf)")
    dec_layers: int = ranged(6, "[1, inf)")
    d_spk: int = ranged(256, "[1, inf)")
    d_attn: int = ranged(64, "[1, inf)")
    postnet_channels: int = ranged(256, "[1, inf)")
    postnet_layers: int = ranged(5, "[2, inf)")  # an input and an output conv

    def __post_init__(self):
        check_fields(self, "model.")
        if self.d_h % self.heads:
            raise ConfigError(f"model.heads={self.heads} does not divide model.d_h={self.d_h}")

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
    each utterance's `log_f0`, packed.
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
        self.log_f0 = np.concatenate([u.log_f0 for u in utts])
        self.energy = np.concatenate([np.asarray(u.energy, dtype=np.float64) for u in utts])
        self.embedding = np.stack(speakers)
        self.phonemes_seg = Segments([len(u.phonemes) for u in utts])
        self.frames_seg = Segments([mel.shape[0] for mel in mels])
        self.utterances_seg = Segments(np.ones(len(mels), dtype=np.int64))


class TTSModel(Module):
    def __init__(self, config, seed=0):
        c = config
        self.encoder = Encoder(rng_for(seed, "init", "encoder"), c.vocab_size, c.d_h, c.heads,
                               c.enc_layers)
        self.variance = VarianceAdapter(rng_for(seed, "init", "variance"), c.d_h, c.d_spk)
        self.decoder = Decoder(rng_for(seed, "init", "decoder"), c.d_h, c.n_mels, c.heads,
                               c.dec_layers)
        self.postnet = Postnet(rng_for(seed, "init", "postnet"), c.n_mels, c.postnet_channels,
                               c.postnet_layers)
        self.aligner = AlignmentEncoder(rng_for(seed, "init", "aligner"), c.d_h, c.n_mels, c.d_attn)
        self.config = c

    def site_counts(self):
        return {"e": len(self.encoder.blocks), "v": 2, "d": len(self.decoder.blocks)}

    def set_ranges(self, pitch_range, energy_range):
        self.variance.set_ranges(pitch_range, energy_range)

    def _adapters(self, hooks, tag, seg):
        """The AdapterSites of module `tag` over a packed sequence from
        the pack's tables (see adaptation.site_adapters), or one None per
        site."""
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

    def forward(self, phonemes, ph, speakers, rngs, hooks=None, targets=None):
        """One pass over packed phonemes laid out by `ph` and their (B, d_spk)
        speakers, as one graph. `rngs` holds one dropout generator per
        utterance, or none for a pass without dropout; `hooks` is
        AdaptedModel.hooks_for of the speakers, or None.

        Packed `targets` = (durations, log_f0, energy) teacher-force the pass.
        Without them it runs from its own predictions: rounded durations, f0
        rebuilt per utterance from the wavelet spectrogram, and the predicted
        energy; a non-finite f0, energy or mel is a NumericsError. Returns
        packed predictions (pitch mean and variance one per utterance), the
        durations used and the f0 (None when teacher-forced)."""
        spk_t = self._speaker_tensor(speakers)
        h_enc = self.encoder(phonemes, ph, rngs, adapters=self._adapters(hooks, "e", ph))
        h = self.variance.condition(h_enc, spk_t, ph)
        log_dur_pred = self.variance.duration(h, ph, rngs)
        if targets is None:
            durations = var_mod.durations_from_log(log_dur_pred.data)
        else:
            durations, log_f0, energy = targets
        h_reg = var_mod.length_regulate(h, durations)

        fr = Segments(np.add.reduceat(durations, ph.starts))
        pitch_adapter, energy_adapter = self._adapters(hooks, "v", fr)
        pitch_spec, pitch_mean, pitch_var = self.variance.pitch(h_reg, fr, rngs, adapter=pitch_adapter)
        f0 = None
        if targets is None:
            f0 = _finite("f0", np.concatenate([var_mod.icwt_reconstruct(
                pitch_spec.data[s:e].T.astype(np.float64), float(pitch_mean.data[b]),
                max(float(pitch_var.data[b]), 0.0)) for b, (s, e) in enumerate(fr.bounds)]))
            log_f0 = np.log(f0)
        h_p = self.variance.inject_pitch(h_reg, log_f0)
        energy_pred = self.variance.energy(h_p, fr, rngs, adapter=energy_adapter)
        if targets is None:
            energy = _finite("energy", energy_pred.data).astype(np.float64)
        h_pe = self.variance.inject_energy(h_p, energy)

        mel_pre = self.decoder(h_pe, fr, rngs, adapters=self._adapters(hooks, "d", fr))
        mel_post = self.postnet(mel_pre, fr, rngs)
        if targets is None:
            _finite("mel", mel_post.data)
        return {
            "mel_pre": mel_pre,
            "mel_post": mel_post,
            "log_dur": log_dur_pred,
            "pitch_spec": pitch_spec,
            "pitch_mean": pitch_mean,
            "pitch_var": pitch_var,
            "energy": energy_pred,
            "durations": durations,
            "f0": f0,
        }

    @ad.no_grad()
    def synthesize(self, phonemes, spk, hooks=None):
        """Free-running synthesis: `forward` over a pack of one utterance, with
        no dropout streams and no targets; `hooks` is AdaptedModel.hooks_for
        of that one speaker, or None. Records no tape.

        Returns (mel (m, n_mels) float32, info dict with durations, f0, energy).
        """
        ids = np.asarray(phonemes)
        out = self.forward(ids, Segments([ids.size]), spk, (), hooks=hooks)
        info = {
            "durations": out["durations"],
            "f0": out["f0"].astype(np.float32),
            "energy": out["energy"].data.astype(np.float32),
        }
        return out["mel_post"].data.astype(np.float32), info


def _finite(name, values):
    """A synthesis prediction, once every value is finite."""
    if not np.isfinite(values).all():
        raise NumericsError(f"synthesize: predicted {name} is non-finite")
    return values
