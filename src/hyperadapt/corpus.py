"""Deterministic synthetic multi-speaker corpus, generated directly in
feature space so ground-truth durations are exact and no vocoder enters the
loop.

Each speaker is a latent tuple (base log-F0, speaking rate, gain, spectral
tilt) plus a per-speaker "quirk" vector added to every mel frame. Pretrain
speakers sit on an even grid of the latent ranges; adaptation speakers sit at
grid midpoints, and their quirk vectors are orthogonalized against the span of
the pretrain quirks, so nothing seen during pretraining can explain them.
That construction is what makes zero-shot conditioning measurably worse than
adapted strategies on the held-out set.

Embeddings come from a fixed random projection of per-utterance mel
statistics through tanh, unit-normalized. The projection seed is a module
constant, independent of the corpus seed, so synthesized mel can be embedded
at evaluation time without knowing how the corpus was built.

A corpus is one featio container, corpus.bin. Its metadata is the seed and
the CorpusSpec, from which utterance_index derives every utterance's id,
speaker and split; its tensors are each utterance's arrays.
"""

import functools
import os
from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np

from . import featio
from .errors import ConfigError, InputError, checked, merge_checked
from .layers import rng_for

EMBEDDER_SEED = 1877  # fixed: the embedder is a stand-in for an external model

F0_FLOOR = 50.0
F0_CEIL = 600.0


@dataclass
class CorpusSpec:
    speakers_pretrain: int = 8
    speakers_adapt: int = 4
    utts_per_speaker: int = 50
    vocab_size: int = 32
    n_mels: int = 20
    d_spk: int = 24
    val_fraction: float = 0.2
    min_phonemes: int = 8
    max_phonemes: int = 14
    texture: float = 0.05   # per-utterance mel noise floor
    jitter: float = 0.02    # embedding jitter magnitude
    quirk_scale: float = 2.4

    def __post_init__(self):
        if self.speakers_pretrain < 2 or self.speakers_adapt < 2:
            raise ConfigError("corpus needs at least 2 speakers in each split")
        if self.vocab_size < 4:
            raise ConfigError("phoneme vocabulary must have at least 4 entries")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if self.min_phonemes < 1 or self.max_phonemes < self.min_phonemes:
            raise ConfigError("bad phoneme length range")
        if self.val_per_speaker >= self.utts_per_speaker:
            raise ConfigError(
                f"utts_per_speaker={self.utts_per_speaker} with val_fraction="
                f"{self.val_fraction} leaves a speaker without a train or a validation utterance")

    @property
    def val_per_speaker(self):
        """The validation utterances of each speaker: the first
        round(utts_per_speaker * val_fraction), at least one."""
        return max(1, int(round(self.utts_per_speaker * self.val_fraction)))

    def to_dict(self):
        return asdict(self)


@dataclass
class SpeakerLatent:
    log_f0: float
    rate: float
    gain: float
    tilt: float
    quirk: np.ndarray


@dataclass
class Utterance:
    utt_id: str
    speaker: str
    split: str
    phonemes: np.ndarray
    mel: np.ndarray
    f0: np.ndarray
    energy: np.ndarray
    embedding: np.ndarray


# -----------------------------------------------------------------------------
# phoneme inventory and speaker latents
# -----------------------------------------------------------------------------


def phoneme_tables(spec, seed):
    """Per-phoneme prototype spectrum, base duration, voicing, pitch offset,
    and energy amplitude. Deterministic in (spec, seed)."""
    rng = rng_for(seed, "phonemes")
    v = spec.vocab_size
    proto = (rng.normal(size=(v, spec.n_mels)) * 0.3).astype(np.float64)
    base_dur = 2 + (np.arange(v) * 7) % 5            # integers in [2, 6]
    voiced = (np.arange(v) % 4) != 0                 # three voiced in four
    pitch_off = rng.uniform(-0.18, 0.28, size=v)     # log-Hz offsets
    energy_amp = rng.uniform(0.35, 1.0, size=v)
    return {
        "proto": proto,
        "base_dur": base_dur.astype(np.int64),
        "voiced": voiced,
        "pitch_off": pitch_off,
        "energy_amp": energy_amp,
    }


def _grid(lo, hi, k, phase=0.0):
    # phase 0.5 puts values at midpoints of the k-point grid
    return [lo + (hi - lo) * (i + phase) / max(k - 1 + phase * 2, 1) for i in range(k)]


def _orthogonal_quirks(spec, seed, names):
    """One unit quirk per speaker, Gram-Schmidt orthogonalized in listed order
    while n_mels has room. Orthogonality keeps speakers maximally distinct and
    guarantees adaptation quirks lie outside everything pretraining saw."""
    done = []
    for name in names:
        group, idx = name.split("_")
        q = rng_for(seed, "quirk", group, int(idx)).normal(size=spec.n_mels)
        for prev in done:
            if len(done) >= spec.n_mels:
                break
            q = q - (q @ prev) * prev
        q /= np.linalg.norm(q)
        done.append(q)
    return {name: q * spec.quirk_scale for name, q in zip(names, done)}


def _speaker_ids(spec):
    """Pretrain then adaptation speaker ids, in the order their quirks are
    orthogonalized."""
    return ([f"pre_{i:02d}" for i in range(spec.speakers_pretrain)]
            + [f"adp_{i:02d}" for i in range(spec.speakers_adapt)])


def _permuted_grid(lo, hi, k, seed, group, name, phase=0.0):
    # shuffled assignment decorrelates the latent dimensions across speakers
    vals = _grid(lo, hi, k, phase)
    perm = rng_for(seed, "latperm", group, name).permutation(k)
    return [vals[perm[i]] for i in range(k)]


def speaker_latents(spec, seed):
    """speaker id -> SpeakerLatent. Pretrain speakers cover even grids of the
    latent ranges; adaptation speakers sit at midpoints. Quirk vectors are
    mutually orthogonal across the whole corpus."""
    names = _speaker_ids(spec)
    quirks = _orthogonal_quirks(spec, seed, names)
    out = {}
    for group, k, phase in (("pre", spec.speakers_pretrain, 0.0), ("adp", spec.speakers_adapt, 0.5)):
        f0s = _grid(np.log(120.0), np.log(260.0), k, phase)
        rates = _permuted_grid(0.8, 1.4, k, seed, group, "rate", phase)
        gains = _permuted_grid(0.6, 1.3, k, seed, group, "gain", phase)
        tilts = _permuted_grid(-0.3, 0.3, k, seed, group, "tilt", phase)
        for i in range(k):
            name = f"{group}_{i:02d}"
            out[name] = SpeakerLatent(
                log_f0=f0s[i], rate=rates[i], gain=gains[i], tilt=tilts[i],
                quirk=quirks[name],
            )
    return out


# -----------------------------------------------------------------------------
# utterance synthesis rule
# -----------------------------------------------------------------------------


def synth_utterance(spec, tables, latent, phonemes, texture_rng):
    """(mel, f0, energy, durations) for one phoneme sequence and speaker.

    Durations: max(1, round(base_dur * rate)) per phoneme, so doubling the
    rate latent exactly doubles the total (base durations are integers).
    """
    phonemes = np.asarray(phonemes, dtype=np.int64)
    durs = np.maximum(1, np.rint(tables["base_dur"][phonemes] * latent.rate)).astype(np.int64)
    m = int(durs.sum())
    frame_phone = np.repeat(phonemes, durs)
    t = np.arange(m, dtype=np.float64)
    decl = t / max(m - 1, 1)

    log_f0 = latent.log_f0 + tables["pitch_off"][frame_phone] - 0.12 * decl
    f0 = np.where(
        tables["voiced"][frame_phone],
        np.clip(np.exp(log_f0), F0_FLOOR, F0_CEIL),
        0.0,
    )

    energy = latent.gain * tables["energy_amp"][frame_phone] * (1.0 - 0.25 * decl)
    energy = energy * (1.0 + 0.05 * np.sin(0.7 * t))

    mel = tables["proto"][frame_phone].copy()
    mel += latent.tilt * np.linspace(-1.0, 1.0, spec.n_mels)
    mel += np.log(latent.gain)
    mel += latent.quirk
    mel += np.log(np.maximum(energy, 1e-3))[:, None] * 0.3
    # one-frame crossfade at phoneme boundaries keeps the sequence non-blocky
    starts = np.cumsum(durs)[:-1]
    for s in starts:
        mel[s] = 0.5 * (mel[s] + mel[s - 1])
    mel += texture_rng.normal(size=mel.shape) * spec.texture
    return (
        mel.astype(np.float32),
        f0.astype(np.float32),
        energy.astype(np.float32),
        durs,
    )


# -----------------------------------------------------------------------------
# speaker embeddings
# -----------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _embed_projection(n_mels, d_spk):
    """The embedder's fixed (d_spk, n_mels) projection, drawn once per shape
    and read-only, since every caller shares it."""
    rng = rng_for(EMBEDDER_SEED, "projection", n_mels, d_spk)
    proj = (rng.normal(size=(d_spk, n_mels)) / np.sqrt(n_mels)).astype(np.float64)
    proj.setflags(write=False)
    return proj


def synthetic_embedding(mel, d_spk, jitter=0.0, stream=()):
    """Unit-norm embedding from the utterance's mean spectrum; same mel ->
    same embedding.

    The mean is centered across mel bins first, making the embedding
    invariant to overall loudness, the way a speaker-verification model
    would be. jitter > 0 adds a deterministic per-stream perturbation
    before renormalizing, modelling embedder noise between utterances.
    """
    mel = np.asarray(mel, dtype=np.float64)
    if mel.ndim != 2 or mel.shape[0] < 1:
        raise InputError(f"embedding needs a (frames, n_mels) mel, got {mel.shape}")
    stats = mel.mean(axis=0)
    stats = stats - stats.mean()
    v = np.tanh(_embed_projection(mel.shape[1], d_spk) @ stats)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise InputError("degenerate mel produced a zero embedding")
    v = v / norm
    if jitter:
        noise = rng_for(EMBEDDER_SEED, "jitter", *stream).normal(size=d_spk)
        v = v + jitter * noise / np.linalg.norm(noise)
        v = v / np.linalg.norm(v)
    return v.astype(np.float32)


# -----------------------------------------------------------------------------
# corpus generation and loading
# -----------------------------------------------------------------------------


FEATURE_FIELDS = ("phonemes", "mel", "f0", "energy", "embedding")

IndexEntry = namedtuple("IndexEntry", "utt_id speaker split")


def utterance_index(spec):
    """Every utterance of the corpus `spec` describes, in file order:
    speakers by id, then utterances by number; each speaker's first
    spec.val_per_speaker are validation."""
    n_val = spec.val_per_speaker
    return [IndexEntry(f"{sid}_u{u:03d}", sid, "val" if u < n_val else "train")
            for sid in sorted(_speaker_ids(spec)) for u in range(spec.utts_per_speaker)]


def generate_corpus(spec, seed, out_dir):
    """Write the corpus as out_dir/corpus.bin, a featio container whose
    metadata is {"seed", "spec"} and whose tensors are every utterance's
    arrays `<utt_id>.<field>`. Returns its path.

    Deterministic: same (spec, seed) produces a byte-identical file.
    """
    os.makedirs(out_dir, exist_ok=True)
    tables = phoneme_tables(spec, seed)
    latents = speaker_latents(spec, seed)
    tensors = {}
    for entry in utterance_index(spec):
        utt_id = entry.utt_id
        rng_text = rng_for(seed, "text", entry.speaker, int(utt_id.rsplit("_u", 1)[1]))
        n = int(rng_text.integers(spec.min_phonemes, spec.max_phonemes + 1))
        phonemes = rng_text.integers(0, spec.vocab_size, size=n).astype(np.int64)
        mel, f0, energy, _ = synth_utterance(
            spec, tables, latents[entry.speaker], phonemes, rng_for(seed, "texture", utt_id)
        )
        emb = synthetic_embedding(mel, spec.d_spk, spec.jitter, stream=(utt_id,))
        for field, arr in zip(FEATURE_FIELDS, (phonemes, mel, f0, energy, emb)):
            tensors[f"{utt_id}.{field}"] = arr
    path = os.path.join(out_dir, "corpus.bin")
    featio.write_checkpoint(path, {"seed": seed, "spec": spec.to_dict()}, tensors)
    return path


def is_adaptation_speaker(speaker):
    return speaker.startswith("adp_")


def filter_entries(entries, *, adaptation=None, split=None):
    """The index entries (or utterances) of one speaker group and split, in
    their order; None keeps every group or split."""
    out = entries
    if adaptation is not None:
        out = [e for e in out if is_adaptation_speaker(e.speaker) == adaptation]
    if split is not None:
        out = [e for e in out if e.split == split]
    return out


def _read_corpus(path):
    """(utterance index, tensors) of a corpus file: its metadata must be a
    seed and a CorpusSpec, and its tensors exactly the arrays of the
    utterances that spec indexes."""
    meta, tensors = featio.read_checkpoint(path)
    if set(meta) != {"seed", "spec"}:
        raise InputError(f"{path}: not a corpus (metadata keys {sorted(meta)}, "
                         "not seed and spec)")
    fields = asdict(CorpusSpec())
    try:
        checked("seed", 0, meta["seed"])
        merge_checked(fields, checked("spec", {}, meta["spec"]), "spec.")
        index = utterance_index(CorpusSpec(**fields))
    except ConfigError as e:
        raise InputError(f"{path}: corpus metadata: {e}") from None
    names = [f"{e.utt_id}.{field}" for e in index for field in FEATURE_FIELDS]
    missing = [name for name in names if name not in tensors]
    if missing:
        raise InputError(f"{path}: no array {missing[0]}")
    extra = sorted(tensors.keys() - set(names))
    if extra:
        raise InputError(f"{path}: array {extra[0]} is not in the spec's utterance index")
    return index, tensors


def load_corpus(path, *, adaptation=None, split=None):
    """The utterances of a corpus file, in file order, filtered as
    filter_entries does. Reads the file once and checks every CRC-32; a
    damaged file, metadata that is not a valid seed and spec, or arrays
    other than the ones that spec indexes is an InputError naming the file
    (and the array or key) that says to regenerate it."""
    try:
        index, tensors = _read_corpus(path)
    except InputError as e:
        raise InputError(f"{e}; regenerate the corpus with gen-corpus") from None
    return [Utterance(*e, **{f: tensors[f"{e.utt_id}.{f}"] for f in FEATURE_FIELDS})
            for e in filter_entries(index, adaptation=adaptation, split=split)]
