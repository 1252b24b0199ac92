"""Synthetic corpus: determinism, invariants, and embedding separability."""

import dataclasses
import hashlib
import itertools
import os
import re
import struct

import numpy as np
import pytest

from hyperadapt import featio
from hyperadapt.corpus import (
    CorpusSpec,
    Utterance,
    generate_corpus,
    load_corpus,
    phoneme_tables,
    speaker_latents,
    synth_utterance,
    synthetic_embedding,
)
from hyperadapt.errors import ConfigError, InputError
from hyperadapt.layers import rng_for

SMALL = CorpusSpec(utts_per_speaker=6)


def tree_hash(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for fn in sorted(filenames):
            p = os.path.join(dirpath, fn)
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def test_default_spec_yields_600_entries(tmp_path):
    spec = CorpusSpec()  # 8 + 4 speakers, 50 utterances each
    man = generate_corpus(spec, 5, str(tmp_path))
    entries = featio.read_manifest(man)
    assert len(entries) == 600
    speakers = {e.speaker for e in entries}
    assert sum(s.startswith("pre_") for s in speakers) == 8
    assert sum(s.startswith("adp_") for s in speakers) == 4


def test_generation_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_corpus(SMALL, 3, str(a))
    generate_corpus(SMALL, 3, str(b))
    assert tree_hash(a) == tree_hash(b)
    # and idempotent in place
    first = tree_hash(a)
    generate_corpus(SMALL, 3, str(a))
    assert tree_hash(a) == first


def test_generation_writes_three_files(tmp_path):
    generate_corpus(SMALL, 3, str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == ["corpus.json", "features.bin", "manifest.jsonl"]


def _damage(path, kind):
    if kind == "flip":  # the first payload byte: the first tensor in name order
        blob = bytearray(path.read_bytes())
        blob[12 + struct.unpack("<I", blob[8:12])[0]] ^= 0x40
        path.write_bytes(bytes(blob))
    elif kind == "missing":
        path.unlink()
    else:  # one utterance's arrays dropped
        meta, tensors = featio.read_checkpoint(path)
        featio.write_checkpoint(path, meta, {k: v for k, v in tensors.items()
                                             if not k.startswith(kind + ".")})


@pytest.mark.parametrize("kind, message", [
    ("flip", "tensor adp_00_u000.embedding: payload CRC-32 mismatch"),
    ("missing", "features.bin: features file missing"),
    ("pre_01_u002", "no array pre_01_u002.phonemes"),
])
def test_damaged_features_raise_input_error(tmp_path, kind, message):
    man = generate_corpus(SMALL, 3, str(tmp_path))
    _damage(tmp_path / "features.bin", kind)
    with pytest.raises(InputError, match=re.escape(message)):
        load_corpus(man)


def test_different_seeds_differ(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_corpus(SMALL, 3, str(a))
    generate_corpus(SMALL, 4, str(b))
    assert tree_hash(a) != tree_hash(b)


def test_utterance_invariants(tmp_path):
    man = generate_corpus(SMALL, 11, str(tmp_path))
    utts = load_corpus(man)
    assert len(utts) == 12 * 6
    tables, latents = phoneme_tables(SMALL, 11), speaker_latents(SMALL, 11)
    for u in utts:
        m = u.mel.shape[0]
        assert m >= 1 and np.isfinite(u.mel).all()
        assert len(u.f0) == len(u.energy) == m
        # the ground-truth durations the corpus rule drew the mel from
        mel, _, _, durations = synth_utterance(SMALL, tables, latents[u.speaker], u.phonemes,
                                               rng_for(11, "texture", u.utt_id))
        np.testing.assert_array_equal(mel, u.mel)
        assert int(durations.sum()) == m
        voiced = u.f0 > 0
        assert np.all((u.f0[voiced] >= 50.0) & (u.f0[voiced] <= 600.0))
        assert abs(float(np.linalg.norm(u.embedding)) - 1.0) < 1e-5
        assert u.embedding.shape == (SMALL.d_spk,)


def test_rate_latent_doubles_total_duration():
    tables = phoneme_tables(SMALL, 11)
    latent = speaker_latents(SMALL, 11)["pre_00"]
    phonemes = np.array([1, 2, 3, 4, 5, 9])
    slow = dataclasses.replace(latent, rate=1.0)
    fast = dataclasses.replace(latent, rate=2.0)
    _, _, _, d1 = synth_utterance(SMALL, tables, slow, phonemes, rng_for(0, "t"))
    _, _, _, d2 = synth_utterance(SMALL, tables, fast, phonemes, rng_for(0, "t"))
    assert int(d2.sum()) == 2 * int(d1.sum())


def test_within_speaker_cosine_exceeds_cross_speaker(tmp_path):
    man = generate_corpus(CorpusSpec(utts_per_speaker=10), 11, str(tmp_path))
    by = {}
    for u in load_corpus(man):
        by.setdefault(u.speaker, []).append(u.embedding)
    within, cross = [], []
    for s in sorted(by):
        for a, b in itertools.combinations(by[s], 2):
            within.append(float(a @ b))
    for s1, s2 in itertools.combinations(sorted(by), 2):
        for a in by[s1]:
            for b in by[s2]:
                cross.append(float(a @ b))
    assert min(within) > max(cross)


def test_splits_and_filters(tmp_path):
    man = generate_corpus(SMALL, 2, str(tmp_path))
    train = load_corpus(man, split="train")
    val = load_corpus(man, split="val")
    assert len(train) + len(val) == 72
    assert all(u.split == "val" for u in val)
    adapt_train = load_corpus(man, adaptation=True, split="train")
    assert {u.speaker[:4] for u in adapt_train} == {"adp_"}


def test_synthetic_embedding_determinism_and_jitter():
    mel = rng_for(0, "mel").normal(size=(40, 20))
    a = synthetic_embedding(mel, 24)
    b = synthetic_embedding(mel, 24)
    np.testing.assert_array_equal(a, b)
    j1 = synthetic_embedding(mel, 24, jitter=0.05, stream=("u1",))
    j2 = synthetic_embedding(mel, 24, jitter=0.05, stream=("u2",))
    assert np.abs(j1 - j2).max() > 0
    np.testing.assert_array_equal(
        j1, synthetic_embedding(mel, 24, jitter=0.05, stream=("u1",))
    )


def test_embedding_loudness_invariance():
    mel = rng_for(1, "mel").normal(size=(30, 20))
    a = synthetic_embedding(mel, 24)
    b = synthetic_embedding(mel + 3.0, 24)
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_spec_validation():
    with pytest.raises(ConfigError):
        CorpusSpec(speakers_pretrain=1)
    with pytest.raises(ConfigError):
        CorpusSpec(speakers_adapt=1)
    with pytest.raises(ConfigError):
        CorpusSpec(val_fraction=0.0)
    with pytest.raises(ConfigError):
        CorpusSpec(min_phonemes=6, max_phonemes=5)
