"""Synthetic corpus: determinism, invariants, and embedding separability."""

import dataclasses
import hashlib
import itertools
import os
import re

import numpy as np
import pytest

from hyperadapt import corpus as corpus_mod
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
    utterance_index,
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
    utts = load_corpus(generate_corpus(spec, 5, str(tmp_path)))
    assert len(utts) == 600
    assert [(u.utt_id, u.speaker, u.split) for u in utts] == utterance_index(spec)
    speakers = {u.speaker for u in utts}
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


def test_generation_writes_one_file(tmp_path):
    path = generate_corpus(SMALL, 3, str(tmp_path))
    assert os.listdir(tmp_path) == ["corpus.bin"] and path == str(tmp_path / "corpus.bin")
    meta, _ = featio.read_checkpoint(path)
    assert meta == {"seed": 3, "spec": dataclasses.asdict(SMALL)}


def test_index_order_is_speaker_then_number():
    index = utterance_index(CorpusSpec(speakers_pretrain=2, speakers_adapt=2,
                                       utts_per_speaker=5))
    assert [e.utt_id for e in index[:6]] == [
        "adp_00_u000", "adp_00_u001", "adp_00_u002", "adp_00_u003", "adp_00_u004",
        "adp_01_u000"]
    assert [e.split for e in index[:5]] == ["val", "train", "train", "train", "train"]
    assert {e.speaker for e in index} == {"adp_00", "adp_01", "pre_00", "pre_01"}


def _rewrite(path, edit_meta=None, keep=lambda name: True, add=None):
    """Rewrite corpus file `path` with edited metadata or tensors, its
    CRC-32 still valid."""
    meta, tensors = featio.read_checkpoint(path)
    if edit_meta:
        edit_meta(meta)
    tensors = {k: v for k, v in tensors.items() if keep(k)}
    featio.write_checkpoint(path, meta, {**tensors, **(add or {})})


def _damage(path, kind):
    if kind == "flip":  # one byte of the first embedding's payload
        _, tensors = featio.read_checkpoint(path)
        blob = bytearray(path.read_bytes())
        blob[blob.index(tensors["adp_00_u000.embedding"].tobytes())] ^= 0x40
        path.write_bytes(bytes(blob))
    elif kind == "directory":  # a corpus directory in place of its file
        path.unlink()
        path.mkdir()
    elif kind == "manifest":  # what a corpus directory held before it was one file
        path.write_text('{"speaker": "pre_00", "split": "val", "utt_id": "pre_00_u000"}\n')
    elif kind == "no_spec":
        _rewrite(path, edit_meta=lambda m: m.pop("spec"))
    elif kind == "string_n_mels":
        _rewrite(path, edit_meta=lambda m: m["spec"].update(n_mels="20"))
    elif kind == "unknown_spec_key":
        _rewrite(path, edit_meta=lambda m: m["spec"].update(speakers=3))
    elif kind == "more_utts":
        _rewrite(path, edit_meta=lambda m: m["spec"].update(utts_per_speaker=7))
    elif kind == "extra_array":
        _rewrite(path, add={"adp_00_u000.durations": np.ones(3, dtype=np.int64)})
    else:  # one utterance's arrays dropped
        _rewrite(path, keep=lambda name: not name.startswith(kind + "."))


@pytest.mark.parametrize("kind, message", [
    ("flip", "corpus.bin: CRC-32 mismatch (file damaged or truncated)"),
    ("directory", "corpus.bin: cannot be read (Is a directory)"),
    ("manifest", "corpus.bin: not a checkpoint (bad magic or truncated)"),
    ("no_spec", "corpus.bin: not a corpus (metadata keys ['seed'], not seed and spec)"),
    ("string_n_mels", "corpus metadata: key 'corpus.n_mels' expects int, got '20'"),
    ("unknown_spec_key", "corpus metadata: unknown key 'corpus.speakers'"),
    ("more_utts", "no array adp_00_u006.phonemes"),
    ("extra_array", "array adp_00_u000.durations is not in the spec's utterance index"),
    ("pre_01_u002", "no array pre_01_u002.phonemes"),
])
def test_damaged_features_raise_input_error(tmp_path, kind, message):
    path = generate_corpus(SMALL, 3, str(tmp_path))
    _damage(tmp_path / "corpus.bin", kind)
    with pytest.raises(InputError, match=re.escape(message) + ".*; regenerate the corpus "
                                                               "with gen-corpus$"):
        load_corpus(path)


def test_different_seeds_differ(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_corpus(SMALL, 3, str(a))
    generate_corpus(SMALL, 4, str(b))
    assert tree_hash(a) != tree_hash(b)


def test_utterance_invariants(tmp_path):
    path = generate_corpus(SMALL, 11, str(tmp_path))
    utts = load_corpus(path)
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
    path = generate_corpus(CorpusSpec(utts_per_speaker=10), 11, str(tmp_path))
    by = {}
    for u in load_corpus(path):
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
    path = generate_corpus(SMALL, 2, str(tmp_path))
    train = load_corpus(path, split="train")
    val = load_corpus(path, split="val")
    assert len(train) + len(val) == 72
    assert all(u.split == "val" for u in val)
    adapt_train = load_corpus(path, adaptation=True, split="train")
    assert {u.speaker[:4] for u in adapt_train} == {"adp_"}


def test_synthetic_embedding_determinism_and_jitter():
    mel = rng_for(0, "mel").normal(size=(40, 20))
    a = synthetic_embedding(mel, 24)
    b = synthetic_embedding(mel, 24)
    np.testing.assert_array_equal(a, b)
    j1 = synthetic_embedding(mel, 24, stream=("u1",))
    j2 = synthetic_embedding(mel, 24, stream=("u2",))
    assert np.abs(j1 - j2).max() > 0
    np.testing.assert_array_equal(j1, synthetic_embedding(mel, 24, stream=("u1",)))
    # the projection is drawn once per shape and shared, so nothing may write it
    assert not corpus_mod._embed_projection(20, 24).flags.writeable


def test_a_stream_jitters_by_the_recipe_length():
    # 0.02 is the length the corpus and dump-hyper-params have always
    # jittered by, so a stream gives the bits it gave when it was an argument
    mel = rng_for(2, "mel").normal(size=(30, 20))
    stream = ("dump", "adp_00", 1)
    stats = mel.mean(axis=0)
    v = np.tanh(corpus_mod._embed_projection(20, 24) @ (stats - stats.mean()))
    v = v / np.linalg.norm(v)
    noise = rng_for(corpus_mod.EMBEDDER_SEED, "jitter", *stream).normal(size=24)
    v = v + 0.02 * noise / np.linalg.norm(noise)
    want = (v / np.linalg.norm(v)).astype(np.float32)
    np.testing.assert_array_equal(synthetic_embedding(mel, 24, stream=stream), want)


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
        CorpusSpec(min_phonemes=6, max_phonemes=5)
    # every speaker needs a validation and a train utterance
    for utts in (0, 1):
        with pytest.raises(ConfigError, match=f"utts_per_speaker={utts} "):
            CorpusSpec(utts_per_speaker=utts)
    assert CorpusSpec(utts_per_speaker=2).val_per_speaker == 1
