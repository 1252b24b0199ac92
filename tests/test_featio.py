"""The one binary container, and the corpus file written in it."""

import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperadapt import featio
from hyperadapt.corpus import CorpusSpec, generate_corpus, load_corpus
from hyperadapt.errors import InputError


def _meta(meta, payload=b""):
    """The bytes after a container's magic and before its CRC-32."""
    return struct.pack("<I", len(meta)) + meta + payload


class TestCheckpoint:
    def _sample(self):
        rng = np.random.default_rng(1)
        meta = {"step": 120, "config": {"d_h": 48, "seed": 7}, "energy_range": [0.0, 3.5]}
        tensors = {
            "encoder.w": rng.standard_normal((4, 4)).astype(np.float32),
            "decoder.b": rng.standard_normal(6).astype(np.float32),
            "table": np.arange(10, dtype=np.int64),
        }
        return meta, tensors

    def test_roundtrip(self, tmp_path):
        meta, tensors = self._sample()
        p = tmp_path / "model.ckpt"
        featio.write_checkpoint(p, meta, tensors)
        meta2, tensors2 = featio.read_checkpoint(p)
        assert meta2 == meta
        assert set(tensors2) == set(tensors)
        for k in tensors:
            assert tensors2[k].dtype == tensors[k].dtype
            np.testing.assert_array_equal(tensors2[k], tensors[k])

    def test_save_load_save_is_byte_stable(self, tmp_path):
        meta, tensors = self._sample()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        featio.write_checkpoint(a, meta, tensors)
        meta2, tensors2 = featio.read_checkpoint(a)
        featio.write_checkpoint(b, meta2, tensors2)
        assert a.read_bytes() == b.read_bytes()

    def test_tensor_order_does_not_matter(self, tmp_path):
        meta, tensors = self._sample()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        featio.write_checkpoint(a, meta, tensors)
        featio.write_checkpoint(b, meta, dict(reversed(list(tensors.items()))))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"garbage!" + bytes(8))
        with pytest.raises(InputError):
            featio.read_checkpoint(p)

    @pytest.mark.parametrize("name, reason", [("missing.ckpt", "No such file or directory"),
                                              ("", "Is a directory")])
    def test_unreadable_path_rejected_naming_it(self, tmp_path, name, reason):
        p = tmp_path / name
        with pytest.raises(InputError, match=re.escape(f"{p}: cannot be read ({reason})")):
            featio.read_checkpoint(p)

    def test_truncated_tensor_rejected(self, tmp_path):
        meta, tensors = self._sample()
        p = tmp_path / "x.ckpt"
        featio.write_checkpoint(p, meta, tensors)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(InputError):
            featio.read_checkpoint(p)

    @pytest.mark.parametrize("body, message", [
        (struct.pack("<I", 20) + b'{"tensors": []}', "truncated metadata"),
        (_meta(b"\xff"), "unreadable metadata"),
        (_meta(b"[1, 2]"), "metadata is not a JSON object"),
        (_meta(b'{"tensors": 3}'), "metadata missing tensor index"),
        (_meta(b'{"tensors": [3]}'), "tensor index entry 3 has no name"),
        (_meta(b'{"tensors": [{"name": "a", "dtype": 1}]}'),
         "tensor a: shape None is not a list of sizes"),
        (_meta(b'{"tensors": [{"name": "a", "dtype": 1, "shape": "ab"}]}'),
         "tensor a: shape 'ab' is not a list of sizes"),
        (_meta(b'{"tensors": [{"name": "a", "dtype": 1, "shape": [-1]}]}'),
         "tensor a: shape [-1] is not a list of sizes"),
        (_meta(b'{"tensors": [{"name": "a", "dtype": [1], "shape": [1]}]}'),
         "tensor a: unknown dtype code"),
        (_meta(b'{"tensors": [{"name": "a", "dtype": 1, "shape": [0]}, '
               b'{"name": "a", "dtype": 1, "shape": [0]}]}'), "tensor a listed twice"),
        (_meta(b'{"tensors": [{"name": "a", "dtype": 1, "shape": [2]}]}', bytes(4)),
         "tensor a: payload truncated"),
        (_meta(b'{"tensors": [{"name": "a", "dtype": 1, "shape": [1]}]}', bytes(6)),
         "2 trailing bytes after last tensor"),
    ], ids=lambda v: v if isinstance(v, str) else "frame")
    def test_malformed_index_rejected(self, tmp_path, body, message):
        # each file's CRC-32 matches, so the check named is the one that fails
        p = tmp_path / "x.ckpt"
        p.write_bytes(featio.CHECKPOINT_MAGIC + body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(InputError, match=re.escape(f"{p}: {message}")):
            featio.read_checkpoint(p)


def test_crc_covers_every_byte_between_the_magic_and_itself(tmp_path):
    p = tmp_path / "x.ckpt"
    featio.write_checkpoint(p, {"step": 1}, {"w": np.ones(3, dtype=np.float32)})
    blob = p.read_bytes()
    assert blob[:8] == b"HACKPT02"
    assert blob[-4:] == struct.pack("<I", zlib.crc32(blob[8:-4]))


def _damaged(blob):
    """A truncation of blob, or blob with one byte XORed by a nonzero mask."""
    cut = st.integers(0, len(blob) - 1).map(lambda n: blob[:n])
    flip = st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)).map(
        lambda im: blob[:im[0]] + bytes([blob[im[0]] ^ im[1]]) + blob[im[0] + 1:])
    return st.one_of(cut, flip)


@pytest.fixture(scope="module")
def intact(tmp_path_factory):
    """reader -> (directory, name, bytes) of one valid file each."""
    d = tmp_path_factory.mktemp("intact")
    featio.write_checkpoint(d / "x.ckpt", {"step": 3, "ranges": [0.5, 2.0]}, {
        "a.w": np.ones((2, 3), dtype=np.float32), "b": np.arange(4, dtype=np.int64)})
    generate_corpus(CorpusSpec(speakers_pretrain=2, speakers_adapt=2, utts_per_speaker=2,
                               n_mels=4, d_spk=4, min_phonemes=2, max_phonemes=3), 3, d)
    return {reader: (d, name, (d / name).read_bytes()) for reader, name in (
        (featio.read_checkpoint, "x.ckpt"), (load_corpus, "corpus.bin"))}


READERS = pytest.mark.parametrize("reader", [featio.read_checkpoint, load_corpus],
                                  ids=lambda f: f.__name__)


def _raises_naming(reader, path):
    with pytest.raises(InputError) as info:
        reader(path)
    assert str(info.value).startswith(f"{path}: "), info.value


@READERS
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_file_raises_input_error(intact, reader, data):
    # whichever byte took the damage, the CRC-32 no longer matches, so no
    # wrong numbers come back
    directory, name, blob = intact[reader]
    path = directory / ("damaged-" + name)
    path.write_bytes(data.draw(_damaged(blob)))
    _raises_naming(reader, path)


@READERS
def test_every_truncation_and_byte_flip_raises_naming_the_file(intact, reader):
    directory, name, blob = intact[reader]
    path = directory / ("every-" + name)
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        _raises_naming(reader, path)
    for i in range(len(blob)):
        for mask in (0x01, 0x40, 0xFF):
            path.write_bytes(blob[:i] + bytes([blob[i] ^ mask]) + blob[i + 1:])
            _raises_naming(reader, path)


@pytest.mark.parametrize("reader, old, new", [
    # the loader would expect utterances the file lacks
    (load_corpus, b'"utts_per_speaker":2', b'"utts_per_speaker":3'),
    (featio.read_checkpoint, b'"step":3', b'"step":4'),
    # float32 ones read as int32 would be 1065353216
    (featio.read_checkpoint, b'"dtype":1', b'"dtype":3'),
], ids=["utts_per_speaker", "step", "dtype"])
def test_metadata_flip_raises_naming_the_file(intact, reader, old, new):
    directory, name, blob = intact[reader]
    path = directory / ("flipped-" + name)
    assert blob.count(old) == 1
    path.write_bytes(blob.replace(old, new))
    with pytest.raises(InputError, match=re.escape(f"{path}: CRC-32 mismatch")):
        reader(path)
