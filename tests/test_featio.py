"""The one binary container, and the corpus file written in it."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperadapt import featio
from hyperadapt.corpus import CorpusSpec, generate_corpus, load_corpus
from hyperadapt.errors import InputError


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

    @pytest.mark.parametrize("meta", [
        b"[1, 2]",
        b'{"tensors": 3}',
        b'{"tensors": [3]}',
        b'{"tensors": [{"name": "a", "dtype": 1}]}',
        b'{"tensors": [{"name": "a", "dtype": 1, "shape": "ab"}]}',
        b'{"tensors": [{"name": "a", "dtype": 1, "shape": [-1]}]}',
        b'{"tensors": [{"name": "a", "dtype": [1], "shape": [1]}]}',
        b'{"tensors": [{"name": "a", "dtype": 1, "shape": [0]}]}',
        b'{"tensors": [{"name": "a", "dtype": 1, "shape": [0], "crc32": "0"}]}',
        # the CRC-32 of an empty f32 tensor of shape [0], so the duplicate
        # name is what fails
        b'{"tensors": [{"name": "a", "dtype": 1, "shape": [0], "crc32": 1409254781}, '
        b'{"name": "a", "dtype": 1, "shape": [0], "crc32": 1409254781}]}',
    ])
    def test_malformed_index_rejected(self, tmp_path, meta):
        p = tmp_path / "x.ckpt"
        p.write_bytes(featio.CHECKPOINT_MAGIC + struct.pack("<I", len(meta)) + meta)
        with pytest.raises(InputError):
            featio.read_checkpoint(p)


def test_checkpoint_index_dtype_flip_raises(tmp_path):
    # the dtype code and shape are covered by the tensor's CRC-32: a float32
    # ones tensor whose index says int32 would read back as 1065353216
    p = tmp_path / "x.ckpt"
    featio.write_checkpoint(p, {}, {"w": np.ones(4, dtype=np.float32)})
    blob = p.read_bytes()
    assert blob.count(b'"dtype":1') == 1
    p.write_bytes(blob.replace(b'"dtype":1', b'"dtype":3'))
    with pytest.raises(InputError, match="tensor w: payload CRC-32 mismatch"):
        featio.read_checkpoint(p)


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


@pytest.mark.parametrize("reader", [featio.read_checkpoint, load_corpus],
                         ids=lambda f: f.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_file_reads_or_raises_input_error(intact, reader, data):
    # a file whose tensor payload took the damage never reads: its CRC-32
    # no longer matches, so no wrong numbers come back
    directory, name, blob = intact[reader]
    path = directory / ("damaged-" + name)
    damaged = data.draw(_damaged(blob))
    path.write_bytes(damaged)
    start = _payload_start(blob)
    payload_hit = len(damaged) == len(blob) and damaged[start:] != blob[start:]
    try:
        reader(path)
    except InputError:
        return
    assert not payload_hit, f"a {name} with a damaged tensor payload read back"


def _payload_start(blob):
    """Offset of the first tensor payload byte of a checkpoint."""
    return 12 + struct.unpack("<I", blob[8:12])[0]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_checkpoint_payload_flip_raises_naming_the_tensor(intact, data):
    directory, name, blob = intact[featio.read_checkpoint]
    i = data.draw(st.integers(_payload_start(blob), len(blob) - 1))
    mask = data.draw(st.integers(1, 255))
    path = directory / ("flipped-" + name)
    path.write_bytes(blob[:i] + bytes([blob[i] ^ mask]) + blob[i + 1:])
    tensor = "a.w" if i - _payload_start(blob) < 4 * 6 else "b"  # payloads in name order
    with pytest.raises(InputError, match=f"tensor {tensor}: payload CRC-32 mismatch"):
        featio.read_checkpoint(path)
