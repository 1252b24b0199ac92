"""Binary formats: feature arrays, manifests, checkpoints."""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperadapt import featio
from hyperadapt.errors import InputError

from oracles import read_array


class TestFeatureFiles:
    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(12, dtype=np.float32).reshape(3, 4),
            np.linspace(-1, 1, 7).astype(np.float64),
            np.array([5, 0, 2], dtype=np.int64),
            np.zeros((1, 1), dtype=np.int32),
            np.empty((0,), dtype=np.float32),
        ],
    )
    def test_roundtrip_preserves_dtype_shape_values(self, tmp_path, arr):
        p = tmp_path / "x.bin"
        featio.write_array(p, arr)
        back = read_array(p)
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)

    def test_write_is_byte_stable(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((5, 3)).astype(np.float32)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        featio.write_array(a, arr)
        featio.write_array(b, read_array(a))
        assert a.read_bytes() == b.read_bytes()

    def test_header_is_sixteen_bytes(self, tmp_path):
        p = tmp_path / "x.bin"
        featio.write_array(p, np.zeros(4, dtype=np.float32))
        assert p.stat().st_size == 16 + 4 * 4
        assert p.read_bytes()[:4] == b"HAF1"

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(InputError):
            read_array(p)

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "x.bin"
        featio.write_array(p, np.zeros(8, dtype=np.float32))
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(InputError):
            read_array(p)

    def test_rank3_rejected(self, tmp_path):
        with pytest.raises(InputError):
            featio.write_array(tmp_path / "x.bin", np.zeros((2, 2, 2), dtype=np.float32))


def _entry(utt_id, speaker="spk0"):
    return featio.ManifestEntry(utt_id=utt_id, speaker=speaker, split="train")


class TestManifest:
    def test_roundtrip(self, tmp_path):
        entries = [_entry(f"utt{i}") for i in range(4)]
        mpath = tmp_path / "manifest.jsonl"
        featio.write_manifest(mpath, entries)
        back = featio.read_manifest(mpath)
        assert [e.utt_id for e in back] == [e.utt_id for e in entries]
        assert back[0] == entries[0]

    def test_duplicate_id_rejected(self, tmp_path):
        entries = [_entry("utt0"), _entry("utt0")]
        mpath = tmp_path / "manifest.jsonl"
        featio.write_manifest(mpath, entries)
        with pytest.raises(InputError):
            featio.read_manifest(mpath)

    @pytest.mark.parametrize("change, key", [
        ("drop", "split"),
        ("add", "mel"),        # a feature path, as older corpora carried
        ("add", "durations"),  # ground-truth durations are not part of the format
    ])
    def test_entry_needs_exactly_the_manifest_keys(self, tmp_path, change, key):
        record = dataclasses.asdict(_entry("utt0"))
        if change == "drop":
            del record[key]
        else:
            record[key] = f"utt0.{key}.bin"
        mpath = tmp_path / "manifest.jsonl"
        mpath.write_text(json.dumps(record) + "\n")
        word = "missing" if change == "drop" else "unknown"
        with pytest.raises(InputError, match=rf"{word} manifest keys \['{key}'\]"):
            featio.read_manifest(mpath)

    def test_unknown_key_rejected(self, tmp_path):
        mpath = tmp_path / "manifest.jsonl"
        mpath.write_text('{"utt_id": "a", "speaker": "s", "split": "train", "bogus": 1}\n')
        with pytest.raises(InputError):
            featio.read_manifest(mpath)

    @pytest.mark.parametrize("line", [
        b"7",                                                 # not an object
        b'{"utt_id": 1, "speaker": "s", "split": "train"}',  # a non-string field
        b"\xff\xfe",                                          # not UTF-8
    ])
    def test_malformed_record_rejected(self, tmp_path, line):
        mpath = tmp_path / "manifest.jsonl"
        mpath.write_bytes(line + b"\n")
        with pytest.raises(InputError):
            featio.read_manifest(mpath)


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
    featio.write_array(d / "x.bin", np.arange(6, dtype=np.float32).reshape(2, 3))
    featio.write_checkpoint(d / "x.ckpt", {"step": 3, "ranges": [0.5, 2.0]}, {
        "a.w": np.ones((2, 3), dtype=np.float32), "b": np.arange(4, dtype=np.int64)})
    entries = [_entry(f"u{i}") for i in range(2)]
    featio.write_manifest(d / "m.jsonl", entries)
    return {reader: (d, name, (d / name).read_bytes()) for reader, name in (
        (read_array, "x.bin"), (featio.read_checkpoint, "x.ckpt"),
        (featio.read_manifest, "m.jsonl"))}


@pytest.mark.parametrize("reader", [read_array, featio.read_checkpoint,
                                    featio.read_manifest], ids=lambda f: f.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_file_reads_or_raises_input_error(intact, reader, data):
    # a checkpoint whose tensor payload took the damage never reads: its
    # CRC-32 no longer matches, so no wrong numbers come back
    directory, name, blob = intact[reader]
    path = directory / ("damaged-" + name)
    damaged = data.draw(_damaged(blob))
    path.write_bytes(damaged)
    start = _payload_start(blob)
    payload_hit = (reader is featio.read_checkpoint and len(damaged) == len(blob)
                   and damaged[start:] != blob[start:])
    try:
        reader(path)
    except InputError:
        return
    assert not payload_hit, "a checkpoint with a damaged tensor payload read back"


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
