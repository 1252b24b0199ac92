"""The one on-disk container: checkpoints, a corpus (corpus.bin), synthesis
outputs and generated adapter weights are all written in it.

Layout: 8-byte magic "HACKPT02", u32 metadata length, canonical JSON
metadata (sorted keys, compact separators), the tensor payloads
concatenated in the order given by the metadata's "tensors" index, then a
u32 zlib CRC-32 over every byte between the magic and itself. A load checks
that CRC before it parses the metadata, so a damaged length, metadata byte
or payload byte never reads back. Each index entry records the tensor's
name, dtype code (1=f32, 2=f64, 3=i32, 4=i64) and shape. The rest of the
metadata is the writer's own (a checkpoint's step counter, config echo and
quantization ranges; a corpus's seed and spec); the same bytes always come
back out after a load/save round trip.
"""

import json
import math
import os
import struct
import zlib

import numpy as np

from .errors import InputError

CHECKPOINT_MAGIC = b"HACKPT02"

_DTYPE_TO_CODE = {
    np.dtype(np.float32): 1,
    np.dtype(np.float64): 2,
    np.dtype(np.int32): 3,
    np.dtype(np.int64): 4,
}
_CODE_TO_DTYPE = {v: k for k, v in _DTYPE_TO_CODE.items()}


def _dtype_code(arr, where):
    code = _DTYPE_TO_CODE.get(arr.dtype)
    if code is None:
        raise InputError(f"{where}: unsupported dtype {arr.dtype} (need f32/f64/i32/i64)")
    return code


def write_checkpoint(path, meta, tensors):
    """meta: JSON-serializable dict (step, config echo, quantization ranges).
    tensors: name -> ndarray. Tensor bytes are appended in sorted-name order.
    """
    if "tensors" in meta:
        raise InputError("checkpoint meta may not define the reserved key 'tensors'")
    arrays = [(name, np.ascontiguousarray(tensors[name])) for name in sorted(tensors)]
    index = [{"name": name, "dtype": _dtype_code(arr, f"checkpoint tensor {name}"),
              "shape": list(arr.shape)} for name, arr in arrays]
    meta_bytes = json.dumps({**meta, "tensors": index}, sort_keys=True,
                            separators=(",", ":")).encode("utf-8")
    header = struct.pack("<I", len(meta_bytes)) + meta_bytes
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC + header)
        crc = zlib.crc32(header)
        for _, arr in arrays:  # one payload in memory at a time
            payload = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
            f.write(payload)
            crc = zlib.crc32(payload, crc)
        f.write(struct.pack("<I", crc))
    os.replace(tmp, path)


def _index_item(path, item):
    """(name, dtype, shape) of one entry of a checkpoint's tensor index."""
    if not isinstance(item, dict) or not isinstance(item.get("name"), str):
        raise InputError(f"{path}: tensor index entry {item!r:.60} has no name")
    name, code, shape = item["name"], item.get("dtype"), item.get("shape")
    dtype = _CODE_TO_DTYPE.get(code) if type(code) is int else None
    if dtype is None:
        raise InputError(f"{path}: tensor {name}: unknown dtype code")
    if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape):
        raise InputError(f"{path}: tensor {name}: shape {shape!r:.60} is not a list of sizes")
    return name, dtype, tuple(shape)


def read_checkpoint(path):
    """Returns (meta, tensors) with the 'tensors' index stripped from meta.
    A path that cannot be read (missing, a directory) or a file whose CRC-32
    does not match is an InputError."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise InputError(f"{path}: cannot be read ({e.strerror})") from None
    if len(blob) < 16 or blob[:8] != CHECKPOINT_MAGIC:
        raise InputError(f"{path}: not a checkpoint (bad magic or truncated)")
    end = len(blob) - 4
    if zlib.crc32(memoryview(blob)[8:end]) != struct.unpack("<I", blob[end:])[0]:
        raise InputError(f"{path}: CRC-32 mismatch (file damaged or truncated)")
    (meta_len,) = struct.unpack("<I", blob[8:12])
    if 12 + meta_len > end:
        raise InputError(f"{path}: truncated metadata")
    try:
        meta = json.loads(blob[12 : 12 + meta_len].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise InputError(f"{path}: unreadable metadata ({e})") from None
    if not isinstance(meta, dict):
        raise InputError(f"{path}: metadata is not a JSON object")
    index = meta.pop("tensors", None)
    if not isinstance(index, list):
        raise InputError(f"{path}: metadata missing tensor index")
    tensors = {}
    offset = 12 + meta_len
    for item in index:
        name, dtype, shape = _index_item(path, item)
        if name in tensors:
            raise InputError(f"{path}: tensor {name} listed twice")
        count = math.prod(shape)
        nbytes = count * dtype.itemsize
        if offset + nbytes > end:
            raise InputError(f"{path}: tensor {name}: payload truncated")
        arr = np.frombuffer(blob, dtype=dtype.newbyteorder("<"), count=count, offset=offset)
        tensors[name] = arr.astype(dtype, copy=True).reshape(shape)
        offset += nbytes
    if offset != end:
        raise InputError(f"{path}: {end - offset} trailing bytes after last tensor")
    return meta, tensors
