"""Parameter containers and the small layer vocabulary built on autodiff.

Module tracks parameters by attribute path so checkpoints, freezing, and
trainable-count reports all agree on names. Layers hold Tensors; anything
stored as a plain ndarray is a non-trainable buffer.

The modules of a pass (in `backbone` and `variance`) are called as
`(x, seg, rngs[, adapter(s)])`: `rngs` holds one dropout generator per
packed utterance, and a pass that must not drop out (validation, synthesis)
passes an empty sequence.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InputError


def rng_for(seed, *stream):
    """Deterministic generator for a named stream.

    Stream components may be strings or ints; the same (seed, stream) pair
    always produces the same generator, independent of call order anywhere
    else in the program.
    """
    keys = [seed if isinstance(seed, int) else _hash_text(str(seed))]
    for part in stream:
        keys.append(part if isinstance(part, int) else _hash_text(str(part)))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(keys)))


def _hash_text(s):
    h = 2166136261
    for byte in s.encode("utf-8"):
        h = ((h ^ byte) * 16777619) & 0xFFFFFFFF
    return h


def xavier_uniform(rng, shape, fan_in, fan_out):
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=shape).astype(ad.DEFAULT_DTYPE)


class Module:
    """Base class: parameters are Tensor attributes, discovered recursively."""

    def named_parameters(self, prefix=""):
        for name, val in vars(self).items():
            path = prefix + name
            if isinstance(val, Tensor):
                yield path, val
            elif isinstance(val, Module):
                yield from val.named_parameters(path + ".")
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Tensor):
                        yield f"{path}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(f"{path}.{i}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def param_count(self):
        return sum(p.size for p in self.parameters())

    def set_trainable(self, flag):
        for p in self.parameters():
            p.requires_grad = bool(flag)

    def state_arrays(self, prefix=""):
        """name -> ndarray copy, for checkpointing."""
        return {name: p.data.copy() for name, p in self.named_parameters(prefix)}

    def load_state_arrays(self, arrays, prefix=""):
        """Copy in every parameter from `arrays` (name -> ndarray). Names under
        `prefix` must match this module's exactly: a missing tensor or one the
        module does not have (say, from an older layout) is an InputError."""
        mine = dict(self.named_parameters(prefix))
        missing = sorted(set(mine) - set(arrays))
        if missing:
            raise InputError(f"state load missing {len(missing)} tensors, first: {missing[0]}")
        unexpected = sorted(k for k in arrays if k.startswith(prefix) and k not in mine)
        if unexpected:
            raise InputError(f"state load has {len(unexpected)} tensors this model does not, "
                             f"first: {unexpected[0]}")
        for name, p in mine.items():
            src = arrays[name]
            if src.shape != p.data.shape:
                raise InputError(f"state tensor {name}: shape {src.shape} != expected {p.data.shape}")
            p.data = src.astype(p.data.dtype, copy=True)


class Dense(Module):
    def __init__(self, rng, d_in, d_out, bias=True, zero_init=False):
        if zero_init:
            w = np.zeros((d_in, d_out), dtype=ad.DEFAULT_DTYPE)
        else:
            w = xavier_uniform(rng, (d_in, d_out), d_in, d_out)
        self.w = Tensor(w, requires_grad=True)
        self.b = (Tensor(np.zeros(d_out, dtype=ad.DEFAULT_DTYPE), requires_grad=True)
                  if bias else None)

    def __call__(self, x):
        return ad.linear(x, self.w, self.b)


class Conv1d(Module):
    """Length-preserving conv over (T, C_in); odd kernel, symmetric zero pad
    at both ends of every segment of a packed input."""

    def __init__(self, rng, c_in, c_out, kernel_size, zero_init=False):
        fan_in = kernel_size * c_in
        fan_out = kernel_size * c_out
        if zero_init:
            w = np.zeros((kernel_size, c_in, c_out), dtype=ad.DEFAULT_DTYPE)
        else:
            w = xavier_uniform(rng, (kernel_size, c_in, c_out), fan_in, fan_out)
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(c_out, dtype=ad.DEFAULT_DTYPE), requires_grad=True)

    def __call__(self, x, seg):
        return ad.conv1d(x, self.w, self.b, seg)


class LayerNorm(Module):
    """Gain and bias of a layer norm; the module nodes run it (autodiff.layer_norm_array)."""

    def __init__(self, d):
        self.gain = Tensor(np.ones(d, dtype=ad.DEFAULT_DTYPE), requires_grad=True)
        self.bias = Tensor(np.zeros(d, dtype=ad.DEFAULT_DTYPE), requires_grad=True)


class Embedding(Module):
    def __init__(self, rng, vocab, dim):
        table = (rng.standard_normal((vocab, dim)) * dim ** -0.5).astype(ad.DEFAULT_DTYPE)
        self.table = Tensor(table, requires_grad=True)

    def __call__(self, ids):
        return ad.embedding(self.table, ids)
