"""Sequence backbone: phoneme embedding with sinusoidal positions, stacked
feed-forward transformer blocks for the encoder and decoder, and the
convolutional Postnet.

Each block is self-attention plus a two-layer conv stack (kernel sizes 9 and
1, first conv ReLU-activated), with residual connections and post layer norm
around both sub-stacks. Masked positions are zeroed after every block and
excluded from attention, so valid positions never see padding content.

Adapter hooks slot in after a block's conv stack, before the closing
residual+norm; every block therefore exposes exactly one insertion site.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, InputError
from .layers import Conv1d, Dense, Embedding, LayerNorm, Module


def sinusoidal_table(n, d, dtype=np.float32):
    """(n, d) position encoding: even columns sine, odd columns cosine."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    half_idx = np.arange(0, d, 2, dtype=np.float64)
    angle = pos / np.power(10000.0, half_idx / d)[None, :]
    table = np.zeros((n, d))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, : d // 2])
    return table.astype(dtype)


def _full_mask(n):
    return np.ones(n, dtype=bool)


def _mask_out(h, mask):
    if mask.all():
        return h
    keep = np.broadcast_to(mask[:, None], h.shape).astype(h.data.dtype)
    return ad.mul(h, Tensor(keep))


class MultiHeadAttention(Module):
    def __init__(self, rng, d_h, heads, p_dropout=0.1):
        if d_h % heads:
            raise ConfigError(f"hidden size {d_h} not divisible by {heads} heads")
        self.heads = heads
        self.wq = Dense(rng, d_h, d_h)
        self.wk = Dense(rng, d_h, d_h)
        self.wv = Dense(rng, d_h, d_h)
        self.wo = Dense(rng, d_h, d_h)
        self.p_dropout = p_dropout

    def __call__(self, h, mask, ctx):
        key_bias = None
        if not mask.all():
            # large negative on padded keys; kept finite so softmax stays defined
            key_bias = np.where(mask, 0.0, -1e9).astype(h.data.dtype)
        out = ad.attention(self.wq(h), self.wk(h), self.wv(h), self.heads, key_bias,
                           self.p_dropout, ctx.rng, ctx.training)
        return self.wo(out)


class FFTBlock(Module):
    def __init__(self, rng, d_h, heads, conv_kernels=(9, 1), p_dropout=0.1):
        self.attn = MultiHeadAttention(rng, d_h, heads, p_dropout)
        self.norm1 = LayerNorm(d_h)
        self.conv1 = Conv1d(rng, d_h, d_h, conv_kernels[0])
        self.conv2 = Conv1d(rng, d_h, d_h, conv_kernels[1])
        self.norm2 = LayerNorm(d_h)
        self.p_dropout = p_dropout

    def __call__(self, h, mask, ctx, adapter=None):
        a = ad.dropout(self.attn(h, mask, ctx), self.p_dropout, ctx.rng, ctx.training)
        h = _mask_out(self.norm1(ad.add(h, a)), mask)
        c = self.conv2(ad.relu(self.conv1(h)))
        if adapter is not None:
            c = adapter(c)
        c = ad.dropout(c, self.p_dropout, ctx.rng, ctx.training)
        h = _mask_out(self.norm2(ad.add(h, c)), mask)
        return h


class Encoder(Module):
    """Phoneme ids -> hidden sequence through 4 FFT blocks (default)."""

    def __init__(self, rng, vocab, d_h, heads=2, n_layers=4, conv_kernels=(9, 1), p_dropout=0.1):
        self.embed = Embedding(rng, vocab, d_h)
        self.blocks = [FFTBlock(rng, d_h, heads, conv_kernels, p_dropout) for _ in range(n_layers)]
        self.d_h = d_h

    def __call__(self, phoneme_ids, ctx, mask=None, adapters=None):
        ids = np.asarray(phoneme_ids)
        if ids.size == 0:
            raise InputError("encode: empty phoneme sequence")
        mask = _full_mask(ids.size) if mask is None else np.asarray(mask, dtype=bool)
        if not mask.any():
            raise InputError("encode: every position is masked")
        pe = sinusoidal_table(ids.size, self.d_h, dtype=self.embed.table.dtype)
        h = _mask_out(ad.add(self.embed(ids), Tensor(pe)), mask)
        for i, block in enumerate(self.blocks):
            h = block(h, mask, ctx, adapter=adapters[i] if adapters else None)
        return h


class Decoder(Module):
    """Frame-level hidden sequence -> mel frames through 6 FFT blocks (default)."""

    def __init__(self, rng, d_h, n_mels, heads=2, n_layers=6, conv_kernels=(9, 1), p_dropout=0.1):
        self.blocks = [FFTBlock(rng, d_h, heads, conv_kernels, p_dropout) for _ in range(n_layers)]
        self.mel_head = Dense(rng, d_h, n_mels)
        self.d_h = d_h

    def __call__(self, h, ctx, mask=None, adapters=None):
        m = h.shape[0]
        if m == 0:
            raise InputError("decode: zero-length frame sequence")
        mask = _full_mask(m) if mask is None else np.asarray(mask, dtype=bool)
        h = ad.add(h, Tensor(sinusoidal_table(m, self.d_h, dtype=h.dtype)))
        h = _mask_out(h, mask)
        for i, block in enumerate(self.blocks):
            h = block(h, mask, ctx, adapter=adapters[i] if adapters else None)
        return self.mel_head(h)


class Postnet(Module):
    """Residual mel refinement; final conv zero-initialized so the stack is
    the identity at the start of training."""

    def __init__(self, rng, n_mels, channels=256, kernel=5, n_layers=5, p_dropout=0.1):
        if n_layers < 2:
            raise ConfigError(f"postnet needs at least 2 layers, got {n_layers}")
        convs = [Conv1d(rng, n_mels, channels, kernel)]
        for _ in range(n_layers - 2):
            convs.append(Conv1d(rng, channels, channels, kernel))
        convs.append(Conv1d(rng, channels, n_mels, kernel, zero_init=True))
        self.convs = convs
        self.p_dropout = p_dropout

    def __call__(self, mel, ctx):
        h = mel
        for conv in self.convs[:-1]:
            h = ad.dropout(ad.tanh(conv(h)), self.p_dropout, ctx.rng, ctx.training)
        residual = self.convs[-1](h)
        return ad.add(mel, residual)
