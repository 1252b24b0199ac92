"""Sequence backbone: phoneme embedding with sinusoidal positions, stacked
feed-forward transformer blocks for the encoder and decoder, and the
convolutional Postnet.

Each block is self-attention plus a two-layer conv stack (kernel sizes 9 and
1, first conv ReLU-activated), with residual connections and post layer norm
around both sub-stacks. These kernels, the Postnet's and the dropout rate are
FastSpeech 2's, module constants rather than config keys. Every module runs
over a packed sequence: B utterances stacked along time, laid out by an
`autodiff.Segments` (one segment for a single utterance). Attention,
convolution and positions restart at each segment, so no utterance sees
another's rows.

An FFT block and the Postnet each record one tape node: the node runs the
ops on arrays (autodiff's `*_array` functions) through an
`autodiff.Recorder`, whose backward computes only the gradients its parents
ask for.

An adapter site (an `adaptation.AdapterSite`) slots in after a block's conv
stack, before its dropout and the closing residual+norm, inside the block's
node; every block therefore exposes exactly one insertion site.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, InputError
from .layers import Conv1d, Dense, Embedding, LayerNorm, Module

FFT_KERNELS = (9, 1)  # the FFT block's two convs
POSTNET_KERNEL = 5
DROPOUT = 0.1  # after attention, each block's conv stack and each Postnet conv


def sinusoidal_table(n, d, dtype=np.float32):
    """(n, d) position encoding: even columns sine, odd columns cosine."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    half_idx = np.arange(0, d, 2, dtype=np.float64)
    angle = pos / np.power(10000.0, half_idx / d)[None, :]
    table = np.zeros((n, d))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, : d // 2])
    return table.astype(dtype)


_TABLES = {}  # (d, dtype) -> the longest sinusoidal table built so far


def positions(seg, d, dtype):
    """(seg.total, d) sinusoidal rows restarting at 0 in every segment, cut
    from one cached table; each row equals the same row of sinusoidal_table."""
    longest = int(seg.lengths.max())
    key = (d, np.dtype(dtype))
    table = _TABLES.get(key)
    if table is None or table.shape[0] < longest:
        table = _TABLES[key] = sinusoidal_table(max(256, 1 << (longest - 1).bit_length()), d, dtype)
    return table[:seg.total] if len(seg) == 1 else table[seg.positions()]


class MultiHeadAttention(Module):
    """The four projections of self-attention; FFTBlock runs them."""

    def __init__(self, rng, d_h, heads):
        if d_h % heads:
            raise ConfigError(f"{heads} attention heads do not divide the width {d_h}")
        self.heads = heads
        self.wq = Dense(rng, d_h, d_h)
        # no key bias: q . b_k is the same for every key of a query, so the
        # softmax cancels it and its gradient is exactly zero
        self.wk = Dense(rng, d_h, d_h, bias=False)
        self.wv = Dense(rng, d_h, d_h)
        self.wo = Dense(rng, d_h, d_h)


class FFTBlock(Module):
    def __init__(self, rng, d_h, heads):
        self.attn = MultiHeadAttention(rng, d_h, heads)
        self.norm1 = LayerNorm(d_h)
        self.conv1 = Conv1d(rng, d_h, d_h, FFT_KERNELS[0])
        self.conv2 = Conv1d(rng, d_h, d_h, FFT_KERNELS[1])
        self.norm2 = LayerNorm(d_h)
        self.d_h = d_h

    def __call__(self, h, seg, rngs, adapter):
        """The block as one node: attention, dropout, residual add and layer
        norm, then conv, ReLU, conv, the adapter site, dropout, residual add
        and layer norm. `adapter` is an adaptation.AdapterSite, or None."""
        a, n1, n2 = self.attn, self.norm1, self.norm2
        rec = ad.Recorder("fft_block", h, seg, self.d_h)
        q = rec(ad.linear_array, (h, a.wq.w, a.wq.b))
        k = rec(ad.linear_array, (h, a.wk.w), None)  # no key bias
        v = rec(ad.linear_array, (h, a.wv.w, a.wv.b))
        att = rec(ad.attention_array, (q, k, v), a.heads, seg, DROPOUT, rngs)
        o = rec.dropout(rec(ad.linear_array, (att, a.wo.w, a.wo.b)), DROPOUT, rngs, seg)
        h1 = rec(ad.layer_norm_array, (rec(ad.add_array, (h, o)), n1.gain, n1.bias))
        c = rec(ad.relu_array, (rec(ad.conv1d_array, (h1, self.conv1.w, self.conv1.b), seg),))
        c = rec(ad.conv1d_array, (c, self.conv2.w, self.conv2.b), seg)
        if adapter is not None:
            c = rec(adapter, (c, adapter.table))
        c = rec.dropout(c, DROPOUT, rngs, seg)
        return rec.node(rec(ad.layer_norm_array, (rec(ad.add_array, (h1, c)), n2.gain, n2.bias)))


class Encoder(Module):
    """Phoneme ids -> hidden sequence through `n_layers` FFT blocks."""

    def __init__(self, rng, vocab, d_h, heads, n_layers):
        self.embed = Embedding(rng, vocab, d_h)
        self.blocks = [FFTBlock(rng, d_h, heads) for _ in range(n_layers)]
        self.d_h = d_h

    def __call__(self, phoneme_ids, seg, rngs, adapters):
        """`adapters` holds one adaptation.AdapterSite, or None, per block."""
        ids = np.asarray(phoneme_ids)
        if ids.size == 0:
            raise InputError("encode: empty phoneme sequence")
        pe = positions(seg, self.d_h, self.embed.table.dtype)
        h = ad.add(self.embed(ids), Tensor(pe))
        for block, adapter in zip(self.blocks, adapters, strict=True):
            h = block(h, seg, rngs, adapter)
        return h


class Decoder(Module):
    """Frame-level hidden sequence -> mel frames through `n_layers` FFT blocks."""

    def __init__(self, rng, d_h, n_mels, heads, n_layers):
        self.blocks = [FFTBlock(rng, d_h, heads) for _ in range(n_layers)]
        self.mel_head = Dense(rng, d_h, n_mels)
        self.d_h = d_h

    def __call__(self, h, seg, rngs, adapters):
        """`adapters` holds one adaptation.AdapterSite, or None, per block."""
        if h.shape[0] == 0:
            raise InputError("decode: zero-length frame sequence")
        h = ad.add(h, Tensor(positions(seg, self.d_h, h.dtype)))
        for block, adapter in zip(self.blocks, adapters, strict=True):
            h = block(h, seg, rngs, adapter)
        return self.mel_head(h)


class Postnet(Module):
    """Residual mel refinement; final conv zero-initialized so the stack is
    the identity at the start of training."""

    def __init__(self, rng, n_mels, channels, n_layers):
        convs = [Conv1d(rng, n_mels, channels, POSTNET_KERNEL)]
        for _ in range(n_layers - 2):
            convs.append(Conv1d(rng, channels, channels, POSTNET_KERNEL))
        convs.append(Conv1d(rng, channels, n_mels, POSTNET_KERNEL, zero_init=True))
        self.convs = convs
        self.n_mels = n_mels

    def __call__(self, mel, seg, rngs):
        """The stack and its residual add as one node."""
        rec = ad.Recorder("postnet", mel, seg, self.n_mels)
        h = mel
        for conv in self.convs:
            h = rec(ad.conv1d_array, (h, conv.w, conv.b), seg)
            if conv is not self.convs[-1]:
                h = rec.dropout(rec(ad.tanh_array, (h,)), DROPOUT, rngs, seg)
        return rec.node(rec(ad.add_array, (mel, h)))
