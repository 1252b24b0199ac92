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
ops on arrays (autodiff's `*_array` functions) and chains their backward
closures, computing only the gradients its parents ask for.

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
        a, n1, c1, c2, n2 = self.attn, self.norm1, self.conv1, self.conv2, self.norm2
        weights = (a.wq.w, a.wq.b, a.wk.w, a.wv.w, a.wv.b, a.wo.w, a.wo.b, n1.gain, n1.bias,
                   c1.w, c1.b, c2.w, c2.b, n2.gain, n2.bias)
        parents = (h,) + weights + (() if adapter is None else (adapter.table,))
        ad.check_module_input("fft_block", parents, seg, self.d_h)
        wq, bq, wk, wv, bv, wo, bo, g1, b1, k1, kb1, k2, kb2, g2, b2 = (w.data for w in weights)
        x = h.data
        q, back_q = ad.linear_array(x, wq, bq)
        k, back_k = ad.linear_array(x, wk, None)
        v, back_v = ad.linear_array(x, wv, bv)
        att, back_att = ad.attention_array(q, k, v, a.heads, seg, DROPOUT, rngs)
        o, back_o = ad.linear_array(att, wo, bo)
        o, back_d1 = ad.dropout_array(o, DROPOUT, rngs, seg)
        h1, back_n1 = ad.layer_norm_array(x + o, g1, b1)
        c, back_k1 = ad.conv1d_array(h1, k1, kb1, seg)
        c, back_r = ad.relu_array(c)
        c, back_k2 = ad.conv1d_array(c, k2, kb2, seg)
        back_site = None
        if adapter is not None:
            c, back_site = adapter(c)
        c, back_d2 = ad.dropout_array(c, DROPOUT, rngs, seg)
        out, back_n2 = ad.layer_norm_array(h1 + c, g2, b2)

        def grad_fn(g):
            need = [p.requires_grad for p in parents]
            # whether each intermediate depends on a tensor that wants a gradient
            n_h = need[0]
            n_q, n_k, n_v = n_h or need[1] or need[2], n_h or need[3], n_h or need[4] or need[5]
            n_att = n_q or n_k or n_v
            n_o = n_att or need[6] or need[7]  # the attention branch, and the first add
            n_h1 = n_o or need[8] or need[9]
            n_c1 = n_h1 or need[10] or need[11]
            n_c2 = n_c1 or need[12] or need[13]
            n_c = n_c2 or (back_site is not None and need[16])
            grads = [None] * len(parents)
            g2, grads[14], grads[15] = back_n2(g, n_h1 or n_c, need[14], need[15])
            if g2 is None:
                return grads
            g_h1 = g2 if n_h1 else None
            if n_c:
                gc = back_d2(g2)
                if back_site is not None:
                    gc, grads[16] = back_site(gc, n_c2, need[16])
                if n_c2:
                    gc, grads[12], grads[13] = back_k2(gc, n_c1, need[12], need[13])
                    if n_c1:
                        gc, grads[10], grads[11] = back_k1(back_r(gc), n_h1, need[10], need[11])
                        if n_h1:
                            g_h1 = g_h1 + gc
            if not n_h1:
                return grads
            ga, grads[8], grads[9] = back_n1(g_h1, n_o, need[8], need[9])
            if not n_o:
                return grads
            g_att, grads[6], grads[7] = back_o(back_d1(ga), n_att, need[6], need[7])
            if n_att:
                gq, gk, gv = back_att(g_att)
                if n_v:
                    gx_v, grads[4], grads[5] = back_v(gv, n_h, need[4], need[5])
                if n_k:
                    gx_k, grads[3], _ = back_k(gk, n_h, need[3], False)
                if n_q:
                    gx_q, grads[1], grads[2] = back_q(gq, n_h, need[1], need[2])
                if n_h:
                    # summed in the order the tape met the input's four
                    # consumers: the residual add, then v, k and q
                    grads[0] = ((ga + gx_v) + gx_k) + gx_q
            return grads

        return ad.from_op(out, parents, grad_fn, "fft_block")


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
        """The stack and its residual add as one node. `mel` is listed twice
        among the parents: the add's gradient reaches it first and the first
        conv's second, and the tape sums them in that order after whatever
        a later consumer of `mel` (the pre-Postnet mel loss) gave it."""
        convs = self.convs
        weights = tuple(t for conv in convs for t in (conv.w, conv.b))
        parents = (mel, mel) + weights
        ad.check_module_input("postnet", parents, seg, self.n_mels)
        h, stages = mel.data, []
        for conv in convs:
            h, back_c = ad.conv1d_array(h, conv.w.data, conv.b.data, seg)
            back_t = back_d = None
            if conv is not convs[-1]:
                h, back_t = ad.tanh_array(h)
                h, back_d = ad.dropout_array(h, DROPOUT, rngs, seg)
            stages.append((back_c, back_t, back_d))
        out = mel.data + h

        def grad_fn(g):
            need = [p.requires_grad for p in parents]
            grads = [None] * len(parents)
            n_in = need[0]
            n_out = []  # whether each conv's output depends on a tensor wanting a gradient
            for i in range(len(convs)):
                n_out.append((n_out[-1] if i else n_in) or need[2 + 2 * i] or need[3 + 2 * i])
            if n_in:
                grads[0] = g
            gh = g
            for i in reversed(range(len(convs))):
                if not n_out[i]:
                    return grads
                back_c, back_t, back_d = stages[i]
                if back_t is not None:
                    gh = back_t(back_d(gh))
                gh, grads[2 + 2 * i], grads[3 + 2 * i] = back_c(
                    gh, n_out[i - 1] if i else n_in, need[2 + 2 * i], need[3 + 2 * i])
            grads[1] = gh
            return grads

        return ad.from_op(out, parents, grad_fn, "postnet")
