"""Brute-force reference implementations shared across test modules.

The alignment oracles enumerate every monotonic segmentation of m frames into
n contiguous nonempty phoneme runs, so they are exact (and exponentially
slow): keep n and m small. The others keep the straightforward construction
a fused or vectorised library routine replaced, including the tape ops those
constructions were built from and the library no longer has: `narrow`,
`concat`, `matmul`, `permute`, `softmax` and the trailing-axis `add_bias`.
`node` runs one of the library's array-level ops as a tape node of its own,
as `tanh`, `layer_norm`, `dropout`, `attention` and `adapter` do: the
op-by-op graphs `fft_block_reference`, `conv_stack_reference` and
`postnet_reference` are built from them and pin the module nodes bit for
bit. `layer_norm_reference` is a float64 layer norm with its own eps, which
pins the library's. `weighted_sum` (a random linear probe) and a numpy
`log_softmax` build test losses and alignment maps;
`one` lays out a single utterance, `utterance` wraps feature arrays as a
corpus utterance, `teacher_forced` runs a model's training pass over a pack
the way `training.compute_losses` does, and `off_identity` moves an adapted
model's adapter tensors so every site acts. The parameter counts are the
closed forms of the adapter and hypernetwork shapes; the library counts its
built modules instead.
"""

import itertools

import numpy as np

import hyperadapt.autodiff as ad
from hyperadapt import adaptation, backbone, variance
from hyperadapt.corpus import Utterance
from hyperadapt.errors import ShapeError
from hyperadapt.layers import rng_for


def one(n):
    """The layout of a single utterance of n rows: a pack of one."""
    return ad.Segments([n])


def utterance(phonemes, mel, f0, energy, embedding, utt_id):
    return Utterance(utt_id, "spk", "train", np.asarray(phonemes), mel, f0, energy, embedding)


def teacher_forced(model, pack, rngs=(), hooks=None):
    """(TTSModel.forward output, alignment maps) of a Pack's training pass:
    the aligner runs first, and its Viterbi durations and the pack's log-f0
    and energy are the forward pass's targets."""
    amap, durations = model.align(pack)
    out = model.forward(pack.phonemes, pack.phonemes_seg, pack.embedding, rngs, hooks=hooks,
                        targets=(durations, pack.log_f0, pack.energy))
    return out, amap


def off_identity(adapted):
    """`adapted`, each adapter-surface tensor nudged by a fixed random 0.05
    so every adapter site acts and passes gradient."""
    for name, p in adapted.extras.named_parameters():
        p.data += rng_for(8, "nudge", name).normal(size=p.shape).astype(np.float32) * 0.05
    return adapted


# the library's array-level ops as tape nodes, and the module graphs built
# from them

WEIGHTED = ("layer_norm", "adapter")  # ops whose back takes requires_grad flags


def node(op, array_op, parents, *args):
    """One tape node running array_op(*parent arrays, *args), which returns
    (out, back). back gets each parent's requires_grad after the gradient
    when the op has weights, the gradient alone otherwise."""
    out, back = array_op(*(p.data for p in parents), *args)

    def grad_fn(g):
        if op in WEIGHTED:
            return back(g, *(p.requires_grad for p in parents))
        grads = back(g)
        return grads if isinstance(grads, tuple) else (grads,)

    return ad.from_op(out, parents, grad_fn, op)


def tanh(a):
    return node("tanh", ad.tanh_array, (a,))


def layer_norm(a, gain, bias):
    return node("layer_norm", ad.layer_norm_array, (a, gain, bias))


def dropout(a, p, rngs, seg):
    """The input itself when off (no streams), as the op it replaced."""
    return node("dropout", ad.dropout_array, (a,), p, rngs, seg) if len(rngs) else a


def attention(q, k, v, heads, seg, p, rngs):
    return node("attention", ad.attention_array, (q, k, v), heads, seg, p, rngs)


def adapter(h, table, seg, site, n_sites):
    return node("adapter", adaptation.adapter_forward, (h, table), seg, site, n_sites)


def _site(h, site):
    """h through an adaptation.AdapterSite, or h itself when there is none."""
    return h if site is None else adapter(h, site.table, site.seg, site.site, site.n_sites)


def fft_block_reference(block, h, seg, rngs, site):
    """backbone.FFTBlock by the op-by-op graph its one node replaced."""
    a, p = block.attn, backbone.DROPOUT
    att = attention(a.wq(h), a.wk(h), a.wv(h), a.heads, seg, p, rngs)
    h = layer_norm(ad.add(h, dropout(a.wo(att), p, rngs, seg)), block.norm1.gain,
                   block.norm1.bias)
    c = _site(block.conv2(ad.relu(block.conv1(h, seg)), seg), site)
    return layer_norm(ad.add(h, dropout(c, p, rngs, seg)), block.norm2.gain, block.norm2.bias)


def conv_stack_reference(stack, x, seg, rngs, site):
    """variance.ConvStack by the op-by-op graph its one node replaced."""
    p = variance.DROPOUT
    for conv, norm in ((stack.conv1, stack.norm1), (stack.conv2, stack.norm2)):
        x = dropout(layer_norm(ad.relu(conv(x, seg)), norm.gain, norm.bias), p, rngs, seg)
    return _site(x, site)


def postnet_reference(post, mel, seg, rngs):
    """backbone.Postnet by the op-by-op graph its one node replaced."""
    h = mel
    for conv in post.convs[:-1]:
        h = dropout(tanh(conv(h, seg)), backbone.DROPOUT, rngs, seg)
    return ad.add(mel, post.convs[-1](h, seg))


def all_paths(n, m):
    for cuts in itertools.combinations(range(1, m), n - 1):
        bounds = (0,) + cuts + (m,)
        labels = np.empty(m, dtype=np.int64)
        for i in range(n):
            labels[bounds[i] : bounds[i + 1]] = i
        yield bounds, labels


def enumerate_paths_logsumexp(logp):
    """(loss, posterior) by summing every monotonic path in log space."""
    n, m = logp.shape
    assert m >= n
    scores = []
    paths = []
    for _, labels in all_paths(n, m):
        scores.append(logp[labels, np.arange(m)].sum())
        paths.append(labels)
    scores = np.array(scores)
    hi = scores.max()
    logz = hi + np.log(np.exp(scores - hi).sum())
    post = np.zeros_like(logp)
    for weight, labels in zip(np.exp(scores - logz), paths):
        post[labels, np.arange(m)] += weight
    return -logz, post


def best_path_durations(logp):
    n, m = logp.shape
    best = None
    best_score = -np.inf
    for bounds, labels in all_paths(n, m):
        score = logp[labels, np.arange(m)].sum()
        if score > best_score + 1e-12:
            best_score = score
            best = np.diff(bounds)
    return np.asarray(best, dtype=np.int64)


def random_grids(count, seed, n_max=6, m_max=10):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(n, m_max + 1))
        yield rng.standard_normal((n, m)) * 2.0


def dtw_reference(cost):
    """(accumulated table, path) by the cell-by-cell DTW loop: steps (1,0),
    (0,1), (1,1); the backtrack prefers the diagonal, then up, on ties."""
    a, b = cost.shape
    acc = np.empty((a, b), dtype=cost.dtype)
    acc[0, 0] = cost[0, 0]
    for j in range(1, b):
        acc[0, j] = acc[0, j - 1] + cost[0, j]
    for i in range(1, a):
        acc[i, 0] = acc[i - 1, 0] + cost[i, 0]
        row = acc[i]
        prow = acc[i - 1]
        for j in range(1, b):
            best = prow[j - 1]
            if prow[j] < best:
                best = prow[j]
            if row[j - 1] < best:
                best = row[j - 1]
            row[j] = cost[i, j] + best
    path = []
    i, j = a - 1, b - 1
    while True:
        path.append((i, j))
        if i == 0 and j == 0:
            break
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, up, left = acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1]
            if diag <= up and diag <= left:
                i, j = i - 1, j - 1
            elif up <= left:
                i -= 1
            else:
                j -= 1
    path.reverse()
    return acc, np.asarray(path, dtype=np.int64)


def cwt_reference(contour):
    """Wavelet coefficients by direct convolution: reflect-pad the contour by
    each wavelet's half width (np.pad reflect caps one application at
    len - 1, so it repeats), convolve, and keep the centre."""
    x = np.asarray(contour, dtype=np.float64)
    m = x.size
    out = np.empty((variance.N_SCALES, m))
    for j, w in enumerate(variance._BANK):
        half = (len(w) - 1) // 2
        xp, pad = x, half
        while pad > 0:
            step = min(pad, xp.size - 1)
            xp = np.pad(xp, step, mode="reflect")
            pad -= step
        out[j] = np.convolve(xp, w, mode="same")[half : half + m]
    return out


def layer_norm_reference(x, gain, bias):
    """Layer norm of x over its trailing axis in float64, with FastSpeech 2's
    eps of 1e-5 added to the variance under the square root."""
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean(axis=-1, keepdims=True)
    return centered / np.sqrt((centered ** 2).mean(axis=-1, keepdims=True) + 1e-5) * gain + bias


def log_softmax(x, axis):
    """numpy log-softmax of an array along `axis`."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def weighted_sum(x, weights):
    """Tape op: the scalar sum of x * weights for a constant array, so the
    gradient reaching x is exactly `weights`: a random linear probe."""
    w = np.asarray(weights, dtype=x.dtype)

    def grad_fn(g):
        return (g * w,)

    return ad.from_op(np.asarray((x.data * w).sum(), dtype=x.dtype), (x,), grad_fn,
                      "weighted_sum")


def matmul(a, b):
    """Tape op: 2D @ 2D, 3D @ 3D (matching batch) or 3D @ 2D."""
    x, y = a.data, b.data
    if x.ndim < 2 or y.ndim < 2 or x.ndim > 3 or y.ndim > 3:
        raise ShapeError("matmul", f"ranks {x.ndim} and {y.ndim} unsupported (need 2 or 3)")
    if x.shape[-1] != y.shape[-2]:
        raise ShapeError("matmul", f"inner axes differ: {x.shape} @ {y.shape}")
    if x.ndim == 3 and y.ndim == 3 and x.shape[0] != y.shape[0]:
        raise ShapeError("matmul", f"batch axes differ: {x.shape[0]} vs {y.shape[0]}")

    def grad_fn(g):
        ga = np.matmul(g, y.swapaxes(-1, -2))
        gb = np.matmul(x.swapaxes(-1, -2), g)
        if ga.ndim > x.ndim:
            ga = ga.sum(axis=0)
        if gb.ndim > y.ndim:
            gb = gb.sum(axis=0)
        return ga, gb

    return ad.from_op(np.matmul(x, y), (a, b), grad_fn, "matmul")


def add_bias(x, b):
    """Tape op: x plus a (d,) bias broadcast over x's trailing axis."""
    if b.data.ndim != 1 or x.shape[-1:] != b.shape:
        raise ShapeError("add_bias", f"bias {b.shape} does not match trailing axis of {x.shape}")
    lead = tuple(range(x.data.ndim - 1))

    def grad_fn(g):
        return g, g.sum(axis=lead)

    return ad.from_op(x.data + b.data, (x, b), grad_fn, "add_bias")


def permute(a, axes):
    """Tape op: a with its axes reordered."""
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def grad_fn(g):
        return (g.transpose(inv),)

    return ad.from_op(a.data.transpose(axes), (a,), grad_fn, "permute")


def softmax(a, axis=-1):
    """Tape op: softmax along `axis`."""
    x = a.data
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    y = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return ad.from_op(y, (a,), grad_fn, "softmax")


def attention_reference(q, k, v, heads, p, rngs):
    """Multi-head attention over one segment by the op-by-op graph the fused
    `autodiff.attention_array` replaces: head split, scaled scores, softmax,
    seeded dropout (on when `rngs` holds the segment's stream), weighted sum,
    head merge."""
    n, d = q.shape
    hd = d // heads

    def split(x):
        return permute(ad.reshape(x, (n, heads, hd)), (1, 0, 2))

    scores = ad.scale(matmul(split(q), permute(split(k), (0, 2, 1))), 1.0 / np.sqrt(hd))
    att = dropout(softmax(scores, axis=-1), p, rngs, one(heads))
    return ad.reshape(permute(matmul(att, split(v)), (1, 0, 2)), (n, d))


def concat(tensors, axis=-1):
    """Tape op: tensors joined along `axis`."""
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        idx = [slice(None)] * g.ndim
        outs = []
        for i in range(len(sizes)):
            idx[axis] = slice(offsets[i], offsets[i + 1])
            outs.append(g[tuple(idx)])
        return tuple(outs)

    return ad.from_op(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors),
                      grad_fn, "concat")


def narrow(a, axis, start, length):
    """Tape op: `length` entries of a along `axis` from `start`."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def grad_fn(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return ad.from_op(a.data[idx], (a,), grad_fn, "narrow")


def generate_reference(hyper, spk_vec, site):
    """One site's adapter tensors (w_down, b_down, w_up, b_up) from a
    HyperNetwork by the op-by-op graph: speaker projection, layer-embedding
    row, concat, source projection, both samplers, then narrow and reshape."""
    d = hyper.dims
    sv = hyper.speaker_proj(spk_vec)
    le = narrow(hyper.layer_embed, 0, site, 1)
    z = hyper.source_proj(concat([sv, le], axis=-1))
    flat_down = hyper.sampler_down(z)
    flat_up = hyper.sampler_up(z)
    n_w = d.d_h * d.d_r
    return (ad.reshape(narrow(flat_down, 1, 0, n_w), (d.d_h, d.d_r)),
            ad.reshape(narrow(flat_down, 1, n_w, d.d_r), (d.d_r,)),
            ad.reshape(narrow(flat_up, 1, 0, n_w), (d.d_r, d.d_h)),
            ad.reshape(narrow(flat_up, 1, n_w, d.d_h), (d.d_h,)))


def single_speaker_table(hyper, spk_vec):
    """A (1, d_1) speaker's (n_sites, n_flat) table by the arithmetic
    `HyperNetwork.generate` used when it took one speaker at a time, in
    numpy: the speaker projection once, every [speaker | layer embedding]
    row through the source projection, then both samplers."""
    sp, so = hyper.speaker_proj, hyper.source_proj
    sv = spk_vec.data @ sp.w.data
    sv += sp.b.data
    x = np.concatenate([np.repeat(sv, hyper.n_sites, axis=0), hyper.layer_embed.data], axis=1)
    z = x @ so.w.data
    z += so.b.data
    return np.concatenate([z @ hyper.sampler_down.w.data, z @ hyper.sampler_up.w.data], axis=1)


def table_row_reference(table, site, d_h, d_r):
    """Row `site` of an adapter table split into (w_down, b_down, w_up, b_up)
    Tensors by narrow and reshape."""
    row = ad.reshape(narrow(table, 0, site, 1), (table.shape[1],))
    parts, start = [], 0
    for shape in ((d_h, d_r), (d_r,), (d_r, d_h), (d_h,)):
        size = int(np.prod(shape))
        parts.append(ad.reshape(narrow(row, 0, start, size), shape))
        start += size
    return tuple(parts)


def adapter_reference(h, w_down, b_down, w_up, b_up):
    """h + ReLU(h W_d + b_d) W_u + b_u by matmul, add_bias, add and relu
    nodes."""
    z = ad.relu(add_bias(matmul(h, w_down), b_down))
    return ad.add(h, add_bias(matmul(z, w_up), b_up))


def adapter_param_count(dims):
    """Trainable parameters of one static adapter site."""
    return dims.d_h * dims.d_r + dims.d_r + dims.d_r * dims.d_h + dims.d_h


def hyper_param_count(dims, n_sites):
    """Trainable parameters of one module's hypernetwork."""
    d = dims
    speaker_proj = d.d_1 * d.d_2 + d.d_2
    layer_embed = n_sites * d.d_l
    source_proj = (d.d_2 + d.d_l) * d.d_s + d.d_s
    sampler_down = d.d_s * (d.d_h * d.d_r + d.d_r)
    sampler_up = d.d_s * (d.d_r * d.d_h + d.d_h)
    return speaker_proj + layer_embed + source_proj + sampler_down + sampler_up


def count_trainable_params(config, site_counts, backbone_param_count=None):
    """Trainable-parameter total of a strategy over a backbone whose modules
    hold `site_counts` adapter sites: nothing for tts0, the backbone's
    `backbone_param_count` for ft."""
    if config.name in ("tts0", "ft"):
        return backbone_param_count if config.name == "ft" else 0
    if config.name == "adapter":
        return sum(site_counts[s] * adapter_param_count(config.dims) for s in config.sites)
    return sum(hyper_param_count(config.dims, site_counts[s]) for s in config.sites)


def adam_reference(named_params, grads, lr_list, beta1=0.9, beta2=0.98, eps=1e-9):
    """Adam one tensor at a time, as a dict of per-tensor moments: applies
    the per-step gradient dicts in `grads` with the learning rates in
    `lr_list` to the parameters' arrays in place."""
    m = {name: np.zeros_like(p.data) for name, p in named_params}
    v = {name: np.zeros_like(p.data) for name, p in named_params}
    for t, (step_grads, lr) in enumerate(zip(grads, lr_list), start=1):
        c1 = 1.0 - beta1 ** t
        c2 = 1.0 - beta2 ** t
        for name, p in named_params:
            g = step_grads[name]
            m[name] *= beta1
            m[name] += (1.0 - beta1) * g
            v[name] *= beta2
            v[name] += (1.0 - beta2) * g * g
            p.data -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)
