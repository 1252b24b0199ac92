"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray plus an implicit tape: every op records its parents
and a closure that maps the output gradient to parent gradients. backward()
walks the tape in reverse topological order, handing each parent the first
gradient that reaches it and summing later ones out of place, so an array
several parents share is never mutated; an interior node's gradient and its
closure (with the arrays it saved) are released once the closure has run.
Leaf gradients accumulate across backward calls until the caller resets them.

Only what is needed is computed. A node requires a gradient when any parent
does. The closures of the nodes with weights (`linear`, `conv1d`, the
module nodes, and `generate` in `adaptation`) and of the losses compute a
parent's gradient only when that parent `requires_grad`, read when the
closure runs, and return None for the rest: a frozen weight costs no dW,
conv gW or layer-norm gain/bias gradient, and a constant input or loss
target no gradient of its own (the conv kernel forms its input gradient in
any case). Inside `no_grad()` no tape is recorded at all: ops compute their
outputs and keep neither parents nor closures, so the arrays a closure
would have saved are freed as soon as the forward pass moves on
(validation and synthesis run this way).

A training batch is one packed graph: its B utterances are stacked along
axis 0 with no padding, and `Segments` records how many rows each one owns.
Row-wise ops (linear, layer norm, activations, embedding lookup, elementwise
arithmetic) run once over all rows and never need the layout. The ops that
must not mix utterances take it and respect segment boundaries: length-
preserving 1D convolution (zero padding at every boundary), the attention
core (one softmax per segment), dropout (each segment's mask from its own
stream), `repeat_rows` (one row per segment or phoneme spread over its
rows), `segment_mean` and the losses (per-segment means, summed). A single
utterance is a pack of one segment. Dropout (in `dropout_array` and in
`attention_array`) is on exactly when it is given a non-empty list of
random streams, one per segment; validation and synthesis pass none.

Each op's arithmetic is written once, as an array-level function (`*_array`)
that returns its output and a `back` closure: the affine map, 1D
convolution plus bias, the multi-head attention core (head split, scaled
scores, softmax, seeded dropout, weighted sum, head merge), ReLU, tanh,
layer norm and seeded dropout. The tape ops are the affine map `linear`,
`conv1d`, `relu`, embedding lookup, row repetition, same-shape add and
scaling, the full sum and per-segment mean, MSE/L1 losses and reshape; each
records one node. A module whose ops always run together records one node
for all of them: `backbone.FFTBlock`, `variance.ConvStack` and
`backbone.Postnet` run the array functions in the order the op-by-op graph
did, check their input once at entry (`check_module_input`), and chain the
`back` closures in reverse, summing a tensor's gradients in the order the
tape would, so outputs and gradients are bit for bit those of the graph
they replace. Two more fused nodes live next to their only caller in
`adaptation`: `HyperNetwork.generate` (a module's adapter tables for every
speaker of a pack, in one node) and `adapter_forward` (the array function of
one bottleneck adapter site, which runs inside its block's or trunk's node,
each segment through its own table row, without a loop over segments).

Training runs in float32 by default; gradient checking should build float64
tensors (finite differences are unreliable in 32-bit).
"""

import contextlib
import itertools
import math
import operator

import numpy as np

from . import kernels
from .errors import InputError, NumericsError, ShapeError, StateError

DEFAULT_DTYPE = np.float32
LN_EPS = 1e-5  # added to the variance under layer norm's square root
GRAD_CHECK_FLOOR = 1e-3  # smallest denominator of a gradient check's relative error

_add_reduce = np.add.reduce
_max_reduce = np.maximum.reduce
_node_counter = itertools.count(1)
_creation_order = operator.attrgetter("_seq")
_recording = True  # False inside no_grad()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_grad_fn", "_seq")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents = ()
        self._grad_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(op={self.op}, shape={self.data.shape}, grad={self.requires_grad})"


def from_op(data, parents, grad_fn, op):
    """Create a graph node. grad_fn(g) returns one gradient per parent (or
    None). Inside no_grad() the node is a constant: no parents, no closure."""
    out = Tensor(data)
    out.op = op
    out._seq = next(_node_counter)
    if _recording:
        out._parents = tuple(parents)
        out.requires_grad = any(p.requires_grad for p in out._parents)
        if out.requires_grad:
            out._grad_fn = grad_fn
    return out


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block: every op's output is a constant."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def _check_same_dtype(op, *tensors):
    dts = {t.data.dtype for t in tensors}
    if len(dts) > 1:
        raise InputError(f"{op}: mixed dtypes {sorted(str(d) for d in dts)}")


class Segments:
    """Row layout of a packed tensor: B utterances stacked along axis 0 with
    no padding, segment b owning `lengths[b]` consecutive rows.

    Index arrays derived from the layout are built on first use and kept, so
    every op of one packed pass shares them.
    """

    __slots__ = ("lengths", "starts", "bounds", "total", "_cache")

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.ndim != 1 or lengths.size == 0 or (lengths < 1).any():
            raise InputError(f"segments need one or more positive lengths, got {lengths.tolist()}")
        ends = np.cumsum(lengths)
        self.lengths = lengths
        self.starts = ends - lengths
        self.bounds = list(zip(self.starts.tolist(), ends.tolist()))
        self.total = int(ends[-1])
        self._cache = {}

    def __len__(self):
        return self.lengths.size

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def positions(self):
        """(total,) position of every row within its segment."""
        return self._cached("positions",
                            lambda: np.arange(self.total) - np.repeat(self.starts, self.lengths))

    def ids(self):
        """(total,) segment index of every row."""
        return self._cached("ids", lambda: np.repeat(np.arange(len(self)), self.lengths))

    def blocks(self, k):
        """(total,) block of every row: its segment's (k = B) or 0 (k = 1)."""
        return self._cached(("blocks", k), lambda: self.ids() % k)

    def block_mask(self, k, width):
        """(total, k width) mask of each row's own block of `width` columns."""
        return self._cached(("block_mask", k, width),
                            lambda: self.blocks(k)[:, None] == np.arange(k).repeat(width))

    def gapped_rows(self, gap):
        """(total,) row index of every packed row once `gap` zero rows sit
        before, between and after the segments."""
        return self._cached(("gapped", gap), lambda: np.arange(self.total) + gap * (self.ids() + 1))

    def means(self, x):
        """(B,) mean of each segment's entries of a packed array."""
        rows = x.reshape(x.shape[0], -1)
        sums = np.add.reduceat(_add_reduce(rows, axis=1), self.starts)
        return sums / (self.lengths * rows.shape[1])


def _segments_of(op, seg, n):
    """seg.bounds, once seg is checked to cover the n rows of a tensor."""
    if seg.total != n:
        raise ShapeError(op, f"segments cover {seg.total} rows, tensor has {n}")
    return seg.bounds


def check_module_input(op, parents, seg, width):
    """What a module node checks once, at entry: its parents share one dtype
    and its input, parents[0], is (T, width) with seg covering the T rows."""
    _check_same_dtype(op, *parents)
    x = parents[0].data
    if x.ndim != 2 or x.shape[1] != width:
        raise ShapeError(op, f"input {x.shape} is not (T, {width})")
    _segments_of(op, seg, x.shape[0])


# -----------------------------------------------------------------------------
# array-level ops: each op's arithmetic on ndarrays, with no checks and no
# node. Each returns (out, back): back maps the output gradient to the input
# gradients. The ops with weights take one requires_grad flag per input after
# the gradient and return None where the flag is off (a conv forms its input
# gradient in any case). The Tensor ops below and the module nodes of
# `backbone` and `variance` run every op through these.
# -----------------------------------------------------------------------------


def _identity(g):
    return g


def linear_array(x, w, b):
    """x @ w + b, or x @ w when b is None."""
    out = x @ w
    if b is not None:
        out += b

    def back(g, need_x, need_w, need_b):
        return (g @ w.T if need_x else None, x.T @ g if need_w else None,
                g.sum(axis=0) if need_b else None)

    return out, back


def relu_array(x):
    mask = x > 0
    return np.where(mask, x, x.dtype.type(0)), lambda g: g * mask


def tanh_array(x):
    out = np.tanh(x)
    return out, lambda g: g * (1.0 - out * out)


def layer_norm_array(x, gain, bias):
    """Normalize the trailing axis to zero mean / unit variance, then affine.
    back keeps the row statistics, not the normalized input."""
    d = x.shape[-1]
    # the sums divided by d are what ndarray.mean/var compute, without their
    # Python-level argument handling
    mean = _add_reduce(x, axis=-1, keepdims=True) / d
    xc = x - mean
    var = _add_reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    out = xc * inv
    out *= gain
    out += bias

    def back(g, need_x, need_gain, need_bias):
        xhat = (x - mean) * inv
        gx = ggain = gbias = None
        if need_x:
            gxhat = g * gain
            m1 = _add_reduce(gxhat, axis=-1, keepdims=True) / d
            m2 = _add_reduce(gxhat * xhat, axis=-1, keepdims=True) / d
            gx = inv * (gxhat - m1 - xhat * m2)
        lead = tuple(range(g.ndim - 1))
        if need_gain:
            ggain = (g * xhat).sum(axis=lead) if lead else g * xhat
        if need_bias:
            gbias = g.sum(axis=lead) if lead else g
        return gx, ggain, gbias

    return out, back


def _dropout_on(p, rngs):
    if p < 0 or p >= 1:
        raise InputError(f"dropout: probability {p} outside [0, 1)")
    return len(rngs) > 0 and p != 0.0


def _keep_masks(shapes, p, rngs):
    """Boolean keep masks of inverted dropout, one per segment: segment i
    draws rngs[i].random(shapes[i]) exactly once."""
    if len(rngs) != len(shapes):
        raise InputError(f"dropout: {len(rngs)} random streams for {len(shapes)} segments")
    return [rng.random(shape) >= p for rng, shape in zip(rngs, shapes)]


def _dropped(x, keep, scale):
    # x * keep * scale is bit for bit x times a {0, scale} multiplier
    out = x * keep
    out *= scale
    return out


def dropout_array(x, p, rngs, seg):
    """Seeded inverted dropout over the rows of a pack laid out by seg; x
    itself (and an identity back) when p == 0 or rngs is empty.

    rngs holds one generator per segment; each segment's mask comes from its
    own stream. back keeps only the boolean mask."""
    if not _dropout_on(p, rngs):
        return x, _identity
    rest = x.shape[1:]
    keeps = _keep_masks([(e - s,) + rest for s, e in seg.bounds], p, rngs)
    keep = keeps[0] if len(keeps) == 1 else np.concatenate(keeps)
    scale = x.dtype.type(1.0 / (1.0 - p))
    return _dropped(x, keep, scale), lambda g: _dropped(g, keep, scale)


def attention_array(q, k, v, heads, seg, p, rngs):
    """Multi-head scaled dot-product attention over (n, d) projections;
    back(g) gives (gq, gk, gv).

    Splits d into `heads` heads, scores queries against the keys of their
    own segment scaled by 1/sqrt(d / heads), takes one softmax per segment,
    applies seeded inverted dropout to the weights, and merges the heads of
    the weighted value sum back to (n, d). Dropout is on when rngs is
    non-empty: segment i then draws its mask from rngs[i] with shape
    (heads, n_i, n_i) after its softmax, so each stream matches a separate
    dropout op at that point. back keeps the weights and the boolean mask
    and rebuilds the dropped weights.
    """
    n, d = q.shape
    bounds = seg.bounds
    hd = d // heads

    def split(x):
        return x.reshape(n, heads, hd).transpose(1, 0, 2)  # (heads, n, hd)

    qh, kh, vh = split(q), split(k), split(v)
    c = q.dtype.type(1.0 / math.sqrt(hd))
    scale = q.dtype.type(1.0 / (1.0 - p))
    if _dropout_on(p, rngs):
        keeps = _keep_masks([(heads, e - s, e - s) for s, e in bounds], p, rngs)
    else:
        keeps = [None] * len(bounds)
    weights, outs = [], []
    for (s, e), keep in zip(bounds, keeps):
        scores = np.matmul(qh[:, s:e], kh[:, s:e].transpose(0, 2, 1)) * c
        # each row's maximum, reduced down a contiguous copy of the key axis:
        # the same values as scores.max(axis=-1) in half the time
        top = _max_reduce(np.ascontiguousarray(scores.transpose(0, 2, 1)), axis=1)
        scores -= top[:, :, None]
        ex = np.exp(scores)
        att = ex / _add_reduce(ex, axis=-1, keepdims=True)
        weights.append(att)
        outs.append(np.matmul(att if keep is None else _dropped(att, keep, scale), vh[:, s:e]))

    def merge(parts):
        # per-segment (heads, n_b, hd) blocks -> (n, d)
        x = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        return x.transpose(1, 0, 2).reshape(n, d)

    def back(g):
        go = split(g)
        gq, gk, gv = [], [], []
        for (s, e), att, keep in zip(bounds, weights, keeps):
            gos = go[:, s:e]
            g_att = np.matmul(gos, vh[:, s:e].transpose(0, 2, 1))
            if keep is None:
                gv.append(np.matmul(att.transpose(0, 2, 1), gos))
            else:
                gv.append(np.matmul(_dropped(att, keep, scale).transpose(0, 2, 1), gos))
                g_att = _dropped(g_att, keep, scale)
            g_scores = att * (g_att - _add_reduce(g_att * att, axis=-1, keepdims=True))
            g_scores *= c
            gq.append(np.matmul(g_scores, kh[:, s:e]))
            gk.append(np.matmul(g_scores.transpose(0, 2, 1), qh[:, s:e]))
        return merge(gq), merge(gk), merge(gv)

    return merge(outs), back


def conv1d_array(x, w, b, seg):
    """Length-preserving conv of x (T, Cin) with w (K, Cin, Cout) plus the
    bias b (Cout,), K odd.

    Every segment is zero-padded at both ends, so no tap reaches across a
    boundary: the segments are laid out with (K - 1) / 2 zero rows before,
    between and after them, convolved by one im2col matmul, and the rows
    centred on packed rows are kept. The kernels are looked up at call
    time."""
    k, cin, cout = w.shape
    pad = (k - 1) // 2
    t = x.shape[0]
    n_seg = len(seg)
    rows = seg.gapped_rows(pad) if pad and n_seg > 1 else None

    def padded():
        # built again in backward rather than kept: back holds only x
        if not pad:
            return x
        xp = np.zeros((t + (n_seg + 1) * pad, cin), x.dtype)
        if rows is None:
            xp[pad : pad + t] = x
        else:
            xp[rows] = x
        return xp

    out = kernels.conv1d_forward(padded(), w)
    if rows is not None:
        out = out[rows - pad]
    out += b

    def back(g, need_x, need_w, need_b):
        xp = padded()
        if rows is None:
            gxp, gw = kernels.conv1d_backward(xp, w, g, need_w=need_w)
            gx = gxp[pad : pad + t]
        else:
            gout = np.zeros((xp.shape[0] - 2 * pad, cout), g.dtype)
            gout[rows - pad] = g
            gxp, gw = kernels.conv1d_backward(xp, w, gout, need_w=need_w)
            gx = gxp[rows]
        return gx if need_x else None, gw, g.sum(axis=0) if need_b else None

    return out, back


# -----------------------------------------------------------------------------
# elementwise arithmetic
# -----------------------------------------------------------------------------


def add(a, b):
    """a + b for two tensors of one shape and dtype."""
    _check_same_dtype("add", a, b)
    if a.shape != b.shape:
        raise ShapeError("add", f"operand shapes differ: {a.shape} vs {b.shape}")

    def grad_fn(g):
        return g, g

    return from_op(a.data + b.data, (a, b), grad_fn, "add")


def scale(a, c):
    c = float(c)

    def grad_fn(g):
        return (g * c,)

    return from_op(a.data * a.dtype.type(c), (a,), grad_fn, "scale")


def linear(x, w, b=None):
    """x @ w + b in one node: x (n, d_in), w (d_in, d_out), b (d_out,) or None."""
    _check_same_dtype("linear", *((x, w) if b is None else (x, w, b)))
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0]:
        raise ShapeError("linear", f"cannot apply weight {wd.shape} to input {xd.shape}")
    if b is not None and b.shape != (wd.shape[1],):
        raise ShapeError("linear", f"bias {b.shape} does not match output width {wd.shape[1]}")
    parents = (x, w) if b is None else (x, w, b)
    out_data, back = linear_array(xd, wd, None if b is None else b.data)

    def grad_fn(g):
        return back(g, x.requires_grad, w.requires_grad, b is not None and b.requires_grad)

    return from_op(out_data, parents, grad_fn, "linear")


# -----------------------------------------------------------------------------
# shape plumbing
# -----------------------------------------------------------------------------


def reshape(a, shape):
    old = a.shape

    def grad_fn(g):
        return (g.reshape(old),)

    return from_op(a.data.reshape(shape), (a,), grad_fn, "reshape")


# -----------------------------------------------------------------------------
# nonlinearities and normalization
# -----------------------------------------------------------------------------


def relu(a):
    out_data, back = relu_array(a.data)
    return from_op(out_data, (a,), lambda g: (back(g),), "relu")


def embedding(table, ids):
    """Row lookup into a (vocab, dim) table; ids is an integer ndarray."""
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ShapeError("embedding", f"ids must be 1-D, got shape {ids.shape}")
    vocab = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        bad = ids[(ids < 0) | (ids >= vocab)][0]
        raise InputError(f"embedding: id {int(bad)} outside vocabulary of size {vocab}")
    out_data = table.data[ids]

    def grad_fn(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return from_op(out_data, (table,), grad_fn, "embedding")


def repeat_rows(x, counts):
    """Row i of x repeated counts[i] times, in row order, as one node: a
    phoneme's hidden state spread over its frames, or an utterance's row
    over its segment. The gradient of a row is the sum over its copies."""
    counts = np.asarray(counts)
    if counts.shape != (x.shape[0],):
        raise ShapeError("repeat_rows", f"{counts.shape} counts for {x.shape[0]} rows")
    ids = np.repeat(np.arange(x.shape[0]), counts)
    used = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[used]

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        if used.size:
            gx[used] = np.add.reduceat(g, starts, axis=0)
        return (gx,)

    return from_op(x.data[ids], (x,), grad_fn, "repeat_rows")


# -----------------------------------------------------------------------------
# 1D convolution over (T, C_in) with zero padding at both ends of every
# segment (length preserved)
# -----------------------------------------------------------------------------


def conv1d(x, w, b, seg):
    """Length-preserving conv of x (T, Cin) with w (K, Cin, Cout) plus the
    bias b (Cout,), in one node (see conv1d_array)."""
    _check_same_dtype("conv1d", x, w, b)
    if x.data.ndim != 2 or w.data.ndim != 3:
        raise ShapeError("conv1d", f"need x (T, Cin) and w (K, Cin, Cout), got {x.shape} and {w.shape}")
    k, cin, cout = w.shape
    if k % 2 != 1:
        raise ShapeError("conv1d", f"kernel size {k} must be odd to preserve length")
    if x.shape[1] != cin:
        raise ShapeError("conv1d", f"channel axes differ: input {x.shape[1]} vs weight {cin}")
    if b.shape != (cout,):
        raise ShapeError("conv1d", f"bias {b.shape} does not match {cout} output channels")
    _segments_of("conv1d", seg, x.shape[0])
    out_data, back = conv1d_array(x.data, w.data, b.data, seg)

    def grad_fn(g):
        return back(g, x.requires_grad, w.requires_grad, b.requires_grad)

    return from_op(out_data, (x, w, b), grad_fn, "conv1d")


# -----------------------------------------------------------------------------
# reductions and losses
# -----------------------------------------------------------------------------


def sum_all(a):
    def grad_fn(g):
        return (np.full_like(a.data, g),)

    return from_op(_add_reduce(a.data, axis=None), (a,), grad_fn, "sum")


def segment_mean(a, seg):
    """(B, ...) mean over each segment's rows of a packed tensor, one node."""
    _segments_of("segment_mean", seg, a.shape[0])
    shape = (-1,) + (1,) * (a.data.ndim - 1)
    counts = seg.lengths.astype(a.dtype).reshape(shape)

    def grad_fn(g):
        return (np.repeat(g / counts, seg.lengths, axis=0),)

    return from_op(np.add.reduceat(a.data, seg.starts, axis=0) / counts, (a,), grad_fn,
                   "segment_mean")


def _as_target(op, b):
    # loss targets are often plain arrays; wrap them as non-grad constants
    if isinstance(b, np.ndarray):
        return Tensor(b)
    if isinstance(b, Tensor):
        return b
    raise InputError(f"{op}: target must be a Tensor or ndarray, got {type(b).__name__}")


def _loss_operands(op, a, b, seg):
    """Target as a Tensor and the difference a - b, once seg is checked."""
    b = _as_target(op, b)
    _check_same_dtype(op, a, b)
    if a.shape != b.shape:
        raise ShapeError(op, f"operand shapes differ: {a.shape} vs {b.shape}")
    _segments_of(op, seg, a.shape[0])
    return b, a.data - b.data


def _entry_weights(seg, x):
    """Weight of each entry in the sum of per-segment means: 1 / (entries of
    its segment), shaped to broadcast over the packed array."""
    per_row = x.size // x.shape[0]
    w = np.repeat(1.0 / (seg.lengths * per_row), seg.lengths).astype(x.dtype)
    return w.reshape((-1,) + (1,) * (x.ndim - 1))


def mse_loss(a, b, seg):
    """Sum over segments of each segment's mean squared difference (rows along
    axis 0), so each utterance counts once."""
    b, diff = _loss_operands("mse_loss", a, b, seg)

    def grad_fn(g):
        d = g * 2.0 * _entry_weights(seg, diff) * diff
        return d, -d if b.requires_grad else None

    value = seg.means(diff * diff).sum()
    return from_op(np.asarray(value, dtype=a.dtype), (a, b), grad_fn, "mse_loss")


def l1_loss(a, b, seg):
    """Sum over segments of each segment's mean absolute difference, as in
    mse_loss."""
    b, diff = _loss_operands("l1_loss", a, b, seg)

    def grad_fn(g):
        d = g * _entry_weights(seg, diff) * np.sign(diff)
        return d, -d if b.requires_grad else None

    value = seg.means(np.abs(diff)).sum()
    return from_op(np.asarray(value, dtype=a.dtype), (a, b), grad_fn, "l1_loss")


# -----------------------------------------------------------------------------
# backward pass
# -----------------------------------------------------------------------------


def _consumed(g):
    raise StateError("backward already ran through this node")


def _tape(root):
    """Interior nodes reachable from root, newest first. A node is always
    created after its parents, so reverse creation order is a topological
    order of the tape; leaves have nothing to propagate and are left out.
    Reaching a node an earlier backward pass consumed is an error: the
    gradient behind it is gone."""
    nodes = [root]
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if p._grad_fn is not None and id(p) not in seen:
                if p._grad_fn is _consumed:
                    raise StateError(f"backward already ran through a '{p.op}' node of this graph")
                seen.add(id(p))
                nodes.append(p)
                stack.append(p)
    nodes.sort(key=_creation_order, reverse=True)
    return nodes


def backward(loss):
    """Accumulate gradients of a scalar loss into .grad of every reachable
    requires_grad tensor. Consumes the graph: each interior node lets go of
    its closure and its parents once it has run, so the arrays they held are
    freed as the pass goes, and a later pass that reaches any node of it is
    an error."""
    if loss.size != 1:
        raise ShapeError("backward", f"loss must be scalar, got shape {loss.shape}")
    if loss.op == "leaf":
        raise StateError("backward called before any forward computation produced this tensor")
    if not loss.requires_grad:
        raise StateError("loss does not depend on any requires_grad tensor")
    if loss._grad_fn is _consumed:
        raise StateError("backward already ran through this graph")
    loss.grad = np.ones_like(loss.data)
    nodes = _tape(loss)
    for i, node in enumerate(nodes):
        nodes[i] = None
        g = node.grad
        parents, node._parents = node._parents, ()
        grad_fn, node._grad_fn = node._grad_fn, _consumed
        if g is None:
            continue
        node.grad = None  # interior: nothing reads it once the parents have their share
        for parent, pg in zip(parents, grad_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            data = parent.data
            if pg.dtype != data.dtype or pg.shape != data.shape:
                conformed = np.zeros_like(data)
                conformed += pg
                pg = conformed
            cur = parent.grad
            parent.grad = pg if cur is None else cur + pg


# -----------------------------------------------------------------------------
# finite-difference gradient checking
# -----------------------------------------------------------------------------


class GradCheckReport:
    """Per-parameter relative errors of analytic vs central-difference grads."""

    def __init__(self, max_rel, mean_rel, n_entries, threshold, worst):
        self.max_rel = max_rel
        self.mean_rel = mean_rel
        self.n_entries = n_entries
        self.threshold = threshold
        self.worst = worst  # (tensor_index, flat_index)

    @property
    def passed(self):
        return self.max_rel < self.threshold

    def __repr__(self):
        state = "pass" if self.passed else "FAIL"
        return (
            f"GradCheckReport({state}: max_rel={self.max_rel:.3e}, mean_rel={self.mean_rel:.3e}, "
            f"entries={self.n_entries}, threshold={self.threshold:g}, worst={self.worst})"
        )


def grad_check(fn, inputs, *, threshold, eps=1e-5):
    """Compare analytic gradients of scalar-valued fn(*inputs) against central
    finite differences; the report passes below `threshold` (gradcheck.THRESHOLD).

    inputs: list of Tensors; only requires_grad ones are perturbed. fn must be
    a pure function of the tensors' .data. Use float64 inputs.
    """
    out = fn(*inputs)
    if out.size != 1:
        raise InputError(f"grad_check: fn must return a scalar, got shape {out.shape}")
    if not np.isfinite(out.data).all():
        raise NumericsError(f"grad_check: non-finite output from op '{out.op}'")
    for _, p in enumerate(inputs):
        p.grad = None
    backward(out)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in inputs]

    max_rel = 0.0
    sum_rel = 0.0
    count = 0
    worst = (-1, -1)
    for ti, p in enumerate(inputs):
        if not p.requires_grad:
            continue
        flat = p.data.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            f_plus = fn(*inputs).item()
            flat[j] = orig - eps
            f_minus = fn(*inputs).item()
            flat[j] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericsError(
                    f"grad_check: non-finite FD evaluation at tensor {ti}, entry {j}"
                )
            fd = (f_plus - f_minus) / (2.0 * eps)
            an = analytic[ti].reshape(-1)[j]
            rel = abs(an - fd) / max(abs(an), abs(fd), GRAD_CHECK_FLOOR)
            sum_rel += rel
            count += 1
            if rel > max_rel:
                max_rel = rel
                worst = (ti, j)
    return GradCheckReport(max_rel, sum_rel / max(count, 1), count, threshold, worst)
