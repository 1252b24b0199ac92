"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray plus an implicit tape: every op records its parents
and a closure that maps the output gradient to parent gradients. backward()
walks the tape in reverse topological order, handing each parent the first
gradient that reaches it and summing later ones out of place, so an array
several parents share is never mutated; an interior node's gradient is
released once its closure has run. Leaf gradients accumulate across
backward calls until the caller resets them.

The op set is exactly what the acoustic model needs: matmul (2D and stacked
3D), the fused affine map `linear` (matmul plus bias), length-preserving 1D
convolution with its bias, the fused multi-head attention core (head split,
scaled scores, padded-key bias, softmax, seeded dropout, weighted sum, head
merge), ReLU/tanh, softmax and log-softmax, layer norm, seeded dropout,
embedding lookup, elementwise add/sub/mul, sum/mean reductions, MSE/L1
losses, and reshape/slice/concat plumbing. Fused ops carry hand-written
gradients and record one tape node each. Two more fused ops live next to
their only caller in `adaptation`: `HyperNetwork.generate` (a module's whole
adapter table from the speaker embedding) and `adapter_forward` (one
bottleneck adapter applied from one row of such a table).

Training runs in float32 by default; gradient checking should build float64
tensors (finite differences are unreliable in 32-bit).
"""

import itertools
import operator

import numpy as np

from . import kernels
from .errors import InputError, NumericsError, ShapeError, StateError

DEFAULT_DTYPE = np.float32

_add_reduce = np.add.reduce
_node_counter = itertools.count(1)
_creation_order = operator.attrgetter("_seq")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_grad_fn", "_seq")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else None)
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

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self):
        backward(self)


def from_op(data, parents, grad_fn, op):
    """Create a graph node. grad_fn(g) returns one gradient per parent (or None)."""
    out = Tensor(data)
    out.op = op
    out._seq = next(_node_counter)
    out._parents = tuple(parents)
    out.requires_grad = any(p.requires_grad for p in out._parents)
    if out.requires_grad:
        out._grad_fn = grad_fn
    return out


def constant(data, dtype=DEFAULT_DTYPE):
    return Tensor(np.asarray(data, dtype=dtype))


def _check_same_dtype(op, *tensors):
    dts = {t.dtype for t in tensors}
    if len(dts) > 1:
        raise InputError(f"{op}: mixed dtypes {sorted(str(d) for d in dts)}")


def _coerce(op, a, like=None):
    if isinstance(a, Tensor):
        return a
    if isinstance(a, (int, float)):
        dt = like.dtype if like is not None else DEFAULT_DTYPE
        return Tensor(np.asarray(a, dtype=dt))
    raise InputError(f"{op}: expected Tensor or scalar, got {type(a).__name__}")


# -----------------------------------------------------------------------------
# elementwise arithmetic (strict broadcasting: same shape, scalar, or a
# trailing-axis bias vector)
# -----------------------------------------------------------------------------


def _broadcast_kind(op, a, b):
    if a.shape == b.shape:
        return "same"
    if b.data.ndim == 0:
        return "scalar"
    if b.data.ndim == 1 and a.data.ndim >= 1 and b.shape[0] == a.shape[-1]:
        return "bias"
    raise ShapeError(op, f"cannot broadcast {b.shape} onto {a.shape} (trailing axis mismatch)")


def _reduce_to(g, kind, shape):
    if kind == "same":
        return g
    if kind == "scalar":
        return g.sum()
    axes = tuple(range(g.ndim - 1))
    return g.sum(axis=axes) if axes else g


def add(a, b):
    a = _coerce("add", a)
    b = _coerce("add", b, like=a)
    _check_same_dtype("add", a, b)
    kind = _broadcast_kind("add", a, b)
    out_data = a.data + b.data

    def grad_fn(g):
        return g, _reduce_to(g, kind, b.shape)

    return from_op(out_data, (a, b), grad_fn, "add")


def sub(a, b):
    a = _coerce("sub", a)
    b = _coerce("sub", b, like=a)
    _check_same_dtype("sub", a, b)
    kind = _broadcast_kind("sub", a, b)
    out_data = a.data - b.data

    def grad_fn(g):
        return g, -_reduce_to(g, kind, b.shape)

    return from_op(out_data, (a, b), grad_fn, "sub")


def mul(a, b):
    a = _coerce("mul", a)
    b = _coerce("mul", b, like=a)
    _check_same_dtype("mul", a, b)
    kind = _broadcast_kind("mul", a, b)
    ad, bd = a.data, b.data
    out_data = ad * bd

    def grad_fn(g):
        return g * bd, _reduce_to(g * ad, kind, b.shape)

    return from_op(out_data, (a, b), grad_fn, "mul")


def scale(a, c):
    c = float(c)

    def grad_fn(g):
        return (g * c,)

    return from_op(a.data * a.dtype.type(c), (a,), grad_fn, "scale")


def neg(a):
    return scale(a, -1.0)


# -----------------------------------------------------------------------------
# matmul: 2D @ 2D, 3D @ 3D (matching batch), 3D @ 2D
# -----------------------------------------------------------------------------


def matmul(a, b):
    _check_same_dtype("matmul", a, b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2 or ad.ndim > 3 or bd.ndim > 3:
        raise ShapeError("matmul", f"ranks {ad.ndim} and {bd.ndim} unsupported (need 2 or 3)")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(
            "matmul", f"inner axes differ: {ad.shape} @ {bd.shape} ({ad.shape[-1]} vs {bd.shape[-2]})"
        )
    if ad.ndim == 3 and bd.ndim == 3 and ad.shape[0] != bd.shape[0]:
        raise ShapeError("matmul", f"batch axes differ: {ad.shape[0]} vs {bd.shape[0]}")
    out_data = np.matmul(ad, bd)

    def grad_fn(g):
        ga = np.matmul(g, bd.swapaxes(-1, -2))
        gb = np.matmul(ad.swapaxes(-1, -2), g)
        if ga.ndim > ad.ndim:
            ga = ga.sum(axis=0)
        if gb.ndim > bd.ndim:
            gb = gb.sum(axis=0)
        return ga, gb

    return from_op(out_data, (a, b), grad_fn, "matmul")


def linear(x, w, b=None):
    """x @ w + b in one node: x (n, d_in), w (d_in, d_out), b (d_out,) or None."""
    _check_same_dtype("linear", *((x, w) if b is None else (x, w, b)))
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0]:
        raise ShapeError("linear", f"cannot apply weight {wd.shape} to input {xd.shape}")
    if b is not None and b.shape != (wd.shape[1],):
        raise ShapeError("linear", f"bias {b.shape} does not match output width {wd.shape[1]}")
    out_data = xd @ wd
    if b is not None:
        out_data += b.data

    def grad_fn(g):
        return g @ wd.T, xd.T @ g, None if b is None else g.sum(axis=0)

    return from_op(out_data, (x, w) if b is None else (x, w, b), grad_fn, "linear")


# -----------------------------------------------------------------------------
# shape plumbing
# -----------------------------------------------------------------------------


def reshape(a, shape):
    old = a.shape

    def grad_fn(g):
        return (g.reshape(old),)

    return from_op(a.data.reshape(shape), (a,), grad_fn, "reshape")


def permute(a, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def grad_fn(g):
        return (g.transpose(inv),)

    return from_op(a.data.transpose(axes), (a,), grad_fn, "permute")


def transpose_last(a):
    nd = a.data.ndim
    if nd < 2:
        raise ShapeError("transpose_last", f"rank {nd} has no trailing axis pair")
    axes = tuple(range(nd - 2)) + (nd - 1, nd - 2)
    return permute(a, axes)


def concat(tensors, axis=-1):
    if not tensors:
        raise InputError("concat: empty tensor list")
    _check_same_dtype("concat", *tensors)
    sizes = [t.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        idx = [slice(None)] * g.ndim
        outs = []
        for i in range(len(sizes)):
            idx[axis] = slice(offsets[i], offsets[i + 1])
            outs.append(g[tuple(idx)])
        return tuple(outs)

    return from_op(out_data, tuple(tensors), grad_fn, "concat")


def narrow(a, axis, start, length):
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeError("narrow", f"slice [{start}:{start + length}] exceeds axis {axis} of {a.shape}")
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def grad_fn(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return from_op(a.data[idx], (a,), grad_fn, "narrow")


# -----------------------------------------------------------------------------
# nonlinearities and normalization
# -----------------------------------------------------------------------------


def relu(a):
    mask = a.data > 0
    out_data = np.where(mask, a.data, a.dtype.type(0))

    def grad_fn(g):
        return (g * mask,)

    return from_op(out_data, (a,), grad_fn, "relu")


def tanh(a):
    out_data = np.tanh(a.data)

    def grad_fn(g):
        return (g * (1.0 - out_data * out_data),)

    return from_op(out_data, (a,), grad_fn, "tanh")


def softmax(a, axis=-1):
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return from_op(y, (a,), grad_fn, "softmax")


def log_softmax(a, axis=-1):
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse

    def grad_fn(g):
        return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)

    return from_op(y, (a,), grad_fn, "log_softmax")


def layer_norm(a, gain, bias, eps=1e-5):
    """Normalize the trailing axis to zero mean / unit variance, then affine."""
    _check_same_dtype("layer_norm", a, gain, bias)
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("layer_norm", f"affine params {gain.shape}/{bias.shape} do not match last axis {d}")
    # the sums divided by d are what ndarray.mean/var compute, without their
    # Python-level argument handling
    x = a.data
    xc = x - _add_reduce(x, axis=-1, keepdims=True) / d
    var = _add_reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def grad_fn(g):
        gxhat = g * gain.data
        m1 = _add_reduce(gxhat, axis=-1, keepdims=True) / d
        m2 = _add_reduce(gxhat * xhat, axis=-1, keepdims=True) / d
        gx = inv * (gxhat - m1 - xhat * m2)
        lead = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=lead) if lead else g * xhat
        gbias = g.sum(axis=lead) if lead else g
        return gx, ggain, gbias

    return from_op(out_data, (a, gain, bias), grad_fn, "layer_norm")


def _dropout_scale(shape, dtype, p, rng, training):
    """Inverted-dropout multiplier, 0 or 1 / (1 - p) per entry, or None when
    dropout is off. Draws rng.random(shape) exactly once when on."""
    if p < 0 or p >= 1:
        raise InputError(f"dropout: probability {p} outside [0, 1)")
    if not training or p == 0.0:
        return None
    return (rng.random(shape) >= p).astype(dtype) * dtype.type(1.0 / (1.0 - p))


def dropout(a, p, rng, training):
    """Seeded inverted dropout; identity when p == 0 or not training."""
    mult = _dropout_scale(a.shape, a.dtype, p, rng, training)
    if mult is None:
        return a

    def grad_fn(g):
        return (g * mult,)

    return from_op(a.data * mult, (a,), grad_fn, "dropout")


def attention(q, k, v, heads, key_bias=None, p=0.0, rng=None, training=False):
    """Multi-head scaled dot-product attention over (n, d) projections.

    Splits d into `heads` heads, scores queries against keys scaled by
    1/sqrt(d / heads), adds key_bias (n,) to every score row (large negative
    on padded keys), takes the softmax over keys, applies seeded inverted
    dropout to the weights, and merges the heads of the weighted value sum
    back to (n, d). One node; the dropout mask is drawn from rng with shape
    (heads, n, n) after the softmax, so the stream matches a separate
    dropout op at that point.
    """
    _check_same_dtype("attention", q, k, v)
    n, d = q.shape
    if k.shape != (n, d) or v.shape != (n, d):
        raise ShapeError("attention", f"q/k/v shapes differ: {q.shape}, {k.shape}, {v.shape}")
    if d % heads:
        raise ShapeError("attention", f"width {d} not divisible by {heads} heads")
    hd = d // heads

    def split(x):
        return x.reshape(n, heads, hd).transpose(1, 0, 2)  # (heads, n, hd)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    c = q.dtype.type(1.0 / np.sqrt(hd))
    scores = np.matmul(qh, kh.transpose(0, 2, 1)) * c
    if key_bias is not None:
        scores += key_bias
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    att = e / _add_reduce(e, axis=-1, keepdims=True)
    drop = _dropout_scale(att.shape, att.dtype, p, rng, training)
    att_d = att if drop is None else att * drop
    out_data = np.matmul(att_d, vh).transpose(1, 0, 2).reshape(n, d)

    def grad_fn(g):
        go = split(g)
        g_att = np.matmul(go, vh.transpose(0, 2, 1))
        gvh = np.matmul(att_d.transpose(0, 2, 1), go)
        if drop is not None:
            g_att *= drop
        g_scores = att * (g_att - _add_reduce(g_att * att, axis=-1, keepdims=True))
        g_scores *= c
        gqh = np.matmul(g_scores, kh)
        gkh = np.matmul(g_scores.transpose(0, 2, 1), qh)

        def merge(x):
            return x.transpose(1, 0, 2).reshape(n, d)

        return merge(gqh), merge(gkh), merge(gvh)

    return from_op(out_data, (q, k, v), grad_fn, "attention")


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


# -----------------------------------------------------------------------------
# 1D convolution over (T, C_in) with symmetric zero padding (length preserved)
# -----------------------------------------------------------------------------


def conv1d(x, w, b=None):
    """Length-preserving conv of x (T, Cin) with w (K, Cin, Cout) plus the
    optional bias (Cout,), in one node."""
    _check_same_dtype("conv1d", *((x, w) if b is None else (x, w, b)))
    if x.data.ndim != 2 or w.data.ndim != 3:
        raise ShapeError("conv1d", f"need x (T, Cin) and w (K, Cin, Cout), got {x.shape} and {w.shape}")
    k, cin, cout = w.shape
    if k % 2 != 1:
        raise ShapeError("conv1d", f"kernel size {k} must be odd to preserve length")
    if x.shape[1] != cin:
        raise ShapeError("conv1d", f"channel axes differ: input {x.shape[1]} vs weight {cin}")
    if b is not None and b.shape != (cout,):
        raise ShapeError("conv1d", f"bias {b.shape} does not match {cout} output channels")
    pad = (k - 1) // 2
    t = x.shape[0]
    if pad:
        xp = np.zeros((t + 2 * pad, cin), x.dtype)
        xp[pad : pad + t] = x.data
    else:
        xp = x.data
    out_data = kernels.conv1d_forward(xp, w.data)
    if b is not None:
        out_data += b.data

    def grad_fn(g):
        gxp, gw = kernels.conv1d_backward(xp, w.data, g)
        return gxp[pad : pad + t], gw, None if b is None else g.sum(axis=0)

    return from_op(out_data, (x, w) if b is None else (x, w, b), grad_fn, "conv1d")


# -----------------------------------------------------------------------------
# reductions and losses
# -----------------------------------------------------------------------------


def sum_all(a):
    def grad_fn(g):
        return (np.full_like(a.data, g),)

    return from_op(_add_reduce(a.data, axis=None), (a,), grad_fn, "sum")


def mean_all(a):
    n = a.size

    def grad_fn(g):
        return (np.full_like(a.data, g / n),)

    return from_op(_add_reduce(a.data, axis=None) / n, (a,), grad_fn, "mean")


def mean_axis(a, axis):
    n = a.shape[axis]

    def grad_fn(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return from_op(_add_reduce(a.data, axis=axis) / n, (a,), grad_fn, "mean_axis")


def _as_target(op, b):
    # loss targets are often plain arrays; wrap them as non-grad constants
    if isinstance(b, np.ndarray):
        return Tensor(b)
    if isinstance(b, Tensor):
        return b
    raise InputError(f"{op}: target must be a Tensor or ndarray, got {type(b).__name__}")


def mse_loss(a, b):
    b = _as_target("mse_loss", b)
    _check_same_dtype("mse_loss", a, b)
    if a.shape != b.shape:
        raise ShapeError("mse_loss", f"operand shapes differ: {a.shape} vs {b.shape}")
    diff = a.data - b.data
    n = max(a.size, 1)

    def grad_fn(g):
        d = g * 2.0 / n * diff
        return d, -d

    return from_op(_add_reduce(diff * diff, axis=None) / n, (a, b), grad_fn, "mse_loss")


def l1_loss(a, b):
    b = _as_target("l1_loss", b)
    _check_same_dtype("l1_loss", a, b)
    if a.shape != b.shape:
        raise ShapeError("l1_loss", f"operand shapes differ: {a.shape} vs {b.shape}")
    diff = a.data - b.data
    n = max(a.size, 1)

    def grad_fn(g):
        d = g / n * np.sign(diff)
        return d, -d

    return from_op(_add_reduce(np.abs(diff), axis=None) / n, (a, b), grad_fn, "l1_loss")


# -----------------------------------------------------------------------------
# backward pass
# -----------------------------------------------------------------------------


def _tape(root):
    """Interior nodes reachable from root, newest first. A node is always
    created after its parents, so reverse creation order is a topological
    order of the tape; leaves have nothing to propagate and are left out."""
    nodes = [root]
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if p._grad_fn is not None and id(p) not in seen:
                seen.add(id(p))
                nodes.append(p)
                stack.append(p)
    nodes.sort(key=_creation_order, reverse=True)
    return nodes


def backward(loss):
    """Accumulate gradients of a scalar loss into .grad of every reachable
    requires_grad tensor."""
    if loss.size != 1:
        raise ShapeError("backward", f"loss must be scalar, got shape {loss.shape}")
    if not loss._parents:
        raise StateError("backward called before any forward computation produced this tensor")
    if not loss.requires_grad:
        raise StateError("loss does not depend on any requires_grad tensor")
    loss.grad = np.ones_like(loss.data)
    for node in _tape(loss):
        g = node.grad
        if g is None:
            continue
        grads = node._grad_fn(g)
        node.grad = None  # interior: nothing reads it once its parents have it
        for parent, pg in zip(node._parents, grads):
            if pg is None or not parent.requires_grad:
                continue
            data = parent.data
            if pg.dtype != data.dtype or pg.shape != data.shape:
                conformed = np.zeros_like(data)
                conformed += pg
                pg = conformed
            cur = parent.grad
            parent.grad = pg if cur is None else cur + pg


def grads_for(loss, params):
    """Run backward and return one gradient array per param, zeros if untouched."""
    for _, p in params:
        p.grad = None
    backward(loss)
    return {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for name, p in params}


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


def grad_check(fn, inputs, eps=1e-5, threshold=1e-4, rel_floor=1e-3):
    """Compare analytic gradients of scalar-valued fn(*inputs) against central
    finite differences.

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
            rel = abs(an - fd) / max(abs(an), abs(fd), rel_floor)
            sum_rel += rel
            count += 1
            if rel > max_rel:
                max_rel = rel
                worst = (ti, j)
    return GradCheckReport(max_rel, sum_rel / max(count, 1), count, threshold, worst)
