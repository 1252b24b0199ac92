"""The module nodes against the op-by-op graphs they replaced.

`FFTBlock`, `ConvStack` and `Postnet` each record one tape node. Over a
float32 pack of three utterances (one of them a single row) with dropout
streams, each node's output and every gradient it passes equal, bit for
bit, those of the reference graph in `oracles`, which records a node per op
and lets the tape chain their gradients. Both run the same kernel calls, so
a frozen weight costs neither a weight gradient nor a conv `need_w`.
"""

import numpy as np
import pytest

from hyperadapt import autodiff as ad
from hyperadapt import backbone, kernels, variance
from hyperadapt.adaptation import site_adapters
from hyperadapt.autodiff import Tensor
from hyperadapt.errors import InputError, ShapeError
from hyperadapt.layers import rng_for

import oracles

D = 8
SEG = (4, 1, 3)
N_SITES = 2
# (weights trainable, adapter table, input wants a gradient)
CONFIGS = {
    "trainable": (True, False, True),
    "frozen_with_table": (False, True, True),
    "frozen_with_table_constant_input": (False, True, False),
    "frozen_without_table": (False, False, True),
}


def _module(kind):
    """(module, its reference graph, input width, a later consumer of the
    input as in the model) of one module kind."""
    if kind == "fft_block":
        # a block's input has no consumer outside the block in the model
        return (backbone.FFTBlock(rng_for(1, "node", kind), D, heads=2),
                oracles.fft_block_reference, D, False)
    if kind == "conv_stack":
        # the duration trunk's input also feeds the length regulator
        return variance.ConvStack(rng_for(2, "node", kind), D), oracles.conv_stack_reference, D, True
    post = backbone.Postnet(rng_for(3, "node", kind), n_mels=6, channels=5, n_layers=3)
    post.convs[-1].w.data += rng_for(4, "node").normal(size=post.convs[-1].w.shape).astype(
        np.float32) * 0.1
    # the pre-Postnet mel loss also reads the Postnet's input
    return post, lambda m, x, seg, rngs, site: oracles.postnet_reference(m, x, seg, rngs), 6, True


def _run(module, forward, width, later, config, conv_calls):
    """(output, input gradient, parameter gradients, table gradient) of a
    weighted sum of forward(...) over a fresh pack."""
    trainable, with_table, input_grad = config
    rng = np.random.default_rng(5)
    seg = ad.Segments(SEG)
    x = Tensor(rng.standard_normal((seg.total, width)).astype(np.float32),
               requires_grad=input_grad)
    table = site = None
    if with_table:
        n_flat = 2 * width * 3 + 3 + width  # d_r = 3
        table = Tensor((rng.standard_normal((N_SITES * len(SEG), n_flat)) * 0.3).astype(np.float32),
                       requires_grad=True)
        site = site_adapters(table, N_SITES, seg)[1]
    module.set_trainable(trainable)
    for p in module.parameters():
        p.grad = None
    rngs = [rng_for(6, "node-drop", b) for b in range(len(SEG))]
    out = forward(module, x, seg, rngs, site)
    loss = oracles.weighted_sum(out, rng.standard_normal(out.shape))
    if later:
        loss = ad.add(loss, oracles.weighted_sum(x, rng.standard_normal(x.shape)))
    conv_calls.clear()
    ad.backward(loss)
    return (out.data, x.grad, [p.grad for p in module.parameters()],
            None if table is None else table.grad)


def _bits(a):
    return None if a is None else (a.dtype, a.shape, a.tobytes())


@pytest.mark.parametrize("kind, config", [
    (kind, config) for kind in ("fft_block", "conv_stack", "postnet") for config in CONFIGS
    if kind != "postnet" or not CONFIGS[config][1]])  # the Postnet has no adapter site
def test_module_node_equals_op_by_op_graph_bit_for_bit(monkeypatch, kind, config):
    module, reference, width, later = _module(kind)
    calls = []
    real_conv = kernels.conv1d_backward

    def conv_backward(xp, w, gout, need_w=True):
        calls.append(need_w)
        return real_conv(xp, w, gout, need_w=need_w)

    monkeypatch.setattr(kernels, "conv1d_backward", conv_backward)
    nodes = []
    real_from_op = ad.from_op

    def node_call(m, x, seg, rngs, site):
        monkeypatch.setattr(ad, "from_op", lambda *a: nodes.append(a[3]) or real_from_op(*a))
        try:
            return m(x, seg, rngs) if kind == "postnet" else m(x, seg, rngs, site)
        finally:
            monkeypatch.setattr(ad, "from_op", real_from_op)

    got = _run(module, node_call, width, later, CONFIGS[config], calls)
    got_calls = list(calls)
    want = _run(module, reference, width, later, CONFIGS[config], calls)
    assert nodes == [kind]
    assert _bits(got[0]) == _bits(want[0])
    assert _bits(got[1]) == _bits(want[1])
    assert [_bits(g) for g in got[2]] == [_bits(g) for g in want[2]]
    assert _bits(got[3]) == _bits(want[3])
    assert got_calls == list(calls)
    trainable, with_table, input_grad = CONFIGS[config]
    assert all((g is not None) == trainable for g in got[2])
    assert (got[1] is not None) == input_grad
    if not trainable:
        assert not any(got_calls)
    if not input_grad:
        # a constant input into a frozen block: only the site's table
        # learns, and no conv runs backward
        assert got_calls == [] and got[3].any()


def test_segments_stay_apart_in_every_module_node():
    # new content in the last segment moves neither the other segments'
    # outputs nor the gradient that reaches their rows; with dropout on,
    # each segment draws from its own stream
    seg = ad.Segments(SEG)
    for kind in ("fft_block", "conv_stack", "postnet"):
        module, _, width, _ = _module(kind)
        rows = np.random.default_rng(7).standard_normal((seg.total, width)).astype(np.float32)
        probe = np.random.default_rng(8).standard_normal(rows.shape)

        def run(data):
            x = Tensor(data, requires_grad=True)
            rngs = [rng_for(9, "iso", b) for b in range(len(SEG))]
            out = module(x, seg, rngs) if kind == "postnet" else module(x, seg, rngs, None)
            ad.backward(oracles.weighted_sum(out, probe[:, : out.shape[1]]))
            return out.data, x.grad

        changed = rows.copy()
        changed[5:] += 3.0
        (out_a, grad_a), (out_b, grad_b) = run(rows), run(changed)
        np.testing.assert_array_equal(out_a[:5], out_b[:5], err_msg=kind)
        np.testing.assert_array_equal(grad_a[:5], grad_b[:5], err_msg=kind)
        assert np.abs(out_a[5:] - out_b[5:]).max() > 1e-4, kind


def test_module_input_is_checked_at_entry():
    module, _, width, _ = _module("conv_stack")
    x = Tensor(np.zeros((8, width), dtype=np.float32))
    with pytest.raises(ShapeError):
        module(x, ad.Segments([4, 3]), (), None)
    with pytest.raises(ShapeError):
        module(Tensor(np.zeros((8, width + 1), dtype=np.float32)), ad.Segments(SEG), (), None)
    with pytest.raises(InputError):
        module(Tensor(np.zeros((8, width))), ad.Segments(SEG), (), None)
