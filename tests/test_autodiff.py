"""Autodiff engine: finite-difference oracles plus structural invariants."""

import numpy as np
import pytest

from hyperadapt import autodiff as ad
from hyperadapt.autodiff import Tensor
from hyperadapt.errors import InputError, NumericsError, ShapeError, StateError
from hyperadapt.gradcheck import THRESHOLD
from hyperadapt.layers import rng_for

import oracles
from oracles import one


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestGradCheckHarness:
    def test_square_at_three(self):
        x = t64([3.0])

        def fn(v):
            return ad.mse_loss(v, np.zeros(1), one(1))

        report = ad.grad_check(fn, [x], eps=1e-5, threshold=THRESHOLD)
        assert report.passed
        # analytic 2*x = 6, and FD agrees to ~1e-10 on a quadratic
        assert x.grad[0] == pytest.approx(6.0, abs=1e-6)

    def test_linear_function_near_machine_precision(self):
        rng = np.random.default_rng(0)
        x = t64(rng.standard_normal(7))
        c = rng.standard_normal(7)

        def fn(v):
            return oracles.weighted_sum(v, c)

        report = ad.grad_check(fn, [x], threshold=THRESHOLD)
        assert report.max_rel < 1e-7

    def test_nonfinite_raises(self):
        x = t64([1.0])

        def fn(v):
            return ad.sum_all(ad.scale(v, np.inf))

        with pytest.raises(NumericsError):
            ad.grad_check(fn, [x], threshold=THRESHOLD)


def _fd_check(fn, tensors, eps=1e-5):
    report = ad.grad_check(fn, tensors, eps=eps, threshold=THRESHOLD)
    assert report.passed, repr(report)
    return report


class TestOpGradients:
    # matmul, permute and softmax are the attention oracle's tape ops
    def test_matmul_2d(self):
        rng = np.random.default_rng(1)
        a = t64(rng.standard_normal((4, 3)))
        b = t64(rng.standard_normal((3, 5)))
        _fd_check(lambda x, y: ad.sum_all(oracles.tanh(oracles.matmul(x, y))), [a, b])

    def test_matmul_3d_with_shared_rhs(self):
        rng = np.random.default_rng(2)
        a = t64(rng.standard_normal((2, 4, 3)))
        b = t64(rng.standard_normal((3, 3)))
        _fd_check(lambda x, y: ad.sum_all(oracles.matmul(x, y)), [a, b])

    def test_conv1d(self):
        rng = np.random.default_rng(3)
        x = t64(rng.standard_normal((9, 2)))
        w = t64(rng.standard_normal((3, 2, 4)))
        b = t64(rng.standard_normal(4))
        _fd_check(lambda *args: ad.sum_all(ad.relu(ad.conv1d(*args, one(9)))), [x, w, b])

    def test_softmax_log_softmax(self):
        rng = np.random.default_rng(4)
        x = t64(rng.standard_normal((5, 6)))
        c = rng.standard_normal((5, 6))
        _fd_check(lambda v: oracles.weighted_sum(oracles.softmax(v, axis=-1), c), [x])
        np.testing.assert_allclose(oracles.log_softmax(x.data, axis=-1),
                                   np.log(oracles.softmax(x, axis=-1).data), atol=1e-12)

    def test_layer_norm(self):
        rng = np.random.default_rng(5)
        x = t64(rng.standard_normal((4, 6)))
        gain = t64(rng.standard_normal(6))
        bias = t64(rng.standard_normal(6))
        c = rng.standard_normal((4, 6))
        _fd_check(
            lambda a, g, b: oracles.weighted_sum(oracles.layer_norm(a, g, b), c), [x, gain, bias]
        )

    def test_embedding(self):
        rng = np.random.default_rng(6)
        table = t64(rng.standard_normal((7, 3)))
        ids = np.array([0, 3, 3, 6, 1])
        _fd_check(lambda t: ad.sum_all(oracles.tanh(ad.embedding(t, ids))), [table])

    def test_concat_narrow_reshape_permute(self):
        # concat and narrow are the test oracles' plumbing ops
        rng = np.random.default_rng(7)
        a = t64(rng.standard_normal((3, 4)))
        b = t64(rng.standard_normal((3, 2)))

        def fn(x, y):
            joined = oracles.concat([x, y], axis=-1)
            sliced = oracles.narrow(joined, 1, 1, 4)
            flipped = oracles.permute(sliced, (1, 0))
            return ad.mse_loss(ad.reshape(flipped, (12,)), Tensor(np.arange(12.0)),
                               one(12))

        _fd_check(fn, [a, b])

    def test_losses(self):
        rng = np.random.default_rng(8)
        a = t64(rng.standard_normal((5, 2)))
        b = Tensor(rng.standard_normal((5, 2)))
        _fd_check(lambda x: ad.mse_loss(x, b, one(5)), [a])
        # keep FD away from |.| kinks
        _fd_check(lambda x: ad.l1_loss(x, b, one(5)), [a], eps=1e-7)

    def test_mean_axis_and_add_bias(self):
        rng = np.random.default_rng(9)
        x = t64(rng.standard_normal((6, 3)))
        bias = t64(rng.standard_normal(3))
        _fd_check(lambda a, b: ad.sum_all(oracles.tanh(ad.segment_mean(oracles.add_bias(a, b), one(6)))),
                  [x, bias])

    def test_two_layer_composite(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((5, 4)))
        w1 = t64(rng.standard_normal((4, 8)) * 0.5)
        b1 = t64(rng.standard_normal(8) * 0.1)
        w2 = t64(rng.standard_normal((8, 2)) * 0.5)
        target = Tensor(rng.standard_normal((5, 2)))

        def fn(wa, ba, wb):
            h = ad.relu(ad.linear(x, wa, ba))
            return ad.mse_loss(ad.linear(h, wb), target, one(5))

        _fd_check(fn, [w1, b1, w2])


class TestFusedOps:
    def test_linear_with_bias(self):
        rng = np.random.default_rng(20)
        x = t64(rng.standard_normal((5, 3)))
        w = t64(rng.standard_normal((3, 4)))
        b = t64(rng.standard_normal(4))
        _fd_check(lambda *args: ad.sum_all(oracles.tanh(ad.linear(*args))), [x, w, b])

    def test_linear_without_bias(self):
        rng = np.random.default_rng(21)
        x = t64(rng.standard_normal((3, 4)))
        w = t64(rng.standard_normal((4, 2)))
        _fd_check(lambda a, v: ad.sum_all(oracles.tanh(ad.linear(a, v))), [x, w])
        with pytest.raises(ShapeError):
            ad.linear(t64(np.ones((2, 3, 4))), w)

    def test_linear_is_one_node_matching_matmul_plus_bias(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal((6, 5)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True)
        out = ad.linear(x, w, b)
        assert out.op == "linear" and out._parents == (x, w, b)
        np.testing.assert_array_equal(out.data, oracles.add_bias(oracles.matmul(x, w), b).data)

    def test_conv1d_bias_is_fused(self):
        rng = np.random.default_rng(23)
        x = t64(rng.standard_normal((7, 3)))
        w = t64(rng.standard_normal((1, 3, 2)))
        b = t64(rng.standard_normal(2))
        out = ad.conv1d(x, w, b, one(7))
        assert out.op == "conv1d" and out._parents == (x, w, b)
        _fd_check(lambda *args: ad.sum_all(oracles.tanh(ad.conv1d(*args, one(7)))), [x, w, b])

    def _qkv(self, seed, n=5, d=6):
        rng = np.random.default_rng(seed)
        return [t64(rng.standard_normal((n, d))) for _ in range(3)]

    def test_attention_segments_match_separate_calls(self):
        # one softmax per segment: a pack of two utterances (2 and 3 rows)
        # gives each the output, gradients and dropout stream it gets alone
        q, k, v = self._qkv(24)
        c = np.random.default_rng(25).standard_normal((5, 6))
        seg = ad.Segments([2, 3])

        def run(tensors, rows, segments, streams):
            for t in tensors:
                t.grad = None
            rngs = [rng_for(9, "attn-drop", i) for i in streams]
            out = oracles.attention(*tensors, 2, segments, 0.3, rngs)
            ad.backward(oracles.weighted_sum(out, c[rows]))
            return out.data, [t.grad.copy() for t in tensors]

        packed, packed_grads = run([q, k, v], slice(0, 5), seg, [0, 1])
        for i, rows in enumerate((slice(0, 2), slice(2, 5))):
            alone = [t64(t.data[rows]) for t in (q, k, v)]
            out, grads = run(alone, rows, one(alone[0].shape[0]), [i])
            np.testing.assert_allclose(packed[rows], out, atol=1e-12)
            for g_packed, g_alone in zip(packed_grads, grads):
                np.testing.assert_allclose(g_packed[rows], g_alone, atol=1e-12)

        def fn(a, b, e):
            return oracles.weighted_sum(oracles.attention(a, b, e, 2, seg, 0.0, []), c)

        _fd_check(fn, [q, k, v])

    def test_attention_dropout_replays_reference_stream(self):
        q, k, v = self._qkv(26)
        c = np.random.default_rng(27).standard_normal((5, 6))

        def run(op):
            for t in (q, k, v):
                t.grad = None
            rng = rng_for(9, "attn-drop")
            out = op(q, k, v, 3, 0.3, rng)
            ad.backward(oracles.weighted_sum(out, c))
            # the stream continues exactly where a separate dropout op left it
            return out.data, [t.grad.copy() for t in (q, k, v)], rng.random(4)

        fused = run(lambda a, b, e, h, p, rng: oracles.attention(a, b, e, h, one(5), p, [rng]))
        ref = run(lambda a, b, e, h, p, rng: oracles.attention_reference(a, b, e, h, p, [rng]))
        np.testing.assert_allclose(fused[0], ref[0], atol=1e-12)
        for g_fused, g_ref in zip(fused[1], ref[1]):
            np.testing.assert_allclose(g_fused, g_ref, atol=1e-12)
        np.testing.assert_array_equal(fused[2], ref[2])
        assert not np.allclose(fused[0], oracles.attention(q, k, v, 3, one(5), 0.0, []).data)

        def fn(a, b, e):
            out = oracles.attention(a, b, e, 3, one(5), 0.3, [rng_for(9, "attn-drop")])
            return oracles.weighted_sum(out, c)

        _fd_check(fn, [q, k, v])

    def test_attention_without_streams_matches_reference(self):
        # no streams, no dropout, whatever p is
        rng = np.random.default_rng(28)
        q, k, v = (Tensor(rng.standard_normal((7, 8)).astype(np.float32)) for _ in range(3))
        fused = oracles.attention(q, k, v, 2, one(7), 0.1, [])
        ref = oracles.attention_reference(q, k, v, 2, 0.1, [])
        np.testing.assert_allclose(fused.data, ref.data, atol=1e-6)


class TestSegmentOps:
    """Ops over a pack of utterances stacked along axis 0: each is checked
    against finite differences on segments of different lengths, and
    against the same op run on each segment alone."""

    SEG = (2, 4, 3)

    def _packed(self, seed, width):
        return t64(np.random.default_rng(seed).standard_normal((sum(self.SEG), width)))

    def _per_segment(self, x):
        starts = np.cumsum((0,) + self.SEG)
        return [(slice(a, b), t64(x.data[a:b])) for a, b in zip(starts[:-1], starts[1:])]

    def test_conv1d_pads_every_segment(self):
        rng = np.random.default_rng(30)
        x = self._packed(31, 2)
        w = t64(rng.standard_normal((5, 2, 3)))
        b = t64(rng.standard_normal(3))
        seg = ad.Segments(self.SEG)
        _fd_check(lambda *args: ad.sum_all(oracles.tanh(ad.conv1d(*args, seg))), [x, w, b])
        packed = ad.conv1d(x, w, b, seg).data
        for rows, alone in self._per_segment(x):
            np.testing.assert_allclose(packed[rows], ad.conv1d(alone, w, b, one(alone.shape[0])).data,
                                       atol=1e-12)

    def test_repeat_rows(self):
        x = self._packed(32, 3)
        counts = np.array([2, 0, 1, 3, 1, 0, 2, 1, 1])
        out = ad.repeat_rows(x, counts)
        np.testing.assert_array_equal(out.data, np.repeat(x.data, counts, axis=0))
        _fd_check(lambda a: ad.sum_all(oracles.tanh(ad.repeat_rows(a, counts))), [x])

    def test_segment_mean(self):
        x = self._packed(33, 3)
        seg = ad.Segments(self.SEG)
        out = ad.segment_mean(x, seg)
        for i, (_, alone) in enumerate(self._per_segment(x)):
            np.testing.assert_allclose(out.data[i], alone.data.mean(axis=0), atol=1e-12)
        _fd_check(lambda a: ad.sum_all(oracles.tanh(ad.segment_mean(a, seg))), [x])

    def test_losses_sum_per_segment_means(self):
        x = self._packed(34, 2)
        target = np.random.default_rng(35).standard_normal(x.shape)
        seg = ad.Segments(self.SEG)
        for loss in (ad.mse_loss, ad.l1_loss):
            want = sum(loss(alone, target[rows], one(alone.shape[0])).item()
                       for rows, alone in self._per_segment(x))
            assert loss(x, target, seg).item() == pytest.approx(want, abs=1e-12)
        _fd_check(lambda a: ad.mse_loss(a, target, seg), [x])
        _fd_check(lambda a: ad.l1_loss(a, target, seg), [x], eps=1e-7)

    def test_dropout_draws_each_segment_from_its_own_stream(self):
        x = np.ones((sum(self.SEG), 4))
        seg = ad.Segments(self.SEG)
        packed, _ = ad.dropout_array(x, 0.4, [rng_for(3, "drop", i) for i in range(3)], seg)
        for i, (rows, alone) in enumerate(self._per_segment(t64(x))):
            want, _ = ad.dropout_array(alone.data, 0.4, [rng_for(3, "drop", i)],
                                       one(alone.shape[0]))
            np.testing.assert_array_equal(packed[rows], want)
        with pytest.raises(InputError):
            ad.dropout_array(x, 0.4, [rng_for(3, "drop")], seg)


class TestExactValues:
    def test_identity_matmul(self):
        v = Tensor(np.array([[1.0, 2.0, 3.0]], dtype=np.float32))
        out = oracles.matmul(v, Tensor(np.eye(3, dtype=np.float32)))
        np.testing.assert_array_equal(out.data, v.data)

    def test_relu_negative_is_zero(self):
        out = ad.relu(Tensor(np.array([-5.0, -0.1, 0.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 0.0, 2.0])

    def test_softmax_uniform(self):
        out = oracles.softmax(Tensor(np.zeros(4)), axis=-1)
        np.testing.assert_allclose(out.data, 0.25, atol=1e-7)

    def test_layer_norm_output_statistics(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((10, 16)).astype(np.float64) * 3 + 1
        out, _ = ad.layer_norm_array(x, np.ones(16), np.zeros(16))
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-4)

    def test_layer_norm_matches_float64_oracle_on_low_variance_rows(self):
        # rows whose variance (1e-8 to 1e-2) is near eps, where eps matters
        rng = np.random.default_rng(12)
        x = 2.0 + np.array([[1e-4], [1e-3], [3e-3], [1e-2], [1e-1]]) * rng.standard_normal((5, 16))
        gain, bias = rng.standard_normal(16), rng.standard_normal(16)
        out, _ = ad.layer_norm_array(x, gain, bias)
        np.testing.assert_allclose(out, oracles.layer_norm_reference(x, gain, bias),
                                   rtol=1e-9, atol=1e-12)


class TestDropout:
    def test_zero_probability_is_identity(self):
        x = np.random.default_rng(0).standard_normal((8, 4))
        out, back = ad.dropout_array(x, 0.0, [rng_for(1, "drop")], one(8))
        g = np.ones((8, 4))
        assert out is x and back(g) is g

    def test_no_streams_is_identity(self):
        x = np.ones((8, 4))
        out, _ = ad.dropout_array(x, 0.5, [], one(8))
        assert out is x

    def test_probability_is_checked_without_streams(self):
        with pytest.raises(InputError):
            ad.dropout_array(np.ones((8, 4)), 1.0, [], one(8))

    def test_seeded_mask_replays(self):
        x = np.ones((64, 16))
        a, _ = ad.dropout_array(x, 0.3, [rng_for(7, "drop", 0)], one(64))
        b, _ = ad.dropout_array(x, 0.3, [rng_for(7, "drop", 0)], one(64))
        np.testing.assert_array_equal(a, b)

    def test_kept_entries_are_rescaled(self):
        out, back = ad.dropout_array(np.ones((400, 10)), 0.25, [rng_for(3, "drop")], one(400))
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75, atol=1e-6)
        assert abs(kept.size / out.size - 0.75) < 0.05
        # the gradient passes the kept entries, rescaled the same way
        np.testing.assert_array_equal(back(np.ones((400, 10))), out)


class TestBackwardSemantics:
    def test_grad_accumulates_across_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        loss = ad.sum_all(ad.add(ad.scale(x, 3.0), ad.scale(x, 5.0)))
        ad.backward(loss)
        assert x.grad[0] == pytest.approx(8.0, abs=1e-5)

    def test_backward_consumes_the_graph(self):
        # every interior node lets go of its closure and parents as it runs,
        # so nothing the forward pass saved outlives the backward pass
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        h = ad.scale(x, 3.0)
        loss = ad.sum_all(oracles.tanh(h))
        ad.backward(loss)
        assert h._parents == () and loss._parents == ()
        with pytest.raises(StateError):
            ad.backward(loss)

    def test_second_loss_over_a_consumed_subgraph_raises(self):
        # the first pass released h's closure; a second loss built on h must
        # not treat it as a leaf and silently drop x's gradient
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        h = oracles.tanh(ad.scale(x, 3.0))
        first, second = ad.sum_all(h), ad.sum_all(h)
        ad.backward(first)
        with pytest.raises(StateError):
            ad.backward(second)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            ad.backward(ad.scale(x, 3.0))

    def test_backward_on_leaf_raises(self):
        with pytest.raises(StateError):
            ad.backward(Tensor(np.array(1.0), requires_grad=True))

    def test_no_grad_path_raises(self):
        x = Tensor(np.array([1.0]))
        with pytest.raises(StateError):
            ad.backward(ad.sum_all(x))

    def test_replay_is_bit_identical(self):
        def run():
            rng = rng_for(42, "replay")
            x = Tensor(rng.standard_normal((6, 4)).astype(np.float32), requires_grad=True)
            w = Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
            h = oracles.dropout(ad.relu(ad.linear(x, w)), 0.2, [rng_for(42, "drop")], one(6))
            loss = ad.sum_all(h)
            ad.backward(loss)
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        first = run()
        second = run()
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


def _op_with_parents(op, rng):
    """(fn of three float64 parents, the parents) of one op with a weight
    and a bias: linear, conv1d, or the array-level layer norm as a node."""
    if op == "linear":
        shapes, fn = ((5, 3), (3, 4), (4,)), ad.linear
    elif op == "conv1d":
        shapes = ((7, 3), (3, 3, 2), (2,))

        def fn(x, w, b):
            return ad.conv1d(x, w, b, one(7))
    else:
        shapes, fn = ((4, 6), (6,), (6,)), oracles.layer_norm
    return fn, [t64(rng.standard_normal(shape)) for shape in shapes]


class TestFrozenParents:
    # each pattern leaves at least one parent trainable; (x, w, b) order
    PATTERNS = [(True, False, False), (True, False, True), (False, True, False),
                (False, False, True), (True, True, False)]

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("op", ["linear", "conv1d", "layer_norm"])
    def test_grad_check_with_frozen_parents(self, op, pattern):
        fn, parents = _op_with_parents(op, np.random.default_rng(31))
        for p, flag in zip(parents, pattern):
            p.requires_grad = flag
        c = np.random.default_rng(32).standard_normal(fn(*parents).shape)
        _fd_check(lambda *args: oracles.weighted_sum(oracles.tanh(fn(*args)), c), parents)
        for p, flag in zip(parents, pattern):
            assert (p.grad is not None) == flag

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("op", ["linear", "conv1d", "layer_norm"])
    def test_closure_computes_no_frozen_gradient(self, op, pattern):
        # conv1d's kernel forms the input gradient whatever x is; a frozen
        # weight or bias gets None from every op
        fn, parents = _op_with_parents(op, np.random.default_rng(33))
        for p, flag in zip(parents, pattern):
            p.requires_grad = flag
        out = fn(*parents)
        grads = out._grad_fn(np.ones_like(out.data))
        checked = range(1, 3) if op == "conv1d" else range(3)
        assert [grads[i] is not None for i in checked] == [pattern[i] for i in checked]


class TestNoGrad:
    def test_records_no_tape_and_restores_on_exit(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                out = oracles.tanh(ad.linear(x, w))
                assert out._parents == () and out._grad_fn is None
                assert not out.requires_grad
                raise RuntimeError("leaves the block early")
        np.testing.assert_array_equal(out.data, oracles.tanh(ad.linear(x, w)).data)
        again = ad.linear(x, w)
        assert again._parents == (x, w) and again.requires_grad

    def test_backward_through_a_no_grad_output_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            loss = ad.sum_all(ad.scale(x, 2.0))
        with pytest.raises(StateError):
            ad.backward(loss)


class TestShapeValidation:
    def test_matmul_inner_mismatch(self):
        with pytest.raises(ShapeError):
            oracles.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_conv_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            ad.conv1d(Tensor(np.ones((5, 2))), Tensor(np.ones((2, 2, 2))), Tensor(np.ones(2)),
                      one(5))

    def test_embedding_id_out_of_range(self):
        with pytest.raises(InputError):
            ad.embedding(Tensor(np.ones((4, 2))), np.array([0, 4]))

    def test_mixed_dtype_rejected(self):
        a = Tensor(np.ones(3, dtype=np.float32))
        b = Tensor(np.ones(3, dtype=np.float64))
        with pytest.raises(InputError):
            ad.add(a, b)

    def test_bad_broadcast_rejected(self):
        # add takes two tensors of one shape: no bias or scalar broadcasting
        for other in (np.ones(3), np.ones(4), np.ones(())):
            with pytest.raises(ShapeError):
                ad.add(Tensor(np.ones((3, 4))), Tensor(other))
