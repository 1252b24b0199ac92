"""Backbone blocks: positional table, segment isolation in packs, gradients."""

import numpy as np
import pytest

from hyperadapt import autodiff as ad
from hyperadapt import backbone
from hyperadapt.adaptation import site_adapters, static_adapter_table
from hyperadapt.autodiff import Tensor
from hyperadapt.errors import ConfigError, InputError, ShapeError
from hyperadapt.gradcheck import THRESHOLD
from hyperadapt.layers import rng_for

from oracles import one, weighted_sum

D = 8
NO_ADAPTERS = [None] * 4  # one per encoder block


def _f64(module):
    for p in module.parameters():
        p.data = p.data.astype(np.float64)
    return module


class TestSinusoidalTable:
    def test_row_zero(self):
        pe = backbone.sinusoidal_table(5, 6)
        np.testing.assert_array_equal(pe[0, 0::2], 0.0)
        np.testing.assert_array_equal(pe[0, 1::2], 1.0)

    def test_values_bounded_and_distinct_rows(self):
        pe = backbone.sinusoidal_table(40, 16)
        assert np.abs(pe).max() <= 1.0
        assert np.unique(pe.round(4), axis=0).shape[0] == 40

    def test_packed_positions_restart_per_segment_bit_for_bit(self):
        seg = ad.Segments([3, 300, 1, 7])
        packed = backbone.positions(seg, 16, np.float32)
        for (start, end), n in zip(seg.bounds, seg.lengths):
            assert packed[start:end].tobytes() == backbone.sinusoidal_table(n, 16).tobytes()
        assert backbone.positions(one(5), 16, np.float32).tobytes() == \
            backbone.sinusoidal_table(5, 16).tobytes()


class TestEncoder:
    def _enc(self, seed=0, vocab=11):
        return backbone.Encoder(rng_for(seed, "enc"), vocab, D, heads=2, n_layers=4)

    def test_output_shape(self):
        enc = self._enc()
        out = enc(np.array([1, 2, 3, 4, 5, 6, 0]), one(7), (), NO_ADAPTERS)
        assert out.shape == (7, D)

    def test_embedding_is_positionwise(self):
        enc = self._enc()
        a = ad.add(enc.embed(np.array([3, 5, 7])), Tensor(backbone.sinusoidal_table(3, D)))
        b = ad.add(enc.embed(np.array([9, 5, 1])), Tensor(backbone.sinusoidal_table(3, D)))
        np.testing.assert_array_equal(a.data[1], b.data[1])

    def test_eval_mode_deterministic(self):
        enc = self._enc(seed=1)
        ids = np.array([1, 4, 2, 8])
        np.testing.assert_array_equal(enc(ids, one(4), (), NO_ADAPTERS).data,
                                      enc(ids, one(4), (), NO_ADAPTERS).data)

    def test_out_of_vocab_rejected(self):
        with pytest.raises(InputError):
            self._enc(vocab=5)(np.array([0, 5]), one(2), (), NO_ADAPTERS)

    def test_layout_must_cover_the_rows(self):
        with pytest.raises(InputError):
            ad.Segments([2, 0])
        with pytest.raises(ShapeError):
            self._enc()(np.array([1, 2, 3]), ad.Segments([1, 1]), (), NO_ADAPTERS)

    def test_packed_segments_match_separate_calls(self):
        enc = self._enc(seed=2)
        a, b = np.array([1, 2, 3, 4, 5]), np.array([7, 9, 7])
        packed = enc(np.concatenate([a, b]), ad.Segments([5, 3]), (), NO_ADAPTERS).data
        np.testing.assert_allclose(packed[:5], enc(a, one(5), (), NO_ADAPTERS).data, atol=1e-5)
        np.testing.assert_allclose(packed[5:], enc(b, one(3), (), NO_ADAPTERS).data, atol=1e-5)

    def test_other_segment_content_is_ignored(self):
        enc = self._enc(seed=3)
        seg = ad.Segments([3, 2])
        a = enc(np.array([1, 2, 3, 4, 5]), seg, (), NO_ADAPTERS).data
        b = enc(np.array([1, 2, 3, 9, 10]), seg, (), NO_ADAPTERS).data
        np.testing.assert_array_equal(a[:3], b[:3])


class TestFFTBlock:
    def test_heads_must_divide_the_width(self):
        with pytest.raises(ConfigError):
            backbone.FFTBlock(rng_for(5, "blk"), D, heads=3)

    def test_shape_preserved(self):
        block = backbone.FFTBlock(rng_for(5, "blk"), D, heads=2)
        h = Tensor(np.random.default_rng(1).standard_normal((9, D)).astype(np.float32))
        assert block(h, one(9), (), None).shape == (9, D)

    def test_gradient_check(self):
        block = _f64(backbone.FFTBlock(rng_for(6, "blk"), D, heads=2))
        block.set_trainable(True)
        h = Tensor(np.random.default_rng(2).standard_normal((5, D)), requires_grad=True)
        target = Tensor(np.random.default_rng(3).standard_normal((5, D)))

        def fn(x):
            return ad.mse_loss(block(x, one(5), (), None), target, one(5))

        report = ad.grad_check(fn, [h], threshold=THRESHOLD)
        assert report.passed, repr(report)

    def test_gradient_check_two_segments(self):
        # a pack of two utterances (4 and 2 rows): one softmax per segment
        # and conv padding at the boundary
        block = _f64(backbone.FFTBlock(rng_for(9, "blk"), D, heads=2))
        block.set_trainable(True)
        h = Tensor(np.random.default_rng(5).standard_normal((6, D)), requires_grad=True)
        target = Tensor(np.random.default_rng(6).standard_normal((6, D)))
        seg = ad.Segments([4, 2])
        attn = block.attn
        params = [attn.wq.w, attn.wk.w, attn.wv.b, block.conv1.w]

        def fn(x, *_):
            return ad.mse_loss(block(x, seg, (), None), target, seg)

        report = ad.grad_check(fn, [h] + params, threshold=THRESHOLD)
        assert report.passed, repr(report)

    def test_segments_are_isolated_in_outputs_and_gradients(self):
        # with dropout on: each segment draws from its own stream, and new
        # content in one segment moves neither the other's outputs nor the
        # gradient that reaches its rows
        block = backbone.FFTBlock(rng_for(11, "blk"), D, heads=2)
        seg = ad.Segments([4, 3])
        c = np.random.default_rng(12).standard_normal((7, D)).astype(np.float32)

        def run(rows):
            h = Tensor(rows, requires_grad=True)
            out = block(h, seg, [rng_for(3, "dropout", i) for i in range(2)], None)
            ad.backward(weighted_sum(out, c))
            return out.data, h.grad

        rows = np.random.default_rng(13).standard_normal((7, D)).astype(np.float32)
        changed = rows.copy()
        changed[4:] += 5.0
        out_a, grad_a = run(rows)
        out_b, grad_b = run(changed)
        np.testing.assert_array_equal(out_a[:4], out_b[:4])
        np.testing.assert_array_equal(grad_a[:4], grad_b[:4])
        assert np.abs(out_a[4:] - out_b[4:]).max() > 1e-3

    def test_dropout_in_training_replays_from_seed(self):
        block = backbone.FFTBlock(rng_for(10, "blk"), D, heads=2)
        h = Tensor(np.random.default_rng(7).standard_normal((5, D)).astype(np.float32))

        def run():
            return block(h, one(5), [rng_for(3, "dropout")], None).data

        first = run()
        np.testing.assert_array_equal(first, run())
        assert np.abs(first - block(h, one(5), (), None).data).max() > 1e-4

    def test_adapter_hook_applies_before_final_norm(self):
        block = backbone.FFTBlock(rng_for(7, "blk"), D, heads=2)
        h = Tensor(np.random.default_rng(4).standard_normal((4, D)).astype(np.float32))
        table = static_adapter_table(3, "blk", 1, D, 2)
        plain = block(h, one(4), (), None).data
        # a fresh site is the identity
        hooked = block(h, one(4), (), site_adapters(table, 1, one(4))[0]).data
        np.testing.assert_array_equal(plain, hooked)
        # a site off the identity moves the output; where it acts is pinned
        # by the op-by-op reference (test_module_nodes)
        table.data[0, -D:] = np.arange(D, dtype=np.float32)
        shifted = block(h, one(4), (), site_adapters(table, 1, one(4))[0]).data
        assert np.abs(shifted - plain).max() > 1e-3


class TestDecoder:
    def test_output_shape(self):
        dec = backbone.Decoder(rng_for(9, "dec"), D, n_mels=12, heads=2, n_layers=6)
        assert len(dec.blocks) == 6
        h = Tensor(np.random.default_rng(5).standard_normal((20, D)).astype(np.float32))
        assert dec(h, one(20), (), [None] * 6).shape == (20, 12)

    def test_zero_length_rejected(self):
        dec = backbone.Decoder(rng_for(10, "dec"), D, n_mels=4, heads=2, n_layers=2)
        with pytest.raises(InputError):
            dec(Tensor(np.zeros((0, D), dtype=np.float32)), None, (), [None] * 2)

    def test_gradient_check(self):
        dec = _f64(backbone.Decoder(rng_for(11, "dec"), D, n_mels=3, heads=2, n_layers=2))
        dec.set_trainable(True)
        h = Tensor(np.random.default_rng(6).standard_normal((4, D)), requires_grad=True)
        target = Tensor(np.random.default_rng(7).standard_normal((4, 3)))
        report = ad.grad_check(lambda x: ad.mse_loss(dec(x, one(4), (), [None] * 2), target,
                                                     one(4)), [h], threshold=THRESHOLD)
        assert report.passed, repr(report)


class TestPostnet:
    def test_identity_at_init(self):
        post = backbone.Postnet(rng_for(12, "post"), n_mels=10, channels=16, n_layers=5)
        mel = Tensor(np.random.default_rng(8).standard_normal((15, 10)).astype(np.float32))
        out = post(mel, one(15), ())
        np.testing.assert_array_equal(out.data, mel.data)

    def test_shape_preserved_after_perturbation(self):
        post = backbone.Postnet(rng_for(13, "post"), n_mels=6, channels=8, n_layers=5)
        post.convs[-1].w.data += 0.05
        mel = Tensor(np.random.default_rng(9).standard_normal((12, 6)).astype(np.float32))
        out = post(mel, one(12), ())
        assert out.shape == (12, 6)
        assert np.abs(out.data - mel.data).max() > 1e-6

    def test_gradient_check(self):
        post = _f64(backbone.Postnet(rng_for(14, "post"), n_mels=4, channels=6, n_layers=5))
        post.set_trainable(True)
        post.convs[-1].w.data += 0.1  # move off the zero init so grads flow everywhere
        mel = Tensor(np.random.default_rng(10).standard_normal((7, 4)), requires_grad=True)
        target = Tensor(np.random.default_rng(11).standard_normal((7, 4)))
        report = ad.grad_check(lambda x: ad.mse_loss(post(x, one(7), ()), target, one(7)), [mel],
                               threshold=THRESHOLD)
        assert report.passed, repr(report)

    def test_five_layers_default(self):
        post = backbone.Postnet(rng_for(15, "post"), n_mels=4, channels=6, n_layers=5)
        assert len(post.convs) == 5
