"""Backbone blocks: positional table, masking invariants, gradients."""

import numpy as np
import pytest

from hyperadapt import autodiff as ad
from hyperadapt import backbone
from hyperadapt.autodiff import Tensor
from hyperadapt.errors import ConfigError, InputError
from hyperadapt.layers import RunCtx, rng_for

D = 8
CTX = RunCtx(training=False)


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


class TestEncoder:
    def _enc(self, seed=0, vocab=11):
        return backbone.Encoder(rng_for(seed, "enc"), vocab, D, heads=2, n_layers=4)

    def test_output_shape(self):
        enc = self._enc()
        out = enc(np.array([1, 2, 3, 4, 5, 6, 0]), CTX)
        assert out.shape == (7, D)

    def test_embedding_is_positionwise(self):
        enc = self._enc()
        a = ad.add(enc.embed(np.array([3, 5, 7])), Tensor(backbone.sinusoidal_table(3, D)))
        b = ad.add(enc.embed(np.array([9, 5, 1])), Tensor(backbone.sinusoidal_table(3, D)))
        np.testing.assert_array_equal(a.data[1], b.data[1])

    def test_eval_mode_deterministic(self):
        enc = self._enc(seed=1)
        ids = np.array([1, 4, 2, 8])
        np.testing.assert_array_equal(enc(ids, CTX).data, enc(ids, CTX).data)

    def test_out_of_vocab_rejected(self):
        with pytest.raises(InputError):
            self._enc(vocab=5)(np.array([0, 5]), CTX)

    def test_all_masked_rejected(self):
        with pytest.raises(InputError):
            self._enc()(np.array([1, 2]), CTX, mask=np.array([False, False]))

    def test_padded_positions_do_not_change_valid_outputs(self):
        enc = self._enc(seed=2)
        ids = np.array([1, 2, 3, 4, 5])
        base = enc(ids, CTX).data
        padded_ids = np.concatenate([ids, [7, 9, 7]])
        mask = np.array([True] * 5 + [False] * 3)
        padded = enc(padded_ids, CTX, mask=mask).data
        np.testing.assert_allclose(padded[:5], base, atol=1e-5)
        # and masked rows are zero after the final block
        np.testing.assert_array_equal(padded[5:], 0.0)

    def test_masked_content_is_ignored(self):
        enc = self._enc(seed=3)
        mask = np.array([True, True, True, False, False])
        a = enc(np.array([1, 2, 3, 4, 5]), CTX, mask=mask).data
        b = enc(np.array([1, 2, 3, 9, 10]), CTX, mask=mask).data
        np.testing.assert_allclose(a[:3], b[:3], atol=1e-5)


class TestFFTBlock:
    def test_all_masked_input_gives_zeros(self):
        block = backbone.FFTBlock(rng_for(4, "blk"), D, heads=2)
        h = Tensor(np.random.default_rng(0).standard_normal((4, D)).astype(np.float32))
        out = block(h, np.zeros(4, dtype=bool), CTX)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_shape_preserved(self):
        block = backbone.FFTBlock(rng_for(5, "blk"), D, heads=2)
        h = Tensor(np.random.default_rng(1).standard_normal((9, D)).astype(np.float32))
        assert block(h, np.ones(9, dtype=bool), CTX).shape == (9, D)

    def test_gradient_check(self):
        block = _f64(backbone.FFTBlock(rng_for(6, "blk"), D, heads=2, p_dropout=0.0))
        block.set_trainable(True)
        h = Tensor(np.random.default_rng(2).standard_normal((5, D)), requires_grad=True)
        target = ad.constant(np.random.default_rng(3).standard_normal((5, D)), dtype=np.float64)
        mask = np.ones(5, dtype=bool)

        def fn(x):
            return ad.mse_loss(block(x, mask, CTX), target)

        report = ad.grad_check(fn, [h])
        assert report.passed, repr(report)

    def test_gradient_check_with_padded_keys(self):
        # the mask path: padded keys are biased out of the fused attention
        # and padded rows are zeroed after each sub-stack
        block = _f64(backbone.FFTBlock(rng_for(9, "blk"), D, heads=2, p_dropout=0.0))
        block.set_trainable(True)
        h = Tensor(np.random.default_rng(5).standard_normal((6, D)), requires_grad=True)
        target = ad.constant(np.random.default_rng(6).standard_normal((6, D)), dtype=np.float64)
        mask = np.array([True, True, True, True, False, False])
        attn = block.attn
        params = [attn.wq.w, attn.wk.w, attn.wv.b]

        def fn(x, *_):
            return ad.mse_loss(block(x, mask, CTX), target)

        report = ad.grad_check(fn, [h] + params)
        assert report.passed, repr(report)
        # padded input rows cannot influence the loss
        np.testing.assert_array_equal(h.grad[4:], 0.0)

    def test_dropout_in_training_replays_from_seed(self):
        block = backbone.FFTBlock(rng_for(10, "blk"), D, heads=2, p_dropout=0.2)
        h = Tensor(np.random.default_rng(7).standard_normal((5, D)).astype(np.float32))
        mask = np.ones(5, dtype=bool)

        def run():
            return block(h, mask, RunCtx(rng_for(3, "dropout"), training=True)).data

        first = run()
        np.testing.assert_array_equal(first, run())
        assert np.abs(first - block(h, mask, CTX).data).max() > 1e-4

    def test_adapter_hook_applies_before_final_norm(self):
        block = backbone.FFTBlock(rng_for(7, "blk"), D, heads=2, p_dropout=0.0)
        h = Tensor(np.random.default_rng(4).standard_normal((4, D)).astype(np.float32))
        mask = np.ones(4, dtype=bool)
        plain = block(h, mask, CTX).data
        hooked = block(h, mask, CTX, adapter=lambda t: t).data
        np.testing.assert_array_equal(plain, hooked)
        # uniform shifts would be erased by the closing layer norm, so perturb
        # channels unevenly to observe the hook
        probe = Tensor(np.arange(D, dtype=np.float32))
        shifted = block(h, mask, CTX, adapter=lambda t: ad.add(t, probe)).data
        assert np.abs(shifted - plain).max() > 1e-3

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            backbone.FFTBlock(rng_for(8, "blk"), D, heads=3)


class TestDecoder:
    def test_output_shape(self):
        dec = backbone.Decoder(rng_for(9, "dec"), D, n_mels=12, n_layers=6)
        assert len(dec.blocks) == 6
        h = Tensor(np.random.default_rng(5).standard_normal((20, D)).astype(np.float32))
        assert dec(h, CTX).shape == (20, 12)

    def test_zero_length_rejected(self):
        dec = backbone.Decoder(rng_for(10, "dec"), D, n_mels=4, n_layers=2)
        with pytest.raises(InputError):
            dec(Tensor(np.zeros((0, D), dtype=np.float32)), CTX)

    def test_gradient_check(self):
        dec = _f64(backbone.Decoder(rng_for(11, "dec"), D, n_mels=3, n_layers=2, p_dropout=0.0))
        dec.set_trainable(True)
        h = Tensor(np.random.default_rng(6).standard_normal((4, D)), requires_grad=True)
        target = ad.constant(np.random.default_rng(7).standard_normal((4, 3)), dtype=np.float64)
        report = ad.grad_check(lambda x: ad.mse_loss(dec(x, CTX), target), [h])
        assert report.passed, repr(report)


class TestPostnet:
    def test_identity_at_init(self):
        post = backbone.Postnet(rng_for(12, "post"), n_mels=10, channels=16)
        mel = Tensor(np.random.default_rng(8).standard_normal((15, 10)).astype(np.float32))
        out = post(mel, CTX)
        np.testing.assert_array_equal(out.data, mel.data)

    def test_shape_preserved_after_perturbation(self):
        post = backbone.Postnet(rng_for(13, "post"), n_mels=6, channels=8)
        post.convs[-1].w.data += 0.05
        mel = Tensor(np.random.default_rng(9).standard_normal((12, 6)).astype(np.float32))
        out = post(mel, CTX)
        assert out.shape == (12, 6)
        assert np.abs(out.data - mel.data).max() > 1e-6

    def test_gradient_check(self):
        post = _f64(backbone.Postnet(rng_for(14, "post"), n_mels=4, channels=6, p_dropout=0.0))
        post.set_trainable(True)
        post.convs[-1].w.data += 0.1  # move off the zero init so grads flow everywhere
        mel = Tensor(np.random.default_rng(10).standard_normal((7, 4)), requires_grad=True)
        target = ad.constant(np.random.default_rng(11).standard_normal((7, 4)), dtype=np.float64)
        report = ad.grad_check(lambda x: ad.mse_loss(post(x, CTX), target), [mel])
        assert report.passed, repr(report)

    def test_five_layers_default(self):
        post = backbone.Postnet(rng_for(15, "post"), n_mels=4, channels=6)
        assert len(post.convs) == 5
