"""Variance modeling: contour normalization, wavelet roundtrip, length
regulation, the variance-bin quantizer, and the three predictors."""

import numpy as np
import pytest

from hyperadapt import autodiff as ad
from hyperadapt import variance
from hyperadapt.autodiff import Tensor
from hyperadapt.errors import InputError, NumericsError, StateError
from hyperadapt.gradcheck import THRESHOLD
from hyperadapt.layers import rng_for

from oracles import cwt_reference, one


def band_limited_contour(rng, length):
    x = np.zeros(length)
    for _ in range(int(rng.integers(2, 6))):
        period = rng.uniform(16, min(200, length))
        x += rng.uniform(0.3, 1.0) * np.sin(2 * np.pi * np.arange(length) / period + rng.uniform(0, 2 * np.pi))
    return x


class TestNormalizeF0:
    def test_constant_contour_normalizes_to_zeros(self):
        out, mean, std = variance.normalize_f0(np.full(50, 200.0))
        np.testing.assert_allclose(out, 0.0, atol=1e-9)
        assert mean == pytest.approx(np.log(200.0), abs=1e-9)
        assert std == pytest.approx(0.0, abs=1e-12)

    def test_gap_interpolates_linearly(self):
        out, mean, std = variance.normalize_f0(np.array([200.0, 0.0, 400.0]))
        filled = out * max(std, 1e-8) + mean
        assert filled[1] == pytest.approx(np.log(300.0), abs=1e-9)

    def test_edge_gaps_hold_nearest_value(self):
        contour = np.array([0.0, 0.0, 150.0, 180.0, 0.0])
        filled = variance.interpolated_log_f0(contour)
        assert filled[0] == pytest.approx(np.log(150.0), abs=1e-9)
        assert filled[-1] == pytest.approx(np.log(180.0), abs=1e-9)

    def test_output_statistics(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            contour = np.exp(rng.normal(np.log(180), 0.25, size=120))
            out, _, _ = variance.normalize_f0(contour)
            assert abs(out.mean()) < 1e-6
            assert abs(out.var() - 1.0) < 1e-4

    def test_fully_unvoiced_rejected(self):
        with pytest.raises(InputError):
            variance.normalize_f0(np.zeros(30))


class TestWaveletBank:
    def test_zero_contour_gives_zero_spectrogram(self):
        spec = variance.cwt_decompose(np.zeros(80))
        assert spec.shape == (variance.N_SCALES, 80)
        np.testing.assert_array_equal(spec, 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = band_limited_contour(rng, 150)
        y = band_limited_contour(rng, 150)
        lhs = variance.cwt_decompose(2.5 * x - 0.7 * y)
        rhs = 2.5 * variance.cwt_decompose(x) - 0.7 * variance.cwt_decompose(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)

    def test_scaling_by_two(self):
        x = band_limited_contour(np.random.default_rng(2), 100)
        np.testing.assert_allclose(
            variance.cwt_decompose(2.0 * x), 2.0 * variance.cwt_decompose(x), atol=1e-9
        )

    def test_roundtrip_correlation_on_fifty_contours(self):
        rng = np.random.default_rng(3)
        worst = 1.0
        for _ in range(50):
            length = int(rng.integers(100, 401))
            raw = band_limited_contour(rng, length)
            contour = (raw - raw.mean()) / max(raw.std(), 1e-8)
            spec = variance.cwt_decompose(contour)
            back = variance.icwt_reconstruct(spec, mean=0.0, variance=1.0)
            recon = np.log(back)
            corr = np.corrcoef(contour, recon)[0, 1]
            worst = min(worst, corr)
        assert worst > 0.95, f"worst roundtrip correlation {worst}"

    def test_zero_spectrogram_reconstructs_constant(self):
        out = variance.icwt_reconstruct(np.zeros((variance.N_SCALES, 40)), np.log(200.0), 0.0)
        assert out.shape == (40,)
        np.testing.assert_allclose(out, 200.0, rtol=1e-9)

    def test_negative_variance_rejected(self):
        with pytest.raises(InputError):
            variance.icwt_reconstruct(np.zeros((variance.N_SCALES, 10)), 0.0, -0.1)

    def test_too_short_contour_rejected(self):
        with pytest.raises(InputError):
            variance.cwt_decompose(np.array([1.0]))

    def test_folded_bank_matches_direct_convolution_at_every_length(self):
        # lengths 2..300 cover every case from "the widest wavelet wraps the
        # period hundreds of times" to "only the narrow ones wrap at all"
        rng = np.random.default_rng(7)
        for m in range(2, 301):
            x = band_limited_contour(rng, m) if m >= 16 and m % 2 else rng.standard_normal(m)
            np.testing.assert_allclose(variance.cwt_decompose(x), cwt_reference(x),
                                       rtol=0, atol=1e-12, err_msg=f"length {m}")


class TestLengthRegulate:
    def test_two_three_expansion(self):
        h = Tensor(np.array([[1.0, 10.0], [2.0, 20.0]], dtype=np.float32))
        out = variance.length_regulate(h, np.array([2, 3]))
        want = np.array([[1, 10], [1, 10], [2, 20], [2, 20], [2, 20]], dtype=np.float32)
        np.testing.assert_array_equal(out.data, want)

    def test_all_ones_is_identity(self):
        h = Tensor(np.random.default_rng(0).standard_normal((6, 4)).astype(np.float32))
        out = variance.length_regulate(h, np.ones(6, dtype=np.int64))
        np.testing.assert_array_equal(out.data, h.data)

    def test_output_length_equals_duration_sum(self):
        rng = np.random.default_rng(1)
        d = rng.integers(0, 6, size=12)
        if d.sum() == 0:
            d[0] = 1
        h = Tensor(rng.standard_normal((12, 3)).astype(np.float32))
        assert variance.length_regulate(h, d).shape == (int(d.sum()), 3)

    def test_all_zero_durations_rejected(self):
        with pytest.raises(InputError):
            variance.length_regulate(Tensor(np.ones((3, 2))), np.zeros(3, dtype=np.int64))

    def test_non_integer_durations_rejected(self):
        with pytest.raises(InputError):
            variance.length_regulate(Tensor(np.ones((2, 2))), np.array([1.5, 2.0]))

    def test_gradient(self):
        rng = np.random.default_rng(2)
        h = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        d = np.array([2, 0, 1, 3])
        target = Tensor(rng.standard_normal((6, 3)))
        report = ad.grad_check(
            lambda x: ad.mse_loss(variance.length_regulate(x, d), target, one(6)), [h],
            threshold=THRESHOLD)
        assert report.passed, repr(report)


class TestDurationRounding:
    def test_zero_log_duration_is_one_frame(self):
        assert variance.durations_from_log(np.array([0.0]))[0] == 1

    def test_log_four_point_four(self):
        assert variance.durations_from_log(np.array([np.log(4.4)]))[0] == 4

    def test_never_below_one(self):
        out = variance.durations_from_log(np.array([-3.0, -10.0, 0.2]))
        assert out.min() >= 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e3, 15.0, np.log(1000.6)])
    def test_unrepresentable_duration_is_a_numerics_fault(self, bad):
        # NaN, inf, an exp past the int64 range, and any count above the cap
        # (15 asks for about 3.3 million frames) have no usable frame count
        with pytest.raises(NumericsError):
            variance.durations_from_log(np.array([0.0, bad]))

    def test_cap_itself_is_accepted(self):
        cap = variance.MAX_FRAMES_PER_PHONEME
        assert variance.durations_from_log(np.array([np.log(cap)]))[0] == cap


class TestQuantize:
    def test_endpoints(self):
        assert variance.quantize(0.0, 0.0, 1.0) == 0
        assert variance.quantize(1.0, 0.0, 1.0) == 255

    def test_midpoint_example(self):
        assert variance.quantize(128.5, 0.0, 256.0) == 128

    def test_out_of_range_clamps(self):
        assert variance.quantize(-5.0, 0.0, 1.0) == 0
        assert variance.quantize(7.0, 0.0, 1.0) == 255

    def test_roundtrip_within_bin_width(self):
        rng = np.random.default_rng(0)
        vmin, vmax = -2.0, 5.0
        width = (vmax - vmin) / 256
        vals = rng.uniform(vmin, vmax, size=200)
        centres = vmin + (variance.quantize(vals, vmin, vmax) + 0.5) * width
        assert np.abs(centres - vals).max() <= width / 2 + 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            variance.quantize(np.nan, 0.0, 1.0)

    def test_empty_range_rejected(self):
        with pytest.raises(InputError):
            variance.quantize(0.5, 1.0, 1.0)


class TestPredictors:
    D = 8

    def test_duration_shape(self):
        va = variance.VarianceAdapter(rng_for(0, "va"), self.D, d_spk=6)
        h = Tensor(np.random.default_rng(0).standard_normal((7, self.D)).astype(np.float32))
        out = va.duration(h, one(7), ())
        assert out.shape == (7,)

    def test_pitch_shapes(self):
        va = variance.VarianceAdapter(rng_for(1, "va"), self.D, d_spk=6)
        h = Tensor(np.random.default_rng(0).standard_normal((9, self.D)).astype(np.float32))
        spec, mean, var = va.pitch(h, one(9), (), None)
        assert spec.shape == (9, variance.N_SCALES)
        assert mean.shape == (1,)
        assert var.shape == (1,)

    def test_pitch_statistics_pool_each_segment(self):
        va = variance.VarianceAdapter(rng_for(13, "va"), self.D, d_spk=6)
        h = np.random.default_rng(2).standard_normal((9, self.D)).astype(np.float32)
        spec, mean, var = va.pitch(Tensor(h), ad.Segments([4, 5]), (), None)
        assert spec.shape == (9, variance.N_SCALES) and mean.shape == var.shape == (2,)
        for b, rows in enumerate((slice(0, 4), slice(4, 9))):
            spec_b, mean_b, var_b = va.pitch(Tensor(h[rows]), one(h[rows].shape[0]), (), None)
            np.testing.assert_allclose(spec.data[rows], spec_b.data, atol=1e-5)
            np.testing.assert_allclose(mean.data[b], mean_b.data[0], atol=1e-5)
            np.testing.assert_allclose(var.data[b], var_b.data[0], atol=1e-5)

    def test_prediction_against_itself_has_zero_loss(self):
        va = variance.VarianceAdapter(rng_for(2, "va"), self.D, d_spk=6)
        h = Tensor(np.random.default_rng(1).standard_normal((5, self.D)).astype(np.float32))
        spec, _, _ = va.pitch(h, one(5), (), None)
        loss = ad.mse_loss(spec, Tensor(spec.data.copy()), one(5))
        assert loss.item() == 0.0

    def test_pitch_head_gradients(self):
        rng = rng_for(3, "va")
        pred = variance.PitchPredictor(rng, self.D)
        for p in pred.parameters():
            p.data = p.data.astype(np.float64)
            p.requires_grad = True
        h = Tensor(np.random.default_rng(4).standard_normal((6, self.D)), requires_grad=True)
        t_spec = Tensor(np.random.default_rng(5).standard_normal((6, variance.N_SCALES)))

        def fn(x):
            spec, mean, var = pred(x, one(6), (), None)
            return ad.add(ad.mse_loss(spec, t_spec, one(6)), ad.add(ad.sum_all(mean), ad.sum_all(var)))

        report = ad.grad_check(fn, [h], threshold=THRESHOLD)
        assert report.passed, repr(report)

    def test_energy_gradients(self):
        pred = variance.EnergyPredictor(rng_for(6, "va"), self.D)
        for p in pred.parameters():
            p.data = p.data.astype(np.float64)
            p.requires_grad = True
        h = Tensor(np.random.default_rng(7).standard_normal((5, self.D)), requires_grad=True)
        target = Tensor(np.random.default_rng(8).standard_normal(5))
        report = ad.grad_check(lambda x: ad.mse_loss(pred(x, one(5), (), None), target, one(5)), [h],
                               threshold=THRESHOLD)
        assert report.passed, repr(report)

    def test_embedding_tables_have_256_rows(self):
        va = variance.VarianceAdapter(rng_for(9, "va"), self.D, d_spk=6)
        assert va.pitch_embed.table.shape[0] == 256
        assert va.energy_embed.table.shape[0] == 256

    def test_energy_at_training_max_uses_last_row(self):
        va = variance.VarianceAdapter(rng_for(10, "va"), self.D, d_spk=6)
        va.set_ranges(pitch_range=(4.0, 6.0), energy_range=(0.0, 2.0))
        h = Tensor(np.zeros((3, self.D), dtype=np.float32))
        out = va.inject_energy(h, np.array([2.0, 0.0, 1.0]))
        np.testing.assert_allclose(out.data[0], va.energy_embed.table.data[255], atol=1e-7)
        np.testing.assert_allclose(out.data[1], va.energy_embed.table.data[0], atol=1e-7)

    def test_missing_range_is_state_error(self):
        va = variance.VarianceAdapter(rng_for(11, "va"), self.D, d_spk=6)
        h = Tensor(np.zeros((2, self.D), dtype=np.float32))
        with pytest.raises(StateError):
            va.inject_energy(h, np.array([0.5, 0.5]))
        with pytest.raises(StateError):
            va.inject_pitch(h, np.array([5.0, 5.0]))

    def test_condition_adds_projected_speaker(self):
        va = variance.VarianceAdapter(rng_for(12, "va"), self.D, d_spk=6)
        h = Tensor(np.zeros((4, self.D), dtype=np.float32))
        spk = Tensor(np.random.default_rng(0).standard_normal((1, 6)).astype(np.float32))
        out = va.condition(h, spk, one(4))
        rows = np.unique(out.data.round(6), axis=0)
        assert rows.shape[0] == 1

    def test_condition_gives_each_segment_its_own_speaker(self):
        va = variance.VarianceAdapter(rng_for(14, "va"), self.D, d_spk=6)
        h = Tensor(np.zeros((5, self.D), dtype=np.float32))
        spk = np.random.default_rng(1).standard_normal((2, 6)).astype(np.float32)
        out = va.condition(h, Tensor(spk), ad.Segments([2, 3])).data
        for rows, b in ((slice(0, 2), 0), (slice(2, 5), 1)):
            alone = va.condition(Tensor(np.zeros((1, self.D), dtype=np.float32)), Tensor(spk[b:b + 1]),
                                 one(1))
            np.testing.assert_allclose(out[rows], np.repeat(alone.data, rows.stop - rows.start, 0),
                                       atol=1e-6)
        with pytest.raises(InputError):
            va.condition(h, Tensor(spk), ad.Segments([5]))
