"""Alignment: soft map contract, DP losses vs enumeration, Viterbi durations."""

import numpy as np
import pytest

from hyperadapt import alignment
from hyperadapt import autodiff as ad
from hyperadapt.autodiff import Tensor
from hyperadapt.errors import InfeasibleAlignmentError, InputError
from hyperadapt.gradcheck import THRESHOLD
from hyperadapt.layers import rng_for

from oracles import (best_path_durations, enumerate_paths_logsumexp, log_softmax, one,
                     random_grids, weighted_sum)


def amap_from_logits(logits):
    """A pack of one map, (1, n, m), from (n, m) logits."""
    logits = np.asarray(logits, dtype=np.float64)
    return whole_map(Tensor(log_softmax(logits[None], axis=1)))


def whole_map(log_probs):
    """An AlignmentMap whose maps each span the whole (n, m) grid."""
    b, n, m = log_probs.shape
    return alignment.AlignmentMap(log_probs, ad.Segments([n] * b), ad.Segments([m] * b))


def align_one(text, mel):
    """soft_align of a single utterance."""
    return alignment.soft_align(text, mel, one(text.shape[0]), one(mel.shape[0]))


class TestSoftAlign:
    def test_single_phoneme_takes_all_mass(self):
        rng = np.random.default_rng(0)
        text = Tensor(rng.standard_normal((1, 4)).astype(np.float32))
        mel = Tensor(rng.standard_normal((9, 4)).astype(np.float32))
        amap = align_one(text, mel)
        np.testing.assert_allclose(np.exp(amap.log_probs.data), 1.0, atol=1e-6)

    def test_identical_text_rows_give_uniform_columns(self):
        row = np.random.default_rng(1).standard_normal(5).astype(np.float32)
        text = Tensor(np.tile(row, (4, 1)))
        mel = Tensor(np.random.default_rng(2).standard_normal((7, 5)).astype(np.float32))
        amap = align_one(text, mel)
        np.testing.assert_allclose(np.exp(amap.log_probs.data), 0.25, atol=1e-5)

    def test_columns_normalize(self):
        rng = np.random.default_rng(3)
        text = Tensor(rng.standard_normal((6, 8)).astype(np.float32))
        mel = Tensor(rng.standard_normal((13, 8)).astype(np.float32))
        amap = align_one(text, mel)
        np.testing.assert_allclose(np.exp(amap.log_probs.data).sum(axis=1), 1.0, atol=1e-5)

    def test_matches_log_softmax_of_negative_squared_distances(self):
        rng = np.random.default_rng(4)
        text = rng.standard_normal((5, 6))
        mel = rng.standard_normal((10, 6))
        amap = align_one(Tensor(text), Tensor(mel))
        dist = ((text[:, None, :] - mel[None, :, :]) ** 2).sum(-1)
        expected = log_softmax(-dist, axis=0)
        np.testing.assert_allclose(amap.log_probs.data[0], expected, atol=1e-12)
        assert amap.log_probs.op == "soft_align"

    def test_gradient_against_fd(self):
        rng = np.random.default_rng(8)
        text = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        mel = Tensor(rng.standard_normal((7, 3)), requires_grad=True)
        weights = rng.standard_normal((1, 4, 7))

        def fn(t, m):
            return weighted_sum(align_one(t, m).log_probs, weights)

        report = ad.grad_check(fn, [text, mel], threshold=THRESHOLD)
        assert report.passed, repr(report)

    def test_pack_pads_each_map_with_minus_inf(self):
        # two utterances: 2 phonemes over 5 frames and 3 phonemes over 4
        rng = np.random.default_rng(9)
        text = rng.standard_normal((5, 3))
        mel = rng.standard_normal((9, 3))
        text_seg, mel_seg = ad.Segments([2, 3]), ad.Segments([5, 4])
        amap = alignment.soft_align(Tensor(text), Tensor(mel), text_seg, mel_seg)
        assert amap.log_probs.shape == (2, 3, 5)
        np.testing.assert_array_equal(amap.text_seg.lengths, [2, 3])
        np.testing.assert_array_equal(amap.mel_seg.lengths, [5, 4])
        for b, (t, m) in enumerate(((slice(0, 2), slice(0, 5)), (slice(2, 5), slice(5, 9)))):
            alone = align_one(Tensor(text[t]), Tensor(mel[m])).log_probs.data[0]
            n_b, m_b = alone.shape
            np.testing.assert_allclose(amap.log_probs.data[b, :n_b, :m_b], alone, atol=1e-12)
            padded = np.ones(amap.log_probs.shape[1:], dtype=bool)
            padded[:n_b, :m_b] = False
            assert (amap.log_probs.data[b][padded] == -np.inf).all()

    def test_pack_gradient_against_fd(self):
        rng = np.random.default_rng(10)
        text = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        mel = Tensor(rng.standard_normal((9, 3)), requires_grad=True)
        text_seg, mel_seg = ad.Segments([2, 3]), ad.Segments([5, 4])

        def fn(t, m):
            amap = alignment.soft_align(t, m, text_seg, mel_seg)
            durations = alignment.viterbi_durations(amap)
            return ad.add(alignment.forward_sum_loss(amap),
                          alignment.binarization_loss(amap, durations))

        report = ad.grad_check(fn, [text, mel], threshold=THRESHOLD)
        assert report.passed, repr(report)

    def test_empty_inputs_rejected(self):
        mel = Tensor(np.zeros((4, 3), dtype=np.float32))
        with pytest.raises(InputError):
            alignment.soft_align(Tensor(np.zeros((0, 3), dtype=np.float32)), mel, None, one(4))

    def test_mismatched_dims_rejected(self):
        with pytest.raises(InputError):
            align_one(Tensor(np.zeros((2, 3), dtype=np.float32)),
                      Tensor(np.zeros((4, 5), dtype=np.float32)))

    def test_gradients_flow_through_projection(self):
        enc = alignment.AlignmentEncoder(rng_for(0, "align"), d_text=4, d_mel=3, d_attn=5)
        for p in enc.parameters():
            p.data = p.data.astype(np.float64)
            p.requires_grad = True
        text = Tensor(np.random.default_rng(5).standard_normal((3, 4)), requires_grad=True)
        mel = Tensor(np.random.default_rng(6).standard_normal((6, 3)))

        def fn(t):
            amap = align_one(enc.project_text(t, one(3)), enc.project_mel(mel, one(6)))
            return alignment.forward_sum_loss(amap)

        report = ad.grad_check(fn, [text], threshold=THRESHOLD)
        assert report.passed, repr(report)


class TestForwardSumLoss:
    def test_single_phoneme_path(self):
        logits = np.random.default_rng(0).standard_normal((1, 6))
        amap = amap_from_logits(logits)
        loss = alignment.forward_sum_loss(amap)
        assert loss.item() == pytest.approx(-amap.log_probs.data.sum(), abs=1e-9)

    def test_two_by_two_forced_path(self):
        amap = amap_from_logits(np.random.default_rng(1).standard_normal((2, 2)))
        lp = amap.log_probs.data[0]
        loss = alignment.forward_sum_loss(amap)
        assert loss.item() == pytest.approx(-(lp[0, 0] + lp[1, 1]), abs=1e-9)

    def test_three_by_six_matches_enumeration(self):
        amap = amap_from_logits(np.random.default_rng(2).standard_normal((3, 6)))
        want, _ = enumerate_paths_logsumexp(amap.log_probs.data[0])
        assert alignment.forward_sum_loss(amap).item() == pytest.approx(want, abs=1e-6)

    def test_random_grids_match_enumeration(self):
        for logits in random_grids(60, seed=3):
            amap = amap_from_logits(logits)
            want, _ = enumerate_paths_logsumexp(amap.log_probs.data[0])
            assert alignment.forward_sum_loss(amap).item() == pytest.approx(want, abs=1e-6)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleAlignmentError):
            alignment.forward_sum_loss(amap_from_logits(np.zeros((4, 3))))

    def test_gradient_against_fd(self):
        logits = np.random.default_rng(4).standard_normal((1, 3, 7))
        logp = Tensor(log_softmax(logits, axis=1), requires_grad=True)

        def fn(x):
            return alignment.forward_sum_loss(whole_map(x))

        report = ad.grad_check(fn, [logp], threshold=THRESHOLD)
        assert report.passed, repr(report)


class TestViterbiDurations:
    def test_single_phoneme(self):
        amap = amap_from_logits(np.zeros((1, 5)))
        np.testing.assert_array_equal(alignment.viterbi_durations(amap), [5])

    def test_diagonal_map(self):
        logits = np.array([[4.0, 4.0, -4.0, -4.0], [-4.0, -4.0, 4.0, 4.0]])
        amap = amap_from_logits(logits)
        np.testing.assert_array_equal(alignment.viterbi_durations(amap), [2, 2])

    def test_random_grids_match_exhaustive_search(self):
        for logits in random_grids(200, seed=5):
            amap = amap_from_logits(logits)
            durs = alignment.viterbi_durations(amap)
            np.testing.assert_array_equal(durs, best_path_durations(amap.log_probs.data[0]))
            assert durs.sum() == amap.log_probs.shape[2]
            assert durs.min() >= 1

    def test_records_monotonic_hard_path(self):
        amap = amap_from_logits(np.random.default_rng(6).standard_normal((4, 9)))
        path = np.repeat(np.arange(4), alignment.viterbi_durations(amap))
        assert path[0] == 0 and path[-1] == 3
        assert set(np.diff(path)) <= {0, 1}

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleAlignmentError):
            alignment.viterbi_durations(amap_from_logits(np.zeros((6, 2))))


class TestBinarizationLoss:
    def test_one_hot_soft_gives_zero(self):
        path = np.array([0, 0, 1, 2, 2])
        logits = np.full((3, 5), -1e9)
        logits[path, np.arange(5)] = 0.0
        amap = amap_from_logits(logits)
        durations = np.bincount(path)
        assert alignment.binarization_loss(amap, durations).item() == pytest.approx(0.0, abs=1e-9)

    def test_uniform_two_phonemes(self):
        m = 7
        amap = amap_from_logits(np.zeros((2, m)))
        loss = alignment.binarization_loss(amap, np.array([3, 4]))  # path 0 0 0 1 1 1 1
        assert loss.item() == pytest.approx(m * np.log(2.0), abs=1e-9)

    # maps of 2 phonemes over 4 frames; the last case covers the pack's 8
    # frames but gives its maps 3 and 5
    @pytest.mark.parametrize("maps, durations", [(1, [1, 2]), (1, [2, 3]), (1, [5, -1]), (1, [4]),
                                                 (1, [1, 1, 2]), (2, [1, 2, 3, 2])])
    def test_durations_not_covering_the_frames_rejected(self, maps, durations):
        amap = whole_map(Tensor(log_softmax(np.zeros((maps, 2, 4)), axis=1)))
        with pytest.raises(InputError, match="do not cover"):
            alignment.binarization_loss(amap, np.array(durations))
        with pytest.raises(InputError, match="do not cover"):
            alignment.hard_path_log_probs(amap, np.array(durations))

    def test_gradient_against_fd(self):
        durations = np.array([1, 2, 1])  # path 0 1 1 2
        logits = np.random.default_rng(7).standard_normal((1, 3, 4))
        logp = Tensor(log_softmax(logits, axis=1), requires_grad=True)

        def fn(x):
            return alignment.binarization_loss(whole_map(x), durations)

        report = ad.grad_check(fn, [logp], threshold=THRESHOLD)
        assert report.passed, repr(report)
