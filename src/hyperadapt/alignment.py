"""Unsupervised phoneme-to-frame alignment.

Affinities come from negative squared distances between conv-projected
phoneme and mel features; a per-frame softmax over phonemes gives the soft
alignment. A pack of utterances gets one padded (B, n, m) map tensor, map b
spanning utterance b's phonemes and frames as the pack's `Segments` count
them, and its DPs run as one batched kernel call. Training drives the
marginal likelihood of all monotonic paths (forward-sum DP) plus a
binarization term tying the soft distribution to the path the Viterbi
durations trace; the schedule ramps the binarization term in after the
variance losses switch on.

Each loss value is a sum over per-map (forward-sum) or per-frame
(binarization) numbers, exposed on their own so that a run with a frozen
aligner can keep them per utterance and rebuild a pack's values by the same
sums (see `training.compute_losses`).
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import Tensor
from .errors import InfeasibleAlignmentError, InputError
from .layers import Conv1d, Module


@dataclass
class AlignmentMap:
    """Soft alignments of a pack: log_probs is (B, n, m), map b spanning
    segment b of text_seg by segment b of mel_seg with -inf beyond; each
    valid column is a log distribution over phonemes."""

    log_probs: Tensor
    text_seg: ad.Segments
    mel_seg: ad.Segments

    def __post_init__(self):
        if self.log_probs.data.ndim != 3:
            raise InputError(f"alignment maps must be (B, n, m), got {self.log_probs.shape}")


class AlignmentEncoder(Module):
    """Projects phoneme embeddings and mel frames into a shared space."""

    def __init__(self, rng, d_text, d_mel, d_attn):
        self.text_conv1 = Conv1d(rng, d_text, d_attn, 3)
        self.text_conv2 = Conv1d(rng, d_attn, d_attn, 1)
        self.mel_conv1 = Conv1d(rng, d_mel, d_attn, 3)
        self.mel_conv2 = Conv1d(rng, d_attn, d_attn, 1)

    def project_text(self, h, seg):
        return self.text_conv2(ad.relu(self.text_conv1(h, seg)), seg)

    def project_mel(self, mel, seg):
        return self.mel_conv2(ad.relu(self.mel_conv1(mel, seg)), seg)


def soft_align(text_feats, mel_feats, text_seg, mel_seg):
    """Per-frame log distribution over phonemes from pairwise affinities.

    Both inputs must already live in the shared attention space, packed by
    utterance as text_seg and mel_seg lay them out. Map b pairs utterance
    b's phonemes with its frames only; the maps fill one (B, n_max, m_max)
    node, -inf past each map's counts. The affinity -|t_i - m_j|^2 and its
    log-softmax over phonemes are one node. The frame norm |m_j|^2 is
    constant down each column, which the log-softmax cancels, so it is never
    formed and gets no gradient.
    """
    n, k = text_feats.shape
    m, k2 = mel_feats.shape
    if n == 0 or m == 0:
        raise InputError(f"soft_align: empty input ({n} phonemes, {m} frames)")
    if k != k2:
        raise InputError(f"soft_align: feature dims differ ({k} vs {k2})")
    if text_feats.dtype != mel_feats.dtype:
        raise InputError(f"soft_align: mixed dtypes {text_feats.dtype} and {mel_feats.dtype}")
    text_bounds = ad._segments_of("soft_align", text_seg, n)
    mel_bounds = ad._segments_of("soft_align", mel_seg, m)
    if len(text_bounds) != len(mel_bounds):
        raise InputError(f"soft_align: {len(text_bounds)} phoneme segments, "
                         f"{len(mel_bounds)} frame segments")
    pairs = list(zip(text_bounds, mel_bounds))
    t, mf = text_feats.data, mel_feats.data
    log_probs = np.full((len(pairs), text_seg.lengths.max(), mel_seg.lengths.max()), -np.inf,
                        dtype=t.dtype)
    for b, ((ts, te), (ms, me)) in enumerate(pairs):
        tb = t[ts:te]
        affinity = 2.0 * (tb @ mf[ms:me].T) - (tb * tb).sum(axis=1, keepdims=True)  # (n_b, m_b)
        affinity -= affinity.max(axis=0, keepdims=True)
        norm = np.log(np.exp(affinity).sum(axis=0, keepdims=True))
        log_probs[b, : te - ts, : me - ms] = affinity - norm

    def grad_fn(g):
        gt, gm = np.empty_like(t), np.empty_like(mf)
        for b, ((ts, te), (ms, me)) in enumerate(pairs):
            lp, gb, tb = log_probs[b, : te - ts, : me - ms], g[b, : te - ts, : me - ms], t[ts:te]
            ga = gb - np.exp(lp) * gb.sum(axis=0, keepdims=True)
            gt[ts:te] = 2.0 * (ga @ mf[ms:me]) - 2.0 * tb * ga.sum(axis=1, keepdims=True)
            gm[ms:me] = 2.0 * (ga.T @ tb)
        return gt, gm

    node = ad.from_op(log_probs, (text_feats, mel_feats), grad_fn, "soft_align")
    return AlignmentMap(node, text_seg, mel_seg)


def _feasible_counts(amap, where):
    """The maps' (B,) phoneme and frame counts, once each map is feasible."""
    n_len, m_len = amap.text_seg.lengths, amap.mel_seg.lengths
    short = np.flatnonzero(m_len < n_len)
    if short.size:
        b = int(short[0])
        raise InfeasibleAlignmentError(
            f"{where}: {m_len[b]} frames cannot cover {n_len[b]} phonemes monotonically"
        )
    return n_len, m_len


def map_forward_sums(amap):
    """(B,) float64 negative log marginal probability of each map's monotonic
    complete paths, and its float64 gradient wrt the maps: one batched DP
    call."""
    n_len, m_len = _feasible_counts(amap, "forward_sum_loss")
    return kernels.forward_sum(amap.log_probs.data.astype(np.float64), n_len, m_len)


def forward_sum_value(losses, dtype):
    """The forward-sum loss of a pack from its maps' losses, in order."""
    return np.asarray(losses.sum(), dtype=dtype)


def forward_sum_loss(amap):
    """Negative log marginal probability of all monotonic complete paths,
    summed over the maps of a pack."""
    logp = amap.log_probs
    losses, grad = map_forward_sums(amap)
    grad = grad.astype(logp.data.dtype)

    def grad_fn(g):
        return (g * grad,)

    return ad.from_op(forward_sum_value(losses, logp.data.dtype), (logp,), grad_fn, "forward_sum")


def viterbi_durations(amap):
    """Best-path durations of every map, packed by utterance (one batched
    DP call)."""
    n_len, m_len = _feasible_counts(amap, "viterbi_durations")
    table = kernels.viterbi(amap.log_probs.data.astype(np.float64), n_len, m_len)
    return table[np.arange(table.shape[1]) < n_len[:, None]]


def _hard_path_cells(amap, durations):
    """(map, phoneme, frame) index arrays of every frame's cell on the path
    the packed per-phoneme `durations` trace, packed by utterance."""
    text_seg, mel_seg = amap.text_seg, amap.mel_seg
    durations = np.asarray(durations)
    if (durations.shape != (text_seg.total,) or (durations < 0).any()
            or (np.add.reduceat(durations, text_seg.starts) != mel_seg.lengths).any()):
        raise InputError(f"binarization_loss: durations {durations.tolist()} do not cover "
                         f"{mel_seg.lengths.tolist()} frames")
    return mel_seg.ids(), np.repeat(text_seg.positions(), durations), mel_seg.positions()


def hard_path_log_probs(amap, durations):
    """(frames,) log-probability of each frame's hard-path phoneme, packed."""
    return amap.log_probs.data[_hard_path_cells(amap, durations)]


def binarization_value(path_log_probs):
    """The binarization loss of a pack from its packed hard-path log-probs."""
    return np.asarray(-path_log_probs.sum(), dtype=path_log_probs.dtype)


def binarization_loss(amap, durations):
    """Cross-entropy of the soft alignment against the path the packed
    `durations` trace, summed over the maps of a pack."""
    logp = amap.log_probs
    cells = _hard_path_cells(amap, durations)

    def grad_fn(g):
        gl = np.zeros_like(logp.data)
        gl[cells] = -g
        return (gl,)

    return ad.from_op(binarization_value(logp.data[cells]), (logp,), grad_fn, "binarization")
