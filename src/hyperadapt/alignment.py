"""Unsupervised phoneme-to-frame alignment.

Affinities come from negative squared distances between conv-projected
phoneme and mel features; a per-frame softmax over phonemes gives the soft
alignment. Training drives the marginal likelihood of all monotonic paths
(forward-sum DP) plus a binarization term tying the soft distribution to the
extracted Viterbi path; the schedule ramps the binarization term in after
the variance losses switch on.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import featio, kernels
from .autodiff import Tensor
from .errors import InfeasibleAlignmentError, InputError, StateError
from .layers import Conv1d, Module


@dataclass
class AlignmentMap:
    log_probs: Tensor  # (n phonemes, m frames), columns are log distributions
    hard_path: Optional[np.ndarray] = None  # per-frame phoneme index


class AlignmentEncoder(Module):
    """Projects phoneme embeddings and mel frames into a shared space."""

    def __init__(self, rng, d_text, d_mel, d_attn):
        self.text_conv1 = Conv1d(rng, d_text, d_attn, 3)
        self.text_conv2 = Conv1d(rng, d_attn, d_attn, 1)
        self.mel_conv1 = Conv1d(rng, d_mel, d_attn, 3)
        self.mel_conv2 = Conv1d(rng, d_attn, d_attn, 1)

    def project_text(self, h):
        return self.text_conv2(ad.relu(self.text_conv1(h)))

    def project_mel(self, mel):
        return self.mel_conv2(ad.relu(self.mel_conv1(mel)))


def soft_align(text_feats, mel_feats):
    """Per-frame log distribution over phonemes from pairwise affinities.

    Both inputs must already live in the shared attention space. The
    affinity -|t_i - m_j|^2 and its log-softmax over phonemes are one node.
    The frame norm |m_j|^2 is constant down each column, which the
    log-softmax cancels, so it is never formed and gets no gradient.
    """
    n, k = text_feats.shape
    m, k2 = mel_feats.shape
    if n == 0 or m == 0:
        raise InputError(f"soft_align: empty input ({n} phonemes, {m} frames)")
    if k != k2:
        raise InputError(f"soft_align: feature dims differ ({k} vs {k2})")
    if text_feats.dtype != mel_feats.dtype:
        raise InputError(f"soft_align: mixed dtypes {text_feats.dtype} and {mel_feats.dtype}")
    t, mf = text_feats.data, mel_feats.data
    affinity = 2.0 * (t @ mf.T) - (t * t).sum(axis=1, keepdims=True)  # (n, m)
    affinity -= affinity.max(axis=0, keepdims=True)
    log_probs = affinity - np.log(np.exp(affinity).sum(axis=0, keepdims=True))

    def grad_fn(g):
        ga = g - np.exp(log_probs) * g.sum(axis=0, keepdims=True)
        gt = 2.0 * (ga @ mf) - 2.0 * t * ga.sum(axis=1, keepdims=True)
        return gt, 2.0 * (ga.T @ t)

    node = ad.from_op(log_probs, (text_feats, mel_feats), grad_fn, "soft_align")
    return AlignmentMap(node)


def _require_feasible(shape, where):
    n, m = shape
    if m < n:
        raise InfeasibleAlignmentError(
            f"{where}: {m} frames cannot cover {n} phonemes monotonically"
        )


def forward_sum_loss(amap):
    """Negative log marginal probability of all monotonic complete paths."""
    logp = amap.log_probs
    _require_feasible(logp.shape, "forward_sum_loss")
    loss, grad = kernels.forward_sum(logp.data.astype(np.float64))
    grad = grad.astype(logp.data.dtype)

    def grad_fn(g):
        return (g * grad,)

    return ad.from_op(np.asarray(loss, dtype=logp.data.dtype), (logp,), grad_fn, "forward_sum")


def viterbi_durations(amap):
    """Best-path durations; also records the hard path on the map."""
    logp = amap.log_probs
    _require_feasible(logp.shape, "viterbi_durations")
    durations = kernels.viterbi(logp.data.astype(np.float64))
    amap.hard_path = np.repeat(np.arange(logp.shape[0]), durations)
    return durations


def binarization_loss(amap):
    """Cross-entropy of the soft alignment against the extracted hard path."""
    if amap.hard_path is None:
        raise StateError("binarization_loss: extract a hard path first")
    logp = amap.log_probs
    path = np.asarray(amap.hard_path)
    m = logp.shape[1]
    if path.shape != (m,):
        raise InputError(f"binarization_loss: path length {path.shape} vs {m} frames")
    cols = np.arange(m)
    value = -logp.data[path, cols].sum()

    def grad_fn(g):
        gl = np.zeros_like(logp.data)
        gl[path, cols] = -g
        return (gl,)

    return ad.from_op(np.asarray(value, dtype=logp.data.dtype), (logp,), grad_fn, "binarization")


def dump_alignment(amap, logits_path, path_path=None):
    """Debug artifact: soft map (and hard path when present) as feature files."""
    featio.write_array(logits_path, amap.log_probs.data.astype(np.float32))
    if path_path is not None:
        if amap.hard_path is None:
            raise StateError("dump_alignment: no hard path to dump")
        featio.write_array(path_path, amap.hard_path.astype(np.int64))
