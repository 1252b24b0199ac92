"""Counts of the fixed per-pass work at desk size, pinned so they can only
fall: tape nodes per synthesis and per training half-pack, and conv
backward kernel calls with the weight gradients they form.

The desk model, dims and schedule shape come from configs/desk.json. A
half-pack is the 4 utterances one process of a batch-8 step runs.
"""

import os

import numpy as np
import pytest

from hyperadapt import autodiff as ad
from hyperadapt import cli, kernels, training
from hyperadapt.adaptation import AdaptedModel, StrategyConfig
from hyperadapt.layers import rng_for
from hyperadapt.model import ModelConfig, TTSModel

from oracles import utterance

DESK = cli.load_config(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "configs", "desk.json"))
MODEL = ModelConfig(**DESK["model"])


def _utterances(n, seed):
    rng = np.random.default_rng(seed)
    utts = []
    for b in range(n):
        phonemes = rng.integers(0, MODEL.vocab_size, size=8 + b)
        frames = 4 * phonemes.size
        f0 = rng.uniform(100.0, 300.0, frames)
        f0[rng.random(frames) < 0.2] = 0.0
        f0[0] = 150.0
        utts.append(utterance(phonemes, rng.normal(size=(frames, MODEL.n_mels)), f0,
                              rng.uniform(0.2, 1.5, frames), rng.normal(size=MODEL.d_spk),
                              utt_id=f"u{b}"))
    return utts


@pytest.fixture
def counted(monkeypatch):
    """counts: tape nodes recorded, and need_w of each conv backward call."""
    counts = {"nodes": 0, "need_w": []}
    real_from_op, real_conv = ad.from_op, kernels.conv1d_backward

    def from_op(*args):
        counts["nodes"] += 1
        return real_from_op(*args)

    def conv_backward(xp, w, gout, need_w=True):
        counts["need_w"].append(need_w)
        return real_conv(xp, w, gout, need_w=need_w)

    monkeypatch.setattr(ad, "from_op", from_op)
    monkeypatch.setattr(kernels, "conv1d_backward", conv_backward)
    return counts


def _model(utts, label):
    model = TTSModel(MODEL, seed=1)
    model.set_ranges(*training.compute_feature_ranges(utts))
    strategy = StrategyConfig.parse(label, cli._with_model_sizes(DESK, "dims"))
    return model, AdaptedModel(model, strategy, seed=5)


def _half(model, adapted, utts, counted):
    """Count one training half-pack: the pass and its backward."""
    hooks_fn = alignments = None
    if adapted.strategy.sites:  # a frozen aligner: training passes its cached alignments
        def hooks_fn(pack):
            return adapted.hooks_for(pack.embedding)

        alignments = training.frozen_alignments(model, utts, len(utts))
    rngs = [rng_for(3, "dropout", 5, b) for b in range(len(utts))]
    counted["nodes"] = 0
    total, _ = training.compute_losses(model, utts, 5, training.adaptation_schedule(steps=10),
                                       rngs, hooks_fn=hooks_fn, alignments=alignments)
    ad.backward(total)


def test_desk_hyper_synthesis_records_33_nodes(counted):
    utts = _utterances(1, 7)
    model, adapted = _model(utts, "hyper_evd")
    counted["nodes"] = 0
    spk = utts[0].embedding
    model.synthesize(utts[0].phonemes, spk, hooks=adapted.hooks_for(spk))
    assert counted["nodes"] == 33


def test_desk_pretraining_half_records_55_nodes_and_21_weight_convs(counted):
    # every conv of the model (21) forms its weight gradient
    utts = _utterances(4, 8)
    model, adapted = _model(utts, "ft")
    _half(model, adapted, utts, counted)
    assert counted["nodes"] == 55
    assert counted["need_w"] == [True] * 21


def test_desk_hyper_half_records_48_nodes_and_no_weight_conv(counted):
    # the frozen aligner does not run, the first encoder block's convs see a
    # constant input and run no backward, and the other 15 convs form only
    # input gradients
    utts = _utterances(4, 9)
    model, adapted = _model(utts, "hyper_evd")
    _half(model, adapted, utts, counted)
    assert counted["nodes"] == 48
    assert counted["need_w"] == [False] * 15
