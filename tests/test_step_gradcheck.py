"""One whole training step against central finite differences, in float64.

`training.compute_losses` runs a tiny model over a pack of three utterances
of different lengths, with every loss term on and the dropout streams held
fixed, for `ft`, `adapter_evd` and `hyper_evd`. Seeded entries of every
trainable tensor, plus each tensor's largest-gradient entry, are perturbed;
the analytic gradient of the step's total must match. This reaches every
module node's backward the way training does, frozen pruning included.
"""

import numpy as np
import pytest

from hyperadapt import autodiff as ad
from hyperadapt import training
from hyperadapt.adaptation import AdaptedModel, AdapterDims, StrategyConfig
from hyperadapt.gradcheck import THRESHOLD
from hyperadapt.layers import rng_for
from hyperadapt.model import ModelConfig, TTSModel

from oracles import off_identity, utterance

CFG = ModelConfig(vocab_size=10, n_mels=5, d_h=8, heads=2, enc_layers=2, dec_layers=2,
                  d_spk=6, d_attn=4, postnet_channels=4, postnet_layers=3)
DIMS = AdapterDims(d_h=CFG.d_h, d_r=2, d_1=CFG.d_spk, d_2=3, d_l=3, d_s=2)
EPS = 1e-6
PICKS = 2  # seeded entries per tensor, besides its largest-gradient one


def _utterances():
    rng = np.random.default_rng(11)
    utts = []
    for b, (n, frames) in enumerate(((4, 9), (2, 5), (6, 13))):
        f0 = rng.uniform(100.0, 300.0, frames)
        f0[rng.random(frames) < 0.2] = 0.0
        f0[0] = 150.0
        utts.append(utterance(rng.integers(0, CFG.vocab_size, size=n),
                              rng.normal(size=(frames, CFG.n_mels)), f0,
                              rng.uniform(0.2, 1.5, frames), rng.normal(size=CFG.d_spk),
                              utt_id=f"u{b}"))
    return utts


@pytest.mark.parametrize("label", ["ft", "adapter_evd", "hyper_evd"])
def test_whole_step_gradient_matches_finite_differences(monkeypatch, label):
    monkeypatch.setattr(ad, "DEFAULT_DTYPE", np.float64)
    model = TTSModel(CFG, seed=4)
    utts = _utterances()
    model.set_ranges(*training.compute_feature_ranges(utts))
    # off the zero init, so the Postnet passes gradient to all its convs
    last = model.postnet.convs[-1].w
    last.data += rng_for(4, "step-gc", "postnet").normal(size=last.shape) * 0.1
    adapted = off_identity(AdaptedModel(model, StrategyConfig.parse(label, DIMS), seed=5))
    for _, p in adapted.extras.named_parameters():
        assert p.data.dtype == np.float64
    trainable = adapted.named_trainable()
    sched = training.adaptation_schedule(steps=10)
    hooks_fn = None if label == "ft" else (lambda pack: adapted.hooks_for(pack.embedding))
    alignments = None if label == "ft" else training.frozen_alignments(model, utts, len(utts))

    def total():
        rngs = [rng_for(9, "dropout", 5, b) for b in range(len(utts))]  # the same streams each time
        value, _ = training.compute_losses(model, utts, 5, sched, rngs, hooks_fn=hooks_fn,
                                           alignments=alignments)
        return value

    assert all(w == 1.0 for w in training.loss_weights(sched, 5).values())
    for _, p in trainable:
        p.grad = None
    ad.backward(total())
    pick = np.random.default_rng(12)
    worst = (0.0, None)
    for name, p in trainable:
        assert p.grad is not None, name
        flat, analytic = p.data.reshape(-1), p.grad.reshape(-1)
        entries = set(pick.choice(flat.size, size=min(PICKS, flat.size), replace=False).tolist())
        entries.add(int(np.abs(analytic).argmax()))
        for j in sorted(entries):
            orig = flat[j]
            flat[j] = orig + EPS
            plus = total().item()
            flat[j] = orig - EPS
            minus = total().item()
            flat[j] = orig
            fd = (plus - minus) / (2 * EPS)
            rel = abs(analytic[j] - fd) / max(abs(analytic[j]), abs(fd), ad.GRAD_CHECK_FLOOR)
            if rel > worst[0]:
                worst = (rel, f"{name}[{j}]: analytic {analytic[j]:.6e}, fd {fd:.6e}")
    assert worst[0] < THRESHOLD, worst[1]
