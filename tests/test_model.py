"""Full-model passes through TTSModel.forward: teacher-forced as training
runs it, free-running as synthesis runs it, and the two as one wiring."""

import os
import re

import numpy as np
import pytest

from hyperadapt import autodiff as ad
from hyperadapt import cli
from hyperadapt import metrics
from hyperadapt import variance as var_mod
from hyperadapt.adaptation import AdaptedModel, AdapterDims, StrategyConfig
from hyperadapt.autodiff import Segments
from hyperadapt.errors import ConfigError, InputError, NumericsError, StateError
from hyperadapt.layers import rng_for
from hyperadapt.model import ModelConfig, Pack, TTSModel

from oracles import off_identity, teacher_forced, utterance

CFG = ModelConfig(
    vocab_size=12, n_mels=16, d_h=32, heads=2, enc_layers=2, dec_layers=2,
    d_spk=24, d_attn=16, postnet_channels=24, postnet_layers=3,
)

DIMS = AdapterDims(d_h=CFG.d_h, d_r=4, d_1=CFG.d_spk, d_2=8, d_l=6, d_s=3)

RANGES = ((np.log(80.0), np.log(400.0)), (0.1, 2.0))

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_model(seed=3):
    m = TTSModel(CFG, seed=seed)
    m.set_ranges(*RANGES)
    return m


def sample_inputs(seed=5, n=6, frames_per=3, n_mels=CFG.n_mels):
    rng = np.random.default_rng(seed)
    phonemes = rng.integers(0, CFG.vocab_size, size=n)
    frames = n * frames_per
    mel = rng.normal(size=(frames, n_mels)).astype(np.float32)
    f0 = np.where(rng.random(frames) < 0.2, 0.0, rng.uniform(100.0, 300.0, frames))
    f0[:2] = 150.0  # guarantee voiced frames for interpolation
    energy = rng.uniform(0.2, 1.5, frames).astype(np.float32)
    spk = rng.normal(size=CFG.d_spk).astype(np.float32)
    spk /= np.linalg.norm(spk)
    return phonemes, mel, f0.astype(np.float32), energy, spk


def pack_of(*utterances):
    """A Pack from sample_inputs() tuples."""
    return Pack([utterance(*u, utt_id=f"u{i}") for i, u in enumerate(utterances)])


# -----------------------------------------------------------------------------
# teacher-forced pass (training)
# -----------------------------------------------------------------------------


def test_forward_train_shapes_and_duration_accounting():
    model = build_model()
    phonemes, mel, f0, energy, spk = sample_inputs()
    n, frames = len(phonemes), mel.shape[0]
    out, amap = teacher_forced(model, pack_of(sample_inputs()))

    assert out["mel_pre"].data.shape == (frames, CFG.n_mels)
    assert out["mel_post"].data.shape == (frames, CFG.n_mels)
    assert out["log_dur"].data.shape == (n,)
    assert out["energy"].data.shape == (frames,)
    assert amap.log_probs.data.shape == (1, n, frames)
    assert out["f0"] is None

    spec_t, _, _ = var_mod.pitch_targets(f0.astype(np.float64))
    assert out["pitch_spec"].data.shape == spec_t.T.shape
    assert out["pitch_mean"].data.shape == (1,)
    assert out["pitch_var"].data.shape == (1,)

    durations = out["durations"]
    assert durations.sum() == frames
    assert (durations >= 1).all()

    # columns of the soft alignment are log distributions over phonemes
    col_mass = np.exp(amap.log_probs.data).sum(axis=1)
    np.testing.assert_allclose(col_mass, 1.0, atol=1e-5)


def test_pack_matches_packs_of_one():
    # no dropout streams: a pack of three utterances of different lengths gives each
    # utterance the predictions it gets alone
    model = build_model()
    utts = [sample_inputs(seed=s, n=n, frames_per=f) for s, n, f in ((5, 6, 3), (6, 4, 5), (7, 9, 2))]
    packed, packed_amap = teacher_forced(model, pack_of(*utts))
    starts = {"p": 0, "f": 0}
    for b, utt in enumerate(utts):
        alone, alone_amap = teacher_forced(model, pack_of(utt))
        n, m = len(utt[0]), utt[1].shape[0]
        p, f = slice(starts["p"], starts["p"] + n), slice(starts["f"], starts["f"] + m)
        np.testing.assert_array_equal(packed["durations"][p], alone["durations"])
        for key, rows in (("log_dur", p), ("mel_pre", f), ("mel_post", f), ("pitch_spec", f),
                          ("energy", f)):
            np.testing.assert_allclose(packed[key].data[rows], alone[key].data, atol=2e-5,
                                       err_msg=key)
        for key in ("pitch_mean", "pitch_var"):
            np.testing.assert_allclose(packed[key].data[b], alone[key].data[0], atol=2e-5)
        np.testing.assert_allclose(packed_amap.log_probs.data[b, :n, :m],
                                   alone_amap.log_probs.data[0], atol=2e-5)
        starts["p"] += n
        starts["f"] += m


def test_pack_graph_size_does_not_grow_with_the_pack(monkeypatch):
    # one desk training pass (aligner and teacher-forced forward) records
    # the same tape nodes for 8 utterances as for one
    desk_cfg = ModelConfig(**cli.load_config(os.path.join(ROOT, "configs", "desk.json"))["model"])
    desk = TTSModel(desk_cfg, seed=1)
    desk.set_ranges(*RANGES)
    counts = []
    real = ad.from_op

    def counting(*args):
        counts[-1] += 1
        return real(*args)

    monkeypatch.setattr(ad, "from_op", counting)
    for size in (1, 8):
        counts.append(0)
        utts = [sample_inputs(seed=s, n=4 + s % 5, n_mels=desk_cfg.n_mels) for s in range(size)]
        rngs = [rng_for(0, "drop", s) for s in range(size)]
        teacher_forced(desk, pack_of(*utts), rngs)
    assert counts[0] == counts[1] == 38


def test_forward_train_deterministic_in_eval():
    a, _ = teacher_forced(build_model(), pack_of(sample_inputs()))
    b, _ = teacher_forced(build_model(), pack_of(sample_inputs()))
    np.testing.assert_array_equal(a["mel_post"].data, b["mel_post"].data)
    np.testing.assert_array_equal(a["durations"], b["durations"])


def test_dropout_seed_controls_training_pass():
    model = build_model()

    def run(stream):
        rngs = [rng_for(0, "drop", stream)]
        return teacher_forced(model, pack_of(sample_inputs()), rngs)[0]["mel_post"].data

    np.testing.assert_array_equal(run(0), run(0))
    assert np.abs(run(0) - run(1)).max() > 0


def test_forward_train_input_validation():
    model = build_model()
    phonemes, mel, f0, energy, spk = sample_inputs()
    with pytest.raises(InputError):
        pack_of((phonemes, mel[: len(phonemes) - 2], f0, energy, spk))
    with pytest.raises(InputError):
        teacher_forced(model, pack_of((phonemes, mel, f0, energy, spk[:-1])))
    with pytest.raises(InputError):
        pack_of((phonemes, mel, f0[:-1], energy, spk))
    with pytest.raises(InputError):
        pack_of((phonemes, mel, f0, energy, spk), (phonemes, mel, f0, energy, spk[:-1]))
    with pytest.raises(InputError):
        Pack([])


def test_ranges_must_be_set_before_training_pass():
    model = TTSModel(CFG, seed=3)  # no set_ranges
    with pytest.raises(StateError):
        teacher_forced(model, pack_of(sample_inputs()))


# -----------------------------------------------------------------------------
# free-running pass (synthesis)
# -----------------------------------------------------------------------------


def test_synthesize_output_contract():
    model = build_model()
    phonemes, _, _, _, spk = sample_inputs()
    mel, info = model.synthesize(phonemes, spk)

    frames = int(info["durations"].sum())
    assert mel.dtype == np.float32
    assert mel.shape == (frames, CFG.n_mels)
    assert np.isfinite(mel).all()
    assert (info["durations"] >= 1).all()
    assert info["f0"].shape == (frames,)
    assert np.isfinite(info["f0"]).all() and (info["f0"] > 0).all()
    assert info["energy"].shape == (frames,)


def test_synthesize_deterministic():
    phonemes, _, _, _, spk = sample_inputs()
    mel_a, info_a = build_model().synthesize(phonemes, spk)
    mel_b, info_b = build_model().synthesize(phonemes, spk)
    np.testing.assert_array_equal(mel_a, mel_b)
    np.testing.assert_array_equal(info_a["f0"], info_b["f0"])


def test_synthesize_records_no_tape(monkeypatch):
    # every node of a synthesis pass, adapters included, is a constant: no
    # parents, no closure, so nothing the forward pass saved outlives it
    model = build_model()
    adapted = AdaptedModel(model, StrategyConfig.parse("hyper_evd", DIMS), seed=5)
    phonemes, _, _, _, spk = sample_inputs()
    hooks = adapted.hooks_for(spk)
    nodes = []
    real = ad.from_op

    def recording(data, parents, grad_fn, op):
        nodes.append(real(data, parents, grad_fn, op))
        return nodes[-1]

    monkeypatch.setattr(ad, "from_op", recording)
    model.synthesize(phonemes, spk, hooks=hooks)
    # the adapter sites run inside the blocks' and trunks' nodes
    assert {"linear", "fft_block", "conv_stack", "postnet"} <= {n.op for n in nodes}
    assert all(n._parents == () and n._grad_fn is None for n in nodes)


def test_synthesize_rejects_an_oversized_duration_before_expanding(monkeypatch):
    # a log-duration of 15 asks for about 3.3 million frames per phoneme
    model = build_model()
    head = model.variance.duration.head
    head.w.data[:] = 0.0
    head.b.data[:] = 15.0

    def expand(*args):
        raise AssertionError("length_regulate ran on a rejected duration")

    monkeypatch.setattr(var_mod, "length_regulate", expand)
    phonemes, _, _, _, spk = sample_inputs()
    with pytest.raises(NumericsError, match="above 1000 frames"):
        model.synthesize(phonemes, spk)


@pytest.mark.parametrize("name, poison", [("energy", lambda m: m.variance.energy.head.b),
                                          ("mel", lambda m: m.postnet.convs[-1].b)],
                         ids=["energy", "mel"])
def test_evaluate_names_a_non_finite_prediction(name, poison):
    # a NaN energy is a numerical fault, not bad teacher input to the
    # quantizer, and a NaN mel is not a NaN score: either one names the
    # utterance and the prediction, with or without adapters
    model = build_model()
    adapted = AdaptedModel(model, StrategyConfig.parse("hyper_evd", DIMS), seed=5)
    poison(model).data[:] = np.nan
    utt = utterance(*sample_inputs(), utt_id="u7")
    for hooks_for in (adapted.hooks_for, lambda spk: None):
        def synth(u):
            return model.synthesize(u.phonemes, u.embedding, hooks=hooks_for(u.embedding))

        with pytest.raises(NumericsError, match=f"u7: synthesize: predicted {name} is non-finite"):
            metrics.evaluate(synth, [utt], lambda mel: mel.mean(axis=0))


def test_synthesize_rejects_wrong_speaker_dim():
    model = build_model()
    phonemes, _, _, _, spk = sample_inputs()
    with pytest.raises(InputError):
        model.synthesize(phonemes, np.concatenate([spk, spk]))
    with pytest.raises(InputError, match="condition: need one speaker row per segment"):
        model.synthesize(phonemes, np.stack([spk, spk]))


# -----------------------------------------------------------------------------
# one wiring
# -----------------------------------------------------------------------------


@pytest.mark.parametrize("adapted", [False, True], ids=["backbone", "hyper_evd"])
def test_teacher_forcing_its_own_predictions_gives_the_synthesized_mel(adapted):
    # training and synthesis run one wiring: the free pass's durations, f0
    # and energy, fed back as targets, give the synthesized mel bit for bit
    model = build_model()
    phonemes, _, _, _, spk = sample_inputs()
    ph = Segments([phonemes.size])
    hooks = None
    if adapted:
        strategy = StrategyConfig.parse("hyper_evd", DIMS)
        hooks = off_identity(AdaptedModel(model, strategy, seed=5)).hooks_for(spk)
    with ad.no_grad():
        free = model.forward(phonemes, ph, spk, (), hooks=hooks)
        forced = model.forward(phonemes, ph, spk, (), hooks=hooks, targets=(
            free["durations"], np.log(free["f0"]), free["energy"].data.astype(np.float64)))
    mel, info = model.synthesize(phonemes, spk, hooks=hooks)
    assert forced["f0"] is None
    np.testing.assert_array_equal(forced["mel_post"].data, mel)
    np.testing.assert_array_equal(free["durations"], info["durations"])


def test_free_pass_rebuilds_f0_per_utterance():
    # a free pass over a pack of two gives each utterance the durations and
    # f0 it gets synthesized alone
    model = build_model()
    inputs = [sample_inputs(seed=s, n=n) for s, n in ((5, 6), (6, 4))]
    phonemes = np.concatenate([u[0] for u in inputs])
    speakers = np.stack([u[4] for u in inputs])
    with ad.no_grad():
        out = model.forward(phonemes, Segments([len(u[0]) for u in inputs]), speakers, ())
    ph_start = fr_start = 0
    for u in inputs:
        _, info = model.synthesize(u[0], u[4])
        n, m = len(u[0]), int(info["durations"].sum())
        np.testing.assert_array_equal(out["durations"][ph_start : ph_start + n],
                                      info["durations"])
        np.testing.assert_allclose(out["f0"][fr_start : fr_start + m], info["f0"], rtol=1e-4)
        ph_start, fr_start = ph_start + n, fr_start + m
    assert fr_start == out["f0"].size == out["mel_post"].shape[0]


# -----------------------------------------------------------------------------
# config and state
# -----------------------------------------------------------------------------


def test_config_roundtrip():
    assert ModelConfig(**CFG.to_dict()) == CFG


@pytest.mark.parametrize("change, key", [
    ({"heads": 3}, "model.heads"),  # attention splits d_h=32 evenly across heads
    ({"postnet_layers": 1}, "model.postnet_layers"),  # an input and an output conv
])
def test_config_rejects_a_model_it_cannot_build(change, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        ModelConfig(**{**CFG.to_dict(), **change})


def test_site_counts_follow_layer_config():
    assert build_model().site_counts() == {"e": CFG.enc_layers, "v": 2, "d": CFG.dec_layers}


def test_state_load_rejects_a_tensor_the_model_lacks():
    # such as the attention key bias of a checkpoint from before it was dropped
    arrays = build_model(seed=3).state_arrays()
    arrays["encoder.blocks.0.attn.wk.b"] = np.zeros(CFG.d_h, dtype=np.float32)
    with pytest.raises(InputError, match=r"encoder\.blocks\.0\.attn\.wk\.b"):
        TTSModel(CFG, seed=99).load_state_arrays(arrays)


def test_state_roundtrip_is_bitwise():
    src = build_model(seed=3)
    dst = TTSModel(CFG, seed=99)
    dst.set_ranges(*RANGES)
    dst.load_state_arrays(src.state_arrays())
    for (name, p), (name2, q) in zip(src.named_parameters(), dst.named_parameters()):
        assert name == name2
        assert p.data.tobytes() == q.data.tobytes()

    phonemes, _, _, _, spk = sample_inputs()
    mel_a, _ = src.synthesize(phonemes, spk)
    mel_b, _ = dst.synthesize(phonemes, spk)
    np.testing.assert_array_equal(mel_a, mel_b)
