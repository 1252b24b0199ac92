"""Schedule, loss assembly, optimizer, and the two training loops."""

import dataclasses
import os
import re
import shutil

import numpy as np
import pytest

import hyperadapt.autodiff as ad
import hyperadapt.training as tr
from hyperadapt import cli, featio, kernels
from hyperadapt import model as model_mod
from hyperadapt import variance as var_mod
from hyperadapt.adaptation import AdaptedModel, AdapterDims, StrategyConfig
from hyperadapt.alignment import AlignmentMap, binarization_loss
from hyperadapt.autodiff import Tensor
from hyperadapt.corpus import CorpusSpec, Utterance, generate_corpus, load_corpus
from hyperadapt.errors import (
    ConfigError,
    InputError,
    InternalInvariantError,
    NumericsError,
    StateError,
)
from hyperadapt.layers import rng_for
from hyperadapt.model import ModelConfig, TTSModel
from hyperadapt.training import (
    LOSS_NAMES,
    Adam,
    LossBreakdown,
    ScheduleConfig,
    adaptation_schedule,
    compute_losses,
    loss_weights,
    lr_at,
)

from oracles import adam_reference, count_trainable_params, off_identity

TRAIN_CFG = ModelConfig(
    vocab_size=32, n_mels=20, d_h=24, heads=2, enc_layers=1, dec_layers=1,
    d_spk=24, d_attn=12, postnet_channels=16, postnet_layers=3,
)

DIMS = AdapterDims(d_h=24, d_r=3, d_1=24, d_2=8, d_l=4, d_s=3)

SCHED = ScheduleConfig(
    peak_lr=1e-3, warmup_steps=2, milestones=(6,), duration_start_step=3,
    total_steps=8, batch_size=2, binarization_ramp_steps=2,
)


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    spec = CorpusSpec(speakers_pretrain=2, speakers_adapt=2, utts_per_speaker=4)
    out = tmp_path_factory.mktemp("corpus")
    return generate_corpus(spec, seed=11, out_dir=str(out))


@pytest.fixture(scope="module")
def pretrained(corpus_path, tmp_path_factory):
    run = tmp_path_factory.mktemp("pretrain_run")
    ck = tr.pretrain(corpus_path, TRAIN_CFG, SCHED, str(run), seed=3, ckpt_every=4)
    return ck, str(run)


@pytest.fixture(scope="module")
def adapted(pretrained, corpus_path, tmp_path_factory):
    ck, _ = pretrained
    run = tmp_path_factory.mktemp("adapt_run")
    sched = adaptation_schedule(steps=3, batch_size=2)
    out = tr.adapt(ck, corpus_path, "hyper_ev", sched, str(run), seed=5,
                   dims=DIMS, log_every=1)
    return out, str(run)


# -----------------------------------------------------------------------------
# schedule
# -----------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"peak_lr": 0.0},
    {"warmup_steps": 10, "milestones": (5,)},
    {"milestones": (30, 20)},
    {"total_steps": 0},
    {"batch_size": 0},
])
def test_schedule_validation(kwargs):
    with pytest.raises(ConfigError):
        ScheduleConfig(**kwargs)


def test_lr_at_contract():
    sched = ScheduleConfig(peak_lr=1e-3, warmup_steps=5, milestones=(10, 20, 30),
                           total_steps=40)
    assert lr_at(sched, 0) == 0.0
    assert lr_at(sched, 2) == pytest.approx(0.4e-3)
    assert lr_at(sched, 5) == pytest.approx(1e-3)
    assert lr_at(sched, 9) == pytest.approx(1e-3)
    assert lr_at(sched, 10) == pytest.approx(0.3e-3)
    # just past the second milestone: peak * factor^2
    assert lr_at(sched, 21) == pytest.approx(1e-3 * 0.09)
    assert lr_at(sched, 30) == pytest.approx(1e-3 * 0.027)
    with pytest.raises(InputError):
        lr_at(sched, -1)


def test_adaptation_schedule_is_constant():
    sched = adaptation_schedule(steps=50, lr=2e-4)
    assert [lr_at(sched, s) for s in (0, 1, 25, 50)] == [2e-4] * 4


def test_loss_weights_gate_and_ramp():
    sched = ScheduleConfig(warmup_steps=2, milestones=(20,), duration_start_step=10,
                           total_steps=30, binarization_ramp_steps=4)
    gated = ("duration", "pitch_spec", "pitch_mean", "pitch_var", "energy")
    before = loss_weights(sched, 9)
    assert all(before[k] == 0.0 for k in gated)
    assert before["binarization"] == 0.0
    assert before["mel_pre"] == before["mel_post"] == before["forward_sum"] == 1.0

    at_start = loss_weights(sched, 10)
    assert all(at_start[k] == 1.0 for k in gated)
    assert at_start["binarization"] == 0.0
    assert loss_weights(sched, 12)["binarization"] == pytest.approx(0.5)
    assert loss_weights(sched, 14)["binarization"] == 1.0
    assert loss_weights(sched, 25)["binarization"] == 1.0


# -----------------------------------------------------------------------------
# loss assembly
# -----------------------------------------------------------------------------


class _EchoModel:
    """Returns the training targets of a pack of one-phoneme utterances
    themselves; every component must be 0."""

    def __init__(self, utts):
        self.utts = utts

    def align(self, pack):
        frames = pack.frames_seg.lengths
        amap = AlignmentMap(Tensor(np.zeros((len(frames), 1, frames.max()), dtype=np.float32)),
                            pack.phonemes_seg, pack.frames_seg)
        return amap, frames.copy()  # one phoneme, every frame

    def forward(self, phonemes, ph, speakers, rngs, hooks=None, targets=None):
        durations, _, energy = targets
        mel = np.concatenate([u.mel for u in self.utts])
        pitch = [var_mod.pitch_targets(u.f0.astype(np.float64)) for u in self.utts]
        return {
            "mel_pre": Tensor(mel),
            "mel_post": Tensor(mel),
            "log_dur": Tensor(np.log(durations).astype(np.float32)),
            "pitch_spec": Tensor(np.concatenate([t[0].T for t in pitch]).astype(np.float32)),
            "pitch_mean": Tensor(np.array([t[1] for t in pitch], dtype=np.float32)),
            "pitch_var": Tensor(np.array([t[2] for t in pitch], dtype=np.float32)),
            "energy": Tensor(energy.astype(np.float32)),
            "durations": durations,
            "f0": None,
        }


def _toy_utterance(frames=24, seed=4):
    rng = np.random.default_rng(seed)
    return Utterance(
        utt_id=f"toy{seed}", speaker="spk", split="train",
        phonemes=np.array([1]),
        mel=rng.normal(size=(frames, 6)).astype(np.float32),
        f0=rng.uniform(100.0, 200.0, frames).astype(np.float32),
        energy=rng.uniform(0.5, 1.0, frames).astype(np.float32),
        embedding=np.zeros(3, dtype=np.float32),
    )


def test_exact_predictions_zero_every_component():
    sched = adaptation_schedule(steps=10)
    utts = [_toy_utterance(), _toy_utterance(frames=17, seed=5)]
    total, bd = compute_losses(_EchoModel(utts), utts, 1, sched, ())
    assert all(bd.components[k] == 0.0 for k in LOSS_NAMES)
    assert bd.total == 0.0
    assert float(total.data) == 0.0


def test_total_matches_manual_weighted_sum(pretrained, corpus_path):
    ck, _ = pretrained
    model = tr.load_checkpoint(ck).model
    utt = load_corpus(corpus_path, adaptation=False, split="train")[0]
    sched = adaptation_schedule(steps=10)
    total, bd = compute_losses(model, [utt], 5, sched, ())
    weights = loss_weights(sched, 5)
    manual = sum(weights[k] * bd.components[k] for k in LOSS_NAMES)
    assert bd.total == pytest.approx(manual, abs=1e-9)
    # the graph scalar is the same quantity accumulated in float32
    assert float(total.data) == pytest.approx(manual, rel=1e-5)


def test_gated_components_stay_out_of_graph(pretrained, corpus_path):
    ck, _ = pretrained
    model = tr.load_checkpoint(ck).model
    utt = load_corpus(corpus_path, adaptation=False, split="train")[0]
    sched = ScheduleConfig(warmup_steps=2, milestones=(20,), duration_start_step=10,
                           total_steps=30)
    total, bd = compute_losses(model, [utt], 0, sched, ())
    # gated components are still reported for the log, as their nodes' values
    assert bd.components["duration"] > 0.0
    assert loss_weights(sched, 0)["duration"] == loss_weights(sched, 0)["binarization"] == 0.0
    amap, durations = model.align(model_mod.Pack([utt]))
    assert bd.components["binarization"] == float(binarization_loss(amap, durations).data) > 0.0
    expected = bd.components["mel_pre"] + bd.components["mel_post"] + bd.components["forward_sum"]
    assert float(total.data) == pytest.approx(expected, rel=1e-5)


def _grads(loss, named):
    """name -> gradient of a scalar loss, zeros for a tensor it does not reach."""
    for _, p in named:
        p.grad = None
    ad.backward(loss)
    return {name: np.zeros_like(p.data) if p.grad is None else p.grad.copy() for name, p in named}


def test_total_gradient_matches_fd(monkeypatch, pretrained, corpus_path):
    # run the whole pass in float64 so the FD oracle is meaningful
    monkeypatch.setattr(ad, "DEFAULT_DTYPE", np.float64)
    ck, _ = pretrained
    meta, arrays = featio.read_checkpoint(ck)
    model = TTSModel(ModelConfig(**meta["model_config"]), seed=0)
    model.load_state_arrays({k: v for k, v in arrays.items() if not k.startswith("opt.")})
    model.set_ranges(meta["pitch_range"], meta["energy_range"])
    for _, p in model.named_parameters():
        p.data = p.data.astype(np.float64)

    utt = load_corpus(corpus_path, adaptation=False, split="train")[0]
    sched = adaptation_schedule(steps=10)

    def loss():
        total, _ = compute_losses(model, [utt], 5, sched, ())
        return total

    picks = []
    for probe in ("embed.table", "duration", "postnet"):
        picks.append(next((n, p) for n, p in model.named_parameters() if probe in n))
    grads = _grads(loss(), picks)

    eps = 1e-6
    for name, p in picks:
        g = grads[name]
        idx = np.unravel_index(np.argmax(np.abs(g)), g.shape)
        keep = p.data[idx]
        p.data[idx] = keep + eps
        up = float(loss().data)
        p.data[idx] = keep - eps
        down = float(loss().data)
        p.data[idx] = keep
        fd = (up - down) / (2.0 * eps)
        assert abs(fd - g[idx]) <= 1e-4 * max(abs(fd), abs(g[idx]), 1e-3), name


def test_nonfinite_component_is_named(pretrained, corpus_path):
    ck, _ = pretrained
    model = tr.load_checkpoint(ck).model  # fresh instance, safe to poison
    model.encoder.embed.table.data[:] = np.nan
    utt = load_corpus(corpus_path, adaptation=False, split="train")[0]
    with pytest.raises(NumericsError, match="mel_pre"):
        compute_losses(model, [utt], 5, adaptation_schedule(steps=10), ())


def test_breakdown_average_and_row():
    a = LossBreakdown({k: 1.0 for k in LOSS_NAMES}, float(len(LOSS_NAMES)))
    b = LossBreakdown({k: 3.0 for k in LOSS_NAMES}, 3.0 * len(LOSS_NAMES))
    avg = LossBreakdown.average([a, b])
    assert all(avg.components[k] == 2.0 for k in LOSS_NAMES)
    assert avg.total == pytest.approx(2.0 * len(LOSS_NAMES))
    row = a.row()
    assert len(row) == len(LOSS_NAMES) + 1 and row[-1] == a.total


# -----------------------------------------------------------------------------
# optimizer and batching
# -----------------------------------------------------------------------------


def _named_tensor_set(seed):
    rng = rng_for(seed, "adamtest")
    return [("a", Tensor(rng.normal(size=(4, 3)).astype(np.float32))),
            ("b", Tensor(rng.normal(size=(5,)).astype(np.float32)))]


def _grads_at(t, params):
    rng = rng_for(1, "grad", t)
    return np.concatenate([rng.normal(size=p.size).astype(np.float32) for _, p in params])


def test_adam_state_roundtrip_continues_identically():
    full = _named_tensor_set(0)
    opt_full = Adam(full)
    for t in range(6):
        opt_full.step(_grads_at(t, full), lr=1e-2)

    half = _named_tensor_set(0)
    opt_half = Adam(half)
    for t in range(3):
        opt_half.step(_grads_at(t, half), lr=1e-2)
    saved = opt_half.state_arrays()

    resumed = [(n, Tensor(p.data.copy())) for n, p in half]
    opt_res = Adam(resumed)
    opt_res.load_state_arrays(saved, t=opt_half.t)
    for t in range(3, 6):
        opt_res.step(_grads_at(t, resumed), lr=1e-2)

    for (_, p), (_, q) in zip(full, resumed):
        assert p.data.tobytes() == q.data.tobytes()


def test_adam_flat_update_matches_per_tensor_bit_for_bit():
    flat_params, ref_params = _named_tensor_set(3), _named_tensor_set(3)
    opt = Adam(flat_params)
    steps = [_grads_at(t, flat_params) for t in range(5)]
    lrs = [1e-2, 2e-2, 5e-3, 1e-2, 3e-2]
    for grad, lr in zip(steps, lrs):
        opt.step(grad, lr)
    adam_reference(ref_params, [dict(tr.per_tensor(ref_params, g)) for g in steps], lrs)
    for (name, p), (_, q) in zip(flat_params, ref_params):
        assert p.data.tobytes() == q.data.tobytes(), name
        assert np.shares_memory(p.data, opt.flat), name


def test_adam_descends_a_quadratic():
    x = Tensor(np.array([3.0], dtype=np.float32))
    opt = Adam([("x", x)])
    for _ in range(200):
        opt.step(x.data.copy(), lr=0.1)  # grad of 0.5 x^2 is x
    assert abs(float(x.data[0])) < 0.5


def test_batcher_is_pure_and_covers_each_epoch():
    a = tr._Batcher(seed=9, n=7, batch_size=3)
    b = tr._Batcher(seed=9, n=7, batch_size=3)
    assert a.batch(5) == b.batch(5)  # b computed step 5 cold

    seq = [i for step in range(7) for i in a.batch(step)]  # 21 positions, 3 epochs
    assert sorted(seq[:7]) == list(range(7))
    assert sorted(seq[7:14]) == list(range(7))
    assert sorted(seq[14:]) == list(range(7))

    a.batch(100)  # push the permutation cache far ahead
    assert a.batch(0) == b.batch(0)

    wide = tr._Batcher(seed=9, n=3, batch_size=8)  # one batch spans three epochs
    seq = wide.batch(0) + wide.batch(1)
    assert all(sorted(seq[e * 3:e * 3 + 3]) == [0, 1, 2] for e in range(5))
    assert wide.batch(1) == tr._Batcher(seed=9, n=3, batch_size=8).batch(1)


def test_compute_feature_ranges():
    def utt(f0_lo, f0_hi, e_lo, e_hi):
        frames = 10
        return Utterance(
            utt_id="u", speaker="s", split="train", phonemes=np.array([1]),
            mel=np.zeros((frames, 4), dtype=np.float32),
            f0=np.linspace(f0_lo, f0_hi, frames).astype(np.float32),
            energy=np.linspace(e_lo, e_hi, frames).astype(np.float32),
            embedding=np.zeros(3, dtype=np.float32),
        )

    pitch, energy = tr.compute_feature_ranges(
        [utt(100.0, 200.0, 0.5, 1.0), utt(150.0, 300.0, 0.2, 0.8)]
    )
    assert pitch == (pytest.approx(np.log(100.0)), pytest.approx(np.log(300.0)))
    assert energy == (pytest.approx(0.2), pytest.approx(1.0))
    with pytest.raises(InputError):
        tr.compute_feature_ranges([])


# -----------------------------------------------------------------------------
# pretraining loop
# -----------------------------------------------------------------------------


def test_pretrain_writes_logs_and_latest(pretrained):
    ck, run = pretrained
    assert os.path.basename(ck) == "ckpt-000008.bin"
    assert sorted(f for f in os.listdir(run) if f.startswith("ckpt-")) == [
        "ckpt-000004.bin", "ckpt-000008.bin"]
    assert not os.path.exists(os.path.join(run, "LATEST"))
    train_log = open(os.path.join(run, "train_log.tsv")).read().splitlines()
    assert train_log[0].split("\t") == ["step"] + list(LOSS_NAMES) + ["total", "lr"]
    assert os.path.exists(os.path.join(run, "val_log.tsv"))


def test_pretrain_same_seed_is_bit_identical(pretrained, corpus_path, tmp_path):
    ck, run = pretrained
    ck2 = tr.pretrain(corpus_path, TRAIN_CFG, SCHED, str(tmp_path), seed=3,
                      ckpt_every=4)
    assert open(ck, "rb").read() == open(ck2, "rb").read()
    logs = [open(os.path.join(d, "train_log.tsv")).read() for d in (run, str(tmp_path))]
    assert logs[0] == logs[1]


def test_pretrain_resume_is_bit_identical(pretrained, corpus_path, tmp_path):
    ck, _ = pretrained
    short = dataclasses.replace(SCHED, total_steps=4)
    tr.pretrain(corpus_path, TRAIN_CFG, short, str(tmp_path), seed=3, ckpt_every=4)
    resumed = tr.pretrain(corpus_path, TRAIN_CFG, SCHED, str(tmp_path), seed=3,
                          ckpt_every=4)
    assert open(ck, "rb").read() == open(resumed, "rb").read()


class _Interrupted(Exception):
    pass


def test_resumed_pretrain_logs_each_step_once(monkeypatch, corpus_path, tmp_path):
    # a run cut during step 7 resumes from ckpt-000004.bin; its logs must
    # equal an uninterrupted run's byte for byte, and a gated step's
    # binarization is logged as its value, not as 0
    kwargs = dict(seed=3, ckpt_every=4, log_every=1, val_every=2)
    whole = tr.pretrain(corpus_path, TRAIN_CFG, SCHED, str(tmp_path / "whole"), **kwargs)
    real_check = tr.check_finite_grads

    def cut_at_7(grad, step, named):
        if step == 7:
            raise _Interrupted
        real_check(grad, step, named)

    monkeypatch.setattr(tr, "check_finite_grads", cut_at_7)
    with pytest.raises(_Interrupted):
        tr.pretrain(corpus_path, TRAIN_CFG, SCHED, str(tmp_path / "cut"), **kwargs)
    monkeypatch.undo()
    assert tr._newest_checkpoint(str(tmp_path / "cut")).endswith("ckpt-000004.bin")
    resumed = tr.pretrain(corpus_path, TRAIN_CFG, SCHED, str(tmp_path / "cut"), **kwargs)
    assert open(whole, "rb").read() == open(resumed, "rb").read()
    rows = {}
    for name in ("train_log.tsv", "val_log.tsv"):
        logs = [open(tmp_path / run / name).read() for run in ("whole", "cut")]
        assert logs[0] == logs[1], name
        rows[name] = [line.split("\t") for line in logs[0].splitlines()[1:]]
    assert [int(r[0]) for r in rows["train_log.tsv"]] == list(range(1, 9))
    assert [int(r[0]) for r in rows["val_log.tsv"]] == [2, 4, 6, 8]
    # rows 1-3 are steps 0-2, before duration_start_step=3
    column = 1 + LOSS_NAMES.index("binarization")
    assert all(float(r[column]) > 0.0 for r in rows["train_log.tsv"][:3])


def test_newest_checkpoint_is_the_highest_step(tmp_path):
    for name in ("ckpt-000004.bin", "ckpt-000012.bin", "ckpt-000100.bin.tmp", "ckpt-x.bin",
                 "ckpt-000009.bin"):
        (tmp_path / name).write_bytes(b"")
    assert tr._newest_checkpoint(str(tmp_path)) == str(tmp_path / "ckpt-000012.bin")


def test_pretrain_rejects_config_change_on_resume(pretrained, corpus_path):
    _, run = pretrained
    other = dataclasses.replace(TRAIN_CFG, d_attn=16)
    with pytest.raises(ConfigError):
        tr.pretrain(corpus_path, other, SCHED, run, seed=3)


def test_pretrain_rejects_schedule_change_on_resume(pretrained, corpus_path):
    _, run = pretrained
    other = dataclasses.replace(SCHED, peak_lr=2e-3)
    with pytest.raises(ConfigError, match="schedule"):
        tr.pretrain(corpus_path, TRAIN_CFG, other, run, seed=3)


def test_pretrain_rejects_seed_change_on_resume(pretrained, corpus_path):
    _, run = pretrained
    with pytest.raises(ConfigError, match="seed"):
        tr.pretrain(corpus_path, TRAIN_CFG, SCHED, run, seed=4)


def test_pretrain_rejects_foreign_checkpoint_kind(adapted, corpus_path, tmp_path):
    adapted_ck, _ = adapted
    shutil.copyfile(adapted_ck, tmp_path / "ckpt-000001.bin")
    with pytest.raises(StateError):
        tr.pretrain(corpus_path, TRAIN_CFG, SCHED, str(tmp_path), seed=3)


def test_pretrain_requires_embeddings(pretrained, adapted, corpus_path, tmp_path, capsys):
    # a corpus file that lacks the embeddings, holds an array its spec does
    # not index, or has a damaged payload is bad input: pretrain, adapt and
    # dump-hyper-params all stop (exit 2) before using it
    pretrained_ck, hyper_ck = pretrained[0], adapted[0]
    # the tiny model's config and adapter dims (adapt reads d_h and d_1 from the model)
    dims = [f"--set=model.{k}={v}" for k, v in TRAIN_CFG.to_dict().items()]
    dims += [f"--set=dims.{k}={v}" for k, v in dataclasses.asdict(DIMS).items()
             if k not in ("d_h", "d_1")]
    for case in ("embedding", "durations", "flip"):
        corpus = tmp_path / case / "corpus.bin"
        corpus.parent.mkdir()
        shutil.copyfile(corpus_path, corpus)
        # the first array in file order, whatever speakers a verb reads
        if case == "embedding":
            meta, tensors = featio.read_checkpoint(corpus)
            featio.write_checkpoint(corpus, meta, {k: v for k, v in tensors.items()
                                                   if not k.endswith(".embedding")})
            expected = f"{corpus}: no array adp_00_u000.embedding"
        elif case == "durations":
            meta, tensors = featio.read_checkpoint(corpus)
            tensors["adp_00_u000.durations"] = np.ones(3, dtype=np.int64)
            featio.write_checkpoint(corpus, meta, tensors)
            expected = (f"{corpus}: array adp_00_u000.durations is not in the spec's "
                        "utterance index")
        else:  # one flipped bit in the first embedding's payload
            _, tensors = featio.read_checkpoint(corpus)
            blob = bytearray(corpus.read_bytes())
            blob[blob.index(tensors["adp_00_u000.embedding"].tobytes())] ^= 0x01
            corpus.write_bytes(bytes(blob))
            expected = f"{corpus}: CRC-32 mismatch (file damaged or truncated)"
        with pytest.raises(InputError, match=re.escape(expected)):
            tr.pretrain(str(corpus), TRAIN_CFG, SCHED, str(tmp_path / "run"), seed=3)
        common = ["--corpus", str(corpus), "--out-dir", str(tmp_path / "runs")]
        for argv in (["pretrain"], ["adapt", "--checkpoint", pretrained_ck, "--steps", "1", *dims],
                     ["dump-hyper-params", "--checkpoint", hyper_ck]):
            assert cli.main([*argv, *common]) == 2, (case, argv[0])
            err = capsys.readouterr().err
            assert err.startswith(f"InputError: {expected}"), (case, argv[0], err)


def test_checkpoint_roundtrip_is_bitstable(pretrained, tmp_path):
    ck, _ = pretrained
    loaded = tr.load_checkpoint(ck)
    again = tmp_path / "again.bin"
    tr.save_checkpoint(str(again), loaded.model, loaded.meta["step"])
    meta1, arrays1 = featio.read_checkpoint(ck)
    meta2, arrays2 = featio.read_checkpoint(str(again))
    model_keys = {k for k in arrays1 if not k.startswith("opt.")}
    assert set(arrays2) == model_keys
    for k in model_keys:
        assert arrays1[k].tobytes() == arrays2[k].tobytes(), k
    for key in ("kind", "step", "model_config", "pitch_range", "energy_range"):
        assert meta1[key] == meta2[key]


def test_single_full_batch_step_does_not_increase_loss(pretrained, corpus_path):
    ck, _ = pretrained
    model = tr.load_checkpoint(ck).model
    batch = load_corpus(corpus_path, adaptation=False, split="train")[:2]
    sched = adaptation_schedule(steps=10, lr=1e-6)
    trainable = list(model.named_parameters())

    def batch_loss():
        return compute_losses(model, batch, 5, sched, ())[1].total

    before = batch_loss()
    total, _ = compute_losses(model, batch, 5, sched, ())
    grads = _grads(total, trainable)
    flat = np.concatenate([grads[name].reshape(-1) / len(batch) for name, _ in trainable])
    Adam(trainable).step(flat, lr=1e-6)
    assert batch_loss() <= before


class _GradRecorder(Adam):
    """An Adam (the step loop reads its shared flat buffer) that keeps each
    step's flat gradient and changes nothing."""

    def __init__(self, named_params):
        super().__init__(named_params)
        self.steps = []

    def step(self, grad, lr):
        self.steps.append(grad.copy())


def _run_one_step(model, trainable, utterances, sched, opt, tmp_path, seed=7):
    tr._train_steps(
        model, trainable, utterances, sched, seed, start_step=0, opt=opt, hooks_fn=None,
        log=tr._LossLog(str(tmp_path / "log.tsv")), val_utterances=None, val_log=None,
        ckpt_every=sched.total_steps, save_fn=lambda done: None, log_every=10, val_every=200,
    )


def _split(flat, trainable):
    assert flat.size == sum(p.size for _, p in trainable)
    return dict(tr.per_tensor(trainable, flat))


def _packs_of_one(model, trainable, batch, sched, seed=7):
    """(per-utterance mean of each logged column, LOSS_NAMES then total;
    mean gradient) with every utterance run as a pack of one under its own
    dropout stream."""
    expected = {name: np.zeros_like(p.data) for name, p in trainable}
    rows = []
    for pos, utt in enumerate(batch):
        rngs = [rng_for(seed, "dropout", 0, pos)]
        total, bd = compute_losses(model, [utt], 0, sched, rngs)
        rows.append(bd.row())
        for name, g in _grads(total, trainable).items():
            expected[name] += g / len(batch)
    return np.mean(rows, axis=0), expected


def test_step_gradient_is_mean_of_per_utterance_grads(pretrained, corpus_path, tmp_path):
    ck, _ = pretrained
    model = tr.load_checkpoint(ck).model
    train = load_corpus(corpus_path, adaptation=False, split="train")
    sched = dataclasses.replace(SCHED, total_steps=1, batch_size=3)
    trainable = list(model.named_parameters())
    rec = _GradRecorder(trainable)
    _run_one_step(model, trainable, train, sched, rec, tmp_path)

    batch = [train[idx] for idx in tr._Batcher(7, len(train), 3).batch(0)]
    mean_row, expected = _packs_of_one(model, trainable, batch, sched)
    # halves of 2 and 1 utterances: the logged row weighs each utterance alike
    logged = (tmp_path / "log.tsv").read_text().splitlines()[-1].split("\t")
    assert logged[0] == "1"
    np.testing.assert_allclose([float(v) for v in logged[1:-1]], mean_row, rtol=1e-5, atol=1e-6)
    assert len(rec.steps) == 1
    for name, g in _split(rec.steps[0], trainable).items():
        assert g.dtype == np.float32, name
        scale = max(float(np.abs(expected[name]).max()), 1e-3)
        np.testing.assert_allclose(g, expected[name], rtol=1e-5, atol=1e-6 * scale, err_msg=name)


def test_packed_step_of_eight_equals_packs_of_one_with_dropout(pretrained, corpus_path,
                                                                tmp_path):
    # a full desk-size pack, dropout on, utterances of different lengths.
    # float32 sums run in another order, so each tensor's entries are
    # compared at 1e-6 of that tensor's largest gradient entry
    ck, _ = pretrained
    model = tr.load_checkpoint(ck).model
    train = load_corpus(corpus_path, adaptation=False, split="train")
    sched = dataclasses.replace(SCHED, total_steps=1, batch_size=8)
    trainable = list(model.named_parameters())
    rec = _GradRecorder(trainable)
    _run_one_step(model, trainable, train, sched, rec, tmp_path)

    batch = [train[idx] for idx in tr._Batcher(7, len(train), 8).batch(0)]
    assert len({u.mel.shape[0] for u in batch}) > 1
    rngs = [rng_for(7, "dropout", 0, pos) for pos in range(8)]
    packed_total, packed_bd = compute_losses(model, batch, 0, sched, rngs)
    mean_row, expected = _packs_of_one(model, trainable, batch, sched)
    assert packed_bd.total == pytest.approx(mean_row[-1], rel=1e-5)
    assert float(packed_total.data) / 8 == pytest.approx(mean_row[-1], rel=1e-5)
    for name, g in _split(rec.steps[0], trainable).items():
        scale = max(float(np.abs(expected[name]).max()), 1e-3)
        np.testing.assert_allclose(g, expected[name], rtol=1e-5, atol=1e-6 * scale, err_msg=name)


def test_nonfinite_gradient_names_tensor_and_step(monkeypatch, pretrained, corpus_path,
                                                  tmp_path):
    ck, _ = pretrained
    model = tr.load_checkpoint(ck).model
    train = load_corpus(corpus_path, adaptation=False, split="train")
    sched = dataclasses.replace(SCHED, total_steps=1)
    trainable = list(model.named_parameters())
    poisoned = dict(trainable)["postnet.convs.1.b"]
    real_backward = ad.backward

    def backward_with_nan(loss):
        real_backward(loss)
        poisoned.grad = poisoned.grad.copy()  # may alias another tensor's gradient
        poisoned.grad[0] = np.nan

    monkeypatch.setattr(ad, "backward", backward_with_nan)
    before = model.state_arrays()
    with pytest.raises(NumericsError, match=r"postnet\.convs\.1\.b at step 1"):
        _run_one_step(model, trainable, train, sched, Adam(trainable), tmp_path)
    # the guard runs before the update, so no parameter was touched
    for name, arr in model.state_arrays().items():
        assert arr.tobytes() == before[name].tobytes(), name


def test_finite_guard_reports_first_bad_tensor_only_on_failure():
    params = [(name, Tensor(np.zeros(size, np.float32))) for name, size in (("a", 3), ("b", 2),
                                                                            ("c", 1))]
    finite = np.array([1, 1, 1, 3e38, 3e38, 1], np.float32)
    tr.check_finite_grads(finite, 4, params)  # the summed check overflows; no entry is bad
    bad = np.array([1.0, 1.0, 1.0, 1.0, np.inf, np.nan])
    with pytest.raises(NumericsError, match="for b at step 9"):
        tr.check_finite_grads(bad, 9, params)


# -----------------------------------------------------------------------------
# adaptation loop
# -----------------------------------------------------------------------------


def test_pitch_targets_computed_once_per_utterance_per_run(monkeypatch, pretrained,
                                                          corpus_path, tmp_path):
    # training steps and every validation pass share one target cache
    ck, _ = pretrained
    seen = []
    real = var_mod.pitch_targets

    def counting(f0):
        seen.append(f0.tobytes())
        return real(f0)

    monkeypatch.setattr(var_mod, "pitch_targets", counting)
    tr.adapt(ck, corpus_path, "adapter_e", adaptation_schedule(steps=4, batch_size=2),
             str(tmp_path), seed=5, dims=DIMS, val_every=2)
    val = load_corpus(corpus_path, adaptation=True, split="val")
    assert len(seen) == len(set(seen))
    assert {u.f0.astype(np.float64).tobytes() for u in val} <= set(seen)


def test_second_pass_over_an_utterance_derives_no_pitch_constant(monkeypatch, pretrained,
                                                                 corpus_path):
    # an utterance's log-F0 and pitch targets are computed once, on first
    # read, however many packs hold it
    model = tr.load_checkpoint(pretrained[0]).model
    utts = load_corpus(corpus_path, adaptation=False, split="train")[:3]
    _, first = compute_losses(model, utts, 5, SCHED, ())
    calls = []
    real = var_mod.normalize_f0

    def counting(f0):
        calls.append(f0)
        return real(f0)

    monkeypatch.setattr(var_mod, "normalize_f0", counting)
    _, second = compute_losses(model, utts[::-1], 5, SCHED, ())
    assert not calls
    assert second.components == pytest.approx(first.components, rel=1e-5)


def test_adapt_tts0_is_byte_copy(pretrained, corpus_path, tmp_path):
    ck, _ = pretrained
    out = tr.adapt(ck, corpus_path, "tts0", adaptation_schedule(steps=3),
                   str(tmp_path), seed=5)
    assert open(ck, "rb").read() == open(out, "rb").read()
    # the copy is the pretraining file, Adam moments included
    assert any(k.startswith("opt.") for k in featio.read_checkpoint(out)[1])
    log = open(tmp_path / "adapt_log.tsv").read().splitlines()
    assert "# trainable_params\t0" in log


def test_loaded_checkpoint_carries_its_strategy(pretrained, adapted):
    assert tr.load_checkpoint(pretrained[0]).adapted is None
    strategy = tr.load_checkpoint(adapted[0]).adapted.strategy
    assert strategy == StrategyConfig.parse("hyper_ev", DIMS)


def test_adapt_logs_trainable_count(adapted):
    _, run = adapted
    lines = open(os.path.join(run, "adapt_log.tsv")).read().splitlines()
    tagged = [l for l in lines if l.startswith("# trainable_params\t")]
    assert len(tagged) == 1
    logged = int(tagged[0].split("\t")[1])
    strategy = StrategyConfig.parse("hyper_ev", DIMS)
    expected = count_trainable_params(
        strategy, site_counts={"e": TRAIN_CFG.enc_layers, "v": 2, "d": TRAIN_CFG.dec_layers}
    )
    assert logged == expected
    assert any(l.startswith("# strategy\thyper_ev") for l in lines)
    data_rows = [l for l in lines if l and not l.startswith(("#", "step"))]
    assert len(data_rows) == 3  # log_every=1, three steps


def test_adapt_leaves_backbone_bit_identical(pretrained, adapted):
    ck, _ = pretrained
    out, _ = adapted
    _, before = featio.read_checkpoint(ck)
    _, after = featio.read_checkpoint(out)
    model_keys = {k for k in before if not k.startswith("opt.")}
    for k in model_keys:
        assert before[k].tobytes() == after[k].tobytes(), k
    assert any(k.startswith("extras.") for k in after)


def test_adapted_checkpoint_carries_no_adam_moments(adapted):
    # adaptation never resumes, so nothing would read them
    out, _ = adapted
    meta, arrays = featio.read_checkpoint(out)
    assert not [k for k in arrays if k.startswith("opt.")]
    assert meta["adam_t"] == 0
    assert tr.load_checkpoint(out).adapted is not None


def test_adapted_checkpoint_reloads_with_hooks(adapted):
    out, _ = adapted
    loaded = tr.load_checkpoint(out)
    assert loaded.meta["kind"] == "adapt"
    assert loaded.meta["strategy"] == "hyper_ev"
    assert loaded.adapted is not None
    emb = np.zeros(TRAIN_CFG.d_spk, dtype=np.float32)
    emb[0] = 1.0
    hooks = loaded.hooks_for(emb)
    assert set(hooks) == {"e", "v"}
    assert hooks["e"].shape[0] == TRAIN_CFG.enc_layers and hooks["v"].shape[0] == 2


def _rewrite_meta(src, dst, edit):
    """A copy of checkpoint src at dst with edited metadata; its CRC-32
    stays valid, so only the metadata is wrong."""
    meta, arrays = featio.read_checkpoint(src)
    edit(meta)
    featio.write_checkpoint(dst, meta, arrays)
    return dst


BAD_META = {  # case -> (metadata edit, the key the error names)
    "no_model_config": (lambda m: m.pop("model_config"), "model_config"),
    "string_d_h": (lambda m: m["model_config"].update(d_h="32"), "model_config.d_h"),
    "unknown_model_key": (lambda m: m["model_config"].update(hidden_layers=3),
                          "model_config.hidden_layers"),
    "strategy_without_dims": (lambda m: m.update(strategy="hyper_evd") or m.pop("adapter_dims"),
                              "adapter_dims"),
    "short_pitch_range": (lambda m: m.update(pitch_range=[1.0]), "pitch_range"),
    # a model with no feature ranges cannot embed pitch or energy
    "null_pitch_range": (lambda m: m.update(pitch_range=None), "pitch_range"),
    "no_energy_range": (lambda m: m.pop("energy_range"), "energy_range"),
    # written when FastSpeech 2's kernels were config keys
    "old_conv_kernel": (lambda m: m["model_config"].update(conv_kernel=9),
                        "model_config.conv_kernel"),
}


@pytest.mark.parametrize("case", sorted(BAD_META))
def test_load_checkpoint_rejects_wrong_metadata(adapted, tmp_path, case):
    # metadata that parses but lacks a key or holds a mistyped value is bad
    # input naming the file and the key, not a KeyError, TypeError or
    # IndexError from whatever reads it first
    edit, key = BAD_META[case]
    bad = _rewrite_meta(adapted[0], str(tmp_path / "bad.bin"), edit)
    with pytest.raises(InputError, match=f"{re.escape(bad)}: checkpoint metadata: .*'{key}'"):
        tr.load_checkpoint(bad)


def test_saving_a_model_without_ranges_is_a_state_error(tmp_path):
    path = str(tmp_path / "unranged.bin")
    with pytest.raises(StateError, match="ranges are not set"):
        tr.save_checkpoint(path, TTSModel(TRAIN_CFG), 0)
    assert not os.path.exists(path)


@pytest.mark.parametrize("bad, strategy", [("checkpoint", "hyper_ev"), ("checkpoint", "tts0"),
                                           ("corpus", "hyper_ev")])
def test_adapt_on_bad_input_leaves_the_previous_run_as_it_was(adapted, pretrained, corpus_path,
                                                              tmp_path, bad, strategy):
    # a rerun in a finished run directory, given a corpus as its checkpoint
    # or a corpus whose mel width the model does not take, changes no file
    run = tmp_path / "run"
    shutil.copytree(adapted[1], run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    checkpoint, corpus = pretrained[0], corpus_path
    if bad == "checkpoint":
        checkpoint = corpus_path
    else:
        corpus = generate_corpus(CorpusSpec(speakers_pretrain=2, speakers_adapt=2,
                                            utts_per_speaker=2, n_mels=12),
                                 seed=11, out_dir=str(tmp_path / "other"))
    with pytest.raises(InputError):
        tr.adapt(checkpoint, corpus, strategy, adaptation_schedule(steps=3, batch_size=2),
                 str(run), seed=5, dims=DIMS)
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_evaluate_exits_2_on_checkpoint_without_model_config(adapted, corpus_path,
                                                              tmp_path, capsys):
    bad = _rewrite_meta(adapted[0], str(tmp_path / "bad.bin"), BAD_META["no_model_config"][0])
    argv = ["evaluate", "--corpus", corpus_path, "--checkpoint", bad,
            "--out-dir", str(tmp_path / "runs")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"InputError: {bad}: checkpoint metadata: key 'model_config' expects dict, got None")


def test_loaded_checkpoint_hooks_for_a_pack_of_speakers(adapted):
    # a (B, d_spk) embedding array gives the pack's speaker-major tables,
    # exactly those AdaptedModel.hooks_for gives the same B speakers
    out, _ = adapted
    loaded = tr.load_checkpoint(out)
    speakers = np.random.default_rng(4).normal(size=(3, TRAIN_CFG.d_spk)).astype(np.float32)
    got = loaded.hooks_for(speakers)
    want = loaded.adapted.hooks_for(speakers)
    assert set(got) == set(want) == {"e", "v"}
    for tag, n_sites in (("e", TRAIN_CFG.enc_layers), ("v", 2)):
        assert got[tag].shape[0] == 3 * n_sites
        np.testing.assert_array_equal(got[tag].data, want[tag].data)


def test_adapt_detects_frozen_tensor_drift(monkeypatch, pretrained, corpus_path,
                                            tmp_path):
    ck, _ = pretrained
    grabbed = {}
    real_load = tr.load_checkpoint

    def load_and_remember(path):
        loaded = real_load(path)
        grabbed["model"] = loaded.model
        return loaded

    real_step = Adam.step

    def step_and_corrupt(self, grads, lr):
        real_step(self, grads, lr)
        grabbed["model"].encoder.embed.table.data[0, 0] += 1.0

    monkeypatch.setattr(tr, "load_checkpoint", load_and_remember)
    monkeypatch.setattr(Adam, "step", step_and_corrupt)
    with pytest.raises(InternalInvariantError, match="frozen"):
        tr.adapt(ck, corpus_path, "hyper_e", adaptation_schedule(steps=1, batch_size=2),
                 str(tmp_path), seed=5, dims=DIMS)


# -----------------------------------------------------------------------------
# frozen backbone: no frozen-weight gradients, one alignment per utterance
# -----------------------------------------------------------------------------


def _adapted_model(ck, label):
    """A loaded backbone with `label`'s surface attached and moved off the
    identity, so every adapter site passes gradient."""
    model = tr.load_checkpoint(ck).model
    return model, off_identity(AdaptedModel(model, StrategyConfig.parse(label, DIMS), seed=5))


def _adapt_step(model, adapted, batch, alignments=None, step=5):
    """(breakdown, flat gradient) of one training step of an adapted model."""
    trainable = adapted.named_trainable()
    for _, p in trainable:
        p.grad = None
    rngs = [rng_for(7, "dropout", 0, pos) for pos in range(len(batch))]
    total, bd = compute_losses(model, batch, step, adaptation_schedule(steps=10), rngs,
                               hooks_fn=lambda u: adapted.hooks_for(u.embedding),
                               alignments=alignments)
    ad.backward(total)
    return bd, tr.flat_grads(trainable)


def test_adapter_step_computes_no_frozen_weight_gradient(monkeypatch, pretrained,
                                                         corpus_path):
    ck, _ = pretrained
    model, adapted = _adapted_model(ck, "adapter_evd")
    weights = {id(p): p for p in model.parameters()}
    weight_arrays = {id(p.data) for p in model.parameters()}
    assert not any(p.requires_grad for p in weights.values())
    conv_calls, closures = [], []
    real_conv, real_from_op = kernels.conv1d_backward, ad.from_op

    def conv_backward(xp, w, gout, need_w=True):
        conv_calls.append((id(w) in weight_arrays, need_w))
        return real_conv(xp, w, gout, need_w=need_w)

    def recording(data, parents, grad_fn, op):
        if op in ("linear", "conv1d", "fft_block", "conv_stack", "postnet"):
            def grad_fn(g, inner=grad_fn):
                grads = inner(g)
                closures.append((op, parents, grads))
                return grads
        return real_from_op(data, parents, grad_fn, op)

    monkeypatch.setattr(kernels, "conv1d_backward", conv_backward)
    monkeypatch.setattr(ad, "from_op", recording)
    batch = load_corpus(corpus_path, adaptation=True, split="train")[:2]
    _adapt_step(model, adapted, batch)
    assert conv_calls and all(frozen and not need_w for frozen, need_w in conv_calls)
    # the aligner's convs are frozen and fed a frozen embedding, so no conv1d
    # node runs backward; every other weight sits in a linear or a module node
    assert {op for op, _, _ in closures} == {"linear", "fft_block", "conv_stack", "postnet"}
    for op, parents, grads in closures:
        for p, g in zip(parents, grads):
            if id(p) in weights:
                assert g is None, op


@pytest.mark.parametrize("label", ["adapter_evd", "hyper_evd"])
def test_cached_alignment_step_matches_uncached_bit_for_bit(monkeypatch, pretrained,
                                                            corpus_path, label):
    ck, _ = pretrained
    model, adapted = _adapted_model(ck, label)
    train = load_corpus(corpus_path, adaptation=True, split="train")
    batch = train[:4]
    # aligned in packs of one, in another order than the step's pack
    alignments = tr.frozen_alignments(model, train[::-1], 1)[::-1][:4]
    assert len(alignments) == len(batch)
    sched = adaptation_schedule(steps=10)
    # step 0: binarization stays out of the total; step 5: it is in
    assert [loss_weights(sched, s)["binarization"] for s in (0, 5)] == [0.0, 1.0]
    for step in (0, 5):
        bd_plain, grad_plain = _adapt_step(model, adapted, batch, step=step)

        ops, dp_calls = set(), []
        real_from_op = ad.from_op

        def recording(data, parents, grad_fn, op):
            ops.add(op)
            return real_from_op(data, parents, grad_fn, op)

        monkeypatch.setattr(ad, "from_op", recording)
        for name in ("forward_sum", "viterbi"):
            monkeypatch.setattr(kernels, name, lambda *a, name=name: dp_calls.append(name))
        bd_cached, grad_cached = _adapt_step(model, adapted, batch, alignments, step=step)
        monkeypatch.undo()
        assert bd_cached.components == bd_plain.components, step
        assert bd_cached.total == bd_plain.total, step
        np.testing.assert_array_equal(grad_cached, grad_plain, err_msg=str(step))
        assert not dp_calls
        assert not ops & {"soft_align", "forward_sum", "binarization"}


def _aligner_runs(monkeypatch, ck, corpus, strategy, steps, run_dir):
    """(soft_align calls, frozen_alignments calls) over one adapt run that
    validates once, after its last step."""
    calls = {"soft_align": 0, "frozen": 0}
    real_align, real_frozen = model_mod.soft_align, tr.frozen_alignments

    def soft_align(*args):
        calls["soft_align"] += 1
        return real_align(*args)

    def frozen_alignments(*args):
        calls["frozen"] += 1
        return real_frozen(*args)

    monkeypatch.setattr(model_mod, "soft_align", soft_align)
    monkeypatch.setattr(tr, "frozen_alignments", frozen_alignments)
    tr.adapt(ck, corpus, strategy, adaptation_schedule(steps=steps, batch_size=2), run_dir,
             seed=5, dims=DIMS, val_every=steps)
    monkeypatch.undo()
    return calls["soft_align"], calls["frozen"]


def test_frozen_aligner_runs_once_per_utterance_per_run(monkeypatch, pretrained,
                                                        corpus_path, tmp_path):
    # three epochs align no more often than one: the training split is
    # aligned once, before the first step, and the one validation pass
    # aligns its own utterances
    ck, _ = pretrained
    n = len(load_corpus(corpus_path, adaptation=True, split="train"))
    one = _aligner_runs(monkeypatch, ck, corpus_path, "adapter_e", n // 2,
                        str(tmp_path / "one"))
    three = _aligner_runs(monkeypatch, ck, corpus_path, "adapter_e", 3 * (n // 2),
                          str(tmp_path / "three"))
    assert 0 < one[0] == three[0]
    assert one[1] == three[1] == 1


def test_pretrain_and_ft_never_precompute_alignments(monkeypatch, pretrained,
                                                     corpus_path, tmp_path):
    ck, _ = pretrained
    ft = _aligner_runs(monkeypatch, ck, corpus_path, "ft", 3, str(tmp_path / "ft"))
    assert ft[1] == 0 and ft[0] > 3
    filled = []
    monkeypatch.setattr(tr, "frozen_alignments", lambda *args: filled.append(args))
    tr.pretrain(corpus_path, TRAIN_CFG, dataclasses.replace(SCHED, total_steps=2),
                str(tmp_path / "pre"), seed=3, val_every=1)
    assert not filled


def test_validate_records_no_tape(monkeypatch, pretrained, corpus_path):
    ck, _ = pretrained
    model = tr.load_checkpoint(ck).model
    val = load_corpus(corpus_path, adaptation=False, split="val")
    nodes = []
    real = ad.from_op

    def recording(data, parents, grad_fn, op):
        nodes.append(real(data, parents, grad_fn, op))
        return nodes[-1]

    monkeypatch.setattr(ad, "from_op", recording)
    bd = tr.validate(model, val, 5, SCHED)
    assert np.isfinite(bd.total) and nodes
    assert all(n._parents == () and n._grad_fn is None for n in nodes)


@pytest.mark.parametrize("label", ["adapter_evd", "hyper_evd"])
def test_validate_matches_compute_losses_on_each_pack(pretrained, corpus_path, label):
    # validate hands its hooks_fn to compute_losses, which generates once
    # per pack: its breakdown equals one compute_losses call on the same
    # pack bit for bit, for a pack of distinct speakers and for one in
    # which two utterances share a speaker
    ck, _ = pretrained
    model, adapted = _adapted_model(ck, label)
    train = load_corpus(corpus_path, adaptation=True, split="train")
    distinct = train[::3][:SCHED.batch_size]
    assert len({u.speaker for u in distinct}) == SCHED.batch_size
    shared = [u for u in train if u.speaker == distinct[0].speaker][:2] + distinct[2:]
    assert len({u.speaker for u in shared}) == len(shared) - 1 == SCHED.batch_size - 1

    def hooks_fn(u):
        return adapted.hooks_for(u.embedding)

    for utts in (distinct, shared):
        got = tr.validate(model, utts, 5, SCHED, hooks_fn)
        with ad.no_grad():
            _, want = compute_losses(model, utts, 5, SCHED, (),
                                     hooks_fn=hooks_fn)
        for name in LOSS_NAMES:
            np.testing.assert_array_equal(got.components[name], want.components[name],
                                          err_msg=name)
        np.testing.assert_array_equal(got.total, want.total)
