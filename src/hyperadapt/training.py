"""Optimization: loss assembly, LR schedule, Adam, the pretraining loop, and
the adaptation loop.

Batching note: a step packs its B utterances into one graph (see
`model.Pack`: stacked along time, no padding), so the tape has one node per
op rather than one per op and utterance. The loss is the sum over the pack
of each utterance's loss (every loss op takes per-utterance means); the flat
gradient over all trainable tensors is scaled by 1/B once, before the
finite-gradient check and the Adam step: the gradient of the batch-mean
loss. Each utterance draws its dropout masks from its own stream,
rng_for(seed, "dropout", step, position in the batch). Validation runs the
same packed pass in packs of B under `autodiff.no_grad` (no tape), and
synthesis is a pack of one.

A run keeps per-utterance caches that its steps and its validation passes
share: `pitch_cache` (the wavelet pitch targets) always, and `align_cache`
beside it when nothing the aligner reads trains (every adaptation strategy
but `ft`). A frozen aligner gives an utterance the same Viterbi durations,
forward-sum loss and hard-path log-probs at every step, so they are computed
in the first pack that holds the utterance and a later pack takes them from
the cache: its aligner, soft alignment and DPs do not run, and its logged
values are bit for bit what the aligner's loss nodes would hold. Pretraining
and `ft` train the aligner and keep the graph path.

Checkpoints carry the model tensors under their bare names, adapter-surface
tensors under "extras.", and Adam moments under "opt.m." / "opt.v." so a
resumed run continues exactly where it stopped.
"""

import os
import shutil
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import corpus as corpus_mod
from . import featio
from . import variance as var_mod
from .adaptation import AdaptedModel, AdapterDims, StrategyConfig
from .alignment import (binarization_loss, binarization_value, forward_sum_loss,
                        forward_sum_value, hard_path_log_probs, map_forward_sums)
from .autodiff import Tensor
from .errors import (ConfigError, InputError, InternalInvariantError, NumericsError, StateError,
                     checked, merge_checked)
from .layers import RunCtx, rng_for
from .model import ModelConfig, Pack, TTSModel

LOSS_NAMES = (
    "mel_pre", "mel_post", "duration", "pitch_spec", "pitch_mean",
    "pitch_var", "energy", "forward_sum", "binarization",
)


# Adam's moment decays and epsilon, and the learning-rate decay at each
# milestone, as FastSpeech 2 trains (Ren et al., arXiv 2006.04558).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9
ANNEAL_FACTOR = 0.3


@dataclass
class ScheduleConfig:
    peak_lr: float = 1e-3
    warmup_steps: int = 40
    milestones: tuple = (3000, 4000, 5000)
    duration_start_step: int = 500
    total_steps: int = 6000
    batch_size: int = 8
    binarization_ramp_steps: int = 500

    def __post_init__(self):
        self.milestones = tuple(int(m) for m in self.milestones)
        if self.peak_lr <= 0:
            raise ConfigError(f"peak_lr must be positive, got {self.peak_lr}")
        if self.total_steps < 1 or self.batch_size < 1:
            raise ConfigError("total_steps and batch_size must be at least 1")
        if any(m <= self.warmup_steps for m in self.milestones):
            raise ConfigError("milestones must come after warmup")
        if list(self.milestones) != sorted(self.milestones):
            raise ConfigError(f"milestones must be ascending, got {self.milestones}")


def adaptation_schedule(steps, lr=1e-4, batch_size=8):
    """Constant-rate schedule used for every adaptation strategy."""
    return ScheduleConfig(
        peak_lr=lr, warmup_steps=0, milestones=(), duration_start_step=0,
        total_steps=steps, batch_size=batch_size, binarization_ramp_steps=1,
    )


def lr_at(sched, step):
    """Linear warmup to peak, then step decay at each milestone."""
    if step < 0:
        raise InputError(f"negative step {step}")
    if sched.warmup_steps > 0 and step < sched.warmup_steps:
        return sched.peak_lr * step / sched.warmup_steps
    passed = sum(1 for m in sched.milestones if step >= m)
    return sched.peak_lr * ANNEAL_FACTOR ** passed


@dataclass
class LossBreakdown:
    """Per-component values, the weights in force, and the weighted total."""

    components: dict
    weights: dict
    total: float

    def check_consistent(self):
        s = sum(self.weights[k] * self.components[k] for k in LOSS_NAMES)
        if abs(s - self.total) > 1e-6:
            raise InternalInvariantError(
                f"loss total {self.total} != weighted component sum {s}"
            )

    def row(self):
        return [self.components[k] for k in LOSS_NAMES] + [self.total]

    @staticmethod
    def average(breakdowns, counts=None):
        """Mean of breakdowns, each weighted by its count of utterances
        (one each when counts is None)."""
        comps = {k: float(np.average([b.components[k] for b in breakdowns], weights=counts))
                 for k in LOSS_NAMES}
        return LossBreakdown(
            components=comps,
            weights=dict(breakdowns[0].weights),
            total=float(np.average([b.total for b in breakdowns], weights=counts)),
        )


def loss_weights(sched, step):
    """Variance losses switch on at duration_start_step; the binarization
    term ramps in linearly after that so the soft alignment settles first."""
    w = {k: 1.0 for k in LOSS_NAMES}
    if step < sched.duration_start_step:
        w["duration"] = w["pitch_spec"] = w["pitch_mean"] = w["pitch_var"] = w["energy"] = 0.0
        w["binarization"] = 0.0
    else:
        ramp = max(sched.binarization_ramp_steps, 1)
        w["binarization"] = min(1.0, (step - sched.duration_start_step) / ramp)
    return w


def _pitch_targets(utt, pitch_cache):
    """(spectrogram (frames, scales) float32, mean, variance) of one
    utterance, read from and stored in pitch_cache when one is given."""
    if pitch_cache is not None and utt.utt_id in pitch_cache:
        return pitch_cache[utt.utt_id]
    spec, mean, var = var_mod.pitch_targets(utt.f0.astype(np.float64))
    targets = (np.ascontiguousarray(spec.T, dtype=ad.DEFAULT_DTYPE), mean, var)
    if pitch_cache is not None:
        pitch_cache[utt.utt_id] = targets
    return targets


class FrozenAlignment(NamedTuple):
    """What a frozen aligner gives one utterance, at every step of a run."""

    durations: np.ndarray  # (n,) int64 Viterbi durations
    forward_sum: np.float64  # its map's forward-sum loss
    path_log_probs: np.ndarray  # (m,) float32 log-prob of each frame's hard-path phoneme


def _frozen_alignments(model, pack, align_cache):
    """One FrozenAlignment per utterance of the pack, from align_cache. A
    pack with an utterance not cached yet runs the aligner once, through the
    routines the loss nodes use, and stores each utterance it lacks."""
    if any(uid not in align_cache for uid in pack.utt_ids):
        amap, durations = model.align(pack)
        losses, _ = map_forward_sums(amap)
        path = hard_path_log_probs(amap, durations)
        bounds = zip(pack.phonemes_seg.bounds, pack.frames_seg.bounds)
        for b, (uid, ((ps, pe), (fs, fe))) in enumerate(zip(pack.utt_ids, bounds)):
            align_cache.setdefault(uid, FrozenAlignment(durations[ps:pe], losses[b], path[fs:fe]))
    return [align_cache[uid] for uid in pack.utt_ids]


def compute_losses(model, utts, step, sched, ctx, hooks_fn=None, pitch_cache=None,
                   align_cache=None):
    """(total loss Tensor, LossBreakdown) for a pack of utterances.

    One packed forward pass; the graph's total is the sum over the pack of
    each utterance's weighted loss, and the breakdown reports per-utterance
    means. `hooks_fn` maps the Pack (its `.embedding` holds the (B, d_spk)
    speakers) to adapter tables, as `lambda u: adapted.hooks_for(u.embedding)`
    does, once per pass and before any other node; None adds no adapters.
    Gated components (weight 0) are still evaluated as plain numbers for the
    log, but stay out of the graph so they cost no backward work.

    `align_cache` (utt_id -> FrozenAlignment) is for a model whose aligner
    is frozen: the pack then takes its durations and its forward-sum and
    binarization values from the cache (filling it as needed), as constants
    equal bit for bit to what the aligner's loss nodes would hold, and the
    aligner does not run.
    """
    weights = loss_weights(sched, step)
    pack = Pack(utts)
    hooks = None if hooks_fn is None else hooks_fn(pack)
    frozen = None if align_cache is None else _frozen_alignments(model, pack, align_cache)
    out = model.forward_train(pack, ctx, hooks=hooks, durations=None if frozen is None else
                              np.concatenate([a.durations for a in frozen]))
    phonemes, frames, per_utt = pack.phonemes_seg, pack.frames_seg, pack.utterances_seg
    targets = [_pitch_targets(u, pitch_cache) for u in utts]
    spec_t = np.concatenate([t[0] for t in targets])
    mean_t = np.array([t[1] for t in targets], dtype=ad.DEFAULT_DTYPE)
    var_t = np.array([t[2] for t in targets], dtype=ad.DEFAULT_DTYPE)
    log_dur_t = np.log(out["durations"]).astype(ad.DEFAULT_DTYPE)
    energy_t = pack.energy.astype(ad.DEFAULT_DTYPE)
    mel = pack.mel
    n_utts = len(utts)

    terms = {}
    comps = {}

    def term(name, make_node, fallback):
        if weights[name] > 0.0:
            node = make_node()
            terms[name] = node
            comps[name] = float(node.data) / n_utts
        else:
            comps[name] = float(fallback().mean())

    def fit(name, target, seg, loss, error, key=None):
        pred = out[key or name]
        term(name, lambda: loss(pred, target, seg), lambda: seg.means(error(pred.data - target)))

    if frozen is None:
        amap = out["amap"]
        alignment_terms = (lambda: forward_sum_loss(amap),
                           lambda: binarization_loss(amap, out["durations"]))
    else:
        fs = forward_sum_value(np.array([a.forward_sum for a in frozen]), ad.DEFAULT_DTYPE)
        bz = binarization_value(np.concatenate([a.path_log_probs for a in frozen]))
        alignment_terms = (lambda: Tensor(fs), lambda: Tensor(bz))

    fit("mel_pre", mel, frames, ad.l1_loss, np.abs)
    fit("mel_post", mel, frames, ad.l1_loss, np.abs)
    term("forward_sum", alignment_terms[0], lambda: np.zeros(1))
    term("binarization", alignment_terms[1], lambda: np.zeros(1))
    fit("duration", log_dur_t, phonemes, ad.mse_loss, np.square, key="log_dur")
    fit("pitch_spec", spec_t, frames, ad.mse_loss, np.square)
    fit("pitch_mean", mean_t, per_utt, ad.mse_loss, np.square)
    fit("pitch_var", var_t, per_utt, ad.mse_loss, np.square)
    fit("energy", energy_t, frames, ad.mse_loss, np.square)

    for name, value in comps.items():
        if not np.isfinite(value):
            raise NumericsError(f"loss component {name} is non-finite at step {step}")

    total = None
    for name, node in terms.items():
        node = node if weights[name] == 1.0 else ad.scale(node, weights[name])
        total = node if total is None else ad.add(total, node)
    # Reported total is the f64 weighted sum of the reported components; the
    # graph tensor is the same quantity in f32, summed over the pack, and
    # drives the gradients.
    breakdown = LossBreakdown(
        components=comps, weights=weights,
        total=float(sum(weights[k] * comps[k] for k in LOSS_NAMES)),
    )
    breakdown.check_consistent()
    return total, breakdown


# -----------------------------------------------------------------------------
# optimizer
# -----------------------------------------------------------------------------


class Adam:
    """Adam over one flat buffer. The parameters' arrays become views into
    it, so an update is a few whole-buffer operations instead of a few per
    tensor; `step` takes the gradient as one flat array in the same order
    (see flat_grads). Build it after any checkpoint load into the
    parameters: an array replaced later is no longer the one it updates.
    Moments are saved and loaded per tensor, as opt.m.<name> /
    opt.v.<name>."""

    def __init__(self, named_params):
        self.params = list(named_params)
        self.t = 0
        dtypes = {p.data.dtype for _, p in self.params}
        if len(dtypes) > 1:
            raise InputError(f"Adam: parameters mix dtypes {sorted(map(str, dtypes))}")
        self.flat = np.concatenate([p.data.reshape(-1) for _, p in self.params])
        for (_, p), (_, view) in zip(self.params, per_tensor(self.params, self.flat)):
            p.data = view
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def step(self, grad, lr):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        m, v = self.m, self.v
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        self.flat -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

    def state_arrays(self):
        out = {f"opt.m.{k}": a.copy() for k, a in per_tensor(self.params, self.m)}
        out.update({f"opt.v.{k}": a.copy() for k, a in per_tensor(self.params, self.v)})
        return out

    def load_state_arrays(self, arrays, t):
        moments = zip(per_tensor(self.params, self.m), per_tensor(self.params, self.v))
        for (name, m), (_, v) in moments:
            mk, vk = f"opt.m.{name}", f"opt.v.{name}"
            if mk not in arrays or vk not in arrays:
                raise InputError(f"optimizer state missing moments for {name}")
            if arrays[mk].shape != m.shape or arrays[vk].shape != v.shape:
                raise InputError(f"optimizer moments for {name} do not match its shape {m.shape}")
            m[...] = arrays[mk]
            v[...] = arrays[vk]
        self.t = int(t)


def per_tensor(named_params, flat):
    """(name, view) of each parameter's slice of a flat array laid out in
    parameter order, as Adam and flat_grads lay it out."""
    offset = 0
    for name, p in named_params:
        yield name, flat[offset : offset + p.size].reshape(p.shape)
        offset += p.size


def flat_grads(named_params):
    """Every parameter's .grad (zeros where none arrived) as one flat array,
    in the order Adam lays out the same parameters."""
    return np.concatenate([(p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
                           for _, p in named_params])


# -----------------------------------------------------------------------------
# checkpoints
# -----------------------------------------------------------------------------


def _range_meta(model):
    va = model.variance
    return {
        "pitch_range": list(va.pitch_range) if va.pitch_range else None,
        "energy_range": list(va.energy_range) if va.energy_range else None,
    }


def save_checkpoint(path, model, step, *, adapted=None, opt=None, extra_meta=None):
    arrays = adapted.state_arrays() if adapted is not None else model.state_arrays()
    meta = {
        "kind": "adapt" if adapted is not None else "pretrain",
        "step": int(step),
        "model_config": model.config.to_dict(),
        "adam_t": opt.t if opt is not None else 0,
    }
    meta.update(_range_meta(model))
    if adapted is not None:
        meta["strategy"] = adapted.strategy.label()
        meta["adapter_dims"] = vars(adapted.strategy.dims).copy()
    if opt is not None:
        arrays = dict(arrays)
        arrays.update(opt.state_arrays())
    if extra_meta:
        meta.update(extra_meta)
    featio.write_checkpoint(path, meta, arrays)
    return path


@dataclass
class LoadedCheckpoint:
    model: TTSModel
    adapted: AdaptedModel = None
    strategy: StrategyConfig = None  # an adapted checkpoint's, parsed from its metadata
    meta: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)

    def hooks_for(self, embedding):
        """AdaptedModel.hooks_for of a (d_spk,) or (B, d_spk) array, or None."""
        return None if self.adapted is None else self.adapted.hooks_for(embedding)


def _read_meta(meta):
    """(ModelConfig, [pitch_range, energy_range], StrategyConfig or None) of
    checkpoint metadata, once each key it or a caller (step, adam_t) reads
    holds its JSON type (a range may be null); else a ConfigError."""
    def section(key, defaults):
        merge_checked(defaults, checked(key, {}, meta.get(key)), f"{key}.")
        return defaults

    config = ModelConfig(**section("model_config", asdict(ModelConfig())))
    for key in ("step", "adam_t"):
        checked(key, 0, meta.get(key))
    ranges = []
    for key in ("pitch_range", "energy_range"):
        pair = meta.get(key)
        if pair is not None and len(checked(key, [], pair)) != 2:
            raise ConfigError(f"key '{key}' expects two numbers, got {pair!r}")
        ranges.append(pair and [checked(key, 0.0, v) for v in pair])
    strategy = None
    if "strategy" in meta:
        dims = AdapterDims(**section("adapter_dims", asdict(AdapterDims())))
        strategy = StrategyConfig.parse(checked("strategy", "", meta["strategy"]), dims)
    return config, ranges, strategy


def load_checkpoint(path):
    """Rebuild the model (and adapter surface, for adapted checkpoints);
    metadata lacking a key or holding a wrong value is an InputError."""
    meta, arrays = featio.read_checkpoint(path)
    try:
        config, ranges, strategy = _read_meta(meta)
    except ConfigError as e:
        raise InputError(f"{path}: checkpoint metadata: {e}") from None
    model = TTSModel(config, seed=0)
    model_arrays = {
        k: v for k, v in arrays.items()
        if not k.startswith("extras.") and not k.startswith("opt.")
    }
    model.load_state_arrays(model_arrays)
    if None not in ranges:
        model.set_ranges(*ranges)
    adapted = None
    if strategy is not None and strategy.name not in ("tts0", "ft"):
        adapted = AdaptedModel(model, strategy)
        adapted.extras.load_state_arrays(arrays, "extras.")
    return LoadedCheckpoint(model=model, adapted=adapted, strategy=strategy, meta=meta,
                            arrays=arrays)


# -----------------------------------------------------------------------------
# data plumbing shared by both loops
# -----------------------------------------------------------------------------


def compute_feature_ranges(utterances):
    """(pitch_range, energy_range) over a training split; pitch is the
    interpolated log-F0 so unvoiced frames never collapse the low end."""
    p_lo = p_hi = e_lo = e_hi = None
    for u in utterances:
        logf = var_mod.interpolated_log_f0(u.f0.astype(np.float64))
        p_lo = float(logf.min()) if p_lo is None else min(p_lo, float(logf.min()))
        p_hi = float(logf.max()) if p_hi is None else max(p_hi, float(logf.max()))
        e_lo = float(u.energy.min()) if e_lo is None else min(e_lo, float(u.energy.min()))
        e_hi = float(u.energy.max()) if e_hi is None else max(e_hi, float(u.energy.max()))
    if p_lo is None:
        raise InputError("cannot compute feature ranges from an empty split")
    return (p_lo, p_hi), (e_lo, e_hi)


class _Batcher:
    """Deterministic, resumable batch order: position j in the global stream
    maps to permutation(epoch)[j % n], a pure function of (seed, j)."""

    def __init__(self, seed, n, batch_size):
        if n < 1:
            raise InputError("empty training split")
        self.seed, self.n, self.batch_size = seed, n, batch_size
        self._perms = {}

    def _perm(self, epoch):
        if epoch not in self._perms:
            self._perms[epoch] = rng_for(self.seed, "order", epoch).permutation(self.n)
            if len(self._perms) > 4:  # keep the window small
                oldest = min(self._perms)
                if oldest != epoch:
                    del self._perms[oldest]
        return self._perms[epoch]

    def batch(self, step):
        base = step * self.batch_size
        return [int(self._perm(j // self.n)[j % self.n]) for j in range(base, base + self.batch_size)]


class _LossLog:
    def __init__(self, path, header_extra=()):
        self.path = path
        if not os.path.exists(path):
            with open(path, "w") as f:
                for line in header_extra:
                    f.write(line + "\n")
                f.write("step\t" + "\t".join(LOSS_NAMES) + "\ttotal\tlr\n")

    def append(self, step, breakdown, lr):
        with open(self.path, "a") as f:
            row = "\t".join(f"{v:.6f}" for v in breakdown.row())
            f.write(f"{step}\t{row}\t{lr:.8f}\n")


def _aligner_frozen(model):
    """True when nothing the aligner reads trains: its own tensors and the
    phoneme embedding table it projects."""
    reads = model.aligner.parameters() + [model.encoder.embed.table]
    return not any(p.requires_grad for p in reads)


def _train_steps(model, trainable, utterances, sched, seed, *, start_step, opt,
                 hooks_fn, log, val_utterances, val_log, ckpt_every,
                 save_fn, log_every, val_every):
    """The shared step loop. `hooks_fn` (see compute_losses, or None) gives
    a pack its adapter tables: once per training step, and once per pack
    of each validation."""
    batcher = _Batcher(seed, len(utterances), sched.batch_size)
    pitch_cache = {}
    align_cache = {} if _aligner_frozen(model) else None
    inv_bs = 1.0 / sched.batch_size
    for step in range(start_step, sched.total_steps):
        for _, p in trainable:
            p.grad = None
        utts = [utterances[idx] for idx in batcher.batch(step)]
        ctx = RunCtx([rng_for(seed, "dropout", step, pos) for pos in range(len(utts))],
                     training=True)
        total, breakdown = compute_losses(model, utts, step, sched, ctx, hooks_fn=hooks_fn,
                                          pitch_cache=pitch_cache, align_cache=align_cache)
        ad.backward(total)
        grad = flat_grads(trainable)
        grad *= inv_bs
        check_finite_grads(grad, step + 1, trainable)
        lr = lr_at(sched, step + 1)
        opt.step(grad, lr)
        done = step + 1
        if done % log_every == 0 or done == sched.total_steps:
            log.append(done, breakdown, lr)
        if val_utterances and (done % val_every == 0 or done == sched.total_steps):
            val_log.append(done, validate(model, val_utterances, done, sched, hooks_fn,
                                          pitch_cache=pitch_cache, align_cache=align_cache), lr)
        if done % ckpt_every == 0 or done == sched.total_steps:
            save_fn(done)
    return sched.total_steps


def check_finite_grads(grad, step, named_params):
    """Raise NumericsError naming the step and the first parameter whose
    slice of the flat gradient has a non-finite entry. One summed check
    covers the common case; the per-tensor search runs only when that sum
    is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.add.reduce(grad, axis=None))
    if np.isfinite(total):
        return
    for name, g in per_tensor(named_params, grad):
        if not np.isfinite(g).all():
            raise NumericsError(f"non-finite gradient for {name} at step {step}")


@ad.no_grad()
def validate(model, utterances, step, sched, hooks_fn=None, pitch_cache=None, align_cache=None):
    """Teacher-forced loss over a split in packs of sched.batch_size, dropout
    off, recording no tape. Returns the per-utterance average breakdown;
    weights are evaluated at `step` so logs stay comparable. `hooks_fn`
    gives each pack its adapter tables, as in `compute_losses`, so a
    hypernetwork generates once per pack. `pitch_cache`
    (utt_id -> pitch targets) and `align_cache` are read and filled as in
    `compute_losses`; a training run passes the ones its steps use."""
    outs, counts = [], []
    for start in range(0, len(utterances), sched.batch_size):
        utts = utterances[start : start + sched.batch_size]
        outs.append(compute_losses(
            model, utts, step, sched, RunCtx((), training=False), hooks_fn=hooks_fn,
            pitch_cache=pitch_cache, align_cache=align_cache,
        )[1])
        counts.append(len(utts))
    return LossBreakdown.average(outs, counts)


# -----------------------------------------------------------------------------
# pretraining
# -----------------------------------------------------------------------------


def _latest_path(run_dir):
    return os.path.join(run_dir, "LATEST")


def _read_latest(run_dir):
    p = _latest_path(run_dir)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        name = f.read().strip()
    return os.path.join(run_dir, name) if name else None


def _write_latest(run_dir, filename):
    tmp = _latest_path(run_dir) + ".tmp"
    with open(tmp, "w") as f:
        f.write(filename + "\n")
    os.replace(tmp, _latest_path(run_dir))


def load_fitting_corpus(path, model_config, *, adaptation=None, split=None):
    """The utterances of corpus file `path` in one speaker group and split
    (see corpus.load_corpus), once every one fits a model of `model_config`:
    n_mels mel bins, a d_spk embedding, and phoneme ids in [0, vocab_size).
    Else an InputError naming the file, the utterance, the key and both
    values."""
    utts = corpus_mod.load_corpus(path, adaptation=adaptation, split=split)
    for u in utts:
        outside = u.phonemes[(u.phonemes < 0) | (u.phonemes >= model_config.vocab_size)]
        if u.mel.shape[-1] != model_config.n_mels:
            key, found = "n_mels", f"mel width {u.mel.shape[-1]}"
        elif u.embedding.size != model_config.d_spk:
            key, found = "d_spk", f"embedding size {u.embedding.size}"
        elif outside.size:
            key, found = "vocab_size", f"phoneme id {int(outside[0])}"
        else:
            continue
        raise InputError(f"{path}: utterance {u.utt_id} has {found}, but the model has "
                         f"model.{key}={getattr(model_config, key)}; generate the corpus "
                         "with this model config")
    return utts


def _run_meta(sched, seed):
    """What a resumed pretraining run must share with the run that wrote its
    checkpoint: the seed and every schedule field but total_steps, which
    only ends the run (a resume may extend it)."""
    schedule = {k: v for k, v in asdict(sched).items() if k != "total_steps"}
    schedule["milestones"] = list(schedule["milestones"])  # as JSON gives it back
    return {"schedule": schedule, "seed": seed}


def pretrain(corpus_path, model_config, sched, run_dir, seed, *,
             log_every=10, val_every=200, ckpt_every=500):
    """Train the backbone on the pretrain speakers. Returns the final
    checkpoint path. Interrupted runs resume from the newest checkpoint; a
    resume with another model config, schedule (total_steps aside) or seed
    is a ConfigError."""
    os.makedirs(run_dir, exist_ok=True)
    utts = load_fitting_corpus(corpus_path, model_config, adaptation=False)
    train, val = (corpus_mod.filter_entries(utts, split=s) for s in ("train", "val"))

    run_meta = _run_meta(sched, seed)
    latest = _read_latest(run_dir)
    if latest is None:
        model = TTSModel(model_config, seed=seed)
        model.set_ranges(*compute_feature_ranges(train))
        start_step = 0
    else:
        loaded = load_checkpoint(latest)
        if loaded.meta.get("kind") != "pretrain":
            raise StateError(f"{latest} is not a pretraining checkpoint")
        if loaded.meta["model_config"] != model_config.to_dict():
            raise ConfigError("run directory holds a checkpoint with a different model config")
        for key in ("schedule", "seed"):
            if loaded.meta.get(key) != run_meta[key]:
                raise ConfigError(f"run directory holds a checkpoint with a different {key}: "
                                  f"{loaded.meta.get(key)} vs {run_meta[key]}")
        model = loaded.model
        start_step = int(loaded.meta["step"])
    trainable = list(model.named_parameters())
    opt = Adam(trainable)
    if latest is not None:
        opt.load_state_arrays(loaded.arrays, loaded.meta.get("adam_t", 0))

    log = _LossLog(os.path.join(run_dir, "train_log.tsv"))
    val_log = _LossLog(os.path.join(run_dir, "val_log.tsv"))

    def save_fn(done):
        name = f"ckpt-{done:06d}.bin"
        save_checkpoint(os.path.join(run_dir, name), model, done, opt=opt, extra_meta=run_meta)
        _write_latest(run_dir, name)

    if start_step >= sched.total_steps:
        return _read_latest(run_dir)
    _train_steps(
        model, trainable, train, sched, seed, start_step=start_step, opt=opt,
        hooks_fn=None, log=log, val_utterances=val, val_log=val_log,
        ckpt_every=ckpt_every, save_fn=save_fn,
        log_every=log_every, val_every=val_every,
    )
    return _read_latest(run_dir)


# -----------------------------------------------------------------------------
# adaptation
# -----------------------------------------------------------------------------


def adapt(checkpoint_path, corpus_path, strategy, sched, run_dir, seed, *,
          dims=None, log_every=10, val_every=200):
    """Adapt a pretrained checkpoint to the adaptation speakers with the
    strategy a label names ('tts0', 'ft', 'adapter_e', 'hyper_evd', ...;
    see StrategyConfig.parse) and `dims`. Returns the adapted checkpoint
    path.

    tts0 trains nothing: the output file is a byte-for-byte copy of the
    input, made once every CRC-32 of the input checks. For every other
    strategy the frozen tensors are snapshotted before and compared bitwise
    after training; any drift is an internal error.
    """
    os.makedirs(run_dir, exist_ok=True)
    strategy = StrategyConfig.parse(strategy, dims)
    out_path = os.path.join(run_dir, "adapted.bin")
    log_path = os.path.join(run_dir, "adapt_log.tsv")
    # adaptation never resumes: a rerun rewrites the logs instead of appending
    for stale in (log_path, os.path.join(run_dir, "adapt_val_log.tsv")):
        if os.path.exists(stale):
            os.remove(stale)

    if strategy.name == "tts0":
        featio.read_checkpoint(checkpoint_path)
        _LossLog(log_path, header_extra=(
            f"# strategy\t{strategy.label()}", "# trainable_params\t0"))
        shutil.copyfile(checkpoint_path, out_path)
        return out_path

    loaded = load_checkpoint(checkpoint_path)
    model = loaded.model
    utts = load_fitting_corpus(corpus_path, model.config, adaptation=True)
    train, val = (corpus_mod.filter_entries(utts, split=s) for s in ("train", "val"))
    adapted = AdaptedModel(model, strategy, seed=seed)
    trainable = adapted.named_trainable()
    log = _LossLog(log_path, header_extra=(
        f"# strategy\t{strategy.label()}",
        f"# trainable_params\t{adapted.trainable_count()}",
    ))

    frozen = {
        name: p.data.copy()
        for name, p in model.named_parameters("model.")
        if not p.requires_grad
    }

    opt = Adam(trainable)
    val_log = _LossLog(os.path.join(run_dir, "adapt_val_log.tsv"))

    def save_fn(done):
        save_checkpoint(out_path, model, done, adapted=adapted, opt=opt)

    _train_steps(
        model, trainable, train, sched, seed, start_step=0, opt=opt,
        hooks_fn=lambda u: adapted.hooks_for(u.embedding), log=log, val_utterances=val,
        val_log=val_log, ckpt_every=sched.total_steps, save_fn=save_fn,
        log_every=log_every, val_every=val_every,
    )

    for name, p in model.named_parameters("model."):
        if name in frozen and p.data.tobytes() != frozen[name].tobytes():
            raise InternalInvariantError(
                f"frozen tensor {name} changed during {strategy.label()} adaptation"
            )
    return out_path
