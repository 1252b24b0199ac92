"""Optimization: loss assembly, LR schedule, Adam, the pretraining loop, and
the adaptation loop.

Batching note: a step's B utterances form two half-packs, batch positions
[0, ceil(B/2)) and the rest. Each half is one graph (see `model.Pack`:
stacked along time, no padding), so the tape has one node per op rather than
one per op and utterance, and its loss is the sum over the half of each
utterance's loss (every loss op takes per-utterance means). The step's flat
gradient over all trainable tensors is the first half's plus the second's,
in that order, scaled by 1/B once, before the finite-gradient check and the
Adam step: the gradient of the batch-mean loss. When the process may use two
CPUs, a worker forked once per training call computes every step's second
half while this process computes the first; else both run here. The same
function computes a half wherever it runs and BLAS runs one thread in both
processes, so logs and checkpoints do not depend on the CPU count or on the
BLAS thread setting. Each utterance draws its dropout masks from its own
stream, rng_for(seed, "dropout", step, position in the batch); those streams
are what turns dropout on. Validation runs one packed pass per pack of B with
no streams, so nothing drops out, under `autodiff.no_grad` (no tape), and
synthesis runs the same `TTSModel.forward` as a pack of one, untaught.

An utterance's pitch targets and interpolated log-F0 are properties of the
`corpus.Utterance`, computed the first time a step or a validation pass
reads them. When nothing the aligner reads trains (every adaptation strategy
but `ft`), the aligner gives an utterance the same Viterbi durations,
forward-sum loss and hard-path log-probs at every step, so `_train_steps`
computes them for the whole training split before the first step
(`frozen_alignments`) and each step takes them as constants: its aligner,
soft alignment and DPs do not run, and its logged values are bit for bit
what the aligner's loss nodes would hold. Validation runs the aligner on
every pass (about 8 ms of a 33 ms pass over the 20 validation utterances of
a desk adaptation). Pretraining and `ft` train the aligner and keep the
graph path.

Each loss component is one node, built at every step and logged as its value;
the schedule's weight decides only whether it joins the total.

Checkpoints carry the model tensors under their bare names and adapter-surface
tensors under "extras.". Pretraining checkpoints, ckpt-<step>.bin, also carry
the Adam moments ("opt.m." / "opt.v."): a run resumes exactly from the highest
step's, its logs cut back to that step. Adaptation never resumes.
"""

import contextlib
import ctypes
import functools
import glob
import mmap
import multiprocessing
import os
import re
import shutil
import signal
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import corpus as corpus_mod
from . import featio
from .adaptation import AdaptedModel, AdapterDims, StrategyConfig
from .alignment import (binarization_loss, binarization_value, forward_sum_loss,
                        forward_sum_value, hard_path_log_probs, map_forward_sums)
from .autodiff import Tensor
from .errors import (ConfigError, InputError, InternalInvariantError, NumericsError, StateError,
                     check_fields, checked, merge_checked, ranged)
from .layers import rng_for
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
    peak_lr: float = ranged(1e-3, "(0, inf)")
    warmup_steps: int = ranged(40, "[0, inf)")
    milestones: tuple = ranged((3000, 4000, 5000), "int [1, inf)")  # JSON lists are untyped
    duration_start_step: int = ranged(500, "[0, inf)")
    total_steps: int = ranged(6000, "[1, inf)")
    batch_size: int = ranged(8, "[1, inf)")
    binarization_ramp_steps: int = ranged(500, "[1, inf)")

    def __post_init__(self):
        check_fields(self, "schedule.")
        ms = self.milestones = tuple(self.milestones)
        if list(ms) != sorted(ms) or any(m <= self.warmup_steps for m in ms):
            raise ConfigError(f"schedule.milestones must be ascending and above "
                              f"schedule.warmup_steps={self.warmup_steps}, got {list(ms)}")


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
    """Per-component values and the weighted total."""

    components: dict
    total: float

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
        w["binarization"] = min(1.0, (step - sched.duration_start_step)
                                / sched.binarization_ramp_steps)
    return w


class FrozenAlignment(NamedTuple):
    """What a frozen aligner gives one utterance, at every step of a run."""

    durations: np.ndarray  # (n,) int64 Viterbi durations
    forward_sum: np.float64  # its map's forward-sum loss
    path_log_probs: np.ndarray  # (m,) float32 log-prob of each frame's hard-path phoneme


@ad.no_grad()
def frozen_alignments(model, utterances, batch_size):
    """One FrozenAlignment per utterance, in order, from a model whose
    aligner is frozen: the aligner runs in packs of batch_size, through the
    routines the loss nodes use."""
    out = []
    for start in range(0, len(utterances), batch_size):
        pack = Pack(utterances[start : start + batch_size])
        amap, durations = model.align(pack)
        losses, _ = map_forward_sums(amap)
        path = hard_path_log_probs(amap, durations)
        bounds = zip(pack.phonemes_seg.bounds, pack.frames_seg.bounds)
        out += [FrozenAlignment(durations[ps:pe], losses[b], path[fs:fe])
                for b, ((ps, pe), (fs, fe)) in enumerate(bounds)]
    return out


def compute_losses(model, utts, step, sched, rngs, hooks_fn=None, alignments=None):
    """(total loss Tensor, LossBreakdown) for a pack of utterances.

    One packed forward pass, taught the aligner's durations; the graph's
    total is the sum over the pack of each utterance's weighted loss, and
    the breakdown reports per-utterance means. `rngs` holds one dropout
    generator per utterance, or is empty for a pass without dropout.
    `hooks_fn` maps the Pack (its `.embedding` holds the (B, d_spk)
    speakers) to adapter tables, as `lambda u: adapted.hooks_for(u.embedding)`
    does, once per pass and before any other node; None adds no adapters.
    Every component is one loss node, built whatever its weight, and logged
    as its value; the weight decides only whether the node joins the total,
    so a gated one (weight 0) costs no backward work.

    `alignments` (one FrozenAlignment per utterance, in pack order; see
    frozen_alignments) is for a model whose aligner is frozen: the pack then
    takes its durations and its forward-sum and binarization values from
    them, as constants equal bit for bit to what the aligner's loss nodes
    would hold, and the aligner does not run.
    """
    weights = loss_weights(sched, step)
    pack = Pack(utts)
    hooks = None if hooks_fn is None else hooks_fn(pack)
    if alignments is None:
        amap, durations = model.align(pack)
    else:
        durations = np.concatenate([a.durations for a in alignments])
    out = model.forward(pack.phonemes, pack.phonemes_seg, pack.embedding, rngs, hooks=hooks,
                        targets=(durations, pack.log_f0, pack.energy))
    phonemes, frames, per_utt = pack.phonemes_seg, pack.frames_seg, pack.utterances_seg
    targets = [u.pitch_targets for u in utts]
    spec_t = np.concatenate([t[0] for t in targets])
    mean_t = np.array([t[1] for t in targets], dtype=ad.DEFAULT_DTYPE)
    var_t = np.array([t[2] for t in targets], dtype=ad.DEFAULT_DTYPE)
    log_dur_t = np.log(durations).astype(ad.DEFAULT_DTYPE)
    energy_t = pack.energy.astype(ad.DEFAULT_DTYPE)
    # made in this order: backward walks the tape by creation order, so a
    # reorder can move the summed gradients in their last bit
    nodes = {"mel_pre": ad.l1_loss(out["mel_pre"], pack.mel, frames),
             "mel_post": ad.l1_loss(out["mel_post"], pack.mel, frames)}
    if alignments is None:
        nodes["forward_sum"] = forward_sum_loss(amap)
        nodes["binarization"] = binarization_loss(amap, durations)
    else:
        nodes["forward_sum"] = Tensor(forward_sum_value(
            np.array([a.forward_sum for a in alignments]), ad.DEFAULT_DTYPE))
        nodes["binarization"] = Tensor(binarization_value(
            np.concatenate([a.path_log_probs for a in alignments])))
    nodes.update(
        duration=ad.mse_loss(out["log_dur"], log_dur_t, phonemes),
        pitch_spec=ad.mse_loss(out["pitch_spec"], spec_t, frames),
        pitch_mean=ad.mse_loss(out["pitch_mean"], mean_t, per_utt),
        pitch_var=ad.mse_loss(out["pitch_var"], var_t, per_utt),
        energy=ad.mse_loss(out["energy"], energy_t, frames),
    )
    comps = {name: float(node.data) / len(utts) for name, node in nodes.items()}
    for name, value in comps.items():
        if not np.isfinite(value):
            raise NumericsError(f"loss component {name} is non-finite at step {step}")

    total = functools.reduce(ad.add, [node if weights[k] == 1.0 else ad.scale(node, weights[k])
                                      for k, node in nodes.items() if weights[k] > 0.0])
    # Reported total is the f64 weighted sum of the reported components; the
    # graph tensor is the same quantity in f32, summed over the pack, and
    # drives the gradients.
    return total, LossBreakdown(
        components=comps, total=float(sum(weights[k] * comps[k] for k in LOSS_NAMES)))


# -----------------------------------------------------------------------------
# optimizer
# -----------------------------------------------------------------------------


def _shared_empty(size, dtype):
    """A 1-D array in an anonymous shared mapping: a process forked after
    it is made reads and writes the same memory."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, max(1, size * dtype.itemsize)), dtype, count=size)


class Adam:
    """Adam over one flat buffer. The parameters' arrays become views into
    it, so an update is a few whole-buffer operations instead of a few per
    tensor; `step` takes the gradient as one flat array in the same order
    (see flat_grads). The buffer is shared memory, so a step's worker
    (see _SecondHalf) reads every update in place. Build it after any
    checkpoint load into the parameters: an array replaced later is no
    longer the one it updates. Moments are saved and loaded per tensor, as
    opt.m.<name> / opt.v.<name>."""

    def __init__(self, named_params):
        self.params = list(named_params)
        self.t = 0
        dtypes = {p.data.dtype for _, p in self.params}
        if len(dtypes) > 1:
            raise InputError(f"Adam: parameters mix dtypes {sorted(map(str, dtypes))}")
        self.flat = _shared_empty(sum(p.size for _, p in self.params), dtypes.pop())
        np.concatenate([p.data.reshape(-1) for _, p in self.params], out=self.flat)
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


def flat_grads(named_params, out=None):
    """Every parameter's .grad (zeros where none arrived) as one flat array,
    in the order Adam lays out the same parameters; into `out` if given."""
    return np.concatenate([(p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
                           for _, p in named_params], out=out)


# -----------------------------------------------------------------------------
# checkpoints
# -----------------------------------------------------------------------------


def _range_meta(path, model):
    va = model.variance
    if va.pitch_range is None or va.energy_range is None:
        raise StateError(f"{path}: the model's pitch and energy ranges are not set")
    return {"pitch_range": list(va.pitch_range), "energy_range": list(va.energy_range)}


def save_checkpoint(path, model, step, *, adapted=None, opt=None, extra_meta=None):
    arrays = adapted.state_arrays() if adapted is not None else model.state_arrays()
    meta = {
        "kind": "adapt" if adapted is not None else "pretrain",
        "step": int(step),
        "model_config": model.config.to_dict(),
        "adam_t": opt.t if opt is not None else 0,
    }
    meta.update(_range_meta(path, model))
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
    adapted: AdaptedModel = None  # the strategy over the model; None for a pretrain's
    meta: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)

    def hooks_for(self, embedding):
        """AdaptedModel.hooks_for of a (d_spk,) or (B, d_spk) array, or None."""
        return None if self.adapted is None else self.adapted.hooks_for(embedding)


def _read_meta(meta):
    """(ModelConfig, [pitch_range, energy_range], StrategyConfig or None) of
    checkpoint metadata, once each key it or a caller (step, adam_t) reads
    holds its JSON type; else a ConfigError."""
    def section(key, defaults):
        merge_checked(defaults, checked(key, {}, meta.get(key)), f"{key}.")
        return defaults

    config = ModelConfig(**section("model_config", asdict(ModelConfig())))
    for key in ("step", "adam_t"):
        checked(key, 0, meta.get(key))
    ranges = []
    for key in ("pitch_range", "energy_range"):
        pair = checked(key, [], meta.get(key))
        if len(pair) != 2:
            raise ConfigError(f"key '{key}' expects two numbers, got {pair!r}")
        ranges.append([checked(key, 0.0, v) for v in pair])
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
    model.set_ranges(*ranges)
    adapted = None
    if strategy is not None:
        adapted = AdaptedModel(model, strategy)
        adapted.extras.load_state_arrays(arrays, "extras.")
    return LoadedCheckpoint(model=model, adapted=adapted, meta=meta, arrays=arrays)


# -----------------------------------------------------------------------------
# data plumbing shared by both loops
# -----------------------------------------------------------------------------


def compute_feature_ranges(utterances):
    """(pitch_range, energy_range) over a training split; pitch is the
    interpolated log-F0 so unvoiced frames never collapse the low end."""
    if not utterances:
        raise InputError("cannot compute feature ranges from an empty split")
    log_f0 = np.concatenate([u.log_f0 for u in utterances])
    energy = np.concatenate([u.energy for u in utterances])
    return (float(log_f0.min()), float(log_f0.max())), (float(energy.min()), float(energy.max()))


@functools.lru_cache(maxsize=2)
def _epoch_order(seed, n, epoch):
    """The read-only permutation of range(n) for one epoch. A batch of at
    most n positions spans at most two epochs, so two cached orders serve
    every step without a redraw."""
    perm = rng_for(seed, "order", epoch).permutation(n)
    perm.flags.writeable = False
    return perm


class _Batcher:
    """Deterministic, resumable batch order: position j in the global stream
    maps to _epoch_order(seed, n, j // n)[j % n], a pure function of (seed, j)."""

    def __init__(self, seed, n, batch_size):
        if n < 1:
            raise InputError("empty training split")
        self.seed, self.n, self.batch_size = seed, n, batch_size

    def batch(self, step):
        base = step * self.batch_size
        return [int(_epoch_order(self.seed, self.n, j // self.n)[j % self.n])
                for j in range(base, base + self.batch_size)]


class _LossLog:
    """A TSV log, one row per logged step. Opened at `start_step`, it keeps
    only the rows an earlier run logged at or before that step, so a resumed
    run logs each step once."""

    def __init__(self, path, header_extra=(), start_step=0):
        self.path = path
        rows = []
        if start_step and os.path.exists(path):
            with open(path) as f:
                rows = [line for line in f
                        if line[:1].isdigit() and int(line.split("\t", 1)[0]) <= start_step]
        with open(path, "w") as f:
            for line in header_extra:
                f.write(line + "\n")
            f.write("step\t" + "\t".join(LOSS_NAMES) + "\ttotal\tlr\n")
            f.writelines(rows)

    def append(self, step, breakdown, lr):
        with open(self.path, "a") as f:
            row = "\t".join(f"{v:.6f}" for v in breakdown.row())
            f.write(f"{step}\t{row}\t{lr:.8f}\n")


def _aligner_frozen(model):
    """True when nothing the aligner reads trains: its own tensors and the
    phoneme embedding table it projects."""
    reads = model.aligner.parameters() + [model.encoder.embed.table]
    return not any(p.requires_grad for p in reads)


def _halves(batch_size):
    """A step's two half-packs of batch positions: [0, ceil(B/2)) and the rest."""
    mid = (batch_size + 1) // 2
    return range(mid), range(mid, batch_size)


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS, through ctypes, or None when numpy ships
    none with the thread-count calls."""
    libs = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                         "numpy.libs", "libscipy_openblas*.so")))
    lib = ctypes.CDLL(libs[0]) if libs else None
    calls = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")
    if lib is None or not all(hasattr(lib, c) for c in calls):
        return None
    lib.scipy_openblas_get_num_threads64_.argtypes = []
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads64_.restype = None
    return lib


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with BLAS at one thread, then restore the count. A
    BLAS whose count cannot be set is a ConfigError, unless the environment
    already holds it to one thread."""
    lib = _openblas()
    if lib is None:
        if "1" not in (os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")):
            raise ConfigError("training needs one BLAS thread, and numpy's BLAS thread count "
                              "cannot be set from here; set OPENBLAS_NUM_THREADS=1")
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def _serve(conn, half, positions, grad):
    """A worker's loop: for each step `conn` sends, compute that step's
    half-pack at `positions` into `grad` and send back its breakdown. An
    error is sent as (type, message), then raised."""
    try:
        while True:
            step = conn.recv()
            conn.send(half(step, positions, grad))
    except BaseException as e:
        conn.send((type(e), str(e)))
        raise


class _SecondHalf:
    """Each step's second half-pack, computed by `half(step, positions,
    out)` into the shared array `grad`. When this process may use two CPUs,
    a worker forked here computes it while the caller computes the first
    half (`start`, then `result`); else `result` computes it in this
    process. Forked, not spawned: the worker takes the model, the split and
    the frozen alignments as they are, and sees each Adam update through
    the inherited shared buffer. The worker is killed and reaped on exit,
    and it dies with the main process, whose death closes their pipe."""

    def __init__(self, half, positions, flat):
        self.half, self.positions = half, positions
        self.grad = _shared_empty(flat.size, flat.dtype)
        self.pid = None
        affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
        if positions and affinity is not None and len(affinity(0)) >= 2:
            self.conn, theirs = multiprocessing.Pipe()
            self.pid = os.fork()
            if self.pid == 0:
                try:
                    self.conn.close()  # the last copy of the main process's end must be its own
                    _serve(theirs, half, positions, self.grad)
                finally:
                    os._exit(1)
            theirs.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pid is not None:
            self.conn.close()
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)

    def start(self, step):
        if self.pid is not None:
            self.conn.send(step)

    def result(self, step):
        """The second half's LossBreakdown at `step`, its gradient in `grad`.
        A worker's error is raised here as its own type, naming the step."""
        if self.pid is None:
            return self.half(step, self.positions, self.grad)
        try:
            answer = self.conn.recv()
        except EOFError:
            raise InternalInvariantError(
                f"the worker of the second half-pack ended at step {step + 1}") from None
        if isinstance(answer, LossBreakdown):
            return answer
        kind, message = answer
        # __new__ alone: a type's own __init__ may take other arguments (ShapeError)
        raise kind.__new__(kind, f"second half-pack of step {step + 1}: {message}")


def _train_steps(model, trainable, utterances, sched, seed, *, start_step, opt,
                 hooks_fn, log, val_utterances, val_log, ckpt_every,
                 save_fn, log_every, val_every):
    """The shared step loop. `hooks_fn` (see compute_losses, or None) gives
    a pack its adapter tables: once per half-pack of a training step, and
    once per pack of each validation. `opt` is an Adam, built over
    `trainable`."""
    batcher = _Batcher(seed, len(utterances), sched.batch_size)
    alignments = (frozen_alignments(model, utterances, sched.batch_size)
                  if _aligner_frozen(model) else None)

    def half(step, positions, out):
        """The LossBreakdown of one half-pack; its flat gradient goes into `out`."""
        for _, p in trainable:
            p.grad = None
        batch = [batcher.batch(step)[pos] for pos in positions]
        rngs = [rng_for(seed, "dropout", step, pos) for pos in positions]
        total, breakdown = compute_losses(
            model, [utterances[idx] for idx in batch], step, sched, rngs, hooks_fn=hooks_fn,
            alignments=None if alignments is None else [alignments[idx] for idx in batch])
        ad.backward(total)
        flat_grads(trainable, out=out)
        return breakdown

    first, second = _halves(sched.batch_size)
    grad = np.empty_like(opt.flat)
    inv_bs = 1.0 / sched.batch_size
    with _one_blas_thread(), _SecondHalf(half, second, opt.flat) as other:
        for step in range(start_step, sched.total_steps):
            other.start(step)
            breakdown = half(step, first, grad)
            if second:
                breakdown = LossBreakdown.average([breakdown, other.result(step)],
                                                  [len(first), len(second)])
                grad += other.grad
            grad *= inv_bs
            check_finite_grads(grad, step + 1, trainable)
            lr = lr_at(sched, step + 1)
            opt.step(grad, lr)
            done = step + 1
            if done % log_every == 0 or done == sched.total_steps:
                log.append(done, breakdown, lr)
            if val_utterances and (done % val_every == 0 or done == sched.total_steps):
                val_log.append(done, validate(model, val_utterances, done, sched, hooks_fn), lr)
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
def validate(model, utterances, step, sched, hooks_fn=None):
    """Teacher-forced loss over a split in packs of sched.batch_size, with no
    dropout streams, recording no tape. Returns the per-utterance average
    breakdown; weights are evaluated at `step` so logs stay comparable.
    `hooks_fn` gives each pack its adapter tables, as in `compute_losses`, so
    a hypernetwork generates once per pack. The aligner runs on every pass."""
    outs, counts = [], []
    for start in range(0, len(utterances), sched.batch_size):
        utts = utterances[start : start + sched.batch_size]
        outs.append(compute_losses(model, utts, step, sched, (), hooks_fn=hooks_fn)[1])
        counts.append(len(utts))
    return LossBreakdown.average(outs, counts)


# -----------------------------------------------------------------------------
# pretraining
# -----------------------------------------------------------------------------


def _ckpt_name(step):
    return f"ckpt-{step:06d}.bin"


def _newest_checkpoint(run_dir):
    """The run directory's ckpt-<step>.bin of the highest step, or None."""
    found = [(int(m[1]), m[0]) for m in map(re.compile(r"ckpt-(\d+)\.bin").fullmatch,
                                            os.listdir(run_dir)) if m]
    return os.path.join(run_dir, max(found)[1]) if found else None


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
    checkpoint path. Interrupted runs resume from the highest-step
    checkpoint, their logs cut back to its step; a resume with another model
    config, schedule (total_steps aside) or seed is a ConfigError."""
    os.makedirs(run_dir, exist_ok=True)
    utts = load_fitting_corpus(corpus_path, model_config, adaptation=False)
    train, val = (corpus_mod.filter_entries(utts, split=s) for s in ("train", "val"))

    run_meta = _run_meta(sched, seed)
    latest = _newest_checkpoint(run_dir)
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

    log = _LossLog(os.path.join(run_dir, "train_log.tsv"), start_step=start_step)
    val_log = _LossLog(os.path.join(run_dir, "val_log.tsv"), start_step=start_step)

    def save_fn(done):
        save_checkpoint(os.path.join(run_dir, _ckpt_name(done)), model, done, opt=opt,
                        extra_meta=run_meta)

    if start_step >= sched.total_steps:
        return latest
    _train_steps(
        model, trainable, train, sched, seed, start_step=start_step, opt=opt,
        hooks_fn=None, log=log, val_utterances=val, val_log=val_log,
        ckpt_every=ckpt_every, save_fn=save_fn,
        log_every=log_every, val_every=val_every,
    )
    return os.path.join(run_dir, _ckpt_name(sched.total_steps))


# -----------------------------------------------------------------------------
# adaptation
# -----------------------------------------------------------------------------


def adapt(checkpoint_path, corpus_path, strategy, sched, run_dir, seed, *,
          dims=None, log_every=10, val_every=200):
    """Adapt a pretrained checkpoint to the adaptation speakers with the
    strategy a label names ('tts0', 'ft', 'adapter_e', 'hyper_evd', ...;
    see StrategyConfig.parse) and `dims`. Returns the adapted checkpoint
    path.

    An input that is not a pretraining checkpoint is a StateError. tts0
    trains nothing: the output file is a byte-for-byte copy of the input,
    made once the input loads as a pretraining checkpoint. For every other
    strategy the frozen tensors are snapshotted before and compared bitwise
    after training; any drift is an internal error. Nothing in `run_dir`
    changes until the inputs have loaded.
    """
    strategy = StrategyConfig.parse(strategy, dims)
    loaded = load_checkpoint(checkpoint_path)
    if loaded.meta.get("kind") != "pretrain":
        raise StateError(f"{checkpoint_path} is not a pretraining checkpoint")
    model = loaded.model
    if strategy.name != "tts0":
        utts = load_fitting_corpus(corpus_path, model.config, adaptation=True)
    os.makedirs(run_dir, exist_ok=True)
    out_path = os.path.join(run_dir, "adapted.bin")
    log_path = os.path.join(run_dir, "adapt_log.tsv")
    # adaptation never resumes: a rerun rewrites the logs instead of appending
    for stale in (log_path, os.path.join(run_dir, "adapt_val_log.tsv")):
        if os.path.exists(stale):
            os.remove(stale)
    if strategy.name == "tts0":
        _LossLog(log_path, header_extra=(
            f"# strategy\t{strategy.label()}", "# trainable_params\t0"))
        shutil.copyfile(checkpoint_path, out_path)
        return out_path

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
        save_checkpoint(out_path, model, done, adapted=adapted)

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
