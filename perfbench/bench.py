"""Workload process of the repository benchmark; start it through run.py,
which pins BLAS and OpenMP to one thread first.

Drives the library in-process the way the acceptance pipeline does
(corpus.generate_corpus, training.pretrain, training.adapt,
TTSModel.synthesize, metrics.evaluate), from one single-threaded process.
Training is a batch job; inference is a closed loop with one caller. See
README.md for the workloads, the metrics and what each layer metric should
move. run.py passes it --workload, --seed, --seconds and --trace.

The last line of stdout is the JSON result; every line before it is the
environment, a set-up time, a check, a metric or an informational figure.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from hyperadapt import corpus, featio, kernels, metrics, training
from hyperadapt.adaptation import AdapterDims
from hyperadapt.model import ModelConfig, TTSModel
from hyperadapt.training import ScheduleConfig, adaptation_schedule

import layertrace

HOP_SECONDS = 256 / 16000  # audio seconds per mel frame: hop 256 at 16 kHz
BATCH = 8
LOG_EVERY = 5
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
DESK_MODEL = ModelConfig(vocab_size=32, n_mels=20, d_h=32, heads=2, enc_layers=2,
                         dec_layers=2, d_spk=24, d_attn=16, postnet_channels=24,
                         postnet_layers=3)
DESK_DIMS = AdapterDims(d_h=32, d_r=4, d_1=24, d_2=8, d_l=6, d_s=3)
ADAPT_LR = 1e-3
BACKBONE_STEPS = 8  # set-up pretraining that adapt and infer start from
SERVED_ADAPT_STEPS = 10  # set-up hyper_evd adaptation that infer serves
QUALITY_UTTS = 16  # training utterances the mel-loss check is scored on
REFERENCE_PROBE_S = 0.0013  # one speed probe's time on the reference machine
# The power the probe's ratio is raised to. Between the host's fast and slow
# spells the probe's time moves more, in log terms, than a step's. With one
# factor per run, 30 runs of the training workloads fitted 0.5 to 0.67; with
# a factor per measured time (PROBE_WINDOW), 22 runs of all four workloads
# spread least at 0.75 to 1.
PROBE_EXPONENT = 0.75
PROBE_WINDOW = 16  # samples around a measured time that give its factor
PROBE_EVERY_UTTS = 4  # infer samples the speed probe before every 4th call
PROBE_AT_PHASE = 3  # set-up samples the speed probe this often at each phase boundary

# `rate` turns --seconds into a fixed amount of work (optimizer steps, or
# infer rounds) so both sides of a comparison do identical work; it is about
# what the reference machine does per second at the defining commit.
WORKLOADS = {
    "pretrain": {"kind": "pretrain", "corpus": {}, "rate": 7.5},
    "pretrain-mixed": {"kind": "pretrain", "corpus": {"min_phonemes": 8, "max_phonemes": 56},
                       "rate": 5.0},
    "adapt": {"kind": "adapt", "strategy": "hyper_evd", "rate": 6.5},
    "infer": {"kind": "infer", "rate": 0.8},
}

E2E_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "step_rtf_p50": "s/s", "step_rtf_tail": "s/s",
    "job_rtf": "s/s",
}


def desk_schedule(total):
    """The desk pretraining schedule's phases in their order (LR warm-up,
    variance losses on, binarization ramp, step decays at 60% and 80%),
    compressed so every loss term is at full weight from step 4 on."""
    return ScheduleConfig(
        peak_lr=1e-3, warmup_steps=1, duration_start_step=2, binarization_ramp_steps=2,
        milestones=(max(2, int(0.6 * total)), max(2, int(0.8 * total))),
        total_steps=total, batch_size=BATCH,
    )


def adapt_schedule(total):
    return adaptation_schedule(total, lr=ADAPT_LR, batch_size=BATCH)


@dataclass
class Seeds:
    corpus: int
    pretrain: int
    adapt: int

    @classmethod
    def derive(cls, seed):
        return cls(*(int(s) for s in np.random.SeedSequence(seed).generate_state(3) % 2**31))


class Checks:
    """Named pass/fail checks plus the operation counts of the result line."""

    def __init__(self):
        self.failed = []
        self.attempted = 0
        self.ops_failed = 0

    def check(self, name, ok, detail=""):
        print(f"check {name}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
        if not ok:
            self.failed.append(name)

    def ops(self, attempted, failed=0):
        self.attempted += attempted
        self.ops_failed += failed


class SpeedProbe:
    """Tracks how fast this host runs the interpreter right now.

    On a shared host the same work can take 25% longer from one run to the
    next while the process's CPU time equals its wall time: the host slows
    the process, not anything in it. The probe times a fixed piece of pure
    Python shaped like the autodiff tape (linked slotted objects, dict
    updates, an id set), which calls no hyperadapt code, so no change to the
    library moves it. `scale()` and `local_scales()` turn wall time
    measured next to the probe into seconds at the reference machine's speed.
    """

    class _Node:
        __slots__ = ("value", "prev", "peer")

        def __init__(self, value, prev, peer):
            self.value, self.prev, self.peer = value, prev, peer

    def __init__(self):
        self.samples = []

    def sample(self):
        start = time.perf_counter()
        nodes, table, seen = [], {}, set()
        for i in range(1500):
            node = self._Node(i, nodes[-1] if nodes else None, table.get(i & 63))
            nodes.append(node)
            table[i & 63] = node
        for node in reversed(nodes):
            seen.add(id(node))
        self.samples.append(time.perf_counter() - start)

    @staticmethod
    def _factor(samples):
        return (REFERENCE_PROBE_S / statistics.median(samples)) ** PROBE_EXPONENT

    def scale(self):
        """One factor for everything measured while the samples were taken."""
        return self._factor(self.samples)

    def local_scales(self):
        """Factor i is for the time between samples i and i + 1: from the
        median of the PROBE_WINDOW samples around that span, so a change of
        host speed within a run corrects only the times measured during it."""
        half = PROBE_WINDOW // 2
        return [self._factor(self.samples[max(0, i - half + 1):i + half + 1])
                for i in range(len(self.samples))]


class StepClock:
    """Stamps the return of every Adam.step while active. `on_step` runs
    after each stamp (the speed probe, or the traced run advancing its step
    label); its time is left out of the step intervals and the job's wall."""

    def __init__(self, on_step=None):
        self.stamps = []
        self.excluded = []
        self.on_step = on_step

    def __enter__(self):
        self._original = training.Adam.__dict__["step"]
        original, stamps, excluded, on_step = (self._original, self.stamps, self.excluded,
                                               self.on_step)

        def step(opt, *args, **kwargs):
            original(opt, *args, **kwargs)
            now = time.perf_counter()
            stamps.append(now)
            if on_step is not None:
                on_step()
                excluded.append(time.perf_counter() - now)

        training.Adam.step = step
        return self

    def __exit__(self, *exc):
        training.Adam.step = self._original

    def intervals(self):
        gaps = np.diff(self.stamps)
        if self.excluded:
            gaps -= np.asarray(self.excluded[:-1])
        return list(gaps)


@dataclass
class Job:
    """One pretrain or adapt call: wall time (less `on_step` time), step
    intervals, logged training and validation totals, the checkpoint."""

    steps: int
    wall: float
    intervals: list
    train_totals: list
    val_totals: list
    checkpoint: str
    log_path: str


def logged_totals(path):
    """The `total` column of a loss log, in row order."""
    col, rows = None, []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                continue
            cells = line.rstrip("\n").split("\t")
            if col is None:
                col = cells.index("total")
            else:
                rows.append(float(cells[col]))
    return rows


def _timed_job(call, out_dir, train_log, val_log, steps, on_step):
    with StepClock(on_step) as clock:
        start = time.perf_counter()
        ckpt = call()
        wall = time.perf_counter() - start - sum(clock.excluded)
    log = os.path.join(out_dir, train_log)
    return Job(steps, wall, clock.intervals(), logged_totals(log),
               logged_totals(os.path.join(out_dir, val_log)), ckpt, log)


def run_pretrain(manifest, seed, steps, out_dir, on_step=None):
    def call():
        return training.pretrain(manifest, DESK_MODEL, desk_schedule(steps), out_dir, seed,
                                 log_every=LOG_EVERY, val_every=steps,
                                 ckpt_every=max(1, steps // 3))
    return _timed_job(call, out_dir, "train_log.tsv", "val_log.tsv", steps, on_step)


def run_adapt(backbone, manifest, strategy, seed, steps, out_dir, on_step=None):
    def call():
        return training.adapt(backbone, manifest, strategy, adapt_schedule(steps), out_dir, seed,
                              dims=DESK_DIMS, log_every=LOG_EVERY, val_every=steps)
    return _timed_job(call, out_dir, "adapt_log.tsv", "adapt_val_log.tsv", steps, on_step)


def mel_loss(model, utts, steps, sched, hooks_fn=None):
    """Teacher-forced mel L1 (before plus after the postnet) over `utts`,
    dropout off."""
    bd = training.validate(model, utts, steps, sched, hooks_fn)
    return bd.components["mel_pre"] + bd.components["mel_post"]


def mel_losses(kind, state, seed, job):
    """Mel loss on the first QUALITY_UTTS training utterances of the job,
    for the model the job started from (a fresh seeded backbone for
    pretraining; the set-up backbone for adaptation, since adapters start as
    the identity) and for the checkpoint it wrote."""
    if kind == "pretrain":
        utts, sched = pretrain_utts(state, "train"), desk_schedule(job.steps)
        start = TTSModel(DESK_MODEL, seed=seed)
        start.set_ranges(*training.compute_feature_ranges(utts))
    else:
        utts, sched = adaptation_utts(state, "train"), adapt_schedule(job.steps)
        start = training.load_checkpoint(state.backbone).model
    sample = utts[:QUALITY_UTTS]
    end = training.load_checkpoint(job.checkpoint)
    return (mel_loss(start, sample, job.steps, sched),
            mel_loss(end.model, sample, job.steps, sched, lambda u: end.hooks_for(u.embedding)))


def check_job(checks, label, job, mel=None, strategy=None):
    """Loss sanity and checkpoint reload for one training call; `mel` is the
    (start, end) mel loss. Frozen-weight drift is checked inside
    training.adapt, which raises on any change."""
    checks.ops(job.steps)
    totals = job.train_totals + job.val_totals
    checks.check(f"{label}.losses_finite", bool(job.val_totals) and all(np.isfinite(totals)),
                 f"{len(totals)} logged totals")
    if mel is not None:
        checks.check(f"{label}.loss_decreased", mel[1] < mel[0],
                     f"mel loss on {QUALITY_UTTS} training utterances {mel[1]:.4f} after vs "
                     f"{mel[0]:.4f} before")
    loaded = training.load_checkpoint(job.checkpoint)
    _, stored = featio.read_checkpoint(job.checkpoint)
    state = loaded.adapted.state_arrays() if loaded.adapted else loaded.model.state_arrays()
    same = all(np.array_equal(state[k], stored[k]) for k in state)
    if strategy is not None:
        same = same and loaded.adapted is not None and loaded.meta.get("strategy") == strategy
    checks.check(f"{label}.checkpoint_reloads", same, os.path.basename(job.checkpoint))
    return loaded


def synthesize_fn(loaded, frames=None):
    """The closed-loop caller: one utterance at a time, adapters generated
    from the utterance's speaker embedding."""
    def synth(utt):
        mel, info = loaded.model.synthesize(utt.phonemes, utt.embedding,
                                            hooks=loaded.hooks_for(utt.embedding))
        if frames is not None:
            frames.append((mel.shape[0], utt.mel.shape[0]))
        return mel, info
    return synth


def embed(mel):
    return corpus.synthetic_embedding(mel, DESK_MODEL.d_spk)


def evaluate(checks, loaded, utts, on_utt=None):
    """One metrics.evaluate pass; returns (report, wall, synthesized frames,
    reference frames). The caller checks report.n_failed."""
    frames = []
    synth = synthesize_fn(loaded, frames)
    if on_utt is not None:
        inner = synth

        def synth(utt):
            on_utt()
            return inner(utt)
    start = time.perf_counter()
    report = metrics.evaluate(synth, utts, embed)
    wall = time.perf_counter() - start
    checks.ops(len(report.rows), report.n_failed)
    out, ref = (sum(f) for f in zip(*frames)) if frames else (0, 0)
    return report, wall, out, ref


# -----------------------------------------------------------------------------
# set-up
# -----------------------------------------------------------------------------


@dataclass
class State:
    manifest: str
    utts: list
    backbone: str = None
    served_job: Job = None
    served: object = None  # the LoadedCheckpoint infer serves
    artifacts: list = field(default_factory=list)  # files every set-up must reproduce


def adaptation_utts(state, split=None):
    return [u for u in state.utts if corpus.is_adaptation_speaker(u.speaker)
            and (split is None or u.split == split)]


def pretrain_utts(state, split=None):
    return [u for u in state.utts if not corpus.is_adaptation_speaker(u.speaker)
            and (split is None or u.split == split)]


def setup(spec, root, seeds, checks, probe):
    """Corpus generation and load, the checkpoints the workload starts from,
    and a warm-up. The speed probe is sampled PROBE_AT_PHASE times at each
    phase boundary and after every optimizer step; probe time is left out of
    the phase times. Returns (State, {phase: seconds})."""
    clock = time.perf_counter
    marks = []

    def mark():
        for _ in range(PROBE_AT_PHASE):
            probe.sample()
        marks.append((clock(), sum(probe.samples)))

    def between(a, b):
        return (marks[b][0] - marks[a][0]) - (marks[b][1] - marks[a][1])

    mark()
    spec_ = corpus.CorpusSpec(utts_per_speaker=24, **spec.get("corpus", {}))
    manifest = corpus.generate_corpus(spec_, seeds.corpus, os.path.join(root, "corpus"))
    mark()
    state = State(manifest, corpus.load_corpus(manifest), artifacts=[manifest])
    mark()
    kind = spec["kind"]
    if kind == "pretrain":
        run_pretrain(manifest, seeds.pretrain, 2, os.path.join(root, "warmup"), probe.sample)
    else:
        job = run_pretrain(manifest, seeds.pretrain, BACKBONE_STEPS, os.path.join(root, "backbone"),
                           probe.sample)
        check_job(checks, "setup.backbone", job)
        state.backbone = job.checkpoint
        state.artifacts.append(job.checkpoint)
    if kind == "infer":
        state.served_job = run_adapt(state.backbone, manifest, "hyper_evd", seeds.adapt,
                                     SERVED_ADAPT_STEPS, os.path.join(root, "served"),
                                     probe.sample)
        state.served = training.load_checkpoint(state.served_job.checkpoint)
        state.artifacts.append(state.served_job.checkpoint)
        synth = synthesize_fn(state.served)
        for utt in adaptation_utts(state)[:4]:
            synth(utt)
    mark()
    return state, {"setup": between(0, 3), "generate_corpus": between(0, 1),
                   "load_corpus": between(1, 2)}


def same_files(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


# -----------------------------------------------------------------------------
# measured phase
# -----------------------------------------------------------------------------


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it; the maximum when there are too few samples."""
    ordered = sorted(values)
    k = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def mean_ref_seconds(utts):
    """Mean reference (ground-truth) audio seconds of one utterance."""
    return HOP_SECONDS * float(np.mean([u.mel.shape[0] for u in utts]))


def training_job(spec, state, seeds, steps, out_dir, on_step=None):
    if spec["kind"] == "pretrain":
        return run_pretrain(state.manifest, seeds.pretrain, steps, out_dir, on_step)
    return run_adapt(state.backbone, state.manifest, spec["strategy"], seeds.adapt, steps,
                     out_dir, on_step)


def step_metrics(raw_times, times, unit_audio, raw_wall, wall, wall_audio, what):
    """Timing metrics of a measured phase from its speed-corrected `times`
    and `wall`, each with a note on how it was taken. The uncorrected values
    go to `info`."""
    raw_rtf = [t / unit_audio for t in raw_times]
    rtf = [t / unit_audio for t in times]
    tail_value, tail_pct = tail(rtf)
    e2e = {"step_rtf_p50": statistics.median(rtf), "step_rtf_tail": tail_value,
           "job_rtf": wall / wall_audio}
    notes = {
        "step_rtf_p50": f"median of {len(rtf)} {what}, over {unit_audio:.3f} s of reference audio",
        "step_rtf_tail": f"p{tail_pct:.0f} of {len(rtf)} {what}",
        "job_rtf": f"{raw_wall:.3f} s over {wall_audio:.1f} s of reference audio",
    }
    info = {"raw.step_rtf_p50": (statistics.median(raw_rtf), "s/s"),
            "raw.step_rtf_tail": (tail(raw_rtf)[0], "s/s"),
            "raw.job_rtf": (raw_wall / wall_audio, "s/s"),
            "speed_scale": (wall / raw_wall, "ratio")}
    return e2e, notes, info


def measure_training(spec, state, seeds, steps, root, checks, probe):
    """The timed job plus its checks. Returns (end-to-end metrics, notes,
    info figures)."""
    pretraining = spec["kind"] == "pretrain"
    split = pretrain_utts if pretraining else adaptation_utts
    job = training_job(spec, state, seeds, steps, os.path.join(root, "job"), probe.sample)
    mel = mel_losses(spec["kind"], state, seeds.pretrain, job)
    loaded = check_job(checks, "job", job, mel, None if pretraining else spec["strategy"])
    report, _, out, ref = evaluate(checks, loaded, split(state, "val"))
    checks.check("job.evaluate_no_failures", report.n_failed == 0,
                 f"{report.n_failed} of {len(report.rows)} rows failed")
    train = split(state, "train")
    # the first epoch also fills training's per-utterance pitch-target cache;
    # steady-state steps come after it (job_rtf keeps the whole call). A job
    # shorter than that, from a small --seconds, keeps every step.
    first_epoch = -(-len(train) // BATCH)
    if len(job.intervals) <= first_epoch:
        first_epoch = 0
    # the probe is sampled after every step, so interval i lies between
    # samples i and i + 1
    factors = probe.local_scales()[:len(job.intervals)]
    corrected = [t * f for t, f in zip(job.intervals, factors)]
    batch_audio = BATCH * mean_ref_seconds(train)
    e2e, notes, info = step_metrics(
        job.intervals[first_epoch:], corrected[first_epoch:], batch_audio,
        job.wall, job.wall * sum(corrected) / sum(job.intervals), steps * batch_audio,
        "optimizer steps after the first epoch" if first_epoch else "optimizer steps")
    info.update(quality(mel, report, out / ref))
    return e2e, notes, info


def infer_round(state, checks, on_utt=None, probe=None):
    """Synthesize every adaptation-speaker utterance one at a time, then score
    one metrics.evaluate pass over them. Returns (per-call seconds and
    synthesized frames and index of the speed-probe sample before it,
    evaluate seconds, report, mels)."""
    utts = adaptation_utts(state)
    synth = synthesize_fn(state.served)
    calls, mels = [], []
    for i, utt in enumerate(utts):
        if probe is not None and i % PROBE_EVERY_UTTS == 0:
            probe.sample()
        if on_utt is not None:
            on_utt()
        start = time.perf_counter()
        mel, _ = synth(utt)
        calls.append((time.perf_counter() - start, mel.shape[0],
                      len(probe.samples) - 1 if probe is not None else None))
        mels.append(mel)
    checks.ops(len(utts))
    report, wall, _, _ = evaluate(checks, state.served, utts, on_utt)
    return calls, wall, report, mels


def measure_infer(state, seeds, rounds, checks, probe):
    """Every round synthesizes the same utterances, so each utterance's call
    time is taken as its median over the rounds, and p50 and the tail are
    over those per-utterance figures: the tail then ranks utterances, not
    the rare interpreter pause a 1-in-100 call catches."""
    utts = adaptation_utts(state)
    ref = sum(u.mel.shape[0] for u in utts)
    calls, evals, mcd, n_failed = [], [], [], 0
    for _ in range(rounds):
        round_calls, wall, report, _ = infer_round(state, checks, probe=probe)
        calls.append(round_calls)
        # the pass runs after the round's last probe sample
        evals.append((wall, len(probe.samples) - 1))
        mcd.append(report.mcd.mean)
        n_failed += report.n_failed
    checks.check("infer.evaluate_no_failures", n_failed == 0,
                 f"{n_failed} rows failed over {rounds} evaluate passes")
    checks.check("infer.rounds_identical", len(set(mcd)) == 1,
                 f"mcd over {rounds} rounds: {sorted(set(mcd))}")
    served = state.served_job
    mel = mel_losses("adapt", state, seeds.pretrain, served)
    check_job(checks, "setup.served", served, mel, "hyper_evd")
    factors = probe.local_scales()
    call_s = np.array([[t for t, _, _ in c] for c in calls])
    call_factors = np.array([[factors[p] for _, _, p in c] for c in calls])
    out = sum(o for c in calls for _, o, _ in c)
    utt_audio = mean_ref_seconds(utts)
    # an evaluate pass synthesizes audio and scores it against the reference
    # (DTW costs their frame counts' product), so it is taken over both
    evaluated_audio = HOP_SECONDS * (ref + out / rounds)
    e2e, notes, info = step_metrics(
        list(np.median(call_s, axis=0)), list(np.median(call_s * call_factors, axis=0)),
        utt_audio, statistics.median(w for w, _ in evals),
        statistics.median(w * factors[p] for w, p in evals), evaluated_audio,
        f"utterances, each the median of {rounds} synthesize calls")
    notes["job_rtf"] = (f"median of {rounds} evaluate passes; " + notes["job_rtf"]
                        .replace("reference audio", "synthesized plus reference audio"))
    info.update(quality(mel, report, out / (rounds * ref)))
    info["synth_rtf_output"] = (float(call_s.sum()) / (out * HOP_SECONDS), "s/s")
    return e2e, notes, info


# -----------------------------------------------------------------------------
# traced run
# -----------------------------------------------------------------------------


def layer_metrics(tracer, wall, units):
    """Per-layer numbers of a traced phase of `units` steps or utterances:
    self ms and calls per unit for every layer (a layer that does not run on
    the workload reads 0), counters per unit, and the traced wall time per
    unit."""
    totals = tracer.layer_totals()
    out = {}
    for name in layertrace.LAYERS:
        self_s, calls = totals.get(name, (0.0, 0))
        out[f"{name}.ms"] = (1e3 * self_s / units, "ms")
        out[f"{name}.calls"] = (calls / units, "count")
    for name in ("autodiff.nodes", "kernels.conv1d_forward.flop", "kernels.conv1d_forward.bytes",
                 "kernels.conv1d_backward.flop", "kernels.conv1d_backward.bytes",
                 "kernels.forward_sum.cells", "kernels.viterbi.cells", "kernels.dtw_path.cells"):
        unit = "B" if name.endswith(".bytes") else "count"
        out[name] = (tracer.counts.get(name, 0.0) / units, unit)
    out["trace.unit_ms"] = (1e3 * wall / units, "ms")
    return out


def fixed_kernel_metrics():
    out = {}
    for name, (seconds, ops, nbytes) in layertrace.time_fixed_kernels().items():
        out[f"kernels.{name}.fixed_ms"] = (1e3 * seconds, "ms")
        out[f"kernels.{name}.fixed_ops"] = (ops, "count")
        out[f"kernels.{name}.fixed_bytes"] = (nbytes, "B")
    return out


def traced_training(spec, state, seeds, steps, root, checks, trace_dir):
    """The untraced job, then the same job traced; they must agree bit for
    bit. Returns (tracer, untraced wall, traced wall, steps, quality figures
    of the traced model)."""
    plain = training_job(spec, state, seeds, steps, os.path.join(root, "plain"))
    tracer = layertrace.Tracer()
    tracer.unit = 1

    def next_step():
        tracer.unit += 1

    uninstall = layertrace.install(tracer)
    try:
        traced = training_job(spec, state, seeds, steps, os.path.join(root, "traced"), next_step)
    finally:
        uninstall()
    checks.ops(steps)
    checks.check("trace.losses_identical", same_files(plain.log_path, traced.log_path),
                 "logged losses of the untraced and traced jobs")
    _, a = featio.read_checkpoint(plain.checkpoint)
    _, b = featio.read_checkpoint(traced.checkpoint)
    checks.check("trace.checkpoints_identical",
                 a.keys() == b.keys() and all(a[k].tobytes() == b[k].tobytes() for k in a),
                 f"{len(a)} arrays")
    tracer.write_spans(os.path.join(trace_dir, "spans.jsonl"))
    pretraining = spec["kind"] == "pretrain"
    mel = mel_losses(spec["kind"], state, seeds.pretrain, traced)
    loaded = check_job(checks, "traced", traced, mel, None if pretraining else spec["strategy"])
    split = pretrain_utts if pretraining else adaptation_utts
    report, _, out, ref = evaluate(checks, loaded, split(state, "val"))
    checks.check("traced.evaluate_no_failures", report.n_failed == 0,
                 f"{report.n_failed} of {len(report.rows)} rows failed")
    return tracer, plain.wall, traced.wall, steps, quality(mel, report, out / ref)


def quality(mel, report, len_ratio):
    return {"training.mel_loss_ratio": (mel[1] / mel[0], "ratio"),
            "metrics.mcd_db": (report.mcd.mean, "dB"),
            "metrics.synth_len_ratio": (len_ratio, "ratio")}


def traced_infer(state, seeds, checks, trace_dir):
    """One untraced round, then the same round traced; their synthesized mels
    and evaluate MCDs must agree bit for bit. Same return shape as
    traced_training, with units counted in synthesize calls."""
    start = time.perf_counter()
    calls, _, plain_report, plain_mels = infer_round(state, checks)
    plain_wall = time.perf_counter() - start
    ratio = sum(o for _, o, _ in calls) / sum(u.mel.shape[0] for u in adaptation_utts(state))
    tracer = layertrace.Tracer()
    tracer.unit = 0

    def next_utt():
        tracer.unit += 1

    uninstall = layertrace.install(tracer)
    try:
        start = time.perf_counter()
        _, _, report, traced_mels = infer_round(state, checks, next_utt)
        traced_wall = time.perf_counter() - start
    finally:
        uninstall()
    checks.check("trace.outputs_identical",
                 all(a.tobytes() == b.tobytes() for a, b in zip(plain_mels, traced_mels))
                 and report.mcd.mean == plain_report.mcd.mean,
                 f"{len(plain_mels)} synthesized mels and the evaluate MCD "
                 f"({report.mcd.mean:.6f} vs {plain_report.mcd.mean:.6f} dB untraced)")
    checks.check("traced.evaluate_no_failures", report.n_failed == 0,
                 f"{report.n_failed} of {len(report.rows)} rows failed")
    tracer.write_spans(os.path.join(trace_dir, "spans.jsonl"))
    mel = mel_losses("adapt", state, seeds.pretrain, state.served_job)
    return tracer, plain_wall, traced_wall, tracer.unit, quality(mel, report, ratio)


# -----------------------------------------------------------------------------
# entry point
# -----------------------------------------------------------------------------


def environment(args):
    threads = {k: os.environ.get(k, "") for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": kernels.ACTIVE_BACKEND,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "threads": threads,
    }


def print_metrics(label, values, notes=None):
    for name, (value, unit) in values.items():
        note = f"  ({notes[name]})" if notes and name in notes else ""
        print(f"{label} {name} = {value:.6g} {unit}{note}")


def run_traced(args, spec, state, setup_times, seeds, work, root, checks, trace_dir):
    if spec["kind"] == "infer":
        tracer, plain, traced, units, extra = traced_infer(state, seeds, checks, trace_dir)
    else:
        tracer, plain, traced, units, extra = traced_training(
            spec, state, seeds, work, root, checks, trace_dir)
    layers = layer_metrics(tracer, traced, units)
    layers["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
    layers.update(extra)
    layers["corpus.generate_corpus.s"] = (setup_times["generate_corpus"], "s")
    layers["corpus.load_corpus.s"] = (setup_times["load_corpus"], "s")
    layers.update(fixed_kernel_metrics())
    print_metrics("metric", layers)
    with open(os.path.join(trace_dir, "layers.json"), "w") as f:
        json.dump({"environment": environment(args),
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}},
                  f, indent=1, sort_keys=True)
    return layers


def run(args, root, trace_dir):
    spec = WORKLOADS[args.workload]
    seeds = Seeds.derive(args.seed)
    checks = Checks()
    work = max(1, round(args.seconds * spec["rate"]))
    repeats = 1 if args.trace else SETUP_REPEATS
    setups, setup_s, setup_probe = [], [], SpeedProbe()
    for i in range(repeats):
        state, times = setup(spec, os.path.join(root, f"setup{i}"), seeds, checks, setup_probe)
        setups.append(state)
        setup_s.append(times["setup"])
        print(f"setup {i + 1}/{repeats}: {times['setup']:.3f} s (generate_corpus "
              f"{times['generate_corpus']:.3f} s, load_corpus {times['load_corpus']:.3f} s)")
    state = setups[-1]
    if repeats > 1:
        checks.check("setup.deterministic",
                     all(same_files(a, b) for other in setups[:-1]
                         for a, b in zip(other.artifacts, state.artifacts)),
                     f"{repeats} set-ups wrote identical manifests and checkpoints")
    if args.trace:
        return checks, run_traced(args, spec, state, times, seeds, work, root, checks, trace_dir)

    probe = SpeedProbe()
    if spec["kind"] == "infer":
        e2e, notes, info = measure_infer(state, seeds, work, checks, probe)
    else:
        e2e, notes, info = measure_training(spec, state, seeds, work, root, checks, probe)
    e2e["setup_s"] = statistics.median(setup_s) * setup_probe.scale()
    notes["setup_s"] = (f"median of {repeats} set-ups, corrected by "
                        f"{len(setup_probe.samples)} speed-probe samples taken during them")
    info["raw.setup_s"] = (statistics.median(setup_s), "s")
    info["setup_speed_scale"] = (setup_probe.scale(), "ratio")
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print_metrics("info", info)
    result = {name: (e2e[name], unit) for name, unit in E2E_UNITS.items()}
    print_metrics("metric", result, notes)
    return checks, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    print("environment " + json.dumps(environment(args), sort_keys=True))
    base = os.path.join(os.getcwd(), ".perfbench")
    root = os.path.join(base, f"run-{args.workload}-s{args.seed}-{os.getpid()}")
    trace_dir = os.path.join(base, "trace", f"{args.workload}-s{args.seed}")
    os.makedirs(root)
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
    try:
        checks, result = run(args, root, trace_dir)
    except Exception:  # a workload that raises is a failed run, reported in full
        traceback.print_exc()
        print("check run_completed: FAIL - the workload raised; see the traceback above")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
    correct = not checks.failed
    if not correct:
        print(f"FAILED checks: {', '.join(checks.failed)}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, checks.attempted),
        "failed": checks.ops_failed + len(checks.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
