"""A training step computed as two half-packs: the second in a forked worker
when the process may use two CPUs, else in the same process. The numbers
must not depend on where a half ran, on the CPU count or on the BLAS thread
setting, a worker's error must reach the main process, and no worker may
outlive its run. Synthesis and validation, which run at the host's BLAS
thread count, must give the same bits at one thread and at two."""

import contextlib
import dataclasses
import io
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from hyperadapt import autodiff as ad
from hyperadapt import training as tr
from hyperadapt.adaptation import AdaptedModel, AdapterDims, StrategyConfig
from hyperadapt.cli import load_config, main
from hyperadapt.corpus import CorpusSpec, generate_corpus, load_corpus
from hyperadapt.errors import ConfigError, InputError, NumericsError
from hyperadapt.model import ModelConfig, TTSModel

from oracles import off_identity

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
TWO_CPUS = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                              reason="the worker runs only when the process may use two CPUs")

TINY = {
    "corpus": {"utts_per_speaker": 4, "speakers_pretrain": 2, "speakers_adapt": 2},
    "model": {
        "vocab_size": 32, "n_mels": 20, "d_h": 24, "heads": 2, "enc_layers": 1,
        "dec_layers": 1, "d_spk": 24, "d_attn": 12, "postnet_channels": 16,
        "postnet_layers": 3,
    },
    "schedule": {
        "peak_lr": 1e-3, "warmup_steps": 2, "milestones": [6],
        "duration_start_step": 3, "total_steps": 20, "batch_size": 3,
        "binarization_ramp_steps": 2,
    },
    "adapt": {"strategy": "hyper_evd", "steps": 12, "lr": 1e-4, "batch_size": 3},
    "dims": {"d_r": 3, "d_2": 8, "d_l": 4, "d_s": 3},
}

# gen-corpus, pretrain and a hyper_evd adapt through the CLI, in one process;
# "one-cpu" first restricts that process to CPU 0, and "no-affinity" takes
# away os.sched_getaffinity, as on macOS and Windows
PIPELINE = """
import contextlib, io, os, sys
from hyperadapt.cli import main
cpus, cfg, out = sys.argv[1:]
if cpus == "one-cpu":
    os.sched_setaffinity(0, {0})
if cpus == "no-affinity":
    del os.sched_getaffinity

def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([*argv, "--config", cfg, "--out-dir", out]) == 0, argv
    return buf.getvalue().strip()

corpus = run("gen-corpus", "--seed", "11")
checkpoint = run("pretrain", "--seed", "3", "--corpus", corpus)
run("adapt", "--seed", "5", "--corpus", corpus, "--checkpoint", checkpoint)
"""


def children():
    """The pids of this thread's child processes."""
    path = f"/proc/self/task/{threading.get_native_id()}/children"
    return pathlib.Path(path).read_text().split()


def running(pid):
    """True while `pid` exists and is not a zombie."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    path = tmp_path_factory.mktemp("parallel") / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def pipeline_outputs(config, out, cpus="all-cpus", blas_threads=None):
    """{verb/file: bytes} of every log and container a CLI pipeline writes,
    run in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS",
                                                             "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", PIPELINE, cpus, config, str(out)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    files = {}
    for path in sorted(pathlib.Path(out).rglob("*")):
        if path.suffix in (".tsv", ".bin"):
            verb = path.relative_to(out).parts[0].rsplit("-", 2)[0]
            files[f"{verb}/{path.name}"] = path.read_bytes()
    return files


@pytest.fixture(scope="module")
def reference(config, tmp_path_factory):
    return pipeline_outputs(config, tmp_path_factory.mktemp("reference"))


def test_reference_pipeline_writes_every_log_and_checkpoint(reference):
    assert {"gen-corpus/corpus.bin", "pretrain/train_log.tsv", "pretrain/val_log.tsv",
            "pretrain/ckpt-000020.bin", "adapt/adapt_log.tsv", "adapt/adapt_val_log.tsv",
            "adapt/adapted.bin"} <= set(reference)


@pytest.mark.parametrize("case", [
    pytest.param({"cpus": "one-cpu"}, id="one-cpu", marks=TWO_CPUS),
    pytest.param({"cpus": "no-affinity"}, id="no-affinity"),
    pytest.param({"blas_threads": "1"}, id="blas-threads-1"),
    pytest.param({}, id="rerun"),
])
def test_logs_and_checkpoints_are_byte_identical(config, reference, tmp_path, case):
    outputs = pipeline_outputs(config, tmp_path / "out", **case)
    assert outputs.keys() == reference.keys()
    assert [name for name in outputs if outputs[name] != reference[name]] == []


def test_halves_split_the_batch_positions():
    assert tr._halves(8) == (range(4), range(4, 8))
    assert tr._halves(3) == (range(2), range(2, 3))
    assert tr._halves(1) == (range(1), range(1, 1))


@TWO_CPUS
def test_nan_in_the_worker_half_raises_in_the_main_process(monkeypatch, tmp_path):
    spec = CorpusSpec(speakers_pretrain=2, speakers_adapt=2, utts_per_speaker=4)
    corpus = generate_corpus(spec, seed=11, out_dir=str(tmp_path / "corpus"))
    model_config = ModelConfig(**TINY["model"])
    sched = tr.ScheduleConfig(**dict(TINY["schedule"], total_steps=2))
    main_pid = os.getpid()
    real_compute_losses = tr.compute_losses

    def compute_losses(model, utts, *args, **kwargs):
        if os.getpid() != main_pid:  # the worker's half reads NaN mels
            utts = [dataclasses.replace(u, mel=np.full_like(u.mel, np.nan)) for u in utts]
        return real_compute_losses(model, utts, *args, **kwargs)

    monkeypatch.setattr(tr, "compute_losses", compute_losses)
    with pytest.raises(NumericsError, match=r"^second half-pack of step 1: loss component "):
        tr.pretrain(corpus, model_config, sched, str(tmp_path / "run"), seed=3)
    assert children() == []


@TWO_CPUS
def test_nan_gradient_from_the_worker_exits_3_through_the_cli(monkeypatch, config, tmp_path):
    out = str(tmp_path / "runs")
    code, stdout, _ = run_cli("gen-corpus", "--config", config, "--out-dir", out, "--seed", "11")
    assert code == 0
    main_pid = os.getpid()
    real_backward = ad.backward
    trainable = {}
    real_adam = tr.Adam.__init__

    def adam_init(self, named_params):
        real_adam(self, named_params)
        trainable.update(self.params)

    def backward(loss):
        real_backward(loss)
        if os.getpid() != main_pid:  # only the worker's gradient is poisoned
            p = trainable["postnet.convs.1.b"]
            p.grad = p.grad.copy()
            p.grad[0] = np.nan

    monkeypatch.setattr(tr.Adam, "__init__", adam_init)
    monkeypatch.setattr(ad, "backward", backward)
    code, _, err = run_cli("pretrain", "--config", config, "--out-dir", out, "--seed", "3",
                           "--corpus", stdout.strip())
    assert code == 3, err
    assert err.startswith("NumericsError: non-finite gradient for postnet.convs.1.b at step 1")
    assert children() == []


@TWO_CPUS
def test_bad_input_in_the_worker_exits_2_through_the_cli(monkeypatch, config, tmp_path):
    out = str(tmp_path / "runs")
    code, stdout, _ = run_cli("gen-corpus", "--config", config, "--out-dir", out, "--seed", "11")
    assert code == 0
    main_pid = os.getpid()
    real_compute_losses = tr.compute_losses

    def compute_losses(*args, **kwargs):
        if os.getpid() != main_pid:
            raise InputError("no such utterance")
        return real_compute_losses(*args, **kwargs)

    monkeypatch.setattr(tr, "compute_losses", compute_losses)
    code, _, err = run_cli("pretrain", "--config", config, "--out-dir", out, "--seed", "3",
                           "--corpus", stdout.strip())
    assert code == 2, err
    assert err.startswith("InputError: second half-pack of step 1: no such utterance")
    assert children() == []


def test_a_finished_run_leaves_no_worker(config, tmp_path):
    out = str(tmp_path / "runs")
    code, stdout, _ = run_cli("gen-corpus", "--config", config, "--out-dir", out, "--seed", "11")
    code, _, err = run_cli("pretrain", "--config", config, "--out-dir", out, "--seed", "3",
                           "--corpus", stdout.strip(), "--set", "schedule.total_steps=4")
    assert code == 0, err
    assert children() == []


@TWO_CPUS
def test_a_killed_cli_pretrain_leaves_no_worker(config, tmp_path):
    out = str(tmp_path / "runs")
    code, stdout, _ = run_cli("gen-corpus", "--config", config, "--out-dir", out, "--seed", "11")
    assert code == 0
    cmd = [sys.executable, "-m", "hyperadapt.cli", "pretrain", "--config", config,
           "--out-dir", out, "--seed", "3", "--corpus", stdout.strip(),
           "--set", "schedule.total_steps=100000"]
    proc = subprocess.Popen(cmd, env=dict(os.environ, PYTHONPATH=str(SRC)),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        task = pathlib.Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        deadline = time.monotonic() + 60
        while not task.read_text().split():
            assert proc.poll() is None and time.monotonic() < deadline, "no worker started"
            time.sleep(0.05)
        (worker,) = map(int, task.read_text().split())
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    deadline = time.monotonic() + 2
    while running(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not running(worker)


def test_training_runs_at_one_blas_thread_and_restores_the_count(monkeypatch, tmp_path):
    lib = tr._openblas()
    if lib is None:
        pytest.skip("numpy ships no OpenBLAS with thread-count calls")
    before = lib.scipy_openblas_get_num_threads64_()
    seen = []
    real_validate = tr.validate

    def validate(*args, **kwargs):
        seen.append(lib.scipy_openblas_get_num_threads64_())
        return real_validate(*args, **kwargs)

    monkeypatch.setattr(tr, "validate", validate)
    spec = CorpusSpec(speakers_pretrain=2, speakers_adapt=2, utts_per_speaker=4)
    corpus = generate_corpus(spec, seed=11, out_dir=str(tmp_path / "corpus"))
    sched = tr.ScheduleConfig(**dict(TINY["schedule"], total_steps=2))
    tr.pretrain(corpus, ModelConfig(**TINY["model"]), sched, str(tmp_path / "run"), seed=3,
                val_every=1)
    assert seen == [1, 1]
    assert lib.scipy_openblas_get_num_threads64_() == before


def test_a_blas_without_a_settable_count_needs_one_thread_in_the_environment(monkeypatch):
    monkeypatch.setattr(tr, "_openblas", lambda: None)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    with pytest.raises(ConfigError, match="OPENBLAS_NUM_THREADS=1"):
        with tr._one_blas_thread():
            pass
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    with tr._one_blas_thread():
        pass


@pytest.mark.parametrize("size", ["tiny", "desk"])
def test_synthesis_and_validation_do_not_depend_on_the_blas_thread_count(size, tmp_path):
    # a hyper_evd model whose adapters all act: synthesized mel, f0, energy
    # and durations and the validation breakdown at one thread and at two
    lib = tr._openblas()
    if lib is None:
        pytest.skip("numpy ships no OpenBLAS with thread-count calls")
    if size == "tiny":
        model_config = ModelConfig(**TINY["model"])
    else:
        desk = load_config(str(SRC.parent / "configs" / "desk.json"))
        model_config = ModelConfig(**desk["model"])
    spec = CorpusSpec(speakers_pretrain=2, speakers_adapt=2, utts_per_speaker=4)
    utts = load_corpus(generate_corpus(spec, seed=11, out_dir=str(tmp_path / "corpus")),
                       adaptation=True)
    model = TTSModel(model_config, seed=3)
    model.set_ranges(*tr.compute_feature_ranges(utts))
    dims = AdapterDims(d_h=model_config.d_h, d_1=model_config.d_spk, **TINY["dims"])
    adapted = off_identity(AdaptedModel(model, StrategyConfig.parse("hyper_evd", dims), seed=5))
    sched = tr.adaptation_schedule(steps=10, batch_size=3)

    def outputs():
        synthesized = []
        for u in utts:
            mel, info = model.synthesize(u.phonemes, u.embedding,
                                         hooks=adapted.hooks_for(u.embedding))
            synthesized.append([a.tobytes() for a in (mel, info["f0"], info["energy"],
                                                      info["durations"])])
        breakdown = tr.validate(model, utts, 10, sched,
                                hooks_fn=lambda pack: adapted.hooks_for(pack.embedding))
        return synthesized, breakdown.row()

    before = lib.scipy_openblas_get_num_threads64_()
    try:
        runs = []
        for threads in (1, 2):
            lib.scipy_openblas_set_num_threads64_(threads)
            runs.append(outputs())
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
    assert runs[0] == runs[1]
