"""Acceptance gate: ten criteria, one test (and one printed verdict line) per
criterion. Run with -v for the per-criterion pass/fail listing; printed
details appear with -s or on failure.

Criteria 8-10 share one desk-scale pipeline, configs/desk.json: synthetic
corpus (8 pretraining speakers, 4 held-out adaptation speakers), a
~100K-parameter backbone, and every adaptation strategy, each evaluated,
run as the README's quick start through `cli.main`. Criterion 10 reruns it
from the same seeds, in a fresh interpreter, and demands bit-identical
reported numbers and logs.

Run as a script, `python tests/test_acceptance.py <root>` runs the pipeline
under <root> and prints what it reports as one JSON line.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from hyperadapt import alignment, cli, gradcheck, metrics, variance
from hyperadapt import featio
from hyperadapt import training as tr
from hyperadapt.adaptation import AdaptedModel, AdapterDims, StrategyConfig
from hyperadapt.autodiff import Segments, Tensor
from hyperadapt.corpus import load_corpus
from hyperadapt.model import ModelConfig, TTSModel
from hyperadapt.training import ScheduleConfig

from oracles import best_path_durations, enumerate_paths_logsumexp, log_softmax, random_grids

PUBLISHED_DIMS = AdapterDims()           # d_h=256, d_r=32, d_1=256, d_2=64, d_l=64, d_s=8
PUBLISHED_SITES = {"e": 4, "v": 2, "d": 6}

DESK_CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "configs", "desk.json")


def _verdict(n, detail):
    print(f"criterion {n}: PASS - {detail}")


# -----------------------------------------------------------------------------
# shared desk pipeline (criteria 8-10)
# -----------------------------------------------------------------------------


def hyperadapt(verb, *args):
    """`hyperadapt <verb> --config configs/desk.json <args>`'s printed path."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([verb, "--config", DESK_CONFIG, *args])
    assert code == 0, f"{verb} {' '.join(args)} exited {code}"
    return out.getvalue().splitlines()[0]


def run_pipeline(root):
    """gen-corpus -> pretrain -> adapt and evaluate each strategy, run in
    `root` (so run directories are named alike under every root). Returns
    every number criteria 8 and 9 report and the paths criterion 4 reads."""
    desk = cli.load_config(DESK_CONFIG)
    root, here = os.path.abspath(root), os.getcwd()
    os.chdir(root)
    try:
        corpus = hyperadapt("gen-corpus", "--seed", "11")
        pretrained = hyperadapt("pretrain", "--seed", "3", "--corpus", corpus)
        val = load_corpus(corpus, adaptation=True, split="val")
        checkpoints, mel, cos = {}, {}, {}
        for strategy in ("tts0", "ft", "adapter_evd", "hyper_evd"):
            # ft and tts0 adapt at a tenth of the config's lr
            slow = ("--set", "adapt.lr=1e-4") if strategy in ("ft", "tts0") else ()
            checkpoints[strategy] = hyperadapt(
                "adapt", "--seed", "5", "--corpus", corpus, "--checkpoint", pretrained,
                "--strategy", strategy, *slow)
            # teacher-forced val mel, which no verb reports
            loaded = tr.load_checkpoint(checkpoints[strategy])
            bd = tr.validate(loaded.model, val, desk["adapt"]["steps"],
                             ScheduleConfig(**desk["schedule"]),
                             hooks_fn=lambda pack: loaded.hooks_for(pack.embedding))
            mel[strategy] = bd.components["mel_pre"] + bd.components["mel_post"]
            report = hyperadapt("evaluate", "--corpus", corpus,
                                "--checkpoint", checkpoints[strategy])
            with open(os.path.join(os.path.dirname(report), "report.json")) as f:
                cos[strategy] = json.load(f)["aggregate"]["cos"]["mean"]
        within, cross = clustering_stats(checkpoints["hyper_evd"], corpus)
    finally:
        os.chdir(here)
    return {
        "root": root, "corpus": os.path.join(root, corpus),
        "pretrained": os.path.join(root, pretrained),
        "checkpoints": {k: os.path.join(root, v) for k, v in checkpoints.items()},
        "mel": mel, "cos": cos, "within": within, "cross": cross,
    }


def run_pipeline_fresh(root):
    """run_pipeline(root) in a new Python interpreter, its result read back
    from JSON (which gives every float back exactly)."""
    src = os.path.dirname(os.path.dirname(tr.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, os.path.abspath(__file__), str(root)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert done.returncode == 0, f"fresh pipeline run failed:\n{done.stderr[-2000:]}"
    return json.loads(done.stdout.splitlines()[-1])


def run_outputs(root):
    """Relative path -> bytes of every TSV log and report.json under root."""
    out = {}
    for parent, _, files in os.walk(root):
        for name in files:
            if name.endswith(".tsv") or name == "report.json":
                path = os.path.join(parent, name)
                out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def clustering_stats(hyper_checkpoint, corpus, per_speaker=5):
    """Mean within- vs cross-speaker cosine of flattened generated weights."""
    loaded = tr.load_checkpoint(hyper_checkpoint)
    adapted = loaded.adapted
    utts = load_corpus(corpus, adaptation=True, split="train")

    vectors, owners = [], []
    for speaker in sorted({u.speaker for u in utts}):
        picked = [u for u in utts if u.speaker == speaker][:per_speaker]
        assert len(picked) == per_speaker
        for utt in picked:
            spk = Tensor(utt.embedding.reshape(1, -1))
            flat = np.concatenate([
                getattr(adapted.extras, f"hyper_{tag}").generate(spk).data.reshape(-1)
                for tag in adapted.strategy.sites
            ]).astype(np.float64)
            vectors.append(flat)
            owners.append(speaker)

    unit = np.stack(vectors)
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    sims = unit @ unit.T
    within, cross = [], []
    for i in range(len(owners)):
        for j in range(i + 1, len(owners)):
            (within if owners[i] == owners[j] else cross).append(sims[i, j])
    return float(np.mean(within)), float(np.mean(cross))


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    start = time.perf_counter()
    out = run_pipeline(tmp_path_factory.mktemp("pipeline"))
    out["elapsed"] = time.perf_counter() - start
    return out


# -----------------------------------------------------------------------------
# criteria
# -----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def published_model():
    """The paper's backbone (ModelConfig's defaults), with its adapter sites."""
    model = TTSModel(ModelConfig(), seed=0)
    assert model.site_counts() == PUBLISHED_SITES
    return model


def built_count(model, label, dims=PUBLISHED_DIMS):
    """Trainable parameters of the strategy `label` built over `model`."""
    return AdaptedModel(model, StrategyConfig.parse(label, dims)).trainable_count()


def test_criterion_01_parameter_counts_match_published_table(published_model):
    expected = {
        "adapter_e": 66_688, "adapter_v": 33_344, "adapter_d": 100_032,
        "adapter_ed": 166_720, "adapter_evd": 200_064,
        "hyper_e": 151_112, "hyper_v": 150_984, "hyper_d": 151_240,
        "hyper_evd": 453_336,
    }
    got = {}
    for label, want in expected.items():
        got[label] = built_count(published_model, label)
        assert got[label] == want, f"{label}: {got[label]} != {want}"
    assert built_count(published_model, "tts0") == 0
    _verdict(1, f"all {len(expected)} published counts exact, tts0=0")


def test_criterion_02_bottleneck_scaling_matches_published_tables(published_model):
    # displayed values and their resolution (one unit in the last shown digit)
    tables = {
        "hyper_d": {2: (50_000, 1_000), 8: (151_000, 1_000),
                    32: (554_000, 1_000), 128: (2_170_000, 10_000)},
        "hyper_e": {2: (50_000, 1_000), 8: (151_000, 1_000),
                    32: (554_000, 1_000), 128: (2_170_000, 10_000)},
        "hyper_evd": {2: (150_000, 1_000), 8: (453_000, 1_000),
                      32: (1_660_000, 10_000), 128: (6_500_000, 10_000)},
    }
    checked = 0
    for label, rows in tables.items():
        for d_s, (shown, resolution) in rows.items():
            count = built_count(published_model, label, AdapterDims(d_s=d_s))
            assert abs(count - shown) < resolution, (
                f"{label} d_s={d_s}: {count} vs displayed {shown}")
            checked += 1
    _verdict(2, f"{checked} scaling entries within displayed precision")


def test_criterion_03_gradient_checks_on_every_subnetwork():
    start = time.perf_counter()
    results = gradcheck.run_suite()
    elapsed = time.perf_counter() - start
    failed = [r for r in results if not r.passed]
    assert not failed, f"failed: {[(r.name, r.instance, r.max_rel) for r in failed]}"
    names = {r.name for r in results}
    assert names == set(gradcheck.BUILDERS), "suite must cover every sub-network"
    assert elapsed < 300, f"gradient checks took {elapsed:.0f}s (budget 300s)"
    worst = max(r.max_rel for r in results)
    _verdict(3, f"{len(results)} checks over {len(names)} networks, "
                f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_identity_at_init_and_frozen_backbone(pipeline):
    loaded = tr.load_checkpoint(pipeline["pretrained"])
    probe = load_corpus(pipeline["corpus"], adaptation=True, split="val")[0]
    base_mel, _ = loaded.model.synthesize(probe.phonemes, probe.embedding)

    # identity at init: fresh strategies must not move the frozen outputs
    desk = cli.load_config(DESK_CONFIG)
    dims = cli._with_model_sizes(desk, "dims")
    for label in ("adapter_evd", "hyper_evd"):
        fresh = AdaptedModel(loaded.model, StrategyConfig.parse(label, dims), seed=99)
        hooks = fresh.hooks_for(probe.embedding)
        with_hooks, _ = loaded.model.synthesize(probe.phonemes, probe.embedding,
                                                hooks=hooks)
        diff = float(np.max(np.abs(with_hooks - base_mel)))
        assert diff <= 1e-6, f"{label} init shifts outputs by {diff}"

    # after adaptation: backbone arrays bit-identical, detached outputs unchanged
    # (only the pretraining checkpoint carries optimizer state, so only the
    # model arrays are comparable between the two checkpoints)
    _, pre_arrays = featio.read_checkpoint(pipeline["pretrained"])
    backbone = {k: v for k, v in pre_arrays.items() if not k.startswith("opt.")}
    for label in ("adapter_evd", "hyper_evd"):
        _, post_arrays = featio.read_checkpoint(pipeline["checkpoints"][label])
        for name, arr in backbone.items():
            assert post_arrays[name].tobytes() == arr.tobytes(), (
                f"{label}: frozen tensor {name} drifted during adaptation")
        detached = tr.load_checkpoint(pipeline["checkpoints"][label])
        det_mel, _ = detached.model.synthesize(probe.phonemes, probe.embedding)
        assert np.array_equal(det_mel, base_mel), f"{label} detached output moved"

    _verdict(4, f"identity at init <= 1e-6; after {desk['adapt']['steps']} steps backbone "
                "bit-identical and detached outputs unchanged")


def test_criterion_05_alignment_matches_exhaustive_enumeration():
    start = time.perf_counter()
    cases = 0
    for logits in random_grids(200, seed=17, n_max=6, m_max=10):
        n, m = logits.shape
        amap = alignment.AlignmentMap(Tensor(log_softmax(logits[None], axis=1)),
                                      Segments([n]), Segments([m]))
        want_loss, _ = enumerate_paths_logsumexp(amap.log_probs.data[0])
        got_loss = alignment.forward_sum_loss(amap).item()
        assert got_loss == pytest.approx(want_loss, abs=1e-6)
        np.testing.assert_array_equal(alignment.viterbi_durations(amap),
                                      best_path_durations(amap.log_probs.data[0]))
        cases += 1
    elapsed = time.perf_counter() - start
    assert cases >= 200 and elapsed < 60
    _verdict(5, f"{cases} grids (n<=6, m<=10): forward-sum within 1e-6, "
                f"Viterbi exact, {elapsed:.1f}s")


def test_criterion_06_pitch_wavelet_roundtrip():
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    worst = 1.0
    for _ in range(50):
        length = int(rng.integers(100, 401))
        shape = np.zeros(length)
        for _ in range(int(rng.integers(2, 6))):
            period = rng.uniform(16, min(200, length))
            shape += rng.uniform(0.3, 1.0) * np.sin(
                2 * np.pi * np.arange(length) / period + rng.uniform(0, 2 * np.pi))
        f0 = np.exp(np.log(200.0) + 0.25 * shape)
        normalized, mean, var = variance.normalize_f0(f0)
        spec = variance.cwt_decompose(normalized)
        recon = variance.icwt_reconstruct(spec, mean, var)
        worst = min(worst, float(np.corrcoef(f0, recon)[0, 1]))
    elapsed = time.perf_counter() - start
    assert worst > 0.95, f"worst roundtrip correlation {worst:.4f}"
    assert elapsed < 60
    _verdict(6, f"50 contours len 100-400, worst correlation {worst:.4f}, "
                f"{elapsed:.1f}s")


def test_criterion_07_metric_identities_and_worked_example():
    rng = np.random.default_rng(29)
    embeds = [rng.standard_normal(24) for _ in range(6)]
    cos_stat = metrics._stat([metrics.cos_metric(e, e) for e in embeds])
    assert cos_stat.mean == pytest.approx(100.0, abs=1e-9)
    assert f"{cos_stat.mean:.3f}" == "100.000"

    f0 = np.where(rng.random(80) < 0.3, 0.0, rng.uniform(80, 300, 80))
    assert metrics.ffe_metric(f0, f0) == 0.0

    mel = rng.standard_normal((40, 20))
    assert metrics.mcd_metric(mel, mel) == 0.0

    worked = metrics.ffe_metric(np.array([100.0, 125.0, 115.0, 0.0]),
                                np.array([100.0, 100.0, 100.0, 0.0]))
    assert worked == 25.0
    _verdict(7, "COS(x,x)=100.000, FFE(x,x)=0, MCD(x,x)=0, worked example 25.0")


def test_criterion_08_desk_scale_adaptation_ordering(pipeline):
    mel, cos = pipeline["mel"], pipeline["cos"]
    assert mel["tts0"] > mel["adapter_evd"], (
        f"frozen backbone should lose to adapters: {mel['tts0']:.5f} vs "
        f"{mel['adapter_evd']:.5f}")
    assert mel["adapter_evd"] >= mel["hyper_evd"], (
        f"static adapters should not beat the hypernetwork: "
        f"{mel['adapter_evd']:.5f} vs {mel['hyper_evd']:.5f}")
    assert mel["hyper_evd"] <= 1.1 * mel["ft"], (
        f"hypernetwork should stay within 10% of full fine-tuning: "
        f"{mel['hyper_evd']:.5f} vs 1.1*{mel['ft']:.5f}")
    assert cos["tts0"] < cos["hyper_evd"], (
        f"speaker similarity must improve: {cos['tts0']:.2f} vs "
        f"{cos['hyper_evd']:.2f}")
    assert pipeline["elapsed"] < 1800, f"pipeline took {pipeline['elapsed']:.0f}s"
    _verdict(8, "val mel {tts0:.4f} > {adapter_evd:.4f} >= {hyper_evd:.4f} "
                "<= 1.1x ft {ft:.4f}; COS {c0:.1f} -> {ch:.1f}; {t:.0f}s".format(
                    **mel, c0=cos["tts0"], ch=cos["hyper_evd"],
                    t=pipeline["elapsed"]))


def test_criterion_09_generated_weights_cluster_by_speaker(pipeline):
    within, cross = pipeline["within"], pipeline["cross"]
    assert within > cross, (
        f"generated weights must cluster by speaker: within {within:.4f} "
        f"vs cross {cross:.4f}")
    _verdict(9, f"4 speakers x 5 embeddings: within-speaker cosine "
                f"{within:.4f} > cross-speaker {cross:.4f}")


def test_criterion_10_pipeline_is_bit_deterministic(pipeline, tmp_path_factory):
    rerun = run_pipeline_fresh(tmp_path_factory.mktemp("pipeline_rerun"))
    for strategy, value in pipeline["mel"].items():
        assert rerun["mel"][strategy] == value, (
            f"mel[{strategy}]: {rerun['mel'][strategy]!r} != {value!r}")
    for strategy, value in pipeline["cos"].items():
        assert rerun["cos"][strategy] == value, (
            f"cos[{strategy}]: {rerun['cos'][strategy]!r} != {value!r}")
    assert rerun["within"] == pipeline["within"]
    assert rerun["cross"] == pipeline["cross"]
    first = open(pipeline["checkpoints"]["hyper_evd"], "rb").read()
    second = open(rerun["checkpoints"]["hyper_evd"], "rb").read()
    assert first == second, "adapted checkpoints differ between reruns"
    outputs, rerun_outputs = run_outputs(pipeline["root"]), run_outputs(rerun["root"])
    # train and val logs of the pretrain and of each trained strategy, tts0's
    # adapt log, and each evaluate run's report.tsv and report.json
    assert sorted(outputs) == sorted(rerun_outputs) and len(outputs) == 17, sorted(rerun_outputs)
    for name, data in outputs.items():
        assert rerun_outputs[name] == data, f"{name} differs between reruns"
    _verdict(10, "full rerun in a fresh interpreter reproduced every reported number, "
                 "all 13 TSV logs and the 4 report.json bit-identically")


if __name__ == "__main__":
    print(json.dumps(run_pipeline(sys.argv[1])))
