"""Acceptance gate: ten criteria, one test (and one printed verdict line) per
criterion. Run with -v for the per-criterion pass/fail listing; printed
details appear with -s or on failure.

Criteria 8-10 share one desk-scale pipeline: synthetic corpus (8 pretraining
speakers, 4 held-out adaptation speakers), a ~100K-parameter backbone
pretrained for 1500 steps, then every adaptation strategy for 500 steps.
Criterion 10 reruns the whole pipeline from the same seeds and demands
bit-identical reported numbers.
"""

import time

import numpy as np
import pytest

from hyperadapt import alignment, gradcheck, metrics, variance
from hyperadapt import featio
from hyperadapt import training as tr
from hyperadapt.adaptation import (
    AdaptedModel,
    AdapterDims,
    StrategyConfig,
    count_trainable_params,
)
from hyperadapt.autodiff import Segments, Tensor
from hyperadapt.corpus import (
    CorpusSpec,
    generate_corpus,
    load_corpus,
    synthetic_embedding,
)
from hyperadapt.model import ModelConfig
from hyperadapt.training import ScheduleConfig, adaptation_schedule

from oracles import best_path_durations, enumerate_paths_logsumexp, log_softmax, random_grids

PUBLISHED_DIMS = AdapterDims()           # d_h=256, d_r=32, d_1=256, d_2=64, d_l=64, d_s=8
PUBLISHED_SITES = {"e": 4, "v": 2, "d": 6}

DESK_MODEL = ModelConfig(vocab_size=32, n_mels=20, d_h=32, heads=2,
                         enc_layers=2, dec_layers=2, d_spk=24, d_attn=16,
                         postnet_channels=24, postnet_layers=3)
DESK_DIMS = AdapterDims(d_h=32, d_r=4, d_1=24, d_2=8, d_l=6, d_s=3)
DESK_SCHED = ScheduleConfig(peak_lr=1e-3, warmup_steps=40, milestones=(900, 1200),
                            duration_start_step=200, total_steps=1500,
                            batch_size=8, binarization_ramp_steps=200)
ADAPT_STEPS = 500
ADAPT_LR = {"tts0": 1e-4, "ft": 1e-4, "adapter_evd": 1e-3, "hyper_evd": 1e-3}
SEED_CORPUS, SEED_PRETRAIN, SEED_ADAPT = 11, 3, 5


def _verdict(n, detail):
    print(f"criterion {n}: PASS - {detail}")


# -----------------------------------------------------------------------------
# shared desk pipeline (criteria 8-10)
# -----------------------------------------------------------------------------


def run_pipeline(root):
    """Corpus -> pretrain -> all four adaptations -> reported numbers.

    Returns every number criteria 8 and 9 report, plus the artifact paths
    criterion 4 inspects. Criterion 10 calls this twice and compares the
    numbers for exact equality.
    """
    root = str(root)
    corpus = generate_corpus(CorpusSpec(utts_per_speaker=24), SEED_CORPUS, f"{root}/corpus")
    pretrained = tr.pretrain(corpus, DESK_MODEL, DESK_SCHED,
                             f"{root}/pretrain", SEED_PRETRAIN)
    val = load_corpus(corpus, adaptation=True, split="val")

    checkpoints, mel, cos = {}, {}, {}
    for strategy in ("tts0", "ft", "adapter_evd", "hyper_evd"):
        sched = adaptation_schedule(ADAPT_STEPS, lr=ADAPT_LR[strategy], batch_size=8)
        checkpoints[strategy] = tr.adapt(
            pretrained, corpus, strategy, sched,
            f"{root}/adapt_{strategy}", SEED_ADAPT, dims=DESK_DIMS)

        loaded = tr.load_checkpoint(checkpoints[strategy])
        bd = tr.validate(loaded.model, val, ADAPT_STEPS, DESK_SCHED,
                         hooks_fn=lambda u: loaded.hooks_for(u.embedding))
        mel[strategy] = bd.components["mel_pre"] + bd.components["mel_post"]

        if strategy in ("tts0", "hyper_evd"):
            def synth(utt, loaded=loaded):
                return loaded.model.synthesize(utt.phonemes, utt.embedding,
                                               hooks=loaded.hooks_for(utt.embedding))

            report = metrics.evaluate(
                synth, val, lambda m: synthetic_embedding(m, DESK_MODEL.d_spk))
            cos[strategy] = report.cos.mean

    within, cross = clustering_stats(checkpoints["hyper_evd"], corpus)
    return {
        "corpus": corpus, "pretrained": pretrained, "checkpoints": checkpoints,
        "mel": mel, "cos": cos, "within": within, "cross": cross,
    }


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


def test_criterion_01_parameter_counts_match_published_table():
    expected = {
        "adapter_e": 66_688, "adapter_v": 33_344, "adapter_d": 100_032,
        "adapter_ed": 166_720, "adapter_evd": 200_064,
        "hyper_e": 151_112, "hyper_v": 150_984, "hyper_d": 151_240,
        "hyper_evd": 453_336,
    }
    got = {}
    for label, want in expected.items():
        strategy = StrategyConfig.parse(label, PUBLISHED_DIMS)
        got[label] = count_trainable_params(strategy, site_counts=PUBLISHED_SITES)
        assert got[label] == want, f"{label}: {got[label]} != {want}"
    assert count_trainable_params(StrategyConfig.parse("tts0"),
                                  site_counts=PUBLISHED_SITES) == 0
    _verdict(1, f"all {len(expected)} published counts exact, tts0=0")


def test_criterion_02_bottleneck_scaling_matches_published_tables():
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
            dims = AdapterDims(d_s=d_s)
            count = count_trainable_params(StrategyConfig.parse(label, dims),
                                           site_counts=PUBLISHED_SITES)
            assert abs(count - shown) < resolution, (
                f"{label} d_s={d_s}: {count} vs displayed {shown}")
            checked += 1
    _verdict(2, f"{checked} scaling entries within displayed precision")


def test_criterion_03_gradient_checks_on_every_subnetwork():
    start = time.perf_counter()
    results = gradcheck.run_suite(instances=5, threshold=1e-4)
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
    for label in ("adapter_evd", "hyper_evd"):
        fresh = AdaptedModel(loaded.model,
                             StrategyConfig.parse(label, DESK_DIMS), seed=99)
        hooks = fresh.hooks_for(probe.embedding)
        with_hooks, _ = loaded.model.synthesize(probe.phonemes, probe.embedding,
                                                hooks=hooks)
        diff = float(np.max(np.abs(with_hooks - base_mel)))
        assert diff <= 1e-6, f"{label} init shifts outputs by {diff}"

    # after 500 steps: backbone arrays bit-identical, detached outputs unchanged
    # (optimizer-state arrays belong to whichever parameters trained, so only
    # the model arrays are comparable between the two checkpoints)
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

    _verdict(4, "identity at init <= 1e-6; after 500 steps backbone bit-identical "
                "and detached outputs unchanged")


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
    rerun = run_pipeline(tmp_path_factory.mktemp("pipeline_rerun"))
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
    _verdict(10, "full rerun reproduced every reported number bit-identically")
