"""Metric oracles: exact identities, worked examples, and report assembly."""

import json

import numpy as np
import pytest

from hyperadapt import kernels, metrics
from hyperadapt.corpus import Utterance
from hyperadapt.errors import InputError, NumericsError
from hyperadapt.metrics import (
    EvalReport,
    _stat,
    align_to_reference,
    cos_metric,
    dct_basis,
    evaluate,
    ffe_metric,
    mcd_metric,
)

MCD_UNIT = 10.0 / np.log(10.0) * np.sqrt(2.0)


# -----------------------------------------------------------------------------
# cosine similarity
# -----------------------------------------------------------------------------


def test_cos_identical_pairs_score_100():
    rng = np.random.default_rng(0)
    embs = [rng.normal(size=8) for _ in range(5)]
    stat = _stat([cos_metric(e, e.copy()) for e in embs])
    assert stat.mean == pytest.approx(100.0, abs=1e-9)
    assert stat.stderr == pytest.approx(0.0, abs=1e-9)
    assert stat.n_used == 5


def test_cos_orthogonal_and_antiparallel():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert cos_metric(a, b) == pytest.approx(0.0, abs=1e-12)
    assert cos_metric(a, -a) == pytest.approx(-100.0, abs=1e-9)


def test_cos_mean_and_stderr_closed_form():
    a = np.array([1.0, 0.0])
    stat = _stat([cos_metric(a, a), cos_metric(a, np.array([0.0, 1.0]))])  # 100 and 0
    assert stat.mean == pytest.approx(50.0)
    assert stat.stderr == pytest.approx(50.0)  # std([100,0], ddof=1)/sqrt(2)
    assert stat.n_used == 2


def test_cos_rejects_zero_norm():
    a = np.array([1.0, 0.0])
    z = np.zeros(2)
    for synth, ref in ((z, a), (a, z), (z, z)):
        with pytest.raises(InputError, match="zero-norm"):
            cos_metric(synth, ref)


def test_cos_input_validation():
    a = np.array([1.0, 0.0])
    with pytest.raises(InputError):
        cos_metric(a, np.ones(3))
    with pytest.raises(InputError):
        cos_metric([], [])


# -----------------------------------------------------------------------------
# F0 frame error
# -----------------------------------------------------------------------------


def test_ffe_identity_is_zero():
    f0 = np.array([0.0, 120.0, 130.0, 0.0, 150.0])
    assert ffe_metric(f0, f0) == 0.0


def test_ffe_total_voicing_mismatch_is_100():
    ref = np.full(6, 200.0)
    assert ffe_metric(np.zeros(6), ref) == 100.0


def test_ffe_worked_example_is_exactly_25():
    ref = np.array([100.0, 100.0, 100.0, 0.0])
    pred = np.array([100.0, 125.0, 115.0, 0.0])
    assert ffe_metric(pred, ref) == 25.0


def test_ffe_threshold_is_strict():
    ref = np.array([100.0])
    assert ffe_metric(np.array([120.0]), ref) == 0.0   # exactly 20%: not an error
    assert ffe_metric(np.array([120.01]), ref) == 100.0


def test_ffe_frame_order_is_irrelevant():
    rng = np.random.default_rng(3)
    ref = np.where(rng.random(40) < 0.3, 0.0, rng.uniform(80, 300, 40))
    pred = np.where(rng.random(40) < 0.3, 0.0, rng.uniform(80, 300, 40))
    perm = rng.permutation(40)
    assert ffe_metric(pred, ref) == ffe_metric(pred[perm], ref[perm])


def test_ffe_input_validation():
    with pytest.raises(InputError):
        ffe_metric(np.zeros(3), np.zeros(4))
    with pytest.raises(InputError):
        ffe_metric(np.zeros(0), np.zeros(0))


def test_align_to_reference_keeps_exact_values():
    pred = np.array([10.0, 20.0, 30.0, 40.0])
    out = align_to_reference(pred, 8)
    np.testing.assert_array_equal(out, [10.0, 10.0, 20.0, 20.0, 30.0, 30.0, 40.0, 40.0])
    np.testing.assert_array_equal(align_to_reference(pred, 4), pred)
    with pytest.raises(InputError):
        align_to_reference(np.zeros(0), 5)


# -----------------------------------------------------------------------------
# mel cepstral distortion
# -----------------------------------------------------------------------------


def test_mcd_identity_is_zero():
    rng = np.random.default_rng(1)
    mel = rng.normal(size=(30, 16))
    assert mcd_metric(mel, mel) == pytest.approx(0.0, abs=1e-9)


def test_mcd_ignores_uniform_offset():
    rng = np.random.default_rng(2)
    mel = rng.normal(size=(25, 16))
    assert mcd_metric(mel + 3.7, mel) == pytest.approx(0.0, abs=1e-8)


def test_mcd_single_coefficient_closed_form():
    rng = np.random.default_rng(4)
    base = rng.normal(size=(1, 16))
    basis = dct_basis(16)
    bumped = base @ basis.T
    bumped[0, 1] += 0.1
    pred = bumped @ basis  # the basis is orthonormal: its transpose inverts it
    assert mcd_metric(pred, base) == pytest.approx(MCD_UNIT * 0.1, rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 16, 20, 80])
def test_dct_basis_matches_cosine_sum_definition(n):
    # orthonormal DCT-II: X_k = s_k sum_j x_j cos(pi k (2j + 1) / 2n),
    # s_0 = sqrt(1/n), s_k = sqrt(2/n)
    x = np.random.default_rng(n).normal(size=(3, n))
    direct = np.zeros((3, n))
    for k in range(n):
        s_k = np.sqrt((1.0 if k == 0 else 2.0) / n)
        for j in range(n):
            direct[:, k] += s_k * x[:, j] * np.cos(np.pi * k * (2 * j + 1) / (2 * n))
    np.testing.assert_allclose(x @ dct_basis(n).T, direct, atol=1e-12, rtol=0)
    np.testing.assert_allclose(dct_basis(n) @ dct_basis(n).T, np.eye(n), atol=1e-12)


def test_mcd_monotone_in_perturbation():
    rng = np.random.default_rng(5)
    mel = rng.normal(size=(20, 12))
    noise = rng.normal(size=(20, 12))
    small = mcd_metric(mel + 0.1 * noise, mel)
    large = mcd_metric(mel + 0.3 * noise, mel)
    assert 0.0 < small < large


def test_mcd_dtw_absorbs_frame_doubling():
    rng = np.random.default_rng(6)
    mel = rng.normal(size=(12, 10))
    doubled = np.repeat(mel, 2, axis=0)
    assert mcd_metric(doubled, mel) == pytest.approx(0.0, abs=1e-9)


def test_mcd_caps_coefficients_at_bin_count():
    rng = np.random.default_rng(7)
    mel = rng.normal(size=(10, 8))  # only 7 non-loudness coefficients exist
    assert mcd_metric(mel + 0.5, mel) == pytest.approx(0.0, abs=1e-8)


def test_mcd_input_validation():
    mel = np.zeros((4, 8))
    with pytest.raises(InputError):
        mcd_metric(np.zeros((0, 8)), mel)
    with pytest.raises(InputError):
        mcd_metric(np.zeros((4, 6)), mel)
    with pytest.raises(InputError):
        mcd_metric(np.zeros(8), mel)
    with pytest.raises(InputError):
        mcd_metric(np.zeros((4, 1)), np.zeros((4, 1)))


# -----------------------------------------------------------------------------
# evaluate and report assembly
# -----------------------------------------------------------------------------


def _toy_utterances(n=4, frames=20, mels=12):
    rng = np.random.default_rng(8)
    utts = []
    for i in range(n):
        f0 = np.where(rng.random(frames) < 0.25, 0.0, rng.uniform(90, 280, frames))
        utts.append(Utterance(
            utt_id=f"u{i}", speaker=f"s{i % 2}", split="val",
            phonemes=np.arange(3),
            mel=rng.normal(size=(frames, mels)).astype(np.float32),
            f0=f0.astype(np.float32),
            energy=rng.uniform(0.2, 1.0, frames).astype(np.float32),
            embedding=np.ones(4, dtype=np.float32) / 2.0,
        ))
    return utts


def _embedder(mel):
    return np.asarray(mel, dtype=np.float64).mean(axis=0) + 1.0


def test_evaluate_reference_against_itself():
    utts = _toy_utterances()
    report = evaluate(
        lambda u: (u.mel, {"f0": u.f0}), utts, _embedder,
        trainable_params=500, backbone_params=10_000,
    )
    assert len(report.rows) == len(utts)
    assert report.cos.mean == pytest.approx(100.0, abs=1e-6)
    assert report.ffe.mean == 0.0
    assert report.mcd.mean == pytest.approx(0.0, abs=1e-6)
    assert report.trainable_params == 500
    assert report.trainable_pct == pytest.approx(5.0)


def _failing_on(utt_id, exc):
    def synth(u):
        if u.utt_id == utt_id:
            raise exc
        return u.mel, {"f0": u.f0}

    return synth


def test_evaluate_raises_on_bad_input_for_one_utterance():
    # no utterance is left out of the means: bad input for one fails the
    # evaluation, naming the utterance
    with pytest.raises(InputError, match="^u2: synthetic blowup$"):
        evaluate(_failing_on("u2", InputError("synthetic blowup")), _toy_utterances(),
                 _embedder)
    with pytest.raises(InputError, match="^evaluate: empty utterance list$"):
        evaluate(_failing_on("u2", InputError("no")), [], _embedder)


@pytest.mark.parametrize("exc", [NumericsError("nan in decoder"), ValueError("bad op")])
def test_evaluate_propagates_faults(exc):
    # a fault in the model surfaces, a numerics fault naming the utterance
    # it came from
    prefix = "u2: " if isinstance(exc, NumericsError) else ""
    with pytest.raises(type(exc), match=f"^{prefix}{exc}$"):
        evaluate(_failing_on("u2", exc), _toy_utterances(), _embedder)


def _resynthesized(utts, bad=None):
    """A synthesize_fn whose mels differ from the references in frame count
    (so DTW has work to do) and by a small perturbation; `bad` maps an
    utterance id to the mel returned for it instead."""
    rng = np.random.default_rng(3)
    mels = {u.utt_id: np.repeat(u.mel, 2, axis=0)[: len(u.mel) + 5 + i]
            + 0.1 * rng.normal(size=(len(u.mel) + 5 + i, u.mel.shape[1]))
            for i, u in enumerate(utts)}
    mels.update(bad or {})
    return lambda u: (mels[u.utt_id], {"f0": u.f0})


def test_mcd_sweeps_equal_one_sweep_and_per_pair(monkeypatch):
    utts = _toy_utterances(n=7)  # 20 reference and 25-31 synthesized frames
    synth = _resynthesized(utts)
    sweeps = []
    dtw_path = kernels.dtw_path

    def counted(cost, a_len, b_len):
        sweeps.append(cost.size)
        return dtw_path(cost, a_len, b_len)

    monkeypatch.setattr(kernels, "dtw_path", counted)
    rows = []
    # one sweep, sweeps of up to three pairs, one pair per sweep
    for cap, n_sweeps in ((1 << 40, 1), (3 * 32 * 20, 3), (1, 7)):
        monkeypatch.setattr(metrics, "MCD_SWEEP_CELLS", cap)
        sweeps.clear()
        rows.append(evaluate(synth, utts, _embedder).rows)
        assert len(sweeps) == n_sweeps and max(sweeps) <= max(cap, 32 * 20)
    assert rows[0] == rows[1] == rows[2]
    for row, utt in zip(rows[0], utts):
        assert row.mcd == mcd_metric(synth(utt)[0], utt.mel) > 0.0


def test_mcd_non_finite_pair_leaves_the_others_unchanged():
    # a short mel whose first frame is inf turns its whole cost map NaN;
    # the longer maps after it in the sweep must score as they do alone
    utts = _toy_utterances(n=4)
    bad = np.ones((4, 12))
    bad[0] = np.inf
    synth = _resynthesized(utts, {"u1": bad})
    with np.errstate(invalid="ignore"):
        report = evaluate(synth, utts, _embedder)
    for row, utt in zip(report.rows, utts):
        if row.utt_id != "u1":
            assert row.mcd == mcd_metric(synth(utt)[0], utt.mel)


def test_invalid_mcd_pair_raises_naming_the_utterance():
    utts = _toy_utterances(n=4)
    synth = _resynthesized(utts, {"u2": np.ones((9, 7))})  # 7 mel bins, not 12
    with pytest.raises(InputError, match="^u2: mcd_metric: mel widths 7 vs 12$"):
        evaluate(synth, utts, lambda mel: np.ones(3))  # so only MCD sees the widths


def test_report_text_and_json(tmp_path):
    utts = _toy_utterances()
    report = evaluate(lambda u: (u.mel, {"f0": u.f0}), utts, _embedder,
                      trainable_params=42, backbone_params=1000)
    text = report.to_text()
    assert text.splitlines()[0] == "utt_id\tspeaker\tcos\tffe\tmcd"
    assert "standard error" in text
    assert "trainable_params\t42" in text

    report.write(str(tmp_path))
    with open(tmp_path / "report.json") as f:
        data = json.load(f)
    assert data["aggregate"]["cos"]["mean"] == pytest.approx(100.0, abs=1e-6)
    assert data["params"]["trainable"] == 42
    assert data["dispersion"] == "standard error"
    assert sorted(data) == ["aggregate", "dispersion", "params", "rows"]
    assert len(data["rows"]) == len(utts)
    assert sorted(data["rows"][0]) == ["cos", "ffe", "mcd", "speaker", "utt_id"]
    assert (tmp_path / "report.tsv").exists()
