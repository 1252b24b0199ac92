"""Objective evaluation: speaker cosine similarity, F0 frame error, and
mel-cepstral distortion, plus report assembly for system comparisons.

The desk-scale speaker embedder is synthetic, so COS numbers mean nothing in
absolute terms; they exist to order systems against each other.
"""

import functools
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .errors import InputError, NumericsError

F0_REL_THRESHOLD = 0.2  # both-voiced frames count as errors past 20% deviation
MCD_COEFFS = 13         # cepstral coefficients 1..13; the 0th (loudness) is excluded
_MCD_SCALE = 10.0 / np.log(10.0)
MCD_SWEEP_CELLS = 1 << 16  # padded cost cells per batched DTW sweep


@dataclass
class PairedStat:
    """Mean and standard error over per-pair metric values."""

    mean: float
    stderr: float
    n_used: int


def _stat(values):
    arr = np.asarray(values, dtype=np.float64)
    stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return PairedStat(float(arr.mean()), stderr, int(arr.size))


# -----------------------------------------------------------------------------
# speaker cosine similarity
# -----------------------------------------------------------------------------


def cos_metric(synth_embedding, ref_embedding):
    """Cosine similarity x100 of one synthesized and one reference speaker
    embedding. A zero-norm embedding has no direction and is rejected."""
    a = np.asarray(synth_embedding, dtype=np.float64).ravel()
    b = np.asarray(ref_embedding, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise InputError(f"cos_metric: dims {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise InputError("cos_metric: zero-norm embedding")
    return 100.0 * float(a @ b / (na * nb))


# -----------------------------------------------------------------------------
# F0 frame error
# -----------------------------------------------------------------------------


def ffe_metric(pred_f0, ref_f0):
    """Percentage of frames with a voicing mismatch or gross pitch error.

    Contours use 0 for unvoiced frames. Lengths must already agree; aligning
    a predicted contour onto the reference timeline is the caller's job.
    """
    pred = np.asarray(pred_f0, dtype=np.float64).ravel()
    ref = np.asarray(ref_f0, dtype=np.float64).ravel()
    if pred.shape != ref.shape:
        raise InputError(f"ffe_metric: contour lengths {pred.size} vs {ref.size}")
    if pred.size == 0:
        raise InputError("ffe_metric: empty contours")
    pred_voiced = pred > 0
    ref_voiced = ref > 0
    error = pred_voiced != ref_voiced
    both = pred_voiced & ref_voiced
    error[both] |= np.abs(pred[both] - ref[both]) > F0_REL_THRESHOLD * ref[both]
    return 100.0 * float(np.count_nonzero(error)) / error.size


def align_to_reference(pred, ref_len):
    """Nearest-frame resample of a per-frame track onto `ref_len` frames.

    Nearest-neighbor indexing keeps voicing decisions and exact values intact
    where linear interpolation would smear voiced/unvoiced boundaries.
    """
    pred = np.asarray(pred)
    if pred.shape[0] == 0 or ref_len < 1:
        raise InputError("align_to_reference: empty track")
    idx = np.rint(np.linspace(0.0, pred.shape[0] - 1, ref_len)).astype(np.int64)
    return pred[idx]


# -----------------------------------------------------------------------------
# mel cepstral distortion
# -----------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def dct_basis(n):
    """(n, n) orthonormal DCT-II matrix: row k maps a length-n frame to its
    k-th coefficient, sqrt(2/n) cos(pi k (2j + 1) / 2n), row 0 scaled by
    1/sqrt(2). Its transpose is its inverse."""
    k = np.arange(n)[:, None]
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n))
    basis[0] /= np.sqrt(2.0)
    basis.setflags(write=False)
    return basis


def mcd_cepstra(pred_mel, ref_mel):
    """(predicted, reference) cepstra of one MCD pair, checked: coefficients
    1..MCD_COEFFS of the orthonormal DCT of each log-mel frame. Coefficient 0
    is dropped so a uniform gain offset contributes nothing."""
    pred = np.asarray(pred_mel, dtype=np.float64)
    ref = np.asarray(ref_mel, dtype=np.float64)
    if pred.ndim != 2 or ref.ndim != 2:
        raise InputError(f"mcd_metric: expected 2-D mels, got {pred.ndim}-D and {ref.ndim}-D")
    if pred.shape[0] == 0 or ref.shape[0] == 0:
        raise InputError("mcd_metric: empty mel")
    if pred.shape[1] != ref.shape[1]:
        raise InputError(f"mcd_metric: mel widths {pred.shape[1]} vs {ref.shape[1]}")
    if pred.shape[1] < 2:
        raise InputError("mcd_metric: need at least 2 mel bins for cepstra")
    k = min(MCD_COEFFS, pred.shape[1] - 1)
    rows = dct_basis(pred.shape[1])[1 : k + 1].T
    return pred @ rows, ref @ rows


def _sweeps(pairs):
    """The pairs in order, cut into runs whose padded cost batch stays
    within MCD_SWEEP_CELLS cells; a pair larger than that runs alone."""
    sweep, a, b = [], 0, 0
    for cp, cr in pairs:
        a, b = max(a, len(cp)), max(b, len(cr))
        if sweep and (len(sweep) + 1) * a * b > MCD_SWEEP_CELLS:
            yield sweep
            sweep, a, b = [], len(cp), len(cr)
        sweep.append((cp, cr))
    if sweep:
        yield sweep


def mcd_scores(pairs):
    """MCD in dB of each (predicted, reference) cepstra pair from
    mcd_cepstra: the mean cepstral distance over DTW-paired frames, DTW
    pairing absorbing the frame-count mismatch between predicted and
    reference durations. Pairs are scored in capped sweeps of one batched
    DTW each, which keeps peak memory flat however many there are."""
    scores = []
    for sweep in _sweeps(pairs):
        a_len = [len(cp) for cp, _ in sweep]
        b_len = [len(cr) for _, cr in sweep]
        dist = np.zeros((len(sweep), max(a_len), max(b_len)))
        for cost, (cp, cr) in zip(dist, sweep):
            sq = ((cp[:, None, :] - cr[None, :, :]) ** 2).sum(axis=2)
            cost[: len(cp), : len(cr)] = _MCD_SCALE * np.sqrt(2.0 * sq)
        paths = kernels.dtw_path(dist, a_len, b_len)
        scores += [float(cost[path[:, 0], path[:, 1]].mean()) for cost, path in zip(dist, paths)]
    return scores


def mcd_metric(pred_mel, ref_mel):
    """Mel-cepstral distortion in dB of one predicted mel against its
    reference; see mcd_cepstra and mcd_scores."""
    return mcd_scores([mcd_cepstra(pred_mel, ref_mel)])[0]


# -----------------------------------------------------------------------------
# report assembly
# -----------------------------------------------------------------------------


@dataclass
class EvalRow:
    utt_id: str
    speaker: str
    cos: float = None
    ffe: float = None
    mcd: float = None
    error: str = None


@dataclass
class EvalReport:
    """Per-utterance metric rows plus aggregates and parameter accounting."""

    rows: list
    cos: PairedStat
    ffe: PairedStat
    mcd: PairedStat
    trainable_params: int = 0
    trainable_pct: float = 0.0

    @property
    def n_failed(self):
        return sum(1 for r in self.rows if r.error is not None)

    def to_dict(self):
        return {
            "rows": [asdict(r) for r in self.rows],
            "aggregate": {
                "cos": asdict(self.cos),
                "ffe": asdict(self.ffe),
                "mcd": asdict(self.mcd),
            },
            "params": {
                "trainable": self.trainable_params,
                "trainable_pct": self.trainable_pct,
            },
            "failures": self.n_failed,
            "dispersion": "standard error",
        }

    def to_text(self):
        lines = ["utt_id\tspeaker\tcos\tffe\tmcd\terror"]
        for r in self.rows:
            if r.error is not None:
                lines.append(f"{r.utt_id}\t{r.speaker}\t-\t-\t-\t{r.error}")
            else:
                lines.append(
                    f"{r.utt_id}\t{r.speaker}\t{r.cos:.3f}\t{r.ffe:.3f}\t{r.mcd:.3f}\t"
                )
        lines.append("")
        lines.append("metric\tmean\tstderr\tn  (dispersion is standard error)")
        for name, stat in (("cos", self.cos), ("ffe", self.ffe), ("mcd", self.mcd)):
            lines.append(f"{name}\t{stat.mean:.3f}\t(±{stat.stderr:.3f})\t{stat.n_used}")
        lines.append(
            f"trainable_params\t{self.trainable_params}\t({self.trainable_pct:.3f}%)"
        )
        if self.n_failed:
            lines.append(f"synthesis_failures\t{self.n_failed}\tof {len(self.rows)}")
        return "\n".join(lines) + "\n"

    def write(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        tsv = os.path.join(out_dir, "report.tsv")
        with open(tsv, "w") as f:
            f.write(self.to_text())
        with open(os.path.join(out_dir, "report.json"), "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        return tsv


def evaluate(synthesize_fn, utterances, embedder, *, trainable_params=0,
             backbone_params=0):
    """Synthesize every utterance and score it against its reference features.

    `synthesize_fn(utt) -> (mel, info)` must provide info["f0"]; `embedder`
    maps a mel to a fixed-size vector. COS and FFE are scored as each
    utterance is synthesized, and its MCD pair checked and kept as cepstra;
    once every utterance is synthesized, MCD is scored in utterance order in
    batched DTW sweeps (mcd_scores). An InputError (bad input for one
    utterance, such as an alignment it cannot have) is recorded on its row
    and excluded from the aggregates; a NumericsError propagates with the
    utterance id prefixed, and any other exception is a fault and propagates
    as it is.
    """
    if not utterances:
        raise InputError("evaluate: empty utterance list")
    rows, scored, pairs = [], [], []
    for utt in utterances:
        try:
            mel, info = synthesize_fn(utt)
            cos = cos_metric(embedder(mel), embedder(utt.mel))
            pred_f0 = align_to_reference(np.asarray(info["f0"]), utt.f0.shape[0])
            ffe = ffe_metric(pred_f0, utt.f0)
            pair = mcd_cepstra(mel, utt.mel)
        except InputError as e:  # recorded per row, excluded from aggregates
            rows.append(EvalRow(utt.utt_id, utt.speaker,
                                error=f"{type(e).__name__}: {e}"))
            continue
        except NumericsError as e:
            raise NumericsError(f"{utt.utt_id}: {e}") from e
        rows.append(EvalRow(utt.utt_id, utt.speaker, cos=cos, ffe=ffe))
        scored.append(rows[-1])
        pairs.append(pair)
    if not scored:
        raise InputError("evaluate: synthesis failed on every utterance")
    for row, mcd in zip(scored, mcd_scores(pairs)):
        row.mcd = mcd
    pct = 100.0 * trainable_params / backbone_params if backbone_params else 0.0
    return EvalReport(
        rows=rows,
        cos=_stat([r.cos for r in scored]),
        ffe=_stat([r.ffe for r in scored]),
        mcd=_stat([r.mcd for r in scored]),
        trainable_params=trainable_params,
        trainable_pct=pct,
    )
