"""End-to-end checks of the command-line surface: exit codes, config
plumbing, run-directory layout, and every verb on a tiny pipeline."""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from hyperadapt import cli, featio, gradcheck
from hyperadapt.adaptation import AdapterDims
from hyperadapt.cli import build_parser, config_hash, default_config, load_config, main
from hyperadapt.corpus import CorpusSpec, generate_corpus
from hyperadapt.errors import ConfigError, in_range
from hyperadapt.model import ModelConfig
from hyperadapt.training import ScheduleConfig

TINY = {
    "corpus": {"utts_per_speaker": 4, "speakers_pretrain": 2, "speakers_adapt": 2},
    "model": {
        "vocab_size": 32, "n_mels": 20, "d_h": 24, "heads": 2, "enc_layers": 1,
        "dec_layers": 1, "d_spk": 24, "d_attn": 12, "postnet_channels": 16,
        "postnet_layers": 3,
    },
    "schedule": {
        "peak_lr": 1e-3, "warmup_steps": 2, "milestones": [6],
        "duration_start_step": 3, "total_steps": 8, "batch_size": 2,
        "binarization_ramp_steps": 2,
    },
    "adapt": {"strategy": "hyper_ev", "steps": 3, "lr": 1e-4, "batch_size": 2},
    "dims": {"d_r": 3, "d_2": 8, "d_l": 4, "d_s": 3},
}


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "tiny.json"
    cfg_path.write_text(json.dumps(TINY))
    return root


@pytest.fixture(scope="module")
def pipeline(workdir):
    """gen-corpus + pretrain + adapt + synthesize + dump-hyper-params, shared
    by the downstream verb tests. Every .bin file they write is one featio
    container: the corpus, the checkpoints, the synthesized features and
    the generated adapter weights all read back through read_checkpoint."""
    cfg = str(workdir / "tiny.json")
    out = str(workdir / "runs")
    code, stdout, _ = run_cli("gen-corpus", "--config", cfg, "--out-dir", out,
                              "--seed", "11")
    assert code == 0
    corpus = stdout.strip()
    code, stdout, _ = run_cli("pretrain", "--config", cfg, "--out-dir", out,
                              "--seed", "3", "--corpus", corpus)
    assert code == 0
    checkpoint = stdout.strip()
    code, stdout, _ = run_cli("adapt", "--config", cfg, "--out-dir", out,
                              "--seed", "5", "--corpus", corpus,
                              "--checkpoint", checkpoint)
    assert code == 0
    adapted = stdout.strip()
    for verb, args in (("synthesize", ["--utt", "adp_00_u000"]), ("dump-hyper-params", [])):
        code, _, _ = run_cli(verb, "--config", cfg, "--out-dir", out, "--corpus", corpus,
                             "--checkpoint", adapted, *args)
        assert code == 0
    written = sorted(os.path.join(d, f) for d, _, files in os.walk(out)
                     for f in files if f.endswith(".bin"))
    assert {os.path.basename(p) for p in written} == {
        "corpus.bin", "ckpt-000008.bin", "adapted.bin", "adp_00_u000.bin",
        "generated_params.bin"}
    for path in written:
        featio.read_checkpoint(path)
    return {"config": cfg, "out": out, "corpus": corpus,
            "checkpoint": checkpoint, "adapted": adapted}


# -----------------------------------------------------------------------------
# config handling
# -----------------------------------------------------------------------------


def test_unknown_config_key_rejected_before_side_effects(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"modle": {"d_h": 8}}))
    out = tmp_path / "runs"
    code, _, err = run_cli("gen-corpus", "--config", str(bad), "--out-dir", str(out))
    assert code == 2
    assert "modle" in err
    assert not out.exists()


def test_unknown_nested_key_named_with_full_path(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"dh": 8}}))
    code, _, err = run_cli("params", "--strategy", "tts0", "--config", str(bad))
    assert code == 2
    assert "model.dh" in err


def test_malformed_json_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli("params", "--strategy", "tts0", "--config", str(bad))
    assert code == 2
    assert "JSON" in err


@pytest.mark.parametrize("name", ["absent.json", ""])  # no file, or a directory
def test_missing_config_file(tmp_path, name):
    code, _, err = run_cli("params", "--strategy", "tts0",
                           "--config", str(tmp_path / name))
    assert code == 2
    assert "not found" in err


def test_set_overrides_and_bad_override():
    cfg = load_config(None, ["schedule.total_steps=99", "adapt.strategy=ft",
                             "synthesize.phonemes=5"])
    assert cfg["schedule"]["total_steps"] == 99
    assert cfg["adapt"]["strategy"] == "ft"
    assert cfg["synthesize"]["phonemes"] == "5"  # a text key keeps the text
    code, _, err = run_cli("params", "--strategy", "tts0", "--set", "no.such=1")
    assert code == 2
    code, _, err = run_cli("params", "--strategy", "tts0", "--set", "plainword")
    assert code == 2


@pytest.mark.parametrize("verb, setting, key", [
    ("pretrain", "model.d_h=abc", "model.d_h"),
    ("pretrain", "model.heads=0", "model.heads"),
    ("adapt", "dims.d_r=0", "dims.d_r"),
    ("pretrain", "model.enc_layers=-1", "model.enc_layers"),
    ("pretrain", None, "model.d_h"),  # {"d_h": "32"} in the config file
    ("dump-hyper-params", "dump.jitters=-2", "dump.jitters"),
    # ranges are checked for every verb, not only the one that reads the key
    ("gen-corpus", "evaluate.split=bogus", "evaluate.split"),
    ("gen-corpus", "evaluate.speakers=nobody", "evaluate.speakers"),
    ("gen-corpus", "dump.jitters=-3", "dump.jitters"),
    ("grad-check", "adapt.lr=0", "adapt.lr"),
    ("gen-corpus", "model.n_mels=0", "model.n_mels"),
    # attention splits d_h across the heads; the postnet needs an input and an output conv
    *[(verb, f"model.{key}={value}", f"model.{key}")
      for verb in ("gen-corpus", "pretrain", "params")
      for key, value in (("heads", 3), ("postnet_layers", 1))],
    ("pretrain", "schedule.milestones=[3000,2000]", "schedule.milestones"),
    ("pretrain", "schedule.milestones=[30,30]", "schedule.warmup_steps"),
    ("pretrain", "schedule.warmup_steps=-5", "schedule.warmup_steps"),
    ("pretrain", "schedule.duration_start_step=-10", "schedule.duration_start_step"),
    ("pretrain", "schedule.binarization_ramp_steps=0", "schedule.binarization_ramp_steps"),
    # a number that is not finite lies in no range
    ("gen-corpus", "adapt.lr=NaN", "adapt.lr"),
    ("pretrain", "schedule.peak_lr=NaN", "schedule.peak_lr"),
    ("adapt", "adapt.lr=NaN", "adapt.lr"),
    ("grad-check", "schedule.peak_lr=Infinity", "schedule.peak_lr"),
    ("gen-corpus", "seed=-1", "seed"),
    # each milestone is an int
    ("pretrain", 'schedule.milestones=["a"]', "schedule.milestones"),
    ("pretrain", "schedule.milestones=[null]", "schedule.milestones"),
    ("pretrain", "schedule.milestones=[4500.7]", "schedule.milestones"),
])
def test_mistyped_or_nonpositive_config_exits_2_before_run_dir(tmp_path, verb, setting, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({} if setting else {"model": {"d_h": "32"}}))
    out = tmp_path / "runs"
    # the config is checked before the paths, so any existing file will do
    flags = {"pretrain": ["--corpus"], "adapt": ["--corpus", "--checkpoint"],
             "dump-hyper-params": ["--corpus", "--checkpoint"], "grad-check": [],
             "gen-corpus": [], "params": []}[verb]
    paths = [arg for flag in flags for arg in (flag, str(cfg))]
    strategy = ["--strategy", "hyper_evd"] if verb == "params" else []
    code, _, err = run_cli(verb, "--config", str(cfg), "--out-dir", str(out), *paths,
                           *strategy, *(["--set", setting] if setting else []))
    assert code == 2
    assert err.startswith("ConfigError") and key in err
    assert not out.exists()


@pytest.mark.parametrize("verb, args", [
    ("synthesize", ["--wav"]),
    ("synthesize", ["--set", "synthesize.wav=true"]),
    ("evaluate", ["--set", "evaluate.coeffs=0"]),
    ("dump-hyper-params", ["--set", "dump.jitter_scale=0.1"]),
    ("pretrain", ["--manifest"]),
    ("evaluate", ["--set", "paths.manifest=corpus.bin"]),
    # sizes of the model, read from the model config
    ("gen-corpus", ["--set", "corpus.vocab_size=32"]),
    ("gen-corpus", ["--set", "corpus.n_mels=20"]),
    ("gen-corpus", ["--set", "corpus.d_spk=24"]),
    ("adapt", ["--set", "dims.d_h=32"]),
    ("params", ["--strategy", "hyper_e", "--set", "dims.d_1=24"]),
    # Adam's and the learning-rate decay's constants
    ("pretrain", ["--set", "schedule.anneal_factor=0.5"]),
    ("pretrain", ["--set", "schedule.beta1=0.8"]),
    ("pretrain", ["--set", "schedule.beta2=0.99"]),
    ("pretrain", ["--set", "schedule.eps=1e-8"]),
    # FastSpeech 2's kernels and dropout rates, the corpus recipe's noise
    # and split, and the grad-check suite's size and threshold
    *[(verb, ["--set", setting]) for verb, setting in (
        ("pretrain", "model.dropout=0.2"), ("pretrain", "model.conv_kernel=9"),
        ("pretrain", "model.postnet_kernel=5"), ("pretrain", "model.var_kernel=3"),
        ("pretrain", "model.var_dropout=0.5"), ("gen-corpus", "corpus.texture=0.05"),
        ("gen-corpus", "corpus.jitter=0.02"), ("gen-corpus", "corpus.quirk_scale=2.4"),
        ("gen-corpus", "corpus.val_fraction=0.2"), ("grad-check", "gradcheck.instances=1"),
        ("grad-check", "gradcheck.threshold=1e-4"))],
    ("grad-check", ["--instances=1"]),
    ("grad-check", ["--threshold=1e-4"]),
])
def test_removed_flag_and_keys_exit_2(tmp_path, verb, args):
    # the waveform preview, the MCD-width and jitter-size keys, the
    # manifest (a corpus is one file, passed as --corpus), the corpus and
    # adapter sizes the model fixes, the optimizer's constants and the
    # method's other constants are gone
    out = tmp_path / "runs"
    code, _, err = run_cli(verb, "--out-dir", str(out), *args)
    assert code == 2
    assert args[-1].split("=")[0] in err
    assert not out.exists()


# Every settable value, by its dotted key. Adding or removing one is a change
# to this list too.
SETTABLE = [
    "adapt.batch_size", "adapt.lr", "adapt.steps", "adapt.strategy",
    "corpus.max_phonemes", "corpus.min_phonemes", "corpus.speakers_adapt",
    "corpus.speakers_pretrain", "corpus.utts_per_speaker",
    "dims.d_2", "dims.d_l", "dims.d_r", "dims.d_s",
    "dump.jitters",
    "evaluate.speakers", "evaluate.split",
    "gradcheck.networks",
    "model.d_attn", "model.d_h", "model.d_spk", "model.dec_layers", "model.enc_layers",
    "model.heads", "model.n_mels", "model.postnet_channels", "model.postnet_layers",
    "model.vocab_size",
    "out_dir",
    "paths.checkpoint", "paths.corpus",
    "schedule.batch_size", "schedule.binarization_ramp_steps", "schedule.duration_start_step",
    "schedule.milestones", "schedule.peak_lr", "schedule.total_steps", "schedule.warmup_steps",
    "seed",
    "synthesize.phonemes", "synthesize.speaker", "synthesize.utt",
]


def test_settable_values_are_the_pinned_list():
    def leaves(node, prefix=""):
        for key, value in node.items():
            if isinstance(value, dict):
                yield from leaves(value, f"{prefix}{key}.")
            else:
                yield prefix + key

    assert sorted(leaves(default_config())) == SETTABLE
    assert len(SETTABLE) == 41


# The settable values that take any text: the only ones with no declared range.
FREE_TEXT = {"out_dir", "paths.checkpoint", "paths.corpus", "gradcheck.networks",
             "synthesize.phonemes", "synthesize.speaker", "synthesize.utt"}
# A verb that reads each section (and seed); every verb checks every value.
READER = {"adapt": "adapt", "corpus": "gen-corpus", "dims": "adapt",
          "dump": "dump-hyper-params", "evaluate": "evaluate", "model": "pretrain",
          "schedule": "pretrain", "seed": "pretrain"}
# What other keys must hold for an edge value to pass the cross-field rules.
EDGE_CONTEXT = {"corpus.max_phonemes": ["corpus.min_phonemes=1"], "model.d_h": ["model.heads=1"],
                "schedule.milestones": ["schedule.warmup_steps=0"]}


def declared_ranges():
    """Dotted key -> its declared range: the CLI's table and every field of
    the config dataclasses, each declared once."""
    ranges = dict(cli._RANGES)
    for section, cls in (("model", ModelConfig), ("schedule", ScheduleConfig),
                         ("corpus", CorpusSpec), ("dims", AdapterDims)):
        for f in dataclasses.fields(cls):
            assert f"{section}.{f.name}" not in ranges
            ranges[f"{section}.{f.name}"] = f.metadata["range"]
    return ranges


def _value(cfg, key):
    for part in key.split("."):
        cfg = cfg[part]
    return cfg


def _default(key):
    return _value(default_config(), key)


def _interval(key, declared):
    """(low, high, low included, high included, step) of an interval range;
    the step is 1 for an int key (or a list of ints)."""
    interval = declared.removeprefix("int ")
    low, high = (float(end) for end in interval[1:-1].split(","))
    step = 1 if isinstance(_default(key), (int, list)) else 1e-3
    return low, high, interval[0] == "[", interval[-1] == "]", step


def _as_key_type(key, value):
    default = _default(key)
    if isinstance(default, list):
        return [int(value)]
    return int(value) if isinstance(default, int) else value


def outside_values(key, declared):
    """Values just outside the range declared for `key`."""
    if callable(declared) or isinstance(declared, tuple):
        return ["bogus"]
    low, high, low_in, high_in, step = _interval(key, declared)
    values = [low - step if low_in else low]
    if high != float("inf"):
        values.append(high + step if high_in else high)
    return [_as_key_type(key, v) for v in values]


def edge_values(key, declared):
    """The values at the included ends of the range declared for `key`:
    every choice, and for a strategy two labels in its grammar."""
    if isinstance(declared, tuple):
        return list(declared)
    if callable(declared):
        return ["tts0", "hyper_dve"]
    low, high, low_in, high_in, _ = _interval(key, declared)
    ends = [end for end, included in ((low, low_in), (high, high_in))
            if included and end != float("inf")]
    return [_as_key_type(key, end) for end in ends]


RANGED = sorted(set(SETTABLE) - FREE_TEXT)


def test_every_settable_value_but_free_text_declares_its_range():
    ranges = declared_ranges()
    assert [key for key in RANGED if key not in ranges] == []
    assert [key for key in FREE_TEXT if key in ranges] == []
    assert all(isinstance(_default(key), str) for key in FREE_TEXT)


@pytest.mark.parametrize("key", RANGED)
def test_value_just_outside_its_range_exits_2_before_run_dir(tmp_path, key):
    declared = declared_ranges()[key]
    for value in outside_values(key, declared):
        setting = f"{key}={value if isinstance(value, str) else json.dumps(value)}"
        for verb in ("gen-corpus", READER[key.split(".")[0]]):
            out = tmp_path / "runs"
            code, _, err = run_cli(verb, "--out-dir", str(out), "--set", setting)
            assert code == 2, (verb, setting, err)
            assert err.startswith("ConfigError") and key in err, (verb, setting, err)
            assert not out.exists()


@pytest.mark.parametrize("key", RANGED)
def test_edge_of_each_range_is_accepted(key):
    for value in edge_values(key, declared_ranges()[key]):
        setting = f"{key}={value if isinstance(value, str) else json.dumps(value)}"
        cfg = load_config(None, [setting, *EDGE_CONTEXT.get(key, [])])
        assert _value(cfg, key) == value


@pytest.mark.parametrize("declared, value", [
    ("[0, inf)", float("nan")), ("[0, inf)", float("inf")), ("[0, inf)", -float("inf")),
    ("(0, 1)", float("nan")), ("[0, inf)", True), ("[0, inf)", "1"), ("[0, inf)", None),
    ("[1, inf)", 0.5), ("int [1, inf)", 2.0), ("[1, inf)", [1, 0]),
    ("int [1, inf)", [4500.7]), (("a", "b"), "c"),
])
def test_in_range_refuses_values_outside(declared, value):
    with pytest.raises(ConfigError, match=r"^some\.key="):
        in_range("some.key", value, declared)


def test_non_finite_or_negative_values_in_a_config_file_exit_2(tmp_path):
    # json.load reads NaN and Infinity; the flag --seed sets seed
    out = tmp_path / "runs"
    cfg = tmp_path / "cfg.json"
    for data, args, key in (({"adapt": {"lr": float("nan")}}, [], "adapt.lr"),
                            ({"schedule": {"peak_lr": float("inf")}}, [], "schedule.peak_lr"),
                            ({"seed": -1}, [], "seed"), ({}, ["--seed", "-1"], "seed")):
        cfg.write_text(json.dumps(data))
        for verb in ("gen-corpus", "pretrain"):
            code, _, err = run_cli(verb, "--config", str(cfg), "--out-dir", str(out), *args)
            assert code == 2 and err.startswith("ConfigError") and key in err, err
            assert not out.exists()


def test_default_corpus_fits_the_default_model(tmp_path):
    # the corpus takes its vocabulary, mel width and embedding size from the
    # model config, so the defaults of both verbs agree
    out = str(tmp_path / "runs")
    code, stdout, err = run_cli("gen-corpus", "--out-dir", out,
                                "--set", "corpus.utts_per_speaker=4")
    assert code == 0, err
    code, _, err = run_cli("pretrain", "--out-dir", out, "--corpus", stdout.strip(),
                           "--set", "schedule.total_steps=2")
    assert code == 0, err


def test_config_hash_ignores_seed_only():
    a = load_config(None, ["seed=1"])
    b = load_config(None, ["seed=2"])
    c = load_config(None, ["dims.d_r=5", "seed=1"])
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


# -----------------------------------------------------------------------------
# params
# -----------------------------------------------------------------------------


def test_params_prints_bare_counts():
    code, stdout, _ = run_cli("params", "--strategy", "adapter_e")
    assert code == 0 and stdout == "66688\n"
    code, stdout, _ = run_cli("params", "--strategy", "tts0")
    assert code == 0 and stdout == "0\n"
    code, stdout, _ = run_cli("params", "--strategy", "hyper_evd")
    assert code == 0 and stdout == "453336\n"


def test_params_ft_counts_tiny_backbone(workdir):
    code, stdout, _ = run_cli("params", "--strategy", "ft",
                              "--config", str(workdir / "tiny.json"))
    assert code == 0
    from hyperadapt.model import ModelConfig, TTSModel

    model = TTSModel(ModelConfig(**TINY["model"]), seed=0)
    expected = sum(p.data.size for _, p in model.named_parameters())
    assert int(stdout) == expected


def test_params_respects_dim_overrides():
    # the adapters take their width from the model
    code, stdout, _ = run_cli("params", "--strategy", "adapter_v",
                              "--set", "model.d_h=32", "--set", "dims.d_r=4")
    # two variance sites x (32*4 + 4 + 4*32 + 32)
    assert code == 0 and int(stdout) == 2 * 292


def test_params_bad_strategy_exits_2():
    code, _, err = run_cli("params", "--strategy", "adapter_q")
    assert code == 2 and "adapter" in err


# -----------------------------------------------------------------------------
# run directories
# -----------------------------------------------------------------------------


def test_run_dir_named_by_hash_and_seed(pipeline):
    cfg = load_config(pipeline["config"])
    run_dir = os.path.dirname(os.path.dirname(pipeline["corpus"]))
    name = os.path.basename(run_dir)
    assert name.startswith("gen-corpus-") and name.endswith("-s11")
    assert os.listdir(os.path.dirname(pipeline["corpus"])) == ["corpus.bin"]
    echoed = json.load(open(os.path.join(run_dir, "config.json")))
    assert echoed["corpus"]["utts_per_speaker"] == 4
    assert echoed["seed"] == 11
    assert echoed["out_dir"] == pipeline["out"]


def test_gen_corpus_idempotent(workdir):
    cfg = str(workdir / "tiny.json")

    def tree(out):
        code, stdout, _ = run_cli("gen-corpus", "--config", cfg, "--out-dir",
                                  str(out), "--seed", "7")
        assert code == 0
        base = os.path.dirname(stdout.strip())
        snap = {}
        for dirpath, _, files in os.walk(base):
            for f in files:
                p = os.path.join(dirpath, f)
                snap[os.path.relpath(p, base)] = open(p, "rb").read()
        return snap

    first = tree(workdir / "runs_a")
    second = tree(workdir / "runs_b")
    assert first.keys() == second.keys()
    assert all(first[k] == second[k] for k in first)


# -----------------------------------------------------------------------------
# pipeline verbs
# -----------------------------------------------------------------------------


def test_adapt_rerun_rewrites_logs(pipeline):
    log = os.path.join(os.path.dirname(pipeline["adapted"]), "adapt_log.tsv")
    before = open(log).read()
    code, stdout, _ = run_cli("adapt", "--config", pipeline["config"],
                              "--out-dir", pipeline["out"], "--seed", "5",
                              "--corpus", pipeline["corpus"],
                              "--checkpoint", pipeline["checkpoint"])
    assert code == 0
    assert open(log).read() == before


def test_adapt_strategy_flag_changes_run_dir(pipeline):
    code, stdout, _ = run_cli("adapt", "--config", pipeline["config"],
                              "--out-dir", pipeline["out"], "--seed", "5",
                              "--corpus", pipeline["corpus"],
                              "--checkpoint", pipeline["checkpoint"],
                              "--strategy", "tts0")
    assert code == 0
    tts0_out = stdout.strip()
    assert tts0_out != pipeline["adapted"]
    assert open(tts0_out, "rb").read() == open(pipeline["checkpoint"], "rb").read()


def test_synthesize_by_utterance(pipeline):
    utt = "adp_00_u000"
    code, stdout, _ = run_cli("synthesize", "--config", pipeline["config"],
                              "--out-dir", pipeline["out"],
                              "--corpus", pipeline["corpus"],
                              "--checkpoint", pipeline["adapted"],
                              "--utt", utt)
    assert code == 0
    path = stdout.strip()
    assert os.path.basename(path) == utt + ".bin"
    meta, arrays = featio.read_checkpoint(path)
    assert meta == {} and sorted(arrays) == ["durations", "energy", "f0", "mel"]
    mel, durations = arrays["mel"], arrays["durations"]
    assert mel.ndim == 2 and mel.shape[1] == TINY["model"]["n_mels"]
    assert arrays["f0"].shape == arrays["energy"].shape == (len(mel),)
    assert durations.dtype == np.int64 and durations.sum() == len(mel)


def test_synthesize_custom_phonemes(pipeline):
    code, stdout, _ = run_cli("synthesize", "--config", pipeline["config"],
                              "--out-dir", pipeline["out"],
                              "--corpus", pipeline["corpus"],
                              "--checkpoint", pipeline["adapted"],
                              "--phonemes", "3,5,7,2", "--speaker", "adp_00")
    assert code == 0
    assert os.path.basename(stdout.strip()) == "adp_00-custom.bin"
    _, arrays = featio.read_checkpoint(stdout.strip())
    assert arrays["durations"].shape == (4,)


@pytest.mark.parametrize("verb, args, message", [
    ("synthesize", ["--utt", "no_such_utt"], "no_such_utt"),
    ("synthesize", [], "needs --utt, or both --phonemes and --speaker"),
    ("synthesize", ["--phonemes", "1,x,3", "--speaker", "adp_00"], "comma-separated"),
    ("synthesize", ["--phonemes", "999,3", "--speaker", "adp_00"], "id 999 outside"),
    ("synthesize", ["--phonemes", "3,5", "--speaker", "adp_99"], "'adp_99' has no train"),
    ("synthesize", ["--utt", "adp_00_u001", "--phonemes", "999,3", "--speaker", "adp_99"],
     "synthesize takes --utt, or --phonemes and --speaker, not both"),
    # a corpus file whose spec gives each speaker one utterance, so no train split
    ("evaluate", ["--split", "train"], "corpus metadata: corpus.utts_per_speaker=1 is not in"),
    ("dump-hyper-params", [], "needs a hyper checkpoint"),  # given the pretrained checkpoint
])
def test_bad_input_exits_2_without_a_run_dir(pipeline, tmp_path, verb, args, message):
    corpus, checkpoint = pipeline["corpus"], pipeline["adapted"]
    if verb == "evaluate":
        meta, tensors = featio.read_checkpoint(corpus)
        meta["spec"]["utts_per_speaker"] = 1
        corpus = str(tmp_path / "corpus.bin")
        featio.write_checkpoint(corpus, meta, tensors)
    if verb == "dump-hyper-params":
        checkpoint = pipeline["checkpoint"]
    out = tmp_path / "runs"
    code, _, err = run_cli(verb, "--config", pipeline["config"], "--out-dir", str(out),
                           "--corpus", corpus, "--checkpoint", checkpoint, *args)
    assert code == 2 and message in err, err
    assert not out.exists()


@pytest.mark.parametrize("case, message", [
    ("checkpoint", "not a corpus (metadata keys ['adam_t', "),
    ("string_utts", "corpus metadata: key 'corpus.utts_per_speaker' expects int, got '4'"),
    ("more_utts", "no array adp_00_u004.phonemes"),
    ("utts_flip", "CRC-32 mismatch (file damaged or truncated)"),
    # a corpus written when the recipe's noise was a spec key
    ("old_texture", "corpus metadata: unknown key 'corpus.texture'"),
])
def test_bad_corpus_exits_2_without_a_run_dir(pipeline, tmp_path, case, message):
    # a model checkpoint passed as the corpus, a corpus whose spec has a
    # value of the wrong type, names utterances the file lacks or holds a
    # key no spec has, and one whose metadata took a flipped byte that would
    # make the loader expect utterances the file lacks
    corpus = str(tmp_path / "corpus.bin")
    if case == "checkpoint":
        shutil.copyfile(pipeline["checkpoint"], corpus)
    elif case == "utts_flip":
        blob = open(pipeline["corpus"], "rb").read()
        assert blob.count(b'"utts_per_speaker":4') == 1
        open(corpus, "wb").write(blob.replace(b'"utts_per_speaker":4',
                                              b'"utts_per_speaker":5'))
    else:
        meta, tensors = featio.read_checkpoint(pipeline["corpus"])
        if case == "old_texture":
            meta["spec"]["texture"] = 0.05
        else:
            meta["spec"]["utts_per_speaker"] = "4" if case == "string_utts" else 5
        featio.write_checkpoint(corpus, meta, tensors)
    out = tmp_path / "runs"
    code, _, err = run_cli("pretrain", "--config", pipeline["config"], "--out-dir", str(out),
                           "--corpus", corpus)
    assert code == 2 and err.startswith(f"InputError: {corpus}: {message}"), err
    assert err.rstrip().endswith("regenerate the corpus with gen-corpus")
    assert os.listdir(out) == []


@pytest.mark.parametrize("setting, message", [
    ("corpus.speakers_pretrain=1", "corpus.speakers_pretrain=1 is not in [2, inf)"),
    # no validation, and no train utterance
    ("corpus.utts_per_speaker=0", "corpus.utts_per_speaker=0 is not in [2, inf)"),
    ("corpus.utts_per_speaker=1", "corpus.utts_per_speaker=1 is not in [2, inf)"),
    ("corpus.min_phonemes=15", "corpus.min_phonemes=15 is more than corpus.max_phonemes=14"),
])
def test_bad_corpus_spec_exits_2_without_a_run_dir(pipeline, tmp_path, setting, message):
    out = tmp_path / "runs"
    code, _, err = run_cli("gen-corpus", "--config", pipeline["config"], "--out-dir", str(out),
                           "--set", setting)
    assert code == 2 and message in err, err
    assert not out.exists()


@pytest.mark.parametrize("verb, args, message", [
    ("pretrain", ["--corpus", "JUNK"], "not a checkpoint"),
    ("adapt", ["--checkpoint", "JUNK"], "not a checkpoint"),
    ("adapt", ["--checkpoint", "JUNK", "--strategy", "tts0"], "not a checkpoint"),
    ("adapt", ["--checkpoint", "DAMAGED", "--strategy", "tts0"],
     "InputError: {DAMAGED}: CRC-32 mismatch (file damaged or truncated)"),
    # tts0 copies only a checkpoint, not any container
    ("adapt", ["--checkpoint", "CORPUS", "--strategy", "tts0"],
     "InputError: {CORPUS}: checkpoint metadata: key 'model_config' expects dict"),
    # the adapters take model.d_h from the config; the checkpoint's differs
    ("adapt", ["--checkpoint", "PRETRAINED", "--set", "model.d_h=16"],
     "ConfigError: adapters sized for model.d_h=16, but the checkpoint's model has d_h=24"),
    # an adapted checkpoint is neither the tts0 baseline nor a backbone to adapt again
    ("adapt", ["--checkpoint", "ADAPTED", "--strategy", "tts0"],
     "StateError: {ADAPTED} is not a pretraining checkpoint"),
    ("adapt", ["--checkpoint", "ADAPTED", "--strategy", "hyper_evd"],
     "StateError: {ADAPTED} is not a pretraining checkpoint"),
])
def test_bad_input_removes_the_run_dir_it_made(pipeline, tmp_path, verb, args, message):
    # these verbs make their run directory before they read their input;
    # tts0 copies its input, once it loads as a pretraining checkpoint
    junk = tmp_path / "junk.bin"
    junk.write_bytes(bytes(range(16)))
    damaged = bytearray(open(pipeline["checkpoint"], "rb").read())
    damaged[-1] ^= 0x01
    (tmp_path / "damaged.bin").write_bytes(bytes(damaged))
    paths = {"JUNK": str(junk), "DAMAGED": str(tmp_path / "damaged.bin"),
             "PRETRAINED": pipeline["checkpoint"], "CORPUS": pipeline["corpus"],
             "ADAPTED": pipeline["adapted"]}
    args = [paths.get(a, a) for a in args]
    if verb == "adapt":
        args += ["--corpus", pipeline["corpus"]]
    out = tmp_path / "runs"
    code, _, err = run_cli(verb, "--config", pipeline["config"], "--out-dir", str(out), *args)
    assert code == 2 and message.format(**paths) in err, err
    assert os.listdir(out) == []


@pytest.fixture(scope="module")
def misfit_corpora(workdir):
    """key -> a corpus of the tiny config's spec with that size of the tiny
    model changed: fewer mel bins, a smaller embedding, a larger vocabulary."""
    sizes = {k: TINY["model"][k] for k in ("vocab_size", "n_mels", "d_spk")}
    return {key: generate_corpus(CorpusSpec(**TINY["corpus"], **{**sizes, key: value}), 11,
                                 str(workdir / "misfit" / key))
            for key, value in (("n_mels", 16), ("d_spk", 16), ("vocab_size", 40))}


@pytest.mark.parametrize("key", ["n_mels", "d_spk", "vocab_size"])
@pytest.mark.parametrize("verb", ["pretrain", "adapt", "evaluate", "synthesize",
                                  "dump-hyper-params"])
def test_corpus_that_misfits_the_model_exits_2_without_a_run_dir(
        pipeline, misfit_corpora, tmp_path, verb, key):
    # every verb that reads a corpus checks each utterance it reads against
    # the model before training or synthesis: the pretrain's config, or the
    # checkpoint's model
    corpus = misfit_corpora[key]
    args = {"pretrain": [], "adapt": ["--checkpoint", pipeline["checkpoint"]],
            "evaluate": ["--checkpoint", pipeline["adapted"]],
            "synthesize": ["--checkpoint", pipeline["adapted"], "--utt", "adp_00_u001"],
            "dump-hyper-params": ["--checkpoint", pipeline["adapted"]]}[verb]
    out = tmp_path / "runs"
    code, _, err = run_cli(verb, "--config", pipeline["config"], "--out-dir", str(out),
                           "--corpus", corpus, *args)
    assert code == 2, err
    assert err.startswith(f"InputError: {corpus}: utterance "), err
    assert f"but the model has model.{key}={TINY['model'][key]}" in err, err
    assert not (out.exists() and os.listdir(out))


@pytest.mark.parametrize("verb", ["adapt", "synthesize", "evaluate", "dump-hyper-params"])
def test_directory_as_checkpoint_exits_2_without_a_run_dir(pipeline, tmp_path, verb):
    # adapt makes its run directory before it reads the checkpoint, and
    # removes it; the others read their inputs first
    directory = tmp_path / "checkpoint"
    directory.mkdir()
    extra = ["--utt", "adp_00_u001"] if verb == "synthesize" else []
    out = tmp_path / "runs"
    code, _, err = run_cli(verb, "--config", pipeline["config"], "--out-dir", str(out),
                           "--corpus", pipeline["corpus"], "--checkpoint", str(directory),
                           *extra)
    assert code == 2, err
    assert err.startswith(f"InputError: {directory}: cannot be read (Is a directory)"), err
    assert (os.listdir(out) == []) if verb == "adapt" else not out.exists()


def test_bad_input_keeps_a_run_dir_that_existed(pipeline, tmp_path):
    # a pretrain resumes in its run directory: a failed call never removes
    # one it did not make, even one holding only the config echo
    junk = tmp_path / "junk.bin"
    junk.write_bytes(bytes(16))
    out = tmp_path / "runs"
    cfg = load_config(pipeline["config"], [f"paths.corpus={junk}", f"out_dir={out}"])
    run_dir = out / f"pretrain-{config_hash(cfg)}-s0"
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text("{}\n")
    code, _, _ = run_cli("pretrain", "--config", pipeline["config"], "--out-dir", str(out),
                         "--corpus", str(junk))
    assert code == 2
    assert os.listdir(out) == [run_dir.name] and os.listdir(run_dir) == ["config.json"]
    # the call echoed its config into this same directory before it failed
    assert json.loads((run_dir / "config.json").read_text())["paths"]["corpus"] == str(junk)


def test_evaluate_writes_report(pipeline):
    code, stdout, _ = run_cli("evaluate", "--config", pipeline["config"],
                              "--out-dir", pipeline["out"],
                              "--corpus", pipeline["corpus"],
                              "--checkpoint", pipeline["adapted"],
                              "--split", "val", "--speakers", "adapt")
    assert code == 0
    lines = stdout.strip().splitlines()
    report_path = lines[0]
    assert report_path.endswith("report.tsv")
    data = json.load(open(report_path.replace(".tsv", ".json")))
    assert data["dispersion"] == "standard error"
    assert data["params"]["trainable"] > 0
    assert any(line.startswith("cos\t") for line in lines[1:])


@pytest.mark.parametrize("checkpoint", ["checkpoint", "adapted"])
def test_evaluate_counts_the_checkpoints_trainable_params(pipeline, checkpoint):
    # the strategy the checkpoint's metadata names: none for a pretrain
    # checkpoint, the config's hyper_ev for the adapted one
    code, stdout, _ = run_cli("evaluate", "--config", pipeline["config"],
                              "--out-dir", pipeline["out"],
                              "--corpus", pipeline["corpus"],
                              "--checkpoint", pipeline[checkpoint])
    assert code == 0
    data = json.load(open(stdout.splitlines()[0].replace(".tsv", ".json")))
    _, count, _ = run_cli("params", "--strategy", "hyper_ev", "--config", pipeline["config"])
    assert data["params"]["trainable"] == (0 if checkpoint == "checkpoint" else int(count))


def test_dump_hyper_params_exports_per_speaker_vectors(pipeline):
    code, stdout, _ = run_cli("dump-hyper-params", "--config", pipeline["config"],
                              "--out-dir", pipeline["out"],
                              "--corpus", pipeline["corpus"],
                              "--checkpoint", pipeline["adapted"],
                              "--jitters", "2")
    assert code == 0
    path = stdout.strip().splitlines()[0]
    meta, arrays = featio.read_checkpoint(path)
    assert meta["strategy"] == "hyper_ev"
    assert sorted(meta["speakers"]) == ["adp_00", "adp_01"]
    # hyper_ev on a 1-layer encoder: 1 e site + 2 v sites per embedding
    assert len(arrays) == 2 * 3 * 3
    d_h, d_r = TINY["model"]["d_h"], TINY["dims"]["d_r"]
    width = 2 * (d_h * d_r) + d_r + d_h
    for key, vec in arrays.items():
        assert vec.shape == (width,)
        assert vec.dtype == np.float64


def test_grad_check_verb(pipeline):
    code, stdout, _ = run_cli("grad-check", "--networks", "adapter,duration_head")
    assert code == 0
    assert "PASS  adapter  instances=5" in stdout and "PASS  duration_head" in stdout
    assert "all 10 checks passed" in stdout


def test_grad_check_failure_exits_3(monkeypatch):
    monkeypatch.setattr(gradcheck, "THRESHOLD", 1e-15)
    code, stdout, err = run_cli("grad-check", "--networks", "adapter")
    assert code == 3
    assert "FAIL" in stdout and "failed" in err


def test_grad_check_unknown_network_exits_2():
    code, _, err = run_cli("grad-check", "--networks", "nonexistent")
    assert code == 2


# -----------------------------------------------------------------------------
# interface plumbing
# -----------------------------------------------------------------------------


def test_every_verb_help_lists_flags():
    """Each verb's flags, with the config key each one sets (its dest) and
    whether it is required; every such key exists in the default config."""
    expected = {
        "gen-corpus": {},
        "pretrain": {"--corpus": "paths.corpus"},
        "adapt": {"--corpus": "paths.corpus", "--checkpoint": "paths.checkpoint",
                  "--strategy": "adapt.strategy", "--steps": "adapt.steps"},
        "synthesize": {"--corpus": "paths.corpus", "--checkpoint": "paths.checkpoint",
                       "--utt": "synthesize.utt", "--speaker": "synthesize.speaker",
                       "--phonemes": "synthesize.phonemes"},
        "evaluate": {"--corpus": "paths.corpus", "--checkpoint": "paths.checkpoint",
                     "--split": "evaluate.split", "--speakers": "evaluate.speakers"},
        "params": {"--strategy": "adapt.strategy"},
        "dump-hyper-params": {"--corpus": "paths.corpus",
                              "--checkpoint": "paths.checkpoint", "--jitters": "dump.jitters"},
        "grad-check": {"--networks": "gradcheck.networks"},
    }
    required = {("params", "--strategy")}
    parser = build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(verbs.choices) == set(expected)
    defaults = default_config()
    for verb, flags in expected.items():
        got = {a.option_strings[0]: (a.dest, a.required) for a in verbs.choices[verb]._actions
               if a.dest not in ("help", "config", "set")}
        want = {flag: (key, (verb, flag) in required)
                for flag, key in {"--seed": "seed", "--out-dir": "out_dir", **flags}.items()}
        assert got == want, verb
        for key, _ in got.values():
            node = defaults
            for part in key.split("."):
                assert isinstance(node, dict) and part in node, f"{verb}: no config key {key}"
                node = node[part]

        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as e:
            parser.parse_args([verb, "--help"])
        assert e.value.code == 0
        text = out.getvalue()
        for flag in [*flags, "--config", "--set", "--seed", "--out-dir"]:
            assert flag in text, f"{verb} --help missing {flag}"


def test_help_and_bad_verb_exit_codes():
    code, _, _ = run_cli("--help")
    assert code == 0
    code, _, _ = run_cli("no-such-verb")
    assert code == 2
    code, _, _ = run_cli()
    assert code == 2


def test_console_script_installed():
    proc = subprocess.run(["hyperadapt", "params", "--strategy", "adapter_evd"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "200064"
