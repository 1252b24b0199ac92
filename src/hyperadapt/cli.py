"""Command-line entry point binding corpus generation, training, adaptation,
synthesis, and evaluation into reproducible runs.

Config-first: every knob lives in one JSON config; flags and key=value
overrides only replace config keys. Each command writes under a run directory
named by the hash of its effective config plus the seed, and echoes that
config into the directory, so a run can always be reproduced from its folder.

Exit codes: 0 success, 2 usage (bad flags, bad config, bad inputs),
3 internal failure (broken invariant or numerical blowup).
"""

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import sys

import numpy as np

from . import corpus as corpus_mod
from . import featio, gradcheck, metrics
from . import training as tr
from .adaptation import AdapterDims, StrategyConfig, count_trainable_params
from .corpus import CorpusSpec, synthetic_embedding
from .errors import ConfigError, HyperadaptError, InputError, StateError, checked, merge_checked
from .model import ModelConfig, TTSModel
from .training import ScheduleConfig, adaptation_schedule

CONFIG_DIR_ENV = "HYPERADAPT_CONFIG_DIR"

_SPEAKER_GROUPS = {"adapt": True, "pretrain": False, "all": None}
_SPLITS = ("train", "val", "all")

# The CorpusSpec and AdapterDims fields that are sizes of the model, each
# mapped to the ModelConfig field it is read from: not settable themselves.
_FROM_MODEL = {
    "corpus": (CorpusSpec, {"vocab_size": "vocab_size", "n_mels": "n_mels", "d_spk": "d_spk"}),
    "dims": (AdapterDims, {"d_h": "d_h", "d_1": "d_spk"}),
}


def _settable(section):
    cls, derived = _FROM_MODEL[section]
    return {k: v for k, v in dataclasses.asdict(cls()).items() if k not in derived}


def _with_model_sizes(cfg, section):
    """The CorpusSpec or AdapterDims of config section `section`, its model
    sizes read from the model config."""
    cls, derived = _FROM_MODEL[section]
    model = ModelConfig(**cfg["model"])
    return cls(**cfg[section], **{k: getattr(model, m) for k, m in derived.items()})


def default_config():
    return {
        "seed": 0,
        "out_dir": "runs",
        "corpus": _settable("corpus"),
        "model": ModelConfig().to_dict(),
        "schedule": {**dataclasses.asdict(ScheduleConfig()),
                     "milestones": list(ScheduleConfig().milestones)},
        "adapt": {"strategy": "hyper_evd", "steps": 3000, "lr": 1e-4, "batch_size": 8},
        "dims": _settable("dims"),
        "paths": {"corpus": "", "checkpoint": ""},
        "synthesize": {"utt": "", "speaker": "", "phonemes": ""},
        "evaluate": {"split": "val", "speakers": "adapt"},
        "dump": {"jitters": 0},
        "gradcheck": {"instances": 5, "threshold": 1e-4, "networks": ""},
    }


# -----------------------------------------------------------------------------
# config plumbing
# -----------------------------------------------------------------------------


def _resolve_config_path(path):
    if os.path.isfile(path):
        return path
    base = os.environ.get(CONFIG_DIR_ENV, "")
    if base and not os.path.isabs(path):
        candidate = os.path.join(base, path)
        if os.path.isfile(candidate):
            return candidate
    raise InputError(f"config file not found: {path}")


def _set_dotted(cfg, dotted, value, *, text=False):
    """Set config key `dotted` to `value`. A `text` value (a --set override)
    is parsed as JSON first, unless the key holds a string."""
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"unknown config key '{dotted}'")
        node = node[part]
    leaf = parts[-1]
    if leaf not in node:
        raise ConfigError(f"unknown config key '{dotted}'")
    if isinstance(node[leaf], dict):
        raise ConfigError(f"config key '{dotted}' is a section, not a value")
    if text and not isinstance(node[leaf], str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass
    node[leaf] = checked(dotted, node[leaf], value)


def load_config(config_path=None, overrides=(), seed=None):
    """Defaults, then the config file, then key=value overrides, then --seed."""
    cfg = default_config()
    if config_path:
        with open(_resolve_config_path(config_path)) as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{config_path}: not valid JSON ({e})") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{config_path}: top level must be an object")
        merge_checked(cfg, data, "")
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise InputError(f"override '{item}' is not key=value")
        _set_dotted(cfg, key, raw, text=True)
    if seed is not None:
        cfg["seed"] = int(seed)
    return cfg


def _check_ranges(cfg):
    """ConfigError naming the key, unless each value that no dataclass
    checks is in range. Run once the flags are applied, before any run
    directory exists."""
    checks = (
        ("evaluate.split", cfg["evaluate"]["split"] in _SPLITS, f"one of {list(_SPLITS)}"),
        ("evaluate.speakers", cfg["evaluate"]["speakers"] in _SPEAKER_GROUPS,
         f"one of {sorted(_SPEAKER_GROUPS)}"),
        ("dump.jitters", cfg["dump"]["jitters"] >= 0, "at least 0"),
        ("gradcheck.threshold", cfg["gradcheck"]["threshold"] > 0, "positive"),
    )
    for key, ok, want in checks:
        if not ok:
            section, leaf = key.split(".")
            raise ConfigError(f"{key} must be {want}, got {cfg[section][leaf]!r}")


def config_hash(cfg):
    hashed = {k: v for k, v in cfg.items() if k != "seed"}
    blob = json.dumps(hashed, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:10]


def _run_dir(cfg, verb):
    return os.path.join(cfg["out_dir"], f"{verb}-{config_hash(cfg)}-s{cfg['seed']}")


def prepare_run_dir(cfg, verb):
    """Create (or reuse) the run directory and echo the effective config."""
    run_dir = _run_dir(cfg, verb)
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "config.json"), "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")
    return run_dir


def _require_path(cfg, key, flag):
    value = cfg["paths"][key]
    if not value:
        raise InputError(f"missing {key}: pass {flag} or set paths.{key} in the config")
    if not os.path.exists(value):
        raise InputError(f"{key} does not exist: {value}")
    return value


def _speaker_train_utterances(utts, speaker):
    picked = corpus_mod.filter_entries([u for u in utts if u.speaker == speaker],
                                       split="train")
    if not picked:
        raise InputError(f"speaker '{speaker}' has no train utterances")
    return picked


def _speaker_centroid(utterances):
    vecs = np.stack([u.embedding for u in utterances])
    mean = vecs.mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm == 0:
        raise InputError("speaker embeddings average to the zero vector")
    return (mean / norm).astype(np.float32)


# -----------------------------------------------------------------------------
# verbs
# -----------------------------------------------------------------------------


def _cmd_gen_corpus(cfg):
    spec = _with_model_sizes(cfg, "corpus")
    run_dir = prepare_run_dir(cfg, "gen-corpus")
    print(corpus_mod.generate_corpus(spec, cfg["seed"], os.path.join(run_dir, "corpus")))
    return 0


def _cmd_pretrain(cfg):
    corpus = _require_path(cfg, "corpus", "--corpus")
    model_config = ModelConfig(**cfg["model"])
    sched = ScheduleConfig(**cfg["schedule"])
    run_dir = prepare_run_dir(cfg, "pretrain")
    ckpt = tr.pretrain(corpus, model_config, sched, run_dir, cfg["seed"])
    print(ckpt)
    return 0


def _cmd_adapt(cfg):
    corpus = _require_path(cfg, "corpus", "--corpus")
    checkpoint = _require_path(cfg, "checkpoint", "--checkpoint")
    section = cfg["adapt"]
    sched = adaptation_schedule(section["steps"], lr=section["lr"],
                                batch_size=section["batch_size"])
    dims = _with_model_sizes(cfg, "dims")
    run_dir = prepare_run_dir(cfg, "adapt")
    out = tr.adapt(checkpoint, corpus, section["strategy"], sched, run_dir,
                   cfg["seed"], dims=dims)
    print(out)
    return 0


def _checkpoint_and_corpus(cfg, *, adaptation=None, split=None):
    """(LoadedCheckpoint, utterances): the config's checkpoint, then its
    corpus's utterances of one speaker group and split, each checked to fit
    the checkpoint's model (training.load_fitting_corpus)."""
    corpus = _require_path(cfg, "corpus", "--corpus")
    loaded = tr.load_checkpoint(_require_path(cfg, "checkpoint", "--checkpoint"))
    return loaded, tr.load_fitting_corpus(corpus, loaded.model.config,
                                          adaptation=adaptation, split=split)


def _resolve_synthesis_inputs(section, utts):
    if section["utt"]:
        if section["phonemes"] or section["speaker"]:
            raise InputError("synthesize takes --utt, or --phonemes and --speaker, not both")
        matches = [u for u in utts if u.utt_id == section["utt"]]
        if not matches:
            raise InputError(f"utterance '{section['utt']}' not in the corpus")
        return matches[0].phonemes, matches[0].embedding, matches[0].utt_id
    if section["phonemes"] and section["speaker"]:
        try:
            phonemes = np.array([int(t) for t in section["phonemes"].split(",")],
                                dtype=np.int64)
        except ValueError:
            raise InputError(f"phonemes must be comma-separated ids, got "
                             f"'{section['phonemes']}'") from None
        speaker_utts = _speaker_train_utterances(utts, section["speaker"])
        return phonemes, _speaker_centroid(speaker_utts), f"{section['speaker']}-custom"
    raise InputError("synthesize needs --utt, or both --phonemes and --speaker")


def _cmd_synthesize(cfg):
    loaded, utts = _checkpoint_and_corpus(cfg)
    phonemes, embedding, tag = _resolve_synthesis_inputs(cfg["synthesize"], utts)
    mel, info = loaded.model.synthesize(phonemes, embedding, hooks=loaded.hooks_for(embedding))

    out = os.path.join(prepare_run_dir(cfg, "synthesize"), f"{tag}.bin")
    featio.write_checkpoint(out, {}, {"mel": mel, "f0": info["f0"], "energy": info["energy"],
                                      "durations": info["durations"].astype(np.int64)})
    print(out)
    return 0


def _trainable_count(strategy, model):
    backbone = model.param_count() if strategy.name == "ft" else None
    return count_trainable_params(strategy, backbone_param_count=backbone,
                                  site_counts=model.site_counts())


def _trainable_for_checkpoint(loaded):
    return 0 if loaded.strategy is None else _trainable_count(loaded.strategy, loaded.model)


def _cmd_evaluate(cfg):
    section = cfg["evaluate"]
    loaded, utts = _checkpoint_and_corpus(
        cfg, adaptation=_SPEAKER_GROUPS[section["speakers"]],
        split=None if section["split"] == "all" else section["split"])
    model = loaded.model
    d_spk = model.config.d_spk

    def synth(utt):
        return model.synthesize(utt.phonemes, utt.embedding,
                                hooks=loaded.hooks_for(utt.embedding))

    report = metrics.evaluate(
        synth, utts, lambda mel: synthetic_embedding(mel, d_spk),
        trainable_params=_trainable_for_checkpoint(loaded),
        backbone_params=model.param_count(),
    )
    path = report.write(prepare_run_dir(cfg, "evaluate"))
    print(path)
    for line in report.to_text().splitlines():
        if line.startswith(("cos\t", "ffe\t", "mcd\t", "trainable_params\t")):
            print(line)
    return 0


def _cmd_params(cfg):
    strategy = StrategyConfig.parse(cfg["adapt"]["strategy"], _with_model_sizes(cfg, "dims"))
    print(_trainable_count(strategy, TTSModel(ModelConfig(**cfg["model"]), seed=0)))
    return 0


# Size of each dumped embedding's jitter: the corpus perturbs its embeddings
# by CorpusSpec.jitter (0.02), so the dumped variants spread as its own do.
_DUMP_JITTER = 0.02


def _cmd_dump_hyper_params(cfg):
    n_jitters = cfg["dump"]["jitters"]
    loaded, utts = _checkpoint_and_corpus(cfg, adaptation=True)
    if loaded.adapted is None or loaded.adapted.strategy.name != "hyper":
        raise InputError(
            f"checkpoint strategy '{loaded.meta.get('strategy', 'pretrain')}' "
            "generates no parameters; dump-hyper-params needs a hyper checkpoint"
        )
    adapted = loaded.adapted
    d_spk = loaded.model.config.d_spk
    speakers = sorted({u.speaker for u in utts})
    if not speakers:
        raise InputError("corpus has no adaptation speakers to dump")

    arrays = {}
    for speaker in speakers:
        speaker_utts = _speaker_train_utterances(utts, speaker)
        variants = [("centroid", _speaker_centroid(speaker_utts))]
        for k in range(n_jitters):
            emb = synthetic_embedding(speaker_utts[0].mel, d_spk, jitter=_DUMP_JITTER,
                                      stream=("dump", speaker, k))
            variants.append((f"jitter{k}", emb.astype(np.float32)))
        for variant, emb in variants:
            for tag, table in adapted.hooks_for(emb).items():
                for site, row in enumerate(table.data.astype(np.float64)):
                    arrays[f"{speaker}/{variant}/{tag}{site}"] = row

    meta = {
        "strategy": adapted.strategy.label(),
        "adapter_dims": dataclasses.asdict(adapted.strategy.dims),
        "speakers": speakers,
        "variants_per_speaker": 1 + n_jitters,
    }
    out = os.path.join(prepare_run_dir(cfg, "dump-hyper-params"), "generated_params.bin")
    featio.write_checkpoint(out, meta, arrays)
    print(out)
    print(f"{len(arrays)} generated weight vectors "
          f"({len(speakers)} speakers x {meta['variants_per_speaker']} embeddings)")
    return 0


def _cmd_grad_check(cfg):
    section = cfg["gradcheck"]
    names = [n for n in section["networks"].split(",") if n] or None
    results = gradcheck.run_suite(instances=section["instances"],
                                  threshold=section["threshold"], names=names)
    failed = [r for r in results if not r.passed]
    by_name = {}
    for r in results:
        by_name.setdefault(r.name, []).append(r)
    for name, rs in by_name.items():
        worst = max(r.max_rel for r in rs)
        status = "PASS" if all(r.passed for r in rs) else "FAIL"
        print(f"{status}  {name}  instances={len(rs)}  worst_rel={worst:.3e}")
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        return 3
    print(f"all {len(results)} checks passed")
    return 0


# -----------------------------------------------------------------------------
# argument parsing
# -----------------------------------------------------------------------------


# flag -> (config key, argparse keywords). The key is the flag's argparse
# dest, and its help names it: a verb flag only sets that key.
_FLAGS = {
    "--corpus": ("paths.corpus", {"help": "corpus file (corpus.bin)"}),
    "--checkpoint": ("paths.checkpoint", {"help": "model checkpoint"}),
    "--strategy": ("adapt.strategy",
                   {"help": "tts0 | ft | adapter_<sites> | hyper_<sites>"}),
    "--steps": ("adapt.steps", {"type": int, "help": "adaptation steps"}),
    "--utt": ("synthesize.utt", {"help": "synthesize this corpus utterance"}),
    "--speaker": ("synthesize.speaker", {"help": "speaker for --phonemes mode"}),
    "--phonemes": ("synthesize.phonemes", {"help": "comma-separated phoneme ids"}),
    "--split": ("evaluate.split", {"choices": _SPLITS,
                                   "help": "which split to score"}),
    "--speakers": ("evaluate.speakers", {"choices": sorted(_SPEAKER_GROUPS),
                                         "help": "speaker group to score"}),
    "--jitters": ("dump.jitters", {"type": int,
                                   "help": "extra jittered embeddings per speaker"}),
    "--instances": ("gradcheck.instances",
                    {"type": int, "help": "random instances per sub-network"}),
    "--threshold": ("gradcheck.threshold", {"type": float, "help": "max relative error"}),
    "--networks": ("gradcheck.networks", {"help": "comma-separated subset"}),
}

# verb -> (handler, help, flags)
_VERBS = {
    "gen-corpus": (_cmd_gen_corpus, "generate the synthetic corpus", ()),
    "pretrain": (_cmd_pretrain, "train the multi-speaker backbone", ("--corpus",)),
    "adapt": (_cmd_adapt, "adapt a pretrained checkpoint to new speakers",
              ("--corpus", "--checkpoint", "--strategy", "--steps")),
    "synthesize": (_cmd_synthesize, "synthesize mel features",
                   ("--corpus", "--checkpoint", "--utt", "--speaker", "--phonemes")),
    "evaluate": (_cmd_evaluate, "score a checkpoint against reference features",
                 ("--corpus", "--checkpoint", "--split", "--speakers")),
    "params": (_cmd_params, "print the trainable parameter count of a strategy",
               ("--strategy",)),
    "dump-hyper-params": (_cmd_dump_hyper_params,
                          "export generated adapter weights per adaptation speaker",
                          ("--corpus", "--checkpoint", "--jitters")),
    "grad-check": (_cmd_grad_check, "finite-difference checks on every sub-network",
                   ("--instances", "--threshold", "--networks")),
}

# (verb, flag) pairs that must be given on the command line
_REQUIRED = {("params", "--strategy")}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyperadapt",
        description="Speaker-adaptive TTS experiments: corpus, training, "
                    "adaptation, synthesis, evaluation.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, help_text, flags) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--config", default=None,
                       help=f"JSON config file (searched in ${CONFIG_DIR_ENV} "
                            "when not found directly)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (dotted path; a JSON value, "
                            "or plain text for a text key)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out-dir", default=None,
                       help="override out_dir (run directories live here)")
        for flag in flags:
            key, kwargs = _FLAGS[flag]
            p.add_argument(flag, dest=key, default=None, required=(verb, flag) in _REQUIRED,
                           **{**kwargs, "help": f"{kwargs['help']} ({key})"})
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2

    new_run_dir = None
    try:
        cfg = load_config(args.config, args.set, args.seed)
        for key, value in vars(args).items():
            if value is not None and ("." in key or key == "out_dir"):
                _set_dotted(cfg, key, value)
        _check_ranges(cfg)
        new_run_dir = _run_dir(cfg, args.verb)
        if os.path.exists(new_run_dir):
            new_run_dir = None  # never removed: a pretrain resumes in it
        return _VERBS[args.verb][0](cfg)
    except (InputError, ConfigError, StateError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        # a run directory this call made and left holding only its config
        # echo explains nothing: bad input leaves no run directory behind
        left = new_run_dir and os.path.isdir(new_run_dir) and os.listdir(new_run_dir)
        if left == ["config.json"]:
            shutil.rmtree(new_run_dir)
        return 2
    except HyperadaptError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
