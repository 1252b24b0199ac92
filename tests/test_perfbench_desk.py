"""The benchmark keeps its own copy of the desk model and adapter dims; it
must stay equal to configs/desk.json, the experiment criteria 8-10 run.

perfbench/bench.py is loaded by path (perfbench is not a package), with
perfbench/ on sys.path for its `import layertrace`.
"""

import importlib.util
import os

from hyperadapt import cli
from hyperadapt.model import ModelConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_desk_model_and_dims_match_the_desk_config(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "bench_under_test", os.path.join(ROOT, "perfbench", "bench.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    cfg = cli.load_config(os.path.join(ROOT, "configs", "desk.json"))
    assert bench.DESK_MODEL == ModelConfig(**cfg["model"])
    assert bench.DESK_DIMS == cli._with_model_sizes(cfg, "dims")
