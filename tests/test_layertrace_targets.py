"""The traced benchmark wraps library functions by name; a rename or an early
binding in the library must fail here rather than in a traced run.

perfbench/layertrace.py is loaded by path (perfbench is not a package). Its
`install` swaps each target through `owner.__dict__[attr]`, so every target
must live in its owner's own namespace, and a caller that bound the function
before the swap would leave its span empty.
"""

import importlib.util
import os

import numpy as np
import pytest

from hyperadapt import cli
from hyperadapt.adaptation import AdaptedModel, StrategyConfig
from hyperadapt.model import ModelConfig, TTSModel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace_under_test", os.path.join(ROOT, "perfbench", "layertrace.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_through_owner_dict(layertrace):
    missing = [
        f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
        for name, sites in layertrace.TARGETS.items()
        for owner, attr in sites
        if attr not in vars(owner) or not callable(vars(owner)[attr])
    ]
    assert not missing, f"trace targets not found: {missing}"


def test_adaptation_spans_see_every_call(layertrace):
    # desk hyper_evd synthesis: 3 modules generate once each, 6 sites apply
    cfg = cli.load_config(os.path.join(ROOT, "configs", "desk.json"))
    model = TTSModel(ModelConfig(**cfg["model"]), seed=7)
    model.set_ranges((4.5, 6.0), (0.0, 1.0))
    strategy = StrategyConfig.parse("hyper_evd", cli._with_model_sizes(cfg, "dims"))
    adapted = AdaptedModel(model, strategy, seed=5)
    spk_vec = np.random.default_rng(0).normal(size=model.config.d_spk).astype(np.float32)

    tracer = layertrace.Tracer()
    uninstall = layertrace.install(tracer)
    try:
        hooks = adapted.hooks_for(spk_vec)
        model.synthesize(np.array([1, 4, 2, 7], dtype=np.int64), spk_vec, hooks=hooks)
    finally:
        uninstall()
    totals = tracer.layer_totals()
    assert totals["adaptation.generate"][1] == 3
    assert totals["adaptation.adapter_forward"][1] == 6
