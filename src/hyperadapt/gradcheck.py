"""Finite-difference verification of every trainable sub-network.

Each builder constructs a small float64 instance with a fresh seed, wires a
scalar loss through it, and hands back the loss closure plus the tensor list
(input and parameters) to perturb. Builders pass no dropout streams, so
nothing drops out. `run_suite` drives the whole registry, INSTANCES seeds
of each at THRESHOLD, and is shared by the grad-check command and the
acceptance tests.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import alignment, backbone, variance
from .adaptation import AdapterDims, HyperNetwork, site_adapters
from .autodiff import Tensor
from .errors import in_range
from .layers import rng_for

_D = 8
INSTANCES = 5  # fresh instances of each sub-network
THRESHOLD = 1e-4  # the largest relative error that passes


def _f64_params(module):
    params = [p for _, p in module.named_parameters()]
    for p in params:
        p.data = p.data.astype(np.float64)
        p.requires_grad = True
    return params


def _probe(seed, shape):
    return Tensor(np.random.default_rng(seed).standard_normal(shape), requires_grad=True)


def _target(seed, shape):
    return Tensor(np.random.default_rng(seed ^ 0xA5A5).standard_normal(shape))


def _fft_block(seed):
    # a pack of two utterances, so attention and the conv see a boundary
    block = backbone.FFTBlock(rng_for(seed, "gc", "fft"), _D, heads=2)
    params = _f64_params(block)
    h = _probe(seed, (5, _D))
    target = _target(seed, (5, _D))
    seg = ad.Segments([2, 3])

    def fn(x, *ps):
        return ad.mse_loss(block(x, seg, (), None), target, seg)

    return fn, [h, *params]


# the variance heads run over a pack of two utterances too, so their convs
# see a boundary and the pitch head pools each segment on its own


def _duration_head(seed):
    head = variance.DurationPredictor(rng_for(seed, "gc", "dur"), _D)
    params = _f64_params(head)
    h = _probe(seed, (6, _D))
    target = _target(seed, (6,))
    seg = ad.Segments([2, 4])

    def fn(x, *ps):
        return ad.mse_loss(head(x, seg, ()), target, seg)

    return fn, [h, *params]


def _pitch_head(seed):
    head = variance.PitchPredictor(rng_for(seed, "gc", "pitch"), _D)
    params = _f64_params(head)
    h = _probe(seed, (6, _D))
    target = _target(seed, (6, variance.N_SCALES))
    seg = ad.Segments([2, 4])

    def fn(x, *ps):
        spec, mean, var = head(x, seg, (), None)
        return ad.add(ad.mse_loss(spec, target, seg), ad.add(ad.sum_all(mean), ad.sum_all(var)))

    return fn, [h, *params]


def _energy_head(seed):
    head = variance.EnergyPredictor(rng_for(seed, "gc", "energy"), _D)
    params = _f64_params(head)
    h = _probe(seed, (5, _D))
    target = _target(seed, (5,))
    seg = ad.Segments([2, 3])

    def fn(x, *ps):
        return ad.mse_loss(head(x, seg, (), None), target, seg)

    return fn, [h, *params]


def _postnet(seed):
    net = backbone.Postnet(rng_for(seed, "gc", "post"), n_mels=6, channels=10, n_layers=3)
    params = _f64_params(net)
    # off the zero init of the last conv, or no gradient reaches the others
    last = net.convs[-1].w
    last.data += rng_for(seed, "gc", "post-last").normal(size=last.shape) * 0.1
    mel = _probe(seed, (7, 6))
    target = _target(seed, (7, 6))
    seg = ad.Segments([3, 4])

    def fn(x, *ps):
        return ad.mse_loss(net(x, seg, ()), target, seg)

    return fn, [mel, *params]


def _frozen_trunk(seed, tag, width):
    """A float64 variance trunk whose weights are frozen, as a backbone is
    under adaptation: the adapter checks run their site on it."""
    stack = variance.ConvStack(rng_for(seed, "gc", tag), width)
    for p in stack.parameters():
        p.data = p.data.astype(np.float64)
    stack.set_trainable(False)
    return stack


def _adapter(seed):
    # site 1 of a two-site table, randomized (identity init zeroes half the
    # gradients) so every path carries: two segments read distinct rows of a
    # generated four-row table (even seeds) or share one row of a two-row
    # table, as static adapters do (odd seeds); the unread rows' zero
    # gradient is checked too. The site closes a frozen trunk, so the input's
    # gradient also crosses the trunk's pruned backward
    n_flat = 2 * _D * 3 + 3 + _D  # [w_down | b_down | w_up | b_up] at d_r=3
    n_rows = 2 if seed % 2 else 4
    table = Tensor(np.random.default_rng(seed + 17).standard_normal((n_rows, n_flat)) * 0.3,
                   requires_grad=True)
    trunk = _frozen_trunk(seed, "adapter-trunk", _D)
    h = _probe(seed, (5, _D))
    target = _target(seed, (5, _D))
    seg = ad.Segments([2, 3])

    def fn(x, t):
        return ad.mse_loss(trunk(x, seg, (), site_adapters(t, 2, seg)[1]), target, seg)

    return fn, [h, table]


def _hypernetwork(seed):
    dims = AdapterDims(d_h=5, d_r=2, d_1=4, d_2=3, d_l=3, d_s=2)
    hyper = HyperNetwork(rng_for(seed, "gc", "hyper"), n_sites=2, dims=dims)
    hyper.sampler_up.w.data = rng_for(seed, "gc", "up").normal(
        size=hyper.sampler_up.w.shape).astype(np.float32) * 0.1
    params = _f64_params(hyper)
    trunk = _frozen_trunk(seed, "hyper-trunk", dims.d_h)
    # a pack of two utterances of two speakers, generated in one call;
    # segment b reads site `seed % 2` of speaker b
    h_data = np.random.default_rng(seed + 29).standard_normal((5, 5))
    spk = _probe(seed, (2, 4))
    target = _target(seed, (5, 5))
    seg = ad.Segments([3, 2])

    def fn(v, *ps):
        site = site_adapters(hyper.generate(v), 2, seg)[seed % 2]
        return ad.mse_loss(trunk(Tensor(h_data), seg, (), site), target, seg)

    return fn, [spk, *params]


def _alignment_projections(seed):
    # two utterances: 2 phonemes over 3 frames and 3 phonemes over 4
    enc = alignment.AlignmentEncoder(rng_for(seed, "gc", "align"), d_text=4,
                                     d_mel=3, d_attn=5)
    params = _f64_params(enc)
    text = _probe(seed, (5, 4))
    mel = Tensor(np.random.default_rng(seed + 41).standard_normal((7, 3)))
    text_seg, mel_seg = ad.Segments([2, 3]), ad.Segments([3, 4])

    def fn(t, *ps):
        amap = alignment.soft_align(enc.project_text(t, text_seg), enc.project_mel(mel, mel_seg),
                                    text_seg, mel_seg)
        return alignment.forward_sum_loss(amap)

    return fn, [text, *params]


BUILDERS = {
    "fft_block": _fft_block,
    "duration_head": _duration_head,
    "pitch_head": _pitch_head,
    "energy_head": _energy_head,
    "postnet": _postnet,
    "adapter": _adapter,
    "hypernetwork": _hypernetwork,
    "alignment_projections": _alignment_projections,
}


@dataclass
class CheckResult:
    name: str
    instance: int
    max_rel: float
    passed: bool


def run_suite(names=None):
    """FD-check INSTANCES fresh instances of each named sub-network."""
    if names is None:
        picked = dict(BUILDERS)
    else:
        for name in names:
            in_range("gradcheck.networks", name, tuple(BUILDERS))
        picked = {n: BUILDERS[n] for n in names}
    results = []
    for name, build in picked.items():
        for k in range(INSTANCES):
            fn, inputs = build(k)
            report = ad.grad_check(fn, inputs, threshold=THRESHOLD)
            results.append(CheckResult(name, k, report.max_rel, report.passed))
    return results
