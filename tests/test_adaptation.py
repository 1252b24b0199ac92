"""Adapter/hypernetwork algebra, strategy configs, and exact parameter counts."""

import os

import numpy as np
import pytest

import hyperadapt.autodiff as ad
from hyperadapt import cli
from hyperadapt.adaptation import (
    AdaptedModel,
    AdapterDims,
    HyperNetwork,
    StrategyConfig,
    adapter_forward,
    site_adapters,
    static_adapter_table,
)
from hyperadapt.autodiff import Tensor
from hyperadapt.errors import ConfigError, InputError, ShapeError
from hyperadapt.gradcheck import THRESHOLD
from hyperadapt.layers import rng_for
from hyperadapt.model import ModelConfig, Pack, TTSModel

from oracles import adapter as adapter_node
from oracles import (adapter_param_count, adapter_reference, concat, count_trainable_params,
                     generate_reference, hyper_param_count, narrow, one, single_speaker_table,
                     off_identity, table_row_reference, teacher_forced, utterance,
                     weighted_sum)

PUBLISHED = AdapterDims()  # d_h=256, d_r=32, d_1=256, d_2=64, d_l=64, d_s=8
PUBLISHED_SITES = {"e": 4, "v": 2, "d": 6}  # the paper's backbone: 4 encoder, 6 decoder blocks

# the desk experiment's adapter dims, read as the CLI reads them
DESK_DIMS = cli._with_model_sizes(
    cli.load_config(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                 "configs", "desk.json")), "dims")


def small_model(seed=7):
    cfg = ModelConfig(
        vocab_size=12, n_mels=16, d_h=32, heads=2, enc_layers=2, dec_layers=2,
        d_spk=24, d_attn=16, postnet_channels=24, postnet_layers=3,
    )
    return TTSModel(cfg, seed=seed)


def split_row(row, d_h, d_r):
    """(w_down, b_down, w_up, b_up) arrays of one flattened adapter row."""
    n_w = d_h * d_r
    return (row[:n_w].reshape(d_h, d_r), row[n_w : n_w + d_r],
            row[n_w + d_r : 2 * n_w + d_r].reshape(d_r, d_h), row[2 * n_w + d_r :])


def static_table(seed, d_h, d_r, n_sites=1):
    return static_adapter_table(seed, "t", n_sites, d_h, d_r)


def adapter_at(h, table, site):
    """adapter_forward at `site` over all of h as one segment, which reads
    row `site` of the table, as a tape node."""
    return adapter_node(h, table, ad.Segments([h.shape[0]]), site, table.shape[0])


# -----------------------------------------------------------------------------
# adapter algebra
# -----------------------------------------------------------------------------


def test_adapter_forward_matches_hand_computation():
    # d_h=4, d_r=2, every number chosen to keep the arithmetic exact
    w_down = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0], [0.0, 0.0]], dtype=np.float32)
    b_down = np.array([0.5, -1.0], dtype=np.float32)
    w_up = np.array([[1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, -1.0]], dtype=np.float32)
    b_up = np.array([0.25, 0.0, 0.0, 0.0], dtype=np.float32)
    table = Tensor(np.concatenate([w_down.ravel(), b_down, w_up.ravel(), b_up])[None])
    h = np.array([[1.0, 2.0, 3.0, 4.0]], dtype=np.float32)
    # pre-activation: [1+3+0.5, 2-3-1] = [4.5, -2]; relu -> [4.5, 0]
    # delta: [4.5, 0, 9, 0] + b_up = [4.75, 0, 9, 0]
    expected = np.array([[5.75, 2.0, 12.0, 4.0]], dtype=np.float32)
    out = adapter_at(Tensor(h), table, 0)
    np.testing.assert_array_equal(out.data, expected)


def test_static_adapter_is_identity_at_init():
    table = static_table(0, d_h=16, d_r=4)
    h = Tensor(rng_for(1, "h").normal(size=(5, 16)).astype(np.float32))
    out = adapter_at(h, table, 0)
    np.testing.assert_array_equal(out.data, h.data)


def test_adapter_forward_rejects_dim_mismatch():
    table = static_table(0, d_h=16, d_r=4)
    with pytest.raises(ShapeError):
        adapter_at(Tensor(np.zeros((3, 8), dtype=np.float32)), table, 0)


def test_static_adapter_gradients_flow_at_init():
    # zero up-projection must not block gradients into the up matrix itself
    table = static_table(3, d_h=6, d_r=2)
    h = Tensor(rng_for(4, "h").normal(size=(3, 6)).astype(np.float32))
    loss = ad.sum_all(adapter_at(h, table, 0))
    ad.backward(loss)
    g_w_down, _, g_w_up, _ = split_row(table.grad[0], 6, 2)
    assert np.abs(g_w_up).max() > 0
    # w_down only matters through the (currently zero) up matrix
    assert np.abs(g_w_down).max() == 0


def test_static_table_rows_match_per_site_streams():
    # row i draws w_down from the same stream a per-site adapter drew from
    d_h, d_r = 8, 3
    table = static_adapter_table(5, "e", 3, d_h, d_r)
    assert table.shape == (3, adapter_param_count(AdapterDims(d_h=d_h, d_r=d_r)))
    for i in range(3):
        w_down, b_down, w_up, b_up = split_row(table.data[i], d_h, d_r)
        lim = np.sqrt(6.0 / (d_h + d_r))
        want = rng_for(5, "adapter", "e", i).uniform(-lim, lim, size=(d_h, d_r)).astype(np.float32)
        np.testing.assert_array_equal(w_down, want)
        assert not b_down.any() and not w_up.any() and not b_up.any()


def _random_table(seed, n_sites, d_h, d_r):
    n_flat = adapter_param_count(AdapterDims(d_h=d_h, d_r=d_r))
    return Tensor(np.random.default_rng(seed).standard_normal((n_sites, n_flat)) * 0.4,
                  requires_grad=True)


@pytest.mark.parametrize("site", [0, 2])
def test_adapter_forward_matches_op_by_op_graph(site):
    # float64 values and both gradients against matmul/add/relu nodes fed by
    # narrow/reshape views of the same table row
    d_h, d_r = 7, 3
    table = _random_table(21, 3, d_h, d_r)
    h = Tensor(np.random.default_rng(22).standard_normal((5, d_h)), requires_grad=True)
    probe = np.random.default_rng(23).standard_normal((5, d_h))

    def grads(out):
        h.grad = table.grad = None
        ad.backward(weighted_sum(out, probe))
        return h.grad.copy(), table.grad.copy()

    fused = adapter_at(h, table, site)
    g_fused = grads(fused)
    ref = adapter_reference(h, *table_row_reference(table, site, d_h, d_r))
    g_ref = grads(ref)
    np.testing.assert_allclose(fused.data, ref.data, rtol=0, atol=1e-12)
    for a, b in zip(g_fused, g_ref):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    others = np.delete(g_fused[1], site, axis=0)
    assert not others.any()


@pytest.mark.parametrize("site", [0, 1])
def test_adapter_forward_gradcheck_static_table(site):
    d_h, d_r = 5, 2
    table = _random_table(31 + site, 2, d_h, d_r)
    h = Tensor(np.random.default_rng(33).standard_normal((4, d_h)), requires_grad=True)
    target = np.random.default_rng(34).standard_normal((4, d_h))

    report = ad.grad_check(lambda x, t: ad.mse_loss(adapter_at(x, t, site), target, one(4)),
                           [h, table], threshold=THRESHOLD)
    assert report.passed, repr(report)


def test_adapter_forward_gradcheck_per_segment_tables():
    # site 1 of a generated table of three speakers (each segment reads its
    # own row; the rows nobody reads get zero gradient) and site 0 of a
    # shared table, whose one row all three segments read (its gradient
    # sums over them)
    d_h, d_r, n_sites = 5, 2, 2
    seg = ad.Segments([2, 3, 1])
    generated = _random_table(35, 3 * n_sites, d_h, d_r)
    shared = _random_table(36, n_sites, d_h, d_r)
    h = Tensor(np.random.default_rng(37).standard_normal((6, d_h)), requires_grad=True)
    target = np.random.default_rng(38).standard_normal((6, d_h))

    def fn(x, t, u):
        a = adapter_node(x, t, seg, 1, n_sites)
        b = adapter_node(x, u, seg, 0, n_sites)
        return ad.add(ad.mse_loss(a, target, seg), ad.mse_loss(b, target, seg))

    report = ad.grad_check(fn, [h, generated, shared], threshold=THRESHOLD)
    assert report.passed, repr(report)


def _exact(rng, shape, scale):
    """Multiples of 1/4 in [-scale, scale], as float64: every product and sum
    an adapter forms of them is exact, so any summation order gives the same
    bits."""
    return rng.integers(-4 * scale, 4 * scale + 1, size=shape) / 4.0


@pytest.mark.parametrize("speakers", [[0, 1, 2], None, [0, 1, 0], [0]],
                         ids=["distinct", "shared", "repeated", "one"])
def test_adapter_forward_pack_matches_per_segment_oracle(speakers):
    # at each site of a module, over one pack's segments, values and
    # both gradients equal, bit for bit, the op-by-op adapter run on each
    # segment alone with its own row. The table is generated-style (row
    # b n_sites + s for segment b; speakers [0, 1, 0] give two segments
    # equal but separate rows, and a pack of one reads n_sites rows) or
    # shared (None: every segment reads row s, whose gradient sums over them)
    d_h, d_r, n_sites = 6, 3, 2
    n_flat = adapter_param_count(AdapterDims(d_h=d_h, d_r=d_r))
    rng = np.random.default_rng(41)
    seg = ad.Segments([3, 5, 2][: len(speakers or [0, 1, 2])])
    if speakers is None:
        table = Tensor(_exact(rng, (n_sites, n_flat), 1), requires_grad=True)
    else:
        per_speaker = _exact(rng, (max(speakers) + 1, n_sites, n_flat), 1)
        table = Tensor(per_speaker[speakers].reshape(-1, n_flat), requires_grad=True)
    h = Tensor(_exact(rng, (seg.total, d_h), 2), requires_grad=True)
    probe = _exact(rng, (seg.total, d_h), 2)

    def grads(build):
        h.grad = table.grad = None
        out = build()
        ad.backward(weighted_sum(out, probe))
        return out.data, h.grad.copy(), table.grad.copy()

    def per_segment(rows):
        h_segs = [narrow(h, 0, s, e - s) for s, e in seg.bounds]
        outs = [adapter_reference(x, *table_row_reference(table, r, d_h, d_r))
                for x, r in zip(h_segs, rows)]
        return concat(outs, axis=0)

    for site in range(n_sites):
        rows = [site if speakers is None else b * n_sites + site for b in range(len(seg))]
        fused = grads(lambda: adapter_node(h, table, seg, site, n_sites))
        ref = grads(lambda: per_segment(rows))
        assert fused[0].any() and fused[2][rows].any()
        for got, want in zip(fused, ref):
            np.testing.assert_array_equal(got, want)
        assert not np.delete(fused[2], rows, axis=0).any()


def test_adapter_forward_rejects_bad_rows():
    # a site takes a table of n_sites rows (shared) or n_sites rows per
    # segment (generated), and a site below n_sites
    table = static_table(0, d_h=8, d_r=2, n_sites=2).data
    h = np.zeros((5, 8), dtype=np.float32)
    seg = ad.Segments([2, 3])
    for n_sites in (3, 4):
        with pytest.raises(ShapeError):
            adapter_forward(h, table, seg, 0, n_sites)
    for site in (2, -1, 0.5, [0, 1], None):
        with pytest.raises(InputError):
            adapter_forward(h, table, seg, site, 2)
    with pytest.raises(ShapeError):  # segments covering other rows than h
        adapter_forward(np.zeros((6, 8), dtype=np.float32), table, seg, 0, 2)
    with pytest.raises(ShapeError):  # 4 rows: neither 2 shared sites nor 2 sites of 3 segments
        adapter_forward(np.zeros((6, 8), dtype=np.float32),
                        static_table(0, d_h=8, d_r=2, n_sites=4).data, ad.Segments([2, 3, 1]),
                        0, 2)


def test_site_adapters_read_speaker_major_rows():
    # a generated table: segment b runs site s through row b n_sites + s,
    # also when two segments have one speaker; a pack of one reads its
    # n_sites rows; a table of n_sites rows is shared by every segment. Each
    # hook equals the segments run alone, bit for bit on exact data
    d_h, d_r, n_sites = 6, 2, 3
    n_flat = adapter_param_count(AdapterDims(d_h=d_h, d_r=d_r))
    rng = np.random.default_rng(51)

    def alone(h, table, seg, rows_of):
        return np.concatenate([
            adapter_at(Tensor(h.data[s:e]), Tensor(table.data[rows_of(b)]), 0).data
            for b, (s, e) in enumerate(seg.bounds)])

    per_speaker = _exact(rng, (2, n_sites, n_flat), 1)
    shared = Tensor(_exact(rng, (n_sites, n_flat), 1))
    for speakers, lengths in (([0, 1], [2, 3]), ([1, 0, 1], [2, 3, 1]), ([0], [4])):
        seg = ad.Segments(lengths)
        h = Tensor(_exact(rng, (seg.total, d_h), 2))
        generated = Tensor(per_speaker[speakers].reshape(-1, n_flat))
        for site, hook in enumerate(site_adapters(generated, n_sites, seg)):
            np.testing.assert_array_equal(
                hook(h.data)[0], alone(h, generated, seg, lambda b: [b * n_sites + site]))
        for site, hook in enumerate(site_adapters(shared, n_sites, seg)):
            np.testing.assert_array_equal(hook(h.data)[0], alone(h, shared, seg, lambda b: [site]))
    hooks = site_adapters(_random_table(54, 4, d_h, d_r), n_sites, ad.Segments([2, 3]))
    with pytest.raises(ShapeError):
        hooks[0](_exact(rng, (5, d_h), 2))


# -----------------------------------------------------------------------------
# hypernetwork
# -----------------------------------------------------------------------------


def spk(dims, seed=0):
    v = rng_for(seed, "spk").normal(size=(1, dims.d_1)).astype(np.float32)
    return Tensor(v)


def _f64_hyper(seed, n_sites=2):
    dims = AdapterDims(d_h=5, d_r=2, d_1=4, d_2=3, d_l=3, d_s=2)
    hyper = HyperNetwork(rng_for(seed, "h"), n_sites=n_sites, dims=dims)
    hyper.sampler_up.w.data = rng_for(seed, "u").normal(
        size=hyper.sampler_up.w.shape).astype(np.float32) * 0.1
    for p in hyper.parameters():
        p.data = p.data.astype(np.float64)
        p.requires_grad = True
    return hyper


def test_hypernetwork_identity_at_init():
    hyper = HyperNetwork(rng_for(0, "h"), n_sites=3, dims=DESK_DIMS)
    table = hyper.generate(spk(DESK_DIMS))
    h = Tensor(rng_for(2, "x").normal(size=(4, DESK_DIMS.d_h)).astype(np.float32))
    out = adapter_at(h, table, 1)
    np.testing.assert_array_equal(out.data, h.data)
    _, _, w_up, b_up = split_row(table.data[1], DESK_DIMS.d_h, DESK_DIMS.d_r)
    assert np.abs(w_up).max() == 0
    assert np.abs(b_up).max() == 0


def test_hypernetwork_generate_deterministic():
    hyper = HyperNetwork(rng_for(0, "h"), n_sites=3, dims=DESK_DIMS)
    a = hyper.generate(spk(DESK_DIMS)).data[0]
    b = hyper.generate(spk(DESK_DIMS)).data[0]
    np.testing.assert_array_equal(a, b)


def test_hypernetwork_sites_differ():
    hyper = HyperNetwork(rng_for(0, "h"), n_sites=3, dims=DESK_DIMS)
    table = hyper.generate(spk(DESK_DIMS)).data
    a = table[0].astype(np.float64)
    b = table[2].astype(np.float64)
    assert np.abs(a - b).max() > 0


def test_hypernetwork_speakers_differ_and_vary_continuously():
    hyper = HyperNetwork(rng_for(0, "h"), n_sites=2, dims=DESK_DIMS)
    v = spk(DESK_DIMS, seed=5)
    base = hyper.generate(v).data[0].astype(np.float64)
    other = hyper.generate(spk(DESK_DIMS, seed=6)).data[0].astype(np.float64)
    assert np.abs(base - other).max() > 0
    # all-affine pipeline: output moves linearly with an input perturbation
    eps = 1e-3
    bumped_data = v.data.copy()
    bumped_data[0, 0] += eps
    bumped = hyper.generate(Tensor(bumped_data)).data[0].astype(np.float64)
    drift = np.abs(bumped - base).max()
    assert 0 < drift < 1.0 * eps * 100


def test_hypernetwork_site_index_validated():
    hyper = HyperNetwork(rng_for(0, "h"), n_sites=2, dims=DESK_DIMS)
    h = Tensor(np.zeros((3, DESK_DIMS.d_h), dtype=np.float32))
    table = hyper.generate(spk(DESK_DIMS))
    for site in (2, -1):
        with pytest.raises(InputError):
            adapter_at(h, table, site)
    with pytest.raises(ShapeError):
        hyper.generate(Tensor(np.zeros((1, DESK_DIMS.d_1 + 1), dtype=np.float32)))


def test_hypernetwork_gradients_reach_all_parameters():
    hyper = HyperNetwork(rng_for(1, "h"), n_sites=2, dims=DESK_DIMS)
    # nudge the up sampler off zero so the down path participates too
    hyper.sampler_up.w.data += 0.01
    h = Tensor(rng_for(2, "x").normal(size=(3, DESK_DIMS.d_h)).astype(np.float32))
    out = adapter_at(h, hyper.generate(spk(DESK_DIMS)), 1)
    ad.backward(ad.sum_all(out))
    for name, p in hyper.named_parameters():
        assert p.grad is not None, name
        assert np.abs(p.grad).max() > 0, name


def test_hypernetwork_generate_gradcheck():
    hyper = _f64_hyper(9)
    h = Tensor(rng_for(11, "x").normal(size=(3, 5)), requires_grad=True)
    v_data = rng_for(12, "v").normal(size=(1, 4))

    def fn(v, x, *ps):
        out = adapter_at(x, hyper.generate(v), 0)
        return ad.sum_all(out)

    report = ad.grad_check(fn, [Tensor(v_data, requires_grad=True), h, *hyper.parameters()],
                           threshold=THRESHOLD)
    assert report.passed, repr(report)


def test_hypernetwork_fused_generate_gradcheck_every_entry():
    # FD check of the table itself (not through an adapter): a random linear
    # probe of every generated entry against spk_vec and all seven tensors
    hyper = _f64_hyper(13, n_sites=3)
    probe = rng_for(14, "p").normal(size=(3, 2 * 5 * 2 + 2 + 5))
    v = Tensor(rng_for(15, "v").normal(size=(1, 4)), requires_grad=True)

    def fn(spk_vec, *ps):
        return weighted_sum(hyper.generate(spk_vec), probe)

    params = hyper.parameters()
    assert len(params) == 7
    report = ad.grad_check(fn, [v, *params], threshold=THRESHOLD)
    assert report.passed, repr(report)


def test_hypernetwork_generate_matches_op_by_op_graph():
    # every row and every gradient (spk_vec plus the seven tensors) equal the
    # per-site narrow/concat/reshape graph within 1e-12 in float64
    hyper = _f64_hyper(17, n_sites=3)
    d = hyper.dims
    v = Tensor(rng_for(18, "v").normal(size=(1, 4)), requires_grad=True)
    h = Tensor(rng_for(19, "x").normal(size=(4, d.d_h)))
    params = [v, *hyper.parameters()]

    def run(build):
        for p in params:
            p.grad = None
        outs = build()
        total = outs[0]
        for o in outs[1:]:
            total = ad.add(total, o)
        ad.backward(total)
        return [p.grad.copy() for p in params]

    table = hyper.generate(v)
    for site in range(3):
        for got, want in zip(split_row(table.data[site], d.d_h, d.d_r),
                             generate_reference(hyper, v, site)):
            np.testing.assert_allclose(got, want.data, rtol=0, atol=1e-12)

    def fused_sites():
        shared = hyper.generate(v)  # one table per module, as hooks_for builds it
        return [ad.sum_all(adapter_at(h, shared, s)) for s in range(3)]

    fused = run(fused_sites)
    ref = run(lambda: [ad.sum_all(adapter_reference(h, *generate_reference(hyper, v, s)))
                       for s in range(3)])
    for a, b in zip(fused, ref):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_hypernetwork_single_speaker_table_is_unchanged_bit_for_bit(dtype):
    # a (1, d_1) speaker still gets the module's (n_sites, n_flat) table,
    # computed by the same arithmetic as one speaker at a time
    hyper = HyperNetwork(rng_for(0, "h"), n_sites=3, dims=DESK_DIMS)
    for p in hyper.parameters():
        p.data = (p.data + rng_for(1, "n").normal(size=p.shape) * 0.05).astype(dtype)
    v = Tensor(rng_for(2, "v").normal(size=(1, DESK_DIMS.d_1)).astype(dtype))
    table = hyper.generate(v)
    assert table.shape == (3, adapter_param_count(DESK_DIMS))
    np.testing.assert_array_equal(table.data, single_speaker_table(hyper, v))


def test_hypernetwork_batched_generate_matches_per_speaker_calls():
    # three speakers in one call: row b n_sites + s is site s of speaker b,
    # and the speaker, layer-embedding and projection gradients sum over
    # the speakers; values and every gradient against the op-by-op graph of
    # each (1, d_1) speaker alone, within 1e-12 in float64
    hyper = _f64_hyper(23, n_sites=3)
    d = hyper.dims
    speakers = rng_for(24, "v").normal(size=(3, d.d_1))
    probe = rng_for(25, "p").normal(size=(9, adapter_param_count(d)))
    params = hyper.parameters()

    def grads(spk_tensors, build):
        for p in [*spk_tensors, *params]:
            p.grad = None
        ad.backward(build())
        return [np.concatenate([v.grad for v in spk_tensors]),
                *(p.grad.copy() for p in params)]

    batched = Tensor(speakers, requires_grad=True)
    table = hyper.generate(batched)
    assert table.shape == probe.shape
    g_batched = grads([batched], lambda: weighted_sum(hyper.generate(batched), probe))

    alone = [Tensor(speakers[b : b + 1], requires_grad=True) for b in range(3)]

    def per_speaker():
        total = None
        for b, v in enumerate(alone):
            for s in range(3):
                row = probe[3 * b + s]
                for part, (want, got) in zip(np.split(row, np.cumsum([d.d_h * d.d_r, d.d_r,
                                                                       d.d_r * d.d_h])),
                                             zip(generate_reference(hyper, v, s),
                                                 split_row(table.data[3 * b + s], d.d_h, d.d_r))):
                    np.testing.assert_allclose(got, want.data, rtol=0, atol=1e-12)
                    term = weighted_sum(want, part.reshape(want.shape))
                    total = term if total is None else ad.add(total, term)
        return total

    g_alone = grads(alone, per_speaker)
    for a, b in zip(g_batched, g_alone):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


# -----------------------------------------------------------------------------
# strategy configs
# -----------------------------------------------------------------------------


def test_strategy_parse_and_label():
    assert StrategyConfig.parse("tts0").label() == "tts0"
    assert StrategyConfig.parse("ft").label() == "ft"
    assert StrategyConfig.parse("adapter_e").sites == ("e",)
    assert StrategyConfig.parse("hyper_evd").sites == ("e", "v", "d")
    # site order normalizes to encoder, variance, decoder
    assert StrategyConfig.parse("adapter_de").label() == "adapter_ed"


@pytest.mark.parametrize("label", ["warm", "adapter", "adapter_x", "adapter_ee", "tts0_e"])
def test_strategy_rejects_bad_labels(label):
    with pytest.raises(ConfigError):
        StrategyConfig.parse(label)


# -----------------------------------------------------------------------------
# parameter counts (reference dimensions)
# -----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def published_model():
    """The paper's backbone: 4 encoder and 6 decoder blocks, d_h=256."""
    model = TTSModel(ModelConfig(), seed=0)
    assert model.site_counts() == PUBLISHED_SITES
    return model


def published_count(model, label, dims=PUBLISHED):
    """Trainable parameters of the strategy `label` built over `model`."""
    return AdaptedModel(model, StrategyConfig.parse(label, dims)).trainable_count()


def test_single_adapter_count():
    assert static_adapter_table(0, "a", 1, PUBLISHED.d_h, PUBLISHED.d_r).size == 16672


@pytest.mark.parametrize("label,expected", [
    ("adapter_e", 66688),
    ("adapter_v", 33344),
    ("adapter_d", 100032),
    ("adapter_ed", 166720),
    ("adapter_evd", 200064),
    ("hyper_e", 151112),
    ("hyper_v", 150984),
    ("hyper_d", 151240),
    ("hyper_evd", 453336),
])
def test_strategy_counts_at_reference_dims(published_model, label, expected):
    assert published_count(published_model, label) == expected


@pytest.mark.parametrize("d_s,expected_d,expected_e,expected_evd", [
    (2, 50434, 50306, 150918),
    (8, 151240, 151112, 453336),
    (32, 554464, 554336, 1663008),
    (128, 2167360, 2167232, 6501696),
])
def test_hyper_counts_scale_with_source_dim(published_model, d_s, expected_d, expected_e,
                                           expected_evd):
    dims = AdapterDims(d_s=d_s)
    for label, expected in (("hyper_d", expected_d), ("hyper_e", expected_e),
                            ("hyper_evd", expected_evd)):
        assert published_count(published_model, label, dims) == expected


def test_counts_match_live_modules():
    table = static_adapter_table(0, "a", 1, PUBLISHED.d_h, PUBLISHED.d_r)
    assert table.size == adapter_param_count(PUBLISHED)
    for n_sites in (2, 4, 6):
        hyper = HyperNetwork(rng_for(0, "h"), n_sites, PUBLISHED)
        assert hyper.param_count() == hyper_param_count(PUBLISHED, n_sites)


def test_ft_counts_the_backbone_and_tts0_nothing(published_model):
    assert published_count(published_model, "tts0") == 0
    assert published_count(published_model, "ft") == published_model.param_count() == 11875502


# -----------------------------------------------------------------------------
# adapted model wiring
# -----------------------------------------------------------------------------


def test_adapted_model_rejects_dim_mismatch():
    model = small_model()
    with pytest.raises(ConfigError):
        AdaptedModel(model, StrategyConfig.parse("adapter_e", AdapterDims(d_h=64, d_1=24)))
    with pytest.raises(ConfigError):
        AdaptedModel(model, StrategyConfig.parse("adapter_e", AdapterDims(d_h=32, d_1=16)))


@pytest.mark.parametrize("label", ["tts0", "ft", "adapter_e", "adapter_evd", "hyper_v", "hyper_evd"])
def test_trainable_enumeration_matches_count(label):
    model = small_model()
    cfg = StrategyConfig.parse(label, DESK_DIMS)
    adapted = AdaptedModel(model, cfg, seed=3)
    expected = count_trainable_params(
        cfg, backbone_param_count=model.param_count(), site_counts=model.site_counts()
    )
    assert adapted.trainable_count() == expected
    names = [n for n, _ in adapted.named_trainable()]
    assert len(names) == len(set(names))
    if label == "tts0":
        assert names == []
    elif label == "ft":
        assert all(n.startswith("model.") for n in names)
    else:
        assert all(n.startswith("extras.") for n in names)


def test_freeze_flags_per_strategy():
    model = small_model()
    AdaptedModel(model, StrategyConfig.parse("hyper_e", DESK_DIMS))
    assert all(not p.requires_grad for p in model.parameters())
    AdaptedModel(model, StrategyConfig.parse("ft"))
    assert all(p.requires_grad for p in model.parameters())


def synth_args(model):
    phon = np.array([1, 4, 2, 7], dtype=np.int64)
    spk_vec = rng_for(0, "spk").normal(size=model.config.d_spk).astype(np.float32)
    return phon, spk_vec


@pytest.mark.parametrize("label", ["adapter_evd", "hyper_evd"])
def test_adapted_synthesis_identity_at_init(label):
    model = small_model()
    model.set_ranges((4.5, 6.0), (0.0, 1.0))
    phon, spk_vec = synth_args(model)
    ref, _ = model.synthesize(phon, spk_vec)
    adapted = AdaptedModel(model, StrategyConfig.parse(label, DESK_DIMS), seed=5)
    hooks = adapted.hooks_for(spk_vec)
    assert set(hooks) == {"e", "v", "d"}
    assert [hooks[t].shape[0] for t in ("e", "v", "d")] == [2, 2, 2]
    out, _ = model.synthesize(phon, spk_vec, hooks=hooks)
    np.testing.assert_array_equal(out, ref)


def test_adapted_synthesis_diverges_once_trained_weights_move():
    model = small_model()
    model.set_ranges((4.5, 6.0), (0.0, 1.0))
    phon, spk_vec = synth_args(model)
    ref, _ = model.synthesize(phon, spk_vec)
    adapted = AdaptedModel(model, StrategyConfig.parse("hyper_evd", DESK_DIMS), seed=5)
    # non-uniform nudge: channel-uniform deltas would vanish in the post-norm
    for tag in ("e", "v", "d"):
        w = getattr(adapted.extras, f"hyper_{tag}").sampler_up.w
        w.data += rng_for(8, "nudge", tag).normal(size=w.shape).astype(np.float32) * 0.05
    hooks = adapted.hooks_for(spk_vec)
    out, _ = model.synthesize(phon, spk_vec, hooks=hooks)
    # encoder adapters feed the duration head, so even the length may move
    if out.shape == ref.shape:
        assert np.abs(out - ref).max() > 1e-4
    else:
        assert out.shape[0] != ref.shape[0]


def train_args(model, seed=3, frames=15, phonemes=(1, 4, 2, 7, 3)):
    """(phonemes, mel, f0, energy, speaker embedding) of one utterance."""
    rng = np.random.default_rng(seed)
    return (np.array(phonemes, dtype=np.int64),
            rng.normal(size=(frames, model.config.n_mels)).astype(np.float32),
            rng.uniform(100.0, 300.0, frames).astype(np.float32),
            rng.uniform(0.2, 1.5, frames).astype(np.float32),
            rng.normal(size=model.config.d_spk).astype(np.float32))


def pack_of(*utterances):
    return Pack([utterance(*u, utt_id=f"u{i}") for i, u in enumerate(utterances)])


def _training_pass_ops(monkeypatch, model, hooks_fn):
    """op name -> count of the tape nodes that building the hooks and one
    training pass (aligner and teacher-forced forward) over a pack of eight
    utterances of eight speakers record."""
    counts = {}
    real = ad.from_op

    def counting(data, parents, grad_fn, op):
        counts[op] = counts.get(op, 0) + 1
        return real(data, parents, grad_fn, op)

    utts = [train_args(model, seed=3 + b, frames=12 + b) for b in range(8)]
    with monkeypatch.context() as patch:
        patch.setattr(ad, "from_op", counting)
        hooks = hooks_fn(np.stack([u[4] for u in utts]))
        teacher_forced(model, pack_of(*utts), hooks=hooks)
    return counts


def test_hyper_forward_train_adds_one_node_per_module(monkeypatch):
    # desk hyper_evd: 3 modules, 6 sites; over a pack of eight speakers,
    # adaptation adds exactly one generate node per module, and each site
    # runs inside its block's or trunk's node, so nothing else is added
    model = small_model()
    model.set_ranges((4.5, 6.0), (0.0, 1.0))
    adapted = AdaptedModel(model, StrategyConfig.parse("hyper_evd", DESK_DIMS), seed=5)
    with_hooks = _training_pass_ops(monkeypatch, model, adapted.hooks_for)
    without = _training_pass_ops(monkeypatch, model, lambda speakers: None)
    assert with_hooks.pop("hyper_generate") == 3
    assert with_hooks == without
    assert "adapter" not in with_hooks and "narrow" not in with_hooks


@pytest.mark.parametrize("label", ["adapter_evd", "hyper_evd"])
def test_adapted_forward_train_identity_at_init(label):
    model = small_model()
    model.set_ranges((4.5, 6.0), (0.0, 1.0))
    args = train_args(model, seed=4, frames=12)
    ref, _ = teacher_forced(model, pack_of(args))
    adapted = AdaptedModel(model, StrategyConfig.parse(label, DESK_DIMS), seed=5)
    out, _ = teacher_forced(model, pack_of(args), hooks=adapted.hooks_for(args[4]))
    for key in ("mel_pre", "mel_post", "log_dur", "pitch_spec", "energy"):
        np.testing.assert_array_equal(out[key].data, ref[key].data)


@pytest.mark.parametrize("label", ["adapter_evd", "hyper_evd"])
def test_packed_adapters_give_each_utterance_its_own_table(label):
    # moved off identity, so every site acts; in a pack of two speakers each
    # utterance gets the predictions (and the gradient) it gets alone
    model = small_model()
    model.set_ranges((4.5, 6.0), (0.0, 1.0))
    adapted = off_identity(AdaptedModel(model, StrategyConfig.parse(label, DESK_DIMS), seed=5))
    utts = [train_args(model, seed=4, frames=12), train_args(model, seed=6, frames=9,
                                                            phonemes=(3, 1, 5))]
    trainable = adapted.named_trainable()

    def run(pack_utts):
        for _, p in trainable:
            p.grad = None
        hooks = adapted.hooks_for(np.stack([u[4] for u in pack_utts]))
        out, _ = teacher_forced(model, pack_of(*pack_utts), hooks=hooks)
        total = ad.sum_all(out["mel_post"])
        for key in ("pitch_spec", "energy", "log_dur"):
            total = ad.add(total, ad.sum_all(out[key]))
        ad.backward(total)
        return out, {n: p.grad.copy() for n, p in trainable}

    packed, packed_grads = run(utts)
    grads = {n: 0.0 for n, _ in trainable}
    start = 0
    for u in utts:
        alone, alone_grads = run([u])
        rows = slice(start, start + u[1].shape[0])
        start = rows.stop
        for key in ("mel_pre", "mel_post", "pitch_spec", "energy"):
            np.testing.assert_allclose(packed[key].data[rows], alone[key].data, atol=2e-5)
        grads = {n: grads[n] + alone_grads[n] for n in grads}
    for n, g in packed_grads.items():
        np.testing.assert_allclose(g, grads[n], rtol=1e-4, atol=1e-4 * np.abs(grads[n]).max(),
                                   err_msg=n)


def test_tts0_and_ft_add_no_hooks():
    model = small_model()
    for label in ("tts0", "ft"):
        adapted = AdaptedModel(model, StrategyConfig.parse(label, DESK_DIMS))
        assert adapted.hooks_for(np.zeros(24, dtype=np.float32)) is None


def test_adapted_state_roundtrip():
    model = small_model()
    adapted = AdaptedModel(model, StrategyConfig.parse("hyper_ev", DESK_DIMS), seed=1)
    state = adapted.state_arrays()
    assert any(k.startswith("extras.hyper_e.") for k in state)

    fresh = AdaptedModel(small_model(seed=99), StrategyConfig.parse("hyper_ev", DESK_DIMS), seed=2)
    fresh.model.load_state_arrays({k: v for k, v in state.items() if not k.startswith("extras.")})
    fresh.extras.load_state_arrays(state, "extras.")
    for (_, a), (_, b) in zip(
        sorted(adapted.named_trainable()), sorted(fresh.named_trainable())
    ):
        np.testing.assert_array_equal(a.data, b.data)
    got = fresh.model.state_arrays()
    for k, v in model.state_arrays().items():
        np.testing.assert_array_equal(got[k], v)
