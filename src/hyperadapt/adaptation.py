"""Speaker adaptation strategies over a frozen backbone.

Four strategies: zero-shot (train nothing), full fine-tuning (train
everything), static bottleneck adapters, and hypernetwork-generated adapters
whose weights are produced fresh from the speaker embedding on every forward
pass. Adapters insert at fixed sites: one per encoder block (4), one per
decoder block (6), and one after each of the pitch and energy conv stacks (2).

Bottleneck adapters compute h + ReLU(h W_d + b_d) W_u + b_u. Up-projections
start at zero, so a freshly attached adapter is the identity and training
starts from the frozen model's behavior exactly.

Each backbone module keeps its adapters as one (n_sites, n_flat) table whose
row s is site s flattened as [w_down.flat | b_down | w_up.flat | b_up]. For
static adapters the table is itself the trainable tensor; for the
hypernetwork it is generated once per module and utterance. Two fused tape
ops with hand-written gradients carry the whole path: `HyperNetwork.generate`
(one node per module and utterance) and `adapter_forward` (one node per site
over a whole pack, reading one row of each utterance's table and sending
gradient only to that row).

The hypernetwork (one per module, never shared across modules) maps the
speaker embedding through a projector, concatenates it with each site's
layer embedding, compresses every row to a small source vector, and linearly
samples the flattened adapter tensors from it. Every stage is affine; the
samplers carry no bias so the generated weights are strictly
input-conditioned.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, InputError, ShapeError
from .layers import Dense, Module, rng_for, xavier_uniform

SITE_COUNTS = {"e": 4, "v": 2, "d": 6}
MODULE_ORDER = ("e", "v", "d")
STRATEGY_NAMES = ("tts0", "ft", "adapter", "hyper")


@dataclass
class AdapterDims:
    d_h: int = 256
    d_r: int = 32
    d_1: int = 256
    d_2: int = 64
    d_l: int = 64
    d_s: int = 8


def adapter_forward(h, tables, site, seg=None):
    """h + ReLU(h W_d + b_d) W_u + b_u over a packed (T, d_h) sequence in one
    node: segment b (all of h when seg is None) goes through row `site` of
    tables[b].

    Each table is (n_sites, n_flat), row s laid out as
    [w_down.flat | b_down | w_up.flat | b_up]; d_r follows from n_flat and
    d_h. Segments may share a table (static adapters share one); its
    gradient then sums over them. A table's gradient is zero outside row
    `site`.
    """
    bounds = ad._segments_of("adapter_forward", seg, h.shape[0])
    if len(tables) != len(bounds):
        raise InputError(f"adapter_forward: {len(tables)} tables for {len(bounds)} segments")
    ad._check_same_dtype("adapter_forward", h, *tables)
    d_h = h.shape[-1]
    shape = tables[0].shape
    n_sites, n_flat = shape if len(shape) == 2 else (0, 0)
    d_r, rest = divmod(n_flat - d_h, 2 * d_h + 1)
    if h.data.ndim != 2 or not n_sites or rest or d_r < 1 or any(t.shape != shape for t in tables):
        raise ShapeError("adapter_forward",
                         f"hidden dim {d_h} vs adapter tables {[t.shape for t in tables]}")
    if not 0 <= site < n_sites:
        raise InputError(f"adapter table has {n_sites} sites, got index {site}")
    n_wd = d_h * d_r
    n_down = n_wd + d_r
    x = h.data
    outs = []
    saved = []  # per segment: (w_down, w_up, relu mask, activations)
    for (s, e), table in zip(bounds, tables):
        row = table.data[site]
        w_down = row[:n_wd].reshape(d_h, d_r)
        w_up = row[n_down : n_flat - d_h].reshape(d_r, d_h)
        pre = x[s:e] @ w_down
        pre += row[n_wd:n_down]
        mask = pre > 0
        z = np.where(mask, pre, pre.dtype.type(0))
        delta = z @ w_up
        delta += row[n_flat - d_h :]
        outs.append(x[s:e] + delta)
        saved.append((w_down, w_up, mask, z))
    out_data = outs[0] if len(outs) == 1 else np.concatenate(outs)
    parents = [h, *{id(t): t for t in tables}.values()]

    def grad_fn(g):
        g_tables = {id(t): np.zeros_like(t.data) for t in parents[1:] if t.requires_grad}
        gh = []
        for (s, e), table, (w_down, w_up, mask, z) in zip(bounds, tables, saved):
            gs = g[s:e]
            gpre = (gs @ w_up.T) * mask
            if id(table) in g_tables:
                g_row = g_tables[id(table)][site]
                g_row[:n_wd] += (x[s:e].T @ gpre).reshape(-1)
                g_row[n_wd:n_down] += ad._add_reduce(gpre, axis=0)
                g_row[n_down : n_flat - d_h] += (z.T @ gs).reshape(-1)
                g_row[n_flat - d_h :] += ad._add_reduce(gs, axis=0)
            if h.requires_grad:
                gh.append(gs + gpre @ w_down.T)
        gx = (gh[0] if len(gh) == 1 else np.concatenate(gh)) if gh else None
        return (gx,) + tuple(g_tables.get(id(t)) for t in parents[1:])

    return ad.from_op(out_data, parents, grad_fn, "adapter")


def static_adapter_table(seed, tag, n_sites, d_h, d_r, dtype=ad.DEFAULT_DTYPE):
    """Trainable (n_sites, n_flat) table of directly trained adapters for one
    module. Row i draws w_down from the rng_for(seed, "adapter", tag, i)
    stream; everything else starts at zero, so each site is the identity."""
    n_wd = d_h * d_r
    rows = np.zeros((n_sites, 2 * n_wd + d_r + d_h), dtype=dtype)
    for i in range(n_sites):
        rows[i, :n_wd] = xavier_uniform(rng_for(seed, "adapter", tag, i), (d_h, d_r),
                                        d_h, d_r, dtype).reshape(-1)
    return Tensor(rows, requires_grad=True)


class HyperNetwork(Module):
    """Generates adapter weights for every site of one backbone module."""

    def __init__(self, rng, n_sites, dims, dtype=ad.DEFAULT_DTYPE):
        d = dims
        self.speaker_proj = Dense(rng, d.d_1, d.d_2, dtype=dtype)
        table = (rng.standard_normal((n_sites, d.d_l)) * d.d_l ** -0.5).astype(dtype)
        self.layer_embed = Tensor(table, requires_grad=True)
        self.source_proj = Dense(rng, d.d_2 + d.d_l, d.d_s, dtype=dtype)
        n_down = d.d_h * d.d_r + d.d_r
        n_up = d.d_r * d.d_h + d.d_h
        self.sampler_down = Dense(rng, d.d_s, n_down, bias=False, dtype=dtype)
        # zero start: generated up-projections vanish, adapters begin as identity
        self.sampler_up = Dense(rng, d.d_s, n_up, bias=False, dtype=dtype, zero_init=True)
        self.dims = d
        self.n_sites = n_sites

    def generate(self, spk_vec):
        """(n_sites, n_down + n_up) adapter table for a (1, d_1) speaker
        vector, in one node; differentiable in spk_vec and all seven
        hypernetwork tensors, deterministic given both.

        The speaker projection runs once; the source projection maps every
        [speaker | layer embedding] row in one matmul, and each sampler maps
        every source row in one matmul.
        """
        if spk_vec.data.ndim != 2 or spk_vec.shape != (1, self.dims.d_1):
            raise ShapeError("generate", f"speaker vector must be (1, {self.dims.d_1}), got {spk_vec.shape}")
        sp, so = self.speaker_proj, self.source_proj
        parents = (spk_vec, sp.w, sp.b, self.layer_embed, so.w, so.b,
                   self.sampler_down.w, self.sampler_up.w)
        ad._check_same_dtype("generate", *parents)
        v, wp, le, ws, wd, wu = (spk_vec.data, sp.w.data, self.layer_embed.data,
                                 so.w.data, self.sampler_down.w.data, self.sampler_up.w.data)
        d_2, n_down = wp.shape[1], wd.shape[1]
        sv = v @ wp
        sv += sp.b.data                                           # (1, d_2)
        x = np.concatenate([np.repeat(sv, self.n_sites, axis=0), le], axis=1)
        z = x @ ws
        z += so.b.data                                            # (n_sites, d_s)
        out_data = np.concatenate([z @ wd, z @ wu], axis=1)

        def grad_fn(g):
            g_down, g_up = g[:, :n_down], g[:, n_down:]
            gz = g_down @ wd.T + g_up @ wu.T
            gx = gz @ ws.T
            gsv = ad._add_reduce(gx[:, :d_2], axis=0, keepdims=True)
            # the speaker vector is a constant in training; the seven
            # hypernetwork tensors train whenever this node is on a tape
            g_spk = gsv @ wp.T if spk_vec.requires_grad else None
            return (g_spk, v.T @ gsv, gsv[0], gx[:, d_2:], x.T @ gz,
                    ad._add_reduce(gz, axis=0), z.T @ g_down, z.T @ g_up)

        return ad.from_op(out_data, parents, grad_fn, "hyper_generate")


# -----------------------------------------------------------------------------
# strategies
# -----------------------------------------------------------------------------


@dataclass
class StrategyConfig:
    name: str
    sites: tuple = ()
    dims: AdapterDims = field(default_factory=AdapterDims)

    def __post_init__(self):
        if self.name not in STRATEGY_NAMES:
            raise ConfigError(f"unknown strategy {self.name!r} (choose from {STRATEGY_NAMES})")
        sites = tuple(self.sites)
        if self.name in ("tts0", "ft"):
            if sites:
                raise ConfigError(f"strategy {self.name} takes no sites, got {sites}")
        else:
            if not sites:
                raise ConfigError(f"strategy {self.name} needs at least one site of e/v/d")
            bad = [s for s in sites if s not in SITE_COUNTS]
            if bad:
                raise ConfigError(f"unknown adapter sites {bad}")
            if len(set(sites)) != len(sites):
                raise ConfigError(f"duplicate sites in {sites}")
            sites = tuple(s for s in MODULE_ORDER if s in sites)
        self.sites = sites

    @classmethod
    def parse(cls, label, dims=None):
        """'tts0', 'ft', 'adapter_e', 'hyper_evd', ... -> StrategyConfig."""
        dims = dims if dims is not None else AdapterDims()
        if label in ("tts0", "ft"):
            return cls(label, (), dims)
        if "_" not in label:
            raise ConfigError(f"strategy label {label!r} needs a site suffix, e.g. hyper_evd")
        name, suffix = label.split("_", 1)
        return cls(name, tuple(suffix), dims)

    def label(self):
        return self.name if not self.sites else f"{self.name}_{''.join(self.sites)}"


def adapter_param_count(dims):
    """Trainable parameters of one static adapter site."""
    return dims.d_h * dims.d_r + dims.d_r + dims.d_r * dims.d_h + dims.d_h


def hyper_param_count(dims, n_sites):
    """Trainable parameters of one module's hypernetwork."""
    d = dims
    speaker_proj = d.d_1 * d.d_2 + d.d_2
    layer_embed = n_sites * d.d_l
    source_proj = (d.d_2 + d.d_l) * d.d_s + d.d_s
    sampler_down = d.d_s * (d.d_h * d.d_r + d.d_r)
    sampler_up = d.d_s * (d.d_r * d.d_h + d.d_h)
    return speaker_proj + layer_embed + source_proj + sampler_down + sampler_up


def count_trainable_params(config, backbone_param_count=None, site_counts=None):
    """Exact trainable-parameter total for a strategy."""
    counts = site_counts if site_counts is not None else SITE_COUNTS
    if config.name == "tts0":
        return 0
    if config.name == "ft":
        if backbone_param_count is None:
            raise ConfigError("full fine-tuning count requires the backbone parameter count")
        return int(backbone_param_count)
    if config.name == "adapter":
        return sum(counts[s] * adapter_param_count(config.dims) for s in config.sites)
    return sum(hyper_param_count(config.dims, counts[s]) for s in config.sites)


class _Bank(Module):
    """Attribute bag so adapter/hypernetwork tensors get stable names."""


def site_adapters(tables, seg=None):
    """One callable per adapter site of a module over a packed sequence:
    site s sends segment b through row s of tables[b]."""
    return [_site_hook(tables, site, seg) for site in range(tables[0].shape[0])]


def _site_hook(tables, site, seg):
    # adapter_forward is looked up by name when the hook runs, not bound here
    return lambda h: adapter_forward(h, tables, site, seg)


class AdaptedModel:
    """A backbone plus one strategy's trainable surface.

    Freezing is enforced at build time via requires_grad; the training loop
    additionally verifies frozen tensors never change. `detached` bypasses
    every adapter hook, which must reproduce the plain backbone exactly.
    """

    def __init__(self, model, strategy, seed=0):
        dims = strategy.dims
        if strategy.sites:  # tts0/ft attach nothing, so adapter dims are moot
            if dims.d_h != model.config.d_h:
                raise ConfigError(f"strategy d_h={dims.d_h} but checkpoint model has d_h={model.config.d_h}")
            if dims.d_1 != model.config.d_spk:
                raise ConfigError(f"strategy d_1={dims.d_1} but checkpoint model has d_spk={model.config.d_spk}")
        self.model = model
        self.strategy = strategy
        self.site_counts = model.site_counts()
        self.extras = _Bank()
        self.detached = False
        model.set_trainable(strategy.name == "ft")
        for tag in strategy.sites:
            n = self.site_counts[tag]
            if strategy.name == "adapter":
                bank = static_adapter_table(seed, tag, n, dims.d_h, dims.d_r)
            else:
                bank = HyperNetwork(rng_for(seed, "hyper", tag), n, dims)
            setattr(self.extras, f"{strategy.name}_{tag}", bank)

    def hooks_for(self, spk_vec):
        """One utterance's adapters: module tag -> its (n_sites, n_flat)
        adapter table, or None when the strategy adds nothing (tts0/ft) or
        adapters are detached. A hypernetwork generates its module's table
        once, here; static adapters hand out their trainable table."""
        if self.detached or self.strategy.name in ("tts0", "ft"):
            return None
        hooks = {}
        for tag in self.strategy.sites:
            bank = getattr(self.extras, f"{self.strategy.name}_{tag}")
            hooks[tag] = bank.generate(spk_vec) if self.strategy.name == "hyper" else bank
        return hooks

    def named_trainable(self):
        seen = []
        for name, p in self.model.named_parameters("model."):
            if p.requires_grad:
                seen.append((name, p))
        for name, p in self.extras.named_parameters("extras."):
            if p.requires_grad:
                seen.append((name, p))
        return seen

    def trainable_count(self):
        return sum(p.size for _, p in self.named_trainable())

    def state_arrays(self):
        out = self.model.state_arrays()
        out.update(self.extras.state_arrays("extras."))
        return out

    def load_state_arrays(self, arrays):
        model_arrays = {k: v for k, v in arrays.items() if not k.startswith("extras.")}
        self.model.load_state_arrays(model_arrays)
        self.extras.load_state_arrays(arrays, "extras.")
