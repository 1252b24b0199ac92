"""Speaker adaptation strategies over a frozen backbone.

Four strategies: zero-shot (train nothing), full fine-tuning (train
everything), static bottleneck adapters, and hypernetwork-generated adapters
whose weights are produced fresh from the speaker embedding on every forward
pass. Adapters insert at fixed sites: one per encoder block, one per decoder
block, and one after each of the pitch and energy conv stacks.

Bottleneck adapters compute h + ReLU(h W_d + b_d) W_u + b_u. Up-projections
start at zero, so a freshly attached adapter is the identity and training
starts from the frozen model's behavior exactly.

Each backbone module keeps its adapters as one (n_sites, n_flat) table whose
row s is site s flattened as [w_down.flat | b_down | w_up.flat | b_up]. For
static adapters the table is itself the trainable tensor, shared by every
utterance; the hypernetwork generates a pack's tables from its (B, d_1)
speaker matrix, stacked speaker-major. Two fused ops with hand-written
gradients carry the whole path: `HyperNetwork.generate` (one tape node per
module per pack) and `adapter_forward` (one site over a whole pack, with no
loop over segments: site s is the strided view table[s::n_sites], and the
blocks its rows form are cached on the pack's `autodiff.Segments`). A site
runs on arrays inside the node of its FFT block or variance trunk, which
takes it as an `AdapterSite` and lists the table among its parents.

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
from .errors import ConfigError, InputError, ShapeError, check_fields, in_range, ranged
from .layers import Dense, Module, rng_for, xavier_uniform

MODULE_ORDER = ("e", "v", "d")
STRATEGY_NAMES = ("tts0", "ft", "adapter", "hyper")


@dataclass
class AdapterDims:
    d_h: int = ranged(256, "[1, inf)")
    d_r: int = ranged(32, "[1, inf)")
    d_1: int = ranged(256, "[1, inf)")
    d_2: int = ranged(64, "[1, inf)")
    d_l: int = ranged(64, "[1, inf)")
    d_s: int = ranged(8, "[1, inf)")

    def __post_init__(self):
        check_fields(self, "dims.")


def adapter_forward(x, table, seg, site, n_sites):
    """x + ReLU(x W_d + b_d) W_u + b_u over a packed (T, d_h) array laid out
    by `seg`, at site `site` of an n_sites-site table (an array): (out,
    back), back(g, need_x, need_table) giving (gx, g_table), None where the
    flag is off. The module nodes run it (see AdapterSite).

    Row r is laid out as [w_down.flat | b_down | w_up.flat | b_up]. Site s
    is the strided view table[s::n_sites]: the one row of a shared
    (n_sites, n_flat) table, or row b for segment b of a generated
    speaker-major (B n_sites, n_flat) one. Its K rows are applied
    block-diagonally: one (T, K d_r) down-projection, each packed row masked
    to its own block before the ReLU, one (K d_r, d_h) up-projection. A
    shared row's gradient sums over its segments (segment by segment for the
    up bias); rows of other sites get zero gradient.
    """
    ad._segments_of("adapter_forward", seg, x.shape[0])
    n_rows, n_flat = table.shape if table.ndim == 2 else (0, 0)
    d_h = x.shape[-1]
    d_r, rest = divmod(n_flat - d_h, 2 * d_h + 1)
    if x.ndim != 2 or rest or d_r < 1 or n_rows not in (n_sites, n_sites * len(seg)):
        raise ShapeError("adapter_forward", f"hidden {x.shape} vs a table {table.shape} for "
                                            f"{n_sites} sites and {len(seg)} segments")
    if not isinstance(site, (int, np.integer)) or not 0 <= site < n_sites:
        raise InputError(f"adapter_forward: site {site!r} of {n_sites}")
    picked = table[site::n_sites]
    k = picked.shape[0]
    n_wd = d_h * d_r
    n_down = n_wd + d_r
    w_down = picked[:, :n_wd].reshape(k, d_h, d_r).transpose(1, 0, 2).reshape(d_h, k * d_r)
    w_up = picked[:, n_down : n_flat - d_h].reshape(k * d_r, d_h)
    pre = x @ w_down
    pre += picked[:, n_wd:n_down].reshape(-1)
    keep = pre > 0
    if k > 1:
        keep &= seg.block_mask(k, d_r)
    z = np.where(keep, pre, pre.dtype.type(0))
    delta = z @ w_up
    delta += picked[seg.blocks(k), n_flat - d_h :] if k > 1 else picked[0, n_flat - d_h :]

    def back(g, need_x, need_table):
        gpre = ad._masked(g @ w_up.T, keep)
        g_table = None
        if need_table:
            g_table = np.zeros(table.shape, table.dtype)
            g_rows = g_table[site::n_sites]
            g_rows[:, :n_wd] = (x.T @ gpre).reshape(d_h, k, d_r).transpose(1, 0, 2).reshape(k, n_wd)
            g_rows[:, n_wd:n_down] = ad._add_reduce(gpre, axis=0).reshape(k, d_r)
            g_rows[:, n_down : n_flat - d_h] = (z.T @ g).reshape(k, -1)
            g_rows[:, n_flat - d_h :] = ad._add_reduce(
                np.add.reduceat(g, seg.starts, axis=0).reshape(-1, k, d_h), axis=0)
        gx = g + gpre @ w_down.T if need_x else None
        return gx, g_table

    return x + delta, back


class AdapterSite:
    """Site `site` of a module's adapter table over a pack laid out by
    `seg`, as a module node takes it: the node records the site as an array
    op of its input and `table` (a Tensor), and the site runs
    adapter_forward, looked up when called."""

    __slots__ = ("table", "seg", "site", "n_sites")

    def __init__(self, table, seg, site, n_sites):
        self.table, self.seg, self.site, self.n_sites = table, seg, site, n_sites

    def __call__(self, x, table):
        return adapter_forward(x, table, self.seg, self.site, self.n_sites)


def site_adapters(table, n_sites, seg):
    """One AdapterSite per site of a module over a packed sequence laid out
    by `seg`, from the pack's table (see AdaptedModel.hooks_for)."""
    return [AdapterSite(table, seg, site, n_sites) for site in range(n_sites)]


def static_adapter_table(seed, tag, n_sites, d_h, d_r):
    """Trainable (n_sites, n_flat) table of directly trained adapters for one
    module. Row i draws w_down from the rng_for(seed, "adapter", tag, i)
    stream; everything else starts at zero, so each site is the identity."""
    n_wd = d_h * d_r
    rows = np.zeros((n_sites, 2 * n_wd + d_r + d_h), dtype=ad.DEFAULT_DTYPE)
    for i in range(n_sites):
        rows[i, :n_wd] = xavier_uniform(rng_for(seed, "adapter", tag, i), (d_h, d_r),
                                        d_h, d_r).reshape(-1)
    return Tensor(rows, requires_grad=True)


class HyperNetwork(Module):
    """Generates adapter weights for every site of one backbone module."""

    def __init__(self, rng, n_sites, dims):
        d = dims
        self.speaker_proj = Dense(rng, d.d_1, d.d_2)
        table = (rng.standard_normal((n_sites, d.d_l)) * d.d_l ** -0.5).astype(ad.DEFAULT_DTYPE)
        self.layer_embed = Tensor(table, requires_grad=True)
        self.source_proj = Dense(rng, d.d_2 + d.d_l, d.d_s)
        n_down = d.d_h * d.d_r + d.d_r
        n_up = d.d_r * d.d_h + d.d_h
        self.sampler_down = Dense(rng, d.d_s, n_down, bias=False)
        # zero start: generated up-projections vanish, adapters begin as identity
        self.sampler_up = Dense(rng, d.d_s, n_up, bias=False, zero_init=True)
        self.dims = d
        self.n_sites = n_sites

    def generate(self, spk):
        """Adapter tables of B speakers, a (B, d_1) matrix, in one node:
        (B n_sites, n_down + n_up), speaker-major, so row b n_sites + s is
        site s of speaker b (a (1, d_1) input gives the module's
        (n_sites, n_flat) table). Differentiable in spk and all seven
        hypernetwork tensors, deterministic given both.

        The speaker projection maps every speaker in one matmul, the source
        projection every [speaker | layer embedding] row, and each sampler
        every source row; the gradients of the layer embedding and the
        projections sum over the speakers.
        """
        n_sites = self.n_sites
        if spk.data.ndim != 2 or spk.shape[0] < 1 or spk.shape[1] != self.dims.d_1:
            raise ShapeError("generate", f"speakers must be (B, {self.dims.d_1}), got {spk.shape}")
        sp, so = self.speaker_proj, self.source_proj
        parents = (spk, sp.w, sp.b, self.layer_embed, so.w, so.b,
                   self.sampler_down.w, self.sampler_up.w)
        ad._check_same_dtype("generate", *parents)
        v, wp, le, ws, wd, wu = (spk.data, sp.w.data, self.layer_embed.data,
                                 so.w.data, self.sampler_down.w.data, self.sampler_up.w.data)
        n_spk = v.shape[0]
        d_2, n_down = wp.shape[1], wd.shape[1]
        sv = v @ wp
        sv += sp.b.data                                           # (B, d_2)
        x = np.empty((n_spk, n_sites, d_2 + le.shape[1]), dtype=sv.dtype)
        x[:, :, :d_2] = sv[:, None]
        x[:, :, d_2:] = le
        x = x.reshape(n_spk * n_sites, -1)
        z = x @ ws
        z += so.b.data                                            # (B n_sites, d_s)
        out_data = np.concatenate([z @ wd, z @ wu], axis=1)

        def grad_fn(g):
            g_down, g_up = g[:, :n_down], g[:, n_down:]
            gz = g_down @ wd.T + g_up @ wu.T
            gx = gz @ ws.T
            gsv = ad._add_reduce(gx[:, :d_2].reshape(n_spk, n_sites, d_2), axis=1)
            g_le = ad._add_reduce(gx[:, d_2:].reshape(n_spk, n_sites, -1), axis=0)
            # the speakers are constants in training; the seven hypernetwork
            # tensors train whenever this node is on a tape
            g_spk = gsv @ wp.T if spk.requires_grad else None
            return (g_spk, v.T @ gsv, ad._add_reduce(gsv, axis=0), g_le, x.T @ gz,
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
        in_range("strategy", self.name, STRATEGY_NAMES)
        sites = tuple(self.sites)
        if self.name in ("tts0", "ft"):
            if sites:
                raise ConfigError(f"strategy {self.name} takes no sites, got {sites}")
        else:
            if not sites:
                raise ConfigError(f"strategy {self.name} needs at least one site of e/v/d")
            for site in sites:
                in_range("site", site, MODULE_ORDER)
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


class _Bank(Module):
    """Attribute bag so adapter/hypernetwork tensors get stable names."""


class AdaptedModel:
    """A backbone plus one strategy's trainable surface.

    Freezing is enforced at build time via requires_grad; the training loop
    additionally verifies frozen tensors never change.
    """

    def __init__(self, model, strategy, seed=0):
        dims = strategy.dims
        if strategy.sites:  # tts0/ft attach nothing, so adapter dims are moot
            for key, size in (("d_h", dims.d_h), ("d_spk", dims.d_1)):
                if size != getattr(model.config, key):
                    raise ConfigError(f"adapters sized for model.{key}={size}, but the checkpoint's "
                                      f"model has {key}={getattr(model.config, key)}")
        self.model = model
        self.strategy = strategy
        self.site_counts = model.site_counts()
        self.extras = _Bank()
        model.set_trainable(strategy.name == "ft")
        for tag in strategy.sites:
            n = self.site_counts[tag]
            if strategy.name == "adapter":
                bank = static_adapter_table(seed, tag, n, dims.d_h, dims.d_r)
            else:
                bank = HyperNetwork(rng_for(seed, "hyper", tag), n, dims)
            setattr(self.extras, f"{strategy.name}_{tag}", bank)

    def hooks_for(self, speakers):
        """Adapter tables for one speaker embedding, a (d_1,) array, or for
        a pack whose speakers are the rows of a (B, d_1) array: module tag
        -> table, or None when the strategy adds nothing (tts0/ft). A
        hypernetwork generates its module's tables for the whole pack here,
        in one node ((B n_sites, n_flat), speaker-major); static adapters
        hand out their shared trainable (n_sites, n_flat) table. One speaker
        gets each module's (n_sites, n_flat) table either way."""
        if self.strategy.name in ("tts0", "ft"):
            return None
        spk = self.model._speaker_tensor(speakers)
        hooks = {}
        for tag in self.strategy.sites:
            bank = getattr(self.extras, f"{self.strategy.name}_{tag}")
            hooks[tag] = bank.generate(spk) if self.strategy.name == "hyper" else bank
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
