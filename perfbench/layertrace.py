"""Span tracing for the traced benchmark run, from outside the library.

`install(tracer)` replaces the public functions of each hyperadapt module at
the attribute their callers look up at call time (a module attribute, or a
method on the class), records one span per call, and returns a function that
puts the originals back. Wrappers only read the clock and argument shapes;
they pass arguments and results through untouched, so a traced run computes
bit-for-bit what an untraced run computes (the benchmark checks this).

Spans are kept in memory as (name, start, end, parent, unit, self) and written
out when the run ends. Self time is a span's duration minus the time its
direct child spans cover. `autodiff.from_op` is counted, not spanned: it runs
a few thousand times per step and a span each would dominate the overhead.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

from hyperadapt import (adaptation, autodiff, backbone, featio, kernels, metrics, model,
                        training, variance)

# the fixed-shape kernel cases and their timer come from the repository's
# kernel benchmark, which runs nothing on import
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "benchmarks"))
import bench_kernels  # noqa: E402

# span name -> (owner object, attribute) for every wrapped call site
TARGETS = {
    "autodiff.backward": [(autodiff, "backward")],
    "training.forward": [(training, "compute_losses")],
    "training.adam": [(training.Adam, "step")],
    "training.validate": [(training, "validate")],
    "featio.write_checkpoint": [(featio, "write_checkpoint")],
    "featio.read_checkpoint": [(featio, "read_checkpoint")],
    "kernels.conv1d_forward": [(kernels, "conv1d_forward")],
    "kernels.conv1d_backward": [(kernels, "conv1d_backward")],
    "kernels.forward_sum": [(kernels, "forward_sum")],
    "kernels.viterbi": [(kernels, "viterbi")],
    "kernels.dtw_path": [(kernels, "dtw_path")],
    "backbone.encoder": [(backbone.Encoder, "__call__")],
    "backbone.decoder": [(backbone.Decoder, "__call__")],
    "backbone.postnet": [(backbone.Postnet, "__call__")],
    "alignment.soft_align": [(model, "soft_align")],
    "alignment.forward_sum_loss": [(training, "forward_sum_loss")],
    "alignment.viterbi_durations": [(model, "viterbi_durations")],
    "variance.predictors": [(variance.DurationPredictor, "__call__"),
                            (variance.PitchPredictor, "__call__"),
                            (variance.EnergyPredictor, "__call__")],
    "variance.length_regulate": [(variance, "length_regulate")],
    "variance.icwt_reconstruct": [(variance, "icwt_reconstruct")],
    "adaptation.generate": [(adaptation.HyperNetwork, "generate")],
    "adaptation.adapter_forward": [(adaptation, "adapter_forward")],
    "metrics.mcd": [(metrics, "mcd_metric")],
    "metrics.ffe": [(metrics, "ffe_metric")],
    "metrics.cos": [(metrics, "cos_metric")],
}
LAYERS = tuple(TARGETS)
FIXED_MIN_S = 0.05  # each fixed-shape timing sample loops at least this long
FIXED_REPEATS = 5  # samples per kernel; the median is reported


def conv1d_work(xp, w, gout=None):
    """(flop, bytes) of one conv1d forward (or backward, given gout) call,
    from the shapes: an im2col matmul over T x (K*Cin) x Cout. Bytes count
    the operand, im2col and result arrays once each."""
    k, cin, cout = w.shape
    t = xp.shape[0] - k + 1
    item = xp.dtype.itemsize
    cols = t * k * cin
    if gout is None:
        return 2 * cols * cout, item * (xp.size + cols + w.size + t * cout)
    # grad_w = cols^T @ gout and grad_cols = gout @ w^T, then the scatter into gxp
    return 4 * cols * cout, item * (2 * xp.size + 2 * cols + 2 * w.size + t * cout)


# per-call counters beyond the call count: name -> fn(args) -> {suffix: value}
COUNTERS = {
    "kernels.conv1d_forward": lambda a: dict(zip(("flop", "bytes"), conv1d_work(a[0], a[1]))),
    "kernels.conv1d_backward": lambda a: dict(zip(("flop", "bytes"), conv1d_work(a[0], a[1], a[2]))),
    "kernels.forward_sum": lambda a: {"cells": a[0].size},
    "kernels.viterbi": lambda a: {"cells": a[0].size},
    "kernels.dtw_path": lambda a: {"cells": a[0].size},
}


class Tracer:
    """In-memory span recorder. `unit` labels the step or utterance that
    new spans belong to; the benchmark advances it."""

    def __init__(self):
        self.spans = []    # (name, start, end, parent index, unit, self seconds)
        self._open = []    # [span index, child seconds so far] of each open span
        self.counts = defaultdict(float)
        self.unit = "setup"

    def wrap(self, name, fn):
        spans, open_, counts = self.spans, self._open, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                for key, value in counter(args).items():
                    counts[f"{name}.{key}"] += value
            index = len(spans)
            spans.append(None)  # reserve the index; children name it as parent
            parent = open_[-1] if open_ else None
            frame = [index, 0.0]
            open_.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                # finished spans are tuples of plain numbers, which the
                # garbage collector stops scanning
                spans[index] = (name, start, end, parent[0] if parent else -1, self.unit,
                                end - start - frame[1])
                if parent is not None:
                    parent[1] += end - start

        return traced

    def count_calls(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def layer_totals(self):
        """name -> (self seconds, calls) over every recorded span."""
        total = defaultdict(lambda: [0.0, 0])
        for name, _, _, _, _, self_s in self.spans:
            total[name][0] += self_s
            total[name][1] += 1
        return total

    def write_spans(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, unit, self_s in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "unit": unit, "self": self_s}) + "\n")


def install(tracer):
    """Wrap every target; returns a function that restores the originals."""
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for name, sites in TARGETS.items():
        for owner, attr in sites:
            patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    patch(autodiff, "from_op", tracer.count_calls("autodiff.nodes", autodiff.from_op))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


# -----------------------------------------------------------------------------
# kernels at fixed shapes
# -----------------------------------------------------------------------------


def _fixed_work(name, args):
    """(op count, bytes moved) of one call at the fixed shapes: flops for
    conv1d and DP cells for the alignment DPs and DTW; bytes count the
    operand, result and DP-table arrays once each."""
    if name.startswith("conv1d_"):
        return conv1d_work(*args)
    cells = args[0].size
    # forward_sum: logp in; alpha, beta and the gradient out (float64).
    # viterbi: logp in; the score table (float64) and move table (uint8).
    # dtw_path: cost in, accumulated-cost table out.
    per_cell = {"forward_sum": 32, "viterbi": 17, "dtw_path": 16}[name]
    return cells, per_cell * cells


def time_fixed_kernels():
    """The pure-numpy kernels at the fixed shapes of
    benchmarks/bench_kernels.py::build_cases, timed by its `_time` (median
    seconds per call over FIXED_REPEATS samples of at least FIXED_MIN_S,
    after a warm-up call): name -> (seconds, op count, bytes)."""
    out = {}
    for name, _, fn, args, _ in bench_kernels.build_cases(np.random.default_rng(0)):
        out[name] = (bench_kernels._time(fn, args, FIXED_REPEATS, FIXED_MIN_S),
                     *_fixed_work(name, args))
    return out
