"""Times the numpy kernels of hyperadapt.kernels at fixed shapes: the conv
forward/backward (the backward also without the weight gradient, as a frozen
weight asks for it), the alignment DPs on one map and on a desk-size batch of
eight, and DTW on one map and on a batch of 24 evaluation-size maps (against
24 one-map calls). perfbench/layertrace.py reuses `build_cases` and `_time`.

Usage: python3 benchmarks/bench_kernels.py [--repeats N] [--min-time SECONDS]
"""

import argparse
import functools
import sys
import time

import numpy as np

from hyperadapt import kernels


def _time(fn, args, repeats, min_time):
    """Median seconds per call; loops until min_time so fast kernels are
    measured over many calls."""
    fn(*args)  # warmup
    samples = []
    for _ in range(repeats):
        calls = 0
        start = time.perf_counter()
        elapsed = 0.0
        while elapsed < min_time:
            fn(*args)
            calls += 1
            elapsed = time.perf_counter() - start
        samples.append(elapsed / calls)
    return float(np.median(samples))


def build_cases(rng):
    t, k, cin, cout = 240, 9, 64, 64
    xp = rng.standard_normal((t + k - 1, cin)).astype(np.float32)
    w = (rng.standard_normal((k, cin, cout)) * 0.05).astype(np.float32)
    gout = rng.standard_normal((t, cout)).astype(np.float32)

    n, m = 40, 400
    logp = np.log(rng.dirichlet(np.ones(n), size=m).T.astype(np.float64))

    a = rng.standard_normal((300, 20))
    b = rng.standard_normal((320, 20))
    cost = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))

    # (name, shape, kernel, arguments, tolerance): perfbench/layertrace.py
    # unpacks these five fields; the tolerance is the bound the kernels were
    # held to when they had twins, and nothing here reads it
    return [
        ("conv1d_forward", f"T={t} K={k} C={cin}",
         kernels.conv1d_forward_np, (xp, w), 1e-4),
        ("conv1d_backward", f"T={t} K={k} C={cin}",
         kernels.conv1d_backward_np, (xp, w, gout), 1e-4),
        ("conv1d_backward_x", f"T={t} K={k} C={cin}",
         functools.partial(kernels.conv1d_backward_np, need_w=False), (xp, w, gout), 1e-4),
        ("forward_sum", f"n={n} m={m}",
         kernels.forward_sum_np, (logp,), 1e-10),
        ("viterbi", f"n={n} m={m}",
         kernels.viterbi_np, (logp,), 0.0),
        ("dtw_path", f"{cost.shape[0]}x{cost.shape[1]}",
         kernels.dtw_path_np, (cost,), 0.0),
    ]


def batch_cases(rng):
    """The alignment DPs on a pack of eight maps of desk size (8-14
    phonemes over 40-70 frames), as one training step runs them; and DTW on
    24 cost maps of the sizes an evaluation scores (10-35 synthesized by
    35-76 reference frames), as one batched sweep and as 24 one-map calls."""
    n_len = rng.integers(8, 15, size=8)
    m_len = rng.integers(40, 71, size=8)
    logp = np.full((8, n_len.max(), m_len.max()), -np.inf)
    for b, (n, m) in enumerate(zip(n_len, m_len)):
        logp[b, :n, :m] = np.log(rng.dirichlet(np.ones(n), size=m).T)
    shape = f"B=8 n<={n_len.max()} m<={m_len.max()}"

    a_len = rng.integers(10, 36, size=24)
    b_len = rng.integers(35, 77, size=24)
    cost = np.zeros((24, a_len.max(), b_len.max()))
    maps = []
    for r, (a, b) in enumerate(zip(a_len, b_len)):
        x, y = rng.standard_normal((a, 13)), rng.standard_normal((b, 13))
        cost[r, :a, :b] = np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(-1))
        maps.append(np.ascontiguousarray(cost[r, :a, :b]))
    dtw_shape = f"B=24 a<={a_len.max()} b<={b_len.max()}"
    return [("forward_sum", shape, kernels.forward_sum_np, (logp, n_len, m_len)),
            ("viterbi", shape, kernels.viterbi_np, (logp, n_len, m_len)),
            ("dtw_path", dtw_shape, kernels.dtw_path_np, (cost, a_len, b_len)),
            ("dtw_path x24", dtw_shape, lambda: [kernels.dtw_path_np(c) for c in maps], ())]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing samples per kernel (median is reported)")
    parser.add_argument("--min-time", type=float, default=0.05,
                        help="seconds of calls per sample")
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    cases = [case[:4] for case in build_cases(rng)] + batch_cases(rng)
    header = f"{'kernel':<18}{'shape':<24}{'numpy ms':>10}"
    print(header)
    print("-" * len(header))
    for name, shape, fn, fn_args in cases:
        t = _time(fn, fn_args, args.repeats, args.min_time)
        print(f"{name:<18}{shape:<24}{t * 1e3:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
