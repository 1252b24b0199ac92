"""Times the jitted kernels against their pure-numpy twins.

Both implementations live in hyperadapt.kernels, so with numba available they
are benchmarked side by side in one process (the first jitted call is a
warmup so compilation never lands in a timing). The script also verifies the
two backends agree numerically, and spawns one subprocess with
HYPERADAPT_NO_NUMBA=1 to confirm the env flag really flips the dispatch.
Without numba it times the numpy kernels alone, so a change to them can be
checked on its own.

Usage: python3 benchmarks/bench_kernels.py [--repeats N] [--min-time SECONDS]
"""

import argparse
import os
import subprocess
import sys
import time

import numpy as np

from hyperadapt import kernels


def _time(fn, args, repeats, min_time):
    """Median seconds per call; loops until min_time so fast kernels are
    measured over many calls."""
    fn(*args)  # warmup (JIT compile on the numba side)
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


def _agreement(name, a, b, tol=1e-10):
    flat_a = np.concatenate([np.asarray(x, dtype=np.float64).ravel()
                             for x in (a if isinstance(a, tuple) else (a,))])
    flat_b = np.concatenate([np.asarray(x, dtype=np.float64).ravel()
                             for x in (b if isinstance(b, tuple) else (b,))])
    if flat_a.shape != flat_b.shape:
        raise AssertionError(f"{name}: backend outputs differ in shape")
    diff = float(np.max(np.abs(flat_a - flat_b))) if flat_a.size else 0.0
    if diff > tol:
        raise AssertionError(f"{name}: backends disagree by {diff:.3e}")
    return diff


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

    # float32 conv kernels accumulate in different orders, so their tolerance
    # is f32-scale; the alignment DPs run in float64 and agree far tighter
    return [
        ("conv1d_forward", f"T={t} K={k} C={cin}",
         kernels.conv1d_forward_np, (xp, w), 1e-4),
        ("conv1d_backward", f"T={t} K={k} C={cin}",
         kernels.conv1d_backward_np, (xp, w, gout), 1e-4),
        ("forward_sum", f"n={n} m={m}",
         kernels.forward_sum_np, (logp,), 1e-10),
        ("viterbi", f"n={n} m={m}",
         kernels.viterbi_np, (logp,), 0.0),
        ("dtw_path", f"{cost.shape[0]}x{cost.shape[1]}",
         kernels.dtw_path_np, (cost,), 0.0),
    ]


def check_env_flag():
    """Child process with the flag set must report the numpy backend."""
    env = dict(os.environ, HYPERADAPT_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c",
         "from hyperadapt import kernels;"
         "print(kernels.ACTIVE_BACKEND);"
         "print(kernels.forward_sum is kernels.forward_sum_np)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out == ["numpy", "True"], f"env flag did not flip dispatch: {out}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing samples per kernel (median is reported)")
    parser.add_argument("--min-time", type=float, default=0.05,
                        help="seconds of calls per sample")
    args = parser.parse_args()

    print(f"active backend: {kernels.ACTIVE_BACKEND}")
    rng = np.random.default_rng(0)
    cases = build_cases(rng)
    if kernels.ACTIVE_BACKEND != "numba":
        print("numba unavailable or disabled; timing the numpy kernels only")
        header = f"{'kernel':<18}{'shape':<18}{'numpy ms':>10}"
        print(header)
        print("-" * len(header))
        for name, shape, np_fn, fn_args, _ in cases:
            t_np = _time(np_fn, fn_args, args.repeats, args.min_time)
            print(f"{name:<18}{shape:<18}{t_np * 1e3:>10.3f}")
        return 0

    header = f"{'kernel':<18}{'shape':<18}{'numpy ms':>10}{'numba ms':>10}{'speedup':>9}{'max|diff|':>11}"
    print(header)
    print("-" * len(header))
    for name, shape, np_fn, fn_args, tol in cases:
        nb_fn = getattr(kernels, f"{name}_nb")
        diff = _agreement(name, np_fn(*fn_args), nb_fn(*fn_args), tol=tol)
        t_np = _time(np_fn, fn_args, args.repeats, args.min_time)
        t_nb = _time(nb_fn, fn_args, args.repeats, args.min_time)
        print(f"{name:<18}{shape:<18}{t_np * 1e3:>10.3f}{t_nb * 1e3:>10.3f}"
              f"{t_np / t_nb:>8.1f}x{diff:>11.1e}")

    check_env_flag()
    print("env flag check: HYPERADAPT_NO_NUMBA=1 selects the numpy backend")
    return 0


if __name__ == "__main__":
    sys.exit(main())
