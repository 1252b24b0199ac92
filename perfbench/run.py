"""Launcher of the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

It starts the workload process (bench.py) with BLAS and OpenMP pinned to one
thread, importing hyperadapt from ./src, and waits for it. The workload's last
stdout line is the JSON result. `--workload all` runs every workload in turn.
Exit status: 0 when every check passed, 1 when a check failed or the workload
did not finish in time, 2 when ./src holds no hyperadapt package or an
argument is bad.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("pretrain", "pretrain-mixed", "adapt", "infer")
TIMEOUT_S = 170
# numpy's BLAS would otherwise start a thread per core; on a small machine
# those threads contend with the single Python thread and slow every step
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_workload(name, args, env):
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench.py"),
           "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    child = subprocess.Popen(cmd, env=env)
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:  # also on SIGTERM or Ctrl-C: never leave the workload running
        if child.poll() is None:
            child.kill()
            child.wait()


def main():
    parser = argparse.ArgumentParser(description="Run the hyperadapt benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "hyperadapt", "__init__.py")):
        print(f"no hyperadapt package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src, **{var: "1" for var in THREAD_VARS})
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(name, args, env) for name in names)


if __name__ == "__main__":
    sys.exit(main())
