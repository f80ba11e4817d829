"""areafun benchmark: one workload per run, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload roundtrip|hunt|mollify|cli \
        --seed N --seconds S --trace 0|1

The workload runs in its own process (worker.py).  With --trace 0 the last
stdout line holds the end-to-end metrics: setup_s, wall_s, op_p50_s and
peak_rss_mb; with --trace 1 it holds the per-layer metrics of tracer.py.
This file uses the standard library only, so that it can time interpreter
start and imports in the processes it starts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("roundtrip", "hunt", "mollify", "cli")
SETUPS = 3  # set-up is measured this many times per run; the median is reported
LIMIT_S = 170.0  # a run must end within 180 s
UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # one BLAS thread: the per-node kernels are batched LAPACK calls on tiny
    # matrices, and a second thread only adds contention on a 2-core machine
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker_cmd(args, setup_only=False):
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    return cmd + ["--setup-only"] if setup_only else cmd


def start_worker(cmd, env):
    """Start a worker; returns (process, seconds from start to READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not finish set-up (exit code {proc.returncode})")
    return proc, ready_s


def setup_probe(args, env):
    """One cold set-up in a fresh interpreter, in seconds.  On cli every call
    pays the cold import of areafun.cli; elsewhere the worker's own set-up."""
    if args.workload == "cli":
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import areafun.cli"], env=env, cwd=ROOT, check=True)
        return time.perf_counter() - t0
    proc, ready_s = start_worker(worker_cmd(args, setup_only=True), env)
    proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return ready_s


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "areafun", "__init__.py")):
        print(f"perfbench: no areafun source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    env = child_env()
    setups = []
    if not args.trace:
        # the worker's own set-up is one sample, except on cli
        probes = SETUPS if args.workload == "cli" else SETUPS - 1
        setups = [setup_probe(args, env) for _ in range(probes)]
    proc, ready_s = start_worker(worker_cmd(args), env)
    if not args.trace and args.workload != "cli":
        setups.append(ready_s)
    try:
        out, _ = proc.communicate(timeout=max(1.0, LIMIT_S - (time.perf_counter() - t_start)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: worker ran out of time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    if args.trace:
        sys.path.insert(0, HERE)
        from tracer import metric_units

        units = metric_units()
    else:
        result["metrics"]["setup_s"] = statistics.median(setups)
        units = UNITS
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
