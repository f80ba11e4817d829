"""Run one workload in this process and report its measurements.

Usage: python3 worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Builds the workload's inputs, prints READY, then runs whole rounds of its
operations until the next round would end after S seconds (at least one).
Each operation is timed alone; its output is checked right after, outside
the timed region.  The last line on stdout is one JSON object.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench-tmp")


def run_rounds(workload, seconds, tracer):
    """Returns (per-round operation times, {(round, name): errors})."""
    rounds = []
    failures = {}
    start = time.perf_counter()
    while True:
        r = len(rounds)
        times = []
        for name, op in workload.ops:
            t0 = time.perf_counter()
            try:
                output, errors = op(), None
            except Exception as exc:  # an operation that raises has failed
                output, errors = None, [f"{name}: raised {type(exc).__name__}: {exc}"]
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.paused = True
            try:
                errors = errors or workload.check(r, name, output)
            except Exception as exc:
                errors = [f"{name}: output check raised {type(exc).__name__}: {exc}"]
            if tracer is not None:
                tracer.paused = False
            if errors:
                failures[(r, name)] = errors
            # free this operation's garbage now, so that peak memory does not
            # depend on when the cyclic collector happens to run
            output = None
            gc.collect()
        rounds.append(times)
        if time.perf_counter() - start + sum(times) > seconds:
            break
    for r, name, errors in workload.finish():
        failures.setdefault((r, name), []).extend(errors)
    return rounds, failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import selftest
    import workloads
    from tracer import Tracer

    tracer = None
    trace_dir = None
    if args.workload == "cli":
        if args.trace:
            os.makedirs(SCRATCH, exist_ok=True)
            trace_dir = tempfile.mkdtemp(dir=SCRATCH)
        workload = workloads.Cli(args.seed, ROOT, trace_dir)
    else:
        if args.trace:
            import areafun  # noqa: F401  (loads every module the tracer wraps)

            tracer = Tracer()
            tracer.install()
        workload = workloads.WORKLOADS[args.workload](args.seed)
        if tracer is not None:
            tracer.reset()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    try:
        rounds, failures = run_rounds(workload, args.seconds, tracer)
    finally:
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
            try:
                os.rmdir(SCRATCH)
            except OSError:
                pass
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    problems = selftest.run(args.workload)
    for problem in problems:
        print(f"check self-test: {problem}", file=sys.stderr)
    for (r, name), errors in sorted(failures.items()):
        known = " (known fault)" if name in workload.known_faults else ""
        for e in errors:
            print(f"round {r}: FAILED{known}: {e}", file=sys.stderr)
    correct = not problems and all(name in workload.known_faults for _, name in failures)

    times = [t for round_times in rounds for t in round_times]
    if args.trace:
        if args.workload == "cli":
            tracer = Tracer()
            for snap in workload.traces:
                tracer.merge(snap)
        metrics = tracer.metrics(len(rounds))
    else:
        metrics = {
            "wall_s": statistics.median(sum(r) for r in rounds),
            "op_p50_s": statistics.median(times),
            "peak_rss_mb": peak_rss_mb,
        }
    print(
        f"{args.workload}: {len(rounds)} round(s) of {len(workload.ops)} operations, "
        f"median round {statistics.median(sum(r) for r in rounds):.3f} s; "
        f"op_p50_s over {len(times)} samples"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(times),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
