"""Benchmark of ounls: time to a verdict on four acceptance workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn, each in a fresh process.

One workload runs in this fresh process, single-threaded, with BLAS pinned
to one thread, for about S seconds, in rounds of a few set-ups of what the
first step needs and one runner call to its ``Report``, while the next round
still fits. ``wall_s`` is the mean time to a verdict (call time over
calls, the inverse of verdicts per second), ``setup_s`` the median set-up,
and ``peak_rss_mb`` the peak resident memory of this process. The median
call, its tail percentile and the count are printed too. The speed of a
shared machine drifts in steps over seconds to minutes; the mean follows
those steps smoothly where the median jumps between them, so the mean
spreads less from run to run, and set-ups are spread over the run rather
than timed in one burst. The package is imported from ``src`` beside this
directory.

Every ``Report`` check is a correctness check; ``checks_failed`` is the share
of them that failed, and a runner exception fails all checks of its call.
With ``--trace 1`` untraced and traced calls alternate and the metrics are
the per-layer ones of the traced calls plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (checks) and ``metrics``. A failed
check makes the run incorrect: it reports no metric values and exits with 1.
"""

import os

# must be set before numpy loads OpenBLAS
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "ounls")):
    sys.exit(f"no ounls package under {SRC}")
sys.path.insert(0, SRC)

import numpy as np
import scipy

from spans import LAYER_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS

SETUPS_PER_ROUND = 3


def environment(seed: int, seeded: bool) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "seed": seed,
        "seed_used": seeded,
    }


class Calls:
    """Runner calls of one run with their verdict tally."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.setups = []  # seconds per set-up
        self.walls = {False: [], True: []}  # traced? -> wall seconds
        self.layers = []  # per traced call: layer metrics
        self.attempted = 0
        self.failed = 0
        self.checks_per_call = 0

    def one(self, traced: bool) -> bool:
        """Time one call; False once a check failed or the runner raised."""
        tracer = Tracer() if traced else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with tracer:
                verdicts = self.workload.call(self.seed)
        except Exception:
            traceback.print_exc()
            lost = max(1, self.checks_per_call)
            self.attempted += lost
            self.failed += lost
            return False
        wall = time.perf_counter() - t0
        self.checks_per_call = len(verdicts)
        self.attempted += len(verdicts)
        failed = [name for name, passed in verdicts if not passed]
        self.failed += len(failed)
        for name in failed:
            print(f"FAILED check {name}", file=sys.stderr)
        self.walls[traced].append(wall)
        if traced:
            self.layers.append(layer_metrics(tracer))
            self.layers[-1]["spans"] = len(tracer.spans)
        return not failed

    def run(self, seconds: float, trace: bool):
        """Rounds of set-ups and a call (untraced then traced with --trace 1)
        while the next round fits into ``seconds``."""
        deadline = time.perf_counter() + seconds
        rounds = []
        while True:
            t0 = time.perf_counter()
            for _ in range(0 if trace else SETUPS_PER_ROUND):
                start = time.perf_counter()
                self.workload.setup(self.seed)
                self.setups.append(time.perf_counter() - start)
            for traced in (False, True) if trace else (False,):
                if not self.one(traced):
                    return
            rounds.append(time.perf_counter() - t0)
            if time.perf_counter() + statistics.median(rounds) > deadline:
                return


def tail_percentile(values):
    """(p, value) of the highest percentile with ten samples beyond it."""
    if len(values) < 11:
        return None
    ranked = sorted(values)
    k = len(ranked) - 11
    return 100.0 * (k + 1) / len(ranked), ranked[k]


def describe(name, values, unit, what):
    line = (f"{name:<12} mean {statistics.fmean(values):.6g} {unit}, "
            f"median {statistics.median(values):.6g} {unit} over {len(values)} {what}")
    tail = tail_percentile(values)
    if tail is None:
        line += "; no percentile has 10 samples beyond it"
    else:
        line += f"; p{tail[0]:.0f} {tail[1]:.6g} {unit} (10 samples beyond)"
    print(line)
    print(f"{'':<12} each: " + " ".join(f"{v:.6g}" for v in values))


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    codes = []
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        codes.append(subprocess.run([
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]).returncode)
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(args.seed, workload.seeded), sort_keys=True))

    calls = Calls(workload, args.seed)
    calls.run(args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    share = calls.failed / calls.attempted
    print(f"checks_failed {share:.6g} ({calls.failed} of {calls.attempted} checks)")
    correct = calls.failed == 0
    metrics = {}
    if correct and not args.trace:
        describe("wall_s", calls.walls[False], "s", "calls")
        describe("setup_s", calls.setups, "s", "set-ups")
        print(f"{'peak_rss_mb':<12} {peak_rss_mb:.6g} MB")
        metrics = {
            "wall_s": metric(statistics.fmean(calls.walls[False]), "s"),
            "setup_s": metric(statistics.median(calls.setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    elif correct:
        untraced = statistics.fmean(calls.walls[False])
        traced = statistics.fmean(calls.walls[True])
        values = {
            name: statistics.fmean(row[name] for row in calls.layers)
            for name in calls.layers[0]
        }
        values["tracing.wall_s"] = traced
        values["tracing.overhead_s"] = traced - untraced
        print(f"traced calls {len(calls.layers)}, spans per call {values.pop('spans'):.0f}, "
              f"untraced wall_s {untraced:.6g} s")
        print(f"{'per-layer metric':<38} {'value':>12} {'unit':<6} {'of wall':>8}  should move")
        for name, (unit, _, moves) in LAYER_METRICS.items():
            share_txt = f"{values[name] / traced:8.1%}" if unit == "s" else " " * 8
            print(f"{name:<38} {values[name]:>12.6g} {unit:<6} {share_txt}  {moves}")
            metrics[name] = metric(values[name], unit)
    print(json.dumps({
        "correct": correct,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
