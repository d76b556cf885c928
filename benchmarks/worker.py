"""One repetition of one workload, in a fresh process.

    python3 benchmarks/worker.py --workload NAME --seed N [--trace --spans PATH]

Runs in its own process so that peak memory and process-wide memos (such as
``metrent.compact._SIZE_MEMO``) start cold on every repetition.  Prints one
JSON object on stdout; ``run.py`` aggregates the repetitions.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads


def calibrate() -> float:
    """Seconds taken by a fixed loop of Fraction and string work that does
    not touch the library.  Timed before, during and after every job, it
    measures how fast the machine runs; run.py scales timings by it."""
    t = time.perf_counter()
    x, s = Fraction(0), ""
    for i in range(1, 4000):
        x += Fraction(i % 7, 1 << (i % 13))
        s = (s + format(i, "b"))[-64:]
    return time.perf_counter() - t


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default="", help="file the traced run's spans go to")
    args = ap.parse_args()

    t = time.perf_counter()
    workloads.load_library()
    inputs = workloads.make_inputs(args.workload, args.seed)
    setup_s = time.perf_counter() - t

    tracer = tracing.Tracer() if args.trace else None
    log = workloads.OpLog(tracer, calibrate)
    calib_before = calibrate()
    if tracer is not None:
        tracer.install()
    t = time.perf_counter()
    try:
        workloads.JOBS[args.workload](inputs, log)
    finally:
        wall_s = time.perf_counter() - t - log.calib_spent
        if tracer is not None:
            tracer.uninstall()
    calib_s = statistics.mean([calib_before, *log.calib, calibrate()])

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calib_s": calib_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": log.attempted,
        "failed": log.failed,
        "errors": log.errors,
        "digest": log.digest(),
        "metered_steps": log.metered_steps,
        "oracle_queries": log.oracle_queries,
        "latencies": log.latencies,
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        out["spans"] = len(tracer.sid)
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
