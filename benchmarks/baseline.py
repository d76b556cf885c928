"""Measure a baseline: every workload on several seeds, untraced, plus one
traced run per workload, summarised into one JSON file.

    python3 benchmarks/baseline.py [--seeds 0-9] [--out FILE]

Runs ``run.py`` one run at a time, for the run_seconds of BENCHMARK.json.
For each end-to-end metric the summary gives the median and quartiles over
the seeds and the spread (quartile distance over median) that
BENCHMARK.json bounds; the traced run gives the per-layer metrics.  Measure
the parent and a change with the same settings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from record_reference import parse_seeds
from run import HERE
from workloads import ROOT, WORKLOADS


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(workload, seed, "trace" if trace else "", result["correct"], flush=True)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = {"python": platform.python_version(), "machine": platform.machine(),
           "cpus": os.cpu_count(), "seconds": seconds, "seeds": seeds,
           "workloads": {}}
    for workload in WORKLOADS:
        runs = [run(workload, seed, seconds, 0) for seed in seeds]
        summary = {"correct": all(r["correct"] for r in runs), "end_to_end": {}}
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary["end_to_end"][name] = {
                "unit": m["unit"], "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(values), "values": values}
        traced = run(workload, seeds[0], seconds, 1)
        summary["correct"] = summary["correct"] and traced["correct"]
        summary["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        out["workloads"][workload] = summary
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0 if all(w["correct"] for w in out["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
