"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Repeats the workload's fixed job, each time in a fresh worker process, until
S seconds have passed (at least MIN_REPS times).  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced repetitions and reports the per-layer metrics of the traced ones
plus the tracing overhead.  Every repetition's outputs are checked against
the contract tolerances, against the other repetitions, and against the
reference recorded for the seed in ``reference.json`` when there is one.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER_METRICS
from workloads import ROOT, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SPANS_DIR = ROOT / ".bench_out"
MIN_REPS = 3
RUN_LIMIT_S = 170            # a run must end within 180 s
# Timings are reported at the machine speed where worker.calibrate() takes
# this long: each repetition's times are multiplied by CALIB_REF_S / calib_s.
# On a shared machine the speed drifts by up to half within seconds, and the
# calibration loop timed throughout each job follows it.
CALIB_REF_S = 0.01


def run_worker(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd += ["--trace", "--spans", str(SPANS_DIR / f"spans-{workload}-seed{seed}.bin")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); one value is its own percentile."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check_reps(reps: list[dict], expected: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes).  A repetition whose digest or metered
    counts differ from the reference (or, without one, from the first
    repetition) has every one of its operations counted as failed."""
    want = expected or reps[0]
    attempted = failed = 0
    notes = []
    for i, r in enumerate(reps):
        attempted += r["attempted"]
        failed += r["failed"]
        notes += r["errors"]
        same = all(r[k] == want[k] for k in ("digest", "metered_steps", "oracle_queries"))
        if not same:
            failed += r["attempted"] - r["failed"]
            notes.append(f"rep {i} ({'traced' if 'layers' in r else 'untraced'}): "
                         f"digest/metered counts differ from the "
                         f"{'reference' if expected else 'first repetition'}")
    return attempted, failed, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "metrent" / "__init__.py").is_file():
        print(f"error: metrent sources not found under {SRC}", file=sys.stderr)
        return 2
    refs = json.loads(REFERENCE.read_text())["workloads"] if REFERENCE.is_file() else {}
    expected = refs.get(args.workload, {}).get(str(args.seed))

    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    took = {False: [], True: []}        # seconds per repetition, by tracing
    while True:
        elapsed = time.monotonic() - start
        trace_next = bool(args.trace) and len(traced) < len(plain)
        enough = len(plain) >= MIN_REPS and (not args.trace or len(traced) >= 1)
        # start a repetition only if it is expected to end within the window
        expect = statistics.median(took[trace_next]) if took[trace_next] else 0.0
        if (enough and elapsed + expect > args.seconds) or elapsed >= RUN_LIMIT_S - 10:
            break
        try:
            rep = run_worker(args.workload, args.seed, trace_next, RUN_LIMIT_S - elapsed)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"error: {args.workload} seed {args.seed}: {e}", file=sys.stderr)
            return 1
        took[trace_next].append(time.monotonic() - start - elapsed)
        (traced if trace_next else plain).append(rep)
    if not plain or (args.trace and not traced):
        print("error: no complete repetition within the time limit", file=sys.stderr)
        return 1

    attempted, failed, notes = check_reps(plain + traced, expected)
    for r in plain + traced:
        r["speed"] = CALIB_REF_S / r["calib_s"]
    wall = statistics.median(r["wall_s"] * r["speed"] for r in plain)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"reps {len(plain)} untraced, {len(traced)} traced")
    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER_METRICS:
            # counts repeat exactly; median_low keeps them whole numbers
            mid = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = {"value": mid(r["layers"][name] for r in traced), "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["wall_s"] * r["speed"] for r in traced) - wall,
            "unit": "s"}
        print(f"  spans per traced job: {traced[-1]['spans']}")
    else:
        # latency percentiles per repetition, then the median over repetitions
        lat = [[x * r["speed"] * 1e3 for x in r["latencies"]] for r in plain]
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] * r["speed"] for r in plain),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
            "op_p50_ms": {"value": statistics.median(percentile(x, 50) for x in lat),
                          "unit": "ms"},
            "op_p99_ms": {"value": statistics.median(percentile(x, 99) for x in lat),
                          "unit": "ms"},
        }
        print(f"  op latency: {len(lat[0])} samples per job, {len(lat)} jobs")
        print(f"  unscaled wall_s {statistics.median(r['wall_s'] for r in plain):.6g} s, "
              f"machine speed factor {statistics.median(r['speed'] for r in plain):.4g}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    first = plain[0]
    print(f"  fail_frac {failed / max(attempted, 1):.6g} ({failed} of {attempted} operations)")
    print(f"  metered_steps {first['metered_steps']}  oracle_queries {first['oracle_queries']}"
          f"  (per job)")
    print(f"  reference: {'checked' if expected else 'none recorded for this seed'}")
    for note in notes[:10]:
        print(f"  FAIL {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
