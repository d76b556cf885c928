"""Record the reference outputs that run.py checks every repetition against.

    python3 benchmarks/record_reference.py [--seeds 0-63,1000]

For each workload and seed, runs one untraced job in a fresh worker process
and stores the digest of its outputs (CLI CSV bytes, metered outputs,
translated answers, norm outputs) with its metered step and query totals.
A job with any failed operation is not recorded.  Existing entries for other
seeds are kept.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import REFERENCE, run_worker
from workloads import WORKLOADS

HELD_OUT_SEED = 1000


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default=f"0-63,{HELD_OUT_SEED}")
    args = ap.parse_args()
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data["held_out_seed"] = HELD_OUT_SEED
    refs = data.setdefault("workloads", {})
    for workload in WORKLOADS:
        for seed in parse_seeds(args.seeds):
            rep = run_worker(workload, seed, traced=False, timeout=170)
            if rep["failed"]:
                print(f"{workload} seed {seed}: {rep['failed']} failed: {rep['errors']}",
                      file=sys.stderr)
                return 1
            refs.setdefault(workload, {})[str(seed)] = {
                k: rep[k] for k in ("digest", "metered_steps", "oracle_queries")}
            print(workload, seed, rep["digest"][:12], flush=True)
        refs[workload] = dict(sorted(refs[workload].items(), key=lambda kv: int(kv[0])))
        REFERENCE.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
