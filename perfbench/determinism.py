#!/usr/bin/env python3
"""Checks that the benchmark's count metrics repeat exactly across runs of one seed and change
with the seed.

    python3 perfbench/determinism.py [--seed N] [--other-seed M] [--seconds S] [workload ...]

For each workload (default: all three) it makes two traced runs with `--seed N` and one with
`--other-seed M`, then compares every metric whose unit is `count` (beats, passes, rays, box,
triangle and node counts per op, bytes per message).  It exits 1 if a count differs between the
two runs of one seed, or if no count differs between the two seeds.  Run it from the repository
root; modeled lane figures and batching counts of `serve` depend on timing and are excluded.
"""

import argparse
import json
import subprocess
import sys

RUN = ["python3", "perfbench/run.py"]
# Counts that depend on how requests happened to share batches, not on the seed's inputs.
TIMING_DEPENDENT = {
    "server.requests_per_batch",
    "server.spawned_requests_per_batch",
    "modeled.lane_slots_per_op",
}


def counts(workload: str, seed: int, seconds: str) -> dict:
    command = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "1"]
    result = subprocess.run(command, capture_output=True, text=True, check=True)
    metrics = json.loads(result.stdout.strip().splitlines()[-1])["metrics"]
    return {
        name: metric["value"]
        for name, metric in metrics.items()
        if metric["unit"] in ("count", "bytes") and name not in TIMING_DEPENDENT
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--other-seed", type=int, default=2)
    parser.add_argument("--seconds", default="2")
    parser.add_argument("workloads", nargs="*", default=["frame", "vector_search", "serve"])
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        first = counts(workload, args.seed, args.seconds)
        second = counts(workload, args.seed, args.seconds)
        other = counts(workload, args.other_seed, args.seconds)
        unstable = sorted(name for name in first if first[name] != second[name])
        moved = sorted(name for name in first if first[name] != other[name])
        print(f"{workload}: {len(first)} counts; {len(unstable)} differ between two runs of "
              f"seed {args.seed}; {len(moved)} change with seed {args.other_seed}")
        for name in unstable:
            print(f"  not repeatable: {name} {first[name]} vs {second[name]}")
        ok = ok and not unstable and bool(moved)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
