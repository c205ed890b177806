#!/usr/bin/env python3
"""Checks that the benchmark's inputs come from its seed.

    python3 perfbench/check_seeds.py [WORKLOAD ...]

For each workload (all by default) it runs the benchmark JVM twice with one
seed and once with another. The two runs with the same seed must report the
same input checksum, the same cold-pass results (final loss of every
algorithm) and the same compiler counters; the run with the other seed must
report a different input checksum and different results. Exits non-zero
on the first mismatch.
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED_A, SEED_B = 101, 202


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        workloads = sys.argv[1:] or [w["name"] for w in json.load(f)["workloads"]]
    classpath = run.build()
    failures = []
    for wl in workloads:
        a1, a2, b = (run.run_jvm(classpath, wl, s, 0, 0) for s in (SEED_A, SEED_A, SEED_B))
        for key in ("input_checksum", "cold_losses", "cold_counters"):
            if a1[key] != a2[key]:
                failures.append(f"{wl}: seed {SEED_A} gave different {key}: {a1[key]} vs {a2[key]}")
        for key in ("input_checksum", "cold_losses"):
            if a1[key] == b[key]:
                failures.append(f"{wl}: seeds {SEED_A} and {SEED_B} gave the same {key}: {a1[key]}")
        for r in (a1, a2, b):
            if r["failed"]:
                failures.append(f"{wl}: seed {r['seed']}: {r['failed']} failed: {r['errors']}")
        print(f"{wl}: checksum {a1['input_checksum']} / {b['input_checksum']}, "
              f"counters {a1['cold_counters']}", flush=True)
    for f in failures:
        print("FAIL " + f)
    if failures:
        sys.exit(1)
    print("OK: same seed, same inputs, results and counters; other seed, other inputs")


if __name__ == "__main__":
    main()
