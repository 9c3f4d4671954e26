#!/usr/bin/env python3
"""Self-tests of the layered benchmark.

Usage, from the repository root:

    python3 layerbench/selftest.py [--workload W] [--seed N] [--other-seed M]

For each workload, runs the traced benchmark (a one-second window, so
exactly two passes) twice at one seed and once at another, and checks:

- every run is correct (all output checks pass);
- every count and ratio metric repeats exactly across the same-seed runs;
- the same seed generates the same inputs (input digest), another seed
  different ones.

Exits non-zero on the first workload that fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("synth_corpus", "migrate_bulk", "live_sync")
# Units of metrics that count work: they must not depend on timing.
EXACT_UNITS = ("count", "ratio")


def run(workload, seed):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if p.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: benchmark exited with {p.returncode}")
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--other-seed", type=int, default=12)
    args = ap.parse_args()
    failures = []
    for w in args.workload or WORKLOADS:
        (d1, r1), (d2, r2), (d3, r3) = (run(w, args.seed), run(w, args.seed),
                                        run(w, args.other_seed))
        for seed, r in ((args.seed, r1), (args.seed, r2), (args.other_seed, r3)):
            if not r["correct"]:
                failures.append(f"{w} seed {seed}: output checks failed")
        exact = sorted(k for k, v in r1["metrics"].items() if v["unit"] in EXACT_UNITS)
        moved = [(k, r1["metrics"][k]["value"], r2["metrics"][k]["value"])
                 for k in exact if r1["metrics"][k]["value"] != r2["metrics"][k]["value"]]
        for k, a, b in moved:
            failures.append(f"{w}: {k} differs across same-seed runs: {a} vs {b}")
        dig = [d["detail"]["input_digest"] for d in (d1, d2, d3)]
        if dig[0] != dig[1]:
            failures.append(f"{w}: same seed generated different inputs")
        if dig[0] == dig[2]:
            failures.append(f"{w}: another seed generated the same inputs")
        print(f"{w}: {len(exact)} exact metrics compared, {len(moved)} differ; "
              f"digests {dig[0]} {dig[1]} {dig[2]}", flush=True)
    for f in failures:
        print("FAIL:", f)
    if failures:
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
