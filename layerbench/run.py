#!/usr/bin/env python3
"""Builds and runs the layered benchmark of the dynamite workspace.

Usage, from the repository root:

    python3 layerbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of synth_corpus, migrate_bulk, live_sync. The benchmark package
in this directory is built in release mode (into $CARGO_TARGET_DIR, or
.bench_build at the repository root) and run once. The last line of
standard output is the result object; the line before it holds the
stamps (hardware threads, pool size, rustc, git revision or source
digest, durability options, workload sizes) and per-scenario detail.
The same detail, and the spans of a traced run, are written under
layerbench/results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("synth_corpus", "migrate_bulk", "live_sync")


def source_digest():
    """SHA-256 over the sources the benchmark builds, so runs of one tree
    compare even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for base in ("crates", "vendor", os.path.join("layerbench", "src")):
        for d, dirs, names in os.walk(os.path.join(ROOT, base)):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "results"))
            files += [os.path.join(d, n) for n in sorted(names)]
    files.append(os.path.join(HERE, "Cargo.toml"))
    files.append(os.path.join(HERE, "Cargo.lock"))
    for f in files:
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def command_output(cmd):
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "crates", "migrate", "Cargo.toml")):
        print("error: the dynamite workspace sources are not next to the benchmark",
              file=sys.stderr)
        return 2

    # The program runs with its defaults: no DYNAMITE_* knob reaches it.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DYNAMITE_")}
    target_dir = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target_dir
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env, stdout=sys.stderr, timeout=840)
    if build.returncode != 0:
        print("error: benchmark build failed", file=sys.stderr)
        return build.returncode

    out_dir = os.path.join(HERE, "results")
    exe = os.path.join(target_dir, "release", "dynamite-layerbench")
    run = subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir],
        env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2:
        sys.stderr.write(run.stdout)
        print(f"error: benchmark exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    detail = json.loads(lines[-2])
    result = json.loads(lines[-1])

    stamp = detail["stamp"]
    stamp["rustc"] = command_output(["rustc", "--version"])
    stamp["git_rev"] = (command_output(["git", "-C", ROOT, "rev-parse", "HEAD"])
                        if os.path.isdir(os.path.join(ROOT, ".git")) else None)
    stamp["source_digest"] = source_digest()
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
        fh.write("\n")

    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
