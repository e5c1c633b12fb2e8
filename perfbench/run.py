#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload find_q1 --seed 1 --seconds 15 --trace 0

Run from the repository root. `--trace 0` runs the untraced end-to-end
binary and prints the end-to-end metrics; `--trace 1` runs the traced
binary, a separate package, and prints the per-layer metrics. The last
line of standard output is the result object. The exit code is non-zero
when the build fails or a check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["find_q1", "bank_64", "serve_paced", "serve_durable"]


def build(target_dir, manifest, args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Build output goes to stderr so the last stdout line stays the result.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--spans", help="span file of the traced run "
                   "(default: .bench_run/spans-<workload>.jsonl)")
    a = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    package = "perfbench-trace" if a.trace else "perfbench"
    build(target, os.path.join(ROOT, "Cargo.toml"), ["--bin", "ses-server"])
    build(target, os.path.join(HERE, "Cargo.toml"), ["-p", package])

    exe = os.path.join(target, "release", package)
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--root", ROOT,
           "--server-bin", os.path.join(target, "release", "ses-server")]
    if a.trace:
        spans = a.spans or os.path.join(ROOT, ".bench_run", f"spans-{a.workload}.jsonl")
        cmd += ["--spans", spans]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
