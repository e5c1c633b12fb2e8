#!/usr/bin/env python3
"""Steadiness check: runs every workload as two separate sets of runs.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b]

Each run uses its own seed (set s, run i gets seed 1000*s + i). For each
workload and end-to-end metric it prints, per set, the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, then the shift of the second set's median against the
first in the metric's worse direction. A spread or shift beyond the
metric's bound in BENCHMARK.json is flagged; so is a failed-operation
share that differs between the sets. The exit code is non-zero when
anything is flagged. Raw results go to .bench_run/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"steady.py: {workload} seed {seed} failed ({done.returncode})")
    result = json.loads(lines[-1])
    # Figures printed but not reported, e.g. the p99 latency.
    result["extra"] = {l.split()[1]: float(l.split()[2])
                       for l in lines if l.startswith("extra ")}
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    a = p.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    results = {}
    flagged = []
    for workload in a.workloads.split(","):
        sets = []
        for s in range(1, a.sets + 1):
            runs = []
            for i in range(1, a.runs + 1):
                r = run_once(workload, 1000 * s + i, a.seconds)
                runs.append(r)
                print(f"{workload} set {s} run {i}: failed {r['failed']}/{r['attempted']}",
                      file=sys.stderr)
            sets.append(runs)
        results[workload] = sets
        print(f"\n== {workload} ({a.runs} runs per set)")
        shares = {f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
                  for runs in sets}
        fail_share = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                      for runs in sets]
        if len(set(fail_share)) > 1:
            flagged.append(f"{workload}: failed share differs between sets: {shares}")
        for name, spec in metrics.items():
            meds = []
            row = f"{name:>22}"
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
                if not values:
                    flagged.append(f"{workload}: {name} missing")
                    break
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                meds.append(med)
                row += f" | med {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:6.3f}"
                if name != "setup_s" and spread > spec["bound"]:
                    flagged.append(f"{workload}: {name} spread {spread:.3f} > bound {spec['bound']}")
            if len(meds) >= 2:
                worse = (meds[1] - meds[0]) / meds[0]
                if spec["better"] == "higher":
                    worse = -worse
                row += f" | shift {worse:+.3f} (bound {spec['bound']})"
                if worse > spec["bound"]:
                    flagged.append(f"{workload}: {name} second median worse by {worse:.3f}")
            print(row)
        for name in sorted({k for runs in sets for r in runs for k in r["extra"]}):
            row = f"{name:>22}"
            for runs in sets:
                values = [r["extra"][name] for r in runs if name in r["extra"]]
                q1, med, q3 = quartiles(values)
                row += f" | med {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} spread {(q3 - q1) / med:6.3f}"
            print(row + " | not reported")
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_run", "steady.json"), "w") as f:
        json.dump(results, f, indent=1)
    if flagged:
        print("\nFLAGGED:\n  " + "\n  ".join(flagged))
        sys.exit(1)
    print("\nall spreads and shifts within bounds")


if __name__ == "__main__":
    main()
