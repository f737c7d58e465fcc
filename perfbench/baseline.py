#!/usr/bin/env python3
"""Measure the benchmark's baseline: run every workload once per seed,
untraced, then once traced, and write medians, quartiles and spreads.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

A spread is the interquartile distance as a share of the median. It must
stay within each metric's bound in BENCHMARK.json, except for setup_s.
Runs are sequential: two benchmark processes at once would disturb each
other's timings and share one work directory.
"""

import argparse
import json
import os
import subprocess
import sys

import analysis

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workload", action="append",
                    help="default: every workload in BENCHMARK.json")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--traced-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"seconds": args.seconds, "seeds": args.seeds,
              "traced_seed": args.traced_seed, "workloads": {}}
    steady = True
    for workload in workloads:
        results = [run(workload, s, args.seconds, 0) for s in args.seeds]
        entry = {"correct": all(r["correct"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = analysis.quartiles(values)
            spread = analysis.spread(values)
            entry["end_to_end"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "values": values}
            ok = name == "setup_s" or spread <= bound
            steady &= ok
            print(f"{workload:12s} {name:12s} median {med:12.4f} "
                  f"spread {spread:6.3f} bound {bound:5.2f}"
                  f"{'' if ok else '  OVER BOUND'}", flush=True)
        traced = run(workload, args.traced_seed, args.seconds, 1)
        entry["per_layer"] = {n: m["value"]
                              for n, m in traced["metrics"].items()}
        entry["correct"] &= traced["correct"]
        steady &= entry["correct"]
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
