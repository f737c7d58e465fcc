#!/usr/bin/env python3
"""Benchmark of the ifprob reproduction: one command that builds the
driver, runs a workload, checks every output and prints the metrics.

    python3 perfbench/run.py --workload matrix-cold --seed 1 --seconds 30 --trace 0

Run it from the repository root. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones (median over the run's iterations);
with --trace 1 they are the per-layer ones, from the driver's spans.

Each iteration is a fresh driver process, so peak RSS and the
process-static workload registry are counted per iteration. Iterations
repeat until --seconds have passed (at least one). Set-up is also probed
on its own a few times, and setup_s is the median over every set-up.

    python3 perfbench/run.py --workload W --write-expected

regenerates perfbench/expected/W.tsv from one iteration (only when the
program's outputs are meant to change).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import analysis

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
DRIVER = os.path.join(BUILD, "perfbench_driver")
EXPECTED = os.path.join(HERE, "expected")

WORKLOADS = ("matrix-cold", "traces-cold", "zoo-warm")
COLD = ("matrix-cold", "traces-cold")
SETUP_PROBES = 5
# Every driver process must end within this many seconds of the first
# one starting, so a hung iteration cannot hold the run past 180 s.
DEADLINE_S = 170
# The driver's pool never uses more than this many workers.
MAX_JOBS = 4

END_TO_END = {"wall_s": "s", "cpu_s": "s", "retained_mb": "MB",
              "cache_mb": "MB", "setup_s": "s"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def jobs():
    return max(1, min(MAX_JOBS, len(os.sched_getaffinity(0))))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to "
                           "perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(jobs())],
                   check=True, stdout=sys.stderr, cwd=ROOT)


def clean_env():
    """The driver's environment, without any of the library's switches
    (engine, analysis path, trace plane, report sink, ...)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("IFPROB_")}
    env["IFPROB_REPORT_DIR"] = "off"
    return env


def run_driver(workload, seed, deadline, spans=None, setup_only=False):
    """One driver process, killed at @p deadline (time.monotonic());
    returns its parsed output."""
    cache = os.path.join(WORK, workload, "cache")
    cmd = [DRIVER, "--workload", workload, "--cache", cache,
           "--seed", str(seed), "--jobs", str(jobs())]
    if spans:
        cmd += ["--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if workload in COLD and not setup_only:
        # The cache was measured by the driver; keep the disk bounded.
        shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    out = {"results": {}, "errors": [], "phases": {}, "counts": {},
           "spans": []}
    for line in proc.stdout.splitlines():
        rec = json.loads(line)
        kind = rec["kind"]
        if kind == "result":
            out["results"].setdefault(rec["group"], {})[rec["key"]] = \
                rec["value"]
        elif kind == "error":
            out["errors"].append((rec["group"], rec["op"], rec["what"]))
        elif kind == "phase":
            out["phases"][rec["name"]] = rec
        elif kind == "count":
            out["counts"][rec["name"]] = rec["value"]
        elif kind == "summary":
            out["summary"] = rec
            out["jobs"] = rec["jobs"]
    if "summary" not in out:
        raise RuntimeError("driver printed no summary")
    if spans:
        with open(spans) as f:
            out["spans"] = [json.loads(line) for line in f]
    return out


def expected_for(workload):
    return analysis.read_expected(os.path.join(EXPECTED, workload + ".tsv"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args()

    try:
        build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    os.makedirs(os.path.join(WORK, args.workload), exist_ok=True)

    deadline = time.monotonic() + DEADLINE_S
    if args.write_expected:
        run = run_driver(args.workload, args.seed, deadline)
        if run["errors"]:
            log(f"not writing expected values: {run['errors'][:3]}")
            return 1
        os.makedirs(EXPECTED, exist_ok=True)
        analysis.write_expected(
            os.path.join(EXPECTED, args.workload + ".tsv"), run["results"])
        return 0

    expected = expected_for(args.workload)
    stats_reference = expected_for("matrix-cold")

    setups = []
    try:
        for _ in range(0 if args.trace else SETUP_PROBES):
            probe = run_driver(args.workload, args.seed, deadline,
                               setup_only=True)
            setups.append(probe["summary"]["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        log(f"set-up failed: {e}")
        return 1

    # Iteration i uses seed*1000+i, so a run's cell orders are fixed by
    # --seed. A traced run alternates untraced and traced iterations.
    untraced, traced = [], []
    attempted = failed = 0
    start = time.monotonic()
    last = 0.0  # duration of the latest iteration

    def another():
        if not untraced or (args.trace and not traced):
            return True
        now = time.monotonic()
        return now - start < args.seconds and now + 2 * last < deadline

    i = 0
    while another():
        began = time.monotonic()
        trace_this = bool(args.trace) and i % 2 == 1
        spans = (os.path.join(WORK, args.workload, "spans.jsonl")
                 if trace_this else None)
        try:
            run = run_driver(args.workload, args.seed * 1000 + i, deadline,
                             spans)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            log(f"iteration {i} failed: {e}")
            return 1
        n, bad = analysis.check(run["results"], run["errors"], expected,
                                stats_reference)
        attempted += n
        failed += len(bad)
        for group, reasons in sorted(bad.items())[:10]:
            log(f"FAILED {group}: {'; '.join(reasons[:3])}")
        (traced if trace_this else untraced).append(run)
        setups.append(run["summary"]["setup_s"])
        last = time.monotonic() - began
        i += 1

    metrics = {}
    if args.trace:
        layers = [analysis.layer_metrics(r) for r in traced]
        for name in layers[0]:
            metrics[name] = analysis.median([m[name] for m in layers])
        metrics["bench.tracing_overhead_s"] = (
            analysis.median([r["summary"]["wall_s"] for r in traced]) -
            analysis.median([r["summary"]["wall_s"] for r in untraced]))
        metrics["bench.fail_ratio"] = analysis.fail_ratio(failed, attempted)
        # Peak RSS is which big cells happened to overlap (each li run
        # holds 384 MB), so it is reported here, without a bound.
        metrics["mem.peak_rss_mb"] = max(
            r["summary"]["peak_rss_mb"] for r in traced + untraced)
        metric_json = {n: {"value": v, "unit": unit_of(n)}
                       for n, v in metrics.items()}
    else:
        for name in END_TO_END:
            if name == "setup_s":
                metrics[name] = analysis.median(setups)
            else:
                metrics[name] = analysis.median(
                    [r["summary"][name] for r in untraced])
        metric_json = {n: {"value": v, "unit": END_TO_END[n]}
                       for n, v in metrics.items()}
    log(f"{len(untraced)} untraced, {len(traced)} traced iterations, "
        f"{len(setups)} set-ups, {failed}/{attempted} groups failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metric_json}))
    return 0


def unit_of(name):
    if name.startswith("exec.utilization.") or name == "bench.fail_ratio":
        return "ratio"
    if name == "vm.mips":
        return "Minstr/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ns_per_event") or name.endswith("ns_per_event_predictor"):
        return "ns/event"
    if name == "trace.bytes_per_event":
        return "B/event"
    if name.endswith("bytes") or name.endswith("bytes_read") or \
            name.endswith("bytes_written"):
        return "B"
    if name.endswith("_s") or name == "characterize.s":
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
