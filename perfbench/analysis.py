"""Pure functions behind perfbench/run.py: summary statistics, span self
time, the per-layer metric table, and the output check.

Nothing here runs the program; test_analysis.py exercises all of it.
"""

import statistics

# Phases the driver times, across all workloads. A phase a workload does
# not run reports a utilization of 0.
PHASES = ("compile", "execute", "analysis", "table1", "variants",
          "record", "load", "replay", "tournament", "characterize")

# Per-layer time metrics: the summed self time of the driver's spans of
# one name (each span wraps one call into the layer).
SELF_TIME = {
    "workloads.build_s": "workloads.build",
    "compiler.compile_s": "compiler.compile",
    "compiler.variant_s": "compiler.variant",
    "vm.execute_s": "vm.execute",
    "vm.variant_run_s": "vm.variant_run",
    "trace.record_s": "trace.record",
    "trace.load_s": "trace.load",
    "predict.tournament_s": "predict.cell",
    "characterize.s": "characterize",
    "analysis.figures_s": "analysis.figures",
    "analysis.table1_s": "analysis.table1",
    "analysis.profile_s": "analysis.profile",
}

# The slowest single call of a per-cell layer: the critical path when the
# pool waits for its last cell.
CELL_MAX = {
    "vm.cell_max_s": "vm.execute",
    "trace.record_cell_max_s": "trace.record",
    "predict.cell_max_s": "predict.cell",
}

# Counts the driver reports as they are.
COUNTS = ("vm.instructions", "trace.bytes", "trace.events",
          "characterize.sites", "harness.cache_hits",
          "harness.cache_misses", "harness.bytes_written",
          "harness.trace_hits", "harness.trace_misses",
          "harness.trace_bytes_read", "harness.trace_bytes_written")


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def fail_ratio(failed, attempted):
    return failed / attempted if attempted else 1.0


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0
    end_so_far = None
    for start, end in sorted(intervals):
        if end_so_far is None or start > end_so_far:
            total += end - start
            end_so_far = end
        elif end > end_so_far:
            total += end - end_so_far
            end_so_far = end
    return total


def self_times(spans):
    """Map span id -> self time in ns: the span's duration minus the part
    of it that its children cover (children may overlap each other when
    they ran on different pool workers)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        kids = [(max(c["start_ns"], start), min(c["end_ns"], end))
                for c in children.get(s["id"], [])]
        kids = [(a, b) for a, b in kids if b > a]
        out[s["id"]] = (end - start) - _covered(kids)
    return out


def layer_metrics(run):
    """Per-layer metrics of one traced iteration.

    @p run holds the driver's parsed output: "spans" (list of span
    dicts), "counts" (name -> value), "phases" (name -> {wall_s, cpu_s})
    and "jobs"."""
    selfs = self_times(run["spans"])
    by_name = {}
    for s in run["spans"]:
        by_name.setdefault(s["name"], []).append(selfs[s["id"]] * 1e-9)
    m = {}
    for metric, name in SELF_TIME.items():
        m[metric] = sum(by_name.get(name, []))
    for metric, name in CELL_MAX.items():
        m[metric] = max(by_name.get(name, [0.0]))
    counts = run["counts"]
    for name in COUNTS:
        m[name] = counts.get(name, 0)

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    m["vm.mips"] = per(m["vm.instructions"], m["vm.execute_s"], 1e-6)
    m["trace.bytes_per_event"] = per(m["trace.bytes"], m["trace.events"])
    m["trace.replay_ns_per_event"] = per(
        sum(by_name.get("trace.replay", [])), counts.get("replay.events", 0),
        1e9)
    m["predict.ns_per_event_predictor"] = per(
        m["predict.tournament_s"], counts.get("predict.events", 0), 1e9)
    for phase in PHASES:
        p = run["phases"].get(phase)
        m["exec.utilization." + phase] = (
            per(p["cpu_s"], p["wall_s"] * run["jobs"]) if p else 0.0)
    return m


def check(produced, errors, expected, stats_reference):
    """Compare one iteration's results with the expected values.

    produced / expected / stats_reference map group -> {key: value}.
    Keys "trace.stats.<f>" are checked against stats_reference's
    "stats.<f>" (a trace's embedded stats must equal Runner::stats for
    the same cell). Cross-layer invariants are checked within a group.
    errors is a list of (group, op, what) for operations that threw.

    Returns (attempted, failed) where failed maps each failed group to
    its reasons."""
    groups = set(expected) | set(produced) | {e[0] for e in errors}
    failed = {}
    for group in groups:
        got = produced.get(group, {})
        want = expected.get(group, {})
        reasons = []
        for key, value in want.items():
            if key not in got:
                reasons.append(f"{key}: missing")
            elif got[key] != value:
                reasons.append(f"{key}: {got[key]} != expected {value}")
        for key, value in got.items():
            if key.startswith("trace.stats."):
                ref = stats_reference.get(group, {}).get(
                    "stats." + key[len("trace.stats."):])
                if ref != value:
                    reasons.append(f"{key}: {value} != Runner::stats {ref}")
            elif key not in want:
                reasons.append(f"{key}: not expected")
        reasons += invariant_failures(got)
        reasons += [f"{op} threw: {what}" for g, op, what in errors
                    if g == group]
        if reasons:
            failed[group] = reasons
    return len(groups), failed


def invariant_failures(got):
    """Cross-layer invariants among one group's results."""
    out = []

    def same(a, b):
        if a in got and b in got and got[a] != got[b]:
            out.append(f"{a} {got[a]} != {b} {got[b]}")

    same("replay.events", "trace.events")
    same("replay.branch_events", "trace.branch_events")
    same("characterize.branches", "trace.branch_events")
    same("zoo.branch_events", "trace.branch_events")
    for key in got:
        if key.startswith("zoo.") and key.endswith(".branches"):
            same(key, "zoo.branch_events")
    return out


def read_expected(path):
    """Tab-separated "group key value" lines -> {group: {key: value}}."""
    out = {}
    with open(path) as f:
        for line in f:
            group, key, value = line.rstrip("\n").split("\t")
            out.setdefault(group, {})[key] = value
    return out


def write_expected(path, produced):
    """Inverse of read_expected; trace.stats.* keys are left out because
    they are checked against the matrix-cold Runner::stats values."""
    with open(path, "w") as f:
        for group in sorted(produced):
            for key in sorted(produced[group]):
                if not key.startswith("trace.stats."):
                    f.write(f"{group}\t{key}\t{produced[group][key]}\n")
