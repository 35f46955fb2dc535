"""End-to-end and per-layer benchmark of tropicoh.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]

Load model: a closed loop with one client, one process and no threads.
Every repetition runs in a fresh interpreter (bench/worker.py), so the
module-level caches of tropicoh start empty, as they do for a CLI call.
A run starts repetitions until the next one would end after --seconds
(at least three).  An untraced repetition runs a cold pass and then a
warm pass over the same items.  Each item counts with its mean time over
the repetitions, so pass times are mean pass times; set-up is the median
of all set-up samples (one per interpreter, plus a few interpreters that
only set up).

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json.
With --trace 1 it alternates traced and untraced repetitions and reports
the per-layer metrics of the traced cold passes, plus the tracing
overhead.  The last line of stdout is the JSON result; the lines before
it are the environment, the metrics with units, failed_ratio, the answer
digest and, traced, the full per-function table.  --all runs every
workload in turn and prints one JSON object keyed by workload last.

Exit status: 0 when the run completed (the result says whether every
answer was correct), 2 when the program sources are missing or a worker
crashed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layertrace import MAIN_LOAD  # noqa: E402

WORKLOADS = ("matroid_sweep", "pd_engines", "stokes_modify")
DEFAULT_SEED = 1
MIN_REPS = 3
# Extra set-up-only interpreters per run: set-up is short, so one sample
# per repetition is too few.
SETUP_SAMPLES = 5

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "rerun_s": "s",
                    "item_p50_ms": "ms", "item_tail_ms": "ms",
                    "peak_rss_mb": "MB"}

# Per-layer metrics of a traced run: calls and self time of every layer
# function, the total time and success ratio of the validation kernel, and
# the work-size counters.
PER_LAYER_UNITS = {}
for _fn in MAIN_LOAD:
    PER_LAYER_UNITS[f"{_fn}.calls"] = "count"
    PER_LAYER_UNITS[f"{_fn}.self_s"] = "s"
PER_LAYER_UNITS.update({"polyhedral.intersect.total_s": "s",
                        "polyhedral.intersect.nonempty_ratio": "ratio",
                        "polyhedral.build_complex.cells": "count",
                        "cohomology.build_sheaf.cochain_dim": "count",
                        "chains.betti_numbers.input_dim": "count",
                        "chains.betti_numbers.input_nnz": "count",
                        "trace_overhead_ratio": "ratio"})

def tail_percentile(n_items):
    """Highest whole percentile with at least ten items beyond it."""
    return math.floor(100 * (n_items - 10) / n_items)


def at_percentile(values, pct):
    """Nearest-rank percentile of a list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def run_worker(workload, seed, mode):
    """One fresh interpreter: (set-up seconds, worker result or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           mode]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with "
                           f"{proc.returncode}")
    if mode == "setup":
        return setup_s, None
    result = json.loads(rest.strip().splitlines()[-1])
    result["mode"] = mode
    return setup_s, result


def repetitions(workload, seed, seconds, traced):
    """Run repetitions until the next would overrun the budget.

    Returns (results, set-up samples).  Untraced runs start plain workers;
    traced runs alternate traced and plain workers, so that the tracing
    overhead is measured on the same machine state.  Set-up-only workers
    add set-up samples at little cost.
    """
    cycle = ("traced", "plain") if traced else ("plain",)
    start = time.perf_counter()
    setups = [] if traced else [run_worker(workload, seed, "setup")[0]
                                for _ in range(SETUP_SAMPLES)]
    reps = []
    longest = {}
    while True:
        mode = cycle[len(reps) % len(cycle)]
        t0 = time.perf_counter()
        setup_s, res = run_worker(workload, seed, mode)
        setups.append(setup_s)
        reps.append(res)
        longest[mode] = max(longest.get(mode, 0.0), time.perf_counter() - t0)
        upcoming = longest.get(cycle[len(reps) % len(cycle)], longest[mode])
        if len(reps) >= MIN_REPS and \
                time.perf_counter() - start + upcoming > seconds:
            return reps, setups


def check_reps(workload, seed, reps):
    """Failure messages: item failures and digest disagreements."""
    problems = [f for r in reps for f in r["failures"]]
    digests = {r["digest"] for r in reps} | \
        {r["rerun_digest"] for r in reps if "rerun_digest" in r}
    if len(digests) != 1:
        problems.append(f"answer digests differ between passes: {digests}")
    recorded = json.loads((BENCH / "digests.json").read_text())
    expected = recorded[workload].get(str(seed))
    if expected is not None and digests != {expected}:
        problems.append(f"answer digest {sorted(digests)} differs from the "
                        f"recorded {expected} for seed {seed}")
    return problems


def item_means(reps, key="times"):
    """Each item's mean time over the repetitions, in item order.

    Other tenants of the machine slow it for seconds to minutes at a
    time; over ten runs the mean moved less than the median or the
    minimum of each item's times.
    """
    return [statistics.fmean(ts) for ts in zip(*(r[key] for r in reps))]


def end_to_end(reps, setups):
    """End-to-end metrics of untraced repetitions (see the module doc)."""
    item_ms = [t * 1000 for t in item_means(reps)]
    return {"setup_s": statistics.median(setups),
            "run_s": sum(item_ms) / 1000,
            "rerun_s": sum(item_means(reps, "rerun_times")),
            "item_p50_ms": statistics.median(item_ms),
            "item_tail_ms": at_percentile(item_ms,
                                          tail_percentile(len(item_ms))),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps)}


def per_layer(traced_reps, plain_reps):
    """Median of each per-layer metric over traced repetitions."""
    def row(r):
        out = {}
        for name in PER_LAYER_UNITS:
            fn, _, stat = name.rpartition(".")
            if stat in ("calls", "self_s", "total_s"):
                out[name] = r["layers"].get(fn, {}).get(stat, 0)
            else:
                out[name] = r["counters"].get(name, 0)
        calls = out["polyhedral.intersect.calls"]
        found = r["counters"].get("polyhedral.intersect.found", 0)
        out["polyhedral.intersect.nonempty_ratio"] = \
            found / calls if calls else 0.0
        return out

    rows = [row(r) for r in traced_reps]
    out = {k: (statistics.median_low if unit == "count" else
               statistics.median)(x[k] for x in rows)
           for k, unit in PER_LAYER_UNITS.items()}
    out["trace_overhead_ratio"] = \
        sum(item_means(traced_reps)) / sum(item_means(plain_reps)) - 1
    return out


def coverage_problems(workload, traced_reps):
    """Layers whose main load is this workload but that saw no call."""
    return [f"layer {fn} recorded no call on its main load {workload}"
            for fn, main in sorted(MAIN_LOAD.items())
            if main == workload and
            any(not r["layers"].get(fn, {}).get("calls") for r in traced_reps)]


def layer_table(traced_reps):
    """Calls, total and self time of every wrapped function that was
    called, median over the traced repetitions, by self time."""
    names = {fn for r in traced_reps for fn in r["layers"]}
    def stat(fn, key, median=statistics.median):
        return median(r["layers"].get(fn, {}).get(key, 0) for r in traced_reps)

    table = {fn: {"calls": stat(fn, "calls", statistics.median_low),
                  "self_s": stat(fn, "self_s"), "total_s": stat(fn, "total_s")}
             for fn in names}
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))


def environment(workload, seed, traced):
    """Where and on what a run was made; the source digest identifies the
    program when the checkout carries no git metadata."""
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            target = ROOT / ".git" / commit[5:]
            if target.is_file():
                commit = target.read_text().strip()
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tropicoh").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit,
            "source_sha256": source.hexdigest(), "workload": workload,
            "seed": seed, "traced": traced}


def measure(workload, seed, seconds, traced):
    """Run one workload; return (record, summary lines).

    The record holds the result object of the last stdout line under
    "result", the environment, and the item count, tail percentile,
    digest and, traced, the per-function table.
    """
    reps, setups = repetitions(workload, seed, seconds, traced)
    untraced = [r for r in reps if r["mode"] != "traced"]
    traced_reps = [r for r in reps if r["mode"] == "traced"]
    problems = check_reps(workload, seed, reps)
    attempted = sum(r["items"] * (2 if r["mode"] == "plain" else 1)
                    for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    items = reps[0]["items"]
    record = {"env": environment(workload, seed, traced), "items": items,
              "repetitions": len(reps), "digest": reps[0]["digest"]}
    if traced:
        values, units = per_layer(traced_reps, untraced), PER_LAYER_UNITS
        problems += coverage_problems(workload, traced_reps)
        record["layer_table"] = layer_table(traced_reps)
    else:
        values, units = end_to_end(untraced, setups), END_TO_END_UNITS
        record["tail_percentile"] = tail_percentile(items)
    lines = [json.dumps({"env": record["env"]}),
             f"{workload} seed={seed} reps={len(reps)} items={items} "
             f"traced={int(traced)}"]
    for name, value in values.items():
        lines.append(f"  {name:48s} {value:14.6g} {units[name]}")
    if traced:
        lines.append(json.dumps({"layer_table": record["layer_table"]}))
    else:
        lines.append(f"  item_tail_ms is p{record['tail_percentile']} of "
                     f"{items} items")
    lines.append(f"  failed_ratio {failed / attempted:.6g} "
                 f"({failed} of {attempted} items)")
    lines.append(f"  answer digest {record['digest']}")
    lines += [f"  PROBLEM: {p}" for p in problems]
    record["result"] = {"correct": not problems, "attempted": attempted,
                        "failed": failed,
                        "metrics": {k: {"value": v, "unit": units[k]}
                                    for k, v in values.items()}}
    return record, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=42)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path,
                    help="merge the run records into this JSON file, "
                         "keyed by workload and traced/untraced")
    args = ap.parse_args(argv)
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")
    if not (ROOT / "src" / "tropicoh" / "__init__.py").is_file():
        print(f"error: no tropicoh sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.all else [args.workload]
    records = {}
    try:
        for name in names:
            records[name], lines = measure(name, args.seed, args.seconds,
                                           bool(args.trace))
            print("\n".join(lines), flush=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        for name, record in records.items():
            doc.setdefault(name, {})["traced" if args.trace else
                                     "untraced"] = record
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    results = {name: r["result"] for name, r in records.items()}
    print(json.dumps(results if args.all else results[args.workload]))
    return 0

if __name__ == "__main__":
    sys.exit(main())
