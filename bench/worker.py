"""One timed repetition of a workload, in a fresh interpreter.

Usage: python3 bench/worker.py WORKLOAD SEED MODE

Builds the inputs from the seed and prints `READY` once set-up is done
(the parent times set-up from process start to that line).  MODE `setup`
stops there.  MODE `plain` runs a cold pass over the items and a second,
warm pass over the same items in the same process; MODE `traced` runs the
cold pass only, under the layer trace.  The last line of stdout is
one JSON object with the per-item times, the answer digests, failures,
peak memory and, traced, the per-function table and counters.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from tropicoh.io import content_hash  # noqa: E402

import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402


def run_pass(items, run_item):
    """Time each item; return (times in s, answers, failure messages)."""
    times, answers, failures = [], [], []
    clock = time.perf_counter
    for item in items:
        t0 = clock()
        try:
            answer = run_item(item)
        except Exception as exc:  # every failure is counted, never fatal
            answer = {"error": repr(exc)}
            failures.append("".join(traceback.format_exception_only(exc))
                            .strip())
        times.append(clock() - t0)
        answers.append(answer)
    return times, answers, failures


def main(workload, seed, mode):
    make_items, run_item = workloads.WORKLOADS[workload]
    items = make_items(random.Random(seed))
    traced = mode == "traced"
    if traced:
        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
    print("READY", flush=True)
    if mode == "setup":
        return
    times, answers, failures = run_pass(items, run_item)
    out = {"items": len(items), "times": times, "failures": failures,
           "digest": content_hash(answers)}
    if traced:
        out["layers"] = tracer.table()
        out["counters"] = dict(tracer.counters)
    elif mode == "plain":
        out["rerun_times"], again, failures2 = run_pass(items, run_item)
        out["failures"] += failures2
        out["rerun_digest"] = content_hash(again)
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
