"""The benchmark's traced contract holds on the current program.

A traced benchmark run is marked incorrect when a workload's answer digest
differs from `bench/digests.json`, when an item fails, or when a layer
function whose main load is that workload records no call.  These tests
run the benchmark's own worker and checks, reading `bench/` only, so a
change that breaks the contract fails here first.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SEED = 1


def _bench_run():
    """bench/run.py as a module; importing it also makes `layertrace`
    importable, as it is for the benchmark itself."""
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layer_names_resolve():
    # The traced worker raises LookupError when one of these is missing.
    _bench_run()
    layertrace = importlib.import_module("layertrace")
    names = set(layertrace.MAIN_LOAD) | {
        f"linalg.{name}" for name in layertrace.LINALG_ENTRIES}
    missing = []
    for name in sorted(names):
        module, function = name.split(".")
        if not callable(getattr(importlib.import_module(f"tropicoh.{module}"),
                                function, None)):
            missing.append(name)
    assert not missing


@pytest.mark.parametrize("workload", ["matroid_sweep", "pd_engines",
                                      "stokes_modify"])
def test_traced_worker_meets_the_contract(workload):
    run = _bench_run()
    assert workload in run.WORKLOADS
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(SEED),
         "traced"], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "READY"
    result = json.loads(lines[-1])
    assert result["failures"] == []
    digests = json.loads((BENCH / "digests.json").read_text())
    assert result["digest"] == digests[workload][str(SEED)]
    assert run.coverage_problems(workload, [result]) == []
