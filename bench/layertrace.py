"""Per-layer timing of `tropicoh` from outside the program.

`Tracer.install()` replaces the public functions of the layer modules by
timing wrappers.  A function is rebound in every module that holds it
(`cohomology` imports `betti_numbers` from `chains`, `modifications`
imports `intersect` from `polyhedral`, and the benchmark's own workload
module imports many of them), so no call path escapes the trace.  Each
wrapped function records its calls, its total time (outermost activation
only, so recursion is not counted twice) and its self time (total minus
the time of wrapped callees).  A few wrappers also count the size of the
work they were given.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# Modules whose public functions are wrapped, and the coarse linear-algebra
# entry points (the small vector helpers of `linalg` are left alone).
LAYER_MODULES = ("convex", "polyhedral", "matroids", "cohomology", "chains",
                 "modifications", "superforms", "polynomial")
LINALG_ENTRIES = ("rref", "kernel_basis", "hermite_normal_form",
                  "smith_normal_form", "det", "solve", "wedge_power")


def _count_intersect(counters, args, result):
    counters["polyhedral.intersect.found"] += result is not None


def _count_build_complex(counters, args, result):
    counters["polyhedral.build_complex.cells"] += len(result.cells)


def _count_build_sheaf(counters, args, result):
    counters["cohomology.build_sheaf.cochain_dim"] += sum(
        cell.space_dim for cell in result.cells)


def _count_betti_numbers(counters, args, result):
    dims, diffs = args[0], args[1]
    counters["chains.betti_numbers.input_dim"] += sum(dims)
    counters["chains.betti_numbers.input_nnz"] += sum(
        1 for d in diffs for v in d.values() if v)


COUNTERS = {
    "polyhedral.intersect": _count_intersect,
    "polyhedral.build_complex": _count_build_complex,
    "cohomology.build_sheaf": _count_build_sheaf,
    "chains.betti_numbers": _count_betti_numbers,
}

# Layer functions and the workload that is their main load.  The traced
# run fails when one of them records no call there, so a rename in the
# program cannot silently drop a layer from the table.
MAIN_LOAD = {
    "polyhedral.intersect": "matroid_sweep",
    "polyhedral.build_complex": "matroid_sweep",
    "polyhedral.faces": "matroid_sweep",
    "polyhedral.stratum_piece": "pd_engines",
    "convex.cone_facets": "matroid_sweep",
    "convex.cone_rays": "matroid_sweep",
    "convex.polyhedron_facets": "stokes_modify",
    "convex.polyhedron_generators": "stokes_modify",
    "linalg.rref": "matroid_sweep",
    "linalg.kernel_basis": "matroid_sweep",
    "linalg.hermite_normal_form": "matroid_sweep",
    "cohomology.build_sheaf": "pd_engines",
    "cohomology.multitangent_space": "pd_engines",
    "cohomology.inclusion_map": "pd_engines",
    "chains.betti_numbers": "pd_engines",
    "chains.compose_is_zero": "pd_engines",
    "cohomology.ordinary_cohomology": "pd_engines",
    "cohomology.compact_cohomology": "pd_engines",
    "superforms.integrate_cell": "stokes_modify",
    "superforms.triangulate_polytope": "stokes_modify",
    "superforms.pullback": "stokes_modify",
    "polynomial.integrate_over_simplex": "stokes_modify",
    "modifications.complete_modification": "stokes_modify",
    "modifications.project_modification": "stokes_modify",
    "modifications.weighted_supports_equal": "stokes_modify",
}


class Tracer:
    """Calls, total and self time of every wrapped function."""

    def __init__(self):
        self.stats: dict = {}      # name -> [calls, total_s, self_s]
        self.counters = defaultdict(int)
        self._stack: list = []     # time spent in wrapped callees, per frame
        self._depth: dict = {}     # name -> active activations

    def _wrap(self, name, fn):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        self._depth[name] = 0
        measure = COUNTERS.get(name)
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                st[0] += 1
                st[2] += dt - frame[0]
                if not depth[name]:
                    st[1] += dt
                if stack:
                    stack[-1][0] += dt
            if measure is not None:
                measure(self.counters, args, result)
            return result

        return wrapper

    def install(self, extra_modules=()):
        """Wrap the layer functions and rebind them wherever they are held.

        Raises LookupError when a function named in MAIN_LOAD or
        LINALG_ENTRIES no longer exists in its module.
        """
        import tropicoh  # noqa: F401  (loads every module of the package)

        targets = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"tropicoh.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[f"{short}.{attr}"] = obj
        linalg = sys.modules["tropicoh.linalg"]
        for attr in LINALG_ENTRIES:
            if attr in vars(linalg):
                targets[f"linalg.{attr}"] = getattr(linalg, attr)
        missing = sorted((set(MAIN_LOAD) | {f"linalg.{a}"
                                            for a in LINALG_ENTRIES})
                         - set(targets))
        if missing:
            raise LookupError(f"layer functions not found: {missing}")
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, fn in targets.items()}
        holders = [m for name, m in sys.modules.items()
                   if name == "tropicoh" or name.startswith("tropicoh.")]
        for mod in holders + list(extra_modules):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])

    def table(self):
        """{function: {calls, total_s, self_s}} for functions called."""
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items()) if c}

