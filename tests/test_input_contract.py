"""Input contract: malformed files never escape as a traceback.

Each file loader in `tropicoh.io` either returns its object or raises a
`TropicohError`, and every CLI verb but `corpus` exits 0, 1 or 2 with
JSON on stdout.  Inputs are valid files with entries replaced by small
JSON values (booleans, floats, "-inf", "1/0", nested lists), dropped or
repeated.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tropicoh import io as tio
from tropicoh.cli import main
from tropicoh.errors import TropicohError

LINE = {"ambient_dim": 2, "maximal_cells": [
    {"vertices": [["0", "0"]], "rays": [r]}
    for r in (["-1", "0"], ["0", "-1"], ["1", "1"])]}
R1 = {"ambient_dim": 1, "maximal_cells": [
    {"vertices": [["0"]], "rays": [r]} for r in (["1"], ["-1"])]}
CLOSED_R1 = dict(R1, tropical_coords=[1])
AT_INFINITY = {"ambient_dim": 2, "tropical_coords": [1], "maximal_cells": [
    {"vertices": [["-inf", "0"], ["-inf", "1"]], "weight": 2}]}
TRIANGLE = {"ambient_dim": 2, "maximal_cells": [
    {"vertices": [["0", "0"], ["1", "0"], ["0", "1/2"]]}]}
COMPLEXES = [LINE, R1, CLOSED_R1, AT_INFINITY, TRIANGLE]

SHEAF = {
    "direction": "sheaf",
    "cells": [{"id": "v0", "dim": 0, "space_dim": 0},
              {"id": "vm", "dim": 0, "space_dim": 1},
              {"id": "ea", "dim": 1, "space_dim": 1}],
    "relations": [{"from": "v0", "to": "ea", "matrix": [[]]},
                  {"from": "vm", "to": "ea", "matrix": [[1]]}],
}
# Functions on R1 (ambient dimension 1).
FUNCTIONS = [
    {"terms": [{"coeff": "0", "exponents": [0]},
               {"coeff": "1", "exponents": [1]}], "mode": "max"},
    {"per_facet": [{"cell_id": 0, "linear": [0], "constant": 0},
                   {"cell_id": 1, "linear": ["1"], "constant": "0"}]},
]
FORM = {"ambient_dim": 2, "p": 1, "q": 0,
        "terms": [{"K": [1], "L": [],
                   "poly": [{"coeff": "1", "exponents": [1, 0]}]}]}
MATROIDS = [{"uniform": [2, 3]},
            {"graph": [[0, 1], [1, 2], [0, 2]]},
            {"ground_size": 3, "bases": [[0, 1], [0, 2], [1, 2]]}]

_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3),
    st.floats(-2, 2), st.sampled_from([math.nan, math.inf]),
    st.sampled_from(["-inf", "1/0", "1/2", "0", "1", "-1", "x", ""]))
_junk = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=2),
    st.dictionaries(st.sampled_from(["id", "K", "vertices"]), inner,
                    max_size=1)), max_leaves=4)


@st.composite
def _mutated(draw, value):
    """`value` with a few entries replaced by junk, dropped or repeated."""
    if draw(st.integers(0, 15)) == 15:
        return draw(_junk)
    if isinstance(value, dict):
        return {k: draw(_mutated(v)) for k, v in value.items()
                if draw(st.integers(0, 15)) != 15}
    if isinstance(value, list):
        out = []
        for v in value:
            edit = draw(st.integers(0, 23))
            if edit != 23:
                out.append(draw(_mutated(v)))
            if edit == 22:
                out.append(v)
        return out
    return value


def _one_of(values):
    return st.sampled_from(values).flatmap(_mutated)


def _accepts_or_refuses(load, data):
    try:
        load(data)
    except TropicohError:
        pass


@settings(max_examples=60, deadline=None)
@given(_one_of(COMPLEXES))
def test_complex_loader_raises_only_its_errors(data):
    _accepts_or_refuses(tio.complex_from_dict, data)


@settings(max_examples=40, deadline=None)
@given(_mutated(SHEAF))
def test_cellsheaf_loader_raises_only_its_errors(data):
    _accepts_or_refuses(tio.cellsheaf_from_dict, data)


@settings(max_examples=40, deadline=None)
@given(_one_of(FUNCTIONS))
def test_plfunction_loader_raises_only_its_errors(data):
    reference = tio.complex_from_dict(R1)
    _accepts_or_refuses(
        lambda d: tio.plfunction_from_dict(d, reference), data)


@settings(max_examples=40, deadline=None)
@given(_mutated(FORM))
def test_superform_loader_raises_only_its_errors(data):
    _accepts_or_refuses(tio.superform_from_dict, data)


@settings(max_examples=40, deadline=None)
@given(_one_of(MATROIDS))
def test_matroid_loader_raises_only_its_errors(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matroid.json"
        path.write_text(json.dumps(data))
        _accepts_or_refuses(tio.load_matroid, path)


_small = st.integers(-1, 3).map(str)


class _File:
    """File contents in an argument list, written out before the call."""

    def __init__(self, data):
        self.data = data


@st.composite
def _invocations(draw):
    """An argument list: a verb, its files and its options.  Every option
    value parses, so only the files and the numbers they name are
    malformed."""
    verb = draw(st.sampled_from([
        "validate", "balanced", "betti", "pd-report", "bergman", "os-dims",
        "modify", "closed-modify", "project", "stokes", "cellsheaf-betti"]))
    argv = [verb]
    if verb in ("validate", "balanced", "betti", "pd-report", "project",
                "stokes"):
        argv.append(_File(draw(_one_of(COMPLEXES))))
    if verb == "betti":
        argv += draw(st.sampled_from(
            [[], ["--compact"], ["--ordinary"], ["--both"]]))
    elif verb == "project":
        argv += ["--coordinate", draw(_small)]
    elif verb == "stokes":
        argv += ["--box", draw(_small)]
        if draw(st.booleans()):
            argv += ["--form", _File(draw(_mutated(FORM)))]
    elif verb in ("bergman", "os-dims"):
        source = draw(st.sampled_from(["file", "uniform", "graph"]))
        if source == "file":
            argv += ["--file", _File(draw(_one_of(MATROIDS)))]
        elif source == "uniform":
            argv += ["--uniform", draw(_small), draw(_small)]
        else:
            # argparse reads "-1,0" as an option, so the ends are >= 0.
            ends = st.integers(0, 3).map(str)
            argv += ["--graph"] + draw(st.lists(
                st.tuples(ends, ends).map(",".join), min_size=1, max_size=3))
    elif verb in ("modify", "closed-modify"):
        argv += [_File(draw(_one_of([R1, CLOSED_R1]))),
                 _File(draw(_one_of(FUNCTIONS)))]
    elif verb == "cellsheaf-betti":
        argv.append(_File(draw(_mutated(SHEAF))))
    return argv


@settings(max_examples=120, deadline=None)
@given(_invocations())
def test_cli_exits_with_json_on_malformed_files(argv):
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for arg in argv:
            if isinstance(arg, _File):
                path = Path(tmp) / f"input{len(args)}.json"
                path.write_text(json.dumps(arg.data))
                arg = str(path)
            args.append(arg)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(args)
    assert code in (0, 1, 2)
    report = json.loads(stdout.getvalue())
    if code == 2:
        assert report["error"] == "parse"
