"""File round trips, CLI verbs, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from tropicoh import cli
from tropicoh import io as tio
from tropicoh.cli import main
from tropicoh.errors import ParseError, ValidationError
from tropicoh.matroids import bergman_fan, uniform_matroid
from tropicoh.polyhedral import Polyhedron, build_complex, closure_in


def tropical_line():
    rays = [(-1, 0), (0, -1), (1, 1)]
    return build_complex([(Polyhedron(2, [(0, 0)], [r]), 1) for r in rays])


def test_complex_round_trip(tmp_path):
    line = closure_in(tropical_line(), [1])
    path = tmp_path / "line.json"
    tio.save_complex(line, path)
    again = tio.load_complex(path)
    assert again.same_weighted(line)
    # Sedentary vertices are rendered with "-inf".
    text = path.read_text()
    assert "-inf" not in text  # facets of the line are all mobile
    data = json.loads(text)
    assert data["tropical_coords"] == [2]


def test_complex_round_trip_sedentary_facet(tmp_path):
    # A complex whose only facet is sedentary round-trips through "-inf".
    seg = build_complex([(Polyhedron(1, [(0,)], [(1,), (-1,)]), 1)],
                        tropical_coords=[0])
    stratum_cell = next(c for c in seg.cells if c.sedentarity)
    single = build_complex(
        [(Polyhedron(1, [[tio.parse_extended("-inf")]]), 1)])
    d = tio.complex_to_dict(single)
    assert d["maximal_cells"][0]["vertices"] == [["-inf"]]
    again = tio.complex_from_dict(d)
    assert again.cells[0].sedentarity == {0}


def test_rational_strings():
    from fractions import Fraction
    assert tio.rational_to_str(Fraction(3, 2)) == "3/2"
    assert tio.rational_to_str(Fraction(4)) == "4"
    assert tio.parse_rational("7/3") == Fraction(7, 3)
    with pytest.raises(ParseError):
        tio.parse_rational("abc")


def test_cellsheaf_round_trip(tmp_path):
    data = {
        "direction": "sheaf",
        "cells": [
            {"id": "v0", "dim": 0, "space_dim": 0},
            {"id": "vm", "dim": 0, "space_dim": 1},
            {"id": "v1", "dim": 0, "space_dim": 0},
            {"id": "ea", "dim": 1, "space_dim": 1},
            {"id": "eb", "dim": 1, "space_dim": 1},
        ],
        "relations": [
            {"from": "v0", "to": "ea", "matrix": [[]]},
            {"from": "vm", "to": "ea", "matrix": [[1]]},
            {"from": "vm", "to": "eb", "matrix": [[1]]},
            {"from": "v1", "to": "eb", "matrix": [[]]},
        ],
    }
    path = tmp_path / "tp1.json"
    path.write_text(json.dumps(data))
    datum = tio.load_cellsheaf(path)
    from tropicoh.cohomology import compact_cohomology, ordinary_cohomology
    assert ordinary_cohomology(datum) == (0, 1)
    assert compact_cohomology(datum) == (0, 1)


def test_cellsheaf_validation_error(tmp_path):
    bad = {
        "direction": "sheaf",
        "cells": [
            {"id": "p", "dim": 0, "space_dim": 1},
            {"id": "a", "dim": 1, "space_dim": 1},
            {"id": "b", "dim": 1, "space_dim": 1},
            {"id": "t", "dim": 2, "space_dim": 1},
        ],
        "relations": [
            {"from": "p", "to": "a", "matrix": [[1]]},
            {"from": "p", "to": "b", "matrix": [[1]]},
            {"from": "a", "to": "t", "matrix": [[1]]},
            {"from": "b", "to": "t", "matrix": [[2]]},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValidationError):
        tio.load_cellsheaf(path)


def test_superform_round_trip(tmp_path):
    data = {"ambient_dim": 2, "p": 1, "q": 0,
            "terms": [{"K": [1], "L": [],
                       "poly": [{"coeff": "1/2", "exponents": [1, 0]}]}]}
    path = tmp_path / "form.json"
    path.write_text(json.dumps(data))
    form = tio.load_superform(path)
    assert form.p == 1 and form.q == 0
    ((k, l),) = form.terms.keys()
    assert k == (0,) and l == ()


def test_plfunction_parse(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(
        {"mode": "max", "terms": [{"coeff": 0, "exponents": [0]},
                                  {"coeff": 0, "exponents": [1]}]}))
    f = tio.load_plfunction(path)
    assert f.value([5]) == 5
    assert f.value([-3]) == 0


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_cli_bergman_and_pd(tmp_path, capsys):
    line_path = str(tmp_path / "line.json")
    code, out = run_cli(["bergman", "--uniform", "2", "3",
                         "--out", line_path], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["ambient_dim"] == 2
    assert len(data["maximal_cells"]) == 3

    code, out = run_cli(["pd-report", line_path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pd_verdict"] == "PASS"
    assert report["compact"]["h"] == [[0, 2], [0, 1]]
    assert report["ordinary"]["h"] == [[1, 0], [2, 0]]


def test_cli_pd_axes_fails(tmp_path, capsys):
    axes = build_complex([(Polyhedron(2, [(0, 0)], [r]), 1)
                          for r in [(1, 0), (-1, 0), (0, 1), (0, -1)]])
    path = tmp_path / "axes.json"
    tio.save_complex(axes, path)
    code, out = run_cli(["pd-report", str(path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pd_verdict"] == "FAIL"
    assert {"p": 0, "q": 0, "ordinary": 1, "compact_dual": 2} in \
        report["pd_failures"]


def test_cli_balanced_and_betti(tmp_path, capsys):
    path = tmp_path / "line.json"
    tio.save_complex(tropical_line(), path)
    code, out = run_cli(["balanced", str(path)], capsys)
    assert code == 0 and json.loads(out)["balanced"] is True
    code, out = run_cli(["betti", str(path), "--compact"], capsys)
    report = json.loads(out)
    assert report["compact"]["h"] == [[0, 2], [0, 1]]
    assert "ordinary" not in report


def test_cli_modify_and_project(tmp_path, capsys):
    r1 = build_complex([(Polyhedron(1, [(0,)], [(1,)]), 1),
                        (Polyhedron(1, [(0,)], [(-1,)]), 1)])
    cpath = tmp_path / "r1.json"
    tio.save_complex(r1, cpath)
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(
        {"mode": "max", "terms": [{"coeff": 0, "exponents": [0]},
                                  {"coeff": 0, "exponents": [1]}]}))
    code, out = run_cli(["modify", str(cpath), str(fpath)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["balanced"] is True
    assert report["divisor"]["maximal_cells"][0]["weight"] == 1

    line_path = tmp_path / "line.json"
    tio.save_complex(tropical_line(), line_path)
    code, out = run_cli(["project", str(line_path), "--coordinate", "2"],
                        capsys)
    assert code == 0
    report = json.loads(out)
    assert report["source"]["ambient_dim"] == 1


def test_cli_stokes(tmp_path, capsys):
    path = tmp_path / "line.json"
    tio.save_complex(tropical_line(), path)
    code, out = run_cli(["stokes", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["all_zero"] is True
    unbalanced = build_complex(
        [(Polyhedron(2, [(0, 0)], [r]), w)
         for r, w in zip([(-1, 0), (0, -1), (1, 1)], (1, 1, 2))])
    path2 = tmp_path / "mutant.json"
    tio.save_complex(unbalanced, path2)
    code, out = run_cli(["stokes", str(path2)], capsys)
    assert code == 0
    assert json.loads(out)["all_zero"] is False


def test_cli_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code, _ = run_cli(["pd-report", missing], capsys)
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(["validate", str(bad)], capsys)
    assert code == 2
    # Domain error: projecting R^2 is not a modification -> exit 1.
    r2 = build_complex([(Polyhedron(
        2, [(0, 0)], [(1, 0), (-1, 0), (0, 1), (0, -1)]), 1)])
    p = tmp_path / "r2.json"
    tio.save_complex(r2, p)
    code, out = run_cli(["project", str(p), "--coordinate", "2"], capsys)
    assert code == 1
    assert json.loads(out)["error"] == "NotAModificationError"



@pytest.mark.parametrize("argv", [
    ["stokes", "x", "--box", "y"],
    ["bergman", "--graph", "-1,0"],
    ["project", "c.json", "--coordinate", "abc"],
    ["no-such-verb"],
    [],
])
def test_cli_bad_arguments_are_json_parse_errors(argv, capsys):
    # Arguments argparse refuses get the JSON report of a bad file.
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"] == "parse"
    assert captured.err == ""


def test_cli_help_exits_zero(capsys):
    assert main(["stokes", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: tropicoh stokes")


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_cli_unwritable_out_is_a_parse_error(where, tmp_path, capsys):
    # The file is written before stdout, so stdout holds only the error.
    out = {"missing-dir": tmp_path / "no" / "x.json",
           "directory": tmp_path}[where]
    code = main(["bergman", "--uniform", "2", "3", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert report["error"] == "parse" and str(out) in report["message"]
    assert captured.err == ""


def test_cli_corpus_unwritable_out_is_a_parse_error(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.setattr(cli, "_corpus_checks", lambda: [("one", lambda: 1)])
    code = main(["corpus", "--out", str(tmp_path / "no" / "x.json")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert lines[0] == "PASS  one"
    assert json.loads("\n".join(lines[1:]))["error"] == "parse"
    path = tmp_path / "corpus.json"
    assert main(["corpus", "--out", str(path)]) == 0
    assert json.loads(path.read_text()) == {
        "results": [{"name": "one", "pass": True}]}

LINE = {"ambient_dim": 2, "maximal_cells": [
    {"vertices": [["0", "0"]], "rays": [r]}
    for r in (["-1", "0"], ["0", "-1"], ["1", "1"])]}


FORM = {"ambient_dim": 2, "p": 1, "q": 0,
        "terms": [{"K": [1], "L": [],
                   "poly": [{"coeff": "1", "exponents": [1, 0]}]}]}
R1 = {"ambient_dim": 1, "maximal_cells": [
    {"vertices": [["0"]], "rays": [r]} for r in (["1"], ["-1"])]}
UNBALANCED_LINE = dict(LINE, maximal_cells=[
    dict(cell, weight=w) for cell, w in zip(LINE["maximal_cells"], (1, 1, 2))])


def _constant_form(ambient, k):
    # d'x_k with coefficient 1, for a line (n = 1).
    return {"ambient_dim": ambient, "p": 1, "q": 0,
            "terms": [{"K": [k], "L": [],
                       "poly": [{"coeff": "1",
                                 "exponents": [0] * ambient}]}]}


_BAD_STOKES_INPUTS = [
    (dict(LINE, tropical_coords=["x"]), None),
    (dict(LINE, maximal_cells=[{"vertices": [["0", "0"]], "weight": "x"}]),
     None),
    (dict(LINE, maximal_cells=5), None),
    (LINE, {"ambient_dim": 2, "p": 1, "q": 0,
            "terms": [{"K": [1], "L": [],
                       "poly": [{"coeff": "1", "exponents": [1]}]}]}),
    (dict(LINE, tropical_coords=[1.5]), None),
    (dict(LINE, maximal_cells=[{"vertices": [["0", "0"]], "weight": 2.7}]),
     None),
    (dict(LINE, maximal_cells=[{"vertices": [["0", "0"]], "weight": True}]),
     None),
    (dict(LINE, ambient_dim=2.9), None),
    (LINE, dict(FORM, p=1.0)),
    (LINE, dict(FORM, terms=[dict(FORM["terms"][0], K=[1.5])])),
    (LINE, dict(FORM, terms=[dict(FORM["terms"][0], poly=[
        {"coeff": "1", "exponents": [0.5, 0]}])])),
    # A form on R^1 used to report "0" on the unbalanced line in R^2, and
    # one on R^3 to crash with an IndexError.
    (UNBALANCED_LINE, _constant_form(1, 1)),
    (UNBALANCED_LINE, _constant_form(3, 3)),
    # "K": [0] is no coordinate; it used to be read as the last one.
    (UNBALANCED_LINE, _constant_form(2, 0)),
    # A point has no (n, n-1)-forms: building the default form used to
    # exit 1 with "negative bidegree".
    ({"ambient_dim": 2, "maximal_cells": [{"vertices": [["0", "0"]]}]},
     None),
    # A (1,1)-form on a line used to exit 1 with "need an (1,0)-form".
    (LINE, dict(FORM, q=1, terms=[dict(FORM["terms"][0], L=[2])])),
]
# A function file holding JSON null: None already means "no file" above.
JSON_NULL = object()
# Functions for `modify` and `closed-modify` on R as two rays (R1): three
# whose vectors have the wrong length (each used to crash in `vdot`), two
# that are not JSON objects (each used to crash on `"terms" in data`) and
# one with an unknown mode (it used to exit 1).
_BAD_FUNCTIONS = [
    {"terms": [{"coeff": "0", "exponents": [0, 0]}]},
    {"terms": [{"coeff": "0", "exponents": []}]},
    {"per_facet": [{"cell_id": 0, "linear": [1, 0], "constant": 0}]},
    5,
    JSON_NULL,
    {"terms": [{"coeff": "0", "exponents": [1]}], "mode": "avg"},
    # The later entry for cell 1 used to overwrite the earlier one.
    {"per_facet": [{"cell_id": 0, "linear": [0], "constant": 0},
                   {"cell_id": 1, "linear": [0], "constant": 0},
                   {"cell_id": 1, "linear": [1], "constant": 0}]},
]
_BAD_GRAPH_ARGS = [
    ["bergman", "--graph", "a,b"],
    ["bergman", "--graph", "0,1,2"],
    ["os-dims", "--graph", "0,1", "1,x"],
    ["os-dims", "--graph", "0,1", "1,2,0"],
    # Two matroid sources: the first of them used to win silently.
    ["bergman", "--uniform", "2", "3", "--graph", "0,1", "1,2", "0,2"],
]
# Two matroid sources, the second a valid file: `os-dims` used to return
# the uniform matroid's dimensions without opening it.
_BAD_SOURCE_ARGS = [
    ["os-dims", "--uniform", "3", "4", "--file"],
    ["bergman", "--graph", "0,1", "--file"],
]
# A half-width of 0 clips every face to a point, and -3 was read as 3.
_BAD_STOKES_BOXES = ["0", "-3"]


_BAD_MATROID_FILES = [
    {"uniform": [2.7, 3.2]},
    {"uniform": [True, 3]},
    {"ground_size": 3.9, "bases": [[0], [1], [2]]},
    {"ground_size": 3, "bases": [[0], [1.0], [2]]},
    {"uniform": "23"},
    {"ground_size": 3, "bases": ["01", "02", "12"]},
]
_BAD_COMPLEX_FILES = [
    {"ambient_dim": 1, "maximal_cells": [{"vertices": ["0"], "rays": ["1"]}]},
]
# A relation listed twice: the last matrix used to win.
_BAD_SHEAF_FILES = [
    {"cells": [{"id": "a", "dim": 0, "space_dim": 1},
               {"id": "e", "dim": 1, "space_dim": 1}],
     "relations": [{"from": "a", "to": "e", "matrix": [[1]]},
                   {"from": "a", "to": "e", "matrix": [[2]]}]},
]
# 1-based coordinates of the line in R^2 that do not exist.
_BAD_PROJECT_COORDINATES = ["0", "3"]


@pytest.mark.parametrize(
    "data, form_data, argv",
    [(c, f, None) for c, f in _BAD_STOKES_INPUTS]
    + [(None, None, a) for a in _BAD_GRAPH_ARGS]
    + [(m, None, ["os-dims", "--file"]) for m in _BAD_MATROID_FILES]
    + [(c, None, ["validate"]) for c in _BAD_COMPLEX_FILES]
    + [(LINE, None, ["project", "--coordinate", k])
       for k in _BAD_PROJECT_COORDINATES]
    + [(R1, f, [verb]) for verb in ("modify", "closed-modify")
       for f in _BAD_FUNCTIONS]
    + [(s, None, ["cellsheaf-betti"]) for s in _BAD_SHEAF_FILES]
    + [({"uniform": [2, 3]}, None, a) for a in _BAD_SOURCE_ARGS]
    + [(LINE, None, ["stokes", "--box", b]) for b in _BAD_STOKES_BOXES],
    ids=["tropical-coord", "weight", "maximal-cells", "monomial-length",
         "tropical-coord-float", "weight-float", "weight-bool",
         "ambient-dim-float", "form-degree-float", "form-index-float",
         "form-exponent-float", "form-ambient-too-small",
         "form-ambient-too-large", "form-index-zero", "stokes-point-complex",
         "form-bidegree", "bergman-graph-letters",
         "bergman-graph-triple", "os-dims-graph-letters",
         "os-dims-graph-triple", "bergman-uniform-and-graph",
         "matroid-uniform-float",
         "matroid-uniform-bool", "matroid-ground-size-float",
         "matroid-basis-float", "matroid-uniform-string",
         "matroid-basis-strings", "cell-vertex-and-ray-strings",
         "project-coordinate-zero", "project-coordinate-too-large",
         "modify-exponents-too-long", "modify-exponents-empty",
         "modify-linear-too-long", "modify-scalar-file", "modify-null-file",
         "modify-unknown-mode", "modify-duplicate-cell-id",
         "closed-modify-exponents-too-long",
         "closed-modify-exponents-empty", "closed-modify-linear-too-long",
         "closed-modify-scalar-file", "closed-modify-null-file",
         "closed-modify-unknown-mode", "closed-modify-duplicate-cell-id",
         "cellsheaf-duplicate-relation", "os-dims-uniform-and-file",
         "bergman-graph-and-file", "stokes-box-zero",
         "stokes-box-negative"])
def test_cli_malformed_input_is_a_parse_error(tmp_path, capsys, data,
                                               form_data, argv):
    # `data` is written to a file: a complex for `stokes` when argv is
    # None, otherwise the file argument after argv.  `form_data` is the
    # `--form` file of `stokes`, or the file argument that then ends argv.
    if data is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        form = tmp_path / "form.json"
        form.write_text("null" if form_data is JSON_NULL
                        else json.dumps(form_data))
        if argv is None:
            argv = ["stokes", str(path)]
            if form_data is not None:
                argv += ["--form", str(form)]
        else:
            argv = argv + [str(path)]
            if form_data is not None:
                argv.append(str(form))
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert json.loads(out)["error"] == "parse"


def test_cli_vertices_at_infinity_in_different_coordinates(tmp_path, capsys):
    # The finite vertex's 0 used to be read as -inf, and the segment
    # validated as a cell of sedentarity {0}.
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({
        "ambient_dim": 2, "tropical_coords": [1],
        "maximal_cells": [{"vertices": [["-inf", "0"], ["0", "1"]],
                           "rays": []}]}))
    code, out = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "parse"


def test_superform_negative_ambient_dim_is_a_parse_error():
    # It used to load as a form on R^-1.
    with pytest.raises(ParseError, match="negative ambient dimension"):
        tio.superform_from_dict({"ambient_dim": -1, "p": 0, "q": 0,
                                 "terms": []})


SHEAF_DATA = {"cells": [{"id": "a", "dim": 0, "space_dim": 1},
                        {"id": "e", "dim": 1, "space_dim": 1}],
              "relations": [{"from": "a", "to": "e", "matrix": [[1]]}]}


@pytest.mark.parametrize("verb, data", [
    ("cellsheaf-betti", dict(SHEAF_DATA, cells=[
        {"id": "a", "dim": 0.5, "space_dim": 1}, SHEAF_DATA["cells"][1]])),
    ("cellsheaf-betti", dict(SHEAF_DATA, cells=[
        {"id": "a", "dim": 0, "space_dim": True}, SHEAF_DATA["cells"][1]])),
    ("modify", {"terms": [{"coeff": 0, "exponents": [0.5]}]}),
    ("modify", {"per_facet": [{"cell_id": 1.0, "linear": [0],
                               "constant": 0}]}),
], ids=["sheaf-dim", "sheaf-space-dim", "exponent", "cell-id"])
def test_cli_non_integer_field_is_a_parse_error(tmp_path, capsys, verb,
                                                 data):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    if verb == "modify":
        complex_path = tmp_path / "r1.json"
        complex_path.write_text(json.dumps(R1))
        args = [verb, str(complex_path), str(path)]
    else:
        args = [verb, str(path)]
    code, out = run_cli(args, capsys)
    assert code == 2
    assert json.loads(out)["error"] == "parse"


@pytest.mark.parametrize("cell", [
    {"id": "a", "dim": 0, "space_dim": -1},
    {"id": "a", "dim": -1, "space_dim": 1},
], ids=["space-dim", "dim"])
def test_cli_negative_sheaf_dimension_is_a_parse_error(tmp_path, capsys,
                                                        cell):
    # A negative space_dim used to report a negative Betti number and a
    # negative dim to crash the ordinary engine with an IndexError.
    path = tmp_path / "sheaf.json"
    path.write_text(json.dumps({"cells": [cell], "relations": []}))
    code = main(["cellsheaf-betti", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"] == "parse"
    assert "Traceback" not in captured.err


def test_cli_diamond_through_a_zero_space(tmp_path, capsys):
    # The path a -> b1 -> c passes a zero space; it used to be rejected as
    # a non-commuting diamond (exit 1).
    data = {"cells": [{"id": "a", "dim": 0, "space_dim": 1},
                      {"id": "b1", "dim": 1, "space_dim": 0},
                      {"id": "b2", "dim": 1, "space_dim": 1},
                      {"id": "c", "dim": 2, "space_dim": 1}],
            "relations": [{"from": "a", "to": "b1", "matrix": []},
                          {"from": "b1", "to": "c", "matrix": [[]]},
                          {"from": "a", "to": "b2", "matrix": [[1]]},
                          {"from": "b2", "to": "c", "matrix": [[0]]}]}
    path = tmp_path / "sheaf.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(["cellsheaf-betti", str(path)], capsys)
    assert code == 0
    assert json.loads(out) == {"compact": [0, 0, 1], "ordinary": [1, 0, 0]}


def test_cli_determinism(tmp_path, capsys):
    path = tmp_path / "line.json"
    tio.save_complex(tropical_line(), path)
    _, out1 = run_cli(["pd-report", str(path)], capsys)
    _, out2 = run_cli(["pd-report", str(path)], capsys)
    assert out1 == out2


def test_cli_corpus(capsys):
    code = main(["corpus"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 15


def test_cli_entrypoint_subprocess(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "tropicoh.cli", "bergman",
         "--uniform", "2", "3"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout)["ambient_dim"] == 2


def test_emitted_bergman_reparses_to_same_complex(tmp_path):
    fan = bergman_fan(uniform_matroid(3, 4))
    d = tio.complex_to_dict(fan)
    again = tio.complex_from_dict(d)
    assert again.same_weighted(fan)
    assert tio.content_hash(tio.complex_to_dict(again)) == \
        tio.content_hash(d)
