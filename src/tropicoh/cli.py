"""Command-line driver.

Exit codes: 0 success, 1 domain error (axiom violations, unbalanced input
where balance is required, failed corpus checks), 2 parse/usage error.
Reports are canonical JSON on stdout; --out mirrors them to a file.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import io as tio
from .cohomology import (
    SHEAF,
    CellularSheafDatum,
    SheafCell,
    betti_tables,
    compact_cohomology,
    inclusion_map,
    multitangent_space,
    ordinary_cohomology,
    pd_report,
)
from .errors import ParseError, TropicohError
from .matroids import (
    bergman_fan,
    matroid_from,
    matroidal_modification_triple,
    uniform_matroid,
)
from .modifications import (
    MAX,
    PLFunction,
    closed_modification,
    complete_modification,
    graph_complex,
    project_modification,
    weighted_supports_equal,
)
from .polyhedral import (
    Polyhedron,
    build_complex,
    closure_in,
    infinite_faces,
    is_balanced,
)
from .superforms import balanced_face_cancellation, form_from_terms


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write --out {path}: {exc.strerror}") from None


def _emit(report, out_path=None):
    """Write the report to `out_path`, if given, and then to stdout, so a
    path that cannot be written leaves stdout to the error report."""
    text = tio.canonical_json(report)
    if out_path:
        _write(out_path, text)
    sys.stdout.write(text)


def _load_matroid_arg(args):
    if sum(map(bool, (args.uniform, args.graph, args.file))) != 1:
        raise ParseError("need exactly one of --uniform, --graph, --file")
    if args.uniform:
        r, n = args.uniform
        return uniform_matroid(r, n)
    if args.graph:
        edges = [tuple(tio.parse_int(x) for x in e.split(","))
                 for e in args.graph]
        if any(len(e) != 2 for e in edges):
            raise ParseError("--graph edges are pairs U,V")
        return matroid_from({"graph": edges})
    return tio.load_matroid(args.file)


def cmd_validate(args):
    c = tio.load_complex(args.complex)
    dims = {}
    for cell in c.cells:
        dims[cell.dim] = dims.get(cell.dim, 0) + 1
    report = {
        "ambient_dim": c.ambient_dim,
        "cells_by_dim": {str(k): v for k, v in sorted(dims.items())},
        "facets": len(c.facet_indices()),
        "pure": c.is_pure(),
        "valid": True,
        "hash": tio.content_hash(tio.complex_to_dict(c)),
    }
    _emit(report, args.out)
    return 0


def cmd_balanced(args):
    c = tio.load_complex(args.complex)
    ok, failures = is_balanced(c)
    report = {
        "balanced": ok,
        "failures": [{"cell": t, "defect": [tio.rational_to_str(x)
                                            for x in d]}
                     for t, d in failures],
    }
    _emit(report, args.out)
    return 0


def cmd_betti(args):
    c = tio.load_complex(args.complex)
    ordinary, compact = betti_tables(c)
    report = {}
    if args.flavor in ("ordinary", "both"):
        report["ordinary"] = ordinary.as_dict()
        report["ordinary_text"] = ordinary.render()
    if args.flavor in ("compact", "both"):
        report["compact"] = compact.as_dict()
        report["compact_text"] = compact.render()
    _emit(report, args.out)
    return 0


def cmd_pd_report(args):
    c = tio.load_complex(args.complex)
    rep = pd_report(c)
    report = {
        "n": rep["n"],
        "balanced": rep["balanced"],
        "balancing_failures": rep["balancing_failures"],
        "ordinary": rep["ordinary"].as_dict(),
        "compact": rep["compact"].as_dict(),
        "ordinary_text": rep["ordinary"].render(),
        "compact_text": rep["compact"].render(),
        "pd_verdict": "PASS" if rep["pd_holds"] else "FAIL",
        "pd_failures": rep["pd_failures"],
        "degree": {
            "h_top_compact": rep["degree"]["h_top_compact"],
            "canonical_value":
                None if rep["degree"]["canonical_value"] is None
                else tio.rational_to_str(rep["degree"]["canonical_value"]),
            "nondegenerate": rep["degree"]["nondegenerate"],
        },
    }
    _emit(report, args.out)
    return 0


def cmd_bergman(args):
    m = _load_matroid_arg(args)
    fan = bergman_fan(m)
    _emit(tio.complex_to_dict(fan), args.out)
    return 0


def cmd_os_dims(args):
    m = _load_matroid_arg(args)
    report = {"rank": m.rank, "os_dims": list(m.os_dims())}
    _emit(report, args.out)
    return 0


def _modification_report(res):
    report = {
        "cycle": tio.complex_to_dict(res.graph),
        "source": tio.complex_to_dict(res.source),
        "projection_coordinate": res.projection_coordinate + 1,
        "balanced": is_balanced(res.graph)[0],
    }
    report["divisor"] = (None if res.divisor is None
                         else tio.complex_to_dict(res.divisor))
    return report


def cmd_modify(args):
    w = tio.load_complex(args.complex)
    p = tio.load_plfunction(args.function, reference=w)
    res = complete_modification(w, p)
    _emit(_modification_report(res), args.out)
    return 0


def cmd_closed_modify(args):
    w = tio.load_complex(args.complex)
    p = tio.load_plfunction(args.function, reference=w)
    res = closed_modification(w, p)
    _emit(_modification_report(res), args.out)
    return 0


def cmd_project(args):
    v = tio.load_complex(args.complex)
    if not 1 <= args.coordinate <= v.ambient_dim:
        raise ParseError(f"--coordinate must lie in 1..{v.ambient_dim}")
    res = project_modification(v, args.coordinate - 1)
    _emit(_modification_report(res), args.out)
    return 0


def cmd_cellsheaf_betti(args):
    datum = tio.load_cellsheaf(args.sheaf)
    report = {
        "ordinary": list(ordinary_cohomology(datum)),
        "compact": list(compact_cohomology(datum)),
    }
    _emit(report, args.out)
    return 0


def cmd_stokes(args):
    if args.box <= 0:
        raise ParseError(f"--box must be a positive half-width: {args.box}")
    c = tio.load_complex(args.complex)
    n = c.n
    if n < 1:
        raise ParseError(f"stokes needs a complex of dimension >= 1, "
                         f"this one has dimension {n}")
    if args.form:
        beta = tio.load_superform(args.form)
        if beta.ambient_dim != c.ambient_dim:
            raise ParseError(f"--form has ambient_dim {beta.ambient_dim}, "
                             f"the complex {c.ambient_dim}")
        if (beta.p, beta.q) != (n, n - 1):
            raise ParseError(f"--form has bidegree ({beta.p},{beta.q}), "
                             f"a {n}-dimensional complex needs ({n},{n - 1})")
    else:
        # Default detector: the constant-coefficient form d'x_1 ^ ... with
        # the first n coordinates in the d'-part and n-1 in the d''-part.
        k = tuple(range(n))
        l = tuple(range(n - 1))
        beta = form_from_terms(c.ambient_dim, n, n - 1, [(k, l, 1)])
    span = args.box
    box = (tuple(Fraction(-span) for _ in range(c.ambient_dim)),
           tuple(Fraction(span) for _ in range(c.ambient_dim)))
    values = balanced_face_cancellation(c, beta, box)
    report = {
        "box": [str(-span), str(span)],
        "values": {str(t): tio.rational_to_str(v)
                   for t, v in sorted(values.items())},
        "all_zero": all(v == 0 for v in values.values()),
    }
    _emit(report, args.out)
    return 0


# -- built-in regression corpus --------------------------------------------------


def _tropical_line(weights=(1, 1, 1)):
    rays = [(-1, 0), (0, -1), (1, 1)]
    return build_complex([(Polyhedron(2, [(0, 0)], [r]), w)
                          for r, w in zip(rays, weights)])


def _corpus_checks():
    line = _tropical_line()
    vertex = line.cells_of_dim(0)[0]

    def axes():
        rays = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        return build_complex([(Polyhedron(2, [(0, 0)], [r]), 1)
                              for r in rays])

    def r1():
        return build_complex([(Polyhedron(1, [(0,)], [(1,)]), 1),
                              (Polyhedron(1, [(0,)], [(-1,)]), 1)])

    def tp1():
        cells = [SheafCell("v0", 0, 0), SheafCell("vm", 0, 1),
                 SheafCell("v1", 0, 0), SheafCell("ea", 1, 1),
                 SheafCell("eb", 1, 1)]
        one = ((Fraction(1),),)
        empty = ((),)
        maps = {(0, 3): empty, (1, 3): one, (1, 4): one, (2, 4): empty}
        return CellularSheafDatum(cells, maps, SHEAF)

    yield ("tropical line multitangent F^1 = Q^2",
           lambda: multitangent_space(line, vertex, 1).dim == 2)
    yield ("T^1 stratum face at -infinity",
           lambda: len(infinite_faces(
               Polyhedron(1, [(0,)], [(-1,)]), [0])) == 1)
    yield ("tropical line built from three rays",
           lambda: sorted(c.dim for c in line.cells) == [0, 1, 1, 1])
    yield ("tropical line balanced with unit weights",
           lambda: is_balanced(line)[0])
    yield ("sedentary vertex has zero multitangent",
           lambda: all(
               multitangent_space(cl, i, 1).dim == 0
               for cl in [closure_in(line, [0, 1])]
               for i, c in enumerate(cl.cells) if c.sedentarity))

    def _t1_zero_map():
        t1 = build_complex([(Polyhedron(1, [(0,)], [(1,), (-1,)]), 1)],
                           tropical_coords=[0])
        sed = next(i for i, c in enumerate(t1.cells) if c.sedentarity)
        edge = next(i for i, c in enumerate(t1.cells) if c.dim == 1)
        return inclusion_map(t1, sed, edge, 1) == ()

    yield ("map into a sedentary vertex is the zero map", _t1_zero_map)
    yield ("coordinate axes h^{1,1}_c = 2",
           lambda: betti_tables(axes())[1].entry(1, 1) == 2)
    yield ("tropical line ordinary rows",
           lambda: betti_tables(line)[0].h == ((1, 0), (2, 0)))
    yield ("tropical line compact rows",
           lambda: betti_tables(line)[1].h == ((0, 2), (0, 1)))
    yield ("R^2 tables are binomial",
           lambda: betti_tables(build_complex([(Polyhedron(
               2, [(0, 0)], [(1, 0), (-1, 0), (0, 1), (0, -1)]), 1)]))[0].h
               == ((1, 0, 0), (2, 0, 0), (1, 0, 0)))
    yield ("segment datum h^{0,0} = h^{1,1} = 1",
           lambda: (ordinary_cohomology(tp1()) == (0, 1)
                    and compact_cohomology(tp1()) == (0, 1)))
    yield ("Bergman fan of U_{2,3} is the tropical line",
           lambda: bergman_fan(uniform_matroid(2, 3)).same_weighted(line))
    yield ("U_{2,3} graded dimensions (1, 2)",
           lambda: uniform_matroid(2, 3).os_dims() == (1, 2))
    yield ("graph of max(0, x) has directions (-1,0) and (1,1)",
           lambda: sorted(
               tuple(c.rays[0]) for c in graph_complex(
                   r1(), PLFunction(MAX, terms=[(0, (0,)), (0, (1,))])).cells
               if c.dim == 1) == [(-1, 0), (1, 1)])
    yield ("modification of R along max(0,x) is the line with origin "
           "divisor",
           lambda: (lambda res: weighted_supports_equal(res.graph, line)
                    and res.divisor is not None
                    and res.divisor.cells[0].vertices == ((Fraction(0),),)
                    and res.divisor.weights[0] == 1)(
               complete_modification(
                   r1(), PLFunction(MAX, terms=[(0, (0,)), (0, (1,))]))))
    yield ("projection of the line recovers (R, origin)",
           lambda: (lambda res: weighted_supports_equal(res.source, r1())
                    and res.divisor is not None)(
               project_modification(line, 1)))
    yield ("matroidal triple for (U_{2,3}, e=2)",
           lambda: (lambda v, w, d, i: v.same_weighted(line)
                    and w.ambient_dim == 1 and d.n == 0 and i == 1)(
               *matroidal_modification_triple(uniform_matroid(2, 3), 2)))
    yield ("PD report: line passes",
           lambda: pd_report(line)["pd_holds"])
    yield ("PD report: axes fail at (0,0) vs (1,1)",
           lambda: (lambda rep: not rep["pd_holds"] and any(
               f["p"] == 0 and f["q"] == 0 and f["ordinary"] == 1
               and f["compact_dual"] == 2 for f in rep["pd_failures"]))(
               pd_report(axes())))
    yield ("PD report: R passes",
           lambda: pd_report(r1())["pd_holds"])


def cmd_corpus(args):
    results = []
    failed = 0
    for name, check in _corpus_checks():
        try:
            ok = bool(check())
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            ok = False
            name = f"{name} (error: {exc})"
        results.append((name, ok))
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += 0 if ok else 1
    if args.out:
        _write(args.out, tio.canonical_json(
            {"results": [{"name": n, "pass": ok} for n, ok in results]}))
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ParseError, so a bad
    argument gets the same JSON report and exit code 2 as a bad file.
    Subparsers are built from the same class; `--help` still exits 0."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tropicoh",
        description="Exact workbench for tropical cohomology, Bergman fans, "
                    "modifications and superform integration.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_out(p):
        p.add_argument("--out", help="also write the report to this path")

    p = sub.add_parser("validate", help="parse and validate a complex file")
    p.add_argument("complex")
    add_out(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("balanced", help="check the balancing condition")
    p.add_argument("complex")
    add_out(p)
    p.set_defaults(func=cmd_balanced)

    p = sub.add_parser("betti", help="Betti tables of a complex")
    p.add_argument("complex")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--compact", dest="flavor", action="store_const",
                       const="compact", default="both")
    group.add_argument("--ordinary", dest="flavor", action="store_const",
                       const="ordinary")
    group.add_argument("--both", dest="flavor", action="store_const",
                       const="both")
    add_out(p)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("pd-report", help="Poincare duality report")
    p.add_argument("complex")
    add_out(p)
    p.set_defaults(func=cmd_pd_report)

    for verb, func in (("bergman", cmd_bergman), ("os-dims", cmd_os_dims)):
        p = sub.add_parser(verb)
        p.add_argument("--uniform", nargs=2, type=int, metavar=("R", "N"))
        p.add_argument("--graph", nargs="+", metavar="U,V")
        p.add_argument("--file")
        add_out(p)
        p.set_defaults(func=func)

    p = sub.add_parser("modify", help="open tropical modification")
    p.add_argument("complex")
    p.add_argument("function")
    add_out(p)
    p.set_defaults(func=cmd_modify)

    p = sub.add_parser("closed-modify", help="closed tropical modification")
    p.add_argument("complex")
    p.add_argument("function")
    add_out(p)
    p.set_defaults(func=cmd_closed_modify)

    p = sub.add_parser("project", help="analyze a coordinate projection")
    p.add_argument("complex")
    p.add_argument("--coordinate", type=int, required=True,
                   help="1-based coordinate index")
    add_out(p)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("stokes", help="balanced-face cancellation checks")
    p.add_argument("complex")
    p.add_argument("--form", help="superform file; default constant form")
    p.add_argument("--box", type=int, default=2,
                   help="half-width of the truncation box")
    add_out(p)
    p.set_defaults(func=cmd_stokes)

    p = sub.add_parser("cellsheaf-betti",
                       help="cohomology of an abstract cell sheaf")
    p.add_argument("sheaf")
    add_out(p)
    p.set_defaults(func=cmd_cellsheaf_betti)

    p = sub.add_parser("corpus", help="run the built-in regression corpus")
    add_out(p)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except ParseError as exc:
        _emit({"error": "parse", "message": str(exc)})
        return 2
    try:
        return args.func(args)
    except ParseError as exc:
        _emit({"error": "parse", "message": str(exc)})
        return 2
    except TropicohError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
