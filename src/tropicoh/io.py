"""File formats: complexes, matroids, cell sheaves, functions, superforms.

Everything is canonical JSON with rationals as "a/b" strings and -infinity
as "-inf".  Coordinates and wedge indices are 1-based in files, matching
the usual x_1..x_r conventions; internally everything is 0-based.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .cohomology import SHEAF, COSHEAF, CellularSheafDatum, SheafCell
from .errors import ParseError
from .matroids import Matroid, matroid_from
from .modifications import MAX, MIN, PLFunction
from .polyhedral import NEG_INF, Polyhedron, PolyhedralComplex, build_complex
from .polynomial import Poly
from .superforms import PolySuperform


def rational_to_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def parse_rational(s):
    if isinstance(s, bool):
        raise ParseError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {s!r}") from exc
    raise ParseError(f"not a rational: {s!r}")


def parse_int(s) -> int:
    """An integer given as a JSON integer or an integer string.

    Floats and booleans are refused rather than truncated.
    """
    if isinstance(s, bool):
        raise ParseError(f"not an integer: {s!r}")
    if isinstance(s, int):
        return s
    if isinstance(s, str):
        try:
            return int(s)
        except ValueError as exc:
            raise ParseError(f"not an integer: {s!r}") from exc
    raise ParseError(f"not an integer: {s!r}")


def parse_list(s, what: str) -> list:
    """A JSON array.  Strings and objects are refused rather than iterated."""
    if not isinstance(s, list):
        raise ParseError(f"{what} is not an array: {s!r}")
    return s


def parse_extended(s):
    if s == "-inf":
        return NEG_INF
    return parse_rational(s)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def content_hash(obj) -> str:
    compact = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(compact.encode()).hexdigest()


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


# -- complexes ------------------------------------------------------------------


def complex_to_dict(c: PolyhedralComplex) -> dict:
    cells = []
    for i in c.facet_indices():
        cell = c.cells[i]
        verts = []
        for v in cell.vertices:
            verts.append(["-inf" if j in cell.sedentarity else
                          rational_to_str(x) for j, x in enumerate(v)])
        rays = [[rational_to_str(x) for x in r] for r in cell.rays]
        cells.append({"vertices": verts, "rays": rays,
                      "weight": c.weight(i)})
    return {
        "ambient_dim": c.ambient_dim,
        "tropical_coords": sorted(i + 1 for i in c.tropical_coords),
        "maximal_cells": cells,
    }


def complex_from_dict(data) -> PolyhedralComplex:
    try:
        ambient = parse_int(data["ambient_dim"])
        raw_cells = parse_list(data["maximal_cells"], "maximal_cells")
        tropical = {parse_int(i) - 1 for i in
                    parse_list(data.get("tropical_coords", []),
                               "tropical_coords")}
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad complex object: {exc}") from exc
    if any(i < 0 or i >= ambient for i in tropical):
        raise ParseError("tropical_coords out of range")
    maximal = []
    for entry in raw_cells:
        try:
            verts = [[parse_extended(x) for x in parse_list(v, "vertex")]
                     for v in parse_list(entry["vertices"], "vertices")]
            rays = [[parse_rational(x) for x in parse_list(r, "ray")]
                    for r in parse_list(entry.get("rays", []), "rays")]
            weight = parse_int(entry.get("weight", 1))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad cell entry: {exc}") from exc
        try:
            maximal.append((Polyhedron(ambient, verts, rays), weight))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    return build_complex(maximal, tropical_coords=tropical)


def load_complex(path) -> PolyhedralComplex:
    return complex_from_dict(_load_json(path))


def save_complex(c: PolyhedralComplex, path):
    with open(path, "w") as fh:
        fh.write(canonical_json(complex_to_dict(c)))


# -- matroids -------------------------------------------------------------------


def load_matroid(path) -> Matroid:
    data = _load_json(path)
    try:
        if "uniform" in data:
            data = {"uniform": [parse_int(x) for x in
                                parse_list(data["uniform"], "uniform")]}
        elif "graph" in data:
            data = {"graph": [parse_list(e, "edge")
                              for e in parse_list(data["graph"], "graph")]}
        else:
            data = {"ground_size": parse_int(data["ground_size"]),
                    "bases": [[parse_int(x) for x in parse_list(b, "basis")]
                              for b in parse_list(data["bases"], "bases")]}
        return matroid_from(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad matroid object: {exc}") from exc


# -- cell sheaves ----------------------------------------------------------------


def cellsheaf_from_dict(data) -> CellularSheafDatum:
    try:
        raw_cells = parse_list(data["cells"], "cells")
        raw_relations = parse_list(data["relations"], "relations")
        direction = data.get("direction", SHEAF)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad cell-sheaf object: {exc}") from exc
    if direction not in (SHEAF, COSHEAF):
        raise ParseError(f"unknown direction {direction!r}")
    cells = []
    index = {}
    for entry in raw_cells:
        try:
            cell = SheafCell(str(entry["id"]), parse_int(entry["dim"]),
                             parse_int(entry["space_dim"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad cell entry: {exc}") from exc
        if cell.dim < 0 or cell.space_dim < 0:
            raise ParseError(f"negative dimension in cell {cell.id}")
        if cell.id in index:
            raise ParseError(f"duplicate cell id {cell.id}")
        index[cell.id] = len(cells)
        cells.append(cell)
    maps = {}
    for entry in raw_relations:
        try:
            lo = index[str(entry["from"])]
            hi = index[str(entry["to"])]
            matrix = tuple(tuple(parse_rational(x)
                                 for x in parse_list(row, "matrix row"))
                           for row in parse_list(entry["matrix"], "matrix"))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad relation entry: {exc}") from exc
        if (lo, hi) in maps:
            raise ParseError(f"duplicate relation {cells[lo].id} -> "
                             f"{cells[hi].id}")
        maps[(lo, hi)] = matrix
    return CellularSheafDatum(cells, maps, direction)


def load_cellsheaf(path) -> CellularSheafDatum:
    """Parse and validate a cell-sheaf file (diamond commutation included)."""
    return cellsheaf_from_dict(_load_json(path))


# -- piecewise linear functions -----------------------------------------------------


def plfunction_from_dict(data, reference=None) -> PLFunction:
    if not isinstance(data, dict):
        raise ParseError(f"a function is a JSON object, not {data!r}")
    if "terms" in data:
        try:
            terms = [(parse_rational(t["coeff"]),
                      tuple(parse_int(e) for e in
                            parse_list(t["exponents"], "exponents")))
                     for t in parse_list(data["terms"], "terms")]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad tropical polynomial: {exc}") from exc
        mode = data.get("mode", MAX)
        if mode not in (MAX, MIN):
            raise ParseError(f"mode must be max or min, not {mode!r}")
        if reference is not None and any(
                len(e) != reference.ambient_dim for _, e in terms):
            raise ParseError(f"exponents must have length "
                             f"{reference.ambient_dim}")
        return PLFunction(mode, terms=terms)
    if "per_facet" in data:
        if reference is None:
            raise ParseError("per-facet functions need a reference complex")
        facets = reference.facet_indices()
        per_facet = {}
        for entry in parse_list(data["per_facet"], "per_facet"):
            try:
                idx = parse_int(entry["cell_id"])
                lin = [parse_rational(x)
                       for x in parse_list(entry["linear"], "linear")]
                const = parse_rational(entry["constant"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad per-facet entry: {exc}") from exc
            if idx < 0 or idx >= len(facets):
                raise ParseError(f"cell_id {idx} out of range")
            if len(lin) != reference.ambient_dim:
                raise ParseError(f"linear must have length "
                                 f"{reference.ambient_dim}")
            key = reference.cells[facets[idx]].key
            if key in per_facet:
                raise ParseError(f"duplicate cell_id {idx}")
            per_facet[key] = (lin, const)
        return PLFunction(per_facet=per_facet)
    raise ParseError("function needs either terms or per_facet")


def load_plfunction(path, reference=None) -> PLFunction:
    return plfunction_from_dict(_load_json(path), reference)


# -- superforms ----------------------------------------------------------------------


def superform_from_dict(data) -> PolySuperform:
    try:
        ambient = parse_int(data["ambient_dim"])
        p = parse_int(data["p"])
        q = parse_int(data["q"])
        raw_terms = parse_list(data["terms"], "terms")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad superform object: {exc}") from exc
    terms = {}
    for entry in raw_terms:
        try:
            k = tuple(parse_int(i) - 1 for i in parse_list(entry["K"], "K"))
            l = tuple(parse_int(i) - 1 for i in parse_list(entry["L"], "L"))
            poly_terms = {}
            for t in parse_list(entry["poly"], "poly"):
                mono = tuple(parse_int(e) for e in
                             parse_list(t["exponents"], "exponents"))
                poly_terms[mono] = poly_terms.get(mono, Fraction(0)) + \
                    parse_rational(t["coeff"])
            poly = Poly(ambient, poly_terms)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad superform term: {exc}") from exc
        key = (k, l)
        terms[key] = terms[key] + poly if key in terms else poly
    try:
        return PolySuperform(ambient, p, q, terms)
    except Exception as exc:
        raise ParseError(str(exc)) from exc


def load_superform(path) -> PolySuperform:
    return superform_from_dict(_load_json(path))
