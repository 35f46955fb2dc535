"""Cross-cutting spec invariants not tied to a single module."""

import ast
import hashlib
import importlib
import inspect
import json
import pkgutil
from fractions import Fraction
from pathlib import Path

import tropicoh
from tropicoh import chains, cohomology, convex, polyhedral
from tropicoh import io as tio
from tropicoh.cli import main
from tropicoh.cohomology import (
    build_cosheaf,
    build_sheaf,
    inclusion_map,
    multitangent_space,
    ordinary_cohomology,
)
from tropicoh.linalg import (
    Lattice,
    mat,
    mat_transpose,
    vdot,
    vec,
    wedge_vector,
)
from tropicoh.matroids import bergman_fan, uniform_matroid
from tropicoh.polyhedral import (
    Polyhedron,
    build_complex,
    closure_in,
    from_hrep,
    product,
)

F = Fraction


def tropical_line(weights=(1, 1, 1)):
    rays = [(-1, 0), (0, -1), (1, 1)]
    return build_complex([(Polyhedron(2, [(0, 0)], [r]), w)
                          for r, w in zip(rays, weights)])


def test_cone_shortcut_matches_generic_engine():
    # The contracting-homotopy collapse for posets with a minimum must
    # agree with the order-complex computation, degree by degree.
    cases = [
        tropical_line(),
        bergman_fan(uniform_matroid(3, 4)),
        product(tropical_line(), 1, tropical=True),
        closure_in(tropical_line(), [0, 1]),
    ]
    for c in cases:
        for p in range(c.n + 1):
            sheaf = build_sheaf(c, p)
            fast = ordinary_cohomology(sheaf)
            slow = ordinary_cohomology(sheaf, cone_shortcut=False)
            assert fast == slow, (c, p)


def test_cover_containment():
    # Every covering pair has the face inside the closure of the coface.
    for c in (closure_in(tropical_line(), [0, 1]),
              bergman_fan(uniform_matroid(3, 4))):
        for t, s in c.covers:
            tau, sigma = c.cells[t], c.cells[s]
            assert tau.dim + 1 == sigma.dim
            if tau.sedentarity == sigma.sedentarity:
                assert sigma.contains_polyhedron(tau)
            else:
                assert tau.sedentarity > sigma.sedentarity


def test_inclusion_map_same_cell_is_identity():
    line = tropical_line()
    for i in range(len(line.cells)):
        dim = multitangent_space(line, i, 1).dim
        m = inclusion_map(line, i, i, 1)
        assert m == tuple(tuple(F(1 if a == b else 0) for b in range(dim))
                          for a in range(dim))


def test_degree_detector_on_unbalanced_mutant():
    # On the (1,1,2)-weighted line the raw top pairing does not vanish on
    # coboundaries: the degree map fails to descend exactly because the
    # fundamental cycle has boundary.
    line = tropical_line((1, 1, 2))
    v = line.cells_of_dim(0)[0]
    found_nonzero = False
    for b in ((F(1), F(0)), (F(0), F(1))):
        raw = F(0)
        for s in line.covers_of(v):
            m = inclusion_map(line, v, s, 1)
            r = mat_transpose(mat(m))
            coeffs = tuple(vdot(row, vec(b)) * line.signs[(v, s)]
                           for row in r)
            omega = wedge_vector(line.cells[s].orientation)
            f1 = multitangent_space(line, s, 1)
            coords = vec(f1.coords(omega))
            raw += line.weights.get(s, 1) * vdot(vec(coeffs), coords)
        if raw != 0:
            found_nonzero = True
    assert found_nonzero


def test_betti_tables_zero_above_dimension():
    from tropicoh.cohomology import betti_tables
    ordinary, compact = betti_tables(tropical_line())
    assert ordinary.n == 1 and compact.n == 1
    assert all(x >= 0 for row in ordinary.h for x in row)
    assert all(x >= 0 for row in compact.h for x in row)


def test_constant_cosheaf_on_line():
    cos = build_cosheaf(tropical_line(), 0)
    assert all(c.space_dim == 1 for c in cos.cells)
    assert all(m == ((F(1),),) for m in cos.cover_maps.values())


def test_no_module_level_dicts():
    # Memoized derived data lives in lru_cache helpers or on the objects it
    # belongs to, never in ad-hoc module-level dicts.
    for info in pkgutil.iter_modules(tropicoh.__path__):
        module = importlib.import_module(f"tropicoh.{info.name}")
        held = [name for name, value in vars(module).items()
                if isinstance(value, dict) and not name.startswith("__")]
        assert not held, f"tropicoh.{info.name} holds dicts {held}"


def test_polyhedral_memo_is_the_interned_cell():
    # Everything derived from one cell is kept on the interned cell, and
    # everything derived from one complex on the interned complex, so
    # polyhedral holds two lru_cache helpers, the two internings.  A
    # rebuilt complex is the earlier one, so no cell keeps answers that
    # only a complex asks for: pairs, incidence signs and F_p sums.
    helpers = [name for name, value in vars(polyhedral).items()
               if hasattr(value, "cache_info")
               and value.__module__ == polyhedral.__name__]
    assert helpers == ["_interned", "_interned_complex"]
    for name in ("_hrep_of", "_tangent_of", "_lattice_of", "_orientation"):
        assert not hasattr(polyhedral, name), name
    for name in ("_signature", "_signs", "_pairs", "_multitangent"):
        assert not hasattr(Polyhedron, name), name
    assert not hasattr(tropical_line(), "orientations")


def test_one_lru_cache_in_the_package():
    # The interned cell and the interned complex are the package's only
    # lru_caches; every other memo lives on the cell or the complex it
    # belongs to.
    helpers = []
    for info in pkgutil.iter_modules(tropicoh.__path__):
        module = importlib.import_module(f"tropicoh.{info.name}")
        helpers += [f"{info.name}.{name}"
                    for name, value in vars(module).items()
                    if hasattr(value, "cache_info")
                    and value.__module__ == module.__name__]
    assert helpers == ["polyhedral._interned", "polyhedral._interned_complex"]


def _unused_imports(path):
    """The names a module imports and never reads, with their lines."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in read]


def test_no_unused_imports():
    # The package's __init__ imports to re-export, so it is left out.
    package = Path(tropicoh.__file__).parent
    paths = ([p for p in sorted(package.glob("*.py"))
              if p.name != "__init__.py"]
             + sorted(Path(__file__).parent.glob("*.py")))
    unused = [u for p in paths for u in _unused_imports(p)]
    assert not unused, unused


def test_one_hrep_to_vrep_path():
    # Cells cut from inequalities are built by polyhedral.from_hrep alone,
    # so a change to vertex enumeration has one entry point to follow.
    package = Path(tropicoh.__file__).parent
    allowed = inspect.getsource(from_hrep).count("polyhedron_generators")
    assert allowed == 1
    for path in sorted(package.glob("*.py")):
        if path.name == "convex.py":
            continue
        uses = path.read_text().count("polyhedron_generators")
        expected = allowed if path.name == "polyhedral.py" else 0
        assert uses == expected, f"{path.name} calls polyhedron_generators"


def test_one_vrep_to_hrep_path():
    # Facets are enumerated only inside the convex kernel, where
    # polyhedron_facets calls cone_facets; a recession cone is read from
    # the cell's H-rep instead.
    assert inspect.getsource(convex.polyhedron_facets).count("cone_facets") == 1
    package = Path(tropicoh.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "convex.py":
            assert "cone_facets" not in path.read_text(), path.name


def test_facets_enumerated_only_for_the_cell_hrep():
    # Outside the convex kernel, polyhedron_facets runs only in
    # Polyhedron.hrep; triangulation and everything else read the cell.
    package = Path(tropicoh.__file__).parent
    allowed = inspect.getsource(Polyhedron.hrep.func).count(
        "polyhedron_facets")
    assert allowed == 1
    for path in sorted(package.glob("*.py")):
        if path.name == "convex.py":
            continue
        uses = path.read_text().count("polyhedron_facets")
        expected = allowed if path.name == "polyhedral.py" else 0
        assert uses == expected, f"{path.name} calls polyhedron_facets"


def test_cell_comparisons_read_the_cleared_vertices():
    # Vertices are cleared of denominators once per cell, in _cleared;
    # half-space questions go through Polyhedron.side.
    package = Path(tropicoh.__file__).parent
    allowed = inspect.getsource(Polyhedron._cleared.func).count(
        "clear_denominators(")
    assert allowed == 1
    polyhedral_uses = (package / "polyhedral.py").read_text().count(
        "clear_denominators(")
    assert polyhedral_uses == allowed
    assert "clear_denominators" not in (
        package / "modifications.py").read_text()


def test_facet_normal_read_off_its_inequality():
    # A facet's primitive normal comes from its inequality, by extended
    # gcds over Z(sigma): no Smith form, no orienting witness point.  The
    # Smith form has one caller left, the lattice saturation.
    package = Path(tropicoh.__file__).parent
    allowed = inspect.getsource(Lattice.from_subspace).count(
        "smith_normal_form(")
    assert allowed == 1
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        assert "lattice_quotient_primitive" not in text, path.name
        uses = text.count("smith_normal_form(") - text.count(
            "def smith_normal_form(")
        expected = allowed if path.name == "linalg.py" else 0
        assert uses == expected, f"{path.name} calls smith_normal_form"
    source = inspect.getsource(polyhedral.lattice_quotient)
    assert "relint_point" not in source
    assert "hrep" in source


def test_cone_kernel_is_one_double_description():
    # Extreme rays come from the incremental double description, never
    # from enumerating subsets, and facet normals are the dual cone's rays,
    # so both directions go through the one enumeration in cone_rays.
    assert "combinations" not in Path(convex.__file__).read_text()
    assert "cone_rays(" in inspect.getsource(convex.cone_facets)


def test_exact_kernel_returns_fractions():
    # A cell key's offsets are ints exactly when integral, so keys hash
    # ints, and a Fraction offset always keeps a denominator.  Vertices
    # and subspace bases stay Fraction; orientations are integer rows.
    # What an int could change, the canonical output, is pinned by
    # test_canonical_reports_frozen.
    half = F(1, 2)
    cases = [product(tropical_line(), 1, tropical=True),
             build_complex([Polyhedron(2, [(half, 0), (half, 1)])]),
             build_complex([Polyhedron(2, [(half, 0), (0, F(1, 3)),
                                           (1, 1)])])]
    kinds = set()
    for c in cases:
        spaces = []
        for i, cell in enumerate(c.cells):
            eqs, ineqs = cell.key[2], cell.key[3]
            for a, b in eqs + ineqs:
                assert all(type(x) is int for x in a)
                assert type(b) is int or (type(b) is F and b.denominator > 1)
                kinds.add(type(b))
            assert all(type(x) is F for v in cell.vertices for x in v)
            assert all(type(x) is int for row in cell.orientation
                       for x in row)
            spaces.append(cell.tangent)
            spaces.extend(multitangent_space(c, i, p)
                          for p in range(c.n + 1))
        assert all(type(x) is F for s in spaces for row in s.basis
                   for x in row)
    assert kinds == {int, F}


# sha256 of the canonical JSON on stdout, and `content_hash` of the report,
# for each CLI call of `_canonical_reports`.
_FROZEN_REPORTS = {
    "validate closed-line": (
        "64bd2a6e2e1461413fb8ba20e19237df31567d885a277fa6bb03144af11357f3",
        "f17e46b18386b0b4ab1cd88c27c545d0e12b87208a197ed53ca023c5305bcb9b"),
    "validate line-x-t": (
        "c325326714b1351850fcfb4575e60b4c2391426204a9f9a1ccb99366b63c59ed",
        "de7c19685ba78ec62685705f301e7265ee74890bb6f578b77c3007067c4c5115"),
    "validate segment-x-half": (
        "bef5d3935aa55b4c72cd658db053fd764f651f63d81a797ed90f3c30cf067944",
        "4d5626265a3bf0cb61d8c3f947322523c7f9e3ee09ff02f7a3c1e1eca099a4ee"),
    "validate triangle": (
        "9fc6da95702673f55afcf7924f6d16fdbbfa2dd56c37aed5248920ab2f183a74",
        "39842bdef6cf9756dceaf1ce9c9e90c0c8f9e4cdce3ce6b36d8cd9c096d2ea4d"),
    "modify r1 max-half-x": (
        "7611bc53035c1ebd164e93ca02d973ee672027c09195374dea3d3f4c01d1bbe7",
        "d0ec0d665b5a6ca858961230a2907990085839f27ae4b312eccae6091f590b23"),
    "modify line max-third-x1": (
        "36544aaf1126d05f3018c9b9b70b2b22899c55d68eb695466f1e1baaf813bec0",
        "b0ee2c9dc90a89ec2fa89c1ac25c58cbaaf1f6e2374aa1ec0d7fc2c2134840ab"),
    "project line 2": (
        "0b80fcead090fe7f221e43c9d057396c414088639e38c839bb343ae8a1e4f7a2",
        "a025e7e739525d30a6e57fc60507fbbb29fe0975686483a0d8956a4af0ff0c41"),
}


def _canonical_reports(tmp_path, capsys):
    half, third = F(1, 2), F(1, 3)
    r1 = build_complex([Polyhedron(1, [(0,)], [(1,)]),
                        Polyhedron(1, [(0,)], [(-1,)])])
    complexes = {
        "closed-line": closure_in(tropical_line(), [0, 1]),
        "line-x-t": product(tropical_line(), 1, tropical=True),
        "segment-x-half": build_complex([Polyhedron(2, [(half, 0),
                                                        (half, 1)])]),
        "triangle": build_complex([Polyhedron(2, [(half, 0), (0, third),
                                                  (1, 1)])]),
        "r1": r1,
        "line": tropical_line(),
    }
    functions = {
        "max-half-x": {"mode": "max", "terms": [
            {"coeff": "1/2", "exponents": [0]},
            {"coeff": 0, "exponents": [1]}]},
        "max-third-x1": {"mode": "max", "terms": [
            {"coeff": "1/3", "exponents": [0, 0]},
            {"coeff": 0, "exponents": [1, 0]}]},
    }
    for name, c in complexes.items():
        tio.save_complex(c, tmp_path / f"{name}.json")
    for name, f in functions.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(f))
    path = lambda name: str(tmp_path / f"{name}.json")
    calls = [(f"validate {name}", ["validate", path(name)])
             for name in ("closed-line", "line-x-t", "segment-x-half",
                          "triangle")]
    calls += [("modify r1 max-half-x",
               ["modify", path("r1"), path("max-half-x")]),
              ("modify line max-third-x1",
               ["modify", path("line"), path("max-third-x1")]),
              ("project line 2",
               ["project", path("line"), "--coordinate", "2"])]
    out = {}
    for name, argv in calls:
        assert main(argv) == 0, name
        text = capsys.readouterr().out
        out[name] = (hashlib.sha256(text.encode()).hexdigest(),
                     tio.content_hash(json.loads(text)))
        if argv[0] == "modify":
            # Projecting the cycle along its new, last coordinate gives
            # the same report, rational offsets and all.
            cycle = json.loads(text)["cycle"]
            cpath = tmp_path / f"cycle-{len(out)}.json"
            cpath.write_text(tio.canonical_json(cycle))
            assert main(["project", str(cpath), "--coordinate",
                         str(cycle["ambient_dim"])]) == 0, name
            assert capsys.readouterr().out == text, name
    return out


def test_canonical_reports_frozen(tmp_path, capsys):
    # Canonical JSON and content hashes of validate, modify and project
    # reports on cells with integral and rational offsets, frozen when
    # every offset was a Fraction.
    assert _canonical_reports(tmp_path, capsys) == _FROZEN_REPORTS


def test_imports_at_module_level():
    # No module breaks an import cycle, so every relative import sits at
    # the top instead of running again on each call.
    package = Path(tropicoh.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                assert not (isinstance(node, ast.ImportFrom) and node.level), (
                    f"{path.name}:{node.lineno} imports inside {func.name}")


def test_faces_found_by_faces_alone():
    # Validation looks intersections up in the face sets the closure
    # lists, and incidence signs take the outward side from
    # relative-interior points instead of a primitive normal.
    assert not hasattr(polyhedral, "_tight_face")
    assert "lattice_quotient" not in inspect.getsource(
        polyhedral._incidence_sign)


def test_unchecked_sheaf_datum_only_built_in_cohomology():
    # Data from outside goes through the checking constructor; only the
    # sheaf build and transpose, whose diamonds commute by construction,
    # skip the checks.  The sheaf maps are pivot reads, not coordinate
    # solves.
    package = Path(tropicoh.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_unchecked":
                assert path.name == "cohomology.py", (
                    f"{path.name}:{node.lineno} skips the datum checks")
        if path.name == "cohomology.py":
            callers = {func.name for func in ast.walk(tree)
                       if isinstance(func, ast.FunctionDef)
                       and "._unchecked(" in ast.unparse(func)}
    assert callers == {"transpose", "build_cosheaf"}
    for func in (inclusion_map, build_cosheaf):
        source = inspect.getsource(func)
        assert "coords(" not in source and "_validate" not in source
    assert "image escapes" not in inspect.getsource(cohomology)


def test_coordinates_read_at_pivots():
    # Coordinates in an echelon or Hermite basis are read at its pivots
    # (`Subspace.reduce`, `Lattice.coords`, the functional of a graph in
    # `modifications`), so no linear solve is left in the library.
    package = Path(tropicoh.__file__).parent
    callers = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "solve"):
                    callers.append((path.name, func.name))
    assert callers == []
    assert not hasattr(polyhedral, "_escape_vector")
    calls = {node.func.id if isinstance(node.func, ast.Name)
             else node.func.attr
             for node in ast.walk(ast.parse(
                 inspect.getsource(polyhedral._incidence_sign)))
             if isinstance(node, ast.Call)
             and isinstance(node.func, (ast.Name, ast.Attribute))}
    assert not calls & {"solve", "intersection"}


def test_reduction_never_divides():
    # The Schur update multiplies by the unit pivot: `x / lam` on ints is
    # a float, which the exact contract forbids.
    tree = ast.parse(Path(chains.__file__).read_text())
    divisions = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.Div)]
    assert not divisions, f"chains.py divides at lines {divisions}"


def test_cochain_entries_are_ints_where_integral(engine_differentials):
    # Cover maps are narrowed when a datum is set up, so every integral
    # entry of both engines' differentials is an int and only an entry
    # with a denominator is a Fraction; never a float.
    kinds = set()
    for _, diffs in engine_differentials:
        for d in diffs:
            for v in d.values():
                assert type(v) is int or (type(v) is F and v.denominator != 1)
                kinds.add(type(v))
    assert int in kinds
