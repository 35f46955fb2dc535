"""Polyhedra in T^r, complexes, sedentarity, balancing."""

import ast
import inspect
import itertools
import random
import sys
import textwrap
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropicoh import convex, polyhedral
from tropicoh.cohomology import build_sheaf, multitangent_space
from tropicoh.errors import (
    CodimensionError,
    ComplexAxiomError,
    DimensionError,
    ValidationError,
)
from tropicoh.io import complex_to_dict
from tropicoh.matroids import bergman_fan, graphic_matroid, uniform_matroid
from tropicoh.modifications import (
    MAX,
    PLFunction,
    closed_modification,
    complete_modification,
)
from tropicoh.linalg import (
    Lattice,
    Subspace,
    clear_denominators,
    det,
    idet,
    idot,
    is_zero_vec,
    kernel_basis,
    mat,
    primitive,
    rref,
    solve,
    unit_vec,
    vadd,
    vdot,
    vec,
    vscale,
    vsub,
    zero_vec,
)
from tropicoh.polynomial import Poly
from tropicoh.polyhedral import (
    NEG_INF,
    Polyhedron,
    build_complex,
    closure_in,
    faces,
    from_hrep,
    fundamental_cycle_boundary,
    infinite_faces,
    intersect,
    is_balanced,
    lattice_quotient,
    product,
    restrict_to_stratum,
    sedentarity_of,
    star,
    stratum_piece,
)
from tropicoh.superforms import (
    PolySuperform,
    boundary_integral,
    contract,
    integrate_cell,
)

F = Fraction


def tropical_line(weights=(1, 1, 1)):
    rays = [(-1, 0), (0, -1), (1, 1)]
    cells = [(Polyhedron(2, [(0, 0)], [r]), w) for r, w in zip(rays, weights)]
    return build_complex(cells)


def r1_complex():
    return build_complex([
        (Polyhedron(1, [(0,)], [(1,)]), 1),
        (Polyhedron(1, [(0,)], [(-1,)]), 1),
    ])


def axes_complex():
    rays = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    return build_complex([(Polyhedron(2, [(0, 0)], [r]), 1) for r in rays])


def t1_complex():
    # The interval T^1: one mobile edge, closed at -infinity.
    return build_complex([(Polyhedron(1, [(0,)], [(1,), (-1,)]), 1)],
                         tropical_coords=[0])


def test_sedentarity_of_point():
    assert sedentarity_of((NEG_INF, F(3), NEG_INF)) == {0, 2}
    assert sedentarity_of((F(1), F(2))) == frozenset()


def test_vertices_at_infinity_in_different_coordinates_are_refused():
    # A finite 0 used to be read as the -inf placeholder of the other
    # vertex, giving a segment of sedentarity {0}.
    for verts in ([(NEG_INF, 0), (0, 1)], [(0, 1), (NEG_INF, 0)],
                  [(NEG_INF, 0), (0, NEG_INF)]):
        with pytest.raises(ValueError, match="different coordinates"):
            Polyhedron(2, verts)
    assert Polyhedron(2, [(NEG_INF, 0), (NEG_INF, 1)]).sedentarity == {0}
    placeholder = Polyhedron(2, [(0, 0), (0, 1)], sedentarity={0})
    assert placeholder is Polyhedron(2, [(NEG_INF, 0), (NEG_INF, 1)])


def test_vrep_to_hrep_segment():
    p = Polyhedron(1, [(0,), (1,)])
    ineqs = p.hrep[1]
    assert sorted(ineqs) == [((-1,), F(-1)), ((1,), F(0))]


def test_vrep_to_hrep_diagonal_ray():
    p = Polyhedron(2, [(0, 0)], [(1, 1)])
    eqs, ineqs = p.hrep
    assert len(eqs) == 1 and len(ineqs) == 1


def test_vrep_to_hrep_full_plane():
    p = Polyhedron(2, [(0, 0)], [(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert p.hrep[1] == ()


def test_faces_triangle():
    p = Polyhedron(2, [(0, 0), (1, 0), (0, 1)])
    fs = faces(p)
    by_dim = {}
    for f in fs:
        by_dim.setdefault(f.dim, []).append(f)
    assert len(by_dim[2]) == 1
    assert len(by_dim[1]) == 3
    assert len(by_dim[0]) == 3


def test_faces_ray():
    p = Polyhedron(2, [(0, 0)], [(1, 1)])
    fs = faces(p)
    assert len(fs) == 2
    assert {f.dim for f in fs} == {0, 1}


def test_faces_bergman_flag_cone():
    # Cone of the flag {1} in {1,2} of U_{3,4} has two rays and the origin.
    r1 = (-1, 0, 0)
    r2 = (-1, -1, 0)
    p = Polyhedron(3, [(0, 0, 0)], [r1, r2])
    fs = faces(p)
    assert sorted(f.dim for f in fs) == [0, 1, 1, 2]


def test_euler_relation_on_polytopes():
    # Alternating face count of a bounded polytope is 1.
    cube = Polyhedron(3, [(x, y, z) for x in (0, 1) for y in (0, 1)
                          for z in (0, 1)])
    total = sum((-1) ** f.dim for f in faces(cube))
    assert total == 1


def test_infinite_faces_t1():
    p = Polyhedron(1, [(0,)], [(-1,)])
    fs = infinite_faces(p, [0])
    assert len(fs) == 1
    assert fs[0].sedentarity == {0}
    assert fs[0].dim == 0


def test_infinite_faces_halfplane():
    # closure of {y >= x} in T^2, stratum {0}: all of the y-axis copy.
    p = Polyhedron(2, [(0, 0)], [(-1, 0), (1, 1), (-1, -1)])
    fs = infinite_faces(p, [0])
    assert len(fs) == 1
    piece = fs[0]
    assert piece.sedentarity == {0}
    assert piece.dim == 1


def test_infinite_faces_antidiagonal_empty():
    # closure of {y = -x, x <= 0}: no recession vector supported on {0}.
    p = Polyhedron(2, [(0, 0)], [(-1, 1)])
    assert infinite_faces(p, [0]) == []


def test_infinite_faces_composition_consistency():
    # The J2-face of the J1-face equals the (J1 u J2)-face.
    p = Polyhedron(2, [(0, 0)], [(-1, 0), (0, -1), (-1, -1)])
    direct = stratum_piece(p, frozenset({0, 1}))
    step1 = stratum_piece(p, frozenset({0}))
    step2 = stratum_piece(step1, frozenset({1}))
    assert direct is not None and step2 is not None
    assert direct.key == step2.key


_QUADRANT = Polyhedron(2, [(0, 0)], [(-1, 0), (0, -1)])


@pytest.mark.parametrize("extra", [{7}, {-1}, {0, 5}, {2}, set()])
def test_stratum_piece_refuses_coordinates_outside_t_r(extra):
    # Checked before the memo, so a refused set is refused again and is
    # never stored.
    for _ in range(2):
        with pytest.raises(DimensionError):
            stratum_piece(_QUADRANT, frozenset(extra))
    assert all(key and max(key) < 2 and min(key) >= 0
               for key in _QUADRANT._pieces)


def test_stratum_piece_refuses_sedentary_coordinates():
    at_infinity = stratum_piece(_QUADRANT, frozenset({0}))
    with pytest.raises(DimensionError):
        stratum_piece(at_infinity, frozenset({0, 1}))
    assert stratum_piece(at_infinity, frozenset({1})).sedentarity == {0, 1}


def test_infinite_faces_refuse_coordinates_outside_t_r():
    for coords in ([7], [-1], [0, 5]):
        with pytest.raises(DimensionError):
            infinite_faces(_QUADRANT, coords)
    assert len(infinite_faces(_QUADRANT, [0, 1])) == 5


def test_build_tropical_line():
    line = tropical_line()
    dims = sorted(c.dim for c in line.cells)
    assert dims == [0, 1, 1, 1]
    assert len(line.facet_indices()) == 3


def test_build_r1():
    c = r1_complex()
    assert sorted(cell.dim for cell in c.cells) == [0, 1, 1]


def test_build_complex_axiom_violation():
    # Two opposite rays overlapping in a segment that is a face of neither.
    bad = [
        (Polyhedron(2, [(0, 0)], [(1, 0)]), 1),
        (Polyhedron(2, [(2, 0)], [(-1, 0)]), 1),
    ]
    with pytest.raises(ComplexAxiomError):
        build_complex(bad)


def test_build_complex_nested_maximal_rejected():
    with pytest.raises(ComplexAxiomError):
        build_complex([
            (Polyhedron(1, [(0,)], [(1,)]), 1),
            (Polyhedron(1, [(1,)], [(1,)]), 1),
        ])


def test_build_complex_listed_face_rejected():
    # A listed cell that is a face of another listed cell, at any depth.
    square = Polyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    for face in (Polyhedron(2, [(0, 0), (1, 0)]), Polyhedron(2, [(1, 1)])):
        with pytest.raises(ComplexAxiomError, match="is contained in"):
            build_complex([(face, 1), (square, 1)])


def test_face_relation_is_graded():
    line = closure_in(tropical_line(), [0, 1])
    for t, s in line.covers:
        assert line.cells[s].dim == line.cells[t].dim + 1


def test_closure_of_line_in_t2():
    line = closure_in(tropical_line(), [0, 1])
    sed_cells = [c for c in line.cells if c.sedentarity]
    assert len(sed_cells) == 2
    assert {tuple(sorted(c.sedentarity)) for c in sed_cells} == {(0,), (1,)}


def test_balanced_line():
    ok, failures = is_balanced(tropical_line())
    assert ok and failures == []


def test_unbalanced_line_defect():
    line = tropical_line((1, 1, 2))
    ok, failures = is_balanced(line)
    assert not ok
    assert len(failures) == 1
    t, defect = failures[0]
    assert line.cells[t].dim == 0
    # Direct sum: -e1 - e2 + 2(e1+e2) = e1 + e2.
    assert defect == (F(1), F(1))


def test_balanced_axes():
    ok, _ = is_balanced(axes_complex())
    assert ok


def test_balanced_t1():
    # The sedentary vertex has no same-sedentarity facet: empty sum.
    ok, _ = is_balanced(t1_complex())
    assert ok


def test_fundamental_cycle_matches_balancing():
    for complex_ in (tropical_line(), tropical_line((1, 1, 2)),
                     tropical_line((2, 1, 1)), axes_complex(), r1_complex(),
                     t1_complex(), closure_in(tropical_line(), [1])):
        ok, _ = is_balanced(complex_)
        boundary = fundamental_cycle_boundary(complex_)
        assert ok == (boundary == {})


def test_fundamental_cycle_unbalanced_value():
    line = tropical_line((1, 1, 2))
    boundary = fundamental_cycle_boundary(line)
    (t, value), = boundary.items()
    # The defect class is +-(e1+e2) in wedge-degree-1 coordinates.
    assert value in ((F(1), F(1)), (F(-1), F(-1)))


def test_segment_not_balanced():
    seg = build_complex([(Polyhedron(1, [(0,), (1,)]), 1)])
    ok, failures = is_balanced(seg)
    assert not ok and len(failures) == 2


def test_star_of_line_at_vertex():
    line = tropical_line()
    v = line.cells_of_dim(0)[0]
    st = star(line, v)
    assert st.same_weighted(tropical_line())


def test_star_of_line_on_ray():
    line = tropical_line()
    ray = next(i for i in line.cells_of_dim(1)
               if line.cells[i].rays == ((-1, 0),))
    st = star(line, ray)
    # A full line through the origin with weight 1.
    assert len(st.facet_indices()) == 1
    facet = st.cells[st.facet_indices()[0]]
    assert facet.dim == 1 and not facet.is_bounded()


def test_star_of_sedentary_vertex():
    line = closure_in(tropical_line(), [0, 1])
    sed_vertex = next(i for i, c in enumerate(line.cells) if c.sedentarity)
    st = star(line, sed_vertex)
    assert len(st.cells) == 1
    assert st.cells[0].dim == 0


def test_star_keeps_maximal_cofaces_of_every_dimension():
    # The cone on e1, e2 and the ray -e1 at the origin: a complex that is
    # not pure, whose star at the origin is the complex itself.
    c = build_complex([(Polyhedron(2, [(0, 0)], [(1, 0), (0, 1)]), 1),
                       (Polyhedron(2, [(0, 0)], [(-1, 0)]), 1)])
    st = star(c, c.cells_of_dim(0)[0])
    assert sorted(cell.dim for cell in st.cells) == [0, 1, 1, 1, 2]
    assert st.same_weighted(c)


_U23 = bergman_fan(uniform_matroid(2, 3))


@pytest.mark.parametrize("call", [
    lambda: Polyhedron(2, [(0, 0)], [], {7}),
    lambda: Polyhedron(2, [(0, 0)], [], {-1}),
    lambda: star(_U23, 999),
    lambda: star(_U23, -1),
    lambda: multitangent_space(_U23, 999, 0),
    lambda: closure_in(_U23, [0, 1, 2]),
    lambda: closure_in(_U23, [5]),
    lambda: product(_U23, -1, True),
    lambda: build_complex([_U23.cells[i] for i in _U23.facet_indices()],
                          [3]),
], ids=["sedentary-7", "sedentary-negative", "star-999", "star-negative",
        "multitangent-999", "closure-012", "closure-5", "product-negative",
        "build-3"])
def test_indices_outside_the_object_raise_dimension_error(call):
    # On the U_{2,3} fan in R^2: cell indices and coordinates that do not
    # exist are refused with a typed error instead of an IndexError, a
    # ValueError or silence.
    with pytest.raises(DimensionError):
        call()


def test_product_point_with_t1():
    pt = build_complex([(Polyhedron(0, [()]), 1)])
    c = product(pt, 1, tropical=True)
    assert sorted(cell.dim for cell in c.cells) == [0, 1]
    assert c.cells[0].sedentarity == {0}


def test_product_line_with_r1():
    c = product(tropical_line(), 1, tropical=False)
    assert len(c.facet_indices()) == 3
    assert c.n == 2
    ok, _ = is_balanced(c)
    assert ok


def test_product_line_with_t1():
    c = product(tropical_line(), 1, tropical=True)
    # The sedentary copy of the line sits at x3 = -infinity.
    stratum = restrict_to_stratum(c, {2})
    assert stratum.same_cells(tropical_line())


def test_restrict_to_stratum():
    line = closure_in(tropical_line(), [0, 1])
    mobile = restrict_to_stratum(line, frozenset())
    assert mobile.same_weighted(tropical_line())
    t1 = t1_complex()
    pt = restrict_to_stratum(t1, {0})
    assert len(pt.cells) == 1 and pt.cells[0].dim == 0


def test_intersect():
    a = Polyhedron(2, [(0, 0), (2, 0), (0, 2)])
    b = Polyhedron(2, [(1, -1), (3, -1), (3, 1), (1, 1)])
    i = intersect(a, b)
    assert i is not None and i.dim == 2
    assert sorted(i.vertices) == [(1, 0), (1, 1), (2, 0)]
    assert intersect(Polyhedron(1, [(0,)]), Polyhedron(1, [(1,)])) is None


def test_cover_thinness():
    # Every 2-interval in the face poset has exactly two middle elements.
    for complex_ in (closure_in(tropical_line(), [0, 1]),
                     product(tropical_line(), 1, tropical=True)):
        for low in range(len(complex_.cells)):
            ups = complex_.covers_of(low)
            for high in set(c2 for u in ups for c2 in complex_.covers_of(u)):
                middles = [u for u in ups if high in complex_.covers_of(u)]
                assert len(middles) in (0, 2)


def test_diagonal_escape_complex():
    # A cell whose closure escapes two coordinates at once.
    sigma = Polyhedron(2, [(0, 0)], [(-1, 0), (-1, -1)])
    c = build_complex([(sigma, 1)], tropical_coords=[0, 1])
    seds = sorted(tuple(sorted(cell.sedentarity)) for cell in c.cells)
    assert ((0, 1) in seds) and ((0,) in seds)
    for t, s in c.covers:
        assert c.cells[s].dim == c.cells[t].dim + 1


def _oracle_intersect(a, b):
    """Intersection computed inside the common affine hull.

    The earlier implementation of `intersect`: the vertex enumeration runs
    in coordinates of the intersection of the two affine hulls and is
    mapped back, instead of on the stacked H-representations.
    """
    if a.sedentarity != b.sedentarity or a.ambient_dim != b.ambient_dim:
        return None
    r = a.ambient_dim
    eq_rows = [tuple(list(vec(n)) + [off])
               for n, off in list(a.hrep[0]) + list(b.hrep[0])]
    if eq_rows:
        red, pivots = rref(eq_rows)
        if any(p == r for p in pivots):
            return None
        point = list(zero_vec(r))
        for row, p in zip(red, pivots):
            point[p] = row[-1]
        point = tuple(point)
        basis = kernel_basis(mat([row[:-1] for row in eq_rows]), r)
    else:
        point = zero_vec(r)
        basis = [unit_vec(r, i) for i in range(r)]
    rest = []
    for n, c in list(a.hrep[1]) + list(b.hrep[1]):
        coeffs = tuple(vdot(vec(n), bv) for bv in basis)
        bound = c - vdot(vec(n), point)
        if is_zero_vec(coeffs):
            if bound > 0:
                return None
            continue
        rest.append((coeffs, bound))
    if is_zero_vec(point) and all(bound == 0 for _, bound in rest):
        lin_t, rays_t = convex.cone_rays([c for c, _ in rest], [], len(basis))
        verts_t = [zero_vec(len(basis))]
    else:
        gen = convex.polyhedron_generators([], rest, len(basis))
        if gen is None:
            return None
        verts_t, rays_t, lin_t = gen

    def back(tvec, base):
        out = list(base)
        for c, bv in zip(tvec, basis):
            for i in range(r):
                out[i] += c * bv[i]
        return tuple(out)

    verts = [back(t, point) for t in verts_t]
    rays = [back(t, zero_vec(r)) for t in list(rays_t) + list(lin_t)
            + [tuple(-x for x in l) for l in lin_t]]
    return Polyhedron(r, verts, rays, a.sedentarity)


_coord = st.integers(-2, 2)


def _points(dim, fixed=None, size=(1, 3)):
    """Integer points; `fixed` pins the last coordinate (a parallel plane)."""
    free = dim if fixed is None else dim - 1
    tail = [] if fixed is None else [fixed]
    point = st.lists(_coord, min_size=free, max_size=free).map(
        lambda xs: tuple(xs + tail))
    return st.lists(point, min_size=size[0], max_size=size[1])


@st.composite
def _cell_pairs(draw):
    """Pairs of cells of the shapes where the two intersect paths differ."""
    kind = draw(st.sampled_from(
        ["apex", "lineality", "parallel", "point", "polytope"]))
    dim = draw(st.integers(2, 3))
    if kind == "apex":
        # Cones with a common apex: the shortcut without homogenizing.
        cells = [Polyhedron(dim, [zero_vec(dim)], draw(_points(dim)))
                 for _ in range(2)]
    elif kind == "lineality":
        line = draw(_points(dim, size=(1, 1)))[0]
        assume(any(line))
        cells = [Polyhedron(dim, draw(_points(dim)),
                            draw(_points(dim, size=(0, 2)))
                            + [line, tuple(-x for x in line)])
                 for _ in range(2)]
    elif kind == "parallel":
        # Cells in planes x_last = c; different c give disjoint hulls.
        cells = [Polyhedron(dim, draw(_points(dim, fixed=level)),
                            draw(_points(dim, fixed=0, size=(0, 2))))
                 for level in draw(st.lists(st.integers(0, 1),
                                            min_size=2, max_size=2))]
    elif kind == "point":
        cells = [Polyhedron(dim, draw(_points(dim, size=(1, 1)))),
                 Polyhedron(dim, draw(_points(dim)),
                            draw(_points(dim, size=(0, 2))))]
    else:
        cells = [Polyhedron(dim, draw(_points(dim, size=(1, 4))))
                 for _ in range(2)]
    return cells


@settings(max_examples=300, deadline=None)
@given(_cell_pairs())
def test_intersect_matches_hull_restricted_oracle(pair):
    a, b = pair
    new, old = intersect(a, b), _oracle_intersect(a, b)
    assert (new is None) == (old is None)
    if new is not None:
        assert new.key == old.key


@st.composite
def _cone_and_shift(draw):
    dim = draw(st.integers(1, 3))
    vector = st.lists(_coord, min_size=dim, max_size=dim).map(tuple)
    eqs = draw(st.lists(vector, max_size=1))
    ineqs = draw(st.lists(vector, max_size=4))
    shift = vec(draw(vector))
    # Nonzero offsets after the shift, so the homogenized path runs.
    assume(any(vdot(vec(a), shift) != 0 for a in eqs + ineqs))
    return dim, eqs, ineqs, shift


@settings(max_examples=300, deadline=None)
@given(_cone_and_shift())
def test_cone_generators_commute_with_translation(case):
    dim, eqs, ineqs, shift = case
    zero = F(0)
    verts, rays, lin = convex.polyhedron_generators(
        [(a, zero) for a in eqs], [(a, zero) for a in ineqs], dim)
    moved = convex.polyhedron_generators(
        [(a, vdot(vec(a), shift)) for a in eqs],
        [(a, vdot(vec(a), shift)) for a in ineqs], dim)
    assert verts == [zero_vec(dim)]
    assert moved is not None
    assert moved[1:] == (rays, lin)
    # The base point of a cone with lineality is found up to the lineality.
    assert len(moved[0]) == 1
    assert Subspace(dim, lin).contains(vsub(moved[0][0], shift))
    if not lin:
        assert moved[0] == [shift]


def _oracle_covers(c):
    """Covering pairs found by a pairwise containment scan.

    The earlier way `build_complex` found the covers: every pair of cells
    one dimension apart is tested, across a sedentarity jump through the
    stratum piece of the larger cell.
    """
    def is_face(tau, sigma):
        if tau.sedentarity == sigma.sedentarity:
            return sigma.contains_polyhedron(tau)
        if not tau.sedentarity > sigma.sedentarity:
            return False
        piece = stratum_piece(sigma, tau.sedentarity - sigma.sedentarity)
        return piece is not None and piece.contains_polyhedron(tau)

    return tuple(sorted((i, j) for i, tau in enumerate(c.cells)
                        for j, sigma in enumerate(c.cells)
                        if sigma.dim == tau.dim + 1 and is_face(tau, sigma)))


def _r2_and_max():
    # R^2 and max(0, x, y): their modification is the standard plane in R^3.
    r2 = build_complex([(Polyhedron(2, [(0, 0)], [(1, 0), (-1, 0), (0, 1),
                                                    (0, -1)]), 1)])
    return r2, PLFunction(MAX, terms=[(0, (0, 0)), (0, (1, 0)), (0, (0, 1))])


def _star_at_infinity(c):
    return star(c, next(i for i, cell in enumerate(c.cells)
                        if cell.sedentarity))


_COVER_CASES = {
    "bergman-u23": lambda: bergman_fan(uniform_matroid(2, 3)),
    "bergman-u34": lambda: bergman_fan(uniform_matroid(3, 4)),
    "bergman-graphic": lambda: bergman_fan(
        graphic_matroid([(0, 1), (1, 2), (2, 0), (2, 3)])),
    "product-tropical": lambda: product(
        bergman_fan(uniform_matroid(2, 3)), 1, tropical=True),
    "product-t2": lambda: product(t1_complex(), 1, tropical=True),
    "closure-line": lambda: closure_in(tropical_line(), [0, 1]),
    "closure-u34": lambda: closure_in(bergman_fan(uniform_matroid(3, 4)), [2]),
    "diagonal-escape": lambda: build_complex(
        [(Polyhedron(2, [(0, 0)], [(-1, 0), (-1, -1)]), 1)],
        tropical_coords=[0, 1]),
    "star-vertex": lambda: star(tropical_line(), 0),
    "star-sedentary": lambda: _star_at_infinity(
        product(tropical_line(), 1, tropical=True)),
    "restrict-mobile": lambda: restrict_to_stratum(
        product(tropical_line(), 1, tropical=True), ()),
    "restrict-sedentary": lambda: restrict_to_stratum(
        product(tropical_line(), 1, tropical=True), {2}),
    "modification": lambda: complete_modification(
        tropical_line(), PLFunction(MAX, terms=[(0, (0, 0)), (1, (1, 0))])
    ).graph,
    "modification-plane": lambda: complete_modification(
        *_r2_and_max()).graph,
    "closed-modification": lambda: closed_modification(*_r2_and_max()).graph,
}


@pytest.mark.parametrize("name", sorted(_COVER_CASES))
def test_covers_match_containment_oracle(name):
    c = _COVER_CASES[name]()
    assert c.covers == _oracle_covers(c)


def _oracle_stratum_piece(p, extra):
    """`stratum_piece` with the recession cone from `cone_facets` of the
    rays instead of the zero-offset H-rep of the cell."""
    rec_eqs, rec_normals = convex.cone_facets(p.rays, p.ambient_dim)
    eqs = [(vec(e), F(0)) for e in rec_eqs]
    ineqs = [(vec(n), F(0)) for n in rec_normals]
    for i in range(p.ambient_dim):
        if i in p.sedentarity:
            continue
        if i in extra:
            ineqs.append((vscale(-1, unit_vec(p.ambient_dim, i)), F(1)))
        else:
            eqs.append((unit_vec(p.ambient_dim, i), F(0)))
    if from_hrep(p.ambient_dim, eqs, ineqs, ()) is None:
        return None
    proj = lambda w: tuple(F(0) if i in extra else x for i, x in enumerate(w))
    rays = [r for r in map(proj, p.rays) if not is_zero_vec(vec(r))]
    return Polyhedron(p.ambient_dim, [proj(v) for v in p.vertices], rays,
                      p.sedentarity | extra)


@st.composite
def _cells_with_rays(draw):
    """A cell with at least one ray, maybe sedentary, and a nonempty set
    of further coordinates to send to -infinity."""
    dim = draw(st.integers(1, 3))
    sed = draw(st.sets(st.integers(0, dim - 1), max_size=dim - 1))
    pin = lambda xs: tuple(0 if i in sed else x for i, x in enumerate(xs))
    verts = [pin(v) for v in draw(_points(dim))]
    rays = [pin(r) for r in draw(_points(dim, size=(1, 3)))]
    assume(any(any(r) for r in rays))
    cell = Polyhedron(dim, verts, rays, sed)
    mobile = sorted(set(range(dim)) - sed)
    extra = draw(st.sets(st.sampled_from(mobile), min_size=1))
    return cell, frozenset(extra)


def _recession_hrep(p):
    """(equations, inequalities) of the recession cone of p: the H-rep of
    the cell with every offset set to zero."""
    eqs, ineqs = p.hrep
    return (tuple((a, 0) for a, _ in eqs), tuple((a, 0) for a, _ in ineqs))


@settings(max_examples=300, deadline=None)
@given(_cells_with_rays())
def test_recession_cone_read_from_hrep(case):
    p, extra = case
    origin = zero_vec(p.ambient_dim)
    cone = from_hrep(p.ambient_dim, *_recession_hrep(p), p.sedentarity)
    assert cone.key == Polyhedron(p.ambient_dim, [origin], p.rays,
                                  p.sedentarity).key
    new, old = stratum_piece(p, extra), _oracle_stratum_piece(p, extra)
    assert (new is None) == (old is None)
    if new is not None:
        assert new.key == old.key


def _oracle_tight_face(p, sub):
    """The smallest face of p containing the subset sub of p.

    The earlier validation rule: an intersection was accepted when it
    equals the tight face of each cell, instead of being looked up in the
    face sets the closure lists.
    """
    ineqs = p.hrep[1]
    tight = [(a, b) for a, b in ineqs
             if all(convex.satisfies(v, [(a, b)], ()) for v in sub.vertices)
             and all(idot(a, r) == 0 for r in sub.rays)]
    verts = [v for v in p.vertices if convex.satisfies(v, tight, ())]
    rays = [r for r in p.rays if all(idot(a, r) == 0 for a, _ in tight)]
    return Polyhedron(p.ambient_dim, verts, rays, p.sedentarity)


def _face_keys(p):
    return {f.key for f in faces(p)}


def _assert_face_verdicts_agree(a, b, inter):
    for p in (a, b):
        old = _oracle_tight_face(p, inter).key == inter.key
        assert old == (inter.key in _face_keys(p)), (p, inter)


_BUILD_CASES = dict(_COVER_CASES, **{
    "bergman-u24": lambda: bergman_fan(uniform_matroid(2, 4))})


@pytest.mark.parametrize("name", sorted(_BUILD_CASES))
def test_common_faces_match_tight_face_oracle(name):
    c = _BUILD_CASES[name]()
    covered = {t for t, s in c.covers
               if c.cells[t].sedentarity == c.cells[s].sedentarity}
    top = [cell for i, cell in enumerate(c.cells) if i not in covered]
    for a, b in itertools.combinations(top, 2):
        inter = intersect(a, b)
        if inter is not None:
            _assert_face_verdicts_agree(a, b, inter)


@st.composite
def _non_face_pairs(draw):
    """Pairs of cells meeting outside a common face: overlapping copies,
    one cell inside another, and cells crossing at interior points."""
    kind = draw(st.sampled_from(["overlap", "inside", "crossing"]))
    dim = draw(st.integers(2, 3))
    vector = st.lists(_coord, min_size=dim, max_size=dim).map(tuple)
    if kind == "overlap":
        a = Polyhedron(dim, draw(_points(dim, size=(2, 4))),
                       draw(_points(dim, size=(0, 1))))
        shift = draw(vector)
        b = Polyhedron(dim, [vsub(v, vscale(F(1, 2), shift))
                             for v in a.vertices], a.rays)
    elif kind == "inside":
        # Shrink toward the barycenter; rays may be dropped.
        a = Polyhedron(dim, draw(_points(dim, size=(2, 4))),
                       draw(_points(dim, size=(0, 2))))
        center = a.relint_point()
        t = F(draw(st.integers(1, 3)), 4)
        b = Polyhedron(dim, [vadd(center, vscale(t, vsub(v, center)))
                             for v in a.vertices],
                       a.rays[:draw(st.integers(0, len(a.rays)))])
    else:
        center = draw(vector)
        u, w = draw(vector), draw(vector)
        assume(any(u) and any(w))
        a, b = (Polyhedron(dim, [vsub(center, d), vadd(center, d)],
                           draw(_points(dim, size=(0, 1))))
                for d in (u, w))
    return a, b


@settings(max_examples=300, deadline=None)
@given(st.one_of(_cell_pairs(), _non_face_pairs()))
def test_validation_matches_tight_face_oracle(pair):
    a, b = pair
    assume(a.key != b.key)
    inter = intersect(a, b)
    common = inter is None
    if inter is not None:
        _assert_face_verdicts_agree(a, b, inter)
        common = all(_oracle_tight_face(p, inter).key == inter.key
                     for p in (a, b))
    nested = a.key in _face_keys(b) or b.key in _face_keys(a)
    if common and not nested:
        build_complex([a, b])
    else:
        with pytest.raises(ComplexAxiomError):
            build_complex([a, b])


def _oracle_validate_intersections(ordered, dominated, face_keys):
    """Frozen copy of `_validate_intersections` as it intersected every
    pair of stratum-maximal cells, before the certificates."""
    by_sed = {}
    for c in ordered:
        if c.key not in dominated:
            by_sed.setdefault(c.sedentarity, []).append(c)
    for group in by_sed.values():
        for a, b in itertools.combinations(group, 2):
            inter = intersect(a, b)
            if inter is not None and not (inter.key in face_keys[a.key]
                                          and inter.key in face_keys[b.key]):
                raise ComplexAxiomError("not a common face")


_VALIDATE = polyhedral._validate_intersections


def _validate_both(ordered, dominated, face_keys):
    """Run the validator and the oracle on one closure; they must agree."""
    verdicts = []
    for validate in (_VALIDATE, _oracle_validate_intersections):
        try:
            validate(ordered, dominated, face_keys)
            verdicts.append(True)
        except ComplexAxiomError:
            verdicts.append(False)
    assert verdicts[0] == verdicts[1], ordered
    if not verdicts[0]:
        raise ComplexAxiomError("not a common face")


def _build_with_both_validators(build):
    """The complex `build()` makes with every `build_complex` call checked
    by both validators, or None when one raises ComplexAxiomError.
    Interned complexes outlive a test, so they are dropped first: each
    call builds its complex afresh, not from an earlier test."""
    polyhedral._interned_complex.cache_clear()
    with mock.patch.object(polyhedral, "_validate_intersections",
                           _validate_both):
        try:
            return build()
        except ComplexAxiomError:
            return None


@settings(max_examples=300, deadline=None)
@given(st.one_of(_cell_pairs(), _non_face_pairs()),
       st.sets(st.integers(0, 1)))
def test_certificates_match_the_intersecting_validator(pair, tropical):
    # Tropical coordinates put stratum pieces into the face sets.
    a, b = pair
    assume(a.key != b.key)
    _build_with_both_validators(lambda: build_complex([a, b], tropical))


@pytest.mark.parametrize("name", sorted(_BUILD_CASES))
def test_certificates_accept_the_build_cases(name):
    assert _build_with_both_validators(_BUILD_CASES[name]) is not None


def _quadrant(apex):
    return Polyhedron(2, [apex], [(-1, 0), (0, 1)])


# Cells meeting outside a common face, where a certificate nearly applies.
_BAD_OVERLAPS = {
    # b inside a with no common face of their sedentarity, but one common
    # stratum piece {-inf} x [0, oo): it is no intersection of a and b.
    "shared-piece": lambda: build_complex(
        [_quadrant((0, 0)), _quadrant((-1, 0))], tropical_coords=[0]),
    # b touches a at an interior point of a: no strict separation.
    "touching": lambda: build_complex(
        [Polyhedron(2, [(0, 0), (2, 0)]), Polyhedron(2, [(1, 0), (1, 1)])]),
    # A triangle on an edge of a square, inside it; the square's bottom
    # offset is -2, so a test against 0 instead would pass.
    "edge-inside": lambda: build_complex(
        [Polyhedron(2, [(0, -2), (2, -2), (0, 0), (2, 0)]),
         Polyhedron(2, [(0, -2), (2, -2), (1, -1)])]),
}


@pytest.mark.parametrize("name", sorted(_BAD_OVERLAPS))
def test_certificates_reject_bad_overlaps(name):
    assert _build_with_both_validators(_BAD_OVERLAPS[name]) is None


def test_certified_pairs_skip_intersect(monkeypatch):
    calls, certified = [], []
    real, real_certified = polyhedral.intersect, polyhedral._certified

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    def counting_certified(a, b, face):
        certified.append((a, b))
        return real_certified(a, b, face)

    monkeypatch.setattr(polyhedral, "intersect", counting)
    monkeypatch.setattr(polyhedral, "_certified", counting_certified)
    for build in (lambda: bergman_fan(uniform_matroid(3, 4)),
                  lambda: bergman_fan(uniform_matroid(2, 5)),
                  lambda: build_complex([Polyhedron(1, [(0,), (1,)]),
                                         Polyhedron(1, [(2,), (3,)])])):
        # An earlier test may have built this complex; forget it, so the
        # certificates settle each pair here.
        polyhedral._interned_complex.cache_clear()
        certified.clear()
        build()
        assert certified and calls == []
    # Crossing segments: no half-space separates them, so they fall back.
    with pytest.raises(ComplexAxiomError):
        build_complex([Polyhedron(2, [(0, 0), (2, 2)]),
                       Polyhedron(2, [(0, 2), (2, 0)])])
    assert len(calls) == 1


def _oracle_sign(c, t, s):
    """Incidence sign with the outward side from minus the primitive
    normal of tau in sigma, as before relative-interior points."""
    tau, sigma = c.cells[t], c.cells[s]
    cols = ([vscale(-1, lattice_quotient(sigma, tau))]
            + [vec(b) for b in tau.orientation])
    rows = tuple(solve(cols, vec(b)) for b in sigma.orientation)
    return 1 if det(rows) > 0 else -1


@pytest.mark.parametrize("name", sorted(_BUILD_CASES))
def test_signs_match_primitive_normal_oracle(name):
    c = _BUILD_CASES[name]()
    for t, s in c.covers:
        if c.cells[t].sedentarity == c.cells[s].sedentarity:
            assert c.signs[(t, s)] == _oracle_sign(c, t, s), (t, s)


def _oracle_escape_vector(sigma, esc):
    """Primitive vector of L(sigma) supported on the escaping coordinates,
    negative there: the outward side of a sedentarity jump before it was
    read as -e_j."""
    axes = Subspace(sigma.ambient_dim,
                    [unit_vec(sigma.ambient_dim, i) for i in esc])
    inter = sigma.tangent.perp().sum(axes.perp()).perp()
    if inter.dim != 1:
        raise ComplexAxiomError("sedentarity jump is not corank one")
    w = primitive(inter.basis[0])
    if any(x > 0 for x in w):
        w = tuple(-x for x in w)
    return vec(w)


def _oracle_incidence_sign(tau, sigma):
    """`_incidence_sign` as it was before the two minors: across a jump
    o_tau is lifted into L(sigma) by solving, then the coordinates of
    o_sigma in (outward, o_tau) are solved for and their determinant
    taken."""
    o_sigma = sigma.orientation
    o_tau = tau.orientation
    if tau.sedentarity == sigma.sedentarity:
        outward = vsub(tau.relint_point(), sigma.relint_point())
        cols = [outward] + [vec(b) for b in o_tau]
    else:
        esc = tau.sedentarity - sigma.sedentarity
        w = _oracle_escape_vector(sigma, esc)
        pre = []
        proj_basis = [tuple(F(0) if i in esc else x for i, x in enumerate(bv))
                      for bv in sigma.tangent.basis]
        for b in o_tau:
            sol = solve(proj_basis, vec(b))
            if sol is None:
                raise ComplexAxiomError("stratum face not dominated by cell")
            x = zero_vec(sigma.ambient_dim)
            for c, bv in zip(sol, sigma.tangent.basis):
                x = vadd(x, vscale(c, bv))
            pre.append(x)
        cols = [w] + pre
    rows = []
    for b in o_sigma:
        sol = solve(cols, vec(b))
        if sol is None:
            raise ComplexAxiomError("orientation bases are inconsistent")
        rows.append(sol)
    d = det(tuple(rows))
    if d == 0:
        raise ComplexAxiomError("degenerate incidence")
    return 1 if d > 0 else -1


def _assert_signs_match_solving_oracle(c):
    for t, s in c.covers:
        assert c.signs[(t, s)] == _oracle_incidence_sign(
            c.cells[t], c.cells[s]), (t, s)


@pytest.mark.parametrize("name", sorted(_BUILD_CASES))
def test_signs_match_solving_oracle(name):
    _assert_signs_match_solving_oracle(_BUILD_CASES[name]())


@st.composite
def _closed_cones(draw):
    """A cone in T^3 from one to three rays, with its apex at a lattice
    point, to be closed in every coordinate."""
    apex = draw(st.lists(st.integers(-1, 1), min_size=3, max_size=3))
    rays = draw(st.lists(st.lists(st.integers(-2, 2), min_size=3,
                                  max_size=3), min_size=1, max_size=3))
    assume(any(any(r) for r in rays))
    return Polyhedron(3, [apex], rays)


@settings(max_examples=150, deadline=None)
@given(_closed_cones())
def test_closed_cone_signs_match_solving_oracle(cone):
    try:
        c = build_complex([cone], tropical_coords=[0, 1, 2])
    except ComplexAxiomError:
        # The solving signs reject the same input.
        with mock.patch.object(polyhedral, "_incidence_sign",
                               _oracle_incidence_sign):
            with pytest.raises(ComplexAxiomError):
                build_complex([cone], tropical_coords=[0, 1, 2])
        assume(False)
    _assert_signs_match_solving_oracle(c)


def _fraction_det(rows):
    """Determinant by Gaussian elimination over Q."""
    rows = [list(map(F, r)) for r in rows]
    d = F(1)
    for k in range(len(rows)):
        pivot = next((r for r in range(k, len(rows)) if rows[r][k]), None)
        if pivot is None:
            return F(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            d = -d
        d *= rows[k][k]
        for r in rows[k + 1:]:
            f = r[k] / rows[k][k]
            r[k:] = [x - f * y for x, y in zip(r[k:], rows[k][k:])]
    return d


def _fraction_orientation(p):
    """`Polyhedron.orientation` as it was in Fraction vectors."""
    basis = [vec(b) for b in p.lattice.basis]
    if p.dim == 1:
        direction = (vec(p.rays[0]) if p.rays
                     else vsub(p.vertices[-1], p.vertices[0]))
        if vdot(basis[0], direction) < 0:
            basis[0] = vscale(-1, basis[0])
    return tuple(basis)


def _fraction_incidence_sign(tau, sigma):
    """`_incidence_sign` as it was in Fraction vectors: u from the
    relative-interior points or -e_j, reduced by `tau.tangent.reduce`,
    and the two minors taken over Q."""
    if tau.sedentarity == sigma.sedentarity:
        u = vsub(tau.relint_point(), sigma.relint_point())
    else:
        j = min(tau.sedentarity - sigma.sedentarity)
        u = vscale(-1, unit_vec(tau.ambient_dim, j))
    extra = next((i for i, x in enumerate(tau.tangent.reduce(u)) if x), None)
    if extra is None:
        raise ComplexAxiomError("degenerate incidence")
    cols = sorted(tau.tangent.pivots + (extra,))

    def minor(rows):
        return _fraction_det([[r[i] for i in cols] for r in rows])

    d = (minor(_fraction_orientation(sigma))
         * minor((u,) + _fraction_orientation(tau)))
    if d == 0:
        raise ComplexAxiomError("degenerate incidence")
    return 1 if d > 0 else -1


def _unmemoized_stratum_piece(p, extra):
    """`stratum_piece` as it was before its answers were kept on the cell:
    a double description on every call (valid arguments only)."""
    mobile = [i for i in range(p.ambient_dim) if i not in p.sedentarity]
    eqs = [a for a, _ in p.hrep[0]]
    ineqs = [a for a, _ in p.hrep[1]]
    for i in mobile:
        if i in extra:
            ineqs.append(vscale(-1, unit_vec(p.ambient_dim, i)))
        else:
            eqs.append(unit_vec(p.ambient_dim, i))
    _, rays = convex.cone_rays(ineqs, eqs, p.ambient_dim)
    if not all(any(ray[i] for ray in rays) for i in extra):
        return None
    proj = lambda w: tuple(0 if i in extra else x for i, x in enumerate(w))
    return Polyhedron(p.ambient_dim, [proj(v) for v in p.vertices],
                      [proj(r) for r in p.rays], p.sedentarity | extra)


def _unmemoized_incidence_sign(tau, sigma):
    """`_incidence_sign` as it was before its answers were kept on sigma:
    u from the scaled relative-interior points or -e_j, reduced
    fraction-free against Z(tau), and two integer minors."""
    if tau.sedentarity == sigma.sedentarity:
        st_, mt = polyhedral._relint_scaled(tau)
        ss, ms = polyhedral._relint_scaled(sigma)
        u = [ms * x - mt * y for x, y in zip(st_, ss)]
    else:
        u = [0] * tau.ambient_dim
        u[min(tau.sedentarity - sigma.sedentarity)] = -1
    for p, row in zip(tau.tangent.pivots, tau.lattice.basis):
        c = u[p]
        if c:
            u = [row[p] * x - c * y for x, y in zip(u, row)]
    extra = next((i for i, x in enumerate(u) if x), None)
    if extra is None:
        raise ComplexAxiomError("degenerate incidence")
    cols = sorted(tau.tangent.pivots + (extra,))

    def minor(rows):
        return idet([[r[i] for i in cols] for r in rows])

    d = minor(sigma.orientation) * minor((u,) + tau.orientation)
    if d == 0:
        raise ComplexAxiomError("degenerate incidence")
    return 1 if d > 0 else -1


def _memo_queries(c):
    """Every piece query on the cells of c (each nonempty set of mobile
    coordinates) and every sign query on its covers."""
    for p in c.cells:
        mobile = [i for i in range(p.ambient_dim) if i not in p.sedentarity]
        for k in range(1, len(mobile) + 1):
            for extra in itertools.combinations(mobile, k):
                yield "piece", p, frozenset(extra)
    for t, s in c.covers:
        yield "sign", c.cells[t], c.cells[s]


def _assert_memos_match_unmemoized(queries):
    for kind, a, b in queries:
        if kind == "piece":
            assert stratum_piece(a, b) is _unmemoized_stratum_piece(a, b), \
                (a, b)
        else:
            assert polyhedral._incidence_sign(a, b) == \
                _unmemoized_incidence_sign(a, b), (a, b)


# A line and its half-plane toward y = -inf, each from two
# V-representations: the twins are distinct cells with equal key.
_LINE = Polyhedron(2, [(0, 0)], [(1, 0), (-1, 0)])
_LINE_TWIN = Polyhedron(2, [(0, 0), (1, 0)], [(1, 0), (-1, 0)])
_HALF = Polyhedron(2, [(0, 0)], [(1, 0), (-1, 0), (0, -1)])
_HALF_TWIN = Polyhedron(2, [(0, 0), (2, 0)], [(1, 0), (-1, 0), (0, -1)])


def test_memos_match_unmemoized_on_build_cases_and_twins():
    assert _LINE is not _LINE_TWIN and _LINE.key == _LINE_TWIN.key
    assert _HALF is not _HALF_TWIN and _HALF.key == _HALF_TWIN.key
    queries = [q for name in sorted(_BUILD_CASES)
               for q in _memo_queries(_BUILD_CASES[name]())]
    for cell in (_LINE, _LINE_TWIN, _HALF, _HALF_TWIN):
        queries += [("piece", cell, frozenset(e)) for e in ({0}, {1}, {0, 1})]
    queries += [("sign", tau, sigma) for tau in (_LINE, _LINE_TWIN)
                for sigma in (_HALF, _HALF_TWIN)]
    queries += [("sign", stratum_piece(sigma, frozenset({1})), sigma)
                for sigma in (_HALF, _HALF_TWIN)]
    random.Random(2718).shuffle(queries)
    _assert_memos_match_unmemoized(queries)


@settings(max_examples=60, deadline=None)
@given(_closed_cones(), st.randoms(use_true_random=False))
def test_memos_match_unmemoized_on_closed_cones(cone, rng):
    try:
        c = build_complex([cone], tropical_coords=[0, 1, 2])
    except ComplexAxiomError:
        assume(False)
    queries = list(_memo_queries(c))
    rng.shuffle(queries)
    _assert_memos_match_unmemoized(queries)


@pytest.mark.parametrize("build", [
    lambda: closure_in(bergman_fan(uniform_matroid(3, 4)), [0, 2]),
    lambda: product(bergman_fan(uniform_matroid(2, 3)), 2, tropical=True),
], ids=["closure", "product"])
def test_rebuilt_complex_reads_pieces_and_signs_off_its_cells(
        build, monkeypatch):
    first = build()
    piece_rays, minors = [], []
    cone_rays, count_idet = convex.cone_rays, polyhedral.idet

    def counting_cone_rays(*args):
        if sys._getframe(1).f_code.co_name == "stratum_piece":
            piece_rays.append(args)
        return cone_rays(*args)

    def counting_idet(rows):
        minors.append(rows)
        return count_idet(rows)

    monkeypatch.setattr(convex, "cone_rays", counting_cone_rays)
    monkeypatch.setattr(polyhedral, "idet", counting_idet)
    second = build()
    assert second is first
    assert piece_rays == [] and minors == []
    # Built afresh from the same cells, a complex reads their pieces.
    polyhedral._interned_complex.cache_clear()
    third = build()
    assert third is not first
    assert [c.key for c in third.cells] == [c.key for c in first.cells]
    assert third.signs == first.signs
    assert piece_rays == []


# -- facet normals kept on the cell -------------------------------------------


def _unmemoized_lattice_quotient(sigma, tau):
    """`lattice_quotient` with no memo: the tight inequality, then
    extended gcds over the Hermite basis of Z(sigma)."""
    a = None
    if tau.dim == sigma.dim - 1 and sigma.contains_polyhedron(tau):
        a = next((a for a, b in sigma.hrep[1] if tau.side(a, b)[1] == 0),
                 None)
    if a is None:
        raise CodimensionError(f"{tau} is not a facet of {sigma}")
    g, nu = 0, [0] * sigma.ambient_dim
    for row in sigma.lattice.basis:
        g, x, y = polyhedral._xgcd(g, idot(a, row))
        nu = [x * p + y * q for p, q in zip(nu, row)]
    return tau.lattice.reduce(nu)


def _normal_queries(c):
    """Every (sigma, tau) of cells of c with tau one dimension down
    (facets and non-facets)."""
    for sigma in c.cells:
        for tau in c.cells:
            if tau.dim == sigma.dim - 1:
                yield sigma, tau


def _normal_or_error(lq, sigma, tau):
    try:
        return lq(sigma, tau)
    except CodimensionError:
        return CodimensionError


def _assert_normals_match_unmemoized(queries):
    for sigma, tau in queries:
        assert _normal_or_error(lattice_quotient, sigma, tau) == \
            _normal_or_error(_unmemoized_lattice_quotient, sigma, tau), \
            (sigma, tau)


def _stokes_cells(rng):
    """Bounded cells as in the Stokes suite: random rational simplices and
    prisms in dimensions 1 to 3."""
    out = []
    for n in (1, 2, 3):
        while len(out) < 2 * n:
            verts = [tuple(F(rng.randint(-6, 6), rng.randint(1, 2))
                           for _ in range(n)) for _ in range(n + 1)]
            cell = Polyhedron(n, verts)
            if cell.dim == n:
                out.append(cell)
                heights = (F(rng.randint(-3, 0)), F(rng.randint(1, 4)))
                out.append(Polyhedron(n + 1, [v + (h,) for v in verts
                                              for h in heights]))
    return out


# A square, the twin of its bottom edge, a parallel edge outside it and a
# diagonal inside it: one facet with two V-representations, two non-facets.
_SQUARE = Polyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
_BOTTOM_TWIN = Polyhedron(2, [(0, 0), (1, 0), (F(1, 2), 0)])
_ABOVE = Polyhedron(2, [(0, 2), (1, 2)])
_DIAGONAL = Polyhedron(2, [(0, 0), (1, 1)])
_UPPER = Polyhedron(2, [(0, 0)], [(1, 0), (-1, 0), (0, 1)])
# A cell that meets _HALF outside a common face.
_IN_HALF = Polyhedron(2, [(0, -1)], [(1, 0), (0, -1)])


def _twin_queries():
    return [(sigma, tau) for sigma in (_SQUARE, _HALF, _HALF_TWIN)
            for tau in (sigma.facets + (_BOTTOM_TWIN, _ABOVE, _DIAGONAL,
                                        _LINE, _LINE_TWIN))]


def test_cell_memos_match_unmemoized_on_build_cases_and_twins():
    assert _BOTTOM_TWIN is not _SQUARE.facets[0]
    assert _BOTTOM_TWIN.key in {f.key for f in _SQUARE.facets}
    builds = dict(_BUILD_CASES, **{
        "bergman-u25": lambda: bergman_fan(uniform_matroid(2, 5)),
        "product-u23-t2": lambda: product(
            bergman_fan(uniform_matroid(2, 3)), 2, tropical=True),
        "closure-u24": lambda: closure_in(
            bergman_fan(uniform_matroid(2, 4)), [0, 1])})
    # Each complex's queries twice, so that the second ones read the memo.
    queries = [q for name in sorted(builds) for _ in range(2)
               for q in _normal_queries(builds[name]())]
    rng = random.Random(2718)
    for cell in _stokes_cells(rng):
        queries += [(cell, tau) for tau in cell.facets]
        queries += [(cell, tau) for f in cell.facets for tau in f.facets]
    queries += _twin_queries() * 2
    rng.shuffle(queries)
    _assert_normals_match_unmemoized(queries)


@settings(max_examples=40, deadline=None)
@given(_closed_cones(), st.randoms(use_true_random=False))
def test_cell_memos_match_unmemoized_on_closed_cones(cone, rng):
    try:
        c = build_complex([cone], tropical_coords=[0, 1, 2])
    except ComplexAxiomError:
        assume(False)
    queries = list(_normal_queries(c)) * 2
    queries += _normal_queries(
        build_complex([cone], tropical_coords=[0, 1, 2]))
    rng.shuffle(queries)
    _assert_normals_match_unmemoized(queries)


@pytest.mark.parametrize("build", [
    lambda: bergman_fan(uniform_matroid(3, 4)),
    lambda: closure_in(bergman_fan(uniform_matroid(3, 4)), [0, 2]),
    lambda: product(bergman_fan(uniform_matroid(2, 3)), 2, tropical=True),
], ids=["fan", "closure", "product"])
def test_rebuilt_complex_validates_normals_and_sums_nothing(
        build, monkeypatch):
    def use(c):
        # Balancing reads the facet normals, the sheaves the F_p sums.
        sheaves = [build_sheaf(c, p) for p in range(c.n + 1)]
        return ([(d.cells, d.cover_maps) for d in sheaves], is_balanced(c))

    first = build()
    before = use(first)
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for holder, name in ((polyhedral, "_certified"), (polyhedral, "intersect"),
                         (polyhedral, "_xgcd"), (Subspace, "sum")):
        monkeypatch.setattr(holder, name,
                            counting(name, getattr(holder, name)))
    second = build()
    assert second is first
    assert use(second) == before
    assert calls == []
    # Built afresh from the same cells, a complex reads their normals.
    polyhedral._interned_complex.cache_clear()
    third = build()
    assert third is not first
    assert [c.key for c in third.cells] == [c.key for c in first.cells]
    assert use(third) == before
    assert "_xgcd" not in calls


_INVALID_PAIRS = dict(_BAD_OVERLAPS, **{
    "crossing": lambda: build_complex([Polyhedron(2, [(0, 0), (2, 2)]),
                                       Polyhedron(2, [(0, 2), (2, 0)])]),
    "inside-twin": lambda: build_complex([_HALF_TWIN, _IN_HALF]),
})


@pytest.mark.parametrize("name", sorted(_INVALID_PAIRS))
def test_invalid_pair_raises_on_every_build(name):
    # A pair that fails is kept on neither cell, so it fails again, also
    # after one of its cells passed in a valid complex.
    build_complex([_HALF, _UPPER])
    for _ in range(3):
        with pytest.raises(ComplexAxiomError):
            _INVALID_PAIRS[name]()


def test_build_complex_refuses_non_integer_weights():
    # Weights are integers: anything else is refused, never truncated.
    right = Polyhedron(1, [(0,)], [(1,)])
    left = Polyhedron(1, [(0,)], [(-1,)])
    for w in (1.5, 2.0, F(3, 2), True, "2", None):
        with pytest.raises(ValidationError):
            build_complex([(right, w), (left, w)])
    c = build_complex([(right, F(6, 3)), (left, 3)])
    assert sorted(c.weights.values()) == [2, 3]
    assert all(type(w) is int for w in c.weights.values())


# -- interned complexes -------------------------------------------------------
# The tropical line in T^1 from two half-lines, and the left half-line from
# a second V-representation: a twin with the same key.
_RIGHT = Polyhedron(1, [(0,)], [(1,)])
_LEFT = Polyhedron(1, [(0,)], [(-1,)])
_LEFT_TWIN = Polyhedron(1, [(0,), (-1,)], [(-1,)])
_T1 = [(_RIGHT, 1), (_LEFT, 1)]


def test_same_input_gives_the_same_complex():
    c = build_complex(_T1, [0])
    assert build_complex(list(_T1), {0}) is c
    # Bare cells weigh 1; integral Fractions are stored as ints; the
    # constructor returns the same interned cell.
    assert build_complex([_RIGHT, _LEFT], (0,)) is c
    assert build_complex([(Polyhedron(1, [(0,)], [(2,)]), F(1)),
                          (_LEFT, 1)], [0]) is c


@pytest.mark.parametrize("maximal, tropical", [
    ([(_RIGHT, 2), (_LEFT, 1)], [0]),
    (_T1, []),
    ([(_RIGHT, 1), (_LEFT_TWIN, 1)], [0]),
], ids=["weight", "tropical", "twin"])
def test_changed_input_gives_another_complex(maximal, tropical):
    assert _LEFT_TWIN is not _LEFT and _LEFT_TWIN.key == _LEFT.key
    c = build_complex(_T1, [0])
    other = build_complex(maximal, tropical)
    assert other is not c
    # The complex of the input, with the caller's cells themselves.
    facets = {id(other.cells[i]): other.weight(i)
              for i in other.facet_indices()}
    assert facets == {id(cell): w for cell, w in maximal}
    assert other.tropical_coords == frozenset(tropical)


def test_twin_complex_prints_its_own_vertices():
    # Keyed by cell equality, the twin would get the first complex and
    # print the vertex list of _LEFT.
    twin = [(_RIGHT, 1), (_LEFT_TWIN, 1)]
    polyhedral._interned_complex.cache_clear()
    build_complex(_T1, [0])
    after_the_first = complex_to_dict(build_complex(twin, [0]))
    polyhedral._interned_complex.cache_clear()
    assert complex_to_dict(build_complex(twin, [0])) == after_the_first
    assert after_the_first != complex_to_dict(build_complex(_T1, [0]))


def test_interned_complex_is_read_only():
    c = build_complex(_T1, [0])
    cover = next(iter(c.signs))
    with pytest.raises(TypeError):
        c.weights[0] = 5
    with pytest.raises(TypeError):
        c.signs[cover] = -c.signs[cover]
    assert build_complex(_T1, [0]) is c
    assert set(c.weights.values()) == {1}


def test_input_order_gives_the_same_complex():
    assert build_complex([_LEFT, _RIGHT], [0]) is build_complex(_T1, [0])


@pytest.mark.parametrize("coords", [[0], [0, 2]])
def test_open_stratum_of_a_closure_is_the_fan(coords):
    # The restriction lists the fan's cells in another order, which used
    # to give a second complex.
    fan = bergman_fan(uniform_matroid(3, 4))
    assert restrict_to_stratum(closure_in(fan, coords), ()) is fan


def test_cells_at_infinity_need_tropical_coordinates():
    # Two rays at x0 = -inf used to build a complex "in R^2".
    rays = [Polyhedron(2, [(NEG_INF, 0)], [(0, 1)]),
            Polyhedron(2, [(NEG_INF, 0)], [(0, -1)])]
    for _ in range(2):
        with pytest.raises(DimensionError):
            build_complex(rays)
    assert build_complex(rays, [0]).tropical_coords == {0}


_SIGN_FANS = {
    "u23": lambda: bergman_fan(uniform_matroid(2, 3)),
    "u24": lambda: bergman_fan(uniform_matroid(2, 4)),
    "u34": lambda: bergman_fan(uniform_matroid(3, 4)),
    "graphic": lambda: bergman_fan(
        graphic_matroid([(0, 1), (1, 2), (2, 0), (2, 3)])),
}


@st.composite
def _sign_complexes(draw):
    """Random fans (a cone with its apex at a lattice point, or a Bergman
    fan), fan x T^s and fan x R^s products, closures in random
    coordinates, and closures of cells with rational vertices."""
    kind = draw(st.sampled_from(["cone", "product", "closure", "rational"]))
    if kind == "rational":
        cell = draw(_rational_cells())
        mobile = sorted(set(range(cell.ambient_dim)) - cell.sedentarity)
        cells = [cell]
        coords = cell.sedentarity | draw(st.sets(st.sampled_from(mobile)))
    else:
        fan = (build_complex([draw(_closed_cones())]) if kind == "cone"
               else _SIGN_FANS[draw(st.sampled_from(sorted(_SIGN_FANS)))]())
        if kind == "product":
            fan = product(fan, draw(st.integers(1, 3 - fan.n)),
                          draw(st.booleans()))
        cells = [(fan.cells[i], fan.weight(i)) for i in fan.facet_indices()]
        coords = fan.tropical_coords | draw(st.sets(
            st.integers(0, fan.ambient_dim - 1)))
    try:
        return build_complex(cells, tropical_coords=coords)
    except ComplexAxiomError:
        assume(False)


def _assert_signs_match_fraction_signs(c):
    for t, s in c.covers:
        assert c.signs[(t, s)] == _fraction_incidence_sign(
            c.cells[t], c.cells[s]), (t, s)


@settings(max_examples=150, deadline=None)
@given(_sign_complexes())
def test_integer_signs_match_fraction_signs(c):
    _assert_signs_match_fraction_signs(c)


@pytest.mark.parametrize("name", sorted(_BUILD_CASES))
def test_build_case_signs_match_fraction_signs(name):
    _assert_signs_match_fraction_signs(_BUILD_CASES[name]())


def test_sign_cases_cross_sedentarity_jumps():
    # The closures and T^s products above have covers across a jump.
    jumps = {name for name, build in _BUILD_CASES.items()
             if any(c.cells[t].sedentarity != c.cells[s].sedentarity
                    for c in [build()] for t, s in c.covers)}
    assert {"closure-line", "closure-u34", "diagonal-escape",
            "product-tropical", "product-t2"} <= jumps


def _old_stratum_piece(p, extra):
    """`stratum_piece` as it was before the feasibility test on the
    homogeneous cone: a vector of the recession cone that is <= -1 on
    `extra` and zero on the other mobile coordinates, found by a
    homogenized vertex enumeration through `from_hrep`."""
    mobile = [i for i in range(p.ambient_dim) if i not in p.sedentarity]
    eqs, ineqs = (list(h) for h in _recession_hrep(p))
    for i in mobile:
        if i in extra:
            ineqs.append((vscale(-1, unit_vec(p.ambient_dim, i)), F(1)))
        else:
            eqs.append((unit_vec(p.ambient_dim, i), F(0)))
    if from_hrep(p.ambient_dim, eqs, ineqs, ()) is None:
        return None
    proj = lambda w: tuple(F(0) if i in extra else F(x)
                           for i, x in enumerate(w))
    rays = [r for r in map(proj, p.rays) if not is_zero_vec(r)]
    return Polyhedron(p.ambient_dim, [proj(v) for v in p.vertices], rays,
                      p.sedentarity | extra)


def _assert_pieces_match_old(cells):
    for p in cells:
        mobile = sorted(set(range(p.ambient_dim)) - p.sedentarity)
        for k in range(1, len(mobile) + 1):
            for extra in map(frozenset, itertools.combinations(mobile, k)):
                new, old = stratum_piece(p, extra), _old_stratum_piece(p, extra)
                assert (new is None) == (old is None), (p, extra)
                if new is not None:
                    assert new.key == old.key, (p, extra)


@pytest.mark.parametrize("name", sorted(_BUILD_CASES))
def test_stratum_pieces_match_homogenized_oracle(name):
    _assert_pieces_match_old(_BUILD_CASES[name]().cells)


@settings(max_examples=150, deadline=None)
@given(_closed_cones())
def test_closed_cone_stratum_pieces_match_homogenized_oracle(cone):
    # The cells of the closure in T^3 when it builds (sedentary cells
    # included), otherwise the faces of the cone.
    try:
        cells = build_complex([cone], tropical_coords=[0, 1, 2]).cells
    except ComplexAxiomError:
        cells = faces(cone)
    _assert_pieces_match_old(cells)


# -- the interned cell as the memo ---------------------------------------------
# Frozen copies of the per-process helpers the interned cell replaced, and
# of `faces` as it was before it walked `facets`.


def _old_hrep(p):
    eqs, ineqs = convex.polyhedron_facets(p.vertices, p.rays, p.ambient_dim)
    return tuple(eqs), tuple(ineqs)


def _old_key(p):
    eqs, ineqs = _old_hrep(p)
    return (p.ambient_dim, tuple(sorted(p.sedentarity)), eqs, ineqs)


def _old_tangent(p):
    v0 = p.vertices[0]
    dirs = [vsub(v, v0) for v in p.vertices[1:]] + [vec(r) for r in p.rays]
    return Subspace(p.ambient_dim, dirs)


def _old_lattice(p):
    return Lattice.from_subspace(_old_tangent(p))


def _old_orientation(p):
    basis = [vec(b) for b in _old_lattice(p).basis]
    if _old_tangent(p).dim == 1:
        direction = None
        if p.rays:
            direction = vec(p.rays[0])
        elif len(p.vertices) >= 2:
            vs = sorted(p.vertices)
            direction = vsub(vs[-1], vs[0])
        if direction is not None and vdot(basis[0], direction) < 0:
            basis[0] = vscale(-1, basis[0])
    return tuple(basis)


def _old_faces(p):
    """The tight-set walk: every inequality of every face found so far cuts
    the face tight on it."""
    found = {_old_key(p): p}
    frontier = [p]
    while frontier:
        q = frontier.pop()
        for a, b in _old_hrep(q)[1]:
            tight_verts = [v for v in q.vertices
                           if convex.satisfies(v, [(a, b)], ())]
            tight_rays = [r for r in q.rays if idot(a, r) == 0]
            if not tight_verts:
                continue
            f = Polyhedron(p.ambient_dim, tight_verts, tight_rays,
                           p.sedentarity)
            if _old_key(f) not in found:
                found[_old_key(f)] = f
                frontier.append(f)
    return sorted(found.values(),
                  key=lambda f: (_old_tangent(f).dim,
                                 tuple(sorted(f.sedentarity)),
                                 _old_key(f)[2], _old_key(f)[3]))


def _vrep(p):
    return p.ambient_dim, p.sedentarity, p.vertices, p.rays


def _assert_memo_matches_old(p):
    assert p.hrep == _old_hrep(p)
    assert p.key == _old_key(p)
    assert p.tangent == _old_tangent(p)
    assert p.lattice == _old_lattice(p)
    assert p.orientation == _old_orientation(p)
    old = _old_faces(p)
    assert [_vrep(f) for f in faces(p)] == [_vrep(f) for f in old]
    assert len(p.facets) == len(p.hrep[1])
    assert all(f.dim == p.dim - 1 for f in p.facets)
    assert ({f.key for f in p.facets}
            == {_old_key(f) for f in old if f.dim == p.dim - 1})


@st.composite
def _memo_cells(draw):
    """Cells with sedentarity, rays, lineality (+-e_j rays, as in product
    cells), a second base point on a lineality direction, and redundant
    vertices and rays."""
    dim = draw(st.integers(1, 3))
    sed = draw(st.sets(st.integers(0, dim - 1), max_size=dim - 1))
    pin = lambda xs: tuple(0 if i in sed else x for i, x in enumerate(xs))
    verts = [pin(v) for v in draw(_points(dim, size=(1, 4)))]
    rays = [pin(r) for r in draw(_points(dim, size=(0, 2)))]
    mobile = sorted(set(range(dim)) - sed)
    for j in draw(st.sets(st.sampled_from(mobile), max_size=2)):
        e = unit_vec(dim, j)
        rays += [e, vscale(-1, e)]
        if draw(st.booleans()):
            verts.append(vadd(verts[0], vscale(draw(_coord), e)))
    if len(verts) >= 2 and draw(st.booleans()):
        verts.append(vscale(F(1, 2), vadd(verts[0], verts[1])))
    if len(rays) >= 2 and draw(st.booleans()):
        rays.append(vadd(rays[0], rays[1]))
    return Polyhedron(dim, verts, rays, sed)


@settings(max_examples=300, deadline=None)
@given(_memo_cells())
def test_cell_memo_matches_frozen_helpers(cell):
    _assert_memo_matches_old(cell)


@pytest.mark.parametrize("name", sorted(_BUILD_CASES))
def test_complex_cells_memo_matches_frozen_helpers(name):
    for cell in _BUILD_CASES[name]().cells:
        _assert_memo_matches_old(cell)


def test_equal_signature_is_one_cell():
    a = Polyhedron(2, [(0, 0), (1, 0)], [(2, 2)])
    assert Polyhedron(2, [(F(1), 0), (0, 0), (0, 0)], [(1, 1), (3, 3)]) is a
    b = Polyhedron(2, [(NEG_INF, 1)], [(0, 1)])
    assert Polyhedron(2, [(0, 1)], [(0, 2)], sedentarity={0}) is b
    assert Polyhedron(2, [(0, 1)], [(0, 2)]) is not b


def test_two_vreps_of_one_line_are_two_cells():
    a = Polyhedron(2, [(0, 0)], [(1, 1), (-1, -1)])
    b = Polyhedron(2, [(1, 1)], [(1, 1), (-1, -1)])
    two = Polyhedron(2, [(0, 0), (1, 1)], [(1, 1), (-1, -1)])
    assert a is not b and b is not two
    assert a.key == b.key == two.key and a == b == two
    assert a.orientation == b.orientation == two.orientation
    # Each keeps its own representative, and so does a cell it bounds.
    assert faces(a)[0] is a and faces(b)[0] is b and faces(two)[0] is two
    half = Polyhedron(2, [(0, 0), (1, 1)], [(1, 1), (-1, -1), (1, 0)])
    assert [f.vertices for f in half.facets] == [((0, 0), (1, 1))]
    assert faces(half)[0] is half.facets[0] is two


def _old_boundary_integral(beta, cell):
    n = cell.dim
    total = F(0)
    for tau in _old_faces(cell):
        if tau.dim != n - 1:
            continue
        nu = lattice_quotient(cell, tau)
        total += integrate_cell(contract(beta, nu, n), tau)
    return total


@st.composite
def _forms_on_polytopes(draw):
    """A bounded cell, maybe lower-dimensional or with redundant vertices,
    and an (n, n-1)-form on its ambient space, n the cell dimension."""
    ambient = draw(st.integers(1, 3))
    verts = draw(_points(ambient, size=(2, 5)))
    if draw(st.booleans()):
        verts.append(vscale(F(1, 2), vadd(vec(verts[0]), vec(verts[1]))))
    cell = Polyhedron(ambient, verts)
    n = cell.dim
    assume(n >= 1)
    keys = list(itertools.product(itertools.combinations(range(ambient), n),
                                  itertools.combinations(range(ambient),
                                                         n - 1)))
    terms = {}
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3)):
        mono = tuple(draw(st.integers(0, 2)) for _ in range(ambient))
        coeff = F(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        terms[key] = Poly(ambient, {mono: coeff})
    return PolySuperform(ambient, n, n - 1, terms), cell


@settings(max_examples=60, deadline=None)
@given(_forms_on_polytopes())
def test_boundary_integral_matches_faces_then_filter(form_and_cell):
    beta, cell = form_and_cell
    assert boundary_integral(beta, cell) == _old_boundary_integral(beta, cell)


def test_boundary_integral_reads_facets():
    # The codimension-one faces come from `facets`; `faces` is called by
    # `build_complex` and `infinite_faces`, not by integration.
    source = inspect.getsource(boundary_integral)
    names = {n.id for n in ast.walk(ast.parse(textwrap.dedent(source)))
             if isinstance(n, ast.Name)}
    assert "faces" not in names


# -- half-space tests on the cell --------------------------------------------------


def _old_contains_polyhedron(p, other):
    """The vertex and ray loops that `contains_polyhedron` ran."""
    if other.sedentarity != p.sedentarity:
        return False
    eqs, ineqs = p.hrep
    for v in other.vertices:
        if not convex.satisfies(v, eqs, ineqs):
            return False
    for r in other.rays:
        if any(idot(a, r) != 0 for a, _ in eqs):
            return False
        if any(idot(a, r) < 0 for a, _ in ineqs):
            return False
    return True


def _old_halfspace_verdicts(cell, a, b):
    """Whether the cell lies in a.x <= b, in a.x < b, in a.x >= b and on
    a.x = b, by `convex.satisfies` on each vertex and `idot` on each ray."""
    neg = (tuple(-x for x in a), -b)
    rays = [idot(a, r) for r in cell.rays]
    return (all(s <= 0 for s in rays)
            and all(convex.satisfies(v, (), [neg]) for v in cell.vertices),
            all(s <= 0 for s in rays)
            and not any(convex.satisfies(v, (), [(a, b)])
                        for v in cell.vertices),
            all(s >= 0 for s in rays)
            and all(convex.satisfies(v, (), [(a, b)]) for v in cell.vertices),
            all(s == 0 for s in rays)
            and all(convex.satisfies(v, [(a, b)], ()) for v in cell.vertices))


def _old_certified(a, b, face):
    """`_certified` with its own cleared vertices and ray loops."""
    eqs, ineqs = a.hrep
    if face is not None:
        corners = [clear_denominators(v) for v in face.vertices]
        n, beta = [0] * a.ambient_dim, 0
        for alpha, off in ineqs:
            if (all(idot(alpha, ints) == off * den for ints, den in corners)
                    and all(idot(alpha, r) == 0 for r in face.rays)):
                n = [x + y for x, y in zip(n, alpha)]
                beta += off
        halfspaces = [(n, beta)]
    else:
        halfspaces = (list(ineqs) + list(eqs)
                      + [(tuple(-x for x in alpha), -off)
                         for alpha, off in eqs])
    points = [clear_denominators(v) for v in b.vertices]
    for n, beta in halfspaces:
        if any(idot(n, r) > 0 for r in b.rays):
            continue
        if face is not None:
            inside = all(idot(n, ints) <= beta * den for ints, den in points)
        else:
            inside = all(idot(n, ints) < beta * den for ints, den in points)
        if inside:
            return True
    return False


_rational = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _rational_cells(draw, dim=None, sed=None):
    """Cells with rational vertices, rays and +-e_j lineality pairs, maybe
    sedentary."""
    if dim is None:
        dim = draw(st.integers(1, 3))
    if sed is None:
        sed = draw(st.sets(st.integers(0, dim - 1), max_size=dim - 1))
    point = st.lists(_rational, min_size=dim, max_size=dim).map(
        lambda xs: tuple(F(0) if i in sed else x for i, x in enumerate(xs)))
    verts = draw(st.lists(point, min_size=1, max_size=4))
    rays = draw(st.lists(point, max_size=2))
    mobile = sorted(set(range(dim)) - sed)
    for j in draw(st.sets(st.sampled_from(mobile), max_size=2)):
        e = unit_vec(dim, j)
        rays += [e, vscale(-1, e)]
    return Polyhedron(dim, verts, rays, sed)


def _old_relint_point(cell):
    """`relint_point` as it was: the vertices summed in Fractions, divided
    by their number, plus the sum of the rays."""
    p = zero_vec(cell.ambient_dim)
    for v in cell.vertices:
        p = vadd(p, v)
    p = vscale(F(1, len(cell.vertices)), p)
    for r in cell.rays:
        p = vadd(p, vec(r))
    return p


@settings(max_examples=300, deadline=None)
@given(st.one_of(_memo_cells(), _rational_cells()))
def test_relint_point_matches_frozen_sum(cell):
    x = cell.relint_point()
    assert x == _old_relint_point(cell)
    assert all(type(t) is F for t in x)


def test_constructor_cleans_rays():
    # Callers hand rays over as they come: int or Fraction entries, zero
    # rays and positive multiples all give the one interned cell.
    cell = Polyhedron(2, [(0, 0)], [(1, 0), (0, 0), (F(2), 0), (0, F(1, 3))])
    assert cell is Polyhedron(2, [(F(0), 0)], [(0, 1), (1, 0)])
    assert cell.rays == ((0, 1), (1, 0))
    assert all(type(x) is int for r in cell.rays for x in r)


@st.composite
def _cell_and_functional(draw):
    cell = draw(_rational_cells())
    a = tuple(draw(st.lists(st.integers(-2, 2), min_size=cell.ambient_dim,
                            max_size=cell.ambient_dim)))
    # Offsets that hit a vertex make the weak and strict answers differ.
    b = draw(st.one_of(_rational, st.sampled_from(
        [vdot(a, v) for v in cell.vertices])))
    return cell, a, b


@settings(max_examples=300, deadline=None)
@given(_cell_and_functional())
def test_side_matches_vertex_and_ray_loops(case):
    cell, a, b = case
    lo, hi = cell.side(a, b)
    assert lo in (-1, 0, 1) and hi in (-1, 0, 1) and lo <= hi
    assert (hi <= 0, hi < 0, lo >= 0, (lo, hi) == (0, 0)) == \
        _old_halfspace_verdicts(cell, a, b)
    # The zero functional is the constant -b.
    zero = (0,) * cell.ambient_dim
    constant = (b < 0) - (b > 0)
    assert cell.side(zero, b) == (constant, constant)
    assert _old_halfspace_verdicts(cell, zero, b) == (
        constant <= 0, constant < 0, constant >= 0, constant == 0)


@st.composite
def _rational_cell_pairs(draw):
    """Two cells of one ambient space; the second is often a face or a
    sub-cell of the first, so that containment holds."""
    a = draw(_rational_cells())
    kind = draw(st.sampled_from(["any", "face", "part"]))
    if kind == "face":
        b = draw(st.sampled_from(faces(a)))
    elif kind == "part":
        verts = draw(st.lists(st.sampled_from(a.vertices), min_size=1))
        rays = draw(st.lists(st.sampled_from(a.rays), max_size=3)
                    if a.rays else st.just([]))
        b = Polyhedron(a.ambient_dim, verts, rays, a.sedentarity)
    else:
        same = draw(st.booleans())
        b = draw(_rational_cells(a.ambient_dim,
                                 a.sedentarity if same else None))
    return a, b


@settings(max_examples=300, deadline=None)
@given(_rational_cell_pairs())
def test_containment_and_certificates_match_frozen_loops(pair):
    a, b = pair
    for p, q in (pair, pair[::-1]):
        assert p.contains_polyhedron(q) == _old_contains_polyhedron(p, q)
        for face in [None] + faces(p):
            assert polyhedral._certified(p, q, face) == \
                _old_certified(p, q, face)
