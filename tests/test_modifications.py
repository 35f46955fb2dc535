"""Tropical modifications: graphs, completion, divisors, projections."""

import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tropicoh import modifications
from tropicoh.cohomology import betti_tables
from tropicoh.errors import (
    DimensionError,
    IntegralityError,
    ModificationError,
    NotAModificationError,
    PurityError,
)
from tropicoh.linalg import Subspace, solve, unit_vec, vec, zero_vec
from tropicoh.matroids import (
    matroidal_modification_triple,
    uniform_matroid,
)
from tropicoh.modifications import (
    MAX,
    PLFunction,
    _full_overlap,
    _graph_functional,
    closed_modification,
    complete_modification,
    graph_complex,
    project_modification,
    weighted_supports_equal,
)
from tropicoh.polyhedral import (
    NEG_INF,
    Polyhedron,
    build_complex,
    closure_in,
    from_hrep,
    intersect,
    is_balanced,
    restrict_to_stratum,
)

F = Fraction


def r1_complex():
    return build_complex([(Polyhedron(1, [(0,)], [(1,)]), 1),
                          (Polyhedron(1, [(0,)], [(-1,)]), 1)])


def rn_complex(n):
    rays = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rays.append(tuple(e))
        rays.append(tuple(-x for x in e))
    return build_complex([(Polyhedron(n, [tuple([0] * n)], rays), 1)])


def tropical_line():
    rays = [(-1, 0), (0, -1), (1, 1)]
    return build_complex([(Polyhedron(2, [(0, 0)], [r]), 1) for r in rays])


def max_0_x():
    return PLFunction(MAX, terms=[(0, (0,)), (0, (1,))])


def test_graph_of_max():
    g = graph_complex(r1_complex(), max_0_x())
    dirs = sorted(tuple(c.rays[0]) for c in g.cells if c.dim == 1)
    assert dirs == [(-1, 0), (1, 1)]


def test_graph_constant_is_flat():
    p = PLFunction(MAX, terms=[(5, (0,))])
    g = graph_complex(r1_complex(), p)
    ok, _ = is_balanced(g)
    assert ok
    assert all(v[1] == 5 for c in g.cells for v in c.vertices)


def test_half_slope_rejected():
    with pytest.raises(IntegralityError):
        PLFunction(MAX, terms=[(0, (F(1, 2),))])


def test_complete_modification_is_tropical_line():
    res = complete_modification(r1_complex(), max_0_x())
    assert weighted_supports_equal(res.graph, tropical_line())
    assert res.divisor is not None
    assert len(res.divisor.cells) == 1
    cell = res.divisor.cells[0]
    assert cell.dim == 0 and cell.vertices == ((F(0),),)
    assert res.divisor.weights[0] == 1


def test_complete_modification_constant():
    p = PLFunction(MAX, terms=[(3, (0,))])
    res = complete_modification(r1_complex(), p)
    assert res.divisor is None
    ok, _ = is_balanced(res.graph)
    assert ok


def test_modification_refines_the_source_once():
    # The graph is lifted from the pieces that refine the source, and it
    # equals the public graph_complex.
    p = PLFunction(MAX, terms=[(0, (0, 0)), (0, (1, 0)), (0, (0, 1))])
    w = rn_complex(2)
    with mock.patch.object(PLFunction, "affine_pieces", autospec=True,
                           side_effect=PLFunction.affine_pieces) as spy:
        res = complete_modification(w, p)
    assert spy.call_count == 1
    graph = graph_complex(w, p)
    assert {graph.cells[i].key for i in graph.facet_indices()} <= \
        {c.key for c in res.graph.cells}


def test_standard_plane_from_r2():
    p = PLFunction(MAX, terms=[(0, (0, 0)), (0, (1, 0)), (0, (0, 1))])
    res = complete_modification(rn_complex(2), p)
    assert res.graph.n == 2
    assert res.graph.ambient_dim == 3
    ok, _ = is_balanced(res.graph)
    assert ok
    # Divisor is the tropical line.
    assert res.divisor is not None
    assert weighted_supports_equal(res.divisor, tropical_line())


def test_project_line_recovers_modification():
    res = project_modification(tropical_line(), 1)
    assert weighted_supports_equal(res.source, r1_complex())
    assert res.divisor is not None
    assert res.divisor.cells[0].vertices == ((F(0),),)


def test_project_plane_is_not_modification():
    with pytest.raises(NotAModificationError):
        project_modification(rn_complex(2), 1)


def test_project_two_sheets_has_disconnected_fibers():
    # Two parallel lines are balanced, and both map onto all of R^1.
    sheets = build_complex([(Polyhedron(2, [(0, c)], [(1, 0), (-1, 0)]), 1)
                            for c in (0, 1)])
    with pytest.raises(NotAModificationError, match="disconnected"):
        project_modification(sheets, 1)


def test_project_coordinate_out_of_range():
    # Out of range, unit_vec is the zero vector, which lies in every
    # tangent space; -1 would silently drop the last coordinate.
    for coordinate in (-1, 2, 5):
        with pytest.raises(DimensionError):
            project_modification(tropical_line(), coordinate)


def test_project_bergman_u34():
    v, w, d, coord = matroidal_modification_triple(uniform_matroid(3, 4), 3)
    res = project_modification(v, coord)
    assert weighted_supports_equal(res.source, w)
    assert res.divisor is not None
    assert weighted_supports_equal(res.divisor, d)


def test_matroidal_consistency_u23():
    v, w, d, coord = matroidal_modification_triple(uniform_matroid(2, 3), 2)
    res = project_modification(v, coord)
    assert weighted_supports_equal(res.source, w)
    assert weighted_supports_equal(res.divisor, d)


def test_closed_modification_sedentary_part():
    res = closed_modification(r1_complex(), max_0_x())
    closed = res.graph
    sed_cells = [c for c in closed.cells if c.sedentarity]
    assert len(sed_cells) == 1
    stratum = restrict_to_stratum(closed, {1})
    assert len(stratum.cells) == 1
    assert stratum.cells[0].vertices == ((F(0),),)


def test_modification_keeps_the_compactification():
    # The refined source, graph, cycle and divisor of a modification of T
    # used to lose the point at -inf.
    t1 = closure_in(r1_complex(), [0])
    res = complete_modification(t1, max_0_x())
    for c in (res.source, res.graph, res.divisor):
        assert c.tropical_coords == {0}
    assert any(c.sedentarity == {0} for c in res.source.cells)
    closed = closed_modification(t1, max_0_x())
    assert betti_tables(closed.source) == betti_tables(t1)
    assert closed.graph.tropical_coords == {0, 1}


def test_projection_keeps_the_other_tropical_coordinates():
    # Projecting a cycle in T x R used to drop the compactification of
    # the source and the divisor.
    t1 = closure_in(r1_complex(), [0])
    cycle = complete_modification(t1, max_0_x()).graph
    res = project_modification(cycle, 1)
    assert res.source.tropical_coords == res.divisor.tropical_coords == {0}
    assert weighted_supports_equal(res.source, t1)


def test_projecting_away_a_sedentary_coordinate(monkeypatch):
    # The point (-inf, 0) used to project to a cell sedentary in the
    # coordinate -1, which raised DimensionError; it is no modification.
    # A graph has no facet at -inf in the projected coordinate, so the
    # projection refuses it before rebuilding anything.
    point = build_complex([Polyhedron(2, [(NEG_INF, 0)])], [0])
    completions = []
    monkeypatch.setattr(modifications, "complete_modification",
                        lambda *args: completions.append(args))
    with pytest.raises(NotAModificationError,
                       match=r"facet Polyhedron\(dim 0 in T\^2, sed=\[0\].* "
                             r"sedentary in the projected coordinate 0"):
        project_modification(point, 0)
    assert completions == []


def test_closed_modification_constant_has_no_sedentary_part():
    # With a constant function nothing hangs: the divisor is empty and the
    # closure adds no cells at infinity (the sedentary part is always
    # identified with the divisor).
    p = PLFunction(MAX, terms=[(0, (0,))])
    res = closed_modification(r1_complex(), p)
    assert res.divisor is None
    assert all(not c.sedentarity for c in res.graph.cells)


def test_closed_modification_plane_sedentary_is_divisor():
    p = PLFunction(MAX, terms=[(0, (0, 0)), (0, (1, 0)), (0, (0, 1))])
    res = closed_modification(rn_complex(2), p)
    stratum = restrict_to_stratum(res.graph, {2})
    assert weighted_supports_equal(stratum, res.divisor)


def test_betti_invariance_under_closed_modification():
    res = closed_modification(r1_complex(), max_0_x())
    assert betti_tables(res.graph) == betti_tables(r1_complex())


def test_betti_invariance_closed_plane():
    p = PLFunction(MAX, terms=[(0, (0, 0)), (0, (1, 0)), (0, (0, 1))])
    res = closed_modification(rn_complex(2), p)
    assert betti_tables(res.graph) == betti_tables(rn_complex(2))


def test_weighted_supports_subdivision():
    plain = tropical_line()
    rays = [(-1, 0), (0, -1), (1, 1)]
    cells = []
    for r in rays:
        cells.append((Polyhedron(2, [(0, 0), r]), 1))
        cells.append((Polyhedron(2, [r], [r]), 1))
    subdivided = build_complex(cells)
    assert weighted_supports_equal(plain, subdivided)
    heavier = build_complex([(Polyhedron(2, [(0, 0)], [r]), 2) for r in rays])
    assert not weighted_supports_equal(plain, heavier)


def test_min_convention():
    p = PLFunction("min", terms=[(0, (0,)), (0, (1,))])
    res = complete_modification(r1_complex(), p)
    # min(0, x) breaks upward: the hung facet still points down in the
    # lifted coordinate, and the result is balanced.
    ok, _ = is_balanced(res.graph)
    assert ok
    assert res.divisor is not None


# The functional of a horizontal facet, read at the pivots of its tangent
# space, against a frozen copy of the solve it replaced.


def _solving_functional(directions, values, ambient):
    if not directions:
        return zero_vec(ambient)
    cols = [tuple(d[k] for d in directions) for k in range(ambient)]
    sol = solve(cols, vec(values))
    assert sol is not None
    return vec(sol)


@st.composite
def _horizontal_tangents(draw):
    """A tangent space of Q^r without e_i, and i."""
    r = draw(st.integers(1, 5))
    i = draw(st.integers(0, r - 1))
    entries = st.one_of(st.integers(-4, 4), st.builds(
        F, st.integers(-9, 9), st.sampled_from([2, 3])))
    rows = draw(st.lists(st.lists(entries, min_size=r, max_size=r),
                         max_size=r))
    tangent = Subspace(r, rows)
    assume(not tangent.contains(unit_vec(r, i)))
    return tangent, i


@settings(max_examples=300, deadline=None)
@given(_horizontal_tangents())
def test_graph_functional_matches_the_solve(case):
    tangent, i = case
    basis = tangent.basis
    expected = _solving_functional([b[:i] + b[i + 1:] for b in basis],
                                   [b[i] for b in basis],
                                   tangent.ambient_dim - 1)
    assert _graph_functional(tangent, i) == expected


def test_weighted_supports_refuse_an_impure_complex():
    # The ray -e1 is a maximal cell below the top dimension: no 2-cell can
    # cover it, so a comparison of c with itself could only answer False.
    c = build_complex([(Polyhedron(2, [(0, 0)], [(1, 0), (0, 1)]), 1),
                       (Polyhedron(2, [(0, 0)], [(-1, 0)]), 1)])
    with pytest.raises(PurityError):
        weighted_supports_equal(c, c)
    with pytest.raises(PurityError):
        weighted_supports_equal(tropical_line(), c)


def test_round_trip_of_the_line_builds_no_overlap_cell(monkeypatch):
    # Equal cells, cells on different lines and the two half-lines of the
    # source are all settled by certificates.  Only the continuity check
    # of per-facet data needs a common face itself.
    graph = complete_modification(r1_complex(), max_0_x()).graph
    callers = []

    def counted(fn):
        def wrapper(*args):
            callers.append((fn.__name__, sys._getframe(1).f_code.co_name))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(modifications, "intersect", counted(intersect))
    monkeypatch.setattr(modifications, "from_hrep", counted(from_hrep))
    line = tropical_line()
    assert weighted_supports_equal(line, line)
    assert callers == []
    project_modification(graph, 1)
    assert callers
    assert {caller for _, caller in callers} == {"_check_continuity"}


def test_continuity_check_skips_separated_pieces(monkeypatch):
    # Per-facet data on two disjoint segments: a strict inequality of one
    # segment fails on the other, so no pair is intersected.
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return intersect(a, b)

    monkeypatch.setattr(modifications, "intersect", counted)
    left, right = Polyhedron(1, [(-2,), (-1,)]), Polyhedron(1, [(1,), (2,)])
    apart = build_complex([(left, 1), (right, 1)])
    f = PLFunction(per_facet={left.key: ((0,), 0), right.key: ((1,), 5)})
    assert len(f.affine_pieces(apart)) == 2
    assert calls == []
    # Segments that share the point 0 are intersected, and a jump there
    # is still refused.
    below, above = Polyhedron(1, [(-1,), (0,)]), Polyhedron(1, [(0,), (1,)])
    touching = build_complex([(below, 1), (above, 1)])
    jump = PLFunction(per_facet={below.key: ((0,), 0), above.key: ((1,), 1)})
    with pytest.raises(ModificationError, match="discontinuous"):
        jump.affine_pieces(touching)
    assert len(calls) == 1


# The overlap test against a frozen copy of the comparison that
# intersects every pair of facets.


def _oracle_halfspace_cut(region, a, b):
    return from_hrep(region.ambient_dim, region.hrep[0],
                     region.hrep[1] + ((a, b),), region.sedentarity)


def _oracle_subtract(regions, piece):
    out = []
    for region in regions:
        n = region.dim
        current = region
        inter = intersect(region, piece)
        if inter is None or inter.dim < n:
            out.append(region)
            continue
        for a, b in piece.hrep[1]:
            flipped = _oracle_halfspace_cut(current, tuple(-x for x in a), -b)
            if flipped is not None and flipped.dim == n:
                out.append(flipped)
            current = _oracle_halfspace_cut(current, a, b)
            if current is None or current.dim < n:
                break
    return out


def _oracle_weighted_supports_equal(c1, c2):
    if c1.ambient_dim != c2.ambient_dim or c1.n != c2.n:
        return False
    n = c1.n
    f1 = [(c1.cells[idx], c1.weight(idx))
          for idx in c1.facet_indices() if not c1.cells[idx].sedentarity]
    f2 = [(c2.cells[idx], c2.weight(idx))
          for idx in c2.facet_indices() if not c2.cells[idx].sedentarity]
    for source, target in ((f1, f2), (f2, f1)):
        for cell, weight in source:
            leftovers = [cell]
            for other, w2 in target:
                common = intersect(cell, other)
                if common is None or common.dim < n:
                    continue
                if weight != w2:
                    return False
                leftovers = _oracle_subtract(leftovers, other)
                if not leftovers:
                    break
            if leftovers:
                return False
    return True


_HALVES = st.sampled_from([F(k, 2) for k in range(-4, 5)])


def _segments_r1(draw):
    points = sorted(set(draw(st.lists(_HALVES, min_size=2, max_size=4))))
    assume(len(points) >= 2)
    cells = [Polyhedron(1, [(a,), (b,)]) for a, b in zip(points, points[1:])]
    if draw(st.booleans()):
        cells.append(Polyhedron(1, [(points[-1],)], [(1,)]))
    if draw(st.booleans()):
        cells.append(Polyhedron(1, [(points[0],)], [(-1,)]))
    return cells


def _squares_r2(draw):
    # Unit squares of a grid, each whole or cut along a diagonal; cuts
    # add no vertex on an edge, so any choice is a complex.
    corners = draw(st.sets(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                           min_size=1, max_size=3))
    cells = []
    for i, j in sorted(corners):
        sq = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
        cut = draw(st.sampled_from([None, 0, 1]))
        if cut is None:
            cells.append(Polyhedron(2, sq))
        else:
            a, b = sq[cut], sq[cut + 2]
            cells += [Polyhedron(2, [a, b, sq[cut + 1]]),
                      Polyhedron(2, [a, b, sq[(cut + 3) % 4]])]
    return cells


def _edges_r2(draw):
    # Edges of the unit grid: one-dimensional cells on many lines.
    starts = draw(st.sets(st.tuples(st.integers(-1, 1), st.integers(-1, 1),
                                    st.sampled_from([(1, 0), (0, 1)])),
                          min_size=1, max_size=4))
    return [Polyhedron(2, [(i, j), (i + d[0], j + d[1])])
            for i, j, d in sorted(starts)]


def _quadrants_r2(draw):
    # Quadrant cones at the origin, each whole or cut by its diagonal ray.
    signs = draw(st.sets(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
                         min_size=1, max_size=3))
    cells = []
    for sx, sy in sorted(signs):
        u, v = (sx, 0), (0, sy)
        if draw(st.booleans()):
            cells.append(Polyhedron(2, [(0, 0)], [u, v]))
        else:
            cells += [Polyhedron(2, [(0, 0)], [u, (sx, sy)]),
                      Polyhedron(2, [(0, 0)], [(sx, sy), v])]
    return cells


def _halves(cell, normal, offset):
    """The cell cut by the hyperplane normal . x = offset.  Cutting every
    cell of a complex by one hyperplane subdivides it."""
    eqs, ineqs = cell.hrep
    out = {}
    for sign in (1, -1):
        half = ((tuple(sign * x for x in normal), sign * offset),)
        piece = from_hrep(cell.ambient_dim, eqs, ineqs + half,
                          cell.sedentarity)
        if piece is not None and piece.dim == cell.dim:
            out.setdefault(piece.key, piece)
    return list(out.values())


def _shifted(cell, t):
    return Polyhedron(cell.ambient_dim,
                      [tuple(x + y for x, y in zip(v, t))
                       for v in cell.vertices], cell.rays)


@st.composite
def _support_pairs(draw):
    """Two pure complexes of one dimension in R^1 or R^2, the second made
    from the first by subdividing, shifting, dropping a cell or changing
    a weight, in any mix."""
    family = draw(st.sampled_from([_segments_r1, _squares_r2, _edges_r2,
                                   _quadrants_r2]))
    cells = family(draw)
    r = cells[0].ambient_dim
    weights = [draw(st.sampled_from([1, 1, 2])) for _ in cells]
    first = list(zip(cells, weights))
    second = first
    steps = st.sampled_from(["refine", "refine", "shift", "drop", "drop",
                             "weight"])
    for step in draw(st.lists(steps, max_size=3)):
        if step == "refine":
            normal = tuple(draw(st.integers(-1, 1)) for _ in range(r))
            assume(any(normal))
            offset = draw(_HALVES)
            second = [(piece, w) for c, w in second
                      for piece in _halves(c, normal, offset)]
        elif step == "shift":
            t = tuple(draw(_HALVES) for _ in range(r))
            second = [(_shifted(c, t), w) for c, w in second]
        elif step == "drop" and len(second) > 1:
            k = draw(st.integers(0, len(second) - 1))
            second = second[:k] + second[k + 1:]
        elif step == "weight":
            k = draw(st.integers(0, len(second) - 1))
            c, w = second[k]
            second = second[:k] + [(c, 3 - w)] + second[k + 1:]
    return build_complex(first), build_complex(second)


@settings(max_examples=150, deadline=None)
@given(_support_pairs())
@example((build_complex([(Polyhedron(1, [(0,), (2,)]), 1)]),
          build_complex([(Polyhedron(1, [(0,), (1,)]), 1)])))
def test_weighted_supports_equal_matches_intersecting_every_pair(pair):
    a, b = pair
    assert weighted_supports_equal(a, b) == \
        _oracle_weighted_supports_equal(a, b)
    assert weighted_supports_equal(a, a)


@st.composite
def _overlap_cases(draw):
    """Two cells of a generated pair, facets half the time and any face
    otherwise, and an n at least both dimensions."""
    a, b = draw(_support_pairs())

    def pick(c):
        facets = [c.cells[i] for i in c.facet_indices()]
        return draw(st.sampled_from(facets if draw(st.booleans())
                                    else c.cells))

    x, y = pick(a), pick(b)
    return x, y, draw(st.integers(max(x.dim, y.dim), a.ambient_dim))


@settings(max_examples=300, deadline=None)
@given(_overlap_cases())
@example((Polyhedron(1, [(0,), (2,)]), Polyhedron(1, [(1,), (3,)]), 1))
@example((Polyhedron(2, [(0, 0)]), Polyhedron(2, [(0, 0)]), 1))
def test_full_overlap_matches_the_intersection(case):
    x, y, n = case
    common = intersect(x, y)
    assert _full_overlap(x, y, n) == (common is not None and common.dim >= n)
