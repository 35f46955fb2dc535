"""Tropical modifications: graphs, completion, divisors, projections."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropicoh.cohomology import betti_tables
from tropicoh.errors import (
    DimensionError,
    IntegralityError,
    NotAModificationError,
)
from tropicoh.linalg import Subspace, solve, unit_vec, vec, zero_vec
from tropicoh.matroids import (
    matroidal_modification_triple,
    uniform_matroid,
)
from tropicoh.modifications import (
    MAX,
    PLFunction,
    _graph_functional,
    closed_modification,
    complete_modification,
    graph_complex,
    project_modification,
    weighted_supports_equal,
)
from tropicoh.polyhedral import (
    Polyhedron,
    build_complex,
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
