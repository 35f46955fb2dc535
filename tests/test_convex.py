"""Cone and polyhedron conversions: hand oracles, round trips, and the
double description checked against frozen subset-enumeration oracles."""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropicoh import convex
from tropicoh.convex import (
    cone_facets,
    cone_rays,
    polyhedron_facets,
    polyhedron_generators,
    satisfies,
)
from tropicoh.linalg import (
    Subspace,
    idot,
    is_zero_vec,
    kernel_basis,
    primitive,
    vdot,
    vec,
    zero_vec,
)

F = Fraction


# Frozen oracles: the subset-enumeration kernel that the incremental
# double description replaced.  Facets try every (d-1)-subset of
# generators, rays every (d-1)-subset of inequalities in the pointed
# section.


def _old_cone_facets(generators, ambient_dim):
    gens = [vec(g) for g in generators if not is_zero_vec(vec(g))]
    equations = [primitive(r) for r in kernel_basis(gens, ambient_dim)]
    if not gens:
        return equations, []
    span = Subspace(ambient_dim, gens)
    d = span.dim
    int_gens = [primitive(g) for g in gens]
    normals = set()
    for subset in itertools.combinations(range(len(gens)), d - 1):
        sub = [gens[i] for i in subset]
        if Subspace(ambient_dim, sub).dim != d - 1:
            continue
        cand = kernel_basis(sub + list(span.perp().basis), ambient_dim)
        if len(cand) != 1:
            continue
        n = primitive(cand[0])
        dots = [idot(n, g) for g in int_gens]
        pos = any(x > 0 for x in dots)
        neg = any(x < 0 for x in dots)
        if pos and neg:
            continue
        normals.add(tuple(-x for x in n) if neg else n)
    return equations, sorted(normals)


def _old_cone_rays(ineq_normals, eq_normals, ambient_dim):
    eqs = [vec(e) for e in eq_normals]
    ineqs = [vec(a) for a in ineq_normals]
    v0 = Subspace(ambient_dim, kernel_basis(eqs, ambient_dim))
    if v0.dim == 0:
        return [], []
    if not ineqs:
        return [primitive(r) for r in v0.basis], []
    lineality = [primitive(r) for r in
                 kernel_basis(list(ineqs) + list(v0.perp().basis),
                              ambient_dim)]
    if lineality:
        lin_space = Subspace(ambient_dim, lineality)
        comp = Subspace(ambient_dim,
                        kernel_basis(list(lin_space.basis), ambient_dim))
        comp = comp.perp().sum(v0.perp()).perp()
    else:
        comp = v0
    basis = list(comp.basis)
    dimc = len(basis)
    if dimc == 0:
        return lineality, []
    restricted = [primitive([vdot(a, b) for b in basis]) for a in ineqs]
    rays = set()
    for subset in itertools.combinations(range(len(restricted)), dimc - 1):
        cand = kernel_basis([restricted[i] for i in subset], dimc)
        if len(cand) != 1:
            continue
        v = primitive(cand[0])
        for w in (v, tuple(-x for x in v)):
            if all(idot(a, w) >= 0 for a in restricted):
                amb = zero_vec(ambient_dim)
                for c, b in zip(w, basis):
                    amb = tuple(x + c * y for x, y in zip(amb, b))
                rays.add(primitive(amb))
                break
    return lineality, sorted(rays)


@st.composite
def _systems(draw):
    """Integer rows in dimension 1-5 with duplicate, zero, opposite and
    redundant (sums of two) rows mixed in, plus up to two equations."""
    dim = draw(st.integers(1, 5))
    row = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    rows = draw(st.lists(row, max_size=6))
    extra = []
    for r in rows:
        kind = draw(st.sampled_from(["keep", "duplicate", "opposite", "sum"]))
        if kind == "duplicate":
            extra.append(list(r))
        elif kind == "opposite":
            extra.append([-x for x in r])
        elif kind == "sum":
            other = draw(st.sampled_from(rows))
            extra.append([x + y for x, y in zip(r, other)])
    if draw(st.booleans()):
        extra.append([0] * dim)
    rows = draw(st.permutations(rows + extra))
    eqs = draw(st.lists(row, max_size=2))
    return dim, rows, eqs


_EDGE_SYSTEMS = [
    (3, [], []),                                        # the full space
    (2, [[1, 0], [-1, 0], [0, 1], [0, -1]], []),        # {0} by inequalities
    (2, [[1, 1]], [[1, 0], [0, 1]]),                    # {0} by equations
    (3, [[1, 0, 0]], []),                               # lineality of rank 2
    (3, [[1, 0, 0], [1, 0, 0], [0, 0, 0], [2, 0, 0]], [[0, 1, -1]]),
    (4, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0],
         [0, 0, -1, 0]], []),                           # redundant and opposite
]


def _with_examples(test):
    for example_args in _EDGE_SYSTEMS:
        test = example(example_args)(test)
    return test


@settings(max_examples=400, deadline=None)
@given(_systems())
@_with_examples
def test_cone_rays_matches_subset_enumeration(system):
    dim, ineqs, eqs = system
    assert cone_rays(ineqs, eqs, dim) == _old_cone_rays(ineqs, eqs, dim)


@settings(max_examples=400, deadline=None)
@given(_systems())
@_with_examples
def test_cone_facets_matches_subset_enumeration(system):
    dim, gens, _ = system
    assert cone_facets(gens, dim) == _old_cone_facets(gens, dim)


def test_cone_rays_zero_rows_on_the_line():
    # Every row is zero on R^1, so the whole line is lineality and there is
    # no ray; the oracle agrees now that Subspace(1, []).perp() is Q^1.
    assert cone_rays([[0]], [], 1) == ([(1,)], [])
    assert cone_rays([[0], [0]], [[0]], 1) == ([(1,)], [])
    assert _old_cone_rays([[0]], [], 1) == ([(1,)], [])


@st.composite
def _polytopes_with_rays(draw):
    dim = draw(st.integers(1, 4))
    point = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    verts = draw(st.lists(point, min_size=1, max_size=6))
    direction = st.lists(st.integers(-1, 1), min_size=dim, max_size=dim)
    rays = [r for r in draw(st.lists(direction, max_size=3)) if any(r)]
    return dim, verts, rays


@settings(max_examples=200, deadline=None)
@given(_polytopes_with_rays())
def test_polyhedron_facets_keys_match_subset_enumeration(polytope):
    dim, verts, rays = polytope
    new = polyhedron_facets(verts, rays, dim)
    with mock.patch.object(convex, "cone_facets", _old_cone_facets):
        old = polyhedron_facets(verts, rays, dim)
    assert new == old


def test_cone_facets_quadrant():
    eqs, normals = cone_facets([[1, 0], [0, 1]], 2)
    assert eqs == []
    assert sorted(normals) == [(0, 1), (1, 0)]


def test_cone_facets_single_ray():
    # Double-description oracle for the 2D cone over (1,1): the span is the
    # diagonal (one equation) and one inequality cuts the half-line.
    eqs, normals = cone_facets([[1, 1]], 2)
    assert eqs == [(1, -1)]
    assert len(normals) == 1
    assert vdot(vec(normals[0]), vec([1, 1])) > 0


def test_cone_facets_halfplane_with_lineality():
    eqs, normals = cone_facets([[1, 0], [-1, 0], [0, 1]], 2)
    assert eqs == []
    assert normals == [(0, 1)]


def test_cone_facets_full_plane():
    eqs, normals = cone_facets([[1, 0], [-1, 0], [0, 1], [0, -1]], 2)
    assert eqs == []
    assert normals == []


def test_cone_facets_origin():
    eqs, normals = cone_facets([], 2)
    assert len(eqs) == 2 and normals == []


def test_cone_rays_quadrant():
    lin, rays = cone_rays([[1, 0], [0, 1]], [], 2)
    assert lin == []
    assert sorted(rays) == [(0, 1), (1, 0)]


def test_cone_rays_halfspace():
    lin, rays = cone_rays([[0, 1]], [], 2)
    assert lin == [(1, 0)]
    assert rays == [(0, 1)]


def test_cone_rays_line_from_equation():
    lin, rays = cone_rays([], [[1, -1]], 2)
    assert lin == [(1, 1)]
    assert rays == []


@pytest.mark.parametrize("seed", range(10))
def test_cone_round_trip(seed):
    rng = random.Random(seed)
    gens = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(rng.randint(1, 5))]
    eqs, normals = cone_facets(gens, 3)
    lin, rays = cone_rays(normals, eqs, 3)
    eqs2, normals2 = cone_facets(list(rays) + list(lin) +
                                 [[-x for x in l] for l in lin], 3)
    assert (eqs2, normals2) == (eqs, sorted(normals))


def test_polyhedron_facets_segment():
    eqs, ineqs = polyhedron_facets([[0], [1]], [], 1)
    assert eqs == []
    assert sorted(ineqs) == [((-1,), F(-1)), ((1,), F(0))]


def test_polyhedron_facets_diagonal_ray():
    # Ray from the origin in direction (1,1): one equation x = y and the
    # inequality x >= 0 (double-description oracle for this 2D cone).
    eqs, ineqs = polyhedron_facets([[0, 0]], [[1, 1]], 2)
    assert len(eqs) == 1
    a, b = eqs[0]
    assert b == 0 and (a in ((1, -1), (-1, 1)))
    assert len(ineqs) == 1
    assert vdot(vec(ineqs[0][0]), vec([1, 1])) > 0


def test_polyhedron_facets_full_plane():
    eqs, ineqs = polyhedron_facets(
        [[0, 0]], [[1, 0], [-1, 0], [0, 1], [0, -1]], 2)
    assert eqs == [] and ineqs == []


def test_polyhedron_facets_triangle():
    eqs, ineqs = polyhedron_facets([[0, 0], [1, 0], [0, 1]], [], 2)
    assert eqs == []
    assert len(ineqs) == 3


def test_polyhedron_generators_square():
    out = polyhedron_generators(
        [], [((1, 0), F(0)), ((-1, 0), F(-1)), ((0, 1), F(0)), ((0, -1), F(-1))], 2)
    assert out is not None
    verts, rays, lin = out
    assert sorted(verts) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert rays == [] and lin == []


def test_polyhedron_generators_empty():
    # x >= 0 and -x >= -2 is the segment [0, 2]; x >= 0 and -x >= 2 is empty.
    out = polyhedron_generators([], [((1,), F(0)), ((-1,), F(-2))], 1)
    assert out == ([(F(0),), (F(2),)], [], [])
    assert polyhedron_generators([], [((1,), F(0)), ((-1,), F(2))], 1) is None


def test_polyhedron_generators_point():
    out = polyhedron_generators([((1, 0), F(2)), ((0, 1), F(3))], [], 2)
    verts, rays, lin = out
    assert verts == [(2, 3)] and rays == [] and lin == []


@pytest.mark.parametrize("seed", range(10))
def test_polyhedron_round_trip(seed):
    rng = random.Random(100 + seed)
    verts = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(rng.randint(1, 4))]
    rays = [[rng.randint(-1, 1) for _ in range(2)] for _ in range(rng.randint(0, 2))]
    rays = [r for r in rays if any(r)]
    eqs, ineqs = polyhedron_facets(verts, rays, 2)
    for v in verts:
        assert satisfies(vec(v), eqs, ineqs)
    out = polyhedron_generators(eqs, ineqs, 2)
    assert out is not None
    verts2, rays2, lin2 = out
    eqs2, ineqs2 = polyhedron_facets(
        verts2, list(rays2) + list(lin2) + [[-x for x in l] for l in lin2], 2)
    assert (eqs2, ineqs2) == (eqs, ineqs)
