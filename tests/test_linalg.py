"""Exact linear algebra: frozen oracles and structural properties."""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropicoh import linalg
from tropicoh.errors import CodimensionError, ComplexAxiomError, DimensionError
from tropicoh.linalg import (
    Lattice,
    Subspace,
    _xgcd,
    clear_denominators,
    det,
    hermite_normal_form,
    idet,
    kernel_basis,
    mat,
    mat_mul,
    mat_transpose,
    p_subsets,
    primitive,
    rref,
    smith_normal_form,
    solve,
    sort_with_sign,
    subspace_sum,
    vadd,
    vec,
    vscale,
    vsub,
    wedge_power,
    wedge_vector,
)
from tropicoh.polyhedral import (
    NEG_INF,
    Polyhedron,
    build_complex,
    lattice_quotient,
)
from test_polyhedral import _closed_cones, _points

F = Fraction


def test_rank_kernel_image_identity():
    m = mat([[1, 0], [0, 1]])
    assert len(rref(m)[1]) == 2
    assert kernel_basis(m, 2) == []
    assert Subspace(2, mat_transpose(m)) == Subspace(2, [[1, 0], [0, 1]])


def test_rank_kernel_image_proportional_rows():
    m = mat([[1, 2], [2, 4]])
    assert len(rref(m)[1]) == 1
    # kernel spanned by (2, -1); canonical echelon form is (1, -1/2)
    assert kernel_basis(m, 2) == [(F(1), F(-1, 2))]
    assert Subspace(2, kernel_basis(m, 2)) == Subspace(2, [[2, -1]])
    assert Subspace(2, mat_transpose(m)) == Subspace(2, [[1, 2]])


def test_kernel_basis_hand_oracles():
    # No rows: the kernel is the whole space, in the unit basis.
    assert kernel_basis((), 2) == [(F(1), F(0)), (F(0), F(1))]
    assert kernel_basis((), 0) == []


def test_rank_tropical_line_coboundary():
    # The p=0 compact coboundary of the tropical line is 1x3 with +-1
    # entries; hand row reduction gives rank 1.
    m = mat([[1, -1, 1]])
    assert len(rref(m)[1]) == 1
    assert kernel_basis(m, 3) == [(F(1), F(0), F(-1)), (F(0), F(1), F(1))]


def test_rref_one_liner_oracle():
    # Hand row reduction of [[2,4],[6,8]] over Q.
    red, pivots = rref([[2, 4], [6, 8]])
    assert red == [(F(1), F(0)), (F(0), F(1))]
    assert pivots == [0, 1]


def test_solve_consistent_and_inconsistent():
    cols = [vec([1, 0]), vec([1, 1])]
    assert solve(cols, vec([3, 2])) == (F(1), F(2))
    assert solve([vec([1, 2])], vec([2, 5])) is None


def test_kernel_is_kernel():
    rng = random.Random(5)
    for _ in range(25):
        rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
        for k in kernel_basis(mat(rows), 4):
            for row in rows:
                assert sum(a * b for a, b in zip(row, k)) == 0


# Smith normal form ---------------------------------------------------------


def test_snf_identity():
    u, d, v = smith_normal_form([[1, 0], [0, 1]])
    assert d == mat([[1, 0], [0, 1]])


def test_snf_2x2_oracle():
    # Elementary operations by hand: [[2,4],[6,8]] ~ diag(2, 4).
    u, d, v = smith_normal_form([[2, 4], [6, 8]])
    assert d == mat([[2, 0], [0, 4]])
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    assert mat_mul(mat_mul(u, mat([[2, 4], [6, 8]])), v) == d


def test_snf_zero():
    u, d, v = smith_normal_form([[0]])
    assert d == mat([[0]])


@pytest.mark.parametrize("seed", range(12))
def test_snf_random_properties(seed):
    rng = random.Random(seed)
    nrows = rng.randint(1, 4)
    ncols = rng.randint(1, 4)
    m = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
    u, d, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, mat(m)), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [d[i][i] for i in range(min(nrows, ncols))]
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    for i in range(nrows):
        for j in range(ncols):
            if i != j:
                assert d[i][j] == 0
    # Rank from row reduction equals the count of nonzero Smith entries.
    assert len(rref(m)[1]) == sum(1 for x in diag if x != 0)


# Hermite normal form and lattices -----------------------------------------


def test_hnf_canonical():
    # Any two bases of the same lattice give identical HNF.
    b1 = hermite_normal_form([[1, 2], [0, 3]])
    b2 = hermite_normal_form([[1, 5], [1, 2]])
    assert b1 == b2
    assert b1 == [(1, 2), (0, 3)]


def test_lattice_from_subspace_saturation():
    # span{(2,2)} in Q^2 saturates to Z(1,1).
    s = Subspace(2, [[2, 2]])
    lat = Lattice.from_subspace(s)
    assert lat.basis == ((1, 1),)
    # span{(1,0),(0,2)} is all of Q^2; saturation is Z^2.
    s2 = Subspace(2, [[1, 0], [0, 2]])
    assert Lattice.from_subspace(s2).basis == ((1, 0), (0, 1))


def test_lattice_membership_and_reduce():
    lat = Lattice(2, [[1, 0], [0, 2]])
    assert lat.contains([3, 4])
    assert not lat.contains([0, 1])
    assert lat.reduce([5, 5]) == (F(0), F(1))


def test_quotient_primitive_gcd_oracle():
    # The ray (1,2) over the origin: Z(sigma) = Z(1,2), over Z(tau) = 0.
    sigma = Polyhedron(2, [(0, 0)], [(1, 2)])
    nu = lattice_quotient(sigma, Polyhedron(2, [(0, 0)]))
    assert nu == (1, 2)
    assert math.gcd(*(int(x) for x in nu)) == 1


def test_quotient_primitive_axis():
    axis = Polyhedron(2, [(0, 0)], [(1, 0), (-1, 0)])
    upper = Polyhedron(2, [(0, 0)], [(1, 0), (-1, 0), (0, 1)])
    lower = Polyhedron(2, [(0, 0)], [(1, 0), (-1, 0), (0, -1)])
    assert lattice_quotient(upper, axis) == (0, 1)
    assert lattice_quotient(lower, axis) == (0, -1)


def test_quotient_primitive_ray_gcd_reduction():
    # Direction (2,2): Z(sigma) = Z(1,1), for the ray and for the segment.
    origin = Polyhedron(2, [(0, 0)])
    assert lattice_quotient(Polyhedron(2, [(0, 0)], [(2, 2)]), origin) == (1, 1)
    segment = Polyhedron(2, [(0, 0), (2, 2)])
    assert lattice_quotient(segment, origin) == (1, 1)
    assert lattice_quotient(segment, Polyhedron(2, [(2, 2)])) == (-1, -1)


def test_quotient_primitive_codimension_error():
    # The apex of a 2-cone is a face of codimension two, and a diagonal
    # of a square lies on no facet.
    cone = Polyhedron(2, [(0, 0)], [(1, 0), (0, 1)])
    with pytest.raises(CodimensionError):
        lattice_quotient(cone, Polyhedron(2, [(0, 0)]))
    with pytest.raises(CodimensionError):
        lattice_quotient(cone, cone)
    square = Polyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(CodimensionError):
        lattice_quotient(square, Polyhedron(2, [(0, 0), (1, 1)]))


def test_quotient_primitive_needs_a_sublattice():
    # A face at infinity has no inequality of the cell: across a jump in
    # sedentarity there is no primitive normal to read.
    half_line = Polyhedron(1, [(0,)], [(-1,)])
    with pytest.raises(CodimensionError):
        lattice_quotient(half_line, Polyhedron(1, [(NEG_INF,)]))
    quadrant = Polyhedron(2, [(0, 0)], [(-1, 0), (0, 1)])
    with pytest.raises(CodimensionError):
        lattice_quotient(quadrant, Polyhedron(2, [(NEG_INF, 0)], [(0, 1)]))


def test_quotient_primitive_is_primitive_mod_tau():
    rng = random.Random(11)
    checked = 0
    for _ in range(20):
        n = rng.randint(1, 3)
        den = rng.randint(1, 3)
        verts = [[F(rng.randint(-3, 3), den) for _ in range(n)]
                 for _ in range(rng.randint(1, 4))]
        rays = [[rng.randint(-2, 2) for _ in range(n)]
                for _ in range(rng.randint(0, 2))]
        sigma = Polyhedron(n, verts, rays)
        for tau in sigma.facets:
            nu = lattice_quotient(sigma, tau)
            assert Lattice(n, tau.lattice.basis + (nu,)) == sigma.lattice
            checked += 1
    assert checked


# Wedge powers ---------------------------------------------------------------


def test_wedge_power_plane_in_q3():
    s = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    w = wedge_power(s, 2)
    assert w.dim == 1
    # e1^e2 has coordinates (1, 0, 0) in the lex basis {12, 13, 23}.
    assert w.basis == ((F(1), F(0), F(0)),)


def test_wedge_power_tropical_line_directions():
    spans = [Subspace(2, [[-1, 0]]), Subspace(2, [[0, -1]]), Subspace(2, [[1, 1]])]
    total = subspace_sum([wedge_power(s, 1) for s in spans])
    assert total == Subspace(2, [[1, 0], [0, 1]])


def test_wedge_power_degree_zero():
    s = Subspace(3, [[1, 2, 3]])
    w = wedge_power(s, 0)
    assert w.ambient_dim == 1 and w.dim == 1


@pytest.mark.parametrize("dim,p", [(d, p) for d in range(4) for p in range(5)])
def test_wedge_power_dimension(dim, p):
    s = Subspace(4, [[1 if j == i else 0 for j in range(4)] for i in range(dim)])
    assert wedge_power(s, p).dim == math.comb(dim, p)


def test_wedge_vector_empty():
    assert wedge_vector([]) == (F(1),)


def _old_wedge_vector(vectors):
    """`wedge_vector` as it was: every minor through `det`, which clears
    its rows again."""
    vectors = [vec(v) for v in vectors]
    p = len(vectors)
    if p == 0:
        return (F(1),)
    m = len(vectors[0])
    return tuple(det(tuple(tuple(v[i] for i in k) for v in vectors))
                 for k in p_subsets(m, p))


@st.composite
def _wedge_factors(draw):
    """p = 0..m rational vectors in Q^m, sometimes with one a combination
    of two others (or a multiple of one), so that the wedge vanishes."""
    m = draw(st.integers(1, 4))
    p = draw(st.integers(0, m))
    vectors = [draw(st.lists(_entries, min_size=m, max_size=m))
               for _ in range(p)]
    if p > 1 and draw(st.booleans()):
        i, j, k = draw(st.lists(st.integers(0, p - 1), min_size=3,
                                max_size=3))
        a, b = draw(_entries), draw(_entries)
        vectors[i] = [a * x + b * y for x, y in zip(vectors[j], vectors[k])]
    return vectors


@settings(max_examples=300, deadline=None)
@given(_wedge_factors())
@example([[1, 2, 0], [F(1, 2), 1, 0]])       # dependent: every minor is 0
@example([[F(1, 2), F(1, 3)], [F(-1, 4), 6]])
def test_wedge_vector_matches_per_minor_det(vectors):
    w = wedge_vector(vectors)
    assert w == _old_wedge_vector(vectors)
    assert _all_fractions([w])


# Subspace arithmetic --------------------------------------------------------


def test_subspace_sum_axes():
    assert subspace_sum([Subspace(2, [[1, 0]]), Subspace(2, [[0, 1]])]) == \
        Subspace(2, [[1, 0], [0, 1]])


def test_subspace_sum_with_zero():
    a = Subspace(3, [[1, 2, 0]])
    assert a.sum(Subspace(3, [])) == a


def test_subspace_sum_properties():
    rng = random.Random(7)
    spaces = [Subspace(3, [[rng.randint(-2, 2) for _ in range(3)]
                           for _ in range(rng.randint(0, 2))])
              for _ in range(3)]
    a, b, c = spaces
    assert a.sum(b) == b.sum(a)
    assert a.sum(b).sum(c) == a.sum(b.sum(c))
    assert a.sum(a) == a


@st.composite
def _subspace_lists(draw):
    """One to four random subspaces of one Q^n, as (n, row lists)."""
    n = draw(st.integers(1, 4))
    entries = st.one_of(st.integers(-3, 3),
                        st.builds(F, st.integers(-3, 3), st.integers(1, 3)))
    row = st.lists(entries, min_size=n, max_size=n)
    return n, draw(st.lists(st.lists(row, max_size=3), min_size=1,
                            max_size=4))


@settings(max_examples=150, deadline=None)
@given(_subspace_lists())
def test_subspace_sum_is_the_span_of_all_rows(case):
    # One space is returned as it is; its basis is already canonical.
    n, row_lists = case
    total = subspace_sum([Subspace(n, rows) for rows in row_lists])
    expected = Subspace(n, [r for rows in row_lists for r in rows])
    assert total == expected
    assert total.pivots == expected.pivots


def _intersection(a, b):
    # x in both spans: the complement of the sum of the complements.
    return a.perp().sum(b.perp()).perp()


def test_perp_of_zero_subspace_is_everything():
    # kernel_basis is told the column count, so a matrix with no rows has
    # the whole space as its kernel.
    zero = Subspace(2, [])
    assert zero.perp() == Subspace(2, [[1, 0], [0, 1]])
    assert _intersection(zero, Subspace(2, [[1, 0]])) == zero
    assert _intersection(Subspace(2, [[1, 0]]), zero) == zero
    assert Subspace(2, [[1, 0], [0, 1]]).perp() == zero
    assert Subspace(0, []).perp() == Subspace(0, [])
    with pytest.raises(DimensionError):
        _intersection(zero, Subspace(3, []))


def test_subspace_ambient_mismatch():
    assert Subspace(2, []) != Subspace(3, [])
    with pytest.raises(DimensionError):
        Subspace(2, []).sum(Subspace(3, []))


def test_sort_with_sign():
    assert sort_with_sign((2, 1)) == ((1, 2), -1)
    assert sort_with_sign((1, 2, 3)) == ((1, 2, 3), 1)
    assert sort_with_sign((1, 1)) == ((1, 1), 0)
    assert sort_with_sign((3, 1, 2)) == ((1, 2, 3), 1)


def test_p_subsets_lexicographic():
    assert p_subsets(3, 2) == ((0, 1), (0, 2), (1, 2))


def test_primitive():
    assert primitive([F(2, 3), F(4, 3)]) == (1, 2)
    assert primitive([-2, -4]) == (-1, -2)
    assert primitive([0, 0]) == (0, 0)


# Integer elimination against the elimination over Q ------------------------
#
# The oracles are the Fraction Gauss-Jordan and Gaussian elimination that
# the integer kernel replaced; reduced echelon form is unique, so both must
# give the same rows, pivots and determinants.  `_oracle_kernel` is also the
# two-elimination kernel (the kernel vectors of the rref, then their rref)
# that the one elimination of the column-reversed matrix replaced.


def _oracle_rref(rows):
    work = [[F(x) for x in r] for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0),
                     None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        work[rank] = [x / pv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return [tuple(r) for r in work[:rank]], pivots


def _oracle_kernel(rows, ncols):
    red, pivots = _oracle_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return _oracle_rref(basis)[0]


def _oracle_det(m):
    n = len(m)
    rows = [[F(x) for x in r] for r in m]
    sign = 1
    result = F(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        pv = rows[col][col]
        result *= pv
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                factor = rows[r][col] / pv
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return result * sign


# Negative entries, zeros, and denominators that do not share factors.
_entries = st.one_of(
    st.integers(-9, 9),
    st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 5, 6, 9])))


@st.composite
def _rational_rows(draw, square=False, entries=_entries):
    """Rows of one length: single columns, zero rows and repeated rows
    included; without `square`, also the empty matrix."""
    ncols = draw(st.integers(1, 5))
    nrows = ncols if square else draw(st.integers(0, 5))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if nrows > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, nrows - 1), min_size=2,
                             max_size=2, unique=True))
        rows[i] = list(rows[j])
    return ncols, rows


def _all_fractions(rows):
    return all(type(x) is F for row in rows for x in row)


@settings(max_examples=300, deadline=None)
@given(_rational_rows())
def test_rref_matches_rational_elimination(shape_rows):
    _, rows = shape_rows
    red, pivots = rref(rows)
    assert (red, pivots) == _oracle_rref(rows)
    assert _all_fractions(red)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_rational_rows(),
                 _rational_rows(entries=st.integers(-9, 9))))
@example((3, []))                                      # no rows
@example((3, [[0, 0, 0], [0, 0, 0]]))                  # rank 0
@example((3, [[1, 2, 3], [1, 2, 3]]))                  # duplicate rows
@example((3, [[0, 0, 1], [0, 1, 0], [1, 0, 0]]))       # full rank
@example((4, [[F(1, 2), -3, 0, 5], [0, 0, F(-2, 3), 1]]))
def test_kernel_basis_matches_rational_elimination(shape_rows):
    ncols, rows = shape_rows
    basis = kernel_basis(mat(rows), ncols)
    assert basis == _oracle_kernel(rows, ncols)
    assert _all_fractions(basis)


def test_kernel_basis_is_one_elimination():
    # The kernel is read off one rref of the column-reversed matrix.
    calls = []

    def counting_rref(rows):
        calls.append(rows)
        return rref(rows)

    with mock.patch.object(linalg, "rref", counting_rref):
        assert kernel_basis(mat([[1, 2, 3], [2, 4, 7]]), 3) == \
            [(F(1), F(-1, 2), F(0))]
    assert calls == [[(F(3), F(2), F(1)), (F(7), F(4), F(2))]]


@settings(max_examples=300, deadline=None)
@given(_rational_rows(square=True))
def test_det_matches_rational_elimination(shape_rows):
    _, rows = shape_rows
    d = det(mat(rows))
    assert d == _oracle_det(rows)
    assert type(d) is F


def test_det_of_empty_matrix():
    assert det(()) == 1 and type(det(())) is F


@settings(max_examples=300, deadline=None)
@given(st.one_of(_rational_rows(square=True),
                 _rational_rows(square=True, entries=st.integers(-9, 9))))
@example((0, []))                                      # size 0
@example((1, [[-7]]))                                  # size 1
@example((1, [[0]]))
@example((3, [[1, 2, 3], [2, 4, 6], [0, 1, 5]]))       # singular
@example((3, [[0, 1, 2], [3, 0, 1], [1, 1, 0]]))       # needs a row swap
def test_det_is_idet_of_the_cleared_rows(shape_rows):
    # det clears each row and hands the integer rows to idet, which
    # returns an int and leaves its input as it was.
    _, rows = shape_rows
    cleared = [clear_denominators(r) for r in rows]
    ints = [r for r, _ in cleared]
    before = [list(r) for r in ints]
    got = idet(ints)
    assert type(got) is int and ints == before
    assert got == _oracle_det(ints)
    scale = math.prod(d for _, d in cleared)
    assert det(mat(rows)) == F(got, scale) == _oracle_det(rows)


def test_idet_refuses_a_non_square_matrix():
    with pytest.raises(DimensionError):
        idet([[1, 2]])
    with pytest.raises(DimensionError):
        det(mat([[1, 2]]))


@settings(max_examples=300, deadline=None)
@given(_rational_rows())
def test_subspace_pivots_are_where_coords_read(shape_rows):
    # Each basis row leads with a 1 at its pivot, every other row is zero
    # there, so the pivot entries of a vector are its coordinates.
    ncols, rows = shape_rows
    space = Subspace(ncols, rows)
    pivots = space.pivots
    assert len(pivots) == space.dim
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for k, (row, col) in enumerate(zip(space.basis, pivots)):
        assert row[col] == 1 and not any(row[:col])
        assert all(other[col] == 0
                   for j, other in enumerate(space.basis) if j != k)
        assert space.coords(row) == tuple(
            F(1 if j == k else 0) for j in range(space.dim))


@settings(max_examples=300, deadline=None)
@given(_rational_rows(), st.data())
def test_subspace_reduce_is_the_representative_at_pivots(shape_rows, data):
    # Membership is decided by the rank of rows + [v], not by coords.
    ncols, rows = shape_rows
    space = Subspace(ncols, rows)
    v = vec(data.draw(st.lists(_entries, min_size=ncols, max_size=ncols)))
    if rows and data.draw(st.booleans()):
        v = vec([0] * ncols)
        for row in rows:
            v = vadd(v, vscale(data.draw(_entries), vec(row)))
    red = space.reduce(v)
    assert all(red[p] == 0 for p in space.pivots)
    assert Subspace(ncols, rows + [vsub(v, red)]) == space
    inside = Subspace(ncols, rows + [v]) == space
    assert (not any(red)) == inside == space.contains(v)
    with pytest.raises(DimensionError):
        space.reduce(vec([0] * (ncols + 1)))


def mat_shape(m):
    """(rows, columns) of a matrix given as a list of rows."""
    return (len(m), len(m[0]) if m else 0)


def _mat_inverse(m):
    """Inverse of a square matrix by a rational rref of [m | I]; the
    oracles below read rows of the inverse of a Smith matrix from it."""
    n = len(m)
    aug = [list(m[i]) + [Fraction(1 if j == i else 0) for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return tuple(tuple(row[n:]) for row in red)


def _oracle_quotient_primitive(z_sigma, z_tau, witness):
    """The primitive generator of Z_sigma/Z_tau from a Smith form, with
    the witness side found by solving for the witness in (nu, Z_tau): the
    reference for `polyhedral.lattice_quotient`."""
    m = [z_sigma.coords(row) for row in z_tau.basis]
    k = z_tau.rank
    if k == 0:
        nu = vec(z_sigma.basis[0])
    else:
        _, _, v = smith_normal_form([[int(x) for x in c] for c in m])
        nu = vec([0] * z_sigma.ambient_dim)
        for c, b in zip(_mat_inverse(v)[k], z_sigma.basis):
            nu = vadd(nu, vscale(c, vec(b)))
    sol = solve([nu] + [vec(b) for b in z_tau.basis], vec(witness))
    if sol is None or sol[0] == 0:
        raise CodimensionError("cannot orient")
    if sol[0] < 0:
        nu = vscale(-1, nu)
    return z_tau.reduce(nu)


@st.composite
def _cells_and_faces(draw):
    """Cells with rational vertices, rays and lineality pairs, or closed
    cones in T^3 with their faces at infinity."""
    if draw(st.booleans()):
        cone = draw(_closed_cones())
        try:
            return build_complex([cone], tropical_coords=[0, 1, 2]).cells
        except ComplexAxiomError:
            return [cone]
    n = draw(st.integers(1, 3))
    den = draw(st.integers(1, 3))
    verts = [[F(x, den) for x in v] for v in draw(_points(n, size=(1, 4)))]
    rays = draw(_points(n, size=(0, 2)))
    if draw(st.booleans()):
        line = draw(_points(n, size=(1, 1)))[0]
        rays += [line, tuple(-x for x in line)]
    return [Polyhedron(n, verts, rays)]


@settings(max_examples=150, deadline=None)
@given(_cells_and_faces())
def test_quotient_primitive_matches_solving_oracle(cells):
    for sigma in cells:
        for tau in sigma.facets:
            witness = vsub(sigma.relint_point(), tau.relint_point())
            expected = _oracle_quotient_primitive(sigma.lattice, tau.lattice,
                                                  witness)
            assert lattice_quotient(sigma, tau) == expected


def test_lattice_coords_checks_the_ambient_length():
    with pytest.raises(DimensionError):
        Lattice(2, [[1, 0]]).coords([1, 0, 0])


def _fraction_coords(lattice, v):
    """Frozen copy of `Lattice.coords` as it stepped in Fraction from the
    first basis row, before the integer path."""
    rem = list(vec(v))
    coeffs = []
    for row in lattice.basis:
        j = next(i for i, x in enumerate(row) if x != 0)
        c = Fraction(rem[j], row[j])
        coeffs.append(c)
        rem = [x - c * y for x, y in zip(rem, row)]
    if any(x != 0 for x in rem):
        return None
    return tuple(coeffs)


@st.composite
def _lattice_and_vector(draw):
    """A lattice and an integer combination of its basis (in the lattice),
    a rational one (in the span) or any vector (mostly outside the span)."""
    n = draw(st.integers(1, 4))
    ints = st.integers(-4, 4)
    lattice = Lattice(n, [draw(st.lists(ints, min_size=n, max_size=n))
                          for _ in range(draw(st.integers(0, n)))])
    kind = draw(st.sampled_from(["integer", "rational", "any"]))
    if kind == "any":
        return lattice, vec(draw(st.lists(_entries, min_size=n, max_size=n)))
    v = vec([0] * n)
    for b in lattice.basis:
        c = draw(ints if kind == "integer" else _entries)
        v = vadd(v, vscale(c, vec(b)))
    return lattice, v


@settings(max_examples=400, deadline=None)
@given(_lattice_and_vector())
@example((Lattice(2, [[2, 1], [0, 3]]), vec([1, 2])))   # inexact first step
@example((Lattice(2, [[1, 1], [0, 2]]), vec([1, 2])))   # inexact second step
def test_lattice_coords_match_the_fraction_oracle(case):
    lattice, v = case
    new, old = lattice.coords(v), _fraction_coords(lattice, v)
    assert new == old and hash(new) == hash(old)
    assert lattice.contains(v) == (old is not None
                                   and all(x.denominator == 1 for x in old))


# Integer normal forms -------------------------------------------------------


@st.composite
def _integer_rows(draw):
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(1, 4))
    return [draw(st.lists(st.integers(-12, 12), min_size=ncols,
                          max_size=ncols)) for _ in range(nrows)]


def _determinantal_divisor(rows, k):
    """gcd of all k x k minors: the same for every basis of one lattice."""
    g = 0
    for rs in itertools.combinations(range(len(rows)), k):
        for cs in itertools.combinations(range(len(rows[0])), k):
            g = math.gcd(g, int(det(mat([[rows[r][c] for c in cs]
                                         for r in rs]))))
    return g


@settings(max_examples=150, deadline=None)
@given(_integer_rows())
@example([[0, 2, 0], [1, 0, 1], [1, 1, 0]])  # reduced above pivots in order
def test_hnf_idempotent_and_same_lattice(rows):
    hnf = hermite_normal_form(rows)
    assert hermite_normal_form(hnf) == hnf
    k = len(hnf)
    assert k == len(rref(rows)[1])
    # Every input row has integer coordinates in the HNF rows ...
    for row in rows:
        coords = solve([vec(h) for h in hnf], vec(row))
        assert coords is not None
        assert all(c.denominator == 1 for c in coords)
    # ... and the two lattices have the same covolume, so they are equal.
    if k:
        assert _determinantal_divisor(hnf, k) == \
            _determinantal_divisor(rows, k)


@settings(max_examples=150, deadline=None)
@given(_integer_rows())
def test_snf_unimodular_and_divisibility_chain(rows):
    u, d, v = smith_normal_form(rows)
    assert mat_mul(mat_mul(u, mat(rows)), v) == d
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    diag = [d[i][i] for i in range(min(mat_shape(d)))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert (b % a == 0) if a != 0 else b == 0
    assert all(d[i][j] == 0 for i in range(len(d))
               for j in range(len(d[0])) if i != j)


@settings(max_examples=150, deadline=None)
@given(_integer_rows())
@example([[2, 0], [0, 3]])                # a coprime diagonal is no chain
@example([[0, -4], [0, 6]])               # the corner is made positive
def test_snf_diagonal_is_the_determinantal_divisors(rows):
    # d_1 ... d_k is the gcd of all k x k minors: D by a second path that
    # runs no elimination.
    _, d, _ = smith_normal_form(rows)
    prefix = 1
    for k in range(1, min(mat_shape(d)) + 1):
        prefix *= d[k - 1][k - 1]
        assert prefix == _determinantal_divisor(rows, k)


def _inverse_saturation(space):
    """Frozen copy of `Lattice.from_subspace` as it read the saturation
    off the first rank rows of V^{-1}, by a rational inverse."""
    if space.dim == 0:
        return Lattice(space.ambient_dim, ())
    u, d, v = smith_normal_form([primitive(row) for row in space.basis])
    rank = sum(1 for i in range(min(mat_shape(d))) if d[i][i] != 0)
    v_inv = _mat_inverse(v)
    return Lattice(space.ambient_dim, [v_inv[i] for i in range(rank)])


@settings(max_examples=300, deadline=None)
@given(_rational_rows())
@example((3, [[2, 0, 1], [0, 2, 1]]))     # D = diag(1, 2)
@example((4, [[3, 0, 0, 1], [0, 3, 0, 1], [0, 0, 3, 1]]))
def test_saturation_off_u_a_matches_the_inverse_of_v(shape_rows):
    ncols, rows = shape_rows
    space = Subspace(ncols, rows)
    assert Lattice.from_subspace(space) == _inverse_saturation(space)


@settings(max_examples=150, deadline=None)
@given(_rational_rows())
def test_lattice_saturation_idempotent(shape_rows):
    ncols, rows = shape_rows
    once = Lattice.from_subspace(Subspace(ncols, rows))
    assert once.span() == Subspace(ncols, rows)
    assert Lattice.from_subspace(once.span()) == once


# The Hermite form as one column sweep, against a frozen copy of the row
# insertion it replaced (insert each row, sort by pivot, re-run when two
# pivots collided).


def _insertion_hnf(rows):
    work = [[int(x) for x in r] for r in rows]
    if not work:
        return []
    ncols = len(work[0])
    basis = []
    for v in work:
        v = v[:]
        for row in basis:
            j = next(i for i, x in enumerate(row) if x != 0)
            if v[j] == 0:
                continue
            a, b = row[j], v[j]
            if b % a == 0:
                q = b // a
                for k in range(ncols):
                    v[k] -= q * row[k]
            else:
                g, x, y = _xgcd(a, b)
                new_row = [x * p + y * q for p, q in zip(row, v)]
                v = [(-b // g) * p + (a // g) * q for p, q in zip(row, v)]
                row[:] = new_row
        if any(x != 0 for x in v):
            basis.append(v)
    basis.sort(key=lambda r: next(i for i, x in enumerate(r) if x != 0))
    pivs = [next(i for i, x in enumerate(r) if x != 0) for r in basis]
    if len(set(pivs)) != len(pivs):
        return _insertion_hnf(basis)
    for r in basis:
        j = next(i for i, x in enumerate(r) if x != 0)
        if r[j] < 0:
            r[:] = [-x for x in r]
    for i in range(len(basis)):
        j = next(k for k, x in enumerate(basis[i]) if x != 0)
        p = basis[i][j]
        for up in range(i):
            q = basis[up][j] // p
            if q != 0:
                basis[up] = [a - q * b for a, b in zip(basis[up], basis[i])]
    return [tuple(r) for r in basis]


@settings(max_examples=400, deadline=None)
@given(_rational_rows(entries=st.integers(-12, 12)))
@example((2, []))
@example((2, [[0, 0], [0, 0]]))
@example((2, [[-2, 1]]))                  # the pivot is made positive
@example((2, [[1, -1], [0, 2]]))          # -1 reduces by floor to 1
@example((3, [[4, 6, -5], [4, 6, -5], [6, 9, 7]]))
@example((3, [[0, 2, 0], [1, 0, 1], [1, 1, 0]]))
def test_hnf_matches_insertion_oracle(shape_rows):
    _, rows = shape_rows
    hnf = hermite_normal_form(rows)
    assert hnf == _insertion_hnf(rows)
    assert all(type(x) is int for row in hnf for x in row)

