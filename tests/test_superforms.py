"""Superform algebra and exact integration.

The algebra identities (squares of differentials, Leibniz, pullback
functoriality) run under hypothesis on randomly generated polynomial
forms; Stokes residuals are checked exactly on random simplices and boxes.
"""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropicoh import polyhedral
from tropicoh.errors import DegreeError, DimensionError, UnboundedDomainError
from tropicoh.convex import polyhedron_facets
from tropicoh.linalg import Subspace, det, mat_mul, mat, vdot, vec, vsub
from tropicoh.polynomial import Poly
from tropicoh.polyhedral import Polyhedron, build_complex
from tropicoh.superforms import (
    PolySuperform,
    balanced_face_cancellation,
    boundary_integral,
    contract,
    d_prime,
    d_second,
    form_from_terms,
    integrate_cell,
    pullback,
    stokes_cell_residual,
    triangulate_polytope,
    wedge,
)

F = Fraction


def x_poly(n, i):
    return Poly.variable(n, i)


@st.composite
def polys(draw, nvars, max_degree=2):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        mono = tuple(draw(st.integers(0, max_degree)) for _ in range(nvars))
        coeff = F(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        terms[mono] = coeff
    return Poly(nvars, terms)


@st.composite
def superforms(draw, nvars=None, p=None, q=None):
    n = nvars if nvars is not None else draw(st.integers(1, 3))
    p = p if p is not None else draw(st.integers(0, n))
    q = q if q is not None else draw(st.integers(0, n))
    keys = list(itertools.product(
        itertools.combinations(range(n), p),
        itertools.combinations(range(n), q)))
    terms = {}
    for key in draw(st.lists(st.sampled_from(keys), max_size=3)):
        terms[key] = draw(polys(n))
    return PolySuperform(n, p, q, terms)


def test_d_second_sign_rule():
    # d''(x d'x) = -d'x ^ d''x in one variable.
    alpha = form_from_terms(1, 1, 0, [((0,), (), x_poly(1, 0))])
    out = d_second(alpha)
    assert out.terms == {((0,), (0,)): Poly.constant(1, -1)}


def test_d_second_constant_coefficient():
    alpha = form_from_terms(2, 1, 0, [((0,), (), 5)])
    assert d_second(alpha).is_zero()


def test_d_second_function():
    # d''(x*y) = y d''x + x d''y.
    f = x_poly(2, 0) * x_poly(2, 1)
    alpha = form_from_terms(2, 0, 0, [((), (), f)])
    out = d_second(alpha)
    assert out.terms == {((), (0,)): x_poly(2, 1), ((), (1,)): x_poly(2, 0)}


@settings(max_examples=60, deadline=None)
@given(superforms())
def test_dd_squares_to_zero(alpha):
    assert d_second(d_second(alpha)).is_zero()
    assert d_prime(d_prime(alpha)).is_zero()


def test_d_prime_sign_rule():
    # d'(x d''x) = d'x ^ d''x in one variable: d' takes no factor (-1)^p.
    alpha = form_from_terms(1, 0, 1, [((), (0,), x_poly(1, 0))])
    assert d_prime(alpha).terms == {((0,), (0,)): Poly.constant(1, 1)}


@settings(max_examples=60, deadline=None)
@given(superforms())
def test_d_prime_and_d_second_anticommute(alpha):
    assert (d_prime(d_second(alpha)) + d_second(d_prime(alpha))).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_leibniz_rule_d_prime(data):
    n = data.draw(st.integers(1, 3))
    alpha = data.draw(superforms(nvars=n))
    beta = data.draw(superforms(nvars=n))
    if alpha.p + beta.p + 1 > n or alpha.q + beta.q > n:
        return
    lhs = d_prime(wedge(alpha, beta))
    sign = (-1) ** (alpha.p + alpha.q)
    rhs = wedge(d_prime(alpha), beta) + wedge(alpha, d_prime(beta)).scale(sign)
    assert lhs == rhs


def test_form_from_terms_adds_repeated_pairs():
    # A repeated (K, L) used to keep only its last coefficient.
    alpha = form_from_terms(1, 0, 0, [((), (), 1), ((), (), 2)])
    assert alpha.terms == {((), ()): Poly.constant(1, 3)}


def test_wedge_basic_sign():
    a = form_from_terms(2, 1, 0, [((0,), (), 1)])
    b = form_from_terms(2, 0, 1, [((), (1,), 1)])
    w = wedge(a, b)
    assert w.terms == {((0,), (1,)): Poly.constant(2, 1)}


def test_wedge_repeated_index_is_zero():
    a = form_from_terms(2, 1, 0, [((0,), (), 1)])
    assert wedge(a, a).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_leibniz_rule(data):
    n = data.draw(st.integers(1, 3))
    alpha = data.draw(superforms(nvars=n))
    beta = data.draw(superforms(nvars=n))
    if alpha.p + beta.p > n or alpha.q + beta.q + 1 > n:
        return
    lhs = d_second(wedge(alpha, beta))
    sign = (-1) ** (alpha.p + alpha.q)
    rhs = wedge(d_second(alpha), beta) + wedge(alpha, d_second(beta)).scale(sign)
    assert lhs == rhs


def test_contract_examples():
    # <x d'x; e1>_1 = x.
    alpha = form_from_terms(1, 1, 0, [((0,), (), x_poly(1, 0))])
    out = contract(alpha, [1], 1)
    assert out.terms == {((), ()): x_poly(1, 0)}
    # Inserting e2 into slot 1 of d'x ^ d'y kills the x-slot: -d'x.
    beta = form_from_terms(2, 2, 0, [((0, 1), (), 1)])
    out = contract(beta, [0, 1], 1)
    assert out.terms == {((0,), ()): Poly.constant(2, -1)}
    # Contraction by the zero vector vanishes.
    assert contract(beta, [0, 0], 1).is_zero()
    with pytest.raises(DegreeError):
        contract(form_from_terms(1, 0, 0, [((), (), 1)]), [1], 1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_contract_matches_brute_force(data):
    n = data.draw(st.integers(1, 3))
    p = data.draw(st.integers(1, n))
    alpha = data.draw(superforms(nvars=n, p=p))
    slot = data.draw(st.integers(1, p))
    v = [data.draw(st.integers(-2, 2)) for _ in range(n)]
    out = contract(alpha, v, slot)
    rng = random.Random(7)
    point = [rng.randint(-2, 2) for _ in range(n)]
    dvs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(p - 1)]
    wvs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(alpha.q)]
    inserted = dvs[:slot - 1] + [v] + dvs[slot - 1:]
    assert out.evaluate(point, dvs, wvs) == alpha.evaluate(point, inserted, wvs)


def test_pullback_identity():
    alpha = form_from_terms(2, 1, 1, [((0,), (1,), x_poly(2, 0))])
    rows = [[1, 0], [0, 1]]
    assert pullback(rows, [0, 0], alpha) == alpha


def test_pullback_graph_map():
    # Pull back d'x_2 along x -> (x, x): the slope-1 lift gives d'x.
    alpha = form_from_terms(2, 1, 0, [((1,), (), 1)])
    out = pullback([[1], [1]], [0, 0], alpha)
    assert out.terms == {((0,), ()): Poly.constant(1, 1)}


def test_pullback_projection():
    # Pull back d'x ^ d''x along (x, y) -> x.
    alpha = form_from_terms(1, 1, 1, [((0,), (0,), 1)])
    out = pullback([[1, 0]], [0], alpha)
    assert out.terms == {((0,), (0,)): Poly.constant(2, 1)}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_pullback_functorial_and_commutes(data):
    n = 2
    alpha = data.draw(superforms(nvars=n))
    a_rows = [[data.draw(st.integers(-2, 2)) for _ in range(2)] for _ in range(2)]
    a_const = [data.draw(st.integers(-2, 2)) for _ in range(2)]
    b_rows = [[data.draw(st.integers(-2, 2)) for _ in range(2)] for _ in range(2)]
    b_const = [data.draw(st.integers(-2, 2)) for _ in range(2)]
    # (F o G)^* = G^* o F^*.
    comp_rows = mat_mul(mat(a_rows), mat(b_rows))
    comp_const = [sum(a_rows[i][j] * b_const[j] for j in range(2)) + a_const[i]
                  for i in range(2)]
    lhs = pullback(comp_rows, comp_const, alpha)
    rhs = pullback(b_rows, b_const, pullback(a_rows, a_const, alpha))
    assert lhs == rhs
    # Pullback commutes with d''.
    if alpha.q < n:
        assert pullback(a_rows, a_const, d_second(alpha)) == \
            d_second(pullback(a_rows, a_const, alpha))


def _termwise_pullback(linear_rows, constants, alpha):
    """Frozen copy of `pullback` as it composed every source coefficient
    with the map and then spread it over the target pairs by minors."""
    rows = [vec(r) for r in linear_rows]
    consts = vec(constants)
    source_dim = len(rows[0]) if rows else 0
    out = {}
    k_targets = list(itertools.combinations(range(source_dim), alpha.p))
    l_targets = list(itertools.combinations(range(source_dim), alpha.q))
    for (k, l), f in alpha.terms.items():
        fc = f.compose_affine(rows, consts)
        if fc.is_zero():
            continue
        for k2 in k_targets:
            mk = det(tuple(tuple(rows[i][j] for j in k2) for i in k))
            if mk == 0:
                continue
            for l2 in l_targets:
                ml = det(tuple(tuple(rows[i][j] for j in l2) for i in l))
                if ml == 0:
                    continue
                key = (k2, l2)
                term = fc.scale(mk * ml)
                out[key] = out[key] + term if key in out else term
    return PolySuperform(source_dim, alpha.p, alpha.q, out)


@st.composite
def _forms_and_maps(draw):
    """A form on R^n and an affine map R^m -> R^n, m <= 3.  Map rows come
    from a small pool, so repeated rows (a linear part that is not
    injective, and minors that cancel between terms) are common."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3))
    alpha = draw(superforms(nvars=n))
    pool = [tuple(draw(st.integers(-2, 2)) for _ in range(m))
            for _ in range(draw(st.integers(1, n)))]
    rows = [draw(st.sampled_from(pool)) for _ in range(n)]
    consts = [F(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
              for _ in range(n)]
    return rows, consts, alpha


# d'x_0 - d'x_1 with equal coefficients, along x -> (x, x): the two
# composed terms cancel in the one target pair.
_CANCELLING = ([(1,), (1,)], [0, 1],
               form_from_terms(2, 1, 0, [((0,), (), x_poly(2, 0)),
                                         ((1,), (), x_poly(2, 0).scale(-1))]))


@settings(max_examples=200, deadline=None)
@given(_forms_and_maps())
@example(_CANCELLING)
@example(([(1, 2, 0), (2, 4, 0)], [1, -1],
          form_from_terms(2, 2, 1, [((0, 1), (0,), x_poly(2, 1))])))
def test_pullback_matches_the_termwise_oracle(case):
    rows, consts, alpha = case
    assert pullback(rows, consts, alpha) == \
        _termwise_pullback(rows, consts, alpha)


def test_pullback_of_cancelling_terms_is_zero():
    assert pullback(*_CANCELLING).is_zero()


def test_superform_negative_ambient_dimension():
    with pytest.raises(DimensionError):
        PolySuperform(-1, 0, 0)

# -- integration -------------------------------------------------------------------


def test_integrate_unit_segment():
    alpha = form_from_terms(1, 1, 1, [((0,), (0,), 1)])
    seg = Polyhedron(1, [(0,), (1,)])
    assert integrate_cell(alpha, seg) == 1


def test_integrate_lattice_normalization():
    # Segment (0,0)-(1,1): d'x ^ d''x restricts to the lattice coordinate
    # form d'u ^ d''u, so the lattice length is one, not sqrt(2).
    alpha = form_from_terms(2, 1, 1, [((0,), (0,), 1)])
    seg = Polyhedron(2, [(0, 0), (1, 1)])
    assert integrate_cell(alpha, seg) == 1
    # The x-monomial example: integral of x over [0,1] is 1/2.
    gamma = form_from_terms(1, 1, 1, [((0,), (0,), x_poly(1, 0))])
    assert integrate_cell(gamma, Polyhedron(1, [(0,), (1,)])) == F(1, 2)


def test_integrate_unimodular_invariance():
    # The interleaved top form x*y d'x^d''x^d'y^d''y equals minus the
    # sorted-basis form in two variables; its square integral is 1/4.
    alpha = form_from_terms(
        2, 2, 2, [((0, 1), (0, 1), (x_poly(2, 0) * x_poly(2, 1)).scale(-1))])
    sq = Polyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    direct = integrate_cell(alpha, sq)
    assert direct == F(1, 4)
    # Triangulation refinement invariance: two triangles sum to the same.
    t1 = Polyhedron(2, [(0, 0), (1, 0), (1, 1)])
    t2 = Polyhedron(2, [(0, 0), (0, 1), (1, 1)])
    assert integrate_cell(alpha, t1) + integrate_cell(alpha, t2) == direct


def test_integration_interns_no_parameter_cell():
    # The cell itself is triangulated and each simplex mapped to lattice
    # parameters, so no polytope of the parameter space Q^2 is interned.
    # A square in the plane z = x + y of R^3, of lattice area 1.
    square = Polyhedron(3, [(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2)])
    alpha = form_from_terms(3, 2, 2, [((0, 1), (0, 1), -1)])
    interned = polyhedral._interned
    ambients = []

    def recording(ambient_dim, *signature):
        ambients.append(ambient_dim)
        return interned(ambient_dim, *signature)

    with mock.patch.object(polyhedral, "_interned", recording):
        assert integrate_cell(alpha, square) == 1
    assert ambients and set(ambients) == {3}


def test_integrate_unbounded_rejected():
    alpha = form_from_terms(1, 1, 1, [((0,), (0,), 1)])
    with pytest.raises(UnboundedDomainError):
        integrate_cell(alpha, Polyhedron(1, [(0,)], [(1,)]))


def test_boundary_integral_segment():
    # beta = x d'x on [0,1]: only the endpoint {1} contributes -1.
    beta = form_from_terms(1, 1, 0, [((0,), (), x_poly(1, 0))])
    seg = Polyhedron(1, [(0,), (1,)])
    assert boundary_integral(beta, seg) == -1


def test_boundary_integral_constant_symmetric():
    beta = form_from_terms(1, 1, 0, [((0,), (), 1)])
    seg = Polyhedron(1, [(-1,), (1,)])
    assert boundary_integral(beta, seg) == 0


def test_stokes_segment():
    beta = form_from_terms(1, 1, 0, [((0,), (), x_poly(1, 0))])
    assert stokes_cell_residual(beta, Polyhedron(1, [(0,), (1,)])) == 0


def test_stokes_square():
    f = x_poly(2, 0) * x_poly(2, 0) * x_poly(2, 1)  # x^2 y
    beta = form_from_terms(2, 2, 1, [((0, 1), (0,), f)])
    sq = Polyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert stokes_cell_residual(beta, sq) == 0


def test_stokes_zero_form():
    beta = PolySuperform(2, 2, 1, {})
    sq = Polyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert stokes_cell_residual(beta, sq) == 0


def _random_form(rng, n, p, q, degree=3):
    import itertools
    terms = {}
    for k in itertools.combinations(range(n), p):
        for l in itertools.combinations(range(n), q):
            poly_terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, degree) for _ in range(n))
                if sum(mono) > degree:
                    continue
                poly_terms[mono] = F(rng.randint(-5, 5), rng.randint(1, 4))
            terms[(k, l)] = Poly(n, poly_terms)
    return PolySuperform(n, p, q, terms)


def _random_simplex(rng, n):
    while True:
        verts = [tuple(F(rng.randint(-6, 6), rng.randint(1, 2))
                       for _ in range(n)) for _ in range(n + 1)]
        p = Polyhedron(n, verts)
        if p.dim == n:
            return p


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stokes_random_simplices(n):
    rng = random.Random(40 + n)
    for _ in range(6):
        beta = _random_form(rng, n, n, n - 1)
        cell = _random_simplex(rng, n)
        assert stokes_cell_residual(beta, cell) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_stokes_random_prisms(n):
    rng = random.Random(60 + n)
    for _ in range(4):
        base = _random_simplex(rng, n - 1)
        h1 = F(rng.randint(-3, 0))
        h2 = F(rng.randint(1, 4))
        verts = [tuple(list(v) + [h]) for v in base.vertices for h in (h1, h2)]
        prism = Polyhedron(n, verts)
        beta = _random_form(rng, n, n, n - 1)
        assert stokes_cell_residual(beta, prism) == 0


def test_triangulate_square():
    simplices = triangulate_polytope(
        [(0, 0), (1, 0), (0, 1), (1, 1)], 2)
    assert len(simplices) == 2
    assert all(len(s) == 3 for s in simplices)


def _old_triangulate_polytope(vertices, ambient_dim):
    """The pulling triangulation over its own facet enumeration."""
    verts = sorted({vec(v) for v in vertices})
    base = verts[0]
    span = [vsub(v, base) for v in verts[1:]]
    d = Subspace(ambient_dim, span).dim
    if d == 0:
        return [(base,)]
    if len(verts) == d + 1:
        return [tuple(verts)]
    _, ineqs = polyhedron_facets(verts, [], ambient_dim)
    out = []
    for a, b in ineqs:
        a = vec(a)
        if vdot(a, base) == b:
            continue
        tight = [v for v in verts if vdot(a, v) == b]
        for s in _old_triangulate_polytope(tight, ambient_dim):
            out.append((base,) + s)
    return out


@st.composite
def _point_sets(draw):
    """Rational points in dimension 1 to 3, often on a line or a plane."""
    n = draw(st.integers(1, 3))
    coord = st.builds(F, st.integers(-3, 3), st.integers(1, 2))
    point = st.lists(coord, min_size=n, max_size=n).map(tuple)
    points = draw(st.lists(point, min_size=1, max_size=7))
    flat = draw(st.sampled_from(["full", "line", "plane"]))
    if flat == "line":
        origin, direction = draw(point), draw(point)
        points = [tuple(o + t * d for o, d in zip(origin, direction))
                  for t in draw(st.lists(coord, min_size=1, max_size=5))]
    elif flat == "plane" and n == 3:
        points = [(x, y, x - 2 * y) for x, y, _ in points]
    return points, n


@settings(max_examples=300, deadline=None)
@given(_point_sets())
def test_triangulation_matches_its_own_facet_enumeration(case):
    points, n = case
    assert triangulate_polytope(points, n) == \
        _old_triangulate_polytope(points, n)


# -- balanced face cancellation ------------------------------------------------------


def tropical_line(weights=(1, 1, 1)):
    rays = [(-1, 0), (0, -1), (1, 1)]
    return build_complex(
        [(Polyhedron(2, [(0, 0)], [r]), w) for r, w in zip(rays, weights)])


def test_cancellation_balanced_line():
    line = tropical_line()
    beta = form_from_terms(2, 1, 0, [((0,), (), x_poly(2, 0)),
                                     ((1,), (), x_poly(2, 1) * x_poly(2, 0))])
    values = balanced_face_cancellation(line, beta, ((-2, -2), (2, 2)))
    assert values and all(v == 0 for v in values.values())


def test_cancellation_unbalanced_line():
    line = tropical_line((1, 1, 2))
    beta = form_from_terms(2, 1, 0, [((0,), (), 1)])
    values = balanced_face_cancellation(line, beta, ((-2, -2), (2, 2)))
    assert any(v != 0 for v in values.values())


@pytest.mark.parametrize("ambient", [1, 3])
def test_cancellation_rejects_a_form_of_another_ambient(ambient):
    # On R^1 the form used to give 0 on the unbalanced line in R^2, and on
    # R^3 it crashed with an IndexError.
    line = tropical_line((1, 1, 2))
    beta = form_from_terms(ambient, 1, 0, [((ambient - 1,), (), 1)])
    with pytest.raises(DimensionError):
        balanced_face_cancellation(line, beta, ((-2, -2), (2, 2)))


@pytest.mark.parametrize("index", [((-1,), ()), ((0,), (-2,)), ((2,), ()),
                                   ((F(1, 2),), ()), ((0,), (True,)),
                                   ((0,), (F(1),))],
                         ids=["negative-first", "negative-second", "past-end",
                              "fraction", "bool", "integral-fraction"])
def test_superform_index_outside_the_coordinates(index):
    # A negative index used to be accepted and read as a coordinate counted
    # from the end; a fractional one was accepted too, and d'' then keyed
    # a term by ((1/2,), (0,)) and contraction raised a bare TypeError.
    p, q = (len(k) for k in index)
    with pytest.raises(DimensionError):
        PolySuperform(2, p, q, {index: 1})


def test_cancellation_axes():
    rays = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    axes = build_complex([(Polyhedron(2, [(0, 0)], [r]), 1) for r in rays])
    beta = form_from_terms(2, 1, 0, [((0,), (), x_poly(2, 1)),
                                     ((1,), (), 3)])
    values = balanced_face_cancellation(axes, beta, ((-1, -1), (1, 1)))
    assert all(v == 0 for v in values.values())
