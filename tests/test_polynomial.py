"""Polynomial arithmetic and exact simplex integration."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropicoh.linalg import det, vec
from tropicoh.polynomial import (
    Poly,
    integrate_over_simplex,
    integrate_over_standard_simplex,
)

F = Fraction


def x(n, i):
    return Poly.variable(n, i)


def test_arithmetic():
    p = x(2, 0) * x(2, 0) + x(2, 1).scale(3)
    q = p - x(2, 1).scale(3)
    assert q == x(2, 0) * x(2, 0)
    assert p.evaluate([2, 1]) == 7


def test_partial_derivative():
    p = x(2, 0) * x(2, 0) * x(2, 1)  # x^2 y
    assert p.partial(0) == x(2, 0).scale(2) * x(2, 1)
    assert p.partial(1) == x(2, 0) * x(2, 0)
    assert p.partial(0).partial(1) == p.partial(1).partial(0)


def test_compose_affine():
    p = x(1, 0)  # t
    # t = 2u + 3v + 1
    q = p.compose_affine([[2, 3]], [1])
    assert q.evaluate([1, 1]) == 6


def test_substitute_matches_evaluation():
    rng = random.Random(0)
    for _ in range(10):
        p = Poly(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                     for _ in range(3)})
        a, b, c, d, e, f = [rng.randint(-2, 2) for _ in range(6)]
        q = p.compose_affine([[a, b], [c, d]], [e, f])
        for pt in [(0, 0), (1, 2), (-1, 3)]:
            u, v = pt
            assert q.evaluate(pt) == p.evaluate((a * u + b * v + e,
                                                 c * u + d * v + f))


def test_standard_simplex_monomials():
    # Dirichlet formula oracles: integral of 1 over the n-simplex is 1/n!,
    # of x over the 1-simplex is 1/2, of x*y over the 2-simplex is 1/24.
    assert integrate_over_standard_simplex(Poly.constant(2, 1)) == F(1, 2)
    assert integrate_over_standard_simplex(x(1, 0)) == F(1, 2)
    assert integrate_over_standard_simplex(x(2, 0) * x(2, 1)) == F(1, 24)


def _fubini_standard_simplex(p: Poly) -> Fraction:
    """Independent oracle: iterated antiderivatives with polynomial bounds."""
    n = p.nvars
    if n == 0:
        return p.evaluate([])
    # Integrate out the last variable from 0 to 1 - sum(other vars).
    out = Poly(n - 1, {})
    upper = Poly.constant(n - 1, 1)
    for i in range(n - 1):
        upper = upper - Poly.variable(n - 1, i)
    for mono, coeff in p.terms.items():
        e = mono[n - 1]
        anti_coeff = Fraction(coeff, e + 1)
        rest = Poly(n - 1, {mono[:-1]: anti_coeff})
        powered = Poly.constant(n - 1, 1)
        for _ in range(e + 1):
            powered = powered * upper
        out = out + rest * powered
    return _fubini_standard_simplex(out)


def test_standard_simplex_against_fubini():
    rng = random.Random(1)
    for n in (1, 2, 3):
        for _ in range(5):
            p = Poly(n, {tuple(rng.randint(0, 2) for _ in range(n)):
                         F(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(4)})
            assert integrate_over_standard_simplex(p) == _fubini_standard_simplex(p)


def test_integrate_over_simplex_affine_invariance():
    # Unit square diagonal split: integral of x over the two triangles
    # sums to the square integral 1/2.
    p = x(2, 0)
    t1 = integrate_over_simplex(p, [(0, 0), (1, 0), (1, 1)])
    t2 = integrate_over_simplex(p, [(0, 0), (0, 1), (1, 1)])
    assert t1 + t2 == F(1, 2)


def test_integrate_degenerate_simplex_is_zero():
    assert integrate_over_simplex(x(2, 0), [(0, 0), (1, 1), (2, 2)]) == 0


def _composing_integral(p: Poly, simplex_vertices) -> Fraction:
    """Frozen copy of `integrate_over_simplex` as it composed p with the
    map from the standard simplex and integrated monomial by monomial."""
    verts = [vec(v) for v in simplex_vertices]
    n = p.nvars
    v0 = verts[0]
    edge_cols = [tuple(v[i] - v0[i] for v in verts[1:]) for i in range(n)]
    jac = det(tuple(edge_cols))
    if jac == 0:
        return Fraction(0)
    composed = p.compose_affine(edge_cols, v0)
    return abs(jac) * integrate_over_standard_simplex(composed)


_rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _polys_and_simplices(draw):
    """A polynomial in n <= 4 variables of degree <= 7 and n+1 rational
    vertices; sometimes the last vertex is an affine combination of two
    others, so the simplex is degenerate."""
    n = draw(st.integers(0, 4))
    degree = draw(st.integers(0, 7))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = [0] * n
        for _ in range(draw(st.integers(0, degree))):
            if n:
                mono[draw(st.integers(0, n - 1))] += 1
        terms[tuple(mono)] = draw(_rationals)
    verts = [tuple(draw(_rationals) for _ in range(n)) for _ in range(n + 1)]
    if n and draw(st.booleans()):
        t = draw(_rationals)
        a, b = verts[0], verts[draw(st.integers(1, n))]
        verts[-1] = tuple(x + t * (y - x) for x, y in zip(a, b))
    return Poly(n, terms), verts


@settings(max_examples=200, deadline=None)
@given(_polys_and_simplices())
@example((Poly.constant(0, F(5, 3)), [()]))
@example((Poly(1, {(7,): 1}), [(F(-1, 2),), (3,)]))
@example((Poly(2, {(3, 4): 2, (0, 1): -1}), [(0, 0), (1, 1), (2, 2)]))
def test_cubature_matches_the_composing_integral(case):
    p, verts = case
    assert integrate_over_simplex(p, verts) == _composing_integral(p, verts)


def test_cubature_composes_nothing(monkeypatch):
    # The point values need no composition with the simplex map.
    p = Poly(3, {(2, 1, 0): F(3, 2), (0, 0, 5): -1, (1, 1, 1): 4})
    verts = [(0, 0, 0), (F(1, 2), 1, 0), (0, 2, F(-1, 3)), (1, 1, 1)]
    expected = _composing_integral(p, verts)

    def refuse(*_args):
        raise AssertionError("compose_affine called")

    monkeypatch.setattr(Poly, "compose_affine", refuse)
    assert integrate_over_simplex(p, verts) == expected != 0


def test_integrate_over_simplex_needs_n_plus_one_vertices():
    with pytest.raises(ValueError):
        integrate_over_simplex(x(2, 0), [(0, 0), (1, 0)])


def _substituting_composition(p: Poly, linear_rows, constants) -> Poly:
    """Frozen copy of `Poly.compose_affine` as it substituted each image
    by repeated `Poly` multiplication in Fraction."""
    nv = len(linear_rows[0]) if linear_rows else 0
    images = []
    for i in range(p.nvars):
        t = {(0,) * nv: Fraction(constants[i])}
        for j in range(nv):
            mono = tuple(1 if k == j else 0 for k in range(nv))
            t[mono] = t.get(mono, Fraction(0)) + Fraction(linear_rows[i][j])
        images.append(Poly(nv, t))
    result = Poly(nv, {})
    for m, c in p.terms.items():
        term = Poly.constant(nv, c)
        for img, e in zip(images, m):
            for _ in range(e):
                term = term * img
        result = result + term
    return result


@st.composite
def _polys_and_maps(draw):
    """A polynomial in n <= 3 variables of degree <= 4 and an affine map
    from Q^s, s <= 3, with rational rows and constants."""
    n = draw(st.integers(0, 3))
    s = draw(st.integers(0, 3))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = [0] * n
        for _ in range(draw(st.integers(0, 4))):
            if n:
                mono[draw(st.integers(0, n - 1))] += 1
        terms[tuple(mono)] = draw(_rationals)
    rows = [[draw(_rationals) for _ in range(s)] for _ in range(n)]
    consts = [draw(_rationals) for _ in range(n)]
    return Poly(n, terms), rows, consts


@settings(max_examples=300, deadline=None)
@given(_polys_and_maps())
@example((Poly(2, {}), [[1, F(1, 2)], [0, 3]], [F(2, 3), 0]))
@example((Poly.constant(2, F(-7, 4)), [[1], [2]], [0, F(1, 5)]))
@example((Poly.constant(0, F(5, 3)), [], []))
@example((Poly(2, {(2, 1): F(3, 2), (0, 1): -1}), [[], []], [F(1, 2), 3]))
@example((Poly(2, {(3, 0): 1, (0, 2): F(1, 3)}), [[0, 0], [0, 0]], [0, 0]))
def test_compose_affine_matches_substitution(case):
    p, rows, consts = case
    assert p.compose_affine(rows, consts) == \
        _substituting_composition(p, rows, consts)
