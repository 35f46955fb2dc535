"""Polynomial Lagerberg superforms: d', d'', wedge, contraction, pullback,
and exact integration over rational polytopes with lattice normalization.

A (p,q)-form is stored as a map from sorted index pairs (K, L) to
polynomial coefficients; d'x_K ^ d''x_L with K and L each ascending is the
canonical order, and mixed d'/d'' symbols anticommute, so the interleaved
top form d'x_1^d''x_1^...^d''x_n equals (-1)^{n(n-1)/2} times the sorted
one.  Integration follows the lattice-volume convention: the coefficient
of a top form in any lattice basis is well defined because a basis change
hits the d' and d'' parts with the same sign.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from fractions import Fraction

from .errors import DegreeError, DimensionError, UnboundedDomainError
from .linalg import det, sort_with_sign, vec, vsub
from .polynomial import Poly, integrate_over_simplex
from .polyhedral import (
    Polyhedron,
    intersect,
    lattice_quotient,
    normal_sum,
)


class PolySuperform:
    """A bigraded form with polynomial coefficients over Q."""

    __slots__ = ("ambient_dim", "p", "q", "terms")

    def __init__(self, ambient_dim: int, p: int, q: int, terms=()):
        """Terms map (K, L) to coefficients, or are ((K, L), coefficient)
        pairs, which add; an index that is not an int in 0..n-1 (or is a
        bool) raises DimensionError."""
        if ambient_dim < 0:
            raise DimensionError(f"negative ambient dimension {ambient_dim}")
        if p < 0 or q < 0:
            raise DegreeError("negative bidegree")
        self.ambient_dim = ambient_dim
        self.p = p
        self.q = q
        clean = {}
        for (k, l), poly in (terms.items() if isinstance(terms, Mapping)
                             else terms):
            k = tuple(k)
            l = tuple(l)
            if len(k) != p or len(l) != q:
                raise DegreeError(f"index pair {(k, l)} does not match "
                                  f"bidegree ({p},{q})")
            if any(type(i) is not int or not 0 <= i < ambient_dim
                   for i in k + l):
                raise DimensionError(f"index pair {(k, l)} out of range")
            if list(k) != sorted(set(k)) or list(l) != sorted(set(l)):
                raise DegreeError("index tuples must be strictly increasing")
            if isinstance(poly, Poly):
                if poly.nvars != ambient_dim:
                    raise DimensionError("coefficient in the wrong ring")
            else:
                poly = Poly.constant(ambient_dim, poly)
            if poly.is_zero():
                continue
            clean[k, l] = clean[k, l] + poly if (k, l) in clean else poly
        self.terms = {kl: f for kl, f in clean.items() if not f.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PolySuperform") -> "PolySuperform":
        self._check_compatible(other)
        return PolySuperform(self.ambient_dim, self.p, self.q,
                             [*self.terms.items(), *other.terms.items()])

    def scale(self, c) -> "PolySuperform":
        return PolySuperform(self.ambient_dim, self.p, self.q,
                             {kl: f.scale(c) for kl, f in self.terms.items()})

    def __sub__(self, other):
        return self + other.scale(-1)

    def _check_compatible(self, other):
        if (self.ambient_dim, self.p, self.q) != \
                (other.ambient_dim, other.p, other.q):
            raise DimensionError("superform bidegree/ambient mismatch")

    def __eq__(self, other):
        return (isinstance(other, PolySuperform)
                and self.ambient_dim == other.ambient_dim
                and (self.p, self.q) == (other.p, other.q)
                and self.terms == other.terms)

    def __repr__(self):
        return (f"PolySuperform(({self.p},{self.q}) on R^{self.ambient_dim}, "
                f"{len(self.terms)} terms)")

    def evaluate(self, point, d_vectors, dd_vectors) -> Fraction:
        """Brute-force multilinear evaluation at a point."""
        point = vec(point)
        total = Fraction(0)
        for (k, l), f in self.terms.items():
            dmat = tuple(tuple(vec(v)[i] for i in k) for v in d_vectors)
            wmat = tuple(tuple(vec(w)[i] for i in l) for w in dd_vectors)
            total += f.evaluate(point) * det(dmat) * det(wmat)
        return total


def form_from_terms(ambient_dim, p, q, entries) -> PolySuperform:
    """Convenience constructor taking (K, L, poly-or-scalar) triples; the
    coefficients of a repeated (K, L) add."""
    return PolySuperform(ambient_dim, p, q,
                         [((k, l), f) for k, l, f in entries])


def d_prime(alpha: PolySuperform) -> PolySuperform:
    """d' = D x id."""
    return _derivative(alpha, second=False)


def d_second(alpha: PolySuperform) -> PolySuperform:
    """d'' = (-1)^p id x D."""
    return _derivative(alpha, second=True)


def _derivative(alpha: PolySuperform, second: bool) -> PolySuperform:
    """D on one half of the bigrading: each d'x_i (d''x_i when `second`)
    is sorted into K (into L, past the p symbols of K) with its sign."""
    shift = alpha.p if second else 0
    out = []
    for (k, l), f in alpha.terms.items():
        grown = l if second else k
        for i in range(alpha.ambient_dim):
            if i in grown:
                continue
            sign = (-1) ** (shift + sum(1 for x in grown if x < i))
            new = tuple(sorted(grown + (i,)))
            out.append(((k, new) if second else (new, l),
                        f.partial(i).scale(sign)))
    p, q = (alpha.p, alpha.q + 1) if second else (alpha.p + 1, alpha.q)
    return PolySuperform(alpha.ambient_dim, p, q, out)


def wedge(alpha: PolySuperform, beta: PolySuperform) -> PolySuperform:
    """Wedge product with the sign (-1)^{p'q} for crossing the blocks."""
    if alpha.ambient_dim != beta.ambient_dim:
        raise DimensionError("wedge: ambient mismatch")
    cross = (-1) ** (beta.p * alpha.q)
    out = []
    for (k1, l1), f in alpha.terms.items():
        for (k2, l2), g in beta.terms.items():
            k, ks = sort_with_sign(k1 + k2)
            if ks == 0:
                continue
            l, ls = sort_with_sign(l1 + l2)
            if ls:
                out.append(((k, l), (f * g).scale(cross * ks * ls)))
    return PolySuperform(alpha.ambient_dim, alpha.p + beta.p,
                         alpha.q + beta.q, out)


def contract(alpha: PolySuperform, v, slot: int) -> PolySuperform:
    """Insert v into the slot-th d'-argument (1-based), lowering p by one."""
    if alpha.p == 0:
        raise DegreeError("cannot contract a form with p = 0")
    if not 1 <= slot <= alpha.p:
        raise DegreeError(f"slot {slot} out of range 1..{alpha.p}")
    v = vec(v)
    out = []
    for (k, l), f in alpha.terms.items():
        for a, idx in enumerate(k, start=1):
            if v[idx]:
                out.append(((tuple(x for x in k if x != idx), l),
                            f.scale((-1) ** (a + slot) * v[idx])))
    return PolySuperform(alpha.ambient_dim, alpha.p - 1, alpha.q, out)


def pullback(linear_rows, constants, alpha: PolySuperform) -> PolySuperform:
    """Pull back along the affine map y -> linear_rows @ y + constants.

    The index parts transform by the p-th and q-th compound matrices of
    the linear part, and the coefficient polynomials compose with the map.
    Composition is linear, so each target pair (K2, L2) first sums the
    minor-weighted coefficients det(B[K, K2]) det(B[L, L2]) f_{K,L} and
    composes that sum once.
    """
    rows = [vec(r) for r in linear_rows]
    consts = vec(constants)
    if len(rows) != alpha.ambient_dim or len(consts) != alpha.ambient_dim:
        raise DimensionError("pullback: map target mismatch")
    source_dim = len(rows[0]) if rows else 0

    def minors(index_sets, degree):
        return {(idx, cols): det(tuple(tuple(rows[i][j] for j in cols)
                                       for i in idx))
                for idx in index_sets
                for cols in itertools.combinations(range(source_dim), degree)}

    mk = minors({k for k, _ in alpha.terms}, alpha.p)
    ml = minors({l for _, l in alpha.terms}, alpha.q)
    out = {}
    for k2 in itertools.combinations(range(source_dim), alpha.p):
        for l2 in itertools.combinations(range(source_dim), alpha.q):
            weighted = []
            for (k, l), f in alpha.terms.items():
                w = mk[k, k2] * ml[l, l2]
                if w:
                    weighted += [(mono, w * c) for mono, c in f.terms.items()]
            g = Poly(alpha.ambient_dim, weighted)
            if not g.is_zero():
                out[(k2, l2)] = g.compose_affine(rows, consts)
    return PolySuperform(source_dim, alpha.p, alpha.q, out)


# -- integration -----------------------------------------------------------------


def triangulate_polytope(vertices, ambient_dim: int):
    """Simplices of a lexicographic pulling triangulation.

    Returns tuples of d+1 vertices each, where d is the polytope dimension;
    the union is the polytope and interiors are disjoint.
    """
    cell = Polyhedron(ambient_dim, vertices)
    base = cell.vertices[0]
    if cell.dim == 0:
        return [(base,)]
    if len(cell.vertices) == cell.dim + 1:
        return [cell.vertices]
    out = []
    for facet in cell.facets:
        if base in facet.vertices:
            continue  # facets through the pulled vertex are skipped
        for s in triangulate_polytope(facet.vertices, ambient_dim):
            out.append((base,) + s)
    return out


def integrate_cell(alpha: PolySuperform, cell: Polyhedron) -> Fraction:
    """Exact integral of an (n,n)-form over a bounded n-cell.

    The form is written in a lattice basis of Z(sigma) as
    f d'x_1^d''x_1^...^d''x_n and f is integrated against the lattice
    volume; the result does not depend on the basis choice.
    """
    if not cell.is_bounded():
        raise UnboundedDomainError("integration domain must be bounded")
    n = cell.dim
    if (alpha.p, alpha.q) != (n, n):
        raise DegreeError(f"need an ({n},{n})-form on a {n}-cell")
    if n == 0:
        f = alpha.terms.get(((), ()))
        return f.evaluate(cell.vertices[0]) if f else Fraction(0)
    # Pull alpha back along t -> v0 + sum t_j b_j for the lattice basis b.
    v0 = cell.vertices[0]
    rows = [tuple(Fraction(b[i]) for b in cell.lattice.basis)
            for i in range(cell.ambient_dim)]
    restricted = pullback(rows, v0, alpha)
    full = tuple(range(n))
    g = restricted.terms.get((full, full))
    if g is None:
        return Fraction(0)
    # Interleaved-vs-sorted normalization of the top form.
    f_alpha = g.scale((-1) ** (n * (n - 1) // 2))
    # Triangulate the cell itself, so that only its own faces are
    # interned, and integrate over each simplex in parameters: the
    # coordinates of vertex - v0 in the basis.
    total = Fraction(0)
    for simplex in triangulate_polytope(cell.vertices, cell.ambient_dim):
        if len(simplex) != n + 1:
            raise DimensionError(
                f"triangulation gave {simplex} in dimension {n}")
        total += integrate_over_simplex(
            f_alpha, [cell.lattice.coords(vsub(v, v0)) for v in simplex])
    return total


def boundary_integral(beta: PolySuperform, cell: Polyhedron) -> Fraction:
    """Sum over the facets of the cell of the integral of the contraction
    against the inward primitive normal (slot n)."""
    n = cell.dim
    if (beta.p, beta.q) != (n, n - 1):
        raise DegreeError(f"need an ({n},{n - 1})-form on a {n}-cell")
    if not cell.is_bounded():
        raise UnboundedDomainError("boundary integration needs a bounded cell")
    total = Fraction(0)
    for tau in cell.facets:
        nu = lattice_quotient(cell, tau)
        total += integrate_cell(contract(beta, nu, n), tau)
    return total


def stokes_cell_residual(beta: PolySuperform, cell: Polyhedron) -> Fraction:
    """The exact per-cell Stokes defect; identically zero for polynomial
    forms on bounded rational cells.

    With the inward-normal, slot-n conventions of the integral definitions
    the two sides differ by (-1)^{n-1}; the residual accounts for it, so a
    correct implementation returns zero in every dimension.
    """
    n = cell.dim
    lhs = integrate_cell(d_second(beta), cell)
    rhs = boundary_integral(beta, cell)
    return lhs - (-1) ** (n - 1) * rhs


def _box_polyhedron(box, ambient_dim: int) -> Polyhedron:
    lo, hi = box
    lo = vec(lo)
    hi = vec(hi)
    corners = [tuple(lo[i] if pick & (1 << i) else hi[i]
                     for i in range(ambient_dim))
               for pick in range(1 << ambient_dim)]
    return Polyhedron(ambient_dim, corners)


def balanced_face_cancellation(complex_, beta: PolySuperform, box) -> dict:
    """Per-face integrals of the contraction against the weighted normal sum.

    For each codimension-one face tau (truncated to the box), integrates
    the contraction of beta by the weighted sum of inward primitive
    normals; all values vanish exactly when the complex is balanced at the
    mobile faces, since the net vector then lies in L(tau).
    """
    n = complex_.n
    if beta.ambient_dim != complex_.ambient_dim:
        raise DimensionError(f"a form on R^{beta.ambient_dim} on a complex "
                             f"in T^{complex_.ambient_dim}")
    if (beta.p, beta.q) != (n, n - 1):
        raise DegreeError(f"need an ({n},{n - 1})-form")
    box_poly = _box_polyhedron(box, complex_.ambient_dim)
    out = {}
    for t in complex_.cells_of_dim(n - 1):
        tau = complex_.cells[t]
        if tau.sedentarity:
            continue
        net = normal_sum(complex_, t)
        if net is None:
            continue
        clipped = intersect(tau, box_poly)
        if clipped is None or clipped.dim != n - 1:
            continue
        out[t] = integrate_cell(contract(beta, net, n), clipped)
    return out
