"""Exact conversion between generator and inequality descriptions.

Desk-scale double description: facets of a cone are enumerated by brute
force over generator subsets, extreme rays by brute force over tight
inequality subsets.  Everything is rational and exact; normals and rays
are normalized to primitive integer vectors so the output is canonical.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import ValidationError
from .linalg import (
    Subspace,
    Vec,
    clear_denominators,
    idot,
    is_zero_vec,
    kernel_basis,
    primitive,
    rref,
    vdot,
    vec,
    vsub,
    zero_vec,
)


def _kernel(rows, ambient_dim: int):
    """Kernel basis that tolerates an empty row list."""
    return kernel_basis(rows if rows else [zero_vec(ambient_dim)])


def cone_facets(generators, ambient_dim: int):
    """Facet normals and span equations of cone(generators).

    Returns (equations, normals): `equations` is a canonical list of
    primitive vectors annihilating the linear span; `normals` are primitive
    inward normals a with a . x >= 0 on the cone, one per facet, sorted.
    """
    gens = [vec(g) for g in generators if not is_zero_vec(vec(g))]
    equations = [primitive(r) for r in _kernel(gens, ambient_dim)]
    if not gens:
        return equations, []
    span = Subspace(ambient_dim, gens)
    d = span.dim
    # Signs are tested on primitive integer rows: positive scaling keeps them.
    int_gens = [primitive(g) for g in gens]
    normals = set()
    for subset in itertools.combinations(range(len(gens)), d - 1):
        sub = [gens[i] for i in subset]
        if Subspace(ambient_dim, sub).dim != d - 1:
            continue
        # Candidate normal: inside the span, orthogonal to the subset.
        cand = _kernel(sub + list(span.perp().basis), ambient_dim)
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


def cone_rays(ineq_normals, eq_normals, ambient_dim: int):
    """Generators of {x : eq . x = 0, ineq . x >= 0}.

    Returns (lineality_basis, extreme_rays) with primitive integer entries;
    the cone is the span of the lineality plus the nonnegative span of the
    rays.  Extreme rays are canonical up to ordering (sorted).
    """
    eqs = [vec(e) for e in eq_normals]
    ineqs = [vec(a) for a in ineq_normals]
    v0 = Subspace(ambient_dim, _kernel(eqs, ambient_dim))
    if v0.dim == 0:
        return [], []
    if not ineqs:
        return [primitive(r) for r in v0.basis], []
    # Lineality: common kernel of all inequalities inside v0.
    lineality = [primitive(r)
                 for r in _kernel(list(ineqs) + list(v0.perp().basis), ambient_dim)]
    if lineality:
        lin_space = Subspace(ambient_dim, lineality)
        comp = Subspace(ambient_dim, _kernel(list(lin_space.basis), ambient_dim))
        comp = comp.intersection(v0)
    else:
        comp = v0
    basis = list(comp.basis)
    dimc = len(basis)
    if dimc == 0:
        return lineality, []
    restricted = [primitive([vdot(a, b) for b in basis]) for a in ineqs]
    rays = set()
    for subset in itertools.combinations(range(len(restricted)), dimc - 1):
        rows = [restricted[i] for i in subset]
        cand = _kernel(rows, dimc)
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


def _rescale_offset(a_raw, b_raw):
    """Primitive normal with the offset scaled consistently."""
    ap = primitive(a_raw)
    scale = next(Fraction(x) / Fraction(y)
                 for x, y in zip(ap, vec(a_raw)) if y != 0)
    return ap, Fraction(b_raw) * scale


def polyhedron_facets(vertices, rays, ambient_dim: int):
    """H-representation of conv(vertices) + cone(rays).

    Returns (equations, inequalities): equations as pairs (a, b) meaning
    a . x = b in canonical reduced form; inequalities as pairs (a, b)
    meaning a . x >= b, one per facet, primitive and sorted.  Inequalities
    constant on the affine hull are dropped, so the list is irredundant.
    """
    verts = [vec(v) for v in vertices]
    rs = [vec(r) for r in rays]
    if not verts:
        raise ValueError("polyhedron needs at least one vertex")
    homog = [(Fraction(1),) + v for v in verts] + [(Fraction(0),) + r for r in rs]
    eqs_h, normals_h = cone_facets(homog, ambient_dim + 1)
    directions = [vsub(v, verts[0]) for v in verts[1:]] + rs
    dir_space = Subspace(ambient_dim, directions)
    eq_rows = []
    for e in eqs_h:
        a = vec(e[1:])
        if is_zero_vec(a):
            continue
        eq_rows.append(tuple(list(a) + [vdot(a, verts[0])]))
    eq_canon = []
    for row in rref(eq_rows)[0]:
        a, b = row[:-1], row[-1]
        eq_canon.append(_rescale_offset(a, b))
    inequalities = []
    for n in normals_h:
        a0, a = Fraction(n[0]), vec(n[1:])
        if is_zero_vec(a):
            continue  # the facet at infinity x0 >= 0
        if all(vdot(a, d) == 0 for d in dir_space.basis):
            continue  # constant on the affine hull
        inequalities.append(_rescale_offset(a, -a0))
    return sorted(eq_canon), sorted(inequalities)


def polyhedron_generators(equations, inequalities, ambient_dim: int):
    """V-representation of {x : a.x = b for eqs, a.x >= b for ineqs}.

    Returns (vertices, rays, lineality) or None when the set is empty.
    When the polyhedron is not pointed, `vertices` are base points on the
    minimal faces rather than genuine 0-faces.  When every offset is zero
    the set is a cone with apex 0: it is never empty, and its rays and
    lineality come from `cone_rays` in the ambient space, without
    homogenizing.
    """
    if all(b == 0 for _, b in itertools.chain(equations, inequalities)):
        lineality, rays = cone_rays([a for a, _ in inequalities],
                                    [a for a, _ in equations], ambient_dim)
        return ([zero_vec(ambient_dim)], [vec(r) for r in rays],
                [vec(l) for l in lineality])
    homog_eqs = [tuple([-Fraction(b)] + list(vec(a))) for a, b in equations]
    homog_ineqs = [tuple([-Fraction(b)] + list(vec(a))) for a, b in inequalities]
    homog_ineqs.append(tuple([Fraction(1)] + [Fraction(0)] * ambient_dim))
    lineality, rays = cone_rays(homog_ineqs, homog_eqs, ambient_dim + 1)
    vertices_out = []
    rays_out = []
    lin_out = []
    for l in lineality:
        # x0 >= 0 is among the inequalities, so lineality keeps x0 = 0.
        if l[0] != 0:
            raise ValidationError(f"lineality {l} leaves the x0 = 0 plane")
        lin_out.append(tuple(Fraction(x) for x in l[1:]))
    for r in rays:
        if r[0] > 0:
            vertices_out.append(tuple(Fraction(x, r[0]) for x in r[1:]))
        elif r[0] == 0:
            rays_out.append(tuple(Fraction(x) for x in r[1:]))
    if not vertices_out:
        return None
    return vertices_out, rays_out, lin_out


def satisfies(point: Vec, equations, inequalities) -> bool:
    """a . point = b for every equation, a . point >= b for every inequality.

    The point is scaled to integers by its common denominator d > 0, and
    each side compared as a . (d point) against d b.
    """
    ints, den = clear_denominators(point)
    return (all(idot(a, ints) == b * den for a, b in equations)
            and all(idot(a, ints) >= b * den for a, b in inequalities))
