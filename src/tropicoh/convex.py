"""Exact conversion between generator and inequality descriptions.

Extreme rays come from an incremental double description (Motzkin,
Raiffa, Thompson and Thrall 1953, in the form of Fukuda and Prodon 1996)
on primitive integer rows: the inequalities cut the pointed section of
the cone one at a time, and a new ray is made only from an adjacent pair
of rays on opposite sides.  Facet normals of a cone are the extreme rays
of its dual cone inside its span, so one enumeration serves both
directions.  Everything is exact; normals and rays are primitive integer
vectors, so the output is canonical.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import InvalidInputError, ValidationError
from .linalg import (
    Vec,
    clear_denominators,
    idot,
    integer_echelon,
    integer_kernel,
    kernel_basis,
    primitive,
    vec,
    zero_vec,
)


def _combine(c, v, d, w):
    """The primitive integer vector c*v + d*w."""
    return primitive([c * x + d * y for x, y in zip(v, w)])


def cone_facets(generators, ambient_dim: int):
    """Facet normals and span equations of cone(generators).

    Returns (equations, normals): `equations` is a canonical list of
    primitive vectors annihilating the linear span; `normals` are primitive
    inward normals a with a . x >= 0 on the cone, one per facet, sorted.
    They are the extreme rays of the dual cone inside the span.
    """
    gens = [primitive(g) for g in generators]
    equations = [primitive(r) for r in kernel_basis(gens, ambient_dim)]
    return equations, cone_rays(gens, equations, ambient_dim)[1]


def cone_rays(ineq_normals, eq_normals, ambient_dim: int):
    """Generators of {x : eq . x = 0, ineq . x >= 0}.

    Returns (lineality_basis, extreme_rays) with primitive integer entries;
    the cone is the span of the lineality plus the nonnegative span of the
    rays.  The lineality basis is the canonical kernel basis; the rays are
    the extreme rays of the pointed section orthogonal to the lineality,
    sorted.
    """
    ineqs = [primitive(a) for a in ineq_normals]
    eqs = [primitive(e) for e in eq_normals]
    # The rays span the section of the cone inside the equations and
    # orthogonal to the lineality.  The section starts as that whole
    # subspace, spanned by the free directions, and each inequality cuts
    # it in turn.  A ray carries its zero set over the inequalities cut so
    # far, as a bit mask.
    free = integer_kernel(eqs, ambient_dim)
    if not free:
        return [], []
    lineality = integer_kernel(ineqs + eqs, ambient_dim)
    if lineality:
        free = integer_kernel(eqs + lineality, ambient_dim)
    rays = []
    for i, a in enumerate(ineqs):
        bit = 1 << i
        k = next((k for k, g in enumerate(free) if idot(a, g)), None)
        if k is not None:
            # The free direction g becomes a ray, tight on every earlier
            # inequality; the rest is moved along g onto a . x = 0.
            g = free.pop(k)
            ag = idot(a, g)
            if ag < 0:
                g, ag = tuple(-x for x in g), -ag
            free = [_combine(ag, h, -idot(a, h), g) for h in free]
            rays = [(_combine(ag, r, -idot(a, r), g), z | bit)
                    for r, z in rays]
            rays.append((g, bit - 1))
            continue
        signs = [idot(a, r) for r, _ in rays]
        masks = [z for _, z in rays]
        cut = [(r, z | bit if s == 0 else z)
               for (r, z), s in zip(rays, signs) if s >= 0]
        for (p, zp), sp in zip(rays, signs):
            if sp <= 0:
                continue
            for (q, zq), sq in zip(rays, signs):
                # p and q are adjacent when no third ray is tight on all
                # the inequalities that both are tight on.
                z = zp & zq
                if sq < 0 and sum(m & z == z for m in masks) == 2:
                    cut.append((_combine(sp, q, -sq, p), z | bit))
        rays = cut
    return lineality, sorted(r for r, _ in rays)


def _offset(a, b):
    """The primitive normal of the integer row a with the offset b scaled
    alike: an int when it is integral, so cell keys hash ints."""
    g = math.gcd(*a)
    return (tuple(x // g for x in a) if g > 1 else tuple(a),
            b // g if b % g == 0 else Fraction(b, g))


def polyhedron_facets(vertices, rays, ambient_dim: int):
    """H-representation of conv(vertices) + cone(rays).

    Returns (equations, inequalities): equations as pairs (a, b) meaning
    a . x = b in canonical reduced form; inequalities as pairs (a, b)
    meaning a . x >= b, one per facet, primitive and sorted.  Each a is a
    primitive int tuple, and b an int when it is integral, a Fraction
    otherwise.  Inequalities constant on the affine hull are dropped, so
    the list is irredundant.

    Each vertex v is homogenized as the integer row (d, d v) for its
    common denominator d, so the whole computation runs on ints.
    """
    cleared = [clear_denominators(v) for v in vertices]
    if not cleared:
        raise InvalidInputError("polyhedron needs at least one vertex")
    homog = ([(den, *ints) for ints, den in cleared]
             + [(0, *r) for r in rays])
    eqs_h, normals_h = cone_facets(homog, ambient_dim + 1)
    # e . (d, d v) = 0 on every vertex, so (e[1:], -e[0]) is a . x = b on
    # the affine hull; its integer echelon form is the canonical one.
    rows, _ = integer_echelon([(*e[1:], -e[0]) for e in eqs_h])
    equations = sorted(_offset(row[:-1], row[-1]) for row in rows)
    ints0, den0 = cleared[0]
    inequalities = []
    for n in normals_h:
        a = n[1:]
        if not any(a):
            continue  # the facet at infinity x0 >= 0
        at0 = idot(a, ints0)
        if (all(idot(a, ints) * den0 == at0 * den for ints, den in cleared)
                and not any(idot(a, r) for r in rays)):
            continue  # constant on the affine hull
        inequalities.append(_offset(a, -n[0]))
    return equations, sorted(inequalities)


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
    homog_eqs = [clear_denominators((-b, *a))[0] for a, b in equations]
    homog_ineqs = [clear_denominators((-b, *a))[0] for a, b in inequalities]
    homog_ineqs.append((1,) + (0,) * ambient_dim)
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
