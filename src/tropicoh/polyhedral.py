"""Rational polyhedra and weighted polyhedral complexes in T^r.

A polyhedron of sedentarity I is stored through its mobile part: vertices
and rays are full-length vectors whose entries at the coordinates in I are
zero placeholders (the actual coordinates there are -infinity).  Faces at
infinity are first-class cells, produced by projecting the mobile part
after a recession-cone support test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache

from . import convex
from .errors import CodimensionError, ComplexAxiomError, PurityError
from .linalg import (
    Lattice,
    Subspace,
    Vec,
    _xgcd,
    clear_denominators,
    det,
    idot,
    is_zero_vec,
    primitive,
    unit_vec,
    vadd,
    vdot,
    vec,
    vscale,
    vsub,
    wedge_power,
    wedge_vector,
    zero_vec,
)


class _NegInf:
    """Singleton marker for a -infinity coordinate in user-facing data."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"


NEG_INF = _NegInf()


def sedentarity_of(point) -> frozenset[int]:
    """Indices of the -infinity coordinates of an extended point."""
    return frozenset(i for i, x in enumerate(point) if x is NEG_INF)


class Polyhedron:
    """conv(vertices) + cone(rays) inside the stratum R^r_I of T^r.

    Cells are interned: `Polyhedron(...)` returns the one cell of its
    canonical V-signature (ambient dimension, sedentarity, sorted vertices
    and primitive rays), so everything derived from a cell is computed
    once, on first read, and kept on it.  Two V-representations of one
    point set are two cells with equal `key`.
    """

    def __new__(cls, ambient_dim: int, vertices, rays=(), sedentarity=()):
        rows = [tuple(v) for v in vertices]
        if any(len(v) != ambient_dim for v in rows):
            raise ValueError("vertex of wrong length")
        if not rows:
            raise ValueError("polyhedron needs at least one vertex")
        at_infinity = {sedentarity_of(v) for v in rows}
        if len(at_infinity) > 1:
            raise ValueError("vertices are -inf in different coordinates")
        sed = frozenset(sedentarity).union(*at_infinity)
        verts = [tuple(Fraction(0) if x is NEG_INF else Fraction(x)
                       for x in v) for v in rows]
        for v in verts:
            for i in sed:
                if v[i] != 0:
                    raise ValueError("sedentary coordinate must be -inf on "
                                     "every vertex")
        clean_rays = []
        for r in rays:
            r = vec(r)
            if len(r) != ambient_dim:
                raise ValueError("ray of wrong length")
            if any(r[i] != 0 for i in sed):
                raise ValueError("ray has a component in a sedentary direction")
            if not is_zero_vec(r):
                clean_rays.append(primitive(r))
        return _interned(ambient_dim, sed, tuple(sorted(set(verts))),
                         tuple(sorted(set(clean_rays))))

    # -- derived geometry ---------------------------------------------------

    @cached_property
    def hrep(self):
        """(equations, inequalities) of the mobile part, canonical; the
        inequalities are irredundant, one per facet."""
        eqs, ineqs = convex.polyhedron_facets(self.vertices, self.rays,
                                              self.ambient_dim)
        return tuple(eqs), tuple(ineqs)

    @property
    def recession_hrep(self):
        """(equations, inequalities) of the recession cone: the H-rep of
        the cell with every offset set to zero."""
        eqs, ineqs = self.hrep
        return (tuple((a, 0) for a, _ in eqs),
                tuple((a, 0) for a, _ in ineqs))

    @property
    def dim(self) -> int:
        return self.tangent.dim

    @cached_property
    def tangent(self) -> Subspace:
        """The direction space L(sigma), embedded in Q^r with zeros on I."""
        v0 = self.vertices[0]
        dirs = ([vsub(v, v0) for v in self.vertices[1:]]
                + [vec(r) for r in self.rays])
        return Subspace(self.ambient_dim, dirs)

    @cached_property
    def wedge_powers(self) -> tuple[Subspace, ...]:
        """The wedge powers of L(sigma) in degrees 0..dim, in
        lexicographic wedge coordinates on Q^r."""
        return tuple(wedge_power(self.tangent, p) for p in range(self.dim + 1))

    @cached_property
    def lattice(self) -> Lattice:
        """Z(sigma): the integer points of the tangent space."""
        return Lattice.from_subspace(self.tangent)

    @cached_property
    def key(self):
        """Canonical identity: ambient, sedentarity and H-representation."""
        return (self.ambient_dim, tuple(sorted(self.sedentarity))) + self.hrep

    @cached_property
    def orientation(self) -> tuple[Vec, ...]:
        """Ordered basis of L(sigma): the Hermite lattice basis, with a
        one-dimensional cell turned along its first ray, or else from its
        lowest to its highest vertex.  Each depends only on the point set,
        so cells with equal `key` have equal orientations."""
        basis = [vec(b) for b in self.lattice.basis]
        if self.dim == 1:
            direction = (vec(self.rays[0]) if self.rays
                         else vsub(self.vertices[-1], self.vertices[0]))
            if vdot(basis[0], direction) < 0:
                basis[0] = vscale(-1, basis[0])
        return tuple(basis)

    @cached_property
    def facets(self) -> tuple["Polyhedron", ...]:
        """The faces one dimension down, one per inequality of `hrep`, in
        its order: the vertices and rays on which it is tight.  Every face
        holds a vertex, since a linear function bounded below on the cell
        attains its minimum at one."""
        out = []
        for a, b in self.hrep[1]:
            verts = tuple(v for v, (ints, den) in zip(self.vertices,
                                                      self._cleared)
                          if idot(a, ints) == b * den)
            rays = tuple(r for r in self.rays if idot(a, r) == 0)
            # Sub-tuples of a sorted signature are sorted signatures.
            out.append(_interned(self.ambient_dim, self.sedentarity,
                                 verts, rays))
        return tuple(out)

    @cached_property
    def _cleared(self) -> tuple[tuple[list[int], int], ...]:
        """Each vertex v as (d*v, d), d its least common denominator."""
        return tuple(clear_denominators(v) for v in self.vertices)

    def side(self, a, b) -> tuple[int, int]:
        """The signs (-1, 0 or 1) of the least and the greatest value of
        a.x - b on the cell, compared in integers.  A ray r with a.r < 0
        makes the least -1 and one with a.r > 0 the greatest 1.  So the
        cell lies in a.x <= b iff the greatest is <= 0, in a.x >= b iff the
        least is >= 0, and on a.x = b iff both are 0."""
        num, den = b.numerator, b.denominator
        lo, hi = 1, -1
        for r in self.rays:
            s = idot(a, r)
            if s < 0:
                lo = -1
            elif s > 0:
                hi = 1
        for ints, d in self._cleared:
            if lo < 0 < hi:
                break
            s = idot(a, ints) * den - num * d
            s = (s > 0) - (s < 0)
            lo, hi = min(lo, s), max(hi, s)
        return lo, hi

    def sort_key(self):
        return (self.dim, tuple(sorted(self.sedentarity)),
                self.key[2], self.key[3])

    def relint_point(self) -> Vec:
        return self._relint_point

    @cached_property
    def _relint_point(self) -> Vec:
        p = zero_vec(self.ambient_dim)
        for v in self.vertices:
            p = vadd(p, v)
        p = vscale(Fraction(1, len(self.vertices)), p)
        for r in self.rays:
            p = vadd(p, vec(r))
        return p

    def contains_polyhedron(self, other: "Polyhedron") -> bool:
        """Mobile-part containment; both must have the same sedentarity."""
        if other.sedentarity != self.sedentarity:
            return False
        eqs, ineqs = self.hrep
        return (all(other.side(a, b) == (0, 0) for a, b in eqs)
                and all(other.side(a, b)[0] >= 0 for a, b in ineqs))

    def is_bounded(self) -> bool:
        return not self.rays

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        sed = "" if not self.sedentarity else f", sed={sorted(self.sedentarity)}"
        return (f"Polyhedron(dim {self.dim} in T^{self.ambient_dim}"
                f"{sed}, {len(self.vertices)}V/{len(self.rays)}R)")


@lru_cache(maxsize=None)
def _interned(ambient_dim, sedentarity, vertices, rays) -> Polyhedron:
    """The one cell of a canonical V-signature: the memo for every cell."""
    p = object.__new__(Polyhedron)
    p.ambient_dim, p.sedentarity = ambient_dim, sedentarity
    p.vertices, p.rays = vertices, rays
    return p


def from_hrep(ambient_dim: int, equations, inequalities, sedentarity):
    """The cell {x : a.x = b for equations, a.x >= b for inequalities}.

    Returns None when the set is empty.  Every cell cut from inequalities
    is built here; lineality directions become pairs of opposite rays.
    """
    gen = convex.polyhedron_generators(equations, inequalities, ambient_dim)
    if gen is None:
        return None
    verts, rays, lin = gen
    return Polyhedron(ambient_dim, verts,
                      list(rays) + list(lin) + [vscale(-1, l) for l in lin],
                      sedentarity)


def faces(p: Polyhedron) -> list[Polyhedron]:
    """All faces of the same sedentarity, including p itself: the closure
    of p under `facets`, one representative per key (the first reached)."""
    found = {p.key: p}
    frontier = [p]
    while frontier:
        for f in frontier.pop().facets:
            if f.key not in found:
                found[f.key] = f
                frontier.append(f)
    return sorted(found.values(), key=Polyhedron.sort_key)


def stratum_piece(p: Polyhedron, extra: frozenset[int]):
    """The face of p at infinity in the extra coordinates, or None.

    The piece exists iff the recession cone contains a vector with strictly
    negative entries exactly on `extra` and zero on the other mobile
    coordinates; it is then the coordinate projection of the mobile part.
    Such a vector exists iff the cone C of recession vectors that are
    <= 0 on `extra` and zero on the other mobile coordinates has, for
    each i in `extra`, a ray with a nonzero entry i: the lineality of C
    vanishes on `extra`, and the sum of the rays is the vector.
    """
    if not extra or extra & p.sedentarity:
        raise ValueError("extra coordinates must be new and nonempty")
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
    kill = set(extra)
    proj = lambda w: tuple(Fraction(0) if i in kill else Fraction(x)
                           for i, x in enumerate(w))
    verts = [proj(v) for v in p.vertices]
    rays = [proj(r) for r in p.rays]
    rays = [r for r in rays if not is_zero_vec(r)]
    return Polyhedron(p.ambient_dim, verts, rays, p.sedentarity | extra)


def _stratum_pieces(p: Polyhedron, tropical_coords):
    """The stratum pieces of p along every nonempty set of tropical
    coordinates that are mobile in p and along which p reaches infinity."""
    allowed = sorted(set(tropical_coords) - p.sedentarity)
    for k in range(1, len(allowed) + 1):
        for combo in itertools.combinations(allowed, k):
            piece = stratum_piece(p, frozenset(combo))
            if piece is not None:
                yield piece


def infinite_faces(p: Polyhedron, tropical_coords) -> list[Polyhedron]:
    """Faces of strictly larger sedentarity along the tropical coordinates."""
    out = {}
    for piece in _stratum_pieces(p, tropical_coords):
        for f in faces(piece):
            out.setdefault(f.key, f)
    return sorted(out.values(), key=Polyhedron.sort_key)


def intersect(a: Polyhedron, b: Polyhedron):
    """Intersection of two same-sedentarity polyhedra, or None if empty."""
    if a.sedentarity != b.sedentarity or a.ambient_dim != b.ambient_dim:
        return None
    return from_hrep(a.ambient_dim, a.hrep[0] + b.hrep[0],
                     a.hrep[1] + b.hrep[1], a.sedentarity)


class PolyhedralComplex:
    """A face-closed weighted rational polyhedral complex in T^r."""

    def __init__(self, ambient_dim, tropical_coords, cells, covers, weights,
                 signs):
        self.ambient_dim = ambient_dim
        self.tropical_coords = frozenset(tropical_coords)
        self.cells = tuple(cells)
        self.covers = tuple(sorted(covers))
        self.weights = dict(weights)
        self.signs = dict(signs)
        self._index = {c.key: i for i, c in enumerate(self.cells)}
        self._multitangent_cache: dict = {}  # (cell index, p) -> Subspace

    # -- basic queries -------------------------------------------------------

    @property
    def n(self) -> int:
        return max((c.dim for c in self.cells), default=0)

    def facet_indices(self) -> list[int]:
        has_cofacet = {t for t, _ in self.covers}
        return [i for i in range(len(self.cells)) if i not in has_cofacet]

    def is_pure(self) -> bool:
        n = self.n
        return all(self.cells[i].dim == n for i in self.facet_indices())

    def cells_of_dim(self, d: int) -> list[int]:
        return [i for i, c in enumerate(self.cells) if c.dim == d]

    def covers_of(self, i: int) -> list[int]:
        return [s for t, s in self.covers if t == i]

    def cofaces(self, i: int) -> set[int]:
        """All j with cells[i] a face of cells[j], including i."""
        return self._cofaces[i]

    @cached_property
    def _cofaces(self) -> list[set[int]]:
        up = [{k} for k in range(len(self.cells))]
        # Covers by falling dimension of the coface: up[s] is whole when read.
        for t, s in sorted(self.covers, key=lambda ts: -self.cells[ts[1]].dim):
            up[t] |= up[s]
        return up

    @cached_property
    def stratum_maximal(self) -> frozenset[int]:
        """The cells that no cell of their own sedentarity covers."""
        cells = self.cells
        return frozenset(range(len(cells))) - {
            t for t, s in self.covers
            if cells[t].sedentarity == cells[s].sedentarity}

    def weight(self, i: int) -> int:
        return self.weights.get(i, 1)

    # -- equality as weighted complexes ---------------------------------------

    def same_cells(self, other: "PolyhedralComplex") -> bool:
        return (self.ambient_dim == other.ambient_dim
                and {c.key for c in self.cells} == {c.key for c in other.cells})

    def same_weighted(self, other: "PolyhedralComplex") -> bool:
        if not self.same_cells(other):
            return False
        for i in self.facet_indices():
            j = other._index[self.cells[i].key]
            if self.weight(i) != other.weight(j):
                return False
        return True

    def __repr__(self):
        counts = {}
        for c in self.cells:
            counts[c.dim] = counts.get(c.dim, 0) + 1
        desc = ", ".join(f"{v}x dim {k}" for k, v in sorted(counts.items()))
        return f"PolyhedralComplex(T^{self.ambient_dim}: {desc})"


def _incidence_sign(tau: Polyhedron, sigma: Polyhedron) -> int:
    """Orientation sign of a covering pair using the outward convention.

    The sign is that of det M, where o_sigma = M (u, o_tau) for a vector u
    pointing out of sigma through tau.  On k columns R where (u, o_tau)
    has a nonzero minor, det(o_sigma|R) = det M * det((u, o_tau)|R), so two
    integer minors decide it.  R is the pivots of L(tau) plus the first
    column where u is nonzero modulo L(tau).
    """
    if tau.sedentarity == sigma.sedentarity:
        # A positive multiple of minus the primitive normal plus a vector of
        # L(tau), so the determinant has the same sign as with it.
        u = vsub(tau.relint_point(), sigma.relint_point())
    else:
        # Across a jump the outward direction is the escape vector w of
        # L(sigma): negative on the escaping coordinates and zero on the
        # pivots of L(tau), where lifts of o_tau into L(sigma) agree with
        # o_tau.  Expanded along u's row, the minors with -e_j and o_tau
        # have the signs of those with w and the lifts.
        j = min(tau.sedentarity - sigma.sedentarity)
        u = vscale(-1, unit_vec(tau.ambient_dim, j))
    extra = next((i for i, x in enumerate(tau.tangent.reduce(u)) if x), None)
    if extra is None:
        raise ComplexAxiomError("degenerate incidence")
    cols = sorted(tau.tangent.pivots + (extra,))

    def minor(rows):
        return det(tuple(tuple(r[i] for i in cols) for r in rows))

    d = minor(sigma.orientation) * minor((u,) + tau.orientation)
    if d == 0:
        raise ComplexAxiomError("degenerate incidence")
    return 1 if d > 0 else -1


def lattice_quotient(sigma: Polyhedron, tau: Polyhedron) -> Vec:
    """Primitive normal of the facet tau in sigma pointing into sigma.

    tau counts as a facet when it lies in sigma, one dimension down,
    where an inequality a.x >= b of sigma is tight.  Then Z(tau) is the
    kernel of a on Z(sigma), so a vector nu of Z(sigma) on which a takes
    its least positive value generates Z(sigma)/Z(tau) and points inward.
    Extended gcds over the Hermite basis of Z(sigma) build it, and it is
    returned reduced against Z(tau), a canonical representative of its
    class.  Raises CodimensionError for any other tau, such as a face of
    another sedentarity.
    """
    a = None
    if tau.dim == sigma.dim - 1 and sigma.contains_polyhedron(tau):
        # Tight on tau: the greatest value of a.x - b there is zero.
        a = next((a for a, b in sigma.hrep[1] if tau.side(a, b)[1] == 0),
                 None)
    if a is None:
        raise CodimensionError(f"{tau} is not a facet of {sigma}")
    g, nu = 0, [0] * sigma.ambient_dim
    for row in sigma.lattice.basis:
        g, x, y = _xgcd(g, idot(a, row))
        nu = [x * p + y * q for p, q in zip(nu, row)]
    return tau.lattice.reduce(nu)


def build_complex(maximal_cells, tropical_coords=()) -> PolyhedralComplex:
    """Face-close a list of (Polyhedron, weight) pairs into a complex.

    `tropical_coords` lists the coordinates compactified to -infinity;
    faces at infinity are generated along them.  Raises ComplexAxiomError
    when cells overlap badly or one listed maximal cell lies in another.
    """
    entries = []
    for item in maximal_cells:
        if isinstance(item, Polyhedron):
            entries.append((item, 1))
        else:
            entries.append((item[0], int(item[1])))
    if not entries:
        raise ComplexAxiomError("a complex needs at least one maximal cell")
    ambient = entries[0][0].ambient_dim
    tropical = frozenset(tropical_coords)
    for c, _ in entries:
        if c.ambient_dim != ambient:
            raise ComplexAxiomError("mixed ambient dimensions")
    cells = {c.key: c for c, _ in entries}
    if len(cells) < len(entries):
        raise ComplexAxiomError("duplicate maximal cell")

    dominated: set = set()  # keys that are proper faces of another cell
    face_keys: dict = {}  # cell key -> keys of its faces (itself too), pieces
    work = list(cells.values())
    listed = set(cells)
    while work:
        c = work.pop()
        found = face_keys[c.key] = set()
        # The faces of c's own sedentarity, then its stratum pieces: these
        # live in a deeper group where they may well be maximal, and only
        # their own face pass marks their descendants as dominated.
        for f in itertools.chain(faces(c), _stratum_pieces(c, tropical)):
            found.add(f.key)
            if f.sedentarity == c.sedentarity and f.key != c.key:
                dominated.add(f.key)
                # Degenerate input: one maximal cell inside another (one
                # that is not a face of it fails the validation below).
                if f.key in listed and c.key in listed:
                    raise ComplexAxiomError(
                        f"maximal cell {f} is contained in {c}")
            if f.key not in cells:
                cells[f.key] = f
                work.append(f)

    ordered = sorted(cells.values(), key=Polyhedron.sort_key)
    index = {c.key: i for i, c in enumerate(ordered)}

    # In a valid complex a cell inside another is one of its faces, so the
    # faces listed by the closure one dimension down are all the covers.
    _validate_intersections(ordered, dominated, face_keys)
    covers = sorted((index[f], index[k]) for k, fs in face_keys.items()
                    for f in fs if cells[f].dim == cells[k].dim - 1)

    weights = {}
    for c, w in entries:
        weights[index[c.key]] = w

    signs = {(t, s): _incidence_sign(ordered[t], ordered[s])
             for t, s in covers}

    return PolyhedralComplex(ambient, tropical, ordered, covers, weights,
                             signs)


def _validate_intersections(ordered, dominated, face_keys):
    """Pairwise intersections of stratum-maximal cells must be common faces:
    their keys must lie in the face sets the closure recorded for both cells
    (exact, since `faces` lists every nonempty face).

    Most pairs are settled by a linear functional (the separation lemma for
    polyhedra; Fulton, Introduction to Toric Varieties, 1.2): see
    `_certified`.  A pair that no functional settles in either order is
    intersected, and raises unless the intersection is a common face.
    """
    cells = {c.key: c for c in ordered}
    by_sed: dict = {}
    for c in ordered:
        if c.key not in dominated:
            by_sed.setdefault(c.sedentarity, []).append(c)
    for group in by_sed.values():
        for a, b in itertools.combinations(group, 2):
            # The face sets also hold stratum pieces; only faces of a's
            # sedentarity can be the intersection.
            common = (cells[k] for k in face_keys[a.key] & face_keys[b.key])
            face = max((f for f in common if f.sedentarity == a.sedentarity),
                       key=lambda f: f.dim, default=None)
            if _certified(a, b, face) or _certified(b, a, face):
                continue
            inter = intersect(a, b)
            if inter is not None and not (inter.key in face_keys[a.key]
                                          and inter.key in face_keys[b.key]):
                raise ComplexAxiomError(
                    f"intersection of {a} and {b} is not a common face")


def _certified(a: Polyhedron, b: Polyhedron, face) -> bool:
    """Whether a half-space from a's H-representation proves that a and b
    meet in `face`, a common face of both, or not at all if it is None.

    For a face F, (n, beta) is the sum of a's inequalities tight on F:
    n.x >= beta on a with equality exactly on F.  If n.x <= beta on b, then
    a ∩ b lies in F, which lies in both.  Without a common face, a strict
    n.x < beta on b, for n.x >= beta an inequality of a or either side of
    an equation, makes a ∩ b empty.
    """
    eqs, ineqs = a.hrep
    if face is not None:
        tight = [(alpha, off) for alpha, off in ineqs
                 if face.side(alpha, off) == (0, 0)]
        n = [sum(alpha[i] for alpha, _ in tight)
             for i in range(a.ambient_dim)]
        return b.side(n, sum(off for _, off in tight))[1] <= 0
    return (any(b.side(alpha, off)[1] < 0 for alpha, off in ineqs + eqs)
            or any(b.side(alpha, off)[0] > 0 for alpha, off in eqs))


# -- balancing ----------------------------------------------------------------


def is_balanced(c: PolyhedralComplex):
    """Check the balancing condition at every codimension-one face.

    Returns (ok, failures) where failures is a list of (cell index, defect
    vector); the defect is the weighted sum of primitive normals reduced
    against the face lattice.
    """
    if not c.is_pure():
        raise PurityError("balancing needs a pure-dimensional complex")
    failures = []
    for t in c.cells_of_dim(c.n - 1):
        tau = c.cells[t]
        total = normal_sum(c, t)
        if total is not None and not tau.lattice.contains(total):
            failures.append((t, tau.lattice.reduce(total)))
    return (not failures), failures


def normal_sum(c: PolyhedralComplex, t: int):
    """Weighted sum of the primitive normals of the codimension-one cell t
    in the top-dimensional cells of its sedentarity that cover it.

    Returns None when no such cell covers t (non-pure input).
    """
    tau = c.cells[t]
    total = None
    for s in c.covers_of(t):  # one dimension up, so top-dimensional
        sigma = c.cells[s]
        if sigma.sedentarity != tau.sedentarity:
            continue
        nu = vscale(c.weight(s), lattice_quotient(sigma, tau))
        total = nu if total is None else vadd(total, nu)
    return total


def fundamental_cycle_boundary(c: PolyhedralComplex):
    """Boundary of the weighted fundamental chain in top wedge coordinates.

    Returns a map {codim-1 cell index: wedge-coordinate vector}; the map is
    identically zero exactly when the complex is balanced (an independent
    code path from is_balanced).
    """
    if not c.is_pure():
        raise PurityError("the fundamental cycle needs a pure complex")
    n = c.n
    out = {}
    for t in c.cells_of_dim(n - 1):
        tau = c.cells[t]
        acc = None
        for s in c.covers_of(t):
            sigma = c.cells[s]
            if sigma.dim != n:
                continue
            omega = list(sigma.orientation)
            if sigma.sedentarity != tau.sedentarity:
                esc = tau.sedentarity - sigma.sedentarity
                omega = [tuple(Fraction(0) if i in esc else x
                               for i, x in enumerate(b)) for b in omega]
            w = wedge_vector(omega)
            w = vscale(c.weight(s) * c.signs[(t, s)], w)
            acc = w if acc is None else vadd(acc, w)
        if acc is not None and not is_zero_vec(acc):
            out[t] = acc
    return out


# -- derived complexes ---------------------------------------------------------


def star(c: PolyhedralComplex, cell_index: int) -> PolyhedralComplex:
    """The star fan of a cell, translated to the origin of its stratum: one
    cone per coface that is maximal in the cell's stratum."""
    base = c.cells[cell_index]
    keep = [i for i in range(c.ambient_dim) if i not in base.sedentarity]
    x = base.relint_point()
    maximal = []
    for j in sorted(c.cofaces(cell_index) & c.stratum_maximal):
        tau = c.cells[j]
        if tau.sedentarity != base.sedentarity:
            continue
        rays = [vsub(v, x) for v in tau.vertices] + [vec(r) for r in tau.rays]
        rays = [tuple(r[i] for i in keep) for r in rays]
        rays = [r for r in rays if not is_zero_vec(vec(r))]
        cone = Polyhedron(len(keep), [zero_vec(len(keep))], rays)
        maximal.append((cone, c.weight(j)))
    return build_complex(maximal)


def product(c: PolyhedralComplex, extra_dim: int, tropical: bool
            ) -> PolyhedralComplex:
    """The product complex C x R^s or C x T^s."""
    r = c.ambient_dim
    new_coords = list(range(r, r + extra_dim))
    maximal = []
    for i in c.facet_indices():
        cell = c.cells[i]
        verts = [tuple(list(v) + [Fraction(0)] * extra_dim)
                 for v in cell.vertices]
        rays = [tuple(list(vec(ray)) + [Fraction(0)] * extra_dim)
                for ray in cell.rays]
        for j in new_coords:
            e = unit_vec(r + extra_dim, j)
            rays += [e, vscale(-1, e)]
        sed = cell.sedentarity
        maximal.append((Polyhedron(r + extra_dim, verts, rays, sed),
                        c.weight(i)))
    tc = set(c.tropical_coords)
    if tropical:
        tc |= set(new_coords)
    return build_complex(maximal, tropical_coords=tc)


def restrict_to_stratum(c: PolyhedralComplex, stratum) -> PolyhedralComplex:
    """The subcomplex of cells whose interior lies in R^r_I, reindexed."""
    stratum = frozenset(stratum)
    keep = [i for i in range(c.ambient_dim) if i not in stratum]
    group = [i for i, cell in enumerate(c.cells)
             if cell.sedentarity == stratum]
    if not group:
        raise ComplexAxiomError(f"no cells of sedentarity {sorted(stratum)}")
    maximal = []
    for i in sorted(c.stratum_maximal.intersection(group)):
        cell = c.cells[i]
        verts = [tuple(v[k] for k in keep) for v in cell.vertices]
        rays = [tuple(vec(ray)[k] for k in keep) for ray in cell.rays]
        maximal.append((Polyhedron(len(keep), verts, rays), c.weight(i)))
    # The open stratum carries no compactification of its own.
    return build_complex(maximal)


def closure_in(c: PolyhedralComplex, tropical_coords) -> PolyhedralComplex:
    """Rebuild the complex with the given coordinates compactified."""
    maximal = [(c.cells[i], c.weight(i)) for i in c.facet_indices()]
    return build_complex(
        maximal, tropical_coords=set(c.tropical_coords) | set(tropical_coords))
