"""Rational polyhedra and weighted polyhedral complexes in T^r.

A polyhedron of sedentarity I is stored through its mobile part: vertices
and rays are full-length vectors whose entries at the coordinates in I are
zero placeholders (the actual coordinates there are -infinity).  Faces at
infinity are first-class cells, produced by projecting the mobile part
after a recession-cone support test.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

from . import convex
from .errors import (
    CodimensionError,
    ComplexAxiomError,
    DimensionError,
    PurityError,
    ValidationError,
)
from .linalg import (
    Lattice,
    Subspace,
    Vec,
    _xgcd,
    clear_denominators,
    idet,
    idot,
    is_zero_vec,
    primitive,
    unit_vec,
    vadd,
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
        if any(not 0 <= i < ambient_dim for i in sed):
            raise DimensionError(f"sedentary coordinates {sorted(sed)} "
                                 f"outside T^{ambient_dim}")
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
    def orientation(self) -> tuple[tuple[int, ...], ...]:
        """Ordered basis of L(sigma) as integer rows: the Hermite lattice
        basis, with a one-dimensional cell turned along its first ray, or
        else from its lowest to its highest vertex.  Each depends only on
        the point set, so cells with equal `key` have equal orientations."""
        basis = list(self.lattice.basis)
        if self.dim == 1:
            b = basis[0]
            if self.rays:
                s = idot(b, self.rays[0])
            else:
                (lo, dlo), (hi, dhi) = self._cleared[0], self._cleared[-1]
                s = idot(b, hi) * dlo - idot(b, lo) * dhi
            if s < 0:
                basis[0] = tuple(-x for x in b)
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
    def _pieces(self) -> dict:
        """`stratum_piece` answers by extra-coordinate set: cell or None."""
        return {}

    @cached_property
    def _normals(self) -> dict:
        """`lattice_quotient(self, tau)` answers by `id(tau)`: `_interned`
        keeps every cell alive, so no other cell takes that id."""
        return {}

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
        s, m = _relint_scaled(self)
        return tuple(Fraction(x, m) for x in s)

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

    Raises DimensionError unless `extra` is a nonempty set of mobile
    coordinates of p.  The answer is kept on p.
    """
    extra = frozenset(extra)
    if not extra or any(i in p.sedentarity or not 0 <= i < p.ambient_dim
                        for i in extra):
        raise DimensionError(f"extra coordinates {sorted(extra)} are not "
                             f"new coordinates of T^{p.ambient_dim}")
    pieces = p._pieces
    if extra in pieces:
        return pieces[extra]
    mobile = [i for i in range(p.ambient_dim) if i not in p.sedentarity]
    eqs = [a for a, _ in p.hrep[0]]
    ineqs = [a for a, _ in p.hrep[1]]
    for i in mobile:
        if i in extra:
            ineqs.append(vscale(-1, unit_vec(p.ambient_dim, i)))
        else:
            eqs.append(unit_vec(p.ambient_dim, i))
    _, rays = convex.cone_rays(ineqs, eqs, p.ambient_dim)
    piece = None
    if all(any(ray[i] for ray in rays) for i in extra):
        proj = lambda w: tuple(0 if i in extra else x for i, x in enumerate(w))
        piece = Polyhedron(p.ambient_dim, [proj(v) for v in p.vertices],
                           [proj(r) for r in p.rays], p.sedentarity | extra)
    pieces[extra] = piece
    return piece


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
    """A face-closed weighted rational polyhedral complex in T^r.

    `build_complex` interns complexes like cells, so everything derived
    from one is computed once and kept on it, and every caller of one
    input shares it: `weights` and `signs` are read-only mappings."""

    def __init__(self, ambient_dim, tropical_coords, cells, covers, weights,
                 signs):
        self.ambient_dim = ambient_dim
        self.tropical_coords = frozenset(tropical_coords)
        self.cells = tuple(cells)
        self.covers = tuple(sorted(covers))
        self.weights = MappingProxyType(dict(weights))
        self.signs = MappingProxyType(dict(signs))
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

    def cell(self, i: int) -> Polyhedron:
        """`cells[i]`, or DimensionError when i is not a cell index."""
        if not 0 <= i < len(self.cells):
            raise DimensionError(f"no cell {i} among {len(self.cells)}")
        return self.cells[i]

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


def _relint_scaled(p: Polyhedron) -> tuple[list[int], int]:
    """(s, m) with `p.relint_point()` equal to s / m: s an integer row and
    m > 0, read off the cleared vertices and the rays."""
    m = math.lcm(*(d for _, d in p._cleared))
    s = [0] * p.ambient_dim
    for ints, d in p._cleared:
        f = m // d
        s = [x + f * y for x, y in zip(s, ints)]
    m *= len(p.vertices)
    for r in p.rays:
        s = [x + m * y for x, y in zip(s, r)]
    return s, m


def _incidence_sign(tau: Polyhedron, sigma: Polyhedron) -> int:
    """Orientation sign of a covering pair using the outward convention.

    The sign is that of det M, where o_sigma = M (u, o_tau) for a vector u
    pointing out of sigma through tau.  On k columns R where (u, o_tau)
    has a nonzero minor, det(o_sigma|R) = det M * det((u, o_tau)|R), so two
    integer minors decide it.  R is the pivots of L(tau) plus the first
    column where u is nonzero modulo L(tau).  Everything is in integers.
    A complex computes the sign of each cover once, in `build_complex`,
    and keeps it in `signs`.
    """
    if tau.sedentarity == sigma.sedentarity:
        # A positive multiple of relint(tau) - relint(sigma): minus the
        # primitive normal, scaled up, plus a vector of L(tau), so the
        # determinant has the same sign as with the normal.
        st, mt = _relint_scaled(tau)
        ss, ms = _relint_scaled(sigma)
        u = [ms * x - mt * y for x, y in zip(st, ss)]
    else:
        # Across a jump the outward direction is the escape vector w of
        # L(sigma): negative on the escaping coordinates and zero on the
        # pivots of L(tau), where lifts of o_tau into L(sigma) agree with
        # o_tau.  Expanded along u's row, the minors with -e_j and o_tau
        # have the signs of those with w and the lifts.
        u = [0] * tau.ambient_dim
        u[min(tau.sedentarity - sigma.sedentarity)] = -1
    # Fraction-free reduction against the Hermite basis of Z(tau), whose
    # pivots are positive and sit at those of L(tau): each step scales u
    # by a pivot, so u ends as a positive multiple of
    # `tau.tangent.reduce(u)`, zero on the pivots and on the same columns.
    for p, row in zip(tau.tangent.pivots, tau.lattice.basis):
        c = u[p]
        if c:
            h = row[p]
            u = [h * x - c * y for x, y in zip(u, row)]
    extra = next((i for i, x in enumerate(u) if x), None)
    if extra is None:
        raise ComplexAxiomError("degenerate incidence")
    cols = sorted(tau.tangent.pivots + (extra,))

    def minor(rows):
        return idet([[r[i] for i in cols] for r in rows])

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

    The normal is kept on sigma by the cell tau itself (not by its key,
    which may need an H-representation tau never needed otherwise).  A
    complex built again is the interned one, so this memo serves the
    callers that come back without it: other complexes that share the
    cells, such as the graph and the cycle of a modification, and
    `boundary_integral` on a bare cell.
    """
    known = sigma._normals.get(id(tau))
    if known is not None:
        return known
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
    nu = tau.lattice.reduce(nu)
    sigma._normals[id(tau)] = nu
    return nu


def build_complex(maximal_cells, tropical_coords=()) -> PolyhedralComplex:
    """Face-close a list of (Polyhedron, weight) pairs into a complex.

    `tropical_coords` lists the coordinates compactified to -infinity;
    faces at infinity are generated along them.  Raises ComplexAxiomError
    when cells overlap badly or one listed maximal cell lies in another.

    Complexes are interned: the same input returns the same complex.  The
    input is the V-signature and weight of each maximal cell, in order,
    and the set of tropical coordinates, so a twin cell (another
    V-representation of one point set) gives another complex.  A build
    that raises is not kept, so it raises again.
    """
    signature = []
    for item in maximal_cells:
        c, w = ((item, 1) if isinstance(item, Polyhedron)
                else (item[0], _integer_weight(item[1])))
        signature.append((c.ambient_dim, c.sedentarity, c.vertices, c.rays,
                          w))
    return _interned_complex(tuple(signature), frozenset(tropical_coords))


@lru_cache(maxsize=None)
def _interned_complex(signature, tropical) -> PolyhedralComplex:
    """The one complex of a `build_complex` input: the memo for every
    complex.  Each V-signature names the caller's interned cell."""
    entries = [(_interned(*sig[:4]), sig[4]) for sig in signature]
    if not entries:
        raise ComplexAxiomError("a complex needs at least one maximal cell")
    ambient = entries[0][0].ambient_dim
    for c, _ in entries:
        if c.ambient_dim != ambient:
            raise ComplexAxiomError("mixed ambient dimensions")
    if any(not 0 <= i < ambient for i in tropical):
        raise DimensionError(f"tropical coordinates {sorted(tropical)} "
                             f"outside T^{ambient}")
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


def _integer_weight(w) -> int:
    """A weight as an int: ints and integral Fractions pass; floats,
    bools and non-integral Fractions raise ValidationError."""
    if (isinstance(w, (int, Fraction)) and not isinstance(w, bool)
            and w.denominator == 1):
        return int(w)
    raise ValidationError(f"weight {w!r} is not an integer")


def _validate_intersections(ordered, dominated, face_keys):
    """Pairwise intersections of stratum-maximal cells must be common faces:
    their keys must lie in the face sets the closure recorded for both cells
    (exact, since `faces` lists every nonempty face).

    Most pairs are settled by a linear functional (the separation lemma for
    polyhedra; Fulton, Introduction to Toric Varieties, 1.2): see
    `_certified`.  A pair that no functional settles in either order is
    intersected, and raises unless the intersection is a common face.
    Each pair is decided once per distinct input of `build_complex`,
    which returns the interned complex for an input it has built before.
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
            if not (_certified(a, b, face) or _certified(b, a, face)):
                inter = intersect(a, b)
                if inter is not None and not (
                        inter.key in face_keys[a.key]
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
    top = {}  # s -> wedge_vector of its orientation, once per top cell
    for t in c.cells_of_dim(n - 1):
        tau = c.cells[t]
        acc = None
        for s in c.covers_of(t):
            sigma = c.cells[s]
            if sigma.dim != n:
                continue
            if sigma.sedentarity == tau.sedentarity:
                if s not in top:
                    top[s] = wedge_vector(sigma.orientation)
                w = top[s]
            else:
                esc = tau.sedentarity - sigma.sedentarity
                w = wedge_vector([
                    tuple(0 if i in esc else x for i, x in enumerate(b))
                    for b in sigma.orientation])
            w = vscale(c.weight(s) * c.signs[(t, s)], w)
            acc = w if acc is None else vadd(acc, w)
        if acc is not None and not is_zero_vec(acc):
            out[t] = acc
    return out


# -- derived complexes ---------------------------------------------------------


def star(c: PolyhedralComplex, cell_index: int) -> PolyhedralComplex:
    """The star fan of a cell, translated to the origin of its stratum: one
    cone per coface that is maximal in the cell's stratum."""
    base = c.cell(cell_index)
    keep = [i for i in range(c.ambient_dim) if i not in base.sedentarity]
    x = base.relint_point()
    maximal = []
    for j in sorted(c.cofaces(cell_index) & c.stratum_maximal):
        tau = c.cells[j]
        if tau.sedentarity != base.sedentarity:
            continue
        rays = [vsub(v, x) for v in tau.vertices] + list(tau.rays)
        rays = [tuple(r[i] for i in keep) for r in rays]
        cone = Polyhedron(len(keep), [zero_vec(len(keep))], rays)
        maximal.append((cone, c.weight(j)))
    return build_complex(maximal)


def product(c: PolyhedralComplex, extra_dim: int, tropical: bool
            ) -> PolyhedralComplex:
    """The product complex C x R^s or C x T^s."""
    if extra_dim < 0:
        raise DimensionError(f"negative number of factors: {extra_dim}")
    r = c.ambient_dim
    new_coords = list(range(r, r + extra_dim))
    maximal = []
    for i in c.facet_indices():
        cell = c.cells[i]
        verts = [v + (0,) * extra_dim for v in cell.vertices]
        rays = [ray + (0,) * extra_dim for ray in cell.rays]
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
        rays = [tuple(ray[k] for k in keep) for ray in cell.rays]
        maximal.append((Polyhedron(len(keep), verts, rays), c.weight(i)))
    # The open stratum carries no compactification of its own.
    return build_complex(maximal)


def closure_in(c: PolyhedralComplex, tropical_coords) -> PolyhedralComplex:
    """Rebuild the complex with the given coordinates compactified."""
    maximal = [(c.cells[i], c.weight(i)) for i in c.facet_indices()]
    return build_complex(
        maximal, tropical_coords=set(c.tropical_coords) | set(tropical_coords))
