"""Open and closed tropical modifications of weighted complexes.

The graph of a piecewise integer-affine function over a balanced complex
is completed to a balanced cycle by hanging facets in the last coordinate
direction with the unique clearing weights; the divisor is the projected
shadow of the hung facets.  The inverse analysis classifies the facets of
a cycle by whether the projection kernel lies in their tangent space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BalancingRequiredError,
    DimensionError,
    IntegralityError,
    ModificationError,
    NotAModificationError,
    PurityError,
)
from .linalg import (
    Lattice,
    Subspace,
    det,
    is_zero_vec,
    mat,
    unit_vec,
    vdot,
    vec,
    vscale,
    vsub,
)
from .polyhedral import (
    Polyhedron,
    PolyhedralComplex,
    build_complex,
    closure_in,
    from_hrep,
    intersect,
    is_balanced,
    normal_sum,
)

MAX = "max"
MIN = "min"


class PLFunction:
    """A piecewise integer-affine function.

    Either a tropical polynomial (mode max or min, terms of the form
    coefficient + <exponents, x>) or explicit affine data per facet of a
    reference complex.  Exponent vectors are integral; per-facet linear
    parts must have integer slopes along the facet lattice.
    """

    def __init__(self, mode=MAX, terms=None, per_facet=None):
        if (terms is None) == (per_facet is None):
            raise ModificationError("need exactly one of terms / per_facet")
        self.mode = mode
        self.terms = None
        self.per_facet = None
        if terms is not None:
            if mode not in (MAX, MIN):
                raise ModificationError(f"unknown mode {mode!r}")
            clean = []
            for coeff, exps in terms:
                exps = tuple(Fraction(e) for e in exps)
                if any(e.denominator != 1 for e in exps):
                    raise IntegralityError(
                        f"non-integral exponent vector {exps}")
                clean.append((Fraction(coeff), tuple(int(e) for e in exps)))
            if not clean:
                raise ModificationError("a tropical polynomial needs terms")
            self.terms = tuple(clean)
        else:
            self.per_facet = {key: (vec(lin), Fraction(const))
                              for key, (lin, const) in per_facet.items()}

    def value(self, x) -> Fraction:
        if self.terms is None:
            raise ModificationError("per-facet functions have no global value")
        x = vec(x)
        vals = [c + vdot(vec(e), x) for c, e in self.terms]
        return max(vals) if self.mode == MAX else min(vals)

    def affine_pieces(self, w: PolyhedralComplex):
        """Refine the facets of w into domains of linearity.

        Returns a list of (piece, weight, linear, constant) with the
        pieces tiling the facets of w.
        """
        out = []
        seen = {}
        if self.per_facet is not None:
            for i in w.facet_indices():
                cell = w.cells[i]
                if cell.key not in self.per_facet:
                    raise ModificationError(
                        f"no affine data for facet {cell}")
                lin, const = self.per_facet[cell.key]
                _check_integral_slopes(cell, lin)
                out.append((cell, w.weight(i), lin, const))
            _check_continuity(out)
            return out
        for i in w.facet_indices():
            cell = w.cells[i]
            weight = w.weight(i)
            for coeff, exps in self.terms:
                lin = vec(exps)
                eqs = list(cell.hrep[0])
                ineqs = list(cell.hrep[1])
                for c2, e2 in self.terms:
                    if (c2, e2) == (coeff, exps):
                        continue
                    diff = vsub(lin, vec(e2))
                    bound = c2 - coeff
                    if self.mode == MIN:
                        diff = vscale(-1, diff)
                        bound = -bound
                    ineqs.append((diff, bound))
                piece = from_hrep(w.ambient_dim, eqs, ineqs, cell.sedentarity)
                if piece is None or piece.dim != cell.dim or piece.key in seen:
                    continue
                seen[piece.key] = True
                out.append((piece, weight, lin, Fraction(coeff)))
        return out


def _check_integral_slopes(cell: Polyhedron, lin):
    for b in cell.lattice.basis:
        s = vdot(vec(lin), vec(b))
        if s.denominator != 1:
            raise IntegralityError(
                f"slope {s} along a lattice direction of {cell}")


def _check_continuity(pieces):
    """Affine data of adjacent pieces must agree on shared faces."""
    for (a, _, lin_a, c_a), (b, _, lin_b, c_b) in \
            itertools.combinations(pieces, 2):
        # Pieces that a strict inequality of either one separates.
        if any(q.side(c, beta)[1] < 0
               for p, q in ((a, b), (b, a)) for c, beta in p.hrep[1]):
            continue
        common = intersect(a, b)
        if common is None:
            continue
        x = common.relint_point()
        if vdot(lin_a, x) + c_a != vdot(lin_b, x) + c_b:
            raise ModificationError(
                f"per-facet data is discontinuous across {common}")
        for d in common.tangent.basis:
            if vdot(lin_a, vec(d)) != vdot(lin_b, vec(d)):
                raise ModificationError(
                    f"per-facet slopes disagree along {common}")


@dataclass
class ModificationResult:
    graph: PolyhedralComplex          # the completed cycle V (or its closure)
    source: PolyhedralComplex         # W, refined into domains of linearity
    divisor: PolyhedralComplex | None
    function: PLFunction
    projection_coordinate: int        # 0-based index of the modified axis


def _lift(piece: Polyhedron, lin, const):
    r = piece.ambient_dim
    verts = [tuple(list(v) + [vdot(lin, v) + const]) for v in piece.vertices]
    rays = [tuple(list(vec(ray)) + [vdot(lin, vec(ray))])
            for ray in piece.rays]
    return Polyhedron(r + 1, verts, rays, piece.sedentarity)


def _lifted(pieces):
    """The affine pieces lifted onto their graphs, with their weights."""
    return [(_lift(piece, lin, const), weight)
            for piece, weight, lin, const in pieces]


def graph_complex(w: PolyhedralComplex, p: PLFunction) -> PolyhedralComplex:
    """The graph of p over w, with inherited weights, in one extra
    coordinate; in general unbalanced along the break locus."""
    return build_complex(_lifted(p.affine_pieces(w)), w.tropical_coords)


def complete_modification(w: PolyhedralComplex, p: PLFunction
                          ) -> ModificationResult:
    """The open tropical modification of w along p.

    Hangs a facet in direction -e_last at every unbalanced codimension-one
    face of the graph, with the unique weight restoring balancing, and
    extracts the divisor as the projected shadow of the hung facets.
    The refined source, the graph, the cycle and the divisor keep the
    tropical coordinates of w.
    """
    ok, _ = is_balanced(w)
    if not ok:
        raise BalancingRequiredError("modification needs a balanced source")
    pieces = p.affine_pieces(w)
    tropical = w.tropical_coords
    refined_w = build_complex([(piece, weight)
                               for piece, weight, _, _ in pieces], tropical)
    graph = build_complex(_lifted(pieces), tropical)
    r1 = graph.ambient_dim
    e_last = unit_vec(r1, r1 - 1)
    hung = []
    for t in graph.cells_of_dim(graph.n - 1):
        tau = graph.cells[t]
        total = normal_sum(graph, t)
        if total is None or tau.lattice.contains(total):
            continue
        # A graph has no vertical direction, so the last column is never a
        # pivot of L(tau) and total mod L(tau) must be a multiple of e_last.
        *rest, weight = tau.tangent.reduce(total)
        if any(rest):
            raise ModificationError(
                f"defect at {tau} is not a vertical multiple")
        if weight.denominator != 1 or weight == 0:
            raise ModificationError(
                f"no integer clearing weight at {tau}")
        down = Polyhedron(r1, tau.vertices,
                          list(tau.rays) + [vscale(-1, e_last)],
                          tau.sedentarity)
        hung.append((down, tau, int(weight)))
    maximal = [(graph.cells[i], graph.weight(i))
               for i in graph.facet_indices()]
    maximal.extend((down, wt) for down, _, wt in hung)
    cycle = build_complex(maximal, tropical)
    ok, failures = is_balanced(cycle)
    if not ok:
        raise ModificationError(f"completion failed to balance: {failures}")
    divisor = None
    if hung:
        div_cells = {}
        for _, tau, wt in hung:
            shadow = Polyhedron(r1 - 1,
                                [v[:-1] for v in tau.vertices],
                                [ray[:-1] for ray in tau.rays],
                                tau.sedentarity)
            if shadow.key in div_cells and div_cells[shadow.key][1] != wt:
                raise ModificationError("inconsistent divisor weights")
            div_cells[shadow.key] = (shadow, wt)
        divisor = build_complex(list(div_cells.values()), tropical)
        ok, _ = is_balanced(divisor)
        if not ok:
            raise ModificationError("divisor of a balanced source must "
                                    "balance")
    return ModificationResult(cycle, refined_w, divisor, p, r1 - 1)


def closed_modification(w: PolyhedralComplex, p: PLFunction
                        ) -> ModificationResult:
    """The closure of the open modification in W x T: adds the faces at
    minus infinity in the new coordinate."""
    open_result = complete_modification(w, p)
    closed = closure_in(open_result.graph,
                        [open_result.projection_coordinate])
    return ModificationResult(closed, open_result.source,
                              open_result.divisor, p,
                              open_result.projection_coordinate)


def _dropped(coords, i: int) -> frozenset:
    """Coordinate indices other than i, renumbered past the dropped i."""
    return frozenset(k if k < i else k - 1 for k in coords if k != i)


def _drop_coordinate(cell: Polyhedron, i: int) -> Polyhedron:
    keep = [k for k in range(cell.ambient_dim) if k != i]
    verts = [tuple(v[k] for k in keep) for v in cell.vertices]
    rays = [tuple(ray[k] for k in keep) for ray in cell.rays]
    return Polyhedron(cell.ambient_dim - 1, verts, rays,
                      _dropped(cell.sedentarity, i))


def _projection_index(cell: Polyhedron, dropped: Polyhedron, i: int) -> int:
    """Lattice index [Z(pi(cell)) : pi(Z(cell))]."""
    target = dropped.lattice
    if target.rank == 0:
        return 1
    image = []
    for b in cell.lattice.basis:
        img = tuple(x for k, x in enumerate(vec(b)) if k != i)
        if not is_zero_vec(vec(img)):
            image.append(img)
    image_lattice = Lattice(dropped.ambient_dim, image)
    coords = [target.coords(b) for b in image_lattice.basis]
    d = det(mat(coords))
    if d == 0 or d.denominator != 1:
        raise NotAModificationError("projected lattice is degenerate")
    return abs(int(d))


def project_modification(v: PolyhedralComplex, coordinate: int
                         ) -> ModificationResult:
    """Analyze the coordinate projection of a balanced cycle.

    Facets containing the kernel direction map into the divisor, the rest
    onto the source; the recovered per-facet function is verified by
    reconstructing the modification and comparing weighted supports.
    The source and the divisor keep the tropical coordinates of v other
    than the projected one.
    """
    r = v.ambient_dim
    i = coordinate
    if not 0 <= i < r:
        raise DimensionError(f"coordinate {i} is outside 0..{r - 1}")
    ok, _ = is_balanced(v)
    if not ok:
        raise BalancingRequiredError("projection analysis needs a balanced "
                                     "cycle")
    e_i = unit_vec(r, i)
    verticals = []
    horizontals = []
    for f in v.facet_indices():
        cell = v.cells[f]
        weight = v.weight(f)
        if cell.tangent.contains(e_i):
            # The equations vanish on e_i; so e_i and -e_i are recession
            # directions iff every inequality does too.
            if not any(c[i] for c, _ in cell.hrep[1]):
                raise NotAModificationError(
                    f"fibers of {cell} are full lines")
            verticals.append((cell, weight))
        elif i in cell.sedentarity:
            # Every function is finite on the source, so its graph has no
            # facet at -inf in coordinate i.
            raise NotAModificationError(
                f"facet {cell} is sedentary in the projected coordinate {i}")
        else:
            horizontals.append((cell, weight))
    if not horizontals:
        raise NotAModificationError("no facet maps onto the source")
    # Source facets with pushforward weights; overlapping interiors mean
    # disconnected fibers.
    w_facets = []
    for cell, weight in horizontals:
        shadow = _drop_coordinate(cell, i)
        idx = _projection_index(cell, shadow, i)
        w_facets.append((shadow, weight * idx, cell))
    for (a, _, _), (b, _, _) in itertools.combinations(w_facets, 2):
        if _full_overlap(a, b, a.dim):
            raise NotAModificationError(
                "two facets project onto a common region: fibers are "
                "disconnected")
    tropical = _dropped(v.tropical_coords, i)
    w = build_complex([(shadow, wt) for shadow, wt, _ in w_facets], tropical)
    divisor = None
    if verticals:
        div_cells = {}
        for cell, weight in verticals:
            shadow = _drop_coordinate(cell, i)
            idx = _projection_index(cell, shadow, i)
            if shadow.key in div_cells and \
                    div_cells[shadow.key][1] != weight * idx:
                raise NotAModificationError("inconsistent divisor weights")
            div_cells[shadow.key] = (shadow, weight * idx)
        keys = list(div_cells)
        for key in keys:
            shadow = div_cells[key][0]
            if any(other is not shadow and other.contains_polyhedron(shadow)
                   for other, _ in div_cells.values()):
                del div_cells[key]
        divisor = build_complex(list(div_cells.values()), tropical)
    # Recover the function per source facet.
    per_facet = {}
    for shadow, _, cell in w_facets:
        v0 = cell.vertices[0]
        lin = _graph_functional(cell.tangent, i)
        per_facet[shadow.key] = (lin, v0[i] - vdot(lin, v0[:i] + v0[i + 1:]))
    func = PLFunction(per_facet={k: v_ for k, v_ in per_facet.items()})
    rebuilt = complete_modification(w, func)
    if not weighted_supports_equal(rebuilt.graph, v):
        raise NotAModificationError(
            "reconstruction from the projection differs from the cycle")
    if (divisor is None) != (rebuilt.divisor is None):
        raise NotAModificationError("divisor mismatch in reconstruction")
    if divisor is not None and \
            not weighted_supports_equal(divisor, rebuilt.divisor):
        raise NotAModificationError("divisor mismatch in reconstruction")
    return ModificationResult(v, w, divisor, func, i)


def _graph_functional(tangent, i):
    """The functional on the coordinates other than i whose graph holds
    a tangent space without e_i.  With coordinate i moved last, each
    echelon row gives the functional's entry at its pivot column (never
    the last, as e_i is not tangent): its own last entry.  Off the
    pivots the functional is zero, the choice a solver makes for free
    variables."""
    graph = Subspace(tangent.ambient_dim,
                     [b[:i] + b[i + 1:] + b[i:i + 1] for b in tangent.basis])
    lin = [Fraction(0)] * (tangent.ambient_dim - 1)
    for row, p in zip(graph.basis, graph.pivots):
        lin[p] = row[-1]
    return tuple(lin)


# -- weighted support comparison ---------------------------------------------------


def _full_overlap(a: Polyhedron, b: Polyhedron, n: int) -> bool:
    """Whether cells a and b, each of dimension at most n, meet in
    dimension n.

    Exact certificates settle most pairs without building a cell: cells
    of dimension n overlap in dimension n only if they share their affine
    hull (the canonical equations `hrep[0]`), and do so when one contains
    the other.  An inequality c.x >= beta of one cell with c.x <= beta on
    the other (every vertex, and c.r <= 0 on every ray) puts the overlap
    in the hyperplane c.x = beta, which cuts the common hull properly as
    the inequality is a facet.  Only the pairs no certificate settles are
    intersected.
    """
    if (a.dim < n or b.dim < n or a.sedentarity != b.sedentarity
            or a.hrep[0] != b.hrep[0]):
        return False
    if a.contains_polyhedron(b) or b.contains_polyhedron(a):
        return True
    if any(q.side(c, beta)[1] <= 0
           for p, q in ((a, b), (b, a)) for c, beta in p.hrep[1]):
        return False
    common = intersect(a, b)
    return common is not None and common.dim >= n


def _subtract(regions, piece):
    """Closed full-dimensional leftovers of regions minus piece."""
    out = []
    for region in regions:
        n = region.dim
        if piece.contains_polyhedron(region):
            continue
        if not _full_overlap(region, piece, n):
            out.append(region)
            continue
        current = region
        for a, b in piece.hrep[1]:
            flipped = _halfspace_cut(current, vscale(-1, vec(a)), -b)
            if flipped is not None and flipped.dim == n:
                out.append(flipped)
            current = _halfspace_cut(current, vec(a), b)
            if current is None or current.dim < n:
                break
    return out


def _halfspace_cut(region, a, b):
    """region cut by a . x >= b, or None if that is empty."""
    return from_hrep(region.ambient_dim, region.hrep[0],
                     region.hrep[1] + ((a, b),), region.sedentarity)


def weighted_supports_equal(c1: PolyhedralComplex, c2: PolyhedralComplex
                            ) -> bool:
    """Equality of weighted complexes up to common refinement.

    Both complexes must be pure.  Mobile facets only: supports must cover
    each other exactly (checked by polyhedral subtraction) and weights
    must agree on every full-dimensional overlap (`_full_overlap`).
    """
    if not (c1.is_pure() and c2.is_pure()):
        raise PurityError("comparing weighted supports needs pure complexes")
    if c1.ambient_dim != c2.ambient_dim or c1.n != c2.n:
        return False
    n = c1.n
    f1 = [(c1.cells[idx], c1.weight(idx))
          for idx in c1.facet_indices() if not c1.cells[idx].sedentarity]
    f2 = [(c2.cells[idx], c2.weight(idx))
          for idx in c2.facet_indices() if not c2.cells[idx].sedentarity]
    for source, target in ((f1, f2), (f2, f1)):
        for cell, weight in source:
            leftovers = [cell]
            for other, w2 in target:
                if not _full_overlap(cell, other, n):
                    continue
                if weight != w2:
                    return False
                leftovers = _subtract(leftovers, other)
                if not leftovers:
                    break
            if leftovers:
                return False
    return True
