"""Multi-tangent coefficient systems and the two cohomology engines.

The coefficient system F_p assigns to each cell the sum of p-th wedge
powers of the tangent spaces of its same-sedentarity cofaces; F^p is its
dual, carried by the same canonical bases.  Compactly supported cohomology
is computed on cellular cochains, ordinary cohomology on the order complex
of the face poset (a derived inverse limit).  Both reduce to exact rank
computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .chains import betti_numbers, compose_is_zero
from .errors import (BalancingRequiredError, DimensionError, PurityError,
                     ValidationError)
from .linalg import (
    Mat,
    Subspace,
    mat_mul,
    mat_transpose,
    subspace_sum,
    vdot,
    vec,
    wedge_vector,
)
from .polyhedral import PolyhedralComplex, is_balanced

COSHEAF = "cosheaf"
SHEAF = "sheaf"


@dataclass(frozen=True)
class SheafCell:
    id: str
    dim: int
    space_dim: int


def _narrow(m) -> tuple:
    """The matrix m with each integral entry as an int and every other
    entry as a Fraction, so cochain arithmetic on it stays in int where
    it can and never meets a float."""
    out = []
    for row in m:
        row = [x if type(x) in (int, Fraction) else Fraction(x) for x in row]
        out.append(tuple(x.numerator if x.denominator == 1 else x
                         for x in row))
    return tuple(out)


class CellularSheafDatum:
    """A finite graded poset with a vector space per cell and a structure
    map per covering pair.

    For direction SHEAF the map on a pair (face, coface) goes from the face
    space to the coface space; for COSHEAF the other way.  Maps must
    commute around every length-two diamond.  `signs`, when present, is a
    compatible incidence signing used by the compact-support engine.

    The constructor checks shapes and diamonds, since it is the entry for
    data from outside; a datum that commutes by construction is made with
    `_unchecked` instead.
    """

    def __init__(self, cells, cover_maps, direction, signs=None):
        self._setup(cells, cover_maps, direction, signs)
        self._validate()

    @classmethod
    def _unchecked(cls, cells, cover_maps, direction, signs=None):
        datum = cls.__new__(cls)
        datum._setup(cells, cover_maps, direction, signs)
        return datum

    def _setup(self, cells, cover_maps, direction, signs):
        if direction not in (SHEAF, COSHEAF):
            raise ValidationError(f"unknown direction {direction!r}")
        self.cells = tuple(cells)
        self.direction = direction
        self.cover_maps = {pair: _narrow(m) for pair, m in cover_maps.items()}
        self.signs = dict(signs) if signs is not None else None
        self._by_id = {c.id: i for i, c in enumerate(self.cells)}
        if len(self._by_id) != len(self.cells):
            raise ValidationError("duplicate cell ids")

    @property
    def n(self) -> int:
        return max((c.dim for c in self.cells), default=0)

    def _validate(self):
        for c in self.cells:
            if c.dim < 0 or c.space_dim < 0:
                raise ValidationError(f"negative dimension in cell {c.id}")
        for (i, j), m in self.cover_maps.items():
            lo, hi = self.cells[i], self.cells[j]
            if hi.dim != lo.dim + 1:
                raise ValidationError(
                    f"relation {lo.id} -> {hi.id} is not a covering pair")
            src, dst = ((lo, hi) if self.direction == SHEAF else (hi, lo))
            nrows, ncols = len(m), (len(m[0]) if m else 0)
            if m and any(len(r) != ncols for r in m):
                raise ValidationError("ragged matrix")
            if nrows != dst.space_dim or (nrows and ncols != src.space_dim):
                raise ValidationError(
                    f"matrix for {lo.id} -> {hi.id} has shape "
                    f"{(nrows, ncols)}, expected "
                    f"{(dst.space_dim, src.space_dim)}")
        # Diamond commutation: all compositions agree on every 2-interval.
        for i, k, middles in _intervals(self.cover_maps, len(self.cells)):
            first = _composite(self, i, middles[0], k)
            if any(_composite(self, i, j, k) != first for j in middles[1:]):
                raise ValidationError(
                    f"non-commuting diamond under {self.cells[i].id}"
                    f" -> {self.cells[k].id}")

    def transpose(self) -> "CellularSheafDatum":
        """The dual datum: sheaf from cosheaf and back, with transposes."""
        other = SHEAF if self.direction == COSHEAF else COSHEAF
        flipped = {}
        for (i, j), m in self.cover_maps.items():
            t = mat_transpose(m)
            rows_new = (self.cells[j].space_dim if other == SHEAF
                        else self.cells[i].space_dim)
            if not t and rows_new:
                t = tuple(() for _ in range(rows_new))
            flipped[(i, j)] = t
        # Transposing keeps every shape consistent and every diamond
        # commuting, so the checks this datum passed are not run again.
        return CellularSheafDatum._unchecked(self.cells, flipped, other,
                                             self.signs)


# -- multi-tangent spaces on a geometric complex -------------------------------


def multitangent_space(c: PolyhedralComplex, cell_index: int, p: int
                       ) -> Subspace:
    """F_p(sigma): sum of p-th wedge powers of same-sedentarity coface
    tangents, in lexicographic wedge coordinates on the ambient space;
    tangent spaces grow along covers, so the cofaces maximal in sigma's
    stratum span it.

    The complex keeps each answer by (index, p): one sheaf build asks for
    a cell's space again at every cover it is in, and a rebuilt complex
    is the interned one, so it reads them there too."""
    cache = c._multitangent_cache
    got = cache.get((cell_index, p))
    if got is not None:
        return got
    if p < 0:
        raise DimensionError("negative wedge degree")
    cells = c.cells
    sed = c.cell(cell_index).sedentarity
    pieces = [cells[j].wedge_powers[p]
              for j in c.cofaces(cell_index) & c.stratum_maximal
              if cells[j].sedentarity == sed and p <= cells[j].dim]
    out = (subspace_sum(pieces) if pieces
           else Subspace(math.comb(c.ambient_dim, p), ()))
    cache[(cell_index, p)] = out
    return out


def inclusion_map(c: PolyhedralComplex, tau_index: int, sigma_index: int,
                  p: int) -> Mat:
    """Matrix of i: F_p(sigma) -> F_p(tau) in the canonical bases.

    For a sedentarity jump the map is the p-th wedge power of the stratum
    projection (killing wedge coordinates that meet the escaping
    directions) followed by the inclusion.  Both bases are in reduced
    echelon form, so the coordinates of an image are its entries at the
    pivot columns of F_p(tau).  Tangent spaces vanish on their cell's
    sedentary coordinates, so F_p(tau) is zero on every wedge coordinate
    meeting sed(tau), which contains the escaping set: its pivots avoid
    the killed coordinates and the map is a column selection.
    """
    f_tau = multitangent_space(c, tau_index, p)
    f_sigma = multitangent_space(c, sigma_index, p)
    return tuple(tuple(b[k] for b in f_sigma.basis) for k in f_tau.pivots)


def build_cosheaf(c: PolyhedralComplex, p: int) -> CellularSheafDatum:
    """The cosheaf F_p with maps from cofaces to faces.

    Every map is "kill the escaping coordinates, read the pivots"; two
    kills compose to the kill of the union, so every diamond commutes by
    construction and the constructor's checks are skipped.
    """
    spaces = [multitangent_space(c, i, p) for i in range(len(c.cells))]
    cells = [SheafCell(f"c{i}", c.cells[i].dim, spaces[i].dim)
             for i in range(len(c.cells))]
    maps = {(t, s): inclusion_map(c, t, s, p) for t, s in c.covers}
    return CellularSheafDatum._unchecked(cells, maps, COSHEAF,
                                         signs=dict(c.signs))


def build_sheaf(c: PolyhedralComplex, p: int) -> CellularSheafDatum:
    """The sheaf F^p: dual spaces, transposed maps from faces to cofaces."""
    return build_cosheaf(c, p).transpose()


# -- poset diamonds and incidence signs ----------------------------------------


def _intervals(pairs, ncells):
    """Length-two intervals (i, k, middle cells) of the poset whose
    covering pairs are `pairs`, by bottom cell; middles in pair order."""
    ups: dict = {}
    for (i, j) in pairs:
        ups.setdefault(i, []).append(j)
    for i in range(ncells):
        tops: dict = {}
        for j in ups.get(i, ()):
            for k in ups.get(j, ()):
                tops.setdefault(k, []).append(j)
        for k, middles in tops.items():
            yield i, k, middles


def _composite(datum, i, j, k):
    """The structure map of i < k through the middle cell j.

    Through a zero middle space both factors are empty, so the zero
    composite takes its width from the source cell's space.
    """
    if datum.direction == SHEAF:
        src, first, then = i, (i, j), (j, k)
    else:
        src, first, then = k, (j, k), (i, j)
    outer = datum.cover_maps[then]
    if not datum.cells[j].space_dim:
        return tuple((0,) * datum.cells[src].space_dim for _ in outer)
    return mat_mul(outer, datum.cover_maps[first])


def _solve_signs(datum: CellularSheafDatum) -> dict:
    """Find an incidence signing with zero square, as a GF(2) system."""
    pairs = sorted(datum.cover_maps)
    var = {pair: k for k, pair in enumerate(pairs)}
    rows = []
    for i, k, middles in _intervals(pairs, len(datum.cells)):
        if len(middles) == 1:
            # A single path: its composite must be zero or no signing
            # can square to zero.
            comp = _composite(datum, i, middles[0], k)
            if any(any(x != 0 for x in row) for row in comp):
                raise ValidationError(
                    "poset interval with a single middle cell and a "
                    "nonzero composite admits no incidence signing")
            continue
        if len(middles) > 2:
            raise ValidationError("non-thin poset interval")
        j1, j2 = middles
        row = [0] * (len(pairs) + 1)
        row[var[(i, j1)]] ^= 1
        row[var[(j1, k)]] ^= 1
        row[var[(i, j2)]] ^= 1
        row[var[(j2, k)]] ^= 1
        row[-1] = 1
        rows.append(row)
    solution = _gf2_solve(rows, len(pairs))
    if solution is None:
        raise ValidationError("no consistent incidence signing exists")
    return {pair: (-1 if solution[var[pair]] else 1) for pair in pairs}


def _gf2_solve(rows, nvars):
    system = [r[:] for r in rows]
    pivots = {}
    rank = 0
    for col in range(nvars):
        pivot = next((r for r in range(rank, len(system)) if system[r][col]),
                     None)
        if pivot is None:
            continue
        system[rank], system[pivot] = system[pivot], system[rank]
        for r in range(len(system)):
            if r != rank and system[r][col]:
                system[r] = [a ^ b for a, b in zip(system[r], system[rank])]
        pivots[col] = rank
        rank += 1
    for r in range(rank, len(system)):
        if system[r][-1]:
            return None
    out = [0] * nvars
    for col, r in pivots.items():
        out[col] = system[r][-1]
    return out


# -- the two engines -------------------------------------------------------------


def compact_cohomology(datum: CellularSheafDatum) -> tuple[int, ...]:
    """Compactly supported cohomology ranks h^q_c, q = 0..n.

    Cellular model: C^q is the direct sum of the cell spaces in dimension
    q; the coboundary pushes along signed restriction maps.
    """
    if datum.direction != SHEAF:
        datum = datum.transpose()
    signs = datum.signs if datum.signs is not None else _solve_signs(datum)
    n = datum.n
    offsets = [{} for _ in range(n + 1)]
    dims = [0] * (n + 1)
    for i, cell in enumerate(datum.cells):
        offsets[cell.dim][i] = dims[cell.dim]
        dims[cell.dim] += cell.space_dim
    diffs = [dict() for _ in range(n)]
    for (t, s), m in datum.cover_maps.items():
        q = datum.cells[t].dim
        sgn = signs[(t, s)]
        base_r = offsets[q + 1][s]
        base_c = offsets[q][t]
        for a, row in enumerate(m):
            for b, v in enumerate(row):
                if v:
                    key = (base_r + a, base_c + b)
                    diffs[q][key] = diffs[q].get(key, 0) + sgn * v
    if not compose_is_zero(dims, diffs):
        raise ValidationError("compact coboundary does not square to zero")
    return tuple(betti_numbers(dims, diffs))


def ordinary_cohomology(datum: CellularSheafDatum, cone_shortcut=True
                        ) -> tuple[int, ...]:
    """Ordinary cohomology ranks h^q, q = 0..n.

    Order-complex model: a q-cochain assigns to each strict chain
    sigma_0 < ... < sigma_q a vector in the top cell's space; the
    differential alternates over deletions, restricting on the last one.
    This computes the derived inverse limit of the sheaf over the poset.

    When the poset has a global minimum m (every fan does), prepending m
    to chains is a contracting homotopy of the order complex, so the
    derived limit is the stalk at m concentrated in degree zero; that
    collapse is applied up front unless `cone_shortcut` is disabled.
    """
    if datum.direction != SHEAF:
        datum = datum.transpose()
    ncells = len(datum.cells)
    n = datum.n
    ups = {i: set() for i in range(ncells)}
    for (i, j) in datum.cover_maps:
        ups[i].add(j)
    if cone_shortcut:
        # Dimensions rise by one along every cover, so each cell lies above
        # some minimal cell, and a unique minimal cell is the minimum.
        has_lower = {j for (_, j) in datum.cover_maps}
        minimal = [i for i in range(ncells) if i not in has_lower]
        if len(minimal) == 1:
            out = [0] * (n + 1)
            out[0] = datum.cells[minimal[0]].space_dim
            return tuple(out)
    # Full restriction maps along arbitrary comparable pairs, composed
    # from covering maps top-down (commutation makes the path irrelevant).
    full = dict(datum.cover_maps)
    order = sorted(range(ncells), key=lambda i: -datum.cells[i].dim)
    reach = {i: set(ups[i]) for i in range(ncells)}
    for i in order:
        for j in list(reach[i]):
            reach[i] |= reach[j]
    for i in order:
        for j in sorted(reach[i], key=lambda k: datum.cells[k].dim):
            if (i, j) in full:
                continue
            m = next(m for m in ups[i] if j in reach[m])
            full[(i, j)] = mat_mul(full[(m, j)], full[(i, m)])
    # Enumerate strict chains by increasing length.
    chains = [[(i,) for i in range(ncells)]]
    for q in range(1, n + 1):
        nxt = []
        for ch in chains[-1]:
            for j in sorted(reach[ch[-1]]):
                nxt.append(ch + (j,))
        chains.append(nxt)
    dims = []
    offsets = []
    for q in range(n + 1):
        off = {}
        total = 0
        for ch in chains[q]:
            off[ch] = total
            total += datum.cells[ch[-1]].space_dim
        offsets.append(off)
        dims.append(total)
    diffs = [dict() for _ in range(n)]
    for q in range(n):
        d = diffs[q]
        for ch in chains[q + 1]:
            base_r = offsets[q + 1][ch]
            hi = ch[-1]
            for k in range(q + 2):
                sub = ch[:k] + ch[k + 1:]
                sgn = (-1) ** k
                if k < q + 1:
                    base_c = offsets[q][sub]
                    for a in range(datum.cells[hi].space_dim):
                        key = (base_r + a, base_c + a)
                        d[key] = d.get(key, 0) + sgn
                else:
                    base_c = offsets[q][sub]
                    r = full[(sub[-1], hi)]
                    for a, row in enumerate(r):
                        for b, v in enumerate(row):
                            if v:
                                key = (base_r + a, base_c + b)
                                d[key] = d.get(key, 0) + sgn * v
    if not compose_is_zero(dims, diffs):
        raise ValidationError("order-complex coboundary does not square to zero")
    return tuple(betti_numbers(dims, diffs))


# -- Betti tables and Poincare duality reports ------------------------------------


@dataclass(frozen=True)
class BettiTable:
    flavor: str  # "ordinary" | "compact"
    n: int
    h: tuple  # h[p][q]

    def entry(self, p: int, q: int) -> int:
        return self.h[p][q]

    def as_dict(self):
        return {"flavor": self.flavor, "n": self.n,
                "h": [list(row) for row in self.h]}

    def render(self) -> str:
        width = max(5, max((len(str(x)) for row in self.h for x in row),
                           default=1) + 1)
        head = "p\\q".ljust(6) + "".join(str(q).rjust(width)
                                         for q in range(self.n + 1))
        lines = [head]
        for p in range(self.n + 1):
            lines.append(str(p).ljust(6) +
                         "".join(str(self.h[p][q]).rjust(width)
                                 for q in range(self.n + 1)))
        return "\n".join(lines)


def _pad(seq, n):
    out = list(seq) + [0] * (n + 1 - len(seq))
    return tuple(out[:n + 1])


def betti_tables(c: PolyhedralComplex) -> tuple[BettiTable, BettiTable]:
    n = c.n
    ordinary = []
    compact = []
    for p in range(n + 1):
        sheaf = build_sheaf(c, p)
        ordinary.append(_pad(ordinary_cohomology(sheaf), n))
        compact.append(_pad(compact_cohomology(sheaf), n))
    return (BettiTable("ordinary", n, tuple(ordinary)),
            BettiTable("compact", n, tuple(compact)))


def degree(c: PolyhedralComplex, cochain: dict) -> Fraction:
    """Pair a top compactly-supported cochain with the fundamental cycle.

    `cochain` maps facet indices to coordinate tuples of functionals in
    the canonical dual basis of F_n(sigma).  Requires a balanced complex,
    otherwise the pairing does not descend to cohomology.
    """
    ok, _ = is_balanced(c)
    if not ok:
        raise BalancingRequiredError("degree needs a balanced complex")
    n = c.n
    total = Fraction(0)
    for i in c.facet_indices():
        coeffs = cochain.get(i)
        if not coeffs:
            continue
        sigma = c.cells[i]
        if sigma.dim != n:
            raise PurityError("cochain supported on a non-facet cell")
        omega = wedge_vector(sigma.orientation)
        f_n = multitangent_space(c, i, n)
        coords = f_n.coords(omega)
        if coords is None:
            raise ValidationError("fundamental class escapes F_n")
        total += c.weight(i) * vdot(vec(coeffs), vec(coords))
    return total


def canonical_top_cochain(c: PolyhedralComplex) -> dict:
    """A deterministic top cochain pairing to weight(sigma0) on the first
    facet and zero elsewhere."""
    n = c.n
    i = min(c.facet_indices())
    omega = wedge_vector(c.cells[i].orientation)
    f_n = multitangent_space(c, i, n)
    coords = vec(f_n.coords(omega))
    norm = vdot(coords, coords)
    return {i: tuple(x / norm for x in coords)}


def pd_report(c: PolyhedralComplex) -> dict:
    """Betti tables, balancing, Poincare-duality dimension check, degree."""
    if not c.is_pure():
        raise PurityError("Poincare duality report needs a pure complex")
    n = c.n
    ordinary, compact = betti_tables(c)
    balanced, failures = is_balanced(c)
    pd_failures = []
    for p in range(n + 1):
        for q in range(n + 1):
            a = ordinary.entry(p, q)
            b = compact.entry(n - p, n - q)
            if a != b:
                pd_failures.append({"p": p, "q": q, "ordinary": a,
                                    "compact_dual": b})
    top = compact.entry(n, n)
    deg_value = None
    if balanced:
        deg_value = degree(c, canonical_top_cochain(c))
    return {
        "n": n,
        "balanced": balanced,
        "balancing_failures": [
            {"cell": int(t), "defect": [str(x) for x in d]}
            for t, d in failures],
        "ordinary": ordinary,
        "compact": compact,
        "pd_holds": not pd_failures,
        "pd_failures": pd_failures,
        "degree": {
            "h_top_compact": top,
            "canonical_value": deg_value,
            "nondegenerate": bool(balanced and top == 1),
        },
    }
