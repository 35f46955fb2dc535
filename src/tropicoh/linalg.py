"""Exact rational and integer linear algebra.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  All
canonical forms (reduced row echelon for subspaces, row Hermite for
lattices) are chosen once so that equality of spans is equality of
representations.  No floating point anywhere.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import DimensionError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vec(entries) -> Vec:
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def mat(rows) -> Mat:
    return tuple(vec(r) for r in rows)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(c, a: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * x for x in a)


def vdot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def idot(a, b):
    """Dot product that stays in int when both vectors are integer."""
    return sum(x * y for x, y in zip(a, b, strict=True))


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def mat_transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Mat, b: Mat) -> Mat:
    """The product a b; int on int input, like `idot`."""
    bt = mat_transpose(b)
    return tuple(tuple(idot(row, col) for col in bt) for row in a)


def clear_denominators(v) -> tuple[list[int], int]:
    """The integer row d*v and the least common denominator d of v."""
    v = [e if type(e) is int or type(e) is Fraction else Fraction(e)
         for e in v]
    den = math.lcm(*(f.denominator for f in v))
    return [f.numerator * (den // f.denominator) for f in v], den


def primitive(v) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector.

    The sign is kept: the result is a positive multiple of the input.
    Zero maps to zero.
    """
    ints, _ = clear_denominators(v)
    g = math.gcd(*ints)
    if g <= 1:
        return tuple(ints)
    return tuple(x // g for x in ints)


def idet(rows) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination (Bareiss, Math. Comp. 22 (1968) 565-578).

    Each step replaces an entry by a 2 x 2 minor divided by the previous
    pivot, a division that is always exact, so every entry stays an int.
    The rows are copied, not changed.
    """
    rows = [list(r) for r in rows]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("determinant of a non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n):
        if rows[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if rows[r][k] != 0), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pk, top = rows[k][k], rows[k]
        for i in range(k + 1, n):
            row = rows[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (pk * row[j] - f * top[j]) // prev
        prev = pk
    return sign * rows[-1][-1]


def det(m: Mat) -> Fraction:
    """Determinant of a rational matrix: each row is scaled to integers
    by its common denominator, and `idet` takes the integer determinant."""
    rows = []
    scale = 1
    for r in m:
        ints, den = clear_denominators(r)
        rows.append(ints)
        scale *= den
    return Fraction(idet(rows), scale)


def rref(rows) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form.

    Returns (nonzero rows with leading 1s, pivot column indices).
    Eliminates on primitive integer rows (each new row is
    pv*row - f*pivot_row divided by its gcd) and divides by the pivots
    once at the end; the reduced form of a row space is unique, so this
    is the same answer as elimination over Q.
    """
    work = [primitive(r) for r in rows]
    if not work:
        return [], []
    nrows, ncols = len(work), len(work[0])
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, nrows) if work[r][col] != 0),
                     None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        pv = top[col]
        for r in range(nrows):
            f = work[r][col]
            if f != 0 and r != rank:
                row = [pv * x - f * y for x, y in zip(work[r], top)]
                g = math.gcd(*row)
                work[r] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        if len(pivots) == nrows:
            break
    return ([tuple(Fraction(x, row[pc]) for x in row)
             for row, pc in zip(work, pivots)], pivots)


def solve(a_cols: list[Vec], target: Vec):
    """Solve sum_i x_i * a_cols[i] = target exactly; None if inconsistent."""
    if not a_cols:
        return () if is_zero_vec(target) else None
    # Row-reduce the augmented system [A | target] with a_cols as columns.
    rows = [[a_cols[j][i] for j in range(len(a_cols))] + [target[i]]
            for i in range(len(target))]
    red, pivots = rref(rows)
    x = [Fraction(0)] * len(a_cols)
    for row, pcol in zip(red, pivots):
        if pcol == len(a_cols):
            return None
        x[pcol] = row[-1]
    # Verify (free variables set to zero must still solve the system).
    acc = zero_vec(len(target))
    for xi, col in zip(x, a_cols):
        acc = vadd(acc, vscale(xi, col))
    if acc != vec(target):
        return None
    return tuple(x)


def kernel_basis(m, ncols: int) -> list[Vec]:
    """Canonical basis of {x : m @ x = 0} in Q^ncols, in reduced echelon form.

    One elimination of m with its columns reversed: its pivots are the
    last independent columns of m, so the free columns left over are the
    leading columns of the kernel's echelon basis.  The vector with 1 at
    free column f, minus the pivot rows' entries at f on the pivots, is
    zero left of f and at every other free column, so these vectors are
    already the reduced form.
    """
    red, pivots = rref([r[::-1] for r in m])
    last = ncols - 1
    pivot_cols = [last - pc for pc in pivots]
    free = sorted(set(range(ncols)).difference(pivot_cols))
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivot_cols):
            v[pc] = -row[last - fc]
        basis.append(tuple(v))
    return basis


class Subspace:
    """A linear subspace of Q^n with a canonical reduced-echelon basis.

    Two subspaces are equal iff their canonical bases coincide.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, spanning_vectors=()):
        if ambient_dim < 0:
            raise DimensionError("negative ambient dimension")
        rows = [vec(v) for v in spanning_vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise DimensionError(
                    f"vector of length {len(r)} in ambient dimension {ambient_dim}")
        self.ambient_dim = ambient_dim
        basis, pivots = rref(rows)
        self.basis = tuple(basis)
        # The leading column of each basis row, increasing.
        self.pivots = tuple(pivots)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def coords(self, v):
        """Coordinates of v in the canonical basis, or None if v is outside.

        v lies in the span exactly when `reduce(v)` is zero, and its
        coordinates are then its entries at the pivot columns.
        """
        v = vec(v)
        if any(self.reduce(v)):
            return None
        return tuple(v[p] for p in self.pivots)

    def reduce(self, v) -> Vec:
        """Canonical representative of v modulo this subspace.

        v minus the vector of the subspace that agrees with v at the pivot
        columns, so the result is zero at every pivot; the twin of
        `Lattice.reduce`.
        """
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise DimensionError("reduce: ambient mismatch")
        rem = v
        for p, row in zip(self.pivots, self.basis):
            c = v[p]
            if c:
                rem = tuple(x - c * y for x, y in zip(rem, row))
        return rem

    def sum(self, *others: "Subspace") -> "Subspace":
        if not others:
            return self  # already canonical, and never mutated
        for o in others:
            if o.ambient_dim != self.ambient_dim:
                raise DimensionError("subspace sum: ambient mismatch")
        rows = list(self.basis)
        for o in others:
            rows.extend(o.basis)
        return Subspace(self.ambient_dim, rows)

    def perp(self) -> "Subspace":
        """Orthogonal complement under the standard dot product."""
        return Subspace(self.ambient_dim,
                        kernel_basis(self.basis, self.ambient_dim))

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def subspace_sum(spaces) -> Subspace:
    spaces = list(spaces)
    if not spaces:
        raise DimensionError("subspace_sum of an empty list")
    return spaces[0].sum(*spaces[1:])


# ---------------------------------------------------------------------------
# Integer matrices: Hermite and Smith normal forms, lattices.


def _int_rows(rows) -> list[list[int]]:
    out = []
    for r in rows:
        row = []
        for x in r:
            f = Fraction(x)
            if f.denominator != 1:
                raise ValueError(f"non-integer entry {f} in integer matrix")
            row.append(int(f))
        out.append(row)
    return out


def hermite_normal_form(rows) -> list[tuple[int, ...]]:
    """Canonical row Hermite normal form of the lattice spanned by rows.

    Pivots are positive, strictly to the right as you go down, and entries
    above each pivot are reduced into [0, pivot).  Zero rows are dropped,
    so the result is a canonical basis of the row lattice.

    One sweep over the columns: Euclid by 2x2 unimodular row updates
    gathers the gcd of a column's unused rows into one pivot row, and the
    rows above it are then reduced by floor division.
    """
    work = _int_rows(rows)
    rank = 0
    for col in range(len(work[0]) if work else 0):
        if rank == len(work):
            break
        for i in range(rank + 1, len(work)):
            a, b = work[rank][col], work[i][col]
            if b:
                g, x, y = _xgcd(a, b)
                top, row = work[rank], work[i]
                work[rank] = [x * p + y * q for p, q in zip(top, row)]
                work[i] = [(-b // g) * p + (a // g) * q
                           for p, q in zip(top, row)]
        top = work[rank]
        pivot = top[col]
        if pivot == 0:
            continue
        if pivot < 0:
            top = work[rank] = [-x for x in top]
            pivot = -pivot
        for up in range(rank):
            q = work[up][col] // pivot
            if q:
                work[up] = [x - q * y for x, y in zip(work[up], top)]
        rank += 1
    return [tuple(r) for r in work[:rank]]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def smith_normal_form(m) -> tuple[Mat, Mat, Mat]:
    """Smith normal form of an integer matrix.

    Returns int matrices (U, D, V) with U @ m @ V = D, U and V
    unimodular, and the diagonal of D a nonnegative divisibility chain
    d_1 | d_2 | ...  D is unique; U and V are not.

    The minimum-pivot loop (Newman, Integral Matrices, ch. II): the least
    nonzero entry of the remaining block moves to the corner and clears
    its column and row by floor quotients; a remainder left is a smaller
    entry, so the loop goes round again.  Once they are clear, a block
    entry the corner does not divide has its row added to the corner's
    row, which leaves a remainder on the next round.  A negative corner
    row is negated.  Row operations go into U, column operations into V.
    """
    a = _int_rows(m)
    nrows, ncols = len(a), len(a[0]) if a else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    for k in range(min(nrows, ncols)):
        while True:
            block = [(abs(a[i][j]), i, j) for i in range(k, nrows)
                     for j in range(k, ncols) if a[i][j]]
            if not block:
                break
            _, i, j = min(block)
            a[k], a[i], u[k], u[i] = a[i], a[k], u[i], u[k]
            for row in a + v:
                row[k], row[j] = row[j], row[k]
            p = a[k][k]
            for i in range(k + 1, nrows):
                q = a[i][k] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                u[i] = [x - q * y for x, y in zip(u[i], u[k])]
            for j in range(k + 1, ncols):
                q = a[k][j] // p
                for row in a + v:
                    row[j] -= q * row[k]
            if any(a[i][k] for i in range(k + 1, nrows)) or any(a[k][k + 1:]):
                continue
            bad = next((i for i in range(k + 1, nrows)
                        if any(x % p for x in a[i][k + 1:])), None)
            if bad is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[bad])]
            u[k] = [x + y for x, y in zip(u[k], u[bad])]
        if a[k][k] < 0:
            a[k], u[k] = [-x for x in a[k]], [-x for x in u[k]]
    return tuple(map(tuple, u)), tuple(map(tuple, a)), tuple(map(tuple, v))


class Lattice:
    """A full-rank-in-its-span sublattice of Z^n with a canonical HNF basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, generators=()):
        self.ambient_dim = ambient_dim
        gens = []
        for g in generators:
            g = vec(g)
            if len(g) != ambient_dim:
                raise DimensionError("lattice generator of wrong length")
            gens.append(g)
        self.basis = tuple(tuple(x) for x in hermite_normal_form(gens)) if gens else ()

    @classmethod
    def from_subspace(cls, s: Subspace) -> "Lattice":
        """The saturated lattice span(s) ∩ Z^n.

        Scales each basis row to a primitive integer row, so A has full
        row rank.  With U A V = D, the rows of V^{-1} meeting the
        diagonal are a basis of the saturation, and row i of U A is d_i
        times row i of V^{-1}: the basis is read off U A with no inverse.
        """
        if s.dim == 0:
            return cls(s.ambient_dim, ())
        a = [primitive(row) for row in s.basis]
        u, d, _ = smith_normal_form(a)
        return cls(s.ambient_dim, [[x // d[i][i] for x in row]
                                   for i, row in enumerate(mat_mul(u, a))])

    @property
    def rank(self) -> int:
        return len(self.basis)

    def span(self) -> Subspace:
        return Subspace(self.ambient_dim, self.basis)

    def contains(self, v) -> bool:
        c = self.coords(v)
        return c is not None and all(x.denominator == 1 for x in c)

    def coords(self, v):
        """Rational coordinates of v in the HNF basis, or None.

        The basis rows are integer, so an integer v is reduced in int
        arithmetic while each pivot divides; the first inexact step
        switches to Fraction.
        """
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise DimensionError("coords: ambient mismatch")
        coeffs = []
        exact = all(x.denominator == 1 for x in v)
        rem = [x.numerator for x in v] if exact else list(v)
        for row in self.basis:
            j = next(i for i, x in enumerate(row) if x != 0)
            if exact and rem[j] % row[j] == 0:
                c = rem[j] // row[j]
            else:
                exact = False
                c = Fraction(rem[j], row[j])
            coeffs.append(c)
            rem = [x - c * y for x, y in zip(rem, row)]
        if any(x != 0 for x in rem):
            return None
        return tuple(coeffs)

    def reduce(self, v) -> Vec:
        """Canonical representative of v modulo this lattice (v in span+Z^n)."""
        rem = list(vec(v))
        for row in self.basis:
            j = next(i for i, x in enumerate(row) if x != 0)
            q = rem[j] // row[j]  # Fraction floordiv gives the integer floor
            rem = [x - q * y for x, y in zip(rem, row)]
        return tuple(rem)

    def __eq__(self, other):
        return (isinstance(other, Lattice)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Lattice(rank {self.rank} in Z^{self.ambient_dim})"


# ---------------------------------------------------------------------------
# Wedge powers with the shared lexicographic index convention.


def p_subsets(m: int, p: int) -> tuple[tuple[int, ...], ...]:
    """All p-subsets of range(m) in lexicographic order."""
    return tuple(itertools.combinations(range(m), p))


def sort_with_sign(indices) -> tuple[tuple[int, ...], int]:
    """Sort an index tuple, returning (sorted tuple, permutation sign).

    A repeated index gives sign 0.
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


def wedge_vector(vectors) -> Vec:
    """Coordinates of v_1 ∧ ... ∧ v_p in the lexicographic wedge basis.

    Each vector is cleared to integers once; a coordinate is the integer
    minor of the cleared rows over the product of their denominators."""
    cleared = [clear_denominators(v) for v in vectors]
    if not cleared:
        return (Fraction(1),)
    rows = [ints for ints, _ in cleared]
    scale = math.prod(den for _, den in cleared)
    return tuple(Fraction(idet([[r[i] for i in k] for r in rows]), scale)
                 for k in p_subsets(len(rows[0]), len(rows)))


def wedge_power(s: Subspace, p: int) -> Subspace:
    """The subspace ⋀^p S inside ⋀^p Q^m, in wedge coordinates."""
    if p < 0:
        raise DimensionError("negative wedge degree")
    m = s.ambient_dim
    ambient = math.comb(m, p)
    if p > s.dim:
        return Subspace(ambient, ())
    gens = [wedge_vector(c) for c in itertools.combinations(s.basis, p)]
    return Subspace(ambient, gens)
