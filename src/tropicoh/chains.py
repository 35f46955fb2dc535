"""Betti numbers of finite cochain complexes over Q.

The workhorse is an exact Gaussian reduction: canceling a +-1 entry of a
differential removes one generator from each of two adjacent degrees and
performs a Schur-complement update, preserving cohomology.  The usually
tiny leftover is finished by dense rank computations (`rref`).

Entries are ints where they are integral and Fractions only where a
denominator remains; mixed arithmetic is exact.  The update multiplies
by the unit pivot (its own inverse) and never divides, so integral
input stays in int throughout.
"""

from __future__ import annotations

from .linalg import rref


class _SparseDiff:
    """Mutable sparse matrix with row and column indices."""

    def __init__(self, entries):
        self.rows: dict = {}
        self.cols: dict = {}
        for (i, j), v in entries.items():
            if v == 0:
                continue
            self.rows.setdefault(i, {})[j] = v
            self.cols.setdefault(j, set()).add(i)

    def get(self, i, j):
        return self.rows.get(i, {}).get(j, 0)

    def set(self, i, j, v):
        if v == 0:
            row = self.rows.get(i)
            if row and j in row:
                del row[j]
                if not row:
                    del self.rows[i]
                self.cols[j].discard(i)
                if not self.cols[j]:
                    del self.cols[j]
        else:
            self.rows.setdefault(i, {})[j] = v
            self.cols.setdefault(j, set()).add(i)

    def delete_row(self, i):
        for j in list(self.rows.get(i, {})):
            self.cols[j].discard(i)
            if not self.cols[j]:
                del self.cols[j]
        self.rows.pop(i, None)

    def delete_col(self, j):
        for i in list(self.cols.get(j, ())):
            del self.rows[i][j]
            if not self.rows[i]:
                del self.rows[i]
        self.cols.pop(j, None)


def betti_numbers(dims: list[int], diffs: list[dict]) -> list[int]:
    """Cohomology dimensions of 0 -> C^0 -> ... -> C^top -> 0.

    `dims[q]` is dim C^q; `diffs[q]` maps entry (i, j) of the differential
    C^q -> C^{q+1} to its value (i indexes C^{q+1}, j indexes C^q).
    Composition of consecutive differentials must be zero.
    """
    top = len(dims) - 1
    alive = [set(range(d)) for d in dims]
    sparse = [_SparseDiff(diffs[q] if q < len(diffs) else {})
              for q in range(top)]

    # Unit-pivot reduction, one degree at a time.
    for q in range(top):
        d = sparse[q]
        queue = [(i, j) for i, row in d.rows.items() for j, v in row.items()
                 if abs(v) == 1]
        while queue:
            i0, j0 = queue.pop()
            lam = d.get(i0, j0)
            if abs(lam) != 1:
                continue  # stale queue entry
            # Schur complement on the remaining block.
            row0 = dict(d.rows.get(i0, {}))
            col0 = set(d.cols.get(j0, ()))
            for j in row0:
                if j == j0:
                    continue
                rho = row0[j] * lam  # lam = +-1 is its own inverse
                for i in col0:
                    if i == i0:
                        continue
                    newv = d.get(i, j) - rho * d.get(i, j0)
                    d.set(i, j, newv)
                    if abs(newv) == 1:
                        queue.append((i, j))
            d.delete_row(i0)
            d.delete_col(j0)
            alive[q].discard(j0)
            alive[q + 1].discard(i0)
            if q > 0:
                sparse[q - 1].delete_row(j0)
            if q + 1 < top:
                sparse[q + 1].delete_col(i0)

    # Dense ranks of whatever survived.
    ranks = []
    for q in range(top):
        d = sparse[q]
        if not d.rows:
            ranks.append(0)
            continue
        row_ids = sorted(d.rows)
        col_ids = sorted(alive[q])
        col_pos = {c: k for k, c in enumerate(col_ids)}
        dense = []
        for i in row_ids:
            row = [0] * len(col_ids)
            for j, v in d.rows[i].items():
                row[col_pos[j]] = v
            dense.append(row)
        ranks.append(len(rref(dense)[1]))
    betti = []
    for q in range(top + 1):
        rank_out = ranks[q] if q < top else 0
        rank_in = ranks[q - 1] if q > 0 else 0
        betti.append(len(alive[q]) - rank_out - rank_in)
    return betti


def compose_is_zero(dims: list[int], diffs: list[dict]) -> bool:
    """Check d_{q+1} composed with d_q vanishes, entry-exactly."""
    for q in range(len(diffs) - 1):
        lower = diffs[q]
        upper = diffs[q + 1]
        by_source: dict = {}
        for (i, j), v in lower.items():
            by_source.setdefault(j, []).append((i, v))
        by_mid: dict = {}
        for (i, j), v in upper.items():
            by_mid.setdefault(j, []).append((i, v))
        for j in by_source:
            acc: dict = {}
            for m, v in by_source[j]:
                for i, w in by_mid.get(m, ()):
                    acc[i] = acc.get(i, 0) + w * v
            if any(x != 0 for x in acc.values()):
                return False
    return True
