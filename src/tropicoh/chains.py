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


def _drop_row(rows, cols, i):
    row = rows.pop(i, {})
    for j in row:
        cols[j].discard(i)
    return row


def _drop_col(rows, cols, j):
    for i in cols.pop(j, ()):
        row = rows[i]
        del row[j]
        if not row:
            del rows[i]


def betti_numbers(dims: list[int], diffs: list[dict]) -> list[int]:
    """Cohomology dimensions of 0 -> C^0 -> ... -> C^top -> 0.

    `dims[q]` is dim C^q; `diffs[q]` maps entry (i, j) of the differential
    C^q -> C^{q+1} to its value (i indexes C^{q+1}, j indexes C^q).
    Composition of consecutive differentials must be zero.

    Each differential is held as nonzero rows {i: {j: v}} and column sets
    {j: {i}}; an empty row is deleted, a column set may stay empty.
    """
    top = len(dims) - 1
    alive = [set(range(d)) for d in dims]
    rows = [{} for _ in range(top)]
    cols = [{} for _ in range(top)]
    for q, d in enumerate(diffs[:top]):
        for (i, j), v in d.items():
            if v:
                rows[q].setdefault(i, {})[j] = v
                cols[q].setdefault(j, set()).add(i)

    # Unit-pivot reduction, one degree at a time.
    for q in range(top):
        r, c = rows[q], cols[q]
        queue = [(i, j) for i, row in r.items() for j, v in row.items()
                 if abs(v) == 1]
        while queue:
            i0, j0 = queue.pop()
            lam = r.get(i0, {}).get(j0, 0)
            if abs(lam) != 1:
                continue  # stale queue entry
            row0 = _drop_row(r, c, i0)
            del row0[j0]
            # Schur complement on the remaining block: row i loses
            # row_i[j0] / lam times the pivot row, and lam = +-1 is its
            # own inverse.
            for i in c.pop(j0):
                row = r[i]
                mu = row.pop(j0) * lam
                for j, v in row0.items():
                    new = row.get(j, 0) - mu * v
                    if new:
                        if j not in row:
                            c[j].add(i)
                        row[j] = new
                        if abs(new) == 1:
                            queue.append((i, j))
                    elif j in row:
                        del row[j]
                        c[j].discard(i)
                if not row:
                    del r[i]
            alive[q].discard(j0)
            alive[q + 1].discard(i0)
            if q > 0:
                _drop_row(rows[q - 1], cols[q - 1], j0)
            if q + 1 < top:
                _drop_col(rows[q + 1], cols[q + 1], i0)

    # Dense ranks of whatever survived.
    ranks = [0] * (top + 2)
    for q, r in enumerate(rows):
        if r:
            col_pos = {j: k for k, j in enumerate(sorted(alive[q]))}
            dense = []
            for i in sorted(r):
                row = [0] * len(col_pos)
                for j, v in r[i].items():
                    row[col_pos[j]] = v
                dense.append(row)
            ranks[q + 1] = len(rref(dense)[1])
    return [len(alive[q]) - ranks[q] - ranks[q + 1] for q in range(top + 1)]


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
