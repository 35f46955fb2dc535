"""The Betti reduction against known answers and its Fraction predecessor."""

import ast
from fractions import Fraction
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from tropicoh import chains
from tropicoh.chains import betti_numbers, compose_is_zero
from tropicoh.linalg import mat, rref

F = Fraction


# -- the Fraction reduction as it was before int entries ------------------------


class _OldSparseDiff:
    def __init__(self, entries):
        self.rows: dict = {}
        self.cols: dict = {}
        for (i, j), v in entries.items():
            v = Fraction(v)
            if v == 0:
                continue
            self.rows.setdefault(i, {})[j] = v
            self.cols.setdefault(j, set()).add(i)

    def get(self, i, j):
        return self.rows.get(i, {}).get(j, Fraction(0))

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


def _old_betti_numbers(dims, diffs):
    """`betti_numbers` with every entry a Fraction and the Schur update
    dividing by the pivot."""
    top = len(dims) - 1
    alive = [set(range(d)) for d in dims]
    sparse = [_OldSparseDiff(diffs[q] if q < len(diffs) else {})
              for q in range(top)]
    for q in range(top):
        d = sparse[q]
        queue = [(i, j) for i, row in d.rows.items() for j, v in row.items()
                 if abs(v) == 1]
        while queue:
            i0, j0 = queue.pop()
            lam = d.get(i0, j0)
            if abs(lam) != 1:
                continue
            row0 = dict(d.rows.get(i0, {}))
            col0 = set(d.cols.get(j0, ()))
            for j in row0:
                if j == j0:
                    continue
                rho = row0[j] / lam
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
            row = [Fraction(0)] * len(col_ids)
            for j, v in d.rows[i].items():
                row[col_pos[j]] = v
            dense.append(tuple(row))
        ranks.append(len(rref(mat(dense))[1]))
    betti = []
    for q in range(top + 1):
        rank_out = ranks[q] if q < top else 0
        rank_in = ranks[q - 1] if q > 0 else 0
        betti.append(len(alive[q]) - rank_out - rank_in)
    return betti


# -- conjugated direct sums of elementary complexes ------------------------------


def _apply(ops, m):
    """The row operations `ops`, in order, applied to the rows of m."""
    m = [list(r) for r in m]
    for op in ops:
        if op[0] == "add":
            _, i, j, c = op
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        else:
            _, i, c = op
            m[i] = [c * x for x in m[i]]
    return m


def _inverse_ops(ops):
    out = []
    for op in reversed(ops):
        if op[0] == "add":
            out.append(("add", op[1], op[2], -op[3]))
        else:
            out.append(("scale", op[1], 1 / op[2]))
    return out


def _identity(n):
    return [[F(int(a == b)) for b in range(n)] for a in range(n)]


def _product(a, b, ncols):
    return [[sum((x * b[k][j] for k, x in enumerate(row)), F(0))
             for j in range(ncols)] for row in a]


def _narrowed(x):
    return x.numerator if x.denominator == 1 else x


def _conjugated(points, intervals, ops):
    """A cochain complex with known Betti numbers in disguise.

    `points[q]` one-dimensional summands sit in degree q with zero
    differential; each `(q, c)` in `intervals` is a summand Q -> Q from
    degree q to q+1 with the scalar c, which contributes nothing.  Degree q
    is then changed by the invertible matrix P_q built from the row
    operations `ops[q]`, and the differential becomes P_{q+1} d P_q^{-1}.
    Entries are narrowed to int where they are integral.
    """
    top = len(points) - 1
    dims = list(points)
    blocks = []
    for q, c in intervals:
        blocks.append((q, dims[q], dims[q + 1], c))
        dims[q] += 1
        dims[q + 1] += 1
    conj = [_apply(ops[q], _identity(dims[q])) for q in range(top + 1)]
    inv = [_apply(_inverse_ops(ops[q]), _identity(dims[q]))
           for q in range(top + 1)]
    diffs = []
    for q in range(top):
        d = [[F(0)] * dims[q] for _ in range(dims[q + 1])]
        for p, col, row, c in blocks:
            if p == q:
                d[row][col] = c
        full = _product(_product(conj[q + 1], d, dims[q]), inv[q], dims[q])
        diffs.append({(i, j): _narrowed(v) for i, r in enumerate(full)
                      for j, v in enumerate(r) if v})
    return dims, diffs, list(points)


_SCALARS = st.sampled_from([F(1), F(-1), F(2), F(-3), F(1, 2), F(-5, 3)])


@st.composite
def _complexes(draw):
    top = draw(st.integers(1, 3))
    points = draw(st.lists(st.integers(0, 2), min_size=top + 1,
                           max_size=top + 1))
    intervals = draw(st.lists(st.tuples(st.integers(0, top - 1), _SCALARS),
                              max_size=5))
    dims = list(points)
    for q, _ in intervals:
        dims[q] += 1
        dims[q + 1] += 1
    ops = []
    for n in dims:
        if n == 0:
            ops.append([])
            continue
        index = st.integers(0, n - 1)
        add = st.tuples(st.just("add"), index, index, _SCALARS).filter(
            lambda op: op[1] != op[2])
        scale = st.tuples(st.just("scale"), index, _SCALARS)
        ops.append(draw(st.lists(add | scale if n > 1 else scale,
                                 max_size=6)))
    return _conjugated(points, intervals, ops)


def _spy_rref():
    """Patch the dense finish of `betti_numbers` to record its inputs."""
    seen = []

    def spy(rows):
        rows = [tuple(r) for r in rows]
        seen.append(rows)
        return rref(rows)

    return seen, mock.patch.object(chains, "rref", spy)


@settings(max_examples=300, deadline=None)
@given(_complexes())
def test_betti_numbers_of_conjugated_sums(case):
    dims, diffs, known = case
    assert compose_is_zero(dims, diffs)
    seen, patch = _spy_rref()
    with patch:
        assert betti_numbers(dims, diffs) == known
    assert _old_betti_numbers(dims, diffs) == known
    # The update never divides, so no float reaches the dense finish.
    assert all(type(x) in (int, F) for rows in seen for r in rows for x in r)


def test_conjugated_sums_reach_every_branch():
    # A non-unit interval, a rational change of basis and a unit interval
    # that is eliminated first: the draws above cover non-unit pivots,
    # non-integral entries and a nonempty dense leftover.
    ops = [[("add", 0, 1, F(1, 2))], [("scale", 0, F(2, 3))], []]
    dims, diffs, known = _conjugated([1, 0, 0], [(0, F(2)), (1, F(1))], ops)
    entries = [v for d in diffs for v in d.values()]
    assert any(type(v) is F for v in entries)
    assert any(abs(v) not in (0, 1) for v in entries)
    seen, patch = _spy_rref()
    with patch:
        assert betti_numbers(dims, diffs) == known == [1, 0, 0]
    assert any(rows for rows in seen)


def test_a_unit_updated_before_it_is_popped_is_skipped():
    # The queue holds the units (0, 0), (1, 0) and (1, 2) and pops (1, 2)
    # first; its update turns entry (0, 0) into -3, which must then be
    # skipped rather than used as a pivot that is its own inverse.
    d = {(0, 0): -1, (0, 2): -2, (1, 0): 1, (1, 1): 3, (1, 2): -1,
         (2, 1): -2, (2, 2): 2}
    assert betti_numbers([3, 3], [d]) == [1, 1]
    assert _old_betti_numbers([3, 3], [d]) == [1, 1]


def test_chains_defines_no_class():
    tree = ast.parse(Path(chains.__file__).read_text())
    assert not [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]


# -- the engines' differentials -------------------------------------------------


def test_engine_differentials_match_fraction_reduction(engine_differentials):
    for dims, diffs in engine_differentials:
        assert betti_numbers(dims, diffs) == _old_betti_numbers(dims, diffs)


# -- compose_is_zero -------------------------------------------------------------


def test_compose_is_zero_rejects_a_nonzero_composite():
    dims = [1, 2, 1]
    for one, other in ((1, 2), (F(1), F(1, 2))):
        # d0 = (1, 1)^T and d1 = (1, -1) compose to zero, d1 = (1, other)
        # and d1 = (0, 2) do not.
        lower = {(0, 0): one, (1, 0): one}
        assert compose_is_zero(dims, [lower, {(0, 0): one, (0, 1): -one}])
        assert not compose_is_zero(dims, [lower, {(0, 0): one,
                                                  (0, 1): other}])
        assert not compose_is_zero(dims, [lower, {(0, 1): 2 * one}])
