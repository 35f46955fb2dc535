"""The three benchmark workloads: seeded inputs and exact per-item checks.

Each workload is a pair of functions.  `make_items(rng)` builds the inputs
of one pass from a seeded `random.Random`; this is set-up work and is not
timed per item.  `run_item(item)` runs one unit of work through the public
`tropicoh` API, checks every answer exactly, raises `CheckFailed` when a
check does not hold, and returns a JSON-able answer for the digest.

The seed chooses values, never shapes or sizes, so that the cost of every
item hardly depends on it: a seed relabels a fixed matroid (keeping the
normalized element 0, so that the fan only has its coordinates permuted),
and draws coefficients and vertex coordinates of a fixed form and cell
shape.  Items run in a fixed order, so the module-level caches that one
item leaves for the next are the same for every seed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from tropicoh.cohomology import (
    betti_tables,
    build_sheaf,
    compact_cohomology,
    multitangent_space,
    ordinary_cohomology,
)
from tropicoh.io import complex_to_dict
from tropicoh.matroids import (
    Matroid,
    all_matroids,
    bergman_fan,
    uniform_matroid,
)
from tropicoh.modifications import (
    MAX,
    PLFunction,
    closed_modification,
    complete_modification,
    project_modification,
    weighted_supports_equal,
)
from tropicoh.polyhedral import (
    Polyhedron,
    build_complex,
    closure_in,
    fundamental_cycle_boundary,
    is_balanced,
    product,
    restrict_to_stratum,
)
from tropicoh.polynomial import Poly
from tropicoh.superforms import (
    PolySuperform,
    balanced_face_cancellation,
    form_from_terms,
    stokes_cell_residual,
)

F = Fraction


class CheckFailed(Exception):
    """An exact answer check did not hold."""


def check(cond, what):
    if not cond:
        raise CheckFailed(what)


def _label(m):
    return [len(m.ground), m.rank, sorted(sorted(b) for b in m.bases)]


def _matroid_classes():
    """One loopless matroid on <= 5 elements per (size, rank, #bases) key,
    the first that `all_matroids` lists."""
    classes: dict = {}
    for n in range(1, 6):
        for m in all_matroids(n):
            classes.setdefault((n, m.rank, len(m.bases)), m)
    return classes


def _relabellings(rng):
    """One permutation of the elements 1..n-1 per ground size n <= 5.

    Every matroid of a pass on n elements is relabelled by the same
    permutation, which keeps element 0: it is normalized out of the Bergman
    fan, so every fan of the pass only has its coordinates permuted, and
    the work of a pass, including what one item leaves in the caches for
    the next, is the same for every seed.
    """
    out = {}
    for n in range(1, 6):
        image = list(range(1, n))
        rng.shuffle(image)
        out[n] = {0: 0, **dict(zip(range(1, n), image))}
    return out


def _relabel(m, sigma):
    return Matroid(m.ground, [[sigma[e] for e in b] for b in m.bases])


# -- matroid_sweep: criterion 06 in miniature ---------------------------------

# Left out of the timed set to keep a pass near 4 s: U_{4,4} (3 s), U_{5,5}
# (180 s), the rank-4 five-element classes with three or more bases (11 s
# and up) and the rank-3 five-element classes with six or more bases
# (0.5 s to 1.7 s).  The cheapest rank-4 five-element class (a parallel
# pair, 3 s) is in every pass, because those matroids dominate the cost
# of criterion 06.
_SWEEP_SKIP = {(4, 4, 1), (5, 5, 1), (5, 4, 3), (5, 4, 4), (5, 4, 5),
               (5, 3, 6), (5, 3, 7), (5, 3, 8), (5, 3, 9), (5, 3, 10)}


# Extra copies, so that the median and the tail percentile of the item
# times each fall in the middle of a band of near-equal items rather than
# on a jump between classes: fifteen items below and fifteen above the
# 15-25 ms band of (4, 2, 6), (5, 2, 7) and (5, 2, 8), and the 60-70 ms
# band of U_{2,5} and U_{3,3} around the eleventh-largest item.
_SWEEP_EXTRA = {(3, 2, 3): 1, (4, 2, 5): 1, (4, 2, 6): 2, (5, 2, 7): 2,
                (5, 2, 8): 2, (5, 2, 10): 4, (3, 3, 1): 1}


def sweep_items(rng):
    classes = _matroid_classes()
    sigma = _relabellings(rng)
    items = []
    for key in sorted(classes):
        if key not in _SWEEP_SKIP:
            m = _relabel(classes[key], sigma[key[0]])
            items += [m] * (1 + _SWEEP_EXTRA.get(key, 0))
    return items


def sweep_item(m):
    fan = bergman_fan(m)
    ok, _ = is_balanced(fan)
    boundary = fundamental_cycle_boundary(fan)
    check(ok, "Bergman fan is unbalanced")
    check(boundary == {}, "fundamental cycle boundary disagrees with "
                          "is_balanced")
    n = fan.n
    ordinary, compact = betti_tables(fan)
    for p in range(n + 1):
        for q in range(n + 1):
            if q != n:
                check(compact.h[p][q] == 0, f"h_c^{p},{q} does not vanish")
            check(ordinary.h[p][q] == compact.h[n - p][n - q],
                  f"PD symmetry fails at ({p},{q})")
    origin = min(fan.cells_of_dim(0))
    os_dims = m.os_dims()
    tangent = tuple(multitangent_space(fan, origin, p).dim
                    for p in range(m.rank))
    check(os_dims == tangent, "os_dims differ from multitangent dimensions")
    coloops = m.coloops()
    for e in m.ground:
        if e in coloops:
            continue
        dele, cont = m.delete(e), m.contract(e)
        if not cont.is_loopless():
            continue
        fan_w, fan_d = bergman_fan(dele), bergman_fan(cont)
        o_w, o_d = min(fan_w.cells_of_dim(0)), min(fan_d.cells_of_dim(0))
        for p in range(m.rank):
            dv = multitangent_space(fan, origin, p).dim
            dw = multitangent_space(fan_w, o_w, p).dim
            dd = multitangent_space(fan_d, o_d, p - 1).dim if p else 0
            check(dv == dw + dd, f"deletion-contraction fails at e={e}, "
                                 f"p={p}")
    return {"matroid": _label(m), "ordinary": ordinary.as_dict()["h"],
            "compact": compact.as_dict()["h"], "os_dims": list(os_dims),
            "cells": len(fan.cells)}


# -- pd_engines: sheaf build and the three cohomology engines -------------------

_RANK2 = [(3, 2, 2), (3, 2, 3), (4, 2, 3), (4, 2, 4), (4, 2, 5), (4, 2, 6),
          (5, 2, 4), (5, 2, 6), (5, 2, 7), (5, 2, 8), (5, 2, 9), (5, 2, 10)]
# (matroid class, kind, s or number of closure coordinates).  Items such as
# U_{3,4} x T^2, whose generic engine alone takes ~45 s, U_{2,3} x T^3
# (2.6 s) and the closure of U_{3,5} (2.2 s) are left out, and rank-3
# items are few, to keep a pass near 4 s.  The three closures in three
# coordinates widen the 85-125 ms band of rank-2 products, so that the
# eleventh-largest item, the tail percentile, falls in its middle.
_PD_PLAN = (
    [(key, "product", 1) for key in _RANK2]
    + [(key, "closure", 1) for key in _RANK2]
    + [(key, "closure", 2) for key in _RANK2]
    + [(key, "closure", 3) for key in [(4, 2, 6), (5, 2, 7), (5, 2, 8)]]
    + [((3, 2, 3), "product", 2), ((4, 3, 2), "product", 1)]
    + [(key, "closure", 1) for key in [(4, 3, 2), (4, 3, 3)]])


def pd_items(rng):
    classes = _matroid_classes()
    sigmas = _relabellings(rng)
    items = []
    for key, kind, arg in _PD_PLAN:
        sigma = sigmas[key[0]]
        m = _relabel(classes[key], sigma)
        if kind == "closure":
            # Coordinate i is element i + 1; compactify the images of the
            # first `arg` coordinates.
            arg = frozenset(sigma[i + 1] - 1 for i in range(arg))
        items.append((m, kind, arg))
    return items


def _engine_tables(c):
    """(ordinary, compact) tables of every p, through the three engines."""
    n = c.n
    ordinary, compact = [], []
    for p in range(n + 1):
        datum = build_sheaf(c, p)
        hc = compact_cohomology(datum)
        h = ordinary_cohomology(datum)
        generic = ordinary_cohomology(datum, cone_shortcut=False)
        check(h == generic, f"cone shortcut {h} differs from the generic "
                            f"engine {generic} at p={p}")
        ordinary.append(_pad(h, n))
        compact.append(_pad(hc, n))
    return ordinary, compact


def _pad(seq, n):
    return tuple((list(seq) + [0] * (n + 1))[:n + 1])


def _euler_c(compact):
    return [sum((-1) ** q * x for q, x in enumerate(row)) for row in compact]


def pd_item(item):
    m, kind, arg = item
    fan = bergman_fan(m)
    c = product(fan, arg, tropical=True) if kind == "product" else \
        closure_in(fan, arg)
    ordinary, compact = _engine_tables(c)
    n = c.n
    for p in range(n + 1):
        for q in range(n + 1):
            check(ordinary[p][q] == compact[n - p][n - q],
                  f"PD symmetry fails at ({p},{q})")
    answer = {"matroid": _label(m), "kind": kind,
              "arg": arg if kind == "product" else sorted(arg),
              "ordinary": ordinary, "compact": compact}
    if kind == "closure":
        # Compact-support Euler characteristics add over the strata.
        total = [0] * (n + 1)
        for sed in sorted({cell.sedentarity for cell in c.cells}, key=sorted):
            part = restrict_to_stratum(c, sed)
            chi = _euler_c(betti_tables(part)[1].h)
            for p, x in enumerate(chi):
                total[p] += x
        check(total == _euler_c(compact), "Euler additivity over strata "
                                          "fails")
    return answer


# -- Stokes cases: criterion 09 scaled up --------------------------------------


def _random_form(rng, n, p, q, degree=3):
    """A form whose every coefficient has one monomial of degree `degree`
    and one of degree 1, with seeded exponents and nonzero coefficients."""
    terms = {}
    for k in itertools.combinations(range(n), p):
        for l in itertools.combinations(range(n), q):
            poly_terms = {}
            for d in (degree, 1):
                mono = [0] * n
                for _ in range(d):
                    mono[rng.randrange(n)] += 1
                poly_terms[tuple(mono)] = F(rng.choice((-1, 1)) *
                                            rng.randint(1, 5),
                                            rng.randint(1, 4))
            terms[(k, l)] = Poly(n, poly_terms)
    return PolySuperform(n, p, q, terms)


def _random_simplex(rng, n):
    while True:
        verts = [tuple(F(rng.randint(-6, 6), rng.randint(1, 2))
                       for _ in range(n)) for _ in range(n + 1)]
        cell = Polyhedron(n, verts)
        if cell.dim == n:
            return cell


def _random_prism(rng, n):
    base = _random_simplex(rng, n - 1)
    h1 = F(rng.randint(-4, 0))
    h2 = F(rng.randint(1, 5))
    verts = [tuple(list(v) + [h]) for v in base.vertices for h in (h1, h2)]
    return Polyhedron(n, verts)


def _fan_complex(rays, weights):
    r = len(rays[0])
    return build_complex([(Polyhedron(r, [(0,) * r], [ray]), w)
                          for ray, w in zip(rays, weights)])


_LINE = [(-1, 0), (0, -1), (1, 1)]
_AXES = [(1, 0), (-1, 0), (0, 1), (0, -1)]
# Residual cases per pass, by (dimension, cell shape, count).  Items in R^3
# cost several times those in R^2, and every modification costs more than
# any Stokes case, so the counts put the median item of `stokes_modify`
# in the middle of the band of the 3-simplex cases and the U_{3,4}
# cancellation: 18 cheaper items below it (with the three other
# cancellation cases), and 18 dearer ones (the prisms in R^3 and the 13
# modifications) above.  The six linear polynomials on R^1 are a band of
# near-equal items around the eleventh-largest item, the tail percentile.
_STOKES_PLAN = [(1, "simplex", 3), (2, "simplex", 6), (2, "prism", 6),
                (3, "simplex", 10), (3, "prism", 5)]


def stokes_items(rng):
    items = []
    for n, shape, count in _STOKES_PLAN:
        for _ in range(count):
            beta = _random_form(rng, n, n, n - 1)
            cell = (_random_prism if shape == "prism" else _random_simplex)(
                rng, n)
            items.append(("residual", beta, cell))
    # Face cancellation: zero on balanced complexes, nonzero on a mutant.
    k = rng.randint(1, 4)
    box2 = ((-k, -k), (k, k))
    box3 = ((-k, -k, -k), (k, k, k))
    beta2 = form_from_terms(2, 1, 0, [((0,), (), rng.randint(1, 5))])
    beta3 = form_from_terms(3, 2, 1, [((0, 1), (0,), rng.randint(1, 5))])
    # beta2 pairs with the first coordinate, which the weighted normal sum
    # of the mutant has nonzero only when the heavy ray is not -e2.
    heavy = rng.choice([0, 2])
    mutant = [2 if i == heavy else 1 for i in range(3)]
    items += [
        ("cancel", "line", _fan_complex(_LINE, [1, 1, 1]), beta2, box2, True),
        ("cancel", "axes", _fan_complex(_AXES, [1] * 4), beta2, box2, True),
        ("cancel", "U_{3,4}", bergman_fan(uniform_matroid(3, 4)), beta3, box3,
         True),
        ("cancel", "mutant line", _fan_complex(_LINE, mutant), beta2, box2,
         False)]
    return items


def stokes_item(item):
    if item[0] == "residual":
        _, beta, cell = item
        residual = stokes_cell_residual(beta, cell)
        check(residual == 0, f"Stokes residual {residual} on {cell}")
        return {"residual": str(residual), "cell": len(cell.vertices)}
    _, name, c, beta, box, balanced = item
    values = balanced_face_cancellation(c, beta, box)
    check(bool(values), f"no face values on {name}")
    if balanced:
        check(all(v == 0 for v in values.values()),
              f"face cancellation fails on balanced {name}")
    else:
        check(any(v != 0 for v in values.values()),
              f"face cancellation vanishes on unbalanced {name}")
    return {"cancellation": name,
            "values": {str(k): str(v) for k, v in sorted(values.items())}}


# -- modify round trips -----------------------------------------------------------


def _concave_terms(rng, exponents):
    """Terms whose coefficients lie on a strictly concave quadratic plus
    small noise, so that every exponent is a linear piece of the max."""
    return [(-3 * sum(a * b for a, b in itertools.combinations_with_replacement(
        e, 2)) + rng.randint(-1, 1), e) for e in exponents]


def _triangle(dim, degree):
    return [e for e in itertools.product(range(degree + 1), repeat=dim)
            if sum(e) <= degree]


# Exponent differences of the two-term polynomials on R^2; a non-primitive
# step gives a divisor of weight 2.
_BINOMIAL_STEPS = [(1, 0), (1, 1), (1, -1), (2, 0), (2, 1)]


def modify_items(rng):
    r1 = build_complex([(Polyhedron(1, [(0,)], [(1,)]), 1),
                        (Polyhedron(1, [(0,)], [(-1,)]), 1)])
    r2 = build_complex([(Polyhedron(2, [(0, 0)],
                                    [(1, 0), (-1, 0), (0, 1), (0, -1)]), 1)])
    funcs = []
    for degree, count in [(1, 6), (3, 1)]:
        funcs += [(r1, _concave_terms(rng, _triangle(1, degree)))
                  for _ in range(count)]
    for step in _BINOMIAL_STEPS:
        low = (max(0, -step[0]), max(0, -step[1]))
        high = (low[0] + step[0], low[1] + step[1])
        funcs.append((r2, [(rng.randint(-3, 3), low), (0, high)]))
    funcs.append((r2, _concave_terms(rng, _triangle(2, 1))))
    return [(w, PLFunction(MAX, terms=terms)) for w, terms in funcs]


def modify_item(item):
    w, f = item
    res = complete_modification(w, f)
    check(res.divisor is not None, "modification has no divisor")
    back = project_modification(res.graph, res.projection_coordinate)
    check(weighted_supports_equal(back.source, w),
          "projection does not recover the source")
    check(back.divisor is not None and
          weighted_supports_equal(back.divisor, res.divisor),
          "projection does not recover the divisor")
    closed = closed_modification(w, f)
    tables = betti_tables(closed.graph)
    check(tables == betti_tables(w),
          "closed modification changes the Betti tables")
    return {"terms": [[str(c), list(e)] for c, e in f.terms],
            "divisor": complex_to_dict(res.divisor),
            "betti": [t.as_dict() for t in tables]}


# -- stokes_modify: the Stokes cases and the round trips in one pass -----------


def stokes_modify_items(rng):
    return ([("stokes", item) for item in stokes_items(rng)]
            + [("modify", item) for item in modify_items(rng)])


def stokes_modify_item(item):
    kind, x = item
    return stokes_item(x) if kind == "stokes" else modify_item(x)


WORKLOADS = {
    "matroid_sweep": (sweep_items, sweep_item),
    "pd_engines": (pd_items, pd_item),
    "stokes_modify": (stokes_modify_items, stokes_modify_item),
}
