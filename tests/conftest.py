"""Fixtures shared by several test modules."""

from unittest import mock

import pytest

from tropicoh import cohomology
from tropicoh.chains import betti_numbers
from tropicoh.cohomology import (
    build_sheaf,
    compact_cohomology,
    ordinary_cohomology,
)
from tropicoh.matroids import bergman_fan, uniform_matroid
from tropicoh.polyhedral import Polyhedron, build_complex, closure_in, product


def _fan(rays):
    origin = tuple(0 for _ in rays[0])
    return build_complex([(Polyhedron(len(origin), [origin], [r]), 1)
                          for r in rays])


@pytest.fixture(scope="session")
def sheaf_corpus():
    """The criterion-10 balanced corpus, then fans times tori and closures,
    whose covers also jump in sedentarity."""
    def line():
        return _fan([(-1, 0), (0, -1), (1, 1)])

    def bergman(r, n):
        return bergman_fan(uniform_matroid(r, n))

    subdivided = build_complex(
        [(cell, 1) for r in [(-1, 0), (0, -1), (1, 1)]
         for cell in (Polyhedron(2, [(0, 0), r]), Polyhedron(2, [r], [r]))])
    r2 = build_complex([(Polyhedron(2, [(0, 0)], [(1, 0), (-1, 0), (0, 1),
                                                    (0, -1)]), 1)])
    t1 = build_complex([(Polyhedron(1, [(0,)], [(1,), (-1,)]), 1)],
                       tropical_coords=[0])
    return [
        line(), _fan([(1, 0), (-1, 0), (0, 1), (0, -1)]),
        _fan([(1,), (-1,)]), r2, bergman(2, 3), bergman(3, 4), t1,
        closure_in(line(), [1]), subdivided,
        product(line(), 1, tropical=False),
        product(bergman(2, 3), 1, tropical=True),
        product(bergman(2, 3), 2, tropical=True),
        product(bergman(3, 4), 1, tropical=True),
        closure_in(bergman(2, 3), [0, 1]), closure_in(bergman(2, 4), [0, 1]),
        closure_in(bergman(3, 4), [2]),
    ]


@pytest.fixture(scope="session")
def engine_differentials(sheaf_corpus):
    """Every (dims, diffs) that the compact engine and the order-complex
    engine hand to `betti_numbers` on the sheaves F^p of the corpus."""
    got = []

    def record(dims, diffs):
        got.append((dims, diffs))
        return betti_numbers(dims, diffs)

    with mock.patch.object(cohomology, "betti_numbers", record):
        for c in sheaf_corpus:
            for p in range(c.n + 1):
                sheaf = build_sheaf(c, p)
                compact_cohomology(sheaf)
                ordinary_cohomology(sheaf, cone_shortcut=False)
    return got
