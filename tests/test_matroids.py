"""Matroids, Bergman fans, Orlik-Solomon dimensions."""

import itertools

import pytest

from tropicoh.cohomology import multitangent_space
from tropicoh.convex import satisfies
from tropicoh.errors import ColoopError, LoopError, MatroidAxiomError
from tropicoh.matroids import (
    Matroid,
    all_matroids,
    bergman_fan,
    graphic_matroid,
    matroid_from,
    matroidal_modification_triple,
    minors,
    uniform_matroid,
)
from tropicoh.polyhedral import Polyhedron, build_complex, is_balanced


def whitney_characteristic(m: Matroid) -> list[int]:
    """Independent oracle: chi(t) = sum over subsets of (-1)^{|S|}
    t^{r(M) - r(S)} (Whitney rank generating formula)."""
    coeffs = [0] * (m.rank + 1)
    for k in range(len(m.ground) + 1):
        for s in itertools.combinations(m.ground, k):
            power = m.rank - m.rank_of(s)
            coeffs[m.rank - power] += (-1) ** k
    return coeffs


def test_uniform_bases():
    u23 = uniform_matroid(2, 3)
    assert u23.bases == frozenset(
        {frozenset(b) for b in [(0, 1), (0, 2), (1, 2)]})
    assert u23.rank == 2


def test_triangle_graph_is_u23():
    tri = graphic_matroid([(0, 1), (1, 2), (2, 0)])
    assert tri.bases == uniform_matroid(2, 3).bases


def test_exchange_axiom_rejection():
    # {{0,1},{2,3}} violates exchange: 0 cannot be replaced from {2,3}
    # to give another listed basis.
    with pytest.raises(MatroidAxiomError):
        Matroid(range(4), [(0, 1), (2, 3)])


def test_matroid_from_specs():
    assert matroid_from({"uniform": [2, 3]}) == uniform_matroid(2, 3)
    assert matroid_from({"graph": [[0, 1], [1, 2], [2, 0]]}).rank == 2
    assert matroid_from({"ground_size": 2, "bases": [[0], [1]]}).rank == 1


def test_flats_u23():
    u23 = uniform_matroid(2, 3)
    proper = u23.proper_flats()
    assert proper == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_flats_and_flags_u34():
    u34 = uniform_matroid(3, 4)
    proper = u34.proper_flats()
    assert len(proper) == 10  # 4 singletons + 6 pairs
    maximal = [ch for ch in u34.flags() if len(ch) == u34.rank - 1]
    assert len(maximal) == 12  # 6 pairs, each with 2 singleton subflats


def test_rank1_fan_is_point():
    m = uniform_matroid(1, 3)
    assert m.proper_flats() == []
    fan = bergman_fan(m)
    assert len(fan.cells) == 1 and fan.cells[0].dim == 0


def test_bergman_u23_is_tropical_line():
    fan = bergman_fan(uniform_matroid(2, 3))
    line = build_complex([(Polyhedron(2, [(0, 0)], [r]), 1)
                          for r in [(-1, 0), (0, -1), (1, 1)]])
    assert fan.same_weighted(line)


def test_bergman_u34_structure():
    fan = bergman_fan(uniform_matroid(3, 4))
    assert len(fan.cells_of_dim(1)) == 10
    assert len(fan.cells_of_dim(2)) == 12
    assert fan.is_pure() and fan.n == 2
    ok, _ = is_balanced(fan)
    assert ok


def test_bergman_free_matroid_covers_space():
    m = uniform_matroid(3, 3)
    fan = bergman_fan(m)
    assert fan.n == 2
    # Support is all of R^2: every quadrant direction lies in some cone.
    probes = [(1, 0), (0, 1), (-1, 0), (0, -1), (5, -7), (-3, -4)]
    for p in probes:
        assert any(satisfies(p, *fan.cells[i].hrep)
                   for i in fan.facet_indices())


def test_loop_rejected():
    m = Matroid(range(3), [(0, 1)])  # 2 is a loop
    with pytest.raises(LoopError):
        bergman_fan(m)


def test_minors_u23():
    u23 = uniform_matroid(2, 3)
    dele, cont = minors(u23, 2)
    assert dele.bases == uniform_matroid(2, 2).bases
    assert cont.bases == frozenset({frozenset({0}), frozenset({1})})


def test_minors_commute():
    u34 = uniform_matroid(3, 4)
    a = u34.delete(1).contract(2)
    b = u34.contract(2).delete(1)
    assert a == b


def test_graphic_triangle_minor():
    tri = graphic_matroid([(0, 1), (1, 2), (2, 0)])
    dele = tri.delete(2)
    # Path graph on the two remaining edges: free matroid of rank 2.
    assert dele.bases == frozenset({frozenset({0, 1})})


def test_os_dims_u23():
    assert uniform_matroid(2, 3).os_dims() == (1, 2)


def test_os_dims_u34():
    # chi = t^3 - 4t^2 + 6t - 3; reduced t^2 - 3t + 3.
    assert uniform_matroid(3, 4).characteristic_polynomial() == [1, -4, 6, -3]
    assert uniform_matroid(3, 4).os_dims() == (1, 3, 3)


def test_os_dims_free_matroid_binomials():
    import math
    for n in (2, 3, 4):
        m = uniform_matroid(n, n)
        dims = m.os_dims()
        assert dims == tuple(math.comb(n - 1, p) for p in range(n))


def test_char_poly_against_whitney():
    for m in (uniform_matroid(2, 3), uniform_matroid(3, 4),
              uniform_matroid(2, 4), graphic_matroid([(0, 1), (1, 2), (2, 0),
                                                      (0, 2)])):
        assert m.characteristic_polynomial() == whitney_characteristic(m)


def test_os_dims_match_multitangent():
    # dim F^p at the origin of the Bergman fan equals the graded piece.
    for m in (uniform_matroid(2, 3), uniform_matroid(3, 4),
              uniform_matroid(2, 4)):
        fan = bergman_fan(m)
        origin = min(fan.cells_of_dim(0))
        dims = m.os_dims()
        for p in range(m.rank):
            assert multitangent_space(fan, origin, p).dim == dims[p]


def test_modification_triple_u23():
    v, w, d, coord = matroidal_modification_triple(uniform_matroid(2, 3), 2)
    assert coord == 1  # the second mobile coordinate
    assert v.n == 1 and len(v.facet_indices()) == 3
    assert w.n == 1 and w.ambient_dim == 1
    assert d.n == 0 and d.ambient_dim == 1


def test_modification_triple_coloop_rejected():
    m = Matroid(range(2), [(0, 1)])  # both elements coloops
    with pytest.raises(ColoopError):
        matroidal_modification_triple(m, 1)


def test_all_matroids_small_counts():
    ms = all_matroids(2)
    # Loopless on two elements: U_{1,2}, U_{2,2}, and the two-parallel
    # rank-one matroid is U_{1,2} itself; the singleton-basis rank-one
    # matroids have loops.  So: U_{1,2} and U_{2,2}.
    assert len(ms) == 2
    # On 3 elements: U_{1,3}; four rank-2 matroids (one per partition of
    # the ground into at least two parallel classes); U_{3,3}.
    assert len(all_matroids(3)) == 6


def test_bergman_fans_balanced_small():
    for m in all_matroids(4):
        ok, _ = is_balanced(bergman_fan(m))
        assert ok
