"""Coefficient systems and both cohomology engines against closed forms."""

import math
from fractions import Fraction

import pytest

from tropicoh.cohomology import (
    COSHEAF,
    SHEAF,
    BettiTable,
    CellularSheafDatum,
    SheafCell,
    betti_tables,
    build_cosheaf,
    build_sheaf,
    compact_cohomology,
    degree,
    inclusion_map,
    multitangent_space,
    ordinary_cohomology,
    pd_report,
)
from tropicoh.errors import (
    BalancingRequiredError,
    DimensionError,
    ValidationError,
)
from tropicoh.linalg import (
    Subspace,
    mat,
    mat_transpose,
    p_subsets,
    subspace_sum,
    vdot,
    vec,
    wedge_power,
)
from tropicoh.matroids import bergman_fan, uniform_matroid
from tropicoh.polyhedral import (
    Polyhedron,
    build_complex,
    closure_in,
    product,
    restrict_to_stratum,
)

F = Fraction


def tropical_line(weights=(1, 1, 1)):
    rays = [(-1, 0), (0, -1), (1, 1)]
    return build_complex(
        [(Polyhedron(2, [(0, 0)], [r]), w) for r, w in zip(rays, weights)])


def axes_complex():
    rays = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    return build_complex([(Polyhedron(2, [(0, 0)], [r]), 1) for r in rays])


def subdivided_line():
    rays = [(-1, 0), (0, -1), (1, 1)]
    cells = []
    for r in rays:
        cells.append((Polyhedron(2, [(0, 0), r]), 1))
        cells.append((Polyhedron(2, [r], [r]), 1))
    return build_complex(cells)


def r1_complex():
    return build_complex([(Polyhedron(1, [(0,)], [(1,)]), 1),
                          (Polyhedron(1, [(0,)], [(-1,)]), 1)])


def t1_complex():
    return build_complex([(Polyhedron(1, [(0,)], [(1,), (-1,)]), 1)],
                         tropical_coords=[0])


def rn_complex(n):
    rays = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rays.append(tuple(e))
        rays.append(tuple(-x for x in e))
    return build_complex([(Polyhedron(n, [tuple([0] * n)], rays), 1)])


# -- multitangent spaces -------------------------------------------------------


def test_multitangent_line_vertex():
    line = tropical_line()
    v = line.cells_of_dim(0)[0]
    f1 = multitangent_space(line, v, 1)
    assert f1 == Subspace(2, [[1, 0], [0, 1]])
    f0 = multitangent_space(line, v, 0)
    assert f0.dim == 1


def test_multitangent_sedentary_vertex_vanishes():
    closed = closure_in(tropical_line(), [0, 1])
    sed = next(i for i, c in enumerate(closed.cells) if c.sedentarity)
    for p in (1, 2):
        assert multitangent_space(closed, sed, p).dim == 0
    assert multitangent_space(closed, sed, 0).dim == 1


def test_multitangent_axes_vertex():
    axes = axes_complex()
    v = axes.cells_of_dim(0)[0]
    assert multitangent_space(axes, v, 1).dim == 2
    assert multitangent_space(axes, v, 2).dim == 0


def test_multitangent_negative_degree_raises():
    line = tropical_line()
    for i in range(len(line.cells)):
        with pytest.raises(DimensionError):
            multitangent_space(line, i, -1)


def _oracle_multitangent_space(c, cell_index, p):
    """Frozen oracle: the sum of the p-th wedge powers of the tangent
    spaces of every same-sedentarity coface, found by walking the covers
    upward, with no memo."""
    sigma = c.cells[cell_index]
    found, frontier = {cell_index}, [cell_index]
    while frontier:
        k = frontier.pop()
        for t, s in c.covers:
            if t == k and s not in found:
                found.add(s)
                frontier.append(s)
    pieces = [wedge_power(c.cells[j].tangent, p) for j in sorted(found)
              if c.cells[j].sedentarity == sigma.sedentarity]
    if not pieces:
        return Subspace(math.comb(c.ambient_dim, p), ())
    return subspace_sum(pieces)


def test_multitangent_spaces_match_the_all_cofaces_oracle(sheaf_corpus):
    # Summing only the cofaces maximal in the cell's stratum gives the
    # same subspace, also where a stratum is not pure.
    not_pure = build_complex([(Polyhedron(2, [(0, 0)], [(1, 0), (0, 1)]), 1),
                              (Polyhedron(2, [(0, 0)], [(-1, 0)]), 1)])
    closed = closure_in(bergman_fan(uniform_matroid(3, 4)), [2])
    for c in sheaf_corpus + [not_pure, restrict_to_stratum(closed, {2})]:
        for p in range(c.n + 2):
            for i in range(len(c.cells)):
                assert multitangent_space(c, i, p) == \
                    _oracle_multitangent_space(c, i, p), (c, i, p)


def test_inclusion_map_vertex_into_ray():
    line = tropical_line()
    v = line.cells_of_dim(0)[0]
    ray = next(i for i in line.cells_of_dim(1)
               if line.cells[i].rays == ((-1, 0),))
    m = inclusion_map(line, v, ray, 1)
    assert m == ((F(1),), (F(0),))


def test_inclusion_map_jump_to_zero_space():
    t1 = t1_complex()
    sed = next(i for i, c in enumerate(t1.cells) if c.sedentarity)
    edge = next(i for i, c in enumerate(t1.cells) if c.dim == 1)
    m = inclusion_map(t1, sed, edge, 1)
    assert m == ()  # zero-dimensional target


def _old_inclusion_map(c, tau_index, sigma_index, p):
    """Frozen oracle: kill the wedge coordinates that meet the escaping
    directions, then solve for coordinates in F_p(tau)."""
    esc = c.cells[tau_index].sedentarity - c.cells[sigma_index].sedentarity
    killed = [k for k, subset in enumerate(p_subsets(c.ambient_dim, p))
              if any(i in esc for i in subset)]
    f_tau = multitangent_space(c, tau_index, p)
    cols = []
    for b in multitangent_space(c, sigma_index, p).basis:
        img = list(b)
        for k in killed:
            img[k] = F(0)
        coords = f_tau.coords(tuple(img))
        assert coords is not None, "image escapes the target space"
        cols.append(coords)
    return tuple(tuple(col[i] for col in cols) for i in range(f_tau.dim))


def test_inclusion_maps_match_coords_oracle(sheaf_corpus):
    # Pivot reads and solving for coordinates give the same matrices, so
    # the pivots of F_p(face) never meet a killed coordinate.
    jumps = 0
    for c in sheaf_corpus:
        for p in range(c.n + 1):
            for t, s in c.covers:
                assert inclusion_map(c, t, s, p) == \
                    _old_inclusion_map(c, t, s, p), (c, t, s, p)
                jumps += c.cells[t].sedentarity != c.cells[s].sedentarity
            for i in range(len(c.cells)):
                dim = multitangent_space(c, i, p).dim
                assert inclusion_map(c, i, i, p) == tuple(
                    tuple(F(1 if a == b else 0) for b in range(dim))
                    for a in range(dim))
    assert jumps


def test_cosheaf_and_sheaf_shapes():
    line = tropical_line()
    cos = build_cosheaf(line, 1)
    assert sorted(c.space_dim for c in cos.cells) == [1, 1, 1, 2]
    sh = build_sheaf(line, 1)
    assert sh.direction == SHEAF
    cos0 = build_cosheaf(line, 0)
    assert all(c.space_dim == 1 for c in cos0.cells)
    assert all(m == ((F(1),),) for m in cos0.cover_maps.values())


# -- compact-support engine -----------------------------------------------------


def test_compact_line():
    line = tropical_line()
    assert compact_cohomology(build_sheaf(line, 0)) == (0, 2)
    assert compact_cohomology(build_sheaf(line, 1)) == (0, 1)


def test_compact_axes():
    axes = axes_complex()
    assert compact_cohomology(build_sheaf(axes, 1)) == (0, 2)
    assert compact_cohomology(build_sheaf(axes, 0)) == (0, 3)


def test_compact_t1():
    t1 = t1_complex()
    assert compact_cohomology(build_sheaf(t1, 0)) == (0, 0)
    assert compact_cohomology(build_sheaf(t1, 1)) == (0, 1)


# -- ordinary engine --------------------------------------------------------------


def test_ordinary_line():
    line = tropical_line()
    assert ordinary_cohomology(build_sheaf(line, 1)) == (2, 0)
    assert ordinary_cohomology(build_sheaf(line, 0)) == (1, 0)


def test_ordinary_r1():
    assert ordinary_cohomology(build_sheaf(r1_complex(), 0)) == (1, 0)


def test_ordinary_t1():
    assert ordinary_cohomology(build_sheaf(t1_complex(), 1)) == (0, 0)
    assert ordinary_cohomology(build_sheaf(t1_complex(), 0)) == (1, 0)


def test_fan_concentration():
    # Ordinary cohomology of a fan is concentrated in degree zero with
    # the multitangent dimension of the minimal cone.
    for fan in (tropical_line(), axes_complex(), r1_complex(), rn_complex(2)):
        minimal = min(range(len(fan.cells)), key=lambda i: fan.cells[i].dim)
        for p in range(fan.n + 1):
            got = ordinary_cohomology(build_sheaf(fan, p))
            want_dim = multitangent_space(fan, minimal, p).dim
            assert got[0] == want_dim
            assert all(x == 0 for x in got[1:])


def test_p0_is_singular_cohomology():
    # h^{0,*} matches the singular Betti numbers of the support.
    assert ordinary_cohomology(build_sheaf(tropical_line(), 0)) == (1, 0)
    assert ordinary_cohomology(build_sheaf(axes_complex(), 0)) == (1, 0)
    # Two parallel disjoint lines: two components.
    two = build_complex([
        (Polyhedron(2, [(0, 0)], [(1, 0), (-1, 0)]), 1),
        (Polyhedron(2, [(0, 1)], [(1, 0), (-1, 0)]), 1)])
    assert ordinary_cohomology(build_sheaf(two, 0))[0] == 2


# -- Betti tables -----------------------------------------------------------------


def test_betti_tables_line():
    ordinary, compact = betti_tables(tropical_line())
    assert ordinary.h == ((1, 0), (2, 0))
    assert compact.h == ((0, 2), (0, 1))


def test_betti_tables_r2():
    ordinary, compact = betti_tables(rn_complex(2))
    for p in range(3):
        assert ordinary.h[p][0] == math.comb(2, p)
        assert compact.h[p][2] == math.comb(2, p)
        assert all(ordinary.h[p][q] == 0 for q in (1, 2))
        assert all(compact.h[p][q] == 0 for q in (0, 1))


def test_betti_subdivision_invariance():
    # Subdivide each ray of the line at lattice distance 1.
    plain = betti_tables(tropical_line())
    rays = [(-1, 0), (0, -1), (1, 1)]
    cells = []
    for r in rays:
        cells.append((Polyhedron(2, [(0, 0), r]), 1))
        cells.append((Polyhedron(2, [r], [r]), 1))
    subdivided = build_complex(cells)
    assert betti_tables(subdivided) == plain


def test_tables_render_and_dict():
    t = BettiTable("ordinary", 1, ((1, 0), (2, 0)))
    assert "p\\q" in t.render()
    assert t.as_dict()["h"] == [[1, 0], [2, 0]]


# -- degree and PD report ----------------------------------------------------------


def test_degree_dual_ray_cochain():
    line = tropical_line()
    ray = next(i for i in line.cells_of_dim(1)
               if line.cells[i].rays == ((-1, 0),))
    # Functional dual to the direction -e1: canonical basis is (1,0),
    # so the coordinate is -1.
    assert degree(line, {ray: (F(-1),)}) == 1


def test_degree_vanishes_on_coboundaries():
    line = tropical_line()
    v = line.cells_of_dim(0)[0]
    for b in ((F(1), F(0)), (F(0), F(1)), (F(2), F(-3))):
        cochain = {}
        for s in line.covers_of(v):
            m = inclusion_map(line, v, s, 1)
            r = mat_transpose(mat(m))
            cochain[s] = tuple(vdot(row, vec(b)) * line.signs[(v, s)]
                               for row in r)
        assert degree(line, cochain) == 0


def test_degree_scales_with_weights():
    line1 = tropical_line()
    line2 = tropical_line((2, 2, 2))
    ray1 = next(i for i in line1.cells_of_dim(1)
                if line1.cells[i].rays == ((-1, 0),))
    ray2 = next(i for i in line2.cells_of_dim(1)
                if line2.cells[i].rays == ((-1, 0),))
    c = {ray1: (F(-1),)}
    assert degree(line2, {ray2: (F(-1),)}) == 2 * degree(line1, c)


def test_degree_requires_balancing():
    with pytest.raises(BalancingRequiredError):
        degree(tropical_line((1, 1, 2)), {})


def test_pd_report_line_passes():
    report = pd_report(tropical_line())
    assert report["balanced"] and report["pd_holds"]
    assert report["degree"]["nondegenerate"]
    assert report["degree"]["canonical_value"] != 0


def test_pd_report_axes_fails():
    report = pd_report(axes_complex())
    assert report["balanced"]
    assert not report["pd_holds"]
    pairs = {(f["p"], f["q"]): (f["ordinary"], f["compact_dual"])
             for f in report["pd_failures"]}
    assert pairs[(0, 0)] == (1, 2)


def test_pd_report_r1_passes():
    report = pd_report(r1_complex())
    assert report["pd_holds"]


# -- abstract cell-sheaf data --------------------------------------------------------


def tp1_datum():
    cells = [
        SheafCell("v0", 0, 0),
        SheafCell("vm", 0, 1),
        SheafCell("v1", 0, 0),
        SheafCell("ea", 1, 1),
        SheafCell("eb", 1, 1),
    ]
    one = ((F(1),),)
    empty = ((),)
    maps = {(0, 3): empty, (1, 3): one, (1, 4): one, (2, 4): empty}
    return CellularSheafDatum(cells, maps, SHEAF)


def tp1_p0_datum():
    cells = [SheafCell(s, 0, 1) for s in ("v0", "vm", "v1")] + \
        [SheafCell(s, 1, 1) for s in ("ea", "eb")]
    one = ((F(1),),)
    maps = {(0, 3): one, (1, 3): one, (1, 4): one, (2, 4): one}
    return CellularSheafDatum(cells, maps, SHEAF)


def test_tp1_betti():
    assert ordinary_cohomology(tp1_datum()) == (0, 1)
    assert compact_cohomology(tp1_datum()) == (0, 1)
    assert ordinary_cohomology(tp1_p0_datum()) == (1, 0)
    assert compact_cohomology(tp1_p0_datum()) == (1, 0)


def test_constant_system_components():
    cells = [SheafCell("a", 0, 1), SheafCell("b", 0, 1)]
    datum = CellularSheafDatum(cells, {}, SHEAF)
    assert ordinary_cohomology(datum) == (2,)


@pytest.mark.parametrize("cell", [SheafCell("a", 0, -1),
                                  SheafCell("a", -1, 1)],
                         ids=["space-dim", "dim"])
def test_negative_dimension_rejected(cell):
    # The first used to give ordinary cohomology (-1,), the second a bare
    # IndexError.
    with pytest.raises(ValidationError, match="negative dimension"):
        CellularSheafDatum([cell], {}, SHEAF)


def test_noncommuting_diamond_rejected():
    cells = [SheafCell("p", 0, 1), SheafCell("a", 1, 1), SheafCell("b", 1, 1),
             SheafCell("t", 2, 1)]
    one = ((F(1),),)
    two = ((F(2),),)
    maps = {(0, 1): one, (0, 2): one, (1, 3): one, (2, 3): two}
    with pytest.raises(ValidationError):
        CellularSheafDatum(cells, maps, SHEAF)


def test_noncommuting_cosheaf_rejected_and_transposes_stay_valid(
        sheaf_corpus):
    # A datum built from outside is checked in either direction; built
    # sheaves and transposes skip the checks, since their diamonds commute
    # by construction, so the checks are run on them here instead.
    cells = [SheafCell("p", 0, 1), SheafCell("a", 1, 1), SheafCell("b", 1, 1),
             SheafCell("t", 2, 1)]
    one = ((F(1),),)
    two = ((F(2),),)
    maps = {(0, 1): one, (0, 2): one, (1, 3): one, (2, 3): two}
    with pytest.raises(ValidationError, match="non-commuting diamond"):
        CellularSheafDatum(cells, maps, COSHEAF)
    for c in [product(tropical_line(), 1, tropical=True)] + sheaf_corpus:
        for p in range(c.n + 1):
            cosheaf = build_cosheaf(c, p)
            sheaf = build_sheaf(c, p)
            assert cosheaf.direction == COSHEAF and sheaf.direction == SHEAF
            for datum in (cosheaf, sheaf):
                datum._validate()
                datum.transpose()._validate()


def test_diamond_through_a_zero_space_commutes():
    # a < b1, b2 < c with F(b1) = 0: the path through b1 is the 1 x 1 zero
    # map, which a product of a 1 x 0 and a 0 x 1 matrix must give.
    cells = [SheafCell("a", 0, 1), SheafCell("b1", 1, 0),
             SheafCell("b2", 1, 1), SheafCell("c", 2, 1)]
    maps = {(0, 1): (), (1, 3): ((),), (0, 2): ((1,),), (2, 3): ((0,),)}
    sheaf = CellularSheafDatum(cells, maps, SHEAF)
    cosheaf = CellularSheafDatum(cells, sheaf.transpose().cover_maps, COSHEAF)
    for datum in (sheaf, cosheaf):
        assert compact_cohomology(datum) == (0, 0, 1)
        assert ordinary_cohomology(datum) == (1, 0, 0)
        assert ordinary_cohomology(datum, cone_shortcut=False) == (1, 0, 0)
    # A nonzero composite through the other middle cell is still caught.
    maps[(2, 3)] = ((1,),)
    with pytest.raises(ValidationError, match="non-commuting diamond"):
        CellularSheafDatum(cells, maps, SHEAF)


def test_three_middle_cells_admit_no_signing():
    cells = [SheafCell("p", 0, 1), SheafCell("a", 1, 1), SheafCell("b", 1, 1),
             SheafCell("c", 1, 1), SheafCell("t", 2, 1)]
    one = ((F(1),),)
    maps = {(0, 1): one, (0, 2): one, (0, 3): one,
            (1, 4): one, (2, 4): one, (3, 4): one}
    datum = CellularSheafDatum(cells, maps, SHEAF)
    with pytest.raises(ValidationError, match="non-thin poset interval"):
        compact_cohomology(datum)


def test_single_middle_cell_with_nonzero_composite_rejected():
    cells = [SheafCell("p", 0, 1), SheafCell("a", 1, 1), SheafCell("t", 2, 1)]
    one = ((F(1),),)
    datum = CellularSheafDatum(cells, {(0, 1): one, (1, 2): one}, SHEAF)
    with pytest.raises(ValidationError, match="single middle cell"):
        compact_cohomology(datum)


def test_products_with_t_factor():
    # L x T^1: a closed modification-flavoured complex; engines must agree
    # with Poincare duality across the anti-diagonal.
    c = product(tropical_line(), 1, tropical=True)
    report = pd_report(c)
    assert report["balanced"]
    assert report["pd_holds"]
