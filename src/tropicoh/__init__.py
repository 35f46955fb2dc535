"""Exact-arithmetic workbench for tropical cohomology.

Rational polyhedral complexes in partially compactified space, multi-
tangent coefficient systems and their cellular cohomology (ordinary and
compactly supported), Bergman fans of matroids, tropical modifications,
and polynomial superforms with lattice-normalized integration.
"""

from .cohomology import (
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
from .linalg import (
    Lattice,
    Subspace,
    smith_normal_form,
    subspace_sum,
    wedge_power,
)
from .matroids import (
    Matroid,
    bergman_fan,
    graphic_matroid,
    matroid_from,
    matroidal_modification_triple,
    minors,
    uniform_matroid,
)
from .modifications import (
    PLFunction,
    closed_modification,
    complete_modification,
    graph_complex,
    project_modification,
    weighted_supports_equal,
)
from .polyhedral import (
    NEG_INF,
    Polyhedron,
    PolyhedralComplex,
    build_complex,
    closure_in,
    faces,
    fundamental_cycle_boundary,
    infinite_faces,
    is_balanced,
    product,
    restrict_to_stratum,
    star,
)
from .superforms import (
    PolySuperform,
    balanced_face_cancellation,
    boundary_integral,
    contract,
    d_prime,
    d_second,
    integrate_cell,
    pullback,
    stokes_cell_residual,
    wedge,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
