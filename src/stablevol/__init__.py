"""Persistence diagrams and noise-robust volume representatives of
birth-death pairs on filtered simplicial complexes."""

from .alpha import AlphaFiltration, PointCloud, alpha_filtration, alpha_levels, parse_pointcloud
from .complexes import (
    Chain,
    MonotonicityError,
    OrderWithLevel,
    SimplicialComplex,
    boundary,
    build_order,
    chain_z2,
    complex_from_json,
    validate_complex,
)
from .delaunay import DegenerateInputError, delaunay
from .dualtree import (
    ConditionError,
    DegreeError,
    DualGraph,
    PersistenceTree,
    StableVolumeResult,
    build_dual_graph,
    compute_tree,
    optimal_volume_tree,
    stable_volume_tree,
    sweep_sizes,
)
from .persistence import (
    Diagram,
    Pairs,
    PersistencePair,
    StarPairError,
    cohomology_reduce,
    diagram,
    pairs,
    reduce,
)
from .volopt import (
    ApproximationMismatch,
    L1Program,
    VolumeProblem,
    make_problem,
    round_support,
    solve_lp,
    solve_volume,
    to_lp,
)

__version__ = "0.1.0"
