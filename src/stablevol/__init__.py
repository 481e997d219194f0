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
    complex_to_json,
    sublevel_complex,
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
    PersistencePair,
    StarPairError,
    bottleneck,
    cohomology_reduce,
    diagram,
    reduce,
)
from .volopt import (
    ApproximationMismatch,
    L1Program,
    TooLargeError,
    VolumeProblem,
    brute_force_volume,
    make_problem,
    round_support,
    solve_lp,
    solve_volume,
    to_lp,
)

__version__ = "0.1.0"
