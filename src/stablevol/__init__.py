"""Persistence diagrams and noise-robust volume representatives of
birth-death pairs on filtered simplicial complexes.

The package imports lazily (PEP 562): `import stablevol` loads no submodule
and no numpy, and an exported name such as `stablevol.pairs` imports its
submodule on first access, as does a submodule's name. `stablevol.delaunay`
is the submodule; its triangulation function is `stablevol.delaunay.delaunay`.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "alpha": ("alpha_filtration", "alpha_levels", "parse_pointcloud"),
    "complexes": ("MonotonicityError", "OrderWithLevel", "SimplicialComplex", "boundary",
                  "build_order", "complex_from_json"),
    "delaunay": ("DegenerateInputError",),
    "dualtree": ("ConditionError", "DegreeError", "DualGraph", "PersistenceTree",
                 "build_dual_graph", "compute_tree", "optimal_volume_tree",
                 "stable_volume_tree", "sweep_sizes"),
    "persistence": ("Pairs", "PersistencePair", "StarPairError", "cohomology_reduce",
                    "pairs", "reduce"),
    "volopt": ("ApproximationMismatch", "L1Program", "VolumeProblem", "make_problem",
               "round_support", "solve_lp", "solve_volume", "to_lp"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("alpha", "baselines", "cli", "complexes", "delaunay", "dualtree", "fixtures",
               "kernels", "parallel", "persistence", "predicates", "schemas", "volopt")

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{mod}", __name__), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
