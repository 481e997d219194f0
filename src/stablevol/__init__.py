"""Persistence diagrams and noise-robust volume representatives of
birth-death pairs on filtered simplicial complexes.

The package imports lazily (PEP 562): `import stablevol` loads no submodule
and no numpy, and an exported name such as `stablevol.pairs` imports its
submodule on first access, as does a submodule's name. `stablevol.delaunay`
is the submodule; its triangulation function is `stablevol.delaunay.delaunay`.

The SciPy extension modules that the commands run (Qhull and HiGHS) are
loaded one by one from their files by `_scipy_extension`, which lives here
so that every submodule reaches it without a module of its own.
"""

import importlib
import importlib.machinery
import importlib.util
import os
import sys

__version__ = "0.1.0"


class MissingExtensionError(ImportError):
    """SciPy has no file for an extension module that a command runs; the
    CLI exits 3."""


def _scipy_extension(name):
    """SciPy's extension module `name`, a full dotted name such as
    "scipy.spatial._qhull".

    A module already in `sys.modules` is returned as it is. Otherwise the
    module is loaded from its file in scipy's directory and registered under
    its full name, so that a later import of its package reuses it; importing
    the package itself would run the package's `__init__` (for
    `scipy.spatial`, 175 scipy modules). A SciPy without the file raises
    MissingExtensionError.
    """
    module = sys.modules.get(name)
    if module is None:
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        directory = os.path.join(scipy_dir, *name.split(".")[1:-1])
        finder = importlib.machinery.FileFinder(
            directory,
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        )
        spec = finder.find_spec(name)
        if spec is None:
            raise MissingExtensionError(f"no {name} extension in {directory}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module

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
