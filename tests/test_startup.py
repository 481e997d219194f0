"""The start-up contract, each case in a fresh interpreter but the one
that monkeypatches a SciPy without Qhull.

`import stablevol` loads no numpy and changes no environment variable; the
package's exports resolve lazily. `import stablevol.cli` sets
OPENBLAS_NUM_THREADS to 1 before numpy loads, unless the user has set it,
imports every module the benchmark's tracer wraps, and the CLI's stdout
does not depend on the BLAS thread count. Of the modules it registers,
`import stablevol.cli` runs only `cli`, `complexes`, `persistence` and
`kernels`; each command runs only the modules it uses. The SciPy extension modules that
`stablevol._scipy_extension` loads from their files (HiGHS and Qhull for
the commands, and the KD-tree here) are the ones scipy's own packages use,
whichever is imported first, and stablevol's Qhull call, made through the
module's `_Qhull` core, gives what `scipy.spatial.Delaunay` gives. A
command on points never imports numpy.ma, numpy.random, hashlib, fractions
or decimal.
"""

import importlib.machinery
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stablevol
from helpers import complex_json_text, torus3d_order
from stablevol import persistence as pers
from stablevol.alpha import format_pointcloud

SRC = str(Path(stablevol.__file__).resolve().parents[1])

# the package's exports before they became lazy, by defining module;
# `delaunay` (the function) is left out: `stablevol.delaunay` is the module,
# `validate_complex` is gone: every complex holds all its faces, and
# `Diagram` and `diagram` are gone: `Pairs.diagram_index` gives a diagram,
# `Chain`, `chain_z2` and `StableVolumeResult` are gone: `boundary` and
# `stable_volume_tree` give id sets, and `PointCloud` and `AlphaFiltration`
# are gone: a pointcloud is its (n, d) array and a filtration its order
OLD_EXPORTS = {
    "alpha": ["alpha_filtration", "alpha_levels", "parse_pointcloud"],
    "complexes": ["MonotonicityError", "OrderWithLevel", "SimplicialComplex", "boundary",
                  "build_order", "complex_from_json"],
    "delaunay": ["DegenerateInputError"],
    "dualtree": ["ConditionError", "DegreeError", "DualGraph", "PersistenceTree",
                 "build_dual_graph", "compute_tree", "optimal_volume_tree",
                 "stable_volume_tree", "sweep_sizes"],
    "persistence": ["Pairs", "PersistencePair", "StarPairError", "cohomology_reduce",
                    "pairs", "reduce"],
    "volopt": ["ApproximationMismatch", "L1Program", "VolumeProblem", "make_problem",
               "round_support", "solve_lp", "solve_volume", "to_lp"],
}


def python(args, blas_threads=None):
    """The stdout bytes of `python args`, run with stablevol on the path and
    OPENBLAS_NUM_THREADS set to `blas_threads`, or unset when None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, *args], capture_output=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_import_stablevol_loads_no_numpy_and_keeps_the_environment():
    out = python(["-c", "import os, sys, stablevol; "
                        "print(stablevol.__version__, 'numpy' in sys.modules, "
                        "os.environ.get('OPENBLAS_NUM_THREADS'))"])
    assert out.split() == [b"0.1.0", b"False", b"None"]


@pytest.mark.parametrize("user, expected", [(None, "1"), ("3", "3")], ids=["unset", "user-3"])
def test_import_cli_sets_single_threaded_blas_unless_set(user, expected):
    out = python(["-c", "import os, stablevol.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"],
                 blas_threads=user)
    assert out.decode().strip() == expected


def test_old_exports_resolve_lazily_and_delaunay_is_the_submodule():
    script = f"""
import importlib, sys
import stablevol
assert "numpy" not in sys.modules
assert stablevol.delaunay is importlib.import_module("stablevol.delaunay")
for mod, names in {OLD_EXPORTS!r}.items():
    module = importlib.import_module("stablevol." + mod)
    for name in names:
        assert getattr(stablevol, name) is getattr(module, name), name
assert stablevol.delaunay is importlib.import_module("stablevol.delaunay")
assert "delaunay" not in stablevol.__all__
assert set(stablevol.__all__) == {{"__version__", *(n for ns in {OLD_EXPORTS!r}.values() for n in ns)}}
print("ok")
"""
    assert python(["-c", script]).strip() == b"ok"


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """(name, argv) of three commands: pd on a seeded 2D cloud, vol --method
    sub on a 3D torus complex JSON and stat on the defects lattice."""
    tmp = tmp_path_factory.mktemp("startup")
    cloud = tmp / "cloud.txt"
    rng = np.random.default_rng(7)
    cloud.write_text(format_pointcloud(rng.random((400, 2))))
    o = torus3d_order()
    torus = tmp / "torus.json"
    torus.write_text(complex_json_text(o))
    table = pers.pairs(o, [1])
    idx = table.diagram_index(1)
    index = str(int(np.argmax(table.death_time[idx] - table.birth_time[idx])))
    defects = tmp / "defects.txt"
    python(["-m", "stablevol.cli", "gen", "lattice-2d-defects", "--seed", "7",
            "-o", str(defects)])
    return [
        ("pd", ["pd", str(cloud)]),
        ("vol-sub", ["vol", str(torus), "--pair-index", index, "--method", "sub",
                     "--epsilon", "0.1"]),
        ("stat", ["stat", str(defects), "--pair-index", "0", "--noise", "0.05",
                  "--trials", "8", "--seed", "3"]),
    ]


def test_stdout_does_not_depend_on_the_blas_thread_count(cli_inputs):
    for name, argv in cli_inputs:
        outs = {threads: python(["-m", "stablevol.cli", *argv], blas_threads=threads)
                for threads in (None, "1", "2")}
        assert outs[None], name
        assert outs[None] == outs["1"] == outs["2"], name


# solves one small LP with volopt.linprog and with scipy.optimize.linprog,
# in the order given by argv[1], and prints both results
HIGHS_ORDER_PROBE = """
import json, sys
import numpy as np
from stablevol import volopt as V

def volopt_solve():
    col = np.array([0, 1, 2])
    res = V.linprog(np.array([1.0, 2.0]),
                    A_ub=V.Csc(col, np.zeros(2, int), np.array([-1.0, -1.0]), (1, 2)),
                    b_ub=np.array([-1.0]),
                    A_eq=V.Csc(col, np.zeros(2, int), np.array([1.0, -1.0]), (1, 2)),
                    b_eq=np.array([0.0]), lb=np.zeros(2), ub=np.full(2, np.inf))
    return [res.status, res.x.tolist(), res.fun, res.nit]

def scipy_solve():
    from scipy.optimize import linprog
    res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], A_eq=[[1.0, -1.0]],
                  b_eq=[0.0], method="highs")
    return [res.status, res.x.tolist(), res.fun, res.nit]

first, second = volopt_solve, scipy_solve
if sys.argv[1] == "scipy-first":
    first, second = second, first
results = {first.__name__: first()}
optimize_after_first = "scipy.optimize" in sys.modules
results[second.__name__] = second()
from scipy.optimize._highspy import _highs_wrapper
core = sys.modules["scipy.optimize._highspy._core"]
assert V._highs() is _highs_wrapper._h is core
print(json.dumps([optimize_after_first, results]))
"""


def test_highs_core_is_shared_with_scipy_in_either_import_order():
    runs = {order: json.loads(python(["-c", HIGHS_ORDER_PROBE, order]))
            for order in ("volopt-first", "scipy-first")}
    # volopt's solve alone loads no scipy.optimize
    assert runs["volopt-first"][0] is False and runs["scipy-first"][0] is True
    results = [r for _, by_solver in runs.values() for r in by_solver.values()]
    assert results[0] == [0, [0.5, 0.5], 1.5, results[0][3]]
    assert all(r == results[0] for r in results)


# triangulates and queries a KD-tree through stablevol and through
# scipy.spatial, in the order given by argv[1], and prints what each order
# leaves loaded and bound
QHULL_ORDER_PROBE = """
import json, sys
import numpy as np

P = np.random.default_rng(5).random((60, 2))
x = np.random.default_rng(6).random((10, 2))
# a 2D cloud, a 3D cloud, the 2D cloud with a point repeated (Qhull sets the
# copy aside as coplanar) and four collinear points (Qhull fails)
CLOUDS = [P, np.random.default_rng(7).random((40, 3)), np.vstack([P, P[:1]]),
          np.arange(8.0).reshape(4, 2)]

def cells(triangulate, qhull_error):
    out = []
    for cloud in CLOUDS:
        try:
            tri = triangulate(cloud)
        except qhull_error:
            out.append("QhullError")
        else:
            out.append([tri.simplices.tolist(), tri.coplanar.tolist()])
    return out

def stablevol_side():
    from stablevol import _scipy_extension, delaunay
    from stablevol.alpha import alpha_filtration
    alpha_filtration(P)
    tree = _scipy_extension("scipy.spatial._ckdtree").cKDTree(P)
    return (cells(delaunay.Delaunay, delaunay._qhull().QhullError),
            [a.tolist() for a in tree.query(x, k=3)])

def scipy_side():
    import scipy.spatial
    tree = scipy.spatial.cKDTree(P)
    return (cells(scipy.spatial.Delaunay, scipy.spatial.QhullError),
            [a.tolist() for a in tree.query(x, k=3)])

first, second = stablevol_side, scipy_side
if sys.argv[1] == "scipy-first":
    first, second = second, first
results = {first.__name__: first()}
packages = [m for m in ("scipy.spatial", "scipy.linalg", "scipy.special") if m in sys.modules]
results[second.__name__] = second()
import scipy.linalg, scipy.spatial
from stablevol import delaunay
qhull = sys.modules["scipy.spatial._qhull"]
assert delaunay._qhull() is qhull and scipy.spatial.Delaunay is qhull.Delaunay
assert scipy.spatial.cKDTree is sys.modules["scipy.spatial._ckdtree"].cKDTree
from scipy.linalg import cython_lapack
assert cython_lapack is sys.modules["scipy.linalg.cython_lapack"]
solved = scipy.linalg.solve(np.diag([2.0, 4.0]), np.ones(2)).tolist()
bound = [hasattr(scipy.spatial, "_qhull"), hasattr(scipy.spatial, "_ckdtree"),
         hasattr(scipy.linalg, "cython_blas"), hasattr(scipy.linalg, "cython_lapack")]
coplanar = [c if c == "QhullError" else len(c[1]) for c in results["stablevol_side"][0]]
print(json.dumps([packages, results["stablevol_side"] == results["scipy_side"], solved, bound,
                  coplanar]))
"""


def test_qhull_and_kd_tree_are_shared_with_scipy_in_either_import_order():
    runs = {order: json.loads(python(["-c", QHULL_ORDER_PROBE, order]))
            for order in ("stablevol-first", "scipy-first")}
    # stablevol's alpha filtration loads no scipy package
    assert runs["stablevol-first"][0] == []
    assert runs["scipy-first"][0] == ["scipy.spatial", "scipy.linalg", "scipy.special"]
    for order, (_, same, solved, _, coplanar) in runs.items():
        # scipy.spatial.Delaunay is the oracle for stablevol's Qhull call:
        # the same simplices and coplanar points, or a QhullError on both
        assert same and solved == [0.5, 0.25], order
        assert coplanar == [0, 0, 1, "QhullError"], order
    # a submodule that stablevol registered before its package was imported
    # is reused by the package, but is no attribute of it: `import
    # scipy.spatial._qhull` and `from scipy.linalg import cython_lapack`
    # still find it in sys.modules
    assert runs["stablevol-first"][3] == [False] * 4
    assert runs["scipy-first"][3] == [True] * 4


# runs main(argv) in a fresh interpreter, stdout discarded, and prints its
# exit code and whether numpy.ma, numpy.random, hashlib, fractions and
# decimal were imported
NUMPY_MA_PROBE = """
import contextlib, io, sys
from stablevol.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *(m in sys.modules
              for m in ("numpy.ma", "numpy.random", "hashlib", "fractions", "decimal")))
"""


@pytest.fixture(scope="module")
def point_commands(tmp_path_factory):
    """argv per command on points: a seeded 2D and 3D cloud, and the
    defects lattice, which `gen` also writes."""
    tmp = tmp_path_factory.mktemp("numpy-ma")
    clouds = {}
    for dim, n in ((2, 400), (3, 300)):
        clouds[dim] = str(tmp / f"cloud{dim}d.txt")
        Path(clouds[dim]).write_text(format_pointcloud(np.random.default_rng(7).random((n, dim))))
    defects = str(tmp / "defects.txt")
    python(["-m", "stablevol.cli", "gen", "lattice-2d-defects", "--seed", "7", "-o", defects])
    pair = [clouds[2], "--pair-index", "0"]
    return {
        "pd-2d": ["pd", clouds[2]],
        "pd-3d": ["pd", clouds[3]],
        "stat": ["stat", defects, "--pair-index", "0", "--noise", "0.05", "--trials", "8",
                 "--threads", "2", "--seed", "3"],
        "vol-optimal": ["vol", *pair, "--method", "optimal"],
        "vol-sub": ["vol", *pair, "--method", "sub", "--epsilon", "0.1"],
        "rsc": ["rsc", *pair],
        "sweep": ["sweep", *pair, "--epsilon-grid", "0:0.1:0.02"],
        "gen-defects": ["gen", "lattice-2d-defects", "--seed", "7"],
    }


@pytest.mark.parametrize(
    "name", ["pd-2d", "pd-3d", "stat", "vol-optimal", "vol-sub", "rsc", "sweep", "gen-defects"])
def test_commands_on_points_never_import_numpy_ma(point_commands, name):
    # scipy.spatial.Delaunay, np.unique without a return_* option, and
    # np.isin's sort path each import numpy.ma (numpy 2.4); numpy.random
    # imports hashlib (OpenSSL), which stat's and gen's noise stream needs
    # not; fractions imports decimal, and only the exact stages of the
    # predicates and the Gabriel test, which these clouds never reach,
    # import it
    out = python(["-c", NUMPY_MA_PROBE, *point_commands[name]])
    assert out.split() == [b"0", b"False", b"False", b"False", b"False", b"False"]


# the modules that `import stablevol.cli` registers without running them
LAZY = {"alpha", "baselines", "delaunay", "dualtree", "fixtures", "parallel", "predicates",
        "volopt"}
# the modules that `import stablevol.cli` runs
CORE = {"cli", "complexes", "kernels", "persistence"}

# imports the CLI in a fresh interpreter, runs main(argv) with stdout
# discarded, and prints the exit code, the stablevol modules registered
# after the import, and those that had run after the import and after
# main: a registered module has run once it is a plain module, no longer
# the lazy subclass
RAN_PROBE = """
import contextlib, io, json, sys, types

def registered():
    return sorted(name.split(".")[1] for name in sys.modules if name.startswith("stablevol."))

def ran():
    return sorted(name.split(".")[1] for name, m in sys.modules.items()
                  if name.startswith("stablevol.") and type(m) is types.ModuleType)

import stablevol.cli
at_import = [registered(), ran()]
with contextlib.redirect_stdout(io.StringIO()):
    code = stablevol.cli.main(sys.argv[1:])
print(json.dumps([code, *at_import, ran()]))
"""


def test_each_command_runs_only_its_modules(cli_inputs, point_commands):
    commands = dict(cli_inputs)
    # vol and rsc on the torus complex JSON, the pair vol selects
    _, torus, _, index, *_ = commands["vol-sub"]
    runs = {
        "gen": point_commands["gen-defects"],
        "pd": commands["pd"],
        "vol-sub": commands["vol-sub"],
        "rsc": ["rsc", torus, "--pair-index", index],
        "stat": commands["stat"],
    }
    geometry = {"alpha", "delaunay", "predicates"}
    expected = {
        "gen": CORE | geometry | {"fixtures"},
        "pd": CORE | geometry | {"dualtree"},
        "vol-sub": CORE | {"volopt"},
        "rsc": CORE | {"baselines"},
        # a codimension-1 pair: the merge tree, no linear program
        "stat": CORE | LAZY - {"volopt"},
    }
    for name, argv in runs.items():
        code, registered, at_import, ran = json.loads(python(["-c", RAN_PROBE, *argv]))
        assert code == 0, name
        assert set(registered) == CORE | LAZY, name
        assert set(at_import) == CORE, name
        assert set(ran) == expected[name], name


def test_scipy_without_the_qhull_extension_exits_3(monkeypatch, tmp_path, capsys):
    # a SciPy whose spatial directory holds no _qhull extension: one stderr
    # line naming the module and the directory searched, and no traceback
    from scipy.linalg import cython_blas, cython_lapack  # noqa: F401  loaded, as in a real run
    from stablevol.cli import main

    fig1 = tmp_path / "fig1.txt"
    assert main(["gen", "fig1-five-points", "-o", str(fig1)]) == 0
    find_spec = importlib.util.find_spec

    def empty_scipy(name, *args):
        if name != "scipy":
            return find_spec(name, *args)
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        return spec

    monkeypatch.delitem(sys.modules, "scipy.spatial._qhull", raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", empty_scipy)
    capsys.readouterr()
    assert main(["pd", str(fig1)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error: scipy: no scipy.spatial._qhull extension in {tmp_path / 'spatial'}"
    ]


def test_import_cli_imports_every_module_the_tracer_wraps():
    """perfbench/tracing.py resolves its spans and counters from the
    `stablevol.<mod>` modules already imported when it installs, so
    `import stablevol.cli` alone, in a fresh interpreter, must import each."""
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    script = f"""
import importlib.util, json, sys
import stablevol.cli
loaded = {{m for m in sys.modules if m.startswith("stablevol.")}}
sys.dont_write_bytecode = True
spec = importlib.util.spec_from_file_location("perfbench_tracing", {str(tracing)!r})
tracing = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = tracing
spec.loader.exec_module(tracing)
targets = [*tracing.SPANS.values(), *(t for ts in tracing.COUNTERS.values() for t in ts)]
print(json.dumps(sorted({{"stablevol." + mod for mod, _ in targets}} - loaded)))
"""
    assert json.loads(python(["-c", script])) == []
