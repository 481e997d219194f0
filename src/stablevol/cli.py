"""Batch command-line front end.

Subcommands: pd (diagrams), vol (volumes), sweep (epsilon vs size), stat
(statistical resampling baseline), rsc (reconstructed shortest cycles), gen
(dataset fixtures). Results go to stdout or -o; logs go to stderr. Exit
codes: 0 ok, 2 parse error, 3 degenerate input, a failed LP (infeasible,
unbounded, solver failure, or a rounded support that is not Z/2-feasible) or
a SciPy without the Qhull extension module, 4 pair not uniquely resolvable,
5 essential pair.

The CLI runs OpenBLAS single-threaded unless OPENBLAS_NUM_THREADS is set:
its dense linear algebra is a few batched 2x2 and 3x3 solves, and the
thread pools that numpy's and scipy's OpenBLAS would otherwise start at
load time cost more start-up than they save. The default is set here,
before numpy loads, so that importing the library alone leaves the
environment as it is.

Importing the CLI runs only `complexes`, `persistence` and `kernels`. The
other modules are registered lazily (`stablevol._lazy_submodules`) and each
compiles and runs on the first use of one of its names: `vol` on a complex
JSON runs `volopt` alone of them, `rsc` on a complex JSON `baselines`, and
`pd` on points `alpha`, `delaunay`, `predicates` and `dualtree`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from contextlib import nullcontext

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import MissingExtensionError, _lazy_submodules
from . import persistence as pers
from .complexes import complex_from_json, vertices_of, z2_boundary
from .persistence import StarPairError

# Registered before they are bound, so that each compiles and runs on the
# first use of one of its names and a command runs only the modules it uses.
# `parallel` and `predicates` are registered for code that looks the
# package's modules up in sys.modules once the CLI is imported.
_lazy_submodules("alpha", "baselines", "delaunay", "dualtree", "fixtures", "parallel",
                 "predicates", "volopt")
from . import alpha, baselines, delaunay, dualtree, fixtures, volopt  # noqa: E402

# the names of `fixtures.GENERATORS`, sorted; a literal, so that building
# the parser does not run `fixtures`
_FIXTURES = ("annulus", "fig1-five-points", "hexagon", "lattice-2d-defects", "lattice-3x3x3")

EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_AMBIGUOUS = 4
EXIT_STAR = 5


class PairSelectionError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stablevol",
        description="Persistence diagrams and noise-robust volume representatives",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, pair=True):
        p.add_argument("input", help="pointcloud text file or complex JSON file")
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        if pair:
            p.add_argument("--degree", type=int, default=1)
            p.add_argument("--pair-index", type=int, default=None,
                           help="index into the degree-k diagram sorted by (birth, death)")
            p.add_argument("--birth", default=None,
                           help="birth value or a:b window selecting the pair")
            p.add_argument("--death", default=None,
                           help="death value or a:b window selecting the pair")

    p = sub.add_parser("pd", help="persistence diagrams")
    add_common(p, pair=False)
    p.add_argument("--degree", type=int, action="append", default=None,
                   help="degree to emit (repeatable; default all)")
    p.add_argument("--squared", action="store_true",
                   help="emit squared levels (alpha^2 convention)")
    p.add_argument("--scatter", default=None, help="also write a TSV scatter here")

    p = sub.add_parser("vol", help="volume of one pair")
    add_common(p)
    p.add_argument("--method", choices=["optimal", "stable-tree", "stable-lp", "sub"],
                   default="optimal")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--threshold", type=float, default=1e-6,
                   help="LP support rounding threshold, in (0, 1)")

    p = sub.add_parser("sweep", help="epsilon vs stable-volume size (TSV)")
    add_common(p)
    p.add_argument("--epsilon-grid", required=True, metavar="A:B:STEP",
                   help="inclusive grid, e.g. 0:0.4:0.01")

    p = sub.add_parser("stat", help="statistical resampling frequencies")
    add_common(p)
    p.add_argument("--noise", type=float, required=True, help="uniform box half width")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility; has no effect (trials run in order)")

    p = sub.add_parser("rsc", help="reconstructed shortest cycle")
    add_common(p)
    p.add_argument("--bandwidth", type=float, default=None,
                   help="level offset above birth selecting the step index")
    p.add_argument("--k-index", type=int, default=None, help="explicit rank index")
    p.add_argument("--euclidean", action="store_true",
                   help="weigh edges by length instead of hop count")

    p = sub.add_parser("gen", help="write a named pointcloud fixture")
    p.add_argument("fixture", choices=_FIXTURES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    return ap


# ---------------------------------------------------------------------------
# helpers


def _load_input(path):
    """Returns (order, (n, d) points or None). A file whose first non-blank
    character opens a JSON object, array or string is a complex JSON;
    anything else is a pointcloud, which gets an alpha filtration."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}")
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path} is empty")
    if stripped[0] in '{["':
        return complex_from_json(text), None
    points = alpha.parse_pointcloud(text)
    return alpha.alpha_filtration(points), points


# half width of the window that a single value X of --birth or --death gives
_EXACT_TOL = 1e-9


def _parse_window(spec: str, option: str):
    """The closed window LO:HI, or X +- _EXACT_TOL, that `option` gives."""
    try:
        bounds = [float(x) for x in spec.split(":", 1)]
    except ValueError:
        raise ValueError(f"{option}: bad value {spec!r}, expected X or LO:HI") from None
    if any(map(math.isnan, bounds)):
        raise ValueError(f"{option}: bad value {spec!r}, NaN is not a level")
    if len(bounds) == 2:
        return bounds[0], bounds[1]
    return bounds[0] - _EXACT_TOL, bounds[0] + _EXACT_TOL


def _select_pair(pairs, args):
    """The pair that --pair-index or --birth/--death names among the
    degree-`args.degree` diagram of the `Pairs` table `pairs`, sorted by
    (birth, death, birth rank)."""
    has_index = args.pair_index is not None
    has_window = args.birth is not None or args.death is not None
    if has_index == has_window:
        raise PairSelectionError(
            "exactly one pair selector required: --pair-index or --birth/--death"
        )
    cands = pairs.diagram_index(args.degree)
    if has_index:
        if not 0 <= args.pair_index < len(cands):
            raise PairSelectionError(
                f"pair index {args.pair_index} out of range ({len(cands)} pairs)"
            )
        return pairs[cands[args.pair_index]]
    if args.birth is not None:
        lo, hi = _parse_window(args.birth, "--birth")
        b = pairs.birth_time[cands]
        cands = cands[(lo <= b) & (b <= hi)]
    if args.death is not None:
        lo, hi = _parse_window(args.death, "--death")
        d = pairs.death_time[cands]
        cands = cands[(pairs.death_rank[cands] >= 0) & (lo <= d) & (d <= hi)]
    if len(cands) != 1:
        raise PairSelectionError(
            f"selector matched {len(cands)} pairs; need exactly one"
        )
    return pairs[cands[0]]


def _output(out_path):
    """out_path opened for writing, or stdout, as a context manager."""
    return open(out_path, "w", encoding="utf-8") if out_path else nullcontext(sys.stdout)


def _emit(chunks, out_path):
    """Writes the strings `chunks` in turn to out_path, or to stdout."""
    with _output(out_path) as fh:
        for chunk in chunks:
            fh.write(chunk)


def _dump_json(obj, out_path):
    _emit([json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"], out_path)


def _pair_json(p):
    return {
        "degree": p.degree,
        "birth": p.birth_time,
        "death": None if p.essential else p.death_time,
        "birth_simplex": p.birth_simplex,
        "death_simplex": p.death_simplex,
    }


# One pd pair as json.dumps(indent=2, sort_keys=True) lays it out, at the
# depth of a pair inside {"diagrams": [{"pairs": [...]}]}.
_PD_PAIR = (
    "        {\n"
    '          "birth": %s,\n'
    '          "birth_simplex": %s,\n'
    '          "death": %s,\n'
    '          "death_simplex": %s,\n'
    '          "degree": %s\n'
    "        }"
)


# pd and sweep format at most this many rows into one chunk of text; each
# chunk is written before the next is formatted, so the output is never
# held whole
_CHUNK = 256


def _pd_diagram_json(k, births, deaths, birth_simplices, death_simplices, essential):
    """The degree-k diagram object of pd's output, from the listed pairs'
    column arrays, as text chunks that join to what json.dumps(indent=2,
    sort_keys=True, allow_nan=False) writes. An essential pair's death and
    death simplex are null. The levels are checked at once, so a non-finite
    one raises ValueError before any chunk; the chunks are formatted as
    they are iterated."""
    if not (np.isfinite(births).all() and np.isfinite(deaths[~essential]).all()):
        raise ValueError("Out of range float values are not JSON compliant")

    def chunks():
        yield f'    {{\n      "degree": {k!r},\n      "pairs": ['
        for start in range(0, len(births), _CHUNK):
            part = slice(start, start + _CHUNK)
            dts = list(map(float.__repr__, deaths[part].tolist()))
            dss = death_simplices[part].tolist()
            for r in np.flatnonzero(essential[part]).tolist():
                dts[r] = dss[r] = "null"
            rows = zip(map(float.__repr__, births[part].tolist()),
                       birth_simplices[part].tolist(), dts, dss, itertools.repeat(k))
            yield (",\n" if start else "\n") + ",\n".join(map(_PD_PAIR.__mod__, rows))
        yield "\n      ]\n    }" if len(births) else "]\n    }"

    return chunks()


def _pd_json(diagrams, squared):
    """pd's whole document, as text chunks, around the chunks of each of
    the `diagrams` (from `_pd_diagram_json`)."""
    yield '{\n  "diagrams": ['
    for i, diagram in enumerate(diagrams):
        yield ",\n" if i else "\n"
        yield from diagram
    listed = "\n  ]" if diagrams else "]"
    yield f'{listed},\n  "squared": {"true" if squared else "false"}\n}}\n'


# One stat frequency as json.dumps(indent=2, sort_keys=True) lays it out,
# at the depth of a row inside {"frequencies": [...]}.
_STAT_ROW = '    {\n      "f": %s,\n      "point": %d\n    }'


def _stat_json(fm):
    """stat's document for the FrequencyMap `fm`, as text chunks that join
    to what json.dumps(indent=2, sort_keys=True, allow_nan=False) writes of
    {"trials", "matched", "status", "frequencies": [{"point", "f"}]}. A
    non-finite frequency raises ValueError before any chunk; the chunks are
    formatted as they are iterated."""
    freqs = fm.frequencies
    if not np.isfinite(freqs).all():
        raise ValueError("Out of range float values are not JSON compliant")

    def chunks():
        yield '{\n  "frequencies": ['
        for start in range(0, len(freqs), _CHUNK):
            rows = zip(map(float.__repr__, freqs[start : start + _CHUNK].tolist()),
                       range(start, len(freqs)))
            yield (",\n" if start else "\n") + ",\n".join(map(_STAT_ROW.__mod__, rows))
        yield "\n  ]" if len(freqs) else "]"
        yield (f',\n  "matched": {fm.matched},\n  "status": {json.dumps(fm.status)},\n'
               f'  "trials": {fm.trials}\n}}\n')

    return chunks()


def _pd_scatter_tsv(listed):
    """pd's --scatter table, as text chunks, from (degree, births, deaths)
    arrays of the levels that the JSON lists."""
    yield "degree\tbirth\tdeath\n"
    for k, births, deaths in listed:
        for start in range(0, len(births), _CHUNK):
            part = slice(start, start + _CHUNK)
            rows = zip(births[part].tolist(), deaths[part].tolist())
            yield "".join(f"{k}\t{x!r}\t{'inf' if math.isinf(y) else repr(y)}\n"
                          for x, y in rows)


def _volume_json(order, points, pair, cells, method, epsilon, extra=None):
    """The output object of a volume: the cells of dimension degree + 1,
    their Z/2 boundary and its vertices' points (none without a point
    cloud `points`), from the face arrays."""
    cx, k = order.cx, pair.degree + 1
    bnd = z2_boundary(cx, k, cells)
    obj = {
        "pair": _pair_json(pair),
        "epsilon": epsilon,
        "cells": sorted(cells),
        "boundary": bnd.tolist(),
        "points": [] if points is None else [
            list(map(float, points[v])) for v in vertices_of(cx, k - 1, bnd).tolist()
        ],
        "method": method,
    }
    if extra:
        obj.update(extra)
    return obj


# ---------------------------------------------------------------------------
# subcommands


def cmd_pd(args) -> int:
    order, _ = _load_input(args.input)
    pairs = pers.pairs(order, args.degree)
    degrees = args.degree if args.degree else list(range(order.cx.dim + 1))
    listed, diagrams = [], []
    for k in degrees:
        idx = pairs.diagram_index(k)
        births, deaths = pairs.birth_time[idx], pairs.death_time[idx]
        essential = pairs.death_rank[idx] < 0
        if args.squared:
            with np.errstate(over="ignore"):
                births, deaths = births * births, deaths * deaths
            if not (np.isfinite(births).all() and np.isfinite(deaths[~essential]).all()):
                raise ValueError("--squared: a level overflows when squared")
        listed.append((k, births, deaths))
        diagrams.append(_pd_diagram_json(
            k, births, deaths, pairs.birth_simplex[idx], pairs.death_simplex[idx], essential
        ))
    # every level is checked by now: the outputs are opened only after that,
    # -o first, so that an -o that cannot be opened leaves no scatter file,
    # and written chunk by chunk as they are formatted
    with _output(args.output) as out:
        if args.scatter:
            _emit(_pd_scatter_tsv(listed), args.scatter)
        for chunk in _pd_json(diagrams, args.squared):
            out.write(chunk)
    return 0


def _tree_for(order, pairs, pair):
    """The merge tree that `pairs` came from, or a new one. A pair that is
    not of codimension 1 raises `DegreeError`, and a complex that fails the
    dual-graph condition `ConditionError` (the one `pairs` met, if it tried),
    before any tree is built."""
    dualtree.check_tree_degree(order.cx.dim, pair)
    if pairs.tree is not None:
        return pairs.tree
    if pairs.tree_error is not None:
        raise pairs.tree_error
    return dualtree.compute_tree(dualtree.build_dual_graph(order), order)


def cmd_vol(args) -> int:
    order, points = _load_input(args.input)
    pairs = pers.pairs(order, [args.degree])
    pair = _select_pair(pairs, args)
    if pair.essential:
        raise StarPairError("selected pair is essential")
    tree, eps = None, args.epsilon
    if args.method in ("optimal", "sub") and pair.degree == order.cx.dim - 1:
        try:
            tree = _tree_for(order, pairs, pair)
        except dualtree.ConditionError:  # no merge tree: the l1 program solves the pair
            pass
    if args.method == "optimal":
        if tree is not None:
            cells = dualtree.optimal_volume_tree(tree, pair)
            obj = _volume_json(order, points, pair, cells, "tree-optimal", None)
        else:
            sol = volopt.solve_volume(order, pair, "optimal", threshold=args.threshold)
            # a solve that returns reached the optimum; any other outcome raises LPError
            obj = _volume_json(order, points, pair, sol.cells, "lp-optimal", None,
                               {"objective": sol.objective, "status": "optimal"})
    elif args.method == "stable-tree":
        cells = dualtree.stable_volume_tree(_tree_for(order, pairs, pair), pair, eps)
        obj = _volume_json(order, points, pair, cells, "tree-stable", eps)
    elif args.method == "stable-lp":
        sol = volopt.solve_volume(order, pair, "stable", eps, threshold=args.threshold)
        obj = _volume_json(order, points, pair, sol.cells, "lp-stable", eps,
                           {"objective": sol.objective, "status": "optimal"})
    else:  # sub
        if tree is not None:
            ov = dualtree.optimal_volume_tree(tree, pair)
        else:
            ov = volopt.solve_volume(order, pair, "optimal", threshold=args.threshold).cells
        sol = volopt.solve_volume(order, pair, "sub", eps, ov_cells=ov,
                                  threshold=args.threshold)
        obj = _volume_json(order, points, pair, sol.cells, "lp-sub", eps,
                           {"objective": sol.objective, "status": "optimal"})
    _dump_json(obj, args.output)
    return 0


_MAX_GRID_POINTS = 1_000_000


def _parse_grid(spec: str):
    """The bandwidths A, A + STEP, ... up to B of an A:B:STEP grid, as a
    float array."""
    try:
        a, b, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise ValueError(f"--epsilon-grid: bad grid {spec!r}, expected A:B:STEP")
    if not all(map(math.isfinite, (a, b, step))):
        raise ValueError(f"--epsilon-grid: bad grid {spec!r}, A, B and STEP must be finite")
    if a < 0:
        raise ValueError(f"--epsilon-grid: bad grid {spec!r}, bandwidths must be >= 0")
    if step <= 0 or b < a:
        raise ValueError(f"--epsilon-grid: bad grid {spec!r}, need STEP > 0 and B >= A")
    # point i is kept when i <= (B - A) / STEP + 1e-9; the slack is in steps,
    # as one added to B would fall below an ulp of B once B is large
    count = (b - a) / step + 1e-9
    if not math.isfinite(count) or math.floor(count) + 1 > _MAX_GRID_POINTS:
        raise ValueError(
            f"--epsilon-grid: bad grid {spec!r}, more than {_MAX_GRID_POINTS} points"
        )
    return a + np.arange(math.floor(count) + 1) * step


def cmd_sweep(args) -> int:
    grid = _parse_grid(args.epsilon_grid)
    order, _ = _load_input(args.input)
    pairs = pers.pairs(order, [args.degree])
    pair = _select_pair(pairs, args)
    sizes = dualtree.sweep_sizes(_tree_for(order, pairs, pair), pair, grid)
    _emit(("".join(map("%r\t%d\n".__mod__, zip(grid[i : i + _CHUNK].tolist(),
                                                 sizes[i : i + _CHUNK].tolist())))
           for i in range(0, len(grid), _CHUNK)), args.output)
    return 0


def cmd_stat(args) -> int:
    try:
        noise = baselines.NoiseModel(args.noise, seed=args.seed)
    except ValueError as e:
        raise ValueError(f"--noise: {e}") from None
    order, points = _load_input(args.input)
    if points is None:
        raise ValueError("stat needs a pointcloud input")
    pair = _select_pair(pers.pairs(order, [args.degree]), args)
    fm = baselines.statistical_frequencies(points, pair, noise, args.trials)
    _emit(_stat_json(fm), args.output)
    return 0


def cmd_rsc(args) -> int:
    order, points = _load_input(args.input)
    if args.euclidean and points is None:
        raise ValueError("euclidean weights need point coordinates")
    if args.degree != 1:
        raise ValueError("reconstructed shortest cycles need degree 1")
    pairs, cocycle = pers.cohomology_reduce(order)
    pair = _select_pair(pairs, args)
    if pair.essential:
        raise StarPairError("essential pairs have no death index")
    k = args.k_index
    if k is None and args.bandwidth is not None:
        # the last step of the pair's window at or below birth + bandwidth
        window = order.level_array[order.order_array[pair.birth_rank : pair.death_rank]]
        below = np.flatnonzero(window <= pair.birth_time + args.bandwidth)
        k = pair.birth_rank + (int(below[-1]) if len(below) else 0)
    res = baselines.reconstructed_shortest_cycle(
        order, pair, cocycle(pair.birth_rank, pair.death_rank), k_rank=k,
        euclidean=args.euclidean, points=points,
    )
    loop = res.loop
    obj = {
        "pair": _pair_json(pair),
        "epsilon": args.bandwidth,
        "cells": [],
        "boundary": [] if loop is None else sorted(loop.edges),
        "points": []
        if (loop is None or points is None)
        else [list(map(float, points[v])) for v in loop.vertices],
        "method": "rsc",
        "status": res.status,
        "weight": None if loop is None else loop.weight,
        "k_rank": res.k_rank,
    }
    _dump_json(obj, args.output)
    return 0


def cmd_gen(args) -> int:
    _emit([alpha.format_pointcloud(fixtures.generate(args.fixture, args.seed))], args.output)
    return 0


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "pd": cmd_pd,
        "vol": cmd_vol,
        "sweep": cmd_sweep,
        "stat": cmd_stat,
        "rsc": cmd_rsc,
        "gen": cmd_gen,
    }
    # checked before the input is read; a degree above the dimension only
    # has an empty diagram, but no degree is negative
    degree = getattr(args, "degree", None)
    if isinstance(degree, list):  # pd's repeatable --degree
        degree = min(degree)
    if degree is not None and degree < 0:
        print("error: --degree must be >= 0", file=sys.stderr)
        return EXIT_PARSE
    if getattr(args, "seed", 0) < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return EXIT_PARSE
    if getattr(args, "trials", 1) < 1:
        print(f"error: --trials must be >= 1, got {args.trials}", file=sys.stderr)
        return EXIT_PARSE
    # both select rsc's step, and the output's epsilon would not be the one used
    if getattr(args, "k_index", None) is not None and args.bandwidth is not None:
        print("error: --k-index and --bandwidth cannot be combined", file=sys.stderr)
        return EXIT_PARSE
    # rounding at a threshold of 1 or more would drop every +-1 coefficient
    for opt, ok, rule in (
        ("epsilon", lambda x: x >= 0, ">= 0"),
        ("threshold", lambda x: 0 < x < 1, "in (0, 1)"),
        ("bandwidth", lambda x: x >= 0, ">= 0"),
    ):
        value = getattr(args, opt, None)
        if value is None:
            continue
        if not math.isfinite(value):
            print(f"error: --{opt} must be finite, got {value}", file=sys.stderr)
            return EXIT_PARSE
        if not ok(value):
            print(f"error: --{opt} must be {rule}, got {value}", file=sys.stderr)
            return EXIT_PARSE
    try:
        return handlers[args.command](args)
    except delaunay.DegenerateInputError as e:
        print(f"error: degenerate input: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except volopt.LPError as e:
        print(f"error: linear program: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except MissingExtensionError as e:
        print(f"error: scipy: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except StarPairError as e:
        print(f"error: essential pair: {e}", file=sys.stderr)
        return EXIT_STAR
    except PairSelectionError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
