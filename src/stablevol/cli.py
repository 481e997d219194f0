"""Batch command-line front end.

Subcommands: pd (diagrams), vol (volumes), sweep (epsilon vs size), stat
(statistical resampling baseline), rsc (reconstructed shortest cycles), gen
(dataset fixtures). Results go to stdout or -o; logs go to stderr. Exit
codes: 0 ok, 2 parse error, 3 degenerate input, 4 pair not uniquely
resolvable, 5 essential pair.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import persistence as pers
from . import volopt
from .alpha import alpha_filtration, format_pointcloud, parse_pointcloud
from .baselines import NoiseModel, reconstructed_shortest_cycle, statistical_frequencies
from .complexes import boundary, chain_z2, complex_from_json
from .delaunay import DegenerateInputError
from .dualtree import (
    build_dual_graph,
    compute_tree,
    optimal_volume_tree,
    stable_volume_tree,
    sweep_sizes,
)
from .fixtures import GENERATORS, generate
from .persistence import StarPairError

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
                   help="LP support rounding threshold")

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
    p.add_argument("fixture", choices=sorted(GENERATORS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    return ap


# ---------------------------------------------------------------------------
# helpers


def _load_input(path):
    """Returns (order, points_or_None). Pointclouds get an alpha filtration."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}")
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path} is empty")
    if stripped[0] == "{":
        order = complex_from_json(text)
        return order, None
    pc = parse_pointcloud(text)
    filt = alpha_filtration(pc)
    return filt.order, pc.points


def _parse_window(spec: str, exact_tol: float = 1e-9):
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        return float(lo), float(hi)
    x = float(spec)
    return x - exact_tol, x + exact_tol


def _sorted_diagram_pairs(order, degree):
    pairs = pers.reduce(order)
    diag = pers.diagram(pairs, order, degree)
    return sorted(diag.pairs, key=lambda p: (p.birth_time, p.death_time, p.birth_rank))


def _select_pair(order, args):
    has_index = args.pair_index is not None
    has_window = args.birth is not None or args.death is not None
    if has_index == has_window:
        raise PairSelectionError(
            "exactly one pair selector required: --pair-index or --birth/--death"
        )
    cands = _sorted_diagram_pairs(order, args.degree)
    if has_index:
        if not 0 <= args.pair_index < len(cands):
            raise PairSelectionError(
                f"pair index {args.pair_index} out of range ({len(cands)} pairs)"
            )
        return cands[args.pair_index]
    if args.birth is not None:
        lo, hi = _parse_window(args.birth)
        cands = [p for p in cands if lo <= p.birth_time <= hi]
    if args.death is not None:
        lo, hi = _parse_window(args.death)
        cands = [p for p in cands if not p.essential and lo <= p.death_time <= hi]
    if len(cands) != 1:
        raise PairSelectionError(
            f"selector matched {len(cands)} pairs; need exactly one"
        )
    return cands[0]


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj, out_path):
    _emit(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n", out_path)


def _pair_json(p, squared=False):
    tr = (lambda x: x * x) if squared else (lambda x: x)
    return {
        "degree": p.degree,
        "birth": tr(p.birth_time),
        "death": None if p.essential else tr(p.death_time),
        "birth_simplex": p.birth_simplex,
        "death_simplex": p.death_simplex,
    }


def _volume_json(order, points, pair, cells, method, epsilon, extra=None):
    bnd = boundary(order.cx, chain_z2(cells, order.cx))
    bverts = sorted({v for sid in bnd.support() for v in order.cx.simplices[sid]})
    obj = {
        "pair": _pair_json(pair),
        "epsilon": epsilon,
        "cells": sorted(cells),
        "boundary": sorted(bnd.support()),
        "points": [] if points is None else [list(map(float, points[v])) for v in bverts],
        "method": method,
    }
    if extra:
        obj.update(extra)
    return obj


# ---------------------------------------------------------------------------
# subcommands


def cmd_pd(args) -> int:
    order, _ = _load_input(args.input)
    pairs = pers.reduce(order)
    degrees = args.degree if args.degree else list(range(order.cx.dim + 1))
    out = {"diagrams": [], "squared": bool(args.squared)}
    rows = []
    for k in degrees:
        diag = pers.diagram(pairs, order, k)
        listed = sorted(diag.pairs, key=lambda p: (p.birth_time, p.death_time, p.birth_rank))
        out["diagrams"].append(
            {"degree": k, "pairs": [_pair_json(p, args.squared) for p in listed]}
        )
        for p in listed:
            b = p.birth_time ** 2 if args.squared else p.birth_time
            d = p.death_time ** 2 if args.squared else p.death_time
            rows.append(f"{k}\t{b!r}\t{'inf' if math.isinf(d) else repr(d)}")
    if args.scatter:
        _emit("degree\tbirth\tdeath\n" + "".join(r + "\n" for r in rows), args.scatter)
    _dump_json(out, args.output)
    return 0


def _tree_for(order):
    return compute_tree(build_dual_graph(order), order)


def cmd_vol(args) -> int:
    order, points = _load_input(args.input)
    pair = _select_pair(order, args)
    if pair.essential:
        raise StarPairError("selected pair is essential")
    codim1 = pair.degree == order.cx.dim - 1
    eps = args.epsilon
    if args.method == "optimal":
        if codim1:
            cells = optimal_volume_tree(_tree_for(order), pair)
            obj = _volume_json(order, points, pair, cells, "tree-optimal", None)
        else:
            sol = volopt.solve_volume(order, pair, "optimal", threshold=args.threshold)
            obj = _volume_json(order, points, pair, sol.cells, "lp-optimal", None,
                               {"objective": sol.objective, "status": sol.status})
    elif args.method == "stable-tree":
        res = stable_volume_tree(_tree_for(order), pair, eps)
        obj = _volume_json(order, points, pair, res.cells, "tree-stable", eps)
    elif args.method == "stable-lp":
        sol = volopt.solve_volume(order, pair, "stable", eps, threshold=args.threshold)
        obj = _volume_json(order, points, pair, sol.cells, "lp-stable", eps,
                           {"objective": sol.objective, "status": sol.status})
    else:  # sub
        if codim1:
            ov = optimal_volume_tree(_tree_for(order), pair)
        else:
            ov = volopt.solve_volume(order, pair, "optimal", threshold=args.threshold).cells
        sol = volopt.solve_volume(order, pair, "sub", eps, ov_cells=ov,
                                  threshold=args.threshold)
        obj = _volume_json(order, points, pair, sol.cells, "lp-sub", eps,
                           {"objective": sol.objective, "status": sol.status})
    _dump_json(obj, args.output)
    return 0


def _parse_grid(spec: str):
    try:
        a, b, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise ValueError(f"bad grid {spec!r}, expected A:B:STEP")
    if step <= 0 or b < a:
        raise ValueError(f"bad grid {spec!r}")
    n = int(round((b - a) / step))
    return [a + i * step for i in range(n + 1) if a + i * step <= b + 1e-12]


def cmd_sweep(args) -> int:
    order, _ = _load_input(args.input)
    pair = _select_pair(order, args)
    grid = _parse_grid(args.epsilon_grid)
    if pair.degree != order.cx.dim - 1:
        raise PairSelectionError("sweep needs a codimension-1 pair (tree method)")
    rows = sweep_sizes(_tree_for(order), pair, grid)
    _emit("".join(f"{e!r}\t{s}\n" for e, s in rows), args.output)
    return 0


def cmd_stat(args) -> int:
    order, points = _load_input(args.input)
    if points is None:
        raise ValueError("stat needs a pointcloud input")
    from .alpha import PointCloud

    pc = PointCloud(points.shape[1], points)
    pair = _select_pair(order, args)
    fm = statistical_frequencies(pc, pair, NoiseModel(args.noise, seed=args.seed), args.trials)
    obj = {
        "trials": fm.trials,
        "matched": fm.matched,
        "status": fm.status,
        "frequencies": [
            {"point": i, "f": float(f)} for i, f in enumerate(fm.frequencies)
        ],
    }
    _dump_json(obj, args.output)
    return 0


def cmd_rsc(args) -> int:
    order, points = _load_input(args.input)
    args_degree = getattr(args, "degree", 1)
    if args_degree != 1:
        raise PairSelectionError("reconstructed shortest cycles need degree 1")
    pair = _select_pair(order, args)
    k = args.k_index
    if k is None and args.bandwidth is not None:
        cap = pair.birth_time + args.bandwidth
        k = pair.birth_rank
        for pos in range(pair.birth_rank, pair.death_rank):
            if order.level_at_rank(pos) <= cap:
                k = pos
    res = reconstructed_shortest_cycle(
        order, pair, k_rank=k, euclidean=args.euclidean, points=points
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
        "k_rank": pair.death_rank - 1 if k is None else k,
    }
    _dump_json(obj, args.output)
    return 0


def cmd_gen(args) -> int:
    pc = generate(args.fixture, args.seed)
    _emit(format_pointcloud(pc), args.output)
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
    try:
        return handlers[args.command](args)
    except DegenerateInputError as e:
        print(f"error: degenerate input: {e}", file=sys.stderr)
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
