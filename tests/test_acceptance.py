"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Stochastic criteria (2 and 8) use fixed seed sets and the
stated success thresholds.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import (
    admissible_order,
    appendix_filtration,
    bottleneck,
    bottleneck_bruteforce,
    brute_force_volume,
    cocycle_of,
    diagram,
    finite,
    perturbed_order,
    shortest_nontrivial_loop,
)
from stablevol import persistence as pers
from stablevol import volopt as V
from stablevol.alpha import alpha_filtration
from stablevol.baselines import reconstructed_shortest_cycle
from stablevol.cli import main
from stablevol.complexes import boundary
from stablevol.dualtree import (
    build_dual_graph,
    compute_tree,
    optimal_volume_tree,
    stable_volume_tree,
    sweep_sizes,
)
from stablevol.fixtures import (
    annulus,
    fig1_five_points,
    hexagon,
    lattice_2d_defects,
    lattice_3x3x3,
)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def tree_of(order):
    return compute_tree(build_dual_graph(order), order)


def boundary_vertex_count(order, cells):
    bnd = boundary(order.cx, order.cx.dim_of(next(iter(cells))), cells)
    return len({v for sid in bnd for v in order.cx.simplices[sid]})


def test_criterion_1_fig1_exactness(tmp_path):
    t0 = time.perf_counter()
    path = tmp_path / "fig1.txt"
    assert main(["gen", "fig1-five-points", "-o", str(path)]) == 0
    assert main(["pd", str(path), "--degree", "1", "-o", str(tmp_path / "pd.json")]) == 0
    obj = json.loads((tmp_path / "pd.json").read_text())
    vals = sorted((p["birth"], p["death"]) for p in obj["diagrams"][0]["pairs"])
    elapsed = time.perf_counter() - t0
    ok = (
        len(vals) == 2
        and abs(vals[0][0] - 0.5) < 1e-9
        and abs(vals[0][1] - 1 / math.sqrt(3)) < 1e-9
        and abs(vals[1][0] - 0.5) < 1e-9
        and abs(vals[1][1] - 1 / math.sqrt(2)) < 1e-9
        and elapsed < 1.0
    )
    report(1, ok, f"PD1 = {vals}, {elapsed:.2f}s")


def test_criterion_2_lattice_statistics():
    t0 = time.perf_counter()
    all_square_seeds = 0
    nonsquare_ov_seeds = 0
    seeds = range(20)
    for seed in seeds:
        f = alpha_filtration(lattice_3x3x3(seed))
        d1 = diagram(pers.reduce(f), 1)
        window = [p for p in finite(d1) if 0.4 <= p.birth_time <= 0.6]
        good = len(window) == 28
        any_big = False
        for p in window:
            try:
                sv = V.solve_volume(f, p, "stable", 0.05)
            except V.ApproximationMismatch:
                good = False
                continue
            if boundary_vertex_count(f, sv.cells) != 4:
                good = False
            ov = V.solve_volume(f, p, "optimal")
            if boundary_vertex_count(f, ov.cells) > 4:
                any_big = True
        all_square_seeds += good
        nonsquare_ov_seeds += any_big
    elapsed = time.perf_counter() - t0
    ok = all_square_seeds >= 18 and nonsquare_ov_seeds >= 15 and elapsed < 30.0
    report(
        2,
        ok,
        f"{all_square_seeds}/20 seeds all-square stable volumes, "
        f"{nonsquare_ov_seeds}/20 seeds with >4-vertex optimal volume, {elapsed:.1f}s",
    )


def test_criterion_3_tree_lp_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    cases = mismatches = 0
    for _ in range(100):
        n = int(rng.integers(5, 26))
        pts = rng.random((n, 2)) * 3.0
        f = alpha_filtration(pts)
        tree = tree_of(f)
        for pair in tree.pairs_table():
            for eps in (0.0, 0.05, 0.1, 0.2):
                sv_tree = stable_volume_tree(tree, pair, eps)
                sv_lp = V.solve_volume(f, pair, "stable", eps).cells
                cases += 1
                if sv_lp != sv_tree:
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and cases > 0 and elapsed < 60.0
    report(3, ok, f"{cases} pair/epsilon cases, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_4_l0_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    codim1 = {"n": 0, "agree": 0}
    deg1_3d = {"n": 0, "agree": 0, "mismatch": 0}
    total = 0
    while total < 200:
        use_3d = total % 2 == 1
        n = int(rng.integers(8, 15 if use_3d else 19))
        pts = rng.random((n, 3 if use_3d else 2)) * 2.0
        f = alpha_filtration(pts)
        pairs = [p for p in pers.reduce(f) if p.degree == 1 and not p.essential]
        order_ids = rng.permutation(len(pairs))
        for idx in order_ids[:3]:
            p = pairs[int(idx)]
            eps = float(rng.choice([0.0, 0.02, 0.06]))
            prob = V.make_problem(f, p, "stable", eps)
            if len(prob.candidates) > 18:
                continue
            oracle = brute_force_volume(prob)
            bucket = deg1_3d if use_3d else codim1
            bucket["n"] += 1
            total += 1
            try:
                sol = V.solve_volume(f, p, "stable", eps)
                assert not V.z2_violations(prob, sol.cells)  # no silent escape
                bucket["agree"] += len(sol.cells) == len(oracle)
            except V.ApproximationMismatch:
                bucket["mismatch"] = bucket.get("mismatch", 0) + 1
            if total >= 200:
                break
    elapsed = time.perf_counter() - t0
    rate_3d = deg1_3d["agree"] / max(deg1_3d["n"], 1)
    ok = (
        codim1["agree"] == codim1["n"] > 0
        and deg1_3d["n"] > 0
        and rate_3d > 0.80
        and elapsed < 60.0
    )
    report(
        4,
        ok,
        f"codim-1 {codim1['agree']}/{codim1['n']}, 3D degree-1 rate "
        f"{rate_3d:.2%} ({deg1_3d.get('mismatch', 0)} surfaced mismatches), {elapsed:.1f}s",
    )


def test_criterion_5_stability_fuzz():
    import random

    t0 = time.perf_counter()
    fixtures = [
        alpha_filtration(fig1_five_points()),
        alpha_filtration(hexagon()),
        appendix_filtration(),
    ]
    rng = random.Random(55)
    checked = oracle_checked = 0
    for order in fixtures:
        base = pers.reduce(order)
        for _ in range(100):
            mag = rng.uniform(0.001, 0.3)
            oq, dist = perturbed_order(order, mag, rng)
            qpairs = pers.reduce(oq)
            for k in range(order.cx.dim + 1):
                d1 = diagram(base, k)
                d2 = diagram(qpairs, k)
                d = bottleneck(d1, d2)
                assert d <= dist + 1e-12, (k, d, dist)
                checked += 1
                if len(d1) + len(d2) <= 7:
                    assert abs(d - bottleneck_bruteforce(d1, d2)) < 1e-12
                    oracle_checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 300 and oracle_checked >= 100
    report(
        5,
        ok,
        f"{checked} diagram comparisons within bound, {oracle_checked} "
        f"oracle-verified, {elapsed:.1f}s",
    )


def test_criterion_6_nesting_laws():
    t0 = time.perf_counter()
    fixtures = [
        alpha_filtration(fig1_five_points()),
        alpha_filtration(hexagon()),
        alpha_filtration(annulus(seed=1)),
        alpha_filtration(lattice_3x3x3(seed=0)),
        alpha_filtration(lattice_2d_defects(seed=0)),
    ]
    grid = [0.0, 0.02, 0.05, 0.1, 0.2, 0.4]
    for order in fixtures:
        tree = tree_of(order)
        pairs = list(tree.pairs_table())
        n = order.cx.dim
        red = {
            (p.birth_simplex, p.death_simplex)
            for p in pers.reduce(order)
            if p.degree == n - 1 and not p.essential
        }
        assert {(p.birth_simplex, p.death_simplex) for p in pairs} == red
        vols = []
        for p in pairs:
            ov = optimal_volume_tree(tree, p)
            prev = ov
            for eps in grid:
                sv = stable_volume_tree(tree, p, eps)
                assert sv <= prev and sv <= ov
                prev = sv
            vols.append(ov)
        for i in range(len(vols)):
            for j in range(i + 1, len(vols)):
                a, b = vols[i], vols[j]
                assert not (a & b) or a <= b or b <= a
    elapsed = time.perf_counter() - t0
    report(6, True, f"nesting + pair identity on {len(fixtures)} fixtures, {elapsed:.1f}s")


def test_criterion_7_sampled_inclusion():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    eps = 0.05
    samples = violations = 0
    for order in (
        alpha_filtration(fig1_five_points()),
        alpha_filtration(annulus(seed=3)),
    ):
        tree = tree_of(order)
        for pair in tree.pairs_table():
            sv = stable_volume_tree(tree, pair, eps)
            for _ in range(50):
                oq = admissible_order(order, pair, eps, rng)
                qtree = tree_of(oq)
                qpair = next(
                    p for p in qtree.pairs_table() if p.death_simplex == pair.death_simplex
                )
                samples += 1
                if not sv <= optimal_volume_tree(qtree, qpair):
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and samples >= 100
    report(7, ok, f"{samples} admissible perturbations, {violations} violations, {elapsed:.1f}s")


def test_criterion_8_plateau_reproduction():
    """Sweeps of the largest-persistence pair must show a wide flat stretch:
    in at least 16 of 20 seeds, some maximal constant run of the size curve
    has width >= 0.10 and starts within [0.03, 0.30], i.e. a stable plateau
    appears shortly after the initial decay."""
    t0 = time.perf_counter()
    hits = 0
    for seed in range(20):
        f = alpha_filtration(lattice_2d_defects(seed))
        tree = tree_of(f)
        finite = [p for p in tree.pairs_table() if p.death_time > p.birth_time]
        target = max(finite, key=lambda p: p.death_time - p.birth_time)
        grid = [i * 0.01 for i in range(41)]
        sizes = sweep_sizes(tree, target, grid).tolist()
        rows = list(zip(grid, sizes))
        assert sizes == sorted(sizes, reverse=True)
        runs = []
        start = rows[0][0]
        prev = rows[0]
        for e, s in rows[1:]:
            if s != prev[1]:
                runs.append((start, prev[0]))
                start = e
            prev = (e, s)
        runs.append((start, prev[0]))
        if any(b - a >= 0.10 - 1e-9 and 0.03 <= a <= 0.30 for a, b in runs):
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 16 and elapsed < 60.0
    report(8, ok, f"{hits}/20 seeds with a wide plateau, {elapsed:.1f}s")


def test_criterion_9_reconstructed_cycles():
    t0 = time.perf_counter()
    o = appendix_filtration()
    pairs, cocycle = pers.cohomology_reduce(o)
    pair = next(p for p in pairs if p.degree == 1 and p.death_time - p.birth_time > 1)
    cut = cocycle(pair.birth_rank, pair.death_rank)
    weights = {}
    for k in range(pair.birth_rank, pair.death_rank):
        res = reconstructed_shortest_cycle(o, pair, cut, k_rank=k)
        weights[k] = res.loop.weight
    ws = [weights[k] for k in sorted(weights)]
    monotone = ws == sorted(ws, reverse=True)

    def analogue(level):
        return max(k for k in weights if o.level_array[o.order_array[k]] <= level)

    w4, w5 = weights[analogue(4.0)], weights[analogue(5.0)]

    f = alpha_filtration(hexagon())
    hpair = finite(diagram(pers.reduce(f), 1))[0]
    cap = hpair.birth_time + 0.4
    k_hex = max(
        pos
        for pos in range(hpair.birth_rank, hpair.death_rank)
        if f.level_array[f.order_array[pos]] <= cap
    )
    res_hex = reconstructed_shortest_cycle(f, hpair, cocycle_of(f, hpair),
                                           k_rank=k_hex)
    want = shortest_nontrivial_loop(f, k_hex)
    hex_ok = set(res_hex.loop.edges) == want[1] and res_hex.loop.weight == want[0]
    elapsed = time.perf_counter() - t0
    ok = monotone and w5 < w4 and hex_ok
    report(
        9,
        ok,
        f"weights {ws}, step-4 {w4} > step-5 {w5}, hexagon loop matches "
        f"brute force ({int(want[0])} edges), {elapsed:.1f}s",
    )


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    lat = tmp_path / "lat.txt"
    assert main(["gen", "lattice-2d-defects", "--seed", "3", "-o", str(lat)]) == 0
    assert main(["gen", "lattice-2d-defects", "--seed", "3", "-o", str(tmp_path / "lat2.txt")]) == 0
    assert lat.read_bytes() == (tmp_path / "lat2.txt").read_bytes()

    fig = tmp_path / "fig1.txt"
    assert main(["gen", "fig1-five-points", "-o", str(fig)]) == 0
    invocations = [
        ["pd", str(fig)],
        ["vol", str(fig), "--pair-index", "1", "--method", "stable-lp", "--epsilon", "0.05"],
        ["vol", str(fig), "--pair-index", "1", "--method", "stable-tree", "--epsilon", "0.05"],
        ["sweep", str(fig), "--pair-index", "1", "--epsilon-grid", "0:0.3:0.01"],
        ["stat", str(fig), "--pair-index", "1", "--noise", "0.05", "--trials", "16",
         "--seed", "11"],
        ["rsc", str(fig), "--pair-index", "1", "--bandwidth", "0.05"],
    ]
    for argv in invocations:
        outs = []
        for run_i, threads in enumerate((1, 1, 8)):
            out = tmp_path / f"out_{run_i}.bin"
            # only stat takes --threads, which has no effect on its output
            extra = ["--threads", str(threads)] if argv[0] == "stat" else []
            assert main(argv + extra + ["-o", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2], argv
    elapsed = time.perf_counter() - t0
    report(10, True, f"{len(invocations)} invocations byte-identical across runs "
                     f"(stat also across --threads values), {elapsed:.1f}s")
