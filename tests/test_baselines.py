import math
import random

import numpy as np
import pytest

from helpers import shortest_nontrivial_loop
from stablevol.alpha import PointCloud, alpha_filtration
from stablevol.baselines import (
    NoiseModel,
    optimal_volume_cells,
    reconstructed_shortest_cycle,
    statistical_frequencies,
)
from stablevol.complexes import boundary, chain_z2
from stablevol.dualtree import build_dual_graph, compute_tree
from stablevol.fixtures import appendix_filtration, fig1_five_points, hexagon, lattice_2d_defects
from stablevol import persistence as pers


def square_pair(order):
    d1 = pers.diagram(pers.reduce(order), order, 1)
    return max(d1.finite(), key=lambda p: p.death_time)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(0.0, seed=1)
    with pytest.raises(ValueError):
        NoiseModel(0.1, seed=1, kind="gaussian")


def test_zero_noise_limit_marks_unperturbed_boundary():
    pc = fig1_five_points()
    f = alpha_filtration(pc.points)
    pair = square_pair(f.order)
    cells = optimal_volume_cells(f.order, pair)
    bverts = {
        v
        for sid in boundary(f.order.cx, chain_z2(cells, f.order.cx)).support()
        for v in f.order.cx.simplices[sid]
    }
    fm = statistical_frequencies(pc, pair, NoiseModel(1e-9, seed=0), trials=10)
    assert fm.matched == 10
    for v in bverts:
        assert fm.frequencies[v] == 1.0
    # the apex may still appear occasionally: fig1 sits exactly on a level
    # tie, so arbitrarily small noise can flip the merge order
    assert fm.frequencies[4] < 1.0


def test_fig4_square_robust_apex_not():
    pc = fig1_five_points()
    f = alpha_filtration(pc.points)
    pair = square_pair(f.order)
    fm = statistical_frequencies(pc, pair, NoiseModel(0.05, seed=123), trials=60)
    assert fm.status == "ok"
    assert all(fm.frequencies[:4] > 0.9)
    assert fm.frequencies[4] < 0.5


def test_threshold_sets_nest():
    pc = lattice_2d_defects(seed=1, size=8, noise=0.03)
    f = alpha_filtration(pc.points)
    d1 = pers.diagram(pers.reduce(f.order), f.order, 1)
    pair = max(d1.finite(), key=lambda p: p.death_time - p.birth_time)
    fm = statistical_frequencies(pc, pair, NoiseModel(0.03, seed=5), trials=40)
    hi = {i for i, x in enumerate(fm.frequencies) if x > 0.9}
    lo = {i for i, x in enumerate(fm.frequencies) if x > 0.7}
    assert hi <= lo


def test_bitwise_reproducible_and_thread_invariant():
    pc = fig1_five_points()
    f = alpha_filtration(pc.points)
    pair = square_pair(f.order)
    runs = [
        statistical_frequencies(pc, pair, NoiseModel(0.04, seed=9), trials=24, threads=t)
        for t in (1, 1, 8)
    ]
    assert np.array_equal(runs[0].counts, runs[1].counts)
    assert np.array_equal(runs[0].counts, runs[2].counts)


# ---------------------------------------------------------------------------
# reconstructed shortest cycles


def appendix_pair_and_cut():
    o = appendix_filtration()
    pairs, cocys = pers.cohomology_reduce(o)
    p = next(q for q in pairs if q.degree == 1 and q.death_time - q.birth_time > 1)
    return o, p, cocys[(p.birth_rank, p.death_rank)]


def test_appendix_cocycle_has_three_edges():
    o, p, cut = appendix_pair_and_cut()
    assert (p.birth_time, p.death_time) == (2.0, 7.0)
    named = sorted(o.cx.simplices[s] for s in cut)
    assert named == [(0, 7), (2, 7), (4, 7)]


def test_appendix_loop_weights_tighten():
    o, p, cut = appendix_pair_and_cut()
    weights = []
    for k in range(p.birth_rank, p.death_rank):
        res = reconstructed_shortest_cycle(o, p, k_rank=k, cocycle=cut)
        assert res.status == "ok"
        weights.append(res.loop.weight)
    assert weights == sorted(weights, reverse=True)
    assert weights[0] == 8.0  # the birth-time loop itself
    assert weights[-1] == 3.0


def test_birth_rank_returns_birth_loop():
    o, p, cut = appendix_pair_and_cut()
    res = reconstructed_shortest_cycle(o, p, k_rank=p.birth_rank)
    assert res.loop.weight == 8.0
    assert len(res.loop.edges) == 8
    # it closes: Z/2 boundary of the edge sum vanishes
    assert not boundary(o.cx, chain_z2(res.loop.edges, o.cx))


def test_loop_is_simple_and_closed():
    o, p, cut = appendix_pair_and_cut()
    res = reconstructed_shortest_cycle(o, p, k_rank=p.death_rank - 1)
    loop = res.loop
    assert len(set(loop.vertices)) == len(loop.vertices)
    assert len(loop.edges) == len(loop.vertices)


def test_hexagon_loop_equals_bruteforce_oracle():
    f = alpha_filtration(hexagon().points)
    d1 = pers.diagram(pers.reduce(f.order), f.order, 1)
    pair = d1.finite()[0]
    # bandwidth below the chord level: only the six sides exist
    cap = pair.birth_time + 0.4
    k = max(
        pos
        for pos in range(pair.birth_rank, pair.death_rank)
        if f.order.level_at_rank(pos) <= cap
    )
    res = reconstructed_shortest_cycle(f.order, pair, k_rank=k)
    want = shortest_nontrivial_loop(f.order, k)
    assert want is not None
    assert res.loop.weight == want[0] == 6.0
    assert set(res.loop.edges) == want[1]
    # at the default step (just before death) chords admit a tighter loop;
    # it must still match the brute-force optimum and be nontrivial
    res2 = reconstructed_shortest_cycle(f.order, pair)
    want2 = shortest_nontrivial_loop(f.order, pair.death_rank - 1)
    assert res2.loop.weight == want2[0]


def test_weight_monotone_on_hexagon():
    f = alpha_filtration(hexagon().points)
    d1 = pers.diagram(pers.reduce(f.order), f.order, 1)
    pair = d1.finite()[0]
    prev = math.inf
    for k in range(pair.birth_rank, pair.death_rank):
        res = reconstructed_shortest_cycle(f.order, pair, k_rank=k)
        assert res.loop.weight <= prev
        prev = res.loop.weight


def test_euclidean_weights():
    f = alpha_filtration(hexagon().points)
    d1 = pers.diagram(pers.reduce(f.order), f.order, 1)
    pair = d1.finite()[0]
    res = reconstructed_shortest_cycle(
        f.order, pair, k_rank=pair.birth_rank, euclidean=True, points=f.points.points
    )
    assert abs(res.loop.weight - 6.0) < 1e-9  # unit side length


def test_disconnecting_cut_reported_not_fatal():
    o, p, _ = appendix_pair_and_cut()
    # a fake cut isolating vertex 0 disconnects every crossing
    fake = {i for i in range(len(o.cx)) if o.cx.dim_of(i) == 1 and 0 in o.cx.simplices[i]}
    res = reconstructed_shortest_cycle(o, p, k_rank=p.birth_rank, cocycle=fake)
    assert res.status == "disconnected"
    assert res.loop is None


def test_rsc_degree_guard():
    o, p, _ = appendix_pair_and_cut()
    h0 = [q for q in pers.reduce(o) if q.degree == 0 and not q.essential][0]
    with pytest.raises(ValueError):
        reconstructed_shortest_cycle(o, h0)


def test_unmatched_trials_reported_with_warning():
    import math as _math

    pc = fig1_five_points()
    ghost = pers.PersistencePair(1, 0, 1, 50.0, 60.0, 0, 1)  # matches nothing
    fm = statistical_frequencies(pc, ghost, NoiseModel(0.01, seed=2), trials=6)
    assert fm.matched == 0
    assert fm.status.startswith("warning")
    assert not fm.frequencies.any()
