import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    VIEWS,
    appendix_filtration,
    cocycle_of,
    diagram,
    edge_length_oracle,
    finite,
    geometry_cases,
    shortest_nontrivial_loop,
    shortest_path_oracle,
    statistical_frequencies_oracle,
    torus3d_order,
)
from stablevol import baselines
from stablevol.alpha import alpha_filtration
from stablevol.baselines import (
    NoiseModel,
    optimal_volume_cells,
    reconstructed_shortest_cycle,
    statistical_frequencies,
)
from stablevol.complexes import boundary
from stablevol.delaunay import DegenerateInputError
from stablevol.dualtree import build_dual_graph, compute_tree, optimal_volume_tree
from stablevol.fixtures import (
    fig1_five_points,
    generate,
    hexagon,
    lattice_2d_defects,
)
from stablevol import persistence as pers


def square_pair(order):
    return max(finite(diagram(pers.reduce(order), 1)), key=lambda p: p.death_time)


def test_noise_model_validation():
    # both messages name the rejected value
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"^noise half width must be positive, got {bad}$"):
            NoiseModel(bad, seed=1)
    for bad in (math.nan, math.inf, -math.inf, 1e308):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(bad, seed=1)


def test_perturb_adds_the_default_rng_noise():
    pts = fig1_five_points()
    for seed, trial, h in [(0, 0, 0.05), (3, 7, 1e-300), (2**64 + 3, 2**33, 1e300)]:
        want = pts + np.random.default_rng([seed, trial]).uniform(-h, h, pts.shape)
        assert NoiseModel(h, seed).perturb(pts, trial).tobytes() == want.tobytes()


def test_zero_noise_limit_marks_unperturbed_boundary():
    pc = fig1_five_points()
    f = alpha_filtration(pc)
    pair = square_pair(f)
    cells = optimal_volume_cells(f, pair)
    bverts = {
        v
        for sid in boundary(f.cx, pair.degree + 1, cells)
        for v in f.cx.simplices[sid]
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
    f = alpha_filtration(pc)
    pair = square_pair(f)
    fm = statistical_frequencies(pc, pair, NoiseModel(0.05, seed=123), trials=60)
    assert fm.status == "ok"
    assert all(fm.frequencies[:4] > 0.9)
    assert fm.frequencies[4] < 0.5


def test_threshold_sets_nest():
    pc = lattice_2d_defects(seed=1, size=8, noise=0.03)
    f = alpha_filtration(pc)
    d1 = finite(diagram(pers.reduce(f), 1))
    pair = max(d1, key=lambda p: p.death_time - p.birth_time)
    fm = statistical_frequencies(pc, pair, NoiseModel(0.03, seed=5), trials=40)
    hi = {i for i, x in enumerate(fm.frequencies) if x > 0.9}
    lo = {i for i, x in enumerate(fm.frequencies) if x > 0.7}
    assert hi <= lo


def test_bitwise_reproducible_and_thread_invariant():
    pc = fig1_five_points()
    f = alpha_filtration(pc)
    pair = square_pair(f)
    # the trials run in order in the calling thread; `stat --threads` has no
    # effect (test_cli.test_stat_deterministic_across_threads)
    runs = [
        statistical_frequencies(pc, pair, NoiseModel(0.04, seed=9), trials=24)
        for _ in range(3)
    ]
    assert np.array_equal(runs[0].counts, runs[1].counts)
    assert np.array_equal(runs[0].counts, runs[2].counts)


# ---------------------------------------------------------------------------
# reconstructed shortest cycles


def appendix_pair_and_cut():
    o = appendix_filtration()
    pairs, cocycle = pers.cohomology_reduce(o)
    p = next(q for q in pairs if q.degree == 1 and q.death_time - q.birth_time > 1)
    return o, p, cocycle(p.birth_rank, p.death_rank)


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
    res = reconstructed_shortest_cycle(o, p, cut, k_rank=p.birth_rank)
    assert res.loop.weight == 8.0
    assert len(res.loop.edges) == 8
    # it closes: Z/2 boundary of the edge sum vanishes
    assert boundary(o.cx, 1, res.loop.edges) == set()


def test_loop_is_simple_and_closed():
    o, p, cut = appendix_pair_and_cut()
    res = reconstructed_shortest_cycle(o, p, cut, k_rank=p.death_rank - 1)
    loop = res.loop
    assert len(set(loop.vertices)) == len(loop.vertices)
    assert len(loop.edges) == len(loop.vertices)


def test_hexagon_loop_equals_bruteforce_oracle():
    f = alpha_filtration(hexagon())
    pair = finite(diagram(pers.reduce(f), 1))[0]
    cut = cocycle_of(f, pair)
    # bandwidth below the chord level: only the six sides exist
    cap = pair.birth_time + 0.4
    k = max(
        pos
        for pos in range(pair.birth_rank, pair.death_rank)
        if f.level_array[f.order_array[pos]] <= cap
    )
    res = reconstructed_shortest_cycle(f, pair, cut, k_rank=k)
    want = shortest_nontrivial_loop(f, k)
    assert want is not None
    assert res.loop.weight == want[0] == 6.0
    assert set(res.loop.edges) == want[1]
    # at the default step (just before death) chords admit a tighter loop;
    # it must still match the brute-force optimum and be nontrivial
    res2 = reconstructed_shortest_cycle(f, pair, cut)
    want2 = shortest_nontrivial_loop(f, pair.death_rank - 1)
    assert res2.loop.weight == want2[0]


def test_weight_monotone_on_hexagon():
    f = alpha_filtration(hexagon())
    pair = finite(diagram(pers.reduce(f), 1))[0]
    cut = cocycle_of(f, pair)
    prev = math.inf
    for k in range(pair.birth_rank, pair.death_rank):
        res = reconstructed_shortest_cycle(f, pair, cut, k_rank=k)
        assert res.loop.weight <= prev
        prev = res.loop.weight


def test_euclidean_weights():
    f = alpha_filtration(hexagon())
    pair = finite(diagram(pers.reduce(f), 1))[0]
    res = reconstructed_shortest_cycle(
        f, pair, cocycle_of(f, pair), k_rank=pair.birth_rank, euclidean=True,
        points=hexagon(),
    )
    assert abs(res.loop.weight - 6.0) < 1e-9  # unit side length


@pytest.mark.parametrize("dim", [2, 3])
def test_edge_lengths_are_the_oracle_floats(dim):
    """Bit for bit the Python-float lengths, over edges within one scale and
    between points whose scales differ by up to 2**1800."""
    rng = np.random.default_rng([dim, 4000])
    pts = rng.random((4000, dim)) * 40
    pts[1::2] = np.ldexp(pts[1::2], rng.integers(-900, 900, (2000, 1)))
    ends = rng.integers(0, len(pts), (4000, 2))
    ends = ends[ends[:, 0] != ends[:, 1]]
    got = baselines._edge_lengths(pts, ends).tolist()
    assert got == [edge_length_oracle(pts[u], pts[v]) for u, v in ends.tolist()]


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
        reconstructed_shortest_cycle(o, h0, set())


def test_unmatched_trials_reported_with_warning():
    import math as _math

    pc = fig1_five_points()
    ghost = pers.PersistencePair(1, 0, 1, 50.0, 60.0, 0, 1)  # matches nothing
    fm = statistical_frequencies(pc, ghost, NoiseModel(0.01, seed=2), trials=6)
    assert fm.matched == 0
    assert fm.status.startswith("warning")
    assert not fm.frequencies.any()


# ---------------------------------------------------------------------------
# loop search: one Dijkstra heap shared by the searches of all crossing
# edges, with hop or euclidean weights, against one unbounded Dijkstra run
# per crossing edge


def rsc_steps(o, most=12):
    """(pair, step, cocycle) for three steps of each of the `most` most
    persistent finite degree-1 pairs."""
    pairs, cocycle = pers.cohomology_reduce(o)
    finite = [p for p in pairs if not p.essential and p.birth_time != p.death_time]
    finite.sort(key=lambda p: (p.birth_time - p.death_time, p.birth_rank))
    for p in finite[:most]:
        for k in sorted({p.birth_rank, (p.birth_rank + p.death_rank) // 2, p.death_rank - 1}):
            yield p, k, cocycle(p.birth_rank, p.death_rank)


SEARCH = baselines._shortest_path


def adjacency_of(edges):
    """`_adjacency`'s map, vertex -> sorted [(neighbour, weight, edge id)],
    from (u, v, weight, edge id) rows."""
    adj = {}
    for u, v, w, sid in edges:
        adj.setdefault(u, []).append((v, w, sid))
        adj.setdefault(v, []).append((u, w, sid))
    return {u: sorted(lst) for u, lst in adj.items()}


def oracle_loops(adj, crossings, ends, weights):
    """(weight, sorted edge tuple, edges, vertices) of each crossing edge's
    loop, in crossing order, from one unbounded `shortest_path_oracle` run
    each (None where the endpoints are not joined)."""
    out = []
    for sid, (u, v), w in zip(crossings, ends, weights):
        path = shortest_path_oracle(adj, u, v)
        if path is None:
            out.append(None)
        else:
            edges = path[1] + [sid]
            out.append((path[0] + w, tuple(sorted(edges)), edges, path[2]))
    return out


def oracle_loop(adj, crossings, ends, weights):
    """The lightest of `oracle_loops`, as `_shortest_path` returns it."""
    return min((q for q in oracle_loops(adj, crossings, ends, weights) if q is not None),
               default=None)


def crossing_searches(o, k, cocycle, points=None):
    """`oracle_loops` of the crossing edges at step k. Weights are hop
    counts, or `edge_length_oracle` lengths given `points`."""
    cx = o.cx
    present = [sid for sid in o.order_array[: k + 1].tolist() if cx.dim_of(sid) == 1]

    def weight(sid):
        u, v = cx.simplices[sid]
        return 1.0 if points is None else edge_length_oracle(points[u], points[v])

    crossings = [sid for sid in present if sid in cocycle]
    adj = adjacency_of([(*cx.simplices[sid], weight(sid), sid)
                        for sid in present if sid not in cocycle])
    return oracle_loops(adj, crossings, [cx.simplices[sid] for sid in crossings],
                        [weight(sid) for sid in crossings])


def per_edge_search(o, k, cocycle, points=None):
    """The `RscResult` that the lightest of `crossing_searches` gives."""
    loops = crossing_searches(o, k, cocycle, points)
    found = [q for q in loops if q is not None]
    if not found:
        return baselines.RscResult(None, k, "disconnected")
    weight, _, edges, verts = min(found)
    return baselines.RscResult(baselines.CycleLoop(edges, verts, weight), k)


def rsc_inputs(name):
    if name == "appendix":
        return appendix_filtration(), None
    pts = geometry_cases()[name]
    return alpha_filtration(pts), pts


def spy_on_search(monkeypatch):
    """Records the crossing edge ids of every `_shortest_path` call."""
    searched = []

    def spy(adj, crossings, ends, weights, wmin):
        searched.append(crossings)
        return SEARCH(adj, crossings, ends, weights, wmin)

    monkeypatch.setattr(baselines, "_shortest_path", spy)
    return searched


@pytest.mark.parametrize(
    "name, euclidean",
    [
        ("appendix", False),
        ("gen-annulus", False),
        ("gen-annulus", True),
        ("gen-lattice-2d-defects", False),
        ("gen-lattice-2d-defects", True),
        ("cloud2d-400", False),
        ("cloud2d-400", True),
        ("gen-lattice-3x3x3", False),
        ("gen-lattice-3x3x3", True),
    ],
)
def test_bounded_search_gives_the_unbounded_loop(monkeypatch, name, euclidean):
    o, pts = rsc_inputs(name)
    steps = list(rsc_steps(o))
    assert steps
    searched = spy_on_search(monkeypatch)
    kw = {"euclidean": euclidean, "points": pts}
    got = [reconstructed_shortest_cycle(o, p, k_rank=k, cocycle=c, **kw) for p, k, c in steps]
    # one search over all crossing edges per loop, whatever the weights
    assert len(searched) == len(steps) and all(searched)
    for (p, k, c), res in zip(steps, got):
        assert res == per_edge_search(o, k, c, pts if euclidean else None)


def test_bounded_search_keeps_tied_loops():
    """On the annulus, hop-count loops tie, and at some steps the winning
    loop (least sorted edge tuple among the lightest) is proposed after
    another loop of the same weight: a search that stopped at the first
    loop of the lightest weight would miss it."""
    o, _ = rsc_inputs("gen-annulus")
    late = []
    for p, k, c in rsc_steps(o, most=None):
        props = [q[:2] for q in crossing_searches(o, k, c) if q is not None]
        best = min(props)
        first_tied = next(q for q in props if q[0] == best[0])
        if first_tied != best:
            late.append((p, k, c))
    assert late
    for p, k, c in late:
        assert reconstructed_shortest_cycle(o, p, k_rank=k, cocycle=c) == per_edge_search(o, k, c)


def test_lockstep_search_on_a_3d_torus():
    o = torus3d_order()
    steps = list(rsc_steps(o))
    assert len(steps) >= 30
    for p, k, c in steps:
        assert reconstructed_shortest_cycle(o, p, k_rank=k, cocycle=c) == per_edge_search(o, k, c)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    n=st.integers(min_value=4, max_value=80),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    decimals=st.sampled_from([0, 1, None]),
)
def test_lockstep_search_on_random_2d_clouds(n, seed, decimals):
    # rounded coordinates give tied levels and tied loops
    pts = np.random.default_rng(seed).uniform(-5.0, 5.0, (n, 2))
    if decimals is not None:
        pts = np.unique(np.round(pts, decimals), axis=0)
    try:
        o = alpha_filtration(pts)
    except DegenerateInputError:
        assume(False)
    for p, k, c in rsc_steps(o, most=4):
        assert reconstructed_shortest_cycle(o, p, k_rank=k, cocycle=c) == per_edge_search(o, k, c)
        got = reconstructed_shortest_cycle(o, p, k_rank=k, cocycle=c, euclidean=True, points=pts)
        assert got == per_edge_search(o, k, c, pts)


@pytest.mark.parametrize("cut", ["separating", "isolated-vertex"])
def test_lockstep_search_with_a_disconnecting_cocycle(cut):
    """A cut that splits the graph makes every search drop out; one that
    only isolates a vertex ends the searches from it, and the others still
    find the loop."""
    o, pts = rsc_inputs("gen-annulus")
    *_, (p, k, cocycle) = rsc_steps(o, most=1)  # the step before death
    cx = o.cx
    edges = [sid for sid in o.order_array[: k + 1].tolist() if cx.dim_of(sid) == 1]
    if cut == "separating":
        # every present edge between the halves x < 0 and x >= 0
        side = [x < 0 for x in pts[:, 0].tolist()]
        fake = {sid for sid in edges if side[cx.simplices[sid][0]] != side[cx.simplices[sid][1]]}
    else:
        u = cx.simplices[min(set(edges) & cocycle)][0]
        fake = cocycle | {sid for sid in edges if u in cx.simplices[sid]}
    res = reconstructed_shortest_cycle(o, p, k_rank=k, cocycle=fake)
    assert res == per_edge_search(o, k, fake)
    assert res.status == ("disconnected" if cut == "separating" else "ok")


def test_shortest_path_bound_is_strict():
    """Paths 0-1-2 and 3-4-5 of two unit hops each, closed by crossing
    edges 20 and 5 of weight 1: both loops weigh 3. Search 0 reaches its
    loop first and sets the cap to 3; the loop of search 1, which ties at
    the cap, is still found, and its lesser edge tuple wins."""
    adj = adjacency_of([(0, 1, 1.0, 10), (1, 2, 1.0, 11), (3, 4, 1.0, 12), (4, 5, 1.0, 13)])
    args = (adj, [20, 5], [(0, 2), (3, 5)], [1.0, 1.0])
    assert SEARCH(*args, 1.0) == (3.0, (5, 12, 13), [12, 13, 5], [3, 4, 5])
    assert SEARCH(*args, 1.0) == oracle_loop(*args)
    # a crossing edge whose endpoints adj does not join closes no loop
    assert SEARCH(adj, [30], [(0, 5)], [1.0], 1.0) is None
    assert SEARCH(adj, [], [], [], 1.0) is None


def test_search_order_when_a_crossing_weight_absorbs_the_path_lengths():
    """A crossing weight of 2**60 rounds every key d + 2**60 with d < 128
    to 2**60, so the heap order falls to (search, distance, vertex). From 9
    to 1, the path 9-8-1 is shorter than 9-2-3-4-1, whose vertices and
    edges have the lesser ids: popping by vertex before distance would
    reach 1 over the longer path first, and its loop, of the same rounded
    weight and a lesser edge tuple, would win."""
    adj = adjacency_of([(9, 8, 1.0, 11), (8, 1, 1.0, 12), (9, 2, 1.0, 1), (2, 3, 1.0, 2),
                        (3, 4, 1.0, 3), (4, 1, 1.0, 4)])
    args = (adj, [100], [(9, 1)], [2.0**60])
    assert SEARCH(*args, 1.0) == oracle_loop(*args) == (2.0**60, (11, 12, 100), [11, 12, 100], [9, 8, 1])


@pytest.mark.parametrize("seed", range(4))
def test_euclidean_loop_at_the_birth_step_scales_by_powers_of_two(seed):
    """At the birth step of each of the 15 most persistent degree-1 pairs
    of a 200-point cloud, the euclidean loop search finds the same loop on
    the cloud scaled by 2**-60, with its weight times 2**-60: any strictly
    shorter path replaces a vertex's parent, at every magnitude. (An
    absolute 1e-15 tolerance kept the first parent on the scaled cloud and
    changed 8 of these 60 loops.)"""
    pts = np.random.default_rng(seed).random((200, 2))
    runs = []
    for scale in (0, -60):
        cloud = np.ldexp(pts, scale)
        o = alpha_filtration(cloud)
        runs.append([reconstructed_shortest_cycle(o, p, c, k_rank=p.birth_rank,
                                                  euclidean=True, points=cloud)
                     for p, k, c in rsc_steps(o, most=15) if k == p.birth_rank])
    assert len(runs[0]) == 15
    for res, scaled in zip(*runs):
        assert scaled.loop.edges == res.loop.edges
        assert scaled.loop.weight == math.ldexp(res.loop.weight, -60)


def match_pair_oracle(pairs, target, radius):
    """The stat trial's pair matching, pair by pair over the finite degree-k
    diagram pairs in table order: the first strict minimum of the l-inf
    distance wins."""
    best, best_d = None, math.inf
    for p in pairs:
        if p.degree != target.degree or p.essential or p.birth_time == p.death_time:
            continue
        d = max(abs(p.birth_time - target.birth_time), abs(p.death_time - target.death_time))
        if d < best_d:
            best, best_d = p, d
    return None if best is None or best_d > radius else best


@pytest.mark.parametrize("name", ["gen-fig1-five-points", "gen-lattice-2d-defects", "grid-20x20",
                                  "cloud3d-800"])
def test_match_pair_matches_loop_oracle(name):
    pts = geometry_cases()[name]
    base = pers.reduce(alpha_filtration(pts))
    noise = NoiseModel(0.02, seed=3)
    tables = [pers.reduce(alpha_filtration(noise.perturb(pts, t))) for t in range(2)]
    finite = [p for p in base if not p.essential and p.birth_time != p.death_time]
    targets = finite[:: max(1, len(finite) // 20)] + [p for p in base if p.essential]
    hits = 0
    for table in [base, *tables]:
        pairs = list(table)
        for target in targets:
            for radius in (0.0, 0.01, math.inf):
                got = baselines._match_pair(table, target, radius)
                assert got == match_pair_oracle(pairs, target, radius)
                hits += got is not None
    assert hits


def test_match_pair_takes_the_first_of_tied_pairs():
    # the grid's degree-1 pairs all sit at one (birth, death) point
    table = pers.reduce(alpha_filtration(geometry_cases()["grid-20x20"]))
    d1 = table.diagram_index(1)
    assert len(set(zip(table.birth_time[d1].tolist(), table.death_time[d1].tolist()))) < len(d1)
    target = table[d1[0]]
    first = min(d1[(table.birth_time[d1] == target.birth_time)
                   & (table.death_time[d1] == target.death_time)])
    assert baselines._match_pair(table, target, 1.0) == table[first]


def most_persistent(pts, k):
    table = pers.reduce(alpha_filtration(pts))
    idx = table.diagram_index(k)
    idx = idx[table.death_rank[idx] >= 0]
    return table[idx[np.argmax(table.death_time[idx] - table.birth_time[idx])]]


@pytest.mark.parametrize(
    "case, degree, half_width, trials",
    [("defects", 1, 0.05, 8), ("cloud3d-150", 2, 0.002, 4), ("cloud3d-60", 1, 0.002, 4)],
)
def test_statistical_frequencies_matches_trial_loop_oracle(case, degree, half_width, trials):
    # 2D degree 1 and 3D degree 2 take the tree path, 3D degree 1 reduces
    if case == "defects":
        pts = generate("lattice-2d-defects", 7)
    else:
        pts = np.random.default_rng(11).random((int(case.split("-")[1]), 3))
    target = most_persistent(pts, degree)
    noise = NoiseModel(half_width, seed=3)
    fm = statistical_frequencies(pts, target, noise, trials)
    counts, matched = statistical_frequencies_oracle(pts, target, noise, trials)
    assert fm.matched == matched > 0
    assert np.array_equal(fm.counts, counts) and counts.any()


def test_pipeline_and_trials_build_no_views(monkeypatch):
    """The pipeline from points to pairs, the tree, and a codimension-1
    `stat` trial read only the complex's arrays; the `simplices` view stays
    unbuilt. The trial runs no reduction."""
    from stablevol.alpha import alpha_levels
    from stablevol.complexes import build_order, vertices_of, z2_boundary
    from stablevol.delaunay import delaunay

    pts = geometry_cases()["grid-20x20"]  # exact ties: borderline Gabriel tests
    cx = delaunay(pts)
    o = build_order(cx, alpha_levels(cx, pts))
    pers.reduce(o)
    tree = compute_tree(build_dual_graph(o), o)
    hit = baselines._match_pair(tree.pairs_table(), tree.pairs_table()[0], math.inf)
    vertices_of(cx, 1, z2_boundary(cx, 2, optimal_volume_tree(tree, hit)))
    assert not set(VIEWS) & set(vars(cx))

    built = []
    filtration = baselines.alpha_filtration

    def recording_filtration(points):
        built.append(filtration(points))
        return built[-1]

    monkeypatch.setattr(baselines, "alpha_filtration", recording_filtration)
    pts = generate("lattice-2d-defects", 7)
    target = most_persistent(pts, 1)
    monkeypatch.setattr(pers, "reduce", lambda o: pytest.fail("a codimension-1 trial reduced"))
    fm = statistical_frequencies(pts, target, NoiseModel(0.05, seed=1), trials=1)
    assert fm.matched == len(built) == 1
    assert not set(VIEWS) & set(vars(built[0].cx))
