import bisect
import functools
import json
import math
import random

import numpy as np
import pytest

from helpers import (
    admissible_order,
    boundary_vertices_oracle,
    build_dual_graph_oracle,
    compute_tree_oracle,
    dual_edges,
    geometry_cases,
    monotone_repair,
    parent_map,
)
from stablevol import volopt
from stablevol.alpha import alpha_filtration
from stablevol.baselines import NoiseModel
from stablevol.complexes import (
    SimplicialComplex,
    boundary,
    build_order,
    vertices_of,
    z2_boundary,
)
from stablevol.dualtree import (
    OMEGA_INF,
    ConditionError,
    DegreeError,
    build_dual_graph,
    compute_tree,
    optimal_volume_tree,
    stable_volume_tree,
    sweep_sizes,
)
from stablevol.fixtures import annulus, fig1_five_points, generate, lattice_2d_defects
from stablevol.persistence import StarPairError, reduce


def pairset(pairs):
    return {(p.birth_simplex, p.death_simplex) for p in pairs}


def test_single_triangle_dual_graph():
    cx = SimplicialComplex([(0, 1, 2)])
    o = build_order(cx, [float(len(s) - 1) for s in cx.simplices])
    g = build_dual_graph(o)
    assert len(g.cells) == 1
    assert len(dual_edges(g)) == 3
    for tau, a, b in dual_edges(g):
        assert b == OMEGA_INF


def test_two_triangle_square_dual_graph():
    cx = SimplicialComplex([(0, 1, 2), (0, 2, 3)])
    o = build_order(cx, [float(len(s) - 1) for s in cx.simplices])
    g = build_dual_graph(o)
    assert len(g.cells) == 2
    inner = [e for e in dual_edges(g) if OMEGA_INF not in e[1:]]
    assert len(inner) == 1
    assert cx.simplices[inner[0][0]] == (0, 2)


def test_condition_error_on_dangling_edge():
    cx = SimplicialComplex([(0, 1, 2), (2, 3)])
    o = build_order(cx, [float(len(s) - 1) for s in cx.simplices])
    with pytest.raises(ConditionError):
        build_dual_graph(o)


def test_dual_graph_handshake_on_random_cloud():
    random.seed(41)
    pts = [(random.random(), random.random()) for _ in range(50)]
    f = alpha_filtration(pts)
    g = build_dual_graph(f)
    assert len(dual_edges(g)) == len(f.cx.ids_of_dim(1))
    degree = {c: 0 for c in g.cells}
    degree[OMEGA_INF] = 0
    for tau, a, b in dual_edges(g):
        degree[a] += 1
        degree[b] += 1
    # every 2-cell has exactly 3 incident dual edges
    for c in g.cells:
        assert degree[c] == 3
    assert degree[OMEGA_INF] == np.count_nonzero(np.diff(f.cx.coface_csr(1)[0]) == 1)


def test_merge_order_single_merge():
    cx = SimplicialComplex([(0, 1, 2), (0, 2, 3)])
    lv = {s: 0.0 if len(s) == 1 else 1.0 for s in cx.simplices}
    lv[(0, 2)] = 2.0  # diagonal enters last among edges
    lv[(0, 1, 2)] = 2.0
    lv[(0, 2, 3)] = 2.0
    o = build_order(cx, [lv[s] for s in cx.simplices])
    tree = compute_tree(build_dual_graph(o), o)
    t1 = cx.simplices.index((0, 1, 2))
    t2 = cx.simplices.index((0, 2, 3))
    # lower-ranked triangle is the child, via the diagonal
    assert parent_map(tree)[t1] == (t2, cx.simplices.index((0, 2)))
    assert tree.label(t1) == cx.simplices.index((0, 2))
    assert tree.label(cx.simplices.index((0, 2))) is None  # not a cell


def test_tree_pairs_equal_reduction_pairs_many_clouds():
    random.seed(43)
    for _ in range(200):
        pts = [(random.random() * 3, random.random() * 3) for _ in range(random.randint(5, 18))]
        f = alpha_filtration(pts)
        tree = compute_tree(build_dual_graph(f), f)
        hp = [p for p in reduce(f) if p.degree == 1 and not p.essential]
        assert pairset(tree.pairs_table()) == pairset(hp)
        assert not [p for p in reduce(f) if p.degree == 1 and p.essential]


def test_tree_pairs_match_in_3d_degree2():
    random.seed(47)
    pts = [tuple(random.random() * 2 for _ in range(3)) for _ in range(25)]
    f = alpha_filtration(pts)
    tree = compute_tree(build_dual_graph(f), f)
    hp = [p for p in reduce(f) if p.degree == 2 and not p.essential]
    assert pairset(tree.pairs_table()) == pairset(hp)


def test_optimal_volume_single_square():
    f = alpha_filtration([(0, 0), (1, 0), (1, 1), (0, 1)])
    tree = compute_tree(build_dual_graph(f), f)
    main = [p for p in tree.pairs_table() if p.death_time > p.birth_time]
    assert len(main) == 1
    assert optimal_volume_tree(tree, main[0]) == set(f.cx.ids_of_dim(2))


def test_volume_errors():
    f = alpha_filtration(fig1_five_points())
    tree = compute_tree(build_dual_graph(f), f)
    pair = tree.pairs_table()[0]
    h0 = [p for p in reduce(f) if p.degree == 0 and not p.essential][0]
    with pytest.raises(DegreeError):
        optimal_volume_tree(tree, h0)
    star = [p for p in reduce(f) if p.degree == 0 and p.essential][0]
    with pytest.raises((DegreeError, StarPairError)):
        stable_volume_tree(tree, star, 0.1)
    with pytest.raises(ValueError):
        stable_volume_tree(tree, pair, -0.1)


def test_stable_volume_limits():
    f = alpha_filtration(fig1_five_points())
    tree = compute_tree(build_dual_graph(f), f)
    for p in tree.pairs_table():
        ov = optimal_volume_tree(tree, p)
        assert stable_volume_tree(tree, p, 0.0) == ov
        eps_big = (p.death_time - p.birth_time) * 1.001 + 1e-9
        assert stable_volume_tree(tree, p, eps_big) == {p.death_simplex}


def test_nesting_and_disjoint_or_nested():
    f = alpha_filtration(annulus(seed=2))
    tree = compute_tree(build_dual_graph(f), f)
    pairs = list(tree.pairs_table())
    for p in pairs:
        prev = None
        for eps in (0.0, 0.02, 0.05, 0.1, 0.2, 0.5):
            cells = stable_volume_tree(tree, p, eps)
            if prev is not None:
                assert cells <= prev
            prev = cells
    vols = [optimal_volume_tree(tree, p) for p in pairs]
    for i in range(len(vols)):
        for j in range(i + 1, len(vols)):
            a, b = vols[i], vols[j]
            assert not (a & b) or a <= b or b <= a


def test_boundary_cycle_of_volume_closes():
    f = alpha_filtration(annulus(seed=5))
    tree = compute_tree(build_dual_graph(f), f)
    p = max(tree.pairs_table(), key=lambda q: q.death_time - q.birth_time)
    cells = stable_volume_tree(tree, p, 0.05)
    cx = f.cx
    bnd = boundary(cx, 2, cells)
    assert sorted(bnd) == z2_boundary(cx, 2, cells).tolist()
    assert bnd
    assert boundary(cx, 1, bnd) == set()  # d(d(volume)) = 0


def test_sweep_matches_direct_recount():
    f = alpha_filtration(annulus(seed=7))
    tree = compute_tree(build_dual_graph(f), f)
    grid = [i * 0.01 for i in range(31)]
    for p in tree.pairs_table():
        sizes = sweep_sizes(tree, p, grid)
        assert sizes.dtype == np.int64 and len(sizes) == len(grid)
        sizes = sizes.tolist()
        assert sizes == sorted(sizes, reverse=True)
        for eps, size in list(zip(grid, sizes))[::5]:
            assert size == len(stable_volume_tree(tree, p, eps))
    with pytest.raises(ValueError):
        sweep_sizes(tree, tree.pairs_table()[0], [0.2, 0.1])


def sweep_sizes_oracle(tree, pair, grid):
    """Stable-volume sizes over a grid by `bisect_left` over the sorted
    child gaps and suffix sums of the child subtree sizes, in Python."""
    level = tree.order.level_array.tolist()
    kids = sorted((level[tree.label(c)] - pair.birth_time, len(tree.descendants(c)))
                  for c in tree.children(pair.death_simplex))
    keys = [g for g, _ in kids]
    suffix = [0] * (len(kids) + 1)
    for i in range(len(kids) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + kids[i][1]
    return [1 + suffix[bisect.bisect_left(keys, e)] for e in grid]


@pytest.mark.parametrize("noise", [0.0, 0.1], ids=["integer-lattice", "noisy-lattice"])
def test_sweep_sizes_match_a_bisect_oracle(noise):
    # on the integer lattice many death cells have children with tied gaps;
    # each grid holds random bandwidths, every gap, and the floats on either
    # side of every gap
    f = alpha_filtration(lattice_2d_defects(1, size=12, noise=noise))
    tree = compute_tree(build_dual_graph(f), f)
    level = f.level_array
    rng = np.random.default_rng(3)
    tied = 0
    for p in tree.pairs_table():
        kids = tree.children(p.death_simplex)
        gaps = level[[tree.label(c) for c in kids]] - p.birth_time
        tied += len(gaps) > len(np.unique(gaps))
        for _ in range(3):
            grid = np.unique(np.concatenate([
                rng.uniform(-0.1, gaps.max(initial=0.0) + 0.1, rng.integers(1, 40)),
                gaps, np.nextafter(gaps, -np.inf), np.nextafter(gaps, np.inf),
            ]))
            got = sweep_sizes(tree, p, grid)
            assert got.dtype == np.int64
            assert got.tolist() == sweep_sizes_oracle(tree, p, grid.tolist())
    assert tied >= 10 if noise == 0.0 else tied == 0


def test_theorem_sampled_inclusion():
    rng = np.random.default_rng(5)
    f = alpha_filtration(fig1_five_points())
    tree = compute_tree(build_dual_graph(f), f)
    eps = 0.05
    for pair in tree.pairs_table():
        sv = stable_volume_tree(tree, pair, eps)
        for _ in range(50):
            oq = admissible_order(f, pair, eps, rng)
            qtree = compute_tree(build_dual_graph(oq), oq)
            qpair = next(
                p for p in qtree.pairs_table() if p.death_simplex == pair.death_simplex
            )
            assert sv <= optimal_volume_tree(qtree, qpair)


# ---------------------------------------------------------------------------
# the array dual graph and tree against the per-simplex reference


def tree_clouds():
    """`geometry_cases()`, seeded random 2D and 3D clouds, and five trial
    clouds of the `stat` benchmark: the defects lattice under box noise."""
    cases = dict(geometry_cases())
    rng = np.random.default_rng(8)
    for i in range(3):
        cases[f"random2d-{i}"] = rng.random((300, 2)) * 10.0
    for i in range(2):
        cases[f"random3d-{i}"] = rng.random((200, 3)) * 10.0
    defects = generate("lattice-2d-defects", 7)
    for t in range(5):
        cases[f"defects-trial-{t}"] = NoiseModel(0.05, seed=7).perturb(defects, t)
    return cases


TREE_CLOUDS = tree_clouds()


@functools.lru_cache(maxsize=None)
def tree_order(name):
    return alpha_filtration(TREE_CLOUDS[name])


# the paper's theorem on real inputs: a 2D and a 3D cloud and a `stat`
# trial of the defects lattice, the 5 most persistent pairs of each, 5
# sampled perturbations per pair and noise bandwidth
THEOREM_CASES = [(name, eps) for name in ("random2d-0", "random3d-0", "defects-trial-0")
                 for eps in (0.05, 0.2)]


def theorem_pairs(name):
    o = tree_order(name)
    tree = compute_tree(build_dual_graph(o), o)
    table = tree.pairs_table()
    return o, tree, table.rows(np.argsort(table.birth_time - table.death_time, kind="stable")[:5])


def inclusion_holds(tree, pair, eps, oq):
    """Whether the stable volume of `pair` lies in the optimal volume of its
    death cell's pair in the perturbed order `oq`."""
    qtree = compute_tree(build_dual_graph(oq), oq)
    qpair = next(p for p in qtree.pairs_table() if p.death_simplex == pair.death_simplex)
    return stable_volume_tree(tree, pair, eps) <= optimal_volume_tree(qtree, qpair)


@pytest.mark.parametrize("name,eps", THEOREM_CASES)
def test_theorem_sampled_inclusion_on_real_inputs(name, eps):
    o, tree, pairs = theorem_pairs(name)
    rng = np.random.default_rng(5)
    for pair in pairs:
        for _ in range(5):
            assert inclusion_holds(tree, pair, eps, admissible_order(o, pair, eps, rng))


@pytest.mark.parametrize("name,eps", THEOREM_CASES)
def test_theorem_inclusion_fails_without_the_death_cell_condition(name, eps):
    # negative control: the same noise, within eps/2 of every level, but
    # with nothing kept before the death cell; some samples must break the
    # inclusion, or the positive test above could not fail
    o, tree, pairs = theorem_pairs(name)
    rng = np.random.default_rng(5)
    held = []
    for pair in pairs:
        for _ in range(5):
            raw = o.level_array + rng.uniform(-0.499 * eps, 0.499 * eps, len(o))
            oq = build_order(o.cx, monotone_repair(o.cx, raw.tolist()))
            held.append(inclusion_holds(tree, pair, eps, oq))
    assert not all(held)


@pytest.mark.parametrize("name,eps", THEOREM_CASES)
def test_stable_lp_equals_tree_on_the_theorem_pairs(name, eps):
    o, tree, pairs = theorem_pairs(name)
    for pair in pairs:
        lp = volopt.solve_volume(o, pair, "stable", eps).cells
        assert lp == stable_volume_tree(tree, pair, eps)


@pytest.mark.parametrize("name", sorted(TREE_CLOUDS))
def test_pairs_table_equals_reduce_rows(name):
    o = tree_order(name)
    table = compute_tree(build_dual_graph(o), o).pairs_table()
    full = reduce(o)
    rows = full.degree == o.cx.dim - 1
    assert len(table) == rows.sum() > 0
    for col in ("degree", "birth_rank", "death_rank", "birth_simplex", "death_simplex",
                "birth_time", "death_time"):
        assert np.array_equal(getattr(table, col), getattr(full, col)[rows]), col
    assert list(table) == [p for p in full if p.degree == o.cx.dim - 1]


@pytest.mark.parametrize("name", ["fig1-five-points", "lattice-2d-defects", "annulus"])
def test_pairs_have_plain_python_fields(name):
    # json.dumps rejects numpy scalars, so every way to get a pair gives
    # Python ints, floats and None
    o = alpha_filtration(generate(name, 0))
    tree = compute_tree(build_dual_graph(o), o)
    table = tree.pairs_table()
    pairs = [*table, *reduce(o)]
    child, _, label = tree.edges
    assert [(p.birth_simplex, p.death_simplex) for p in table] == sorted(
        zip(label.tolist(), child.tolist()), key=lambda e: o.rank_array[e[0]])
    for p in pairs:
        types = [type(getattr(p, f)) for f in ("degree", "birth_simplex", "birth_rank")]
        types += [type(p.birth_time), type(p.death_time)]
        types += [type(getattr(p, f)) for f in ("death_simplex", "death_rank")]
        want = [int] * 3 + [float] * 2 + ([type(None)] * 2 if p.essential else [int] * 2)
        assert types == want
    json.dumps([vars(p) for p in pairs])


@pytest.mark.parametrize("name", sorted(TREE_CLOUDS))
def test_dual_graph_and_tree_match_oracle(name):
    o = tree_order(name)
    g, ref = build_dual_graph(o), build_dual_graph_oracle(o)
    assert list(g.cells) == ref.cells
    assert dual_edges(g) == ref.edges
    tree, ref_tree = compute_tree(g, o), compute_tree_oracle(ref, o)
    assert list(parent_map(tree).items()) == list(parent_map(ref_tree).items())
    n = o.cx.dim
    # boundary vertices of up to 30 optimal volumes, largest persistence first
    pairs = sorted(tree.pairs_table(), key=lambda p: p.birth_time - p.death_time)[:30]
    for p in pairs:
        cells = optimal_volume_tree(tree, p)
        got = vertices_of(o.cx, n - 1, z2_boundary(o.cx, n, cells))
        assert got.tolist() == sorted(boundary_vertices_oracle(o, cells))


def dim_levels(cx):
    return [float(len(s) - 1) for s in cx.simplices]


@pytest.mark.parametrize(
    "tops",
    [
        [(0, 1, 2), (2, 3)],  # a dangling edge
        [(0, 1, 2), (5,)],  # a lone vertex
        [(0, 1, 2)] + [(2, v) for v in range(3, 15)],  # more than ten orphans
        [(0, 1, 2), (0, 1, 3), (0, 1, 4)],  # an edge with three cofaces
        [(0, 1, 2), (1, 2, 3), (2, 3, 4), (5, 6, 7), (5, 6, 8), (5, 6, 9), (5, 6, 10)],
        [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5), (0, 3, 4)],  # 3D, orphans first
        [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)],  # a triangle with three cofaces
        [(0, 1, 2, 3), (0, 1, 2, 4)],  # valid
        [(0,)],  # a lone vertex, nothing to pair
    ],
    ids=["dangling-edge", "lone-vertex", "many-orphans", "three-cofaces", "four-cofaces",
         "3d-orphans", "3d-three-cofaces", "3d-valid", "vertex"],
)
def test_condition_errors_match_oracle(tops):
    cx = SimplicialComplex(tops)
    o = build_order(cx, dim_levels(cx))
    try:
        ref = build_dual_graph_oracle(o)
    except ConditionError as exc:
        with pytest.raises(ConditionError) as got:
            build_dual_graph(o)
        assert str(got.value) == str(exc)
        return
    g = build_dual_graph(o)
    assert (list(g.cells), dual_edges(g)) == (ref.cells, ref.edges)
    tree = compute_tree(g, o)
    assert parent_map(tree) == parent_map(compute_tree_oracle(ref, o))


@pytest.mark.parametrize("name", sorted(TREE_CLOUDS))
def test_children_csr_matches_dict_oracle(name):
    from helpers import DictChildrenTree

    o = tree_order(name)
    tree = compute_tree(build_dual_graph(o), o)
    ref = DictChildrenTree(tree)
    for c in [OMEGA_INF, *o.cx.ids_of_dim(o.cx.dim)]:
        assert tree.children(c) == ref.children.get(c, [])
    grid = [0.0, 0.01, 0.05, 0.2, 1.0]
    # the 100 most persistent pairs, whose subtrees are the largest, and every
    # tenth of the others
    pairs = sorted(tree.pairs_table(), key=lambda p: p.birth_time - p.death_time)
    for p in pairs[:100] + pairs[100::10]:
        cells = ref.descendants(p.death_simplex)
        assert tree.descendants(p.death_simplex) == optimal_volume_tree(tree, p) == cells
        sizes = []
        for eps in grid:
            got, want = stable_volume_tree(tree, p, eps), ref.stable_volume(p, eps)
            assert got == want
            if eps == 0.05:
                bnd = boundary(o.cx, o.cx.dim, want)
                assert z2_boundary(o.cx, o.cx.dim, got).tolist() == sorted(bnd)
            sizes.append(len(want))
        assert sweep_sizes(tree, p, grid).tolist() == sizes
