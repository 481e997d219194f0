import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import alpha_levels_full_scan, diagram, geometry_cases
from stablevol import alpha as alpha_module
from stablevol.alpha import _circum_exact, alpha_filtration, alpha_levels, parse_pointcloud
from stablevol.delaunay import DegenerateInputError, delaunay
from stablevol.fixtures import fig1_five_points, lattice_3x3x3
from stablevol import persistence as pers

SQRT3 = math.sqrt(3.0)


def levels_by_simplex(filt):
    return dict(zip(filt.cx.simplices, filt.order.level_array.tolist()))


def test_equilateral_triangle_levels():
    f = alpha_filtration([(0, 0), (1, 0), (0.5, SQRT3 / 2)])
    lv = levels_by_simplex(f)
    for s in lv:
        if len(s) == 1:
            assert lv[s] == 0.0
        elif len(s) == 2:
            assert abs(lv[s] - 0.5) < 1e-12
        else:
            assert abs(lv[s] - 1 / SQRT3) < 1e-12


def test_unit_square_levels():
    f = alpha_filtration([(0, 0), (1, 0), (1, 1), (0, 1)])
    lv = levels_by_simplex(f)
    tris = [s for s in lv if len(s) == 3]
    assert len(tris) == 2
    for t in tris:
        assert abs(lv[t] - 1 / math.sqrt(2)) < 1e-12
    diag = [s for s in lv if len(s) == 2 and abs(lv[s] - 0.5) > 1e-6]
    assert len(diag) == 1
    # the diagonal is Gabriel: the opposite corners sit exactly on its ball
    assert abs(lv[diag[0]] - 1 / math.sqrt(2)) < 1e-12


def test_non_gabriel_edge_inherits_coface_level():
    f = alpha_filtration([(0, 0), (4, 0), (2, 0.5)])
    lv = levels_by_simplex(f)
    assert lv[(0, 1)] == lv[(0, 1, 2)]
    assert lv[(0, 1)] > 2.0  # not its own circumradius


def test_monotone_under_inclusion():
    random.seed(13)
    pts = [(random.random() * 3, random.random() * 3) for _ in range(40)]
    f = alpha_filtration(pts)
    level = f.order.level_array
    for k in range(1, f.cx.dim + 1):
        ids = f.cx.ids_of_dim(k)
        assert (level[f.cx.face_array(k)] <= level[ids.start : ids.stop, None]).all()


def test_scale_equivariance():
    random.seed(14)
    pts = np.array([(random.random(), random.random()) for _ in range(25)])
    f1 = alpha_filtration(pts)
    s = 37.5
    f2 = alpha_filtration(pts * s)
    assert [f1.cx.simplices[i] for i in range(len(f1.cx))] == [
        f2.cx.simplices[i] for i in range(len(f2.cx))
    ]
    for a, b in zip(f1.order.level_array.tolist(), f2.order.level_array.tolist()):
        assert abs(a * s - b) <= 1e-9 * max(1.0, abs(b))


def test_two_coface_property_convex_position():
    pts = [(math.cos(t), math.sin(t)) for t in np.linspace(0, 2 * math.pi, 12, endpoint=False)]
    cx = delaunay(pts)
    assert set(np.diff(cx.coface_csr(1)[0]).tolist()) <= {1, 2}


def test_fig1_diagram_through_persistence():
    f = alpha_filtration(fig1_five_points().points)
    pairs = pers.reduce(f.order)
    vals = sorted((p.birth_time, p.death_time) for p in diagram(pairs, 1))
    assert len(vals) == 2
    assert abs(vals[0][0] - 0.5) < 1e-9 and abs(vals[0][1] - 1 / SQRT3) < 1e-9
    assert abs(vals[1][0] - 0.5) < 1e-9 and abs(vals[1][1] - 1 / math.sqrt(2)) < 1e-9


def test_noiseless_lattice_h1_all_at_half_and_inv_sqrt2():
    pc = lattice_3x3x3(seed=0, noise=0.0)
    pc.points[:] = np.round(pc.points)  # exact integers
    f = alpha_filtration(pc.points)
    pairs = pers.reduce(f.order)
    d1 = diagram(pairs, 1)
    assert len(d1) == 28
    for p in d1:
        assert abs(p.birth_time - 0.5) < 1e-9
        assert abs(p.death_time - 1 / math.sqrt(2)) < 1e-9


def test_single_point_cloud():
    pc = parse_pointcloud("0.5 0.25\n")
    assert pc.dim == 2 and len(pc) == 1


def test_parse_rejects_ragged_and_empty():
    with pytest.raises(ValueError):
        parse_pointcloud("1 2\n1 2 3\n")
    with pytest.raises(ValueError):
        parse_pointcloud("# nothing\n")
    with pytest.raises(ValueError):
        parse_pointcloud("1 2 3 4\n")


def test_alpha_levels_direct_call():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2)]
    cx = delaunay(pts)
    lv = alpha_levels(cx, pts)
    tri = cx.simplices.index((0, 1, 2))
    assert abs(lv[tri] - 1 / SQRT3) < 1e-12


def test_exact_grid_square_classes():
    # 5x5 integer grid: 16 unit-square classes at exactly (1/2, 1/sqrt(2)),
    # even though the jittered triangulation carries flat hull slivers
    pts = [(x, y) for x in range(5) for y in range(5)]
    f = alpha_filtration(pts)
    d1 = diagram(pers.reduce(f.order), 1)
    assert len(d1) == 16
    for p in d1:
        assert abs(p.birth_time - 0.5) < 1e-9
        assert abs(p.death_time - 1 / math.sqrt(2)) < 1e-9


CASES = geometry_cases()
CASES["duplicates"] = np.array([(0.5, 0.5)] * 5)
CASES["cloud3d-300"] = np.random.default_rng(2024).random((300, 3))
# the last edge (and in 3D the last triangle) is not Gabriel, so it takes
# the minimum over its cofaces, the last segment of its dimension
CASES["last-nongabriel-2d"] = np.array([(2.0, 0.5), (0.0, 0.0), (4.0, 0.0)])
CASES["last-nongabriel-3d"] = np.random.default_rng(1).random((12, 3))
# 303 distinct points on a 0.1 lattice: collinear and cocircular subsets
# leave simplices open after the witnesses and the nearest neighbours
CASES["rounded2d-300"] = np.unique(
    np.round(np.random.default_rng(0).random((320, 2)) * 6.0, 1), axis=0
)


@pytest.mark.parametrize("name", sorted(CASES))
def test_pruned_levels_equal_full_scan(name):
    pts = CASES[name]
    cx = delaunay(pts)
    assert alpha_levels(cx, pts).tolist() == alpha_levels_full_scan(cx, pts)


@pytest.mark.parametrize("name", ["last-nongabriel-2d", "last-nongabriel-3d"])
def test_last_simplex_of_a_dimension_is_not_gabriel(name):
    pts = CASES[name]
    cx = delaunay(pts)
    for k in range(1, cx.dim):
        last = cx.ids_of_dim(k)[-1]
        center, r2 = _circum_exact([pts[v] for v in cx.simplices[last]])
        inside = [
            p for p in range(len(pts)) if p not in cx.simplices[last]
            and sum((Fraction(x) - c) ** 2 for x, c in zip(pts[p], center)) < r2
        ]
        assert inside


@pytest.mark.parametrize("seed", [3, 4])
def test_degree1_diagram_invariant_under_permutation(seed):
    # levels are float circumradii computed from a simplex's lowest-id vertex,
    # so relabelling the points may move them by a few ulps
    rng = np.random.default_rng(seed)
    pts = rng.random((300, 2))
    perm = rng.permutation(len(pts))

    def d1(p):
        f = alpha_filtration(p)
        return sorted((q.birth_time, q.death_time) for q in diagram(pers.reduce(f.order), 1))

    a, b = d1(pts), d1(pts[perm])
    assert len(a) == len(b) > 0
    assert np.allclose(a, b, rtol=1e-12, atol=0.0)


def count_gabriel_tests(m):
    """Patch `alpha._is_gabriel` through the MonkeyPatch m to count its
    calls from `alpha_levels`; returns the one-element list of the count.
    The full scan of `helpers` keeps the unpatched function."""
    seen = [0]
    test = alpha_module._is_gabriel

    def counted(*args):
        seen[0] += 1
        return test(*args)

    m.setattr(alpha_module, "_is_gabriel", counted)
    return seen


def assert_levels_equal_full_scan(pts):
    """alpha_levels equals the full scan bit for bit, or raises the same
    DegenerateInputError (an exactly degenerate simplex with a point on
    its float circumsphere, as three equal points next to a fourth give)."""
    cx = delaunay(pts)
    try:
        want = np.array(alpha_levels_full_scan(cx, pts), dtype=float)
    except DegenerateInputError as exc:
        with pytest.raises(DegenerateInputError, match=str(exc)):
            alpha_levels(cx, pts)
        return
    got = alpha_levels(cx, pts)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("name", ["cloud2d-400", "cloud2d-3200", "cloud3d-800", "cloud3d-300"])
def test_witnesses_and_neighbours_decide_seeded_clouds(name, monkeypatch):
    # on clouds in general position the coface witnesses and the k+2 nearest
    # neighbours decide every simplex; no ball list is built and no
    # per-simplex Gabriel test runs
    seen = count_gabriel_tests(monkeypatch)
    pts = CASES[name]
    alpha_levels(delaunay(pts), pts)
    assert seen == [0]


def test_ball_list_path_decides_cocircular_grid_squares(monkeypatch):
    # a unit square's diagonal has the other two corners on its ball, so
    # neither the witnesses nor the nearest neighbours decide it
    seen = count_gabriel_tests(monkeypatch)
    assert_levels_equal_full_scan(CASES["grid-20x20"][:100])
    assert seen[0] > 0


def test_ball_list_path_decides_rounded_cloud_simplices(monkeypatch):
    # points on a lattice without being a grid: the simplices left open
    # after the nearest neighbours go to _is_gabriel with their ball lists
    seen = count_gabriel_tests(monkeypatch)
    assert_levels_equal_full_scan(CASES["rounded2d-300"])
    assert seen[0] > 0


@st.composite
def near_degenerate_clouds(draw):
    """Grids, cocircular (in 3D also cospherical) rings and clouds of
    repeated points, scaled, shifted and moved by offsets of at most 2e-10
    of their extent, below the 1e-9 jitter of the predicates."""
    dim = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["grid", "ring", "duplicates"]))
    if kind == "grid":
        sides = draw(st.lists(st.integers(2, 4), min_size=dim, max_size=dim))
        pts = np.array(list(itertools.product(*map(range, sides))), dtype=float)
    elif kind == "ring":
        m = draw(st.integers(3, 12))
        t = 2 * math.pi * np.arange(m) / m
        ring = np.column_stack([np.cos(t), np.sin(t), np.zeros(m)][:dim])
        extra = [[0.0] * dim] + ([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]] if dim == 3 else [])
        pts = np.vstack([ring, extra])
    else:
        corner = st.tuples(*[st.integers(0, 2)] * dim)
        base = draw(st.lists(corner, min_size=dim + 1, max_size=8))
        repeats = draw(st.lists(st.integers(1, 3), min_size=len(base), max_size=len(base)))
        pts = np.repeat(np.array(base, dtype=float), repeats, axis=0)
    eps = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-10]))
    steps = draw(st.lists(st.integers(-2, 2), min_size=pts.size, max_size=pts.size))
    scale = draw(st.sampled_from([1.0, 0.1, 37.5]))
    shift = draw(st.sampled_from([0.0, 0.5, 1e3]))
    return (pts + eps * np.array(steps, dtype=float).reshape(pts.shape)) * scale + shift


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(pts=near_degenerate_clouds())
@example(pts=np.array(list(itertools.product(range(2), repeat=3)), dtype=float))
# point 2 lies strictly inside the diametral circle of edge (0, 1), but not
# in that edge's link in the complex certified for the jittered points
@example(pts=np.array([[1e-15, 1e-15], [0.0, 1.0], [0.0, 2e-15], [0.0, 0.0]]))
def test_gabriel_cascade_matches_full_scan_on_near_degenerate_clouds(pts):
    assert_levels_equal_full_scan(pts)
