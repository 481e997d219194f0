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
from stablevol.alpha import (
    _circum_batch,
    _circum_exact,
    _grid,
    _grid_pairs,
    alpha_filtration,
    alpha_levels,
    parse_pointcloud,
)
from stablevol.delaunay import DegenerateInputError, _rescaled, delaunay
from stablevol.fixtures import fig1_five_points, lattice_3x3x3
from stablevol import persistence as pers

SQRT3 = math.sqrt(3.0)


def levels_by_simplex(filt):
    return dict(zip(filt.cx.simplices, filt.level_array.tolist()))


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
    level = f.level_array
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
    for a, b in zip(f1.level_array.tolist(), f2.level_array.tolist()):
        assert abs(a * s - b) <= 1e-9 * max(1.0, abs(b))


def test_two_coface_property_convex_position():
    pts = [(math.cos(t), math.sin(t)) for t in np.linspace(0, 2 * math.pi, 12, endpoint=False)]
    cx = delaunay(pts)
    assert set(np.diff(cx.coface_csr(1)[0]).tolist()) <= {1, 2}


def test_fig1_diagram_through_persistence():
    f = alpha_filtration(fig1_five_points())
    pairs = pers.reduce(f)
    vals = sorted((p.birth_time, p.death_time) for p in diagram(pairs, 1))
    assert len(vals) == 2
    assert abs(vals[0][0] - 0.5) < 1e-9 and abs(vals[0][1] - 1 / SQRT3) < 1e-9
    assert abs(vals[1][0] - 0.5) < 1e-9 and abs(vals[1][1] - 1 / math.sqrt(2)) < 1e-9


def test_noiseless_lattice_h1_all_at_half_and_inv_sqrt2():
    pc = lattice_3x3x3(seed=0, noise=0.0)
    pc[:] = np.round(pc)  # exact integers
    f = alpha_filtration(pc)
    pairs = pers.reduce(f)
    d1 = diagram(pairs, 1)
    assert len(d1) == 28
    for p in d1:
        assert abs(p.birth_time - 0.5) < 1e-9
        assert abs(p.death_time - 1 / math.sqrt(2)) < 1e-9


def test_single_point_cloud():
    pc = parse_pointcloud("0.5 0.25\n")
    assert pc.shape == (1, 2) and pc.dtype == np.float64


def test_parse_rejects_ragged_and_empty():
    with pytest.raises(ValueError):
        parse_pointcloud("1 2\n1 2 3\n")
    with pytest.raises(ValueError):
        parse_pointcloud("# nothing\n")
    with pytest.raises(ValueError):
        parse_pointcloud("1 2 3 4\n")


@pytest.mark.parametrize(
    "row",
    ["1,,0", "1, ,0", "1 , , 0", "1,0,", "1,0 ,", ",1,0", " , 1, 0", "1,,0,2", "1,0,,", ","],
)
def test_parse_rejects_an_empty_csv_field(row):
    # a doubled, leading or trailing comma is an empty field, not a separator
    with pytest.raises(ValueError, match="^empty field in pointcloud row "):
        parse_pointcloud(f"0,0\n{row}\n0,1\n")


def test_parse_reads_commas_with_or_without_spaces():
    expected = np.array([[1.0, 0.5], [2.0, -1.0], [3.0, 4.0]])
    assert np.array_equal(parse_pointcloud("1,0.5\n2 , -1\n  3,\t4  \n"), expected)


@pytest.mark.parametrize("token", ["nan", "inf", "-1e400"])
def test_parse_rejects_non_finite_coordinates(token):
    with pytest.raises(ValueError, match="^non-finite coordinates in pointcloud$"):
        parse_pointcloud(f"0 0\n1 {token}\n")


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
    d1 = diagram(pers.reduce(f), 1)
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
# leave simplices open after the witnesses and the grid pass
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


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


@pytest.mark.parametrize("dim,k", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_circum_exact_against_its_definition(dim, k):
    """The exact circumsphere of seeded integer and dyadic simplices, checked
    by its definition in closed-form arithmetic that shares nothing with the
    Gram solve: the center is equidistant from every vertex and lies in their
    affine hull. Edge vectors that span no k-volume must raise."""
    rng = np.random.default_rng([dim, k])
    solved = 0
    for trial in range(60):
        V = rng.integers(-3, 4, (k + 1, dim)) / (4 if trial % 2 else 1) + 0.5
        F = [[Fraction(x) for x in v] + [Fraction(0)] * (3 - dim) for v in V]  # in 3D
        A = [[x - y for x, y in zip(v, F[0])] for v in F[1:]]
        if k == 1:
            volume = sum(x * x for x in A[0])
        elif k == 2:
            volume = sum(x * x for x in _cross(A[0], A[1]))
        else:
            volume = sum(x * y for x, y in zip(A[0], _cross(A[1], A[2])))
        if volume == 0:
            with pytest.raises(DegenerateInputError):
                _circum_exact(V)
            continue
        center, r2 = _circum_exact(V)
        c = list(center) + [Fraction(0)] * (3 - dim)
        assert all(sum((x - y) ** 2 for x, y in zip(v, c)) == r2 for v in F)
        d = [x - y for x, y in zip(c, F[0])]
        if k == 1:
            assert _cross(d, A[0]) == [0, 0, 0]
        elif k == 2:
            assert sum(x * y for x, y in zip(d, _cross(A[0], A[1]))) == 0
        solved += 1
    assert solved >= 30


@pytest.mark.parametrize("verts", [
    [(1.0, 2.0), (1.0, 2.0)],
    [(0.0, 0.0, 1.0), (0.0, 0.0, 1.0)],
    [(0.0, 0.0), (1.0, 1.0), (3.0, 3.0)],
    [(0.0, 0.0, 0.0), (0.5, 1.0, 1.5), (1.0, 2.0, 3.0)],
    [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)],
], ids=["repeated-2d", "repeated-3d", "collinear-2d", "collinear-3d", "coplanar-tetrahedron"])
def test_circum_exact_rejects_degenerate_simplices(verts):
    with pytest.raises(DegenerateInputError, match="exactly degenerate simplex"):
        _circum_exact(verts)


def outlier30():
    """30 points with one far outlier, whose triangulation holds one
    triangle with an exactly singular Gram matrix."""
    pts = np.random.default_rng([7, 30]).random((30, 2)) * 40
    pts[0] = (1e8, 1.0)
    return pts


SINGULAR_GRAM = {
    "outlier30": outlier30(),
    "grid-4x4x4": np.array(list(itertools.product(range(4), repeat=3)), dtype=float),
}


@pytest.mark.parametrize("name", sorted(SINGULAR_GRAM))
def test_a_circumsphere_does_not_depend_on_its_batch(name):
    """Each dimension's batch of simplices, of which some have an exactly
    singular Gram matrix: exactly the rows whose Gram matrix
    `np.linalg.solve` rejects alone get the sentinel radius, and every other
    row is the float it is in a batch without the singular rows, and alone."""
    P = SINGULAR_GRAM[name]
    cx = delaunay(P)
    pts, exp = _rescaled(P)
    spread = float(((pts.max(axis=0) - pts.min(axis=0)) ** 2).sum())
    singular_rows = 0
    for k in range(1, cx.dim + 1):
        verts = cx.vertex_array(k)
        A = pts[verts][:, 1:] - pts[verts][:, :1]
        G = 2.0 * np.einsum("mkd,mld->mkl", A, A)  # the Gram matrices it solves
        singular = np.zeros(len(verts), dtype=bool)
        for j in range(len(verts)):
            try:
                np.linalg.solve(G[j : j + 1], np.ones((1, k, 1)))
            except np.linalg.LinAlgError:
                singular[j] = True
        centers, r2 = _circum_batch(pts, verts, exp)
        assert ((r2 >= 1e12 * spread) == singular).all()
        c_rest, r2_rest = _circum_batch(pts, verts[~singular], exp)
        assert np.array_equal(centers[~singular], c_rest)
        assert np.array_equal(r2[~singular], r2_rest)
        for j in np.flatnonzero(~singular)[::7]:
            c_one, r2_one = _circum_batch(pts, verts[j : j + 1], exp)
            assert np.array_equal(c_one[0], centers[j]) and r2_one[0] == r2[j]
        singular_rows += int(singular.sum())
    assert singular_rows


@pytest.mark.parametrize("seed", [3, 4])
def test_degree1_diagram_invariant_under_permutation(seed):
    # levels are float circumradii computed from a simplex's lowest-id vertex,
    # so relabelling the points may move them by a few ulps
    rng = np.random.default_rng(seed)
    pts = rng.random((300, 2))
    perm = rng.permutation(len(pts))

    def d1(p):
        f = alpha_filtration(p)
        return sorted((q.birth_time, q.death_time) for q in diagram(pers.reduce(f), 1))

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
    # on clouds in general position the coface witnesses and the float band
    # over the grid's candidates decide every simplex; no per-simplex
    # Gabriel test runs
    seen = count_gabriel_tests(monkeypatch)
    pts = CASES[name]
    alpha_levels(delaunay(pts), pts)
    assert seen == [0]


def test_ball_list_path_decides_cocircular_grid_squares(monkeypatch):
    # a unit square's diagonal has the other two corners on its ball and
    # none inside, so neither the witnesses nor the grid pass's float band
    # decide it
    seen = count_gabriel_tests(monkeypatch)
    assert_levels_equal_full_scan(CASES["grid-20x20"][:100])
    assert seen[0] > 0


def test_ball_list_path_decides_rounded_cloud_simplices(monkeypatch):
    # points on a lattice without being a grid: the simplices the grid
    # pass leaves open go to _is_gabriel with their grid candidates
    seen = count_gabriel_tests(monkeypatch)
    assert_levels_equal_full_scan(CASES["rounded2d-300"])
    assert seen[0] > 0


@pytest.mark.parametrize("chunk", [1, 7])
def test_levels_do_not_depend_on_the_chunk_size(chunk, monkeypatch):
    # small chunks put many chunk boundaries through the grid pass's pairs
    # and the candidate runs sent to _is_gabriel; on the rounded cloud and
    # the 3D cluster the grid pass finds points inside simplices that no
    # coface witness does
    monkeypatch.setattr(alpha_module, "_CHUNK", chunk)
    seen = count_gabriel_tests(monkeypatch)
    assert_levels_equal_full_scan(CASES["grid-20x20"][:100])
    assert_levels_equal_full_scan(CASES["rounded2d-300"])
    assert_levels_equal_full_scan(SKEWED["cluster3d"])
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


def _skewed_clouds():
    """Small clouds that a grid of equal-width cells handles badly: a dense
    cluster with sparse far points, one far outlier, and heavy tails (cubed
    normals), in 2D and 3D; and clouds whose coordinates are correlated, so
    that fewer cells of the rank-space grid hold more points: a uniform
    cloud turned by 45 degrees, and a noisy torus surface in 3D; and a cloud
    whose far outlier makes one triangle's Gram matrix singular."""
    clouds = {}
    for dim, n in ((2, 300), (3, 160)):
        rng = np.random.default_rng(dim)
        clouds[f"cluster{dim}d"] = np.vstack([rng.random((n, dim)) * 1e-3,
                                              rng.random((12, dim)) * 1e3])
        outlier = rng.random((n, dim))
        outlier[0] = 1e6
        clouds[f"outlier{dim}d"] = outlier
        clouds[f"cubed-normals{dim}d"] = rng.standard_normal((n, dim)) ** 3
    rng = np.random.default_rng(4)
    c = math.sqrt(0.5)
    clouds["rotated2d"] = rng.random((300, 2)) @ np.array([[c, c], [-c, c]])
    u, v = rng.random((2, 160)) * (2 * math.pi)
    ring = 2.0 + 0.6 * np.cos(v)
    torus = np.stack([ring * np.cos(u), ring * np.sin(u), 0.6 * np.sin(v)], axis=1)
    clouds["torus3d"] = torus + rng.uniform(-0.05, 0.05, torus.shape)
    clouds["outlier30"] = outlier30()
    return clouds


SKEWED = _skewed_clouds()


@pytest.mark.parametrize("name", sorted(SKEWED))
def test_levels_equal_full_scan_on_skewed_clouds(name):
    assert_levels_equal_full_scan(SKEWED[name])


@st.composite
def grid_queries(draw):
    """A cloud, query centers and radii, all scaled by 2**k. The clouds tie
    coordinates across bin edges (integer grids, repeated points), hold one
    far outlier or a dense cluster with sparse far points, or have an axis
    of zero extent. The centers are the points and points of the bounding
    box; the radii are 0, the distance to another point or its largest
    coordinate difference (so points lie on the box ends), or a radius that
    spans the whole cloud, as the degenerate-simplex sentinel does."""
    dim = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["grid", "repeated", "outlier", "cluster", "flat"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    if kind == "grid":
        pts = rng.integers(0, 3, (n, dim)).astype(float)
    elif kind == "repeated":
        pts = np.repeat(rng.random((draw(st.integers(1, 4)), dim)), n, axis=0)
    elif kind == "outlier":
        pts = rng.random((n, dim))
        pts[-1] = 1e9
    elif kind == "cluster":
        pts = np.vstack([rng.random((n, dim)) * 1e-6, rng.random((4, dim)) * 1e4])
    else:
        pts = rng.random((n, dim))
        pts[:, draw(st.integers(0, dim - 1))] = 0.5
    low, high = pts.min(axis=0), pts.max(axis=0)
    centers = np.vstack([pts, low + rng.random((8, dim)) * (high - low)])
    offset = np.abs(pts[rng.integers(0, len(pts), len(centers))] - centers)
    spread = float(((high - low) ** 2).sum())
    radii = np.choose(rng.integers(0, 4, len(centers)), [
        np.zeros(len(centers)),
        np.sqrt((offset**2).sum(axis=1)),
        offset.max(axis=1),
        np.full(len(centers), 1e12 * (spread + 1.0)),
    ])
    scale = 2.0 ** draw(st.integers(-60, 60))
    return pts * scale, centers * scale, radii * scale


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=grid_queries())
def test_grid_pairs_include_every_point_within_the_radius(case):
    # a brute-force scan in exact arithmetic: each query's candidates must
    # include every point within its radius, and come in query order
    pts, centers, radii = case
    q, p = _grid_pairs(_grid(pts), centers, radii)
    assert (np.diff(q) >= 0).all()
    exact = [[Fraction(x) for x in row] for row in pts]
    for i, (center, radius) in enumerate(zip(centers, radii)):
        c = [Fraction(x) for x in center]
        within = {j for j, row in enumerate(exact)
                  if sum((x - y) ** 2 for x, y in zip(row, c)) <= Fraction(radius) ** 2}
        assert within <= set(p[q == i].tolist()), i
