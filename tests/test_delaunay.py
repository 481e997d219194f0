import importlib
import random
from collections import Counter

import numpy as np
import pytest

from helpers import assert_closed, geometry_cases, hull_is_convex_gather, jittered_points_oracle
from stablevol import predicates
from stablevol.complexes import SimplicialComplex
from stablevol.delaunay import DegenerateInputError, delaunay
from stablevol.fixtures import GENERATORS, generate
from stablevol.predicates import circumsphere_side, jittered_points

# the package re-exports the function `delaunay` under the module's name
dl = importlib.import_module("stablevol.delaunay")
CASES = geometry_cases()
HULL_CHECK = dl._hull_is_convex


def bowyer_watson(points):
    pts = [tuple(map(float, p)) for p in points]
    return dl._bowyer_watson(pts, jittered_points_oracle(pts), len(pts[0]))


def count_fallbacks(monkeypatch):
    calls = []
    orig = dl._bowyer_watson

    def counted(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(dl, "_bowyer_watson", counted)
    return calls


def test_three_points_one_triangle():
    cx = delaunay([(0, 0), (1, 0), (0, 1)])
    assert len(cx.ids_of_dim(2)) == 1
    assert len(cx.ids_of_dim(1)) == 3
    assert len(cx.ids_of_dim(0)) == 3


def test_convex_quad_two_triangles_five_edges():
    cx = delaunay([(0, 0), (1, 0), (1.1, 1), (0, 1)])
    assert len(cx.ids_of_dim(2)) == 2
    assert len(cx.ids_of_dim(1)) == 5


def test_cocircular_square_splits():
    cx = delaunay([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert len(cx.ids_of_dim(2)) == 2
    assert len(cx.ids_of_dim(1)) == 5


def test_random_2d_euler_characteristic_and_empty_circles():
    random.seed(6)
    for _ in range(8):
        pts = [(random.random(), random.random()) for _ in range(100)]
        cx = delaunay(pts)
        assert_closed(cx)
        v = len(cx.ids_of_dim(0))
        e = len(cx.ids_of_dim(1))
        f = len(cx.ids_of_dim(2))
        assert v == 100 and v - e + f == 1
    # empty-circumcircle property, checked on the jittered coordinates
    pts = [(random.random(), random.random()) for _ in range(40)]
    cx = delaunay(pts)
    jit = jittered_points(pts)
    for t in cx.ids_of_dim(2):
        tv = cx.simplices[t]
        for i, p in enumerate(jit):
            if i not in tv:
                assert circumsphere_side([jit[v] for v in tv], p) < 0


def test_random_3d_structure():
    random.seed(8)
    pts = [tuple(random.random() for _ in range(3)) for _ in range(30)]
    cx = delaunay(pts)
    assert_closed(cx)
    jit = jittered_points(pts)
    for t in cx.ids_of_dim(3):
        tv = cx.simplices[t]
        for i, p in enumerate(jit):
            if i not in tv:
                assert circumsphere_side([jit[v] for v in tv], p) < 0
    # interior faces have two tetra cofaces, hull faces one
    assert set(np.diff(cx.coface_csr(2)[0]).tolist()) <= {1, 2}


def test_degenerate_integer_lattice_resolved_by_jitter():
    pts = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    cx = delaunay(pts)
    assert_closed(cx)
    assert set(np.diff(cx.coface_csr(2)[0]).tolist()) <= {1, 2}


def test_identical_points_resolved_by_jitter():
    # duplicate points become distinct under the symbolic jitter; the
    # triangulation is tiny but valid
    cx = delaunay([(0.5, 0.5)] * 5)
    assert_closed(cx)
    assert len(cx.ids_of_dim(0)) == 5


def test_too_few_points_rejected():
    with pytest.raises(DegenerateInputError):
        delaunay([(0, 0), (1, 1)])


def test_cocircular_ring():
    import math

    pts = [(math.cos(2 * math.pi * k / 12), math.sin(2 * math.pi * k / 12))
           for k in range(12)]
    cx = delaunay(pts)
    assert_closed(cx)
    v, e, f = (len(cx.ids_of_dim(d)) for d in (0, 1, 2))
    assert v == 12 and v - e + f == 1


def test_exact_grid_2d():
    pts = [(x, y) for x in range(5) for y in range(5)]
    cx = delaunay(pts)
    assert_closed(cx)
    v, e, f = (len(cx.ids_of_dim(d)) for d in (0, 1, 2))
    assert v == 25 and v - e + f == 1
    # at least the 32 square-halves; jitter may add flat slivers along the
    # hull where collinear perimeter points bend inward
    assert 32 <= f <= 40


def test_two_far_clusters():
    import random

    random.seed(15)
    pts = [(random.random(), random.random()) for _ in range(10)]
    pts += [(random.random() + 1e4, random.random()) for _ in range(10)]
    cx = delaunay(pts)
    assert_closed(cx)
    assert len(cx.ids_of_dim(0)) == 20


@pytest.mark.parametrize("name", sorted(CASES))
def test_qhull_path_matches_bowyer_watson(name, monkeypatch):
    calls = count_fallbacks(monkeypatch)
    cx = delaunay(CASES[name])
    assert calls == []  # the certificate accepted Qhull's triangulation
    assert cx.simplices == bowyer_watson(CASES[name]).simplices


def test_duplicate_points_take_the_fallback(monkeypatch):
    calls = count_fallbacks(monkeypatch)
    cx = delaunay([(0.5, 0.5)] * 5)
    assert calls == [1]
    assert cx.simplices == bowyer_watson([(0.5, 0.5)] * 5).simplices


QUAD = [(0, 0), (1, 0), (1.1, 1), (0, 1)]  # Delaunay diagonal is 1-3
FAN = QUAD + [(0.5, 0.5)]  # Delaunay triangulation is the fan around point 4


@pytest.mark.parametrize(
    "pts, cells, accepted",
    [
        (QUAD, [(0, 1, 3), (1, 2, 3)], True),
        (QUAD, [(0, 1, 2), (0, 2, 3)], False),  # not locally Delaunay
        (QUAD, [(0, 1, 3)], False),  # point 2 is not a vertex
        (FAN, [(4, 0, 1), (4, 1, 2), (4, 2, 3), (4, 3, 0)], True),
        (FAN, [(4, 1, 2), (4, 2, 3), (4, 3, 0)], False),  # hull not convex
        ([(0, 0), (2, 0), (1, 1), (1, 3)], [(0, 1, 2), (0, 1, 3)], False),  # overlap
        ([(0, 0), (2, 0), (1, 1), (1, -1), (1, 3)], [(0, 1, 2), (0, 1, 3), (0, 1, 4)], False),
        # a tetrahedron's boundary folded onto the plane: no hull facet, and
        # each far vertex is outside the circle of the cell listed first
        ([(0, 0), (4, 0), (2, 4), (2, 1)], [(0, 1, 3), (0, 3, 2), (3, 1, 2), (0, 1, 2)], False),
    ],
)
def test_certificate_checks_qhull_output(monkeypatch, pts, cells, accepted):
    class QhullResult:
        simplices = np.array(cells)
        coplanar = np.empty((0, 3), dtype=int)

    monkeypatch.setattr(dl, "Delaunay", lambda P: QhullResult)
    result, _ = same_certificate(monkeypatch, jittered_points(np.array(pts, dtype=float)))
    assert (result is not None) == accepted
    if accepted:
        assert result.vertex_array(2).tolist() == sorted(map(sorted, cells))


def certify(monkeypatch, P, hull_check):
    """_certified_qhull(P) with `hull_check` as its hull check (the complex
    or None), and the number of scalar orient2d/orient3d calls made inside
    the hull check."""
    calls = []
    inside = []

    def check(*args):
        before = len(calls)
        result = hull_check(*args)
        inside.append(len(calls) - before)
        return result

    with monkeypatch.context() as m:
        for name in ("orient2d", "orient3d"):
            scalar = getattr(predicates, name)
            m.setattr(predicates, name, lambda *a, f=scalar: calls.append(1) or f(*a))
        m.setattr(dl, "_hull_is_convex", check)
        cx = dl._certified_qhull(P)
    return cx, sum(inside)


def same_certificate(monkeypatch, P):
    """The certificate with the broadcast hull check, after checking that
    the gather-based oracle gives the same result, and on acceptance the
    same number of scalar orient calls; returns (complex, calls)."""
    cx, calls = certify(monkeypatch, P, HULL_CHECK)
    want, want_calls = certify(monkeypatch, P, hull_is_convex_gather)
    assert (cx is None) == (want is None)
    if cx is not None:
        assert np.array_equal(cx.vertex_array(cx.dim), want.vertex_array(want.dim))
        assert calls == want_calls
    return cx, calls


def facets(cells, hull_only):
    """(cell, k) arrays of the facets of the cells, or only of those in one
    cell (the hull facets)."""
    width = cells.shape[1]
    keys = [tuple(sorted(c[:k] + c[k + 1 :])) for c in cells.tolist() for k in range(width)]
    count = Counter(keys)
    flat = [i for i, key in enumerate(keys) if not hull_only or count[key] == 1]
    return np.divmod(np.array(flat, dtype=np.intp), width)


SEEDED = {
    f"cloud{d}d-{n}-seed{seed}": np.random.default_rng([seed, d]).random((n, d))
    for d, n in ((2, 400), (3, 800))
    for seed in range(3)
}


@pytest.mark.parametrize("name", sorted(CASES) + sorted(SEEDED))
def test_hull_check_matches_gather_oracle(name, monkeypatch):
    P = jittered_points(CASES[name] if name in CASES else SEEDED[name])
    cx, _ = same_certificate(monkeypatch, P)
    assert cx is not None
    cells = dl._oriented(P, cx.vertex_array(cx.dim))
    # rejections: interior facets included, and every cell negatively oriented
    every = facets(cells, hull_only=False)
    assert not HULL_CHECK(P, cells, *every)
    assert not hull_is_convex_gather(P, cells, *every)
    swapped = cells[:, [1, 0, *range(2, cells.shape[1])]]
    hull = facets(swapped, hull_only=True)
    assert not HULL_CHECK(P, swapped, *hull)
    assert not hull_is_convex_gather(P, swapped, *hull)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_hull_check_on_a_nearly_straight_hull(n, monkeypatch):
    # a convex hull chain from (0.5, 0.5) towards (0.625, 0.625) that bends
    # by a few units of 2**-53: coordinate differences are exact, but the
    # float filter cannot decide the hull rows of points along the chain
    u = 2.0 ** -53
    step = 2**50 // n
    chain = [(0.5 + k * step * u, 0.5 + (k * step - k * (n - k)) * u) for k in range(n + 1)]
    P = np.array(chain + [(0.5, 0.625), (0.52, 0.6), (0.55, 0.58)])
    cx, calls = same_certificate(monkeypatch, P)
    assert cx is not None and calls > 0


# every `gen` fixture at two more seeds, and the seeded clouds
CERTIFIED = {
    f"gen-{name}-seed{seed}": generate(name, seed)
    for name in sorted(GENERATORS)
    for seed in (1, 7)
} | SEEDED


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_qhull_is_certified_without_fallback(name, monkeypatch):
    # a certificate that rejected Qhull would give the same complex through
    # the fallback, only far slower
    calls = count_fallbacks(monkeypatch)
    delaunay(CERTIFIED[name])
    assert calls == []


def test_fallback_receives_raw_and_jittered_tuples(monkeypatch):
    seen = []
    monkeypatch.setattr(dl, "_bowyer_watson", lambda *args: seen.append(args))
    raw = [(0.5, 0.5)] * 5  # Qhull sets duplicates aside
    delaunay(np.array(raw))
    assert seen == [(raw, jittered_points_oracle(raw), 2)]
    assert all(type(x) is float for p in seen[0][1] for x in p)


# (points, error, message) by case number. Each case keeps the test id
# "points<number>-None-<error>-<message>" that earlier test reports name it
# by; number 8 was a case of delaunay's former `dim` argument
REJECTIONS = {
    0: ([], DegenerateInputError, "no points to triangulate"),
    1: ([(0, 0, 0, 0)] * 5, ValueError, "only 2D and 3D pointclouds are supported, got dim 4"),
    2: ([(0, 0), (1, 1)], DegenerateInputError, "need at least 3 points for a 2D triangulation"),
    3: ([(0, 0), (1, 0), (0, 1, 2)], ValueError, "bad coordinates (0.0, 1.0, 2.0)"),
    4: ([[0, 0], [1, 0], [2]], ValueError, "bad coordinates (2.0,)"),
    5: (np.array([[0, 0], [1, np.inf], [0, 1]]), ValueError, "bad coordinates (1.0, inf)"),
    6: ([(0, 0), (1, float("nan")), (0, 1)], ValueError, "bad coordinates (1.0, nan)"),
    7: ([(0, 0), (1, 0), (0, float("-inf"))], ValueError, "bad coordinates (0.0, -inf)"),
    9: ([(0, 0), (1, 0), (0, "x")], ValueError, "could not convert string to float: 'x'"),
    10: ([(0, 0), (1, 0), (0, None)], TypeError, "float() argument must be"),
    11: ([(0, 0), (1, 0), (0, 10**400)], OverflowError, "int too large to convert to float"),
    12: (np.empty((0, 2)), DegenerateInputError, "no points to triangulate"),
    13: (np.empty((0, 3)), DegenerateInputError, "no points to triangulate"),
}


@pytest.mark.parametrize(
    "points, error, message",
    REJECTIONS.values(),
    ids=[f"points{i}-None-{e.__name__}-{m}" for i, (_, e, m) in REJECTIONS.items()],
)
def test_rejections_keep_type_and_message(points, error, message):
    with pytest.raises(error) as info:
        delaunay(points)
    assert type(info.value) is error and str(info.value).startswith(message)


# seeded clouds that, without the power-of-two rescale in front of Qhull,
# fell back to Bowyer-Watson at 2**300 and 2**500, and in 3D spent seconds
# in the exact stage at 2**-500 (Qhull crashed the process on 3D at 2**400)
SCALED = {d: np.random.default_rng([d, n]).random((n, d)) * 40 for d, n in ((2, 400), (3, 300))}


@pytest.mark.parametrize("k", [-500, -300, 300, 500])
@pytest.mark.parametrize("dim", [2, 3])
def test_extreme_scales_are_certified_without_fallback(dim, k, monkeypatch):
    base = delaunay(SCALED[dim])
    calls = count_fallbacks(monkeypatch)
    cx = delaunay(np.ldexp(SCALED[dim], k))
    assert calls == []
    for j in range(dim + 1):
        assert np.array_equal(cx.vertex_array(j), base.vertex_array(j))


def test_rescale_is_exact_or_skipped():
    P = jittered_points(SCALED[3])
    for k in (-500, 0, 6, 500):
        scaled, exp = dl._rescaled(np.ldexp(P, k))
        assert np.abs(scaled).max() < 1 <= 2 * np.abs(scaled).max()
        assert np.array_equal(np.ldexp(scaled, 6), P)  # max |P| is below 2**6
        assert exp == k + 6
    # scaling down by 2**1024 would round 1e-300 to a subnormal: no rescale
    wide = np.array([[1e300, 1e-300], [0.0, 1.0], [1.0, 0.0]])
    scaled, exp = dl._rescaled(wide)
    assert scaled is wide and exp == 0


@pytest.mark.parametrize("name", ["cloud2d-400", "cloud3d-800", "grid-6x6x6", "ring-12"])
def test_certified_delaunay_builds_one_complex(name, monkeypatch):
    built = []
    init = SimplicialComplex.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimplicialComplex, "__init__", counted)
    calls = count_fallbacks(monkeypatch)
    delaunay(CASES[name])
    assert calls == [] and built == [1]
