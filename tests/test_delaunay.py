import importlib
import random

import numpy as np
import pytest

from helpers import geometry_cases
from stablevol.complexes import validate_complex
from stablevol.delaunay import DegenerateInputError, delaunay
from stablevol.predicates import circumsphere_side, jittered_points

# the package re-exports the function `delaunay` under the module's name
dl = importlib.import_module("stablevol.delaunay")
CASES = geometry_cases()


def bowyer_watson(points):
    pts = [tuple(map(float, p)) for p in points]
    return dl._bowyer_watson(pts, jittered_points(pts), len(pts[0]))


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
        assert validate_complex(cx) == []
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
    assert validate_complex(cx) == []
    jit = jittered_points(pts)
    for t in cx.ids_of_dim(3):
        tv = cx.simplices[t]
        for i, p in enumerate(jit):
            if i not in tv:
                assert circumsphere_side([jit[v] for v in tv], p) < 0
    # interior faces have two tetra cofaces, hull faces one
    for f in cx.ids_of_dim(2):
        assert len(cx.cofaces[f]) in (1, 2)


def test_degenerate_integer_lattice_resolved_by_jitter():
    pts = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    cx = delaunay(pts)
    assert validate_complex(cx) == []
    for f in cx.ids_of_dim(2):
        assert len(cx.cofaces[f]) in (1, 2)


def test_identical_points_resolved_by_jitter():
    # duplicate points become distinct under the symbolic jitter; the
    # triangulation is tiny but valid
    cx = delaunay([(0.5, 0.5)] * 5)
    assert validate_complex(cx) == []
    assert len(cx.ids_of_dim(0)) == 5


def test_too_few_points_rejected():
    with pytest.raises(DegenerateInputError):
        delaunay([(0, 0), (1, 1)])


def test_cocircular_ring():
    import math

    pts = [(math.cos(2 * math.pi * k / 12), math.sin(2 * math.pi * k / 12))
           for k in range(12)]
    cx = delaunay(pts)
    assert validate_complex(cx) == []
    v, e, f = (len(cx.ids_of_dim(d)) for d in (0, 1, 2))
    assert v == 12 and v - e + f == 1


def test_exact_grid_2d():
    pts = [(x, y) for x in range(5) for y in range(5)]
    cx = delaunay(pts)
    assert validate_complex(cx) == []
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
    assert validate_complex(cx) == []
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
    jit = jittered_points([tuple(map(float, p)) for p in pts])
    result = dl._certified_qhull(np.array(jit))
    assert (result is not None) == accepted
    if accepted:
        assert sorted(map(sorted, result.tolist())) == sorted(map(sorted, cells))
