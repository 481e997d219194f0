import json
import math
import random

import pytest

from helpers import chain_rational
from stablevol.complexes import (
    Chain,
    DimensionError,
    MonotonicityError,
    SimplicialComplex,
    boundary,
    build_order,
    chain_z2,
    complex_from_json,
    complex_to_json,
    simplex,
    sublevel_complex,
    validate_complex,
)
from stablevol.delaunay import delaunay
from stablevol.alpha import alpha_filtration
from stablevol.fixtures import fig1_five_points


def test_simplex_canonical():
    assert simplex([2, 0, 1]) == (0, 1, 2)
    with pytest.raises(ValueError):
        simplex([1, 1])
    with pytest.raises(ValueError):
        simplex([])


def test_validate_full_triangle():
    cx = SimplicialComplex([(0, 1, 2), (0, 1), (0, 2), (1, 2), (0,), (1,), (2,)])
    assert validate_complex(cx) == []


def test_validate_missing_face():
    cx = SimplicialComplex([(0, 1), (0,)])
    bad = validate_complex(cx)
    assert len(bad) == 1 and "(1,)" in bad[0]


def test_validate_random_delaunay_closed():
    random.seed(4)
    pts = [(random.random(), random.random()) for _ in range(20)]
    assert validate_complex(delaunay(pts)) == []


def test_build_order_levels_then_dim_then_lex():
    cx = SimplicialComplex([(0, 1, 2)], closure=True)
    level = {}
    for s in cx.simplices:
        level[s] = {1: 0.0, 2: 1.0, 3: 2.0}[len(s)]
    o = build_order(cx, level)
    dims = [len(cx.simplices[i]) for i in o.order]
    assert dims == sorted(dims)
    # equal-level edges tie-break lexicographically
    level2 = {s: 0.0 if len(s) == 1 else 1.0 for s in cx.simplices}
    o2 = build_order(cx, level2)
    edge_order = [cx.simplices[i] for i in o2.order if len(cx.simplices[i]) == 2]
    assert edge_order == [(0, 1), (0, 2), (1, 2)]


def test_build_order_monotonicity_error():
    cx = SimplicialComplex([(0, 1, 2)], closure=True)
    level = {s: 0.0 for s in cx.simplices}
    level[(0, 1)] = 3.0
    level[(0, 1, 2)] = 2.0
    with pytest.raises(MonotonicityError) as ei:
        build_order(cx, level)
    assert ei.value.face == (0, 1) and ei.value.coface == (0, 1, 2)


def test_order_invariants_on_random_filtration():
    random.seed(11)
    pts = [(random.random() * 2, random.random() * 2) for _ in range(15)]
    o = alpha_filtration(pts).order
    cx = o.cx
    for i in range(len(cx)):
        for fi in cx.faces[i]:
            assert o.rank[fi] < o.rank[i]
            assert o.level[fi] <= o.level[i]
    # every rank prefix is a closed complex
    for cut in (1, len(cx) // 3, len(cx) // 2, len(cx)):
        sub = SimplicialComplex([cx.simplices[i] for i in o.prefix_ids(cut)])
        assert validate_complex(sub) == []


def test_every_prefix_is_closed_small():
    f = alpha_filtration(fig1_five_points().points)
    o = f.order
    for cut in range(len(o) + 1):
        sub = SimplicialComplex([o.cx.simplices[i] for i in o.prefix_ids(cut)])
        assert validate_complex(sub) == []


def test_boundary_of_triangle_z2():
    cx = SimplicialComplex([(0, 1, 2)], closure=True)
    ch = chain_z2([cx.index[(0, 1, 2)]], cx)
    b = boundary(cx, ch)
    assert {cx.simplices[i] for i in b.support()} == {(0, 1), (0, 2), (1, 2)}


def test_boundary_squared_is_zero_both_fields():
    random.seed(3)
    pts = [(random.random(), random.random()) for _ in range(14)]
    cx = delaunay(pts)
    tri_ids = cx.ids_of_dim(2)
    for _ in range(20):
        picks = random.sample(tri_ids, min(4, len(tri_ids)))
        z2 = boundary(cx, boundary(cx, chain_z2(picks, cx)))
        assert not z2
        rat = chain_rational({i: random.randint(-3, 3) or 1 for i in picks}, cx)
        assert not boundary(cx, boundary(cx, rat))


def test_boundary_dimension_error():
    cx = SimplicialComplex([(0, 1)], closure=True)
    with pytest.raises(DimensionError):
        boundary(cx, chain_z2([0], cx))


def test_boundary_of_annulus_strip():
    # triangulated annulus: 2n triangles between two concentric n-gons
    n = 8
    tris = []
    for k in range(n):
        a, b = k, (k + 1) % n
        ia, ib = n + a, n + b
        tris.append(tuple(sorted((a, b, ia))))
        tris.append(tuple(sorted((b, ia, ib))))
    cx = SimplicialComplex(tris, closure=True)
    total = chain_z2(cx.ids_of_dim(2), cx)
    rim = boundary(cx, total)
    # brute-force coefficient count: each edge's triangle cofaces mod 2
    expect = {e for e in cx.ids_of_dim(1) if len(cx.cofaces[e]) % 2 == 1}
    assert rim.support() == expect
    # exactly the two boundary n-gons
    assert len(expect) == 2 * n


def test_sublevel_complex():
    f = alpha_filtration(fig1_five_points().points)
    o = f.order
    assert len(sublevel_complex(o, -math.inf)) == 0
    assert len(sublevel_complex(o, max(o.level) + 1)) == len(o.cx)
    # Fig 1 at t = 0.6: both loops' edges present, square triangles absent
    sub = sublevel_complex(o, 0.6)
    assert validate_complex(sub) == []
    names = set(sub.simplices)
    assert (0, 1) in names and (0, 3) in names and (0, 4) in names
    assert (0, 1, 2) not in names and (0, 2, 3) not in names
    # the equilateral triangle (level 1/sqrt(3) = 0.577) is already filled
    assert (0, 3, 4) in names


def test_complex_json_roundtrip():
    f = alpha_filtration(fig1_five_points().points)
    obj = complex_to_json(f.order)
    o2 = complex_from_json(json.dumps(obj))
    assert [o2.cx.simplices[i] for i in o2.order] == [
        f.order.cx.simplices[i] for i in f.order.order
    ]
    assert o2.level == f.order.level


def test_complex_json_rejects_unclosed():
    bad = {"vertices": 1, "simplices": [{"v": [0, 1], "level": 1.0}, {"v": [0], "level": 0.0}]}
    with pytest.raises(ValueError):
        complex_from_json(json.dumps(bad))
