import json
import math
import random

import numpy as np
import pytest

from helpers import (
    MISSING_FACE_CASES,
    VIEWS,
    TupleComplex,
    assert_closed,
    build_order_by_key,
    complex_from_json_oracle,
    complex_json_text,
    complex_to_json,
    geometry_cases,
    missing_faces,
    monotone_repair,
    sublevel_complex,
    torus3d_order,
    torus_complex,
    views_from_arrays,
)
from stablevol.complexes import (
    _lex_rank,
    DimensionError,
    MonotonicityError,
    SimplicialComplex,
    boundary,
    build_order,
    complex_from_json,
    simplex,
)
from stablevol.delaunay import delaunay
from stablevol.alpha import alpha_filtration, alpha_levels
from stablevol.fixtures import fig1_five_points


def test_simplex_canonical():
    assert simplex([2, 0, 1]) == (0, 1, 2)
    with pytest.raises(ValueError):
        simplex([1, 1])
    with pytest.raises(ValueError):
        simplex([])


def test_validate_full_triangle():
    cx = SimplicialComplex([(0, 1, 2), (0, 1), (0, 2), (1, 2), (0,), (1,), (2,)])
    assert len(cx) == 7
    assert_closed(cx)


def test_validate_random_delaunay_closed():
    random.seed(4)
    pts = [(random.random(), random.random()) for _ in range(20)]
    assert_closed(delaunay(pts))


def test_build_order_levels_then_dim_then_lex():
    cx = SimplicialComplex([(0, 1, 2)])
    level = [{1: 0.0, 2: 1.0, 3: 2.0}[len(s)] for s in cx.simplices]
    o = build_order(cx, level)
    dims = [len(cx.simplices[i]) for i in o.order_array.tolist()]
    assert dims == sorted(dims)
    # equal-level edges tie-break lexicographically
    level2 = [0.0 if len(s) == 1 else 1.0 for s in cx.simplices]
    o2 = build_order(cx, level2)
    edge_order = [cx.simplices[i] for i in o2.order_array.tolist() if len(cx.simplices[i]) == 2]
    assert edge_order == [(0, 1), (0, 2), (1, 2)]


def test_build_order_monotonicity_error():
    cx = SimplicialComplex([(0, 1, 2)])
    level = {s: 0.0 for s in cx.simplices}
    level[(0, 1)] = 3.0
    level[(0, 1, 2)] = 2.0
    with pytest.raises(MonotonicityError) as ei:
        build_order(cx, [level[s] for s in cx.simplices])
    assert ei.value.face == (0, 1) and ei.value.coface == (0, 1, 2)


def test_order_invariants_on_random_filtration():
    random.seed(11)
    pts = [(random.random() * 2, random.random() * 2) for _ in range(15)]
    o = alpha_filtration(pts)
    cx = o.cx
    for i, faces in enumerate(views_from_arrays(cx)[2]):
        for fi in faces:
            assert o.rank_array[fi] < o.rank_array[i]
            assert o.level_array[fi] <= o.level_array[i]
    # every rank prefix is a closed complex: it lacks no face, so building it adds none
    for cut in (1, len(cx) // 3, len(cx) // 2, len(cx)):
        rows = [cx.simplices[i] for i in o.order_array[:cut].tolist()]
        assert missing_faces(rows) == []
        assert len(SimplicialComplex(rows)) == len(rows)


def test_every_prefix_is_closed_small():
    o = alpha_filtration(fig1_five_points())
    for cut in range(len(o) + 1):
        rows = [o.cx.simplices[i] for i in o.order_array[:cut].tolist()]
        assert missing_faces(rows) == []
        assert len(SimplicialComplex(rows)) == len(rows)


def test_boundary_of_triangle_z2():
    cx = SimplicialComplex([(0, 1, 2)])
    b = boundary(cx, 2, [cx.simplices.index((0, 1, 2))])
    assert {cx.simplices[i] for i in b} == {(0, 1), (0, 2), (1, 2)}


def test_boundary_squared_is_zero_z2():
    random.seed(3)
    pts = [(random.random(), random.random()) for _ in range(14)]
    cx = delaunay(pts)
    tri_ids = cx.ids_of_dim(2)
    for _ in range(20):
        picks = random.sample(tri_ids, min(4, len(tri_ids)))
        assert boundary(cx, 1, boundary(cx, 2, picks)) == set()


def test_boundary_cancels_an_id_listed_twice():
    cx = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
    a, b = (cx.simplices.index(t) for t in ((0, 1, 2), (1, 2, 3)))
    assert boundary(cx, 2, [a, a]) == set()
    assert boundary(cx, 2, [a, b, b]) == boundary(cx, 2, [a])
    shared = cx.simplices.index((1, 2))
    assert shared in boundary(cx, 2, [a]) and shared not in boundary(cx, 2, [a, b])


def test_boundary_dimension_error():
    cx = SimplicialComplex([(0, 1, 2)])
    with pytest.raises(DimensionError):
        boundary(cx, 0, [0])
    edge, tri = cx.ids_of_dim(1)[0], cx.ids_of_dim(2)[0]
    for k, ids in ((2, [edge]), (1, [tri]), (1, [0]), (2, [tri, edge]), (3, [tri])):
        with pytest.raises(DimensionError):
            boundary(cx, k, ids)


def test_boundary_of_annulus_strip():
    # triangulated annulus: 2n triangles between two concentric n-gons
    n = 8
    tris = []
    for k in range(n):
        a, b = k, (k + 1) % n
        ia, ib = n + a, n + b
        tris.append(tuple(sorted((a, b, ia))))
        tris.append(tuple(sorted((b, ia, ib))))
    cx = SimplicialComplex(tris)
    rim = boundary(cx, 2, cx.ids_of_dim(2))
    # brute-force coefficient count: each edge's triangle cofaces mod 2
    cofaces = views_from_arrays(cx)[3]
    expect = {e for e in cx.ids_of_dim(1) if len(cofaces[e]) % 2 == 1}
    assert rim == expect
    # exactly the two boundary n-gons
    assert len(expect) == 2 * n


def test_sublevel_complex():
    o = alpha_filtration(fig1_five_points())
    assert len(sublevel_complex(o, -math.inf)) == 0
    assert len(sublevel_complex(o, o.level_array.max() + 1)) == len(o.cx)
    # Fig 1 at t = 0.6: both loops' edges present, square triangles absent
    sub = sublevel_complex(o, 0.6)
    rows = [s for i, s in enumerate(o.cx.simplices) if o.level_array[i] < 0.6]
    assert missing_faces(rows) == []
    assert len(sub) == len(rows)
    names = set(sub.simplices)
    assert (0, 1) in names and (0, 3) in names and (0, 4) in names
    assert (0, 1, 2) not in names and (0, 2, 3) not in names
    # the equilateral triangle (level 1/sqrt(3) = 0.577) is already filled
    assert (0, 3, 4) in names


def test_complex_json_roundtrip():
    f = alpha_filtration(fig1_five_points())
    obj = complex_to_json(f)
    o2 = complex_from_json(json.dumps(obj))
    assert [o2.cx.simplices[i] for i in o2.order_array.tolist()] == [
        f.cx.simplices[i] for i in f.order_array.tolist()
    ]
    assert o2.level_array.tolist() == f.level_array.tolist()


def test_complex_json_rejects_unclosed():
    bad = {"vertices": 1, "simplices": [{"v": [0, 1], "level": 1.0}, {"v": [0], "level": 0.0}]}
    with pytest.raises(ValueError):
        complex_from_json(json.dumps(bad))


@pytest.mark.parametrize("name", sorted(MISSING_FACE_CASES))
def test_complex_json_missing_face_text(name):
    text, message = MISSING_FACE_CASES[name]
    with pytest.raises(ValueError) as got:
        complex_from_json(text)
    assert str(got.value) == message
    with pytest.raises(ValueError) as want:
        complex_from_json_oracle(text)
    assert str(want.value) == message


def test_complex_json_missing_faces_match_oracle_on_random_entries():
    # random simplex sets in shuffled entry order, most of them not closed
    rng = random.Random(11)
    pool = [-(2**63), 2**63 - 1, -5, -1, 0, 1, 2, 3, 7, 9, 40, 10**12]
    rejected = 0
    for _ in range(150):
        ids = rng.sample(pool, rng.randint(1, 9))
        rows = {tuple(rng.sample(ids, rng.randint(1, min(4, len(ids)))))
                for _ in range(rng.randint(1, 14))}
        entries = [{"v": list(v), "level": len(v) - 1} for v in rows]
        rng.shuffle(entries)
        text = json.dumps({"simplices": entries})
        try:
            want = complex_from_json_oracle(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                complex_from_json(text)
            assert str(got.value) == str(exc)
            rejected += "missing face" in str(exc)
            continue
        assert_same_loaded(complex_from_json(text), want)
    assert rejected > 50


def test_complex_json_rejects_duplicate_simplex():
    obj = {"simplices": [{"v": [0], "level": 0}, {"v": [1], "level": 0},
                         {"v": [1, 0], "level": 1}, {"v": [0, 1], "level": 2}]}
    with pytest.raises(ValueError, match=r"simplex \[0, 1\] is listed twice, in entries 2 and 3"):
        complex_from_json(json.dumps(obj))
    # the Python API keeps de-duplicating
    assert SimplicialComplex([(1, 0), (0, 1)]).simplices == [(0,), (1,), (0, 1)]


# ---------------------------------------------------------------------------
# the array builder against the per-simplex reference builder


def assert_same_complex(cx, ref):
    assert_closed(cx)
    assert cx.simplices == ref.simplices
    assert views_from_arrays(cx) == (ref.simplices, ref.index, ref.faces, ref.cofaces)
    assert cx.dim == ref.dim
    assert cx.vertex_count == len(ref.ids_of_dim(0))
    for k in range(-1, cx.dim + 2):
        ids = cx.ids_of_dim(k)
        assert isinstance(ids, range) and list(ids) == ref.ids_of_dim(k)
        if not 0 <= k <= cx.dim:
            continue
        # the per-dimension arrays say the same as the reference lists
        assert [tuple(r) for r in cx.vertex_array(k).tolist()] == [ref.simplices[i] for i in ids]
        assert cx.face_array(k).tolist() == [ref.faces[i] for i in ids]
        ptr, idx = cx.coface_csr(k)
        assert [idx[a:b].tolist() for a, b in zip(ptr[:-1], ptr[1:])] == [
            ref.cofaces[i] for i in ids
        ]


def assert_same_order(cx, ref, level):
    try:
        expect = build_order_by_key(ref, level)
    except MonotonicityError as exc:
        with pytest.raises(MonotonicityError) as got:
            build_order(cx, level)
        assert (got.value.face, got.value.coface, str(got.value)) == (
            exc.face, exc.coface, str(exc))
        return
    o = build_order(cx, level)
    assert (o.level_array.tolist(), o.order_array.tolist()) == expect
    assert all(o.rank_array[sid] == pos for pos, sid in enumerate(o.order_array))


GEOMETRY = geometry_cases()


@pytest.mark.parametrize("name", sorted(GEOMETRY))
def test_builder_matches_reference_on_delaunay(name):
    pts = GEOMETRY[name]
    cx = delaunay(pts)
    top = [cx.simplices[i] for i in cx.ids_of_dim(cx.dim)]
    ref = TupleComplex(top)
    assert_same_complex(cx, ref)
    # rows in any order, vertices in any order within a row, as array or tuples
    rng = np.random.default_rng(5)
    cells = rng.permuted(np.array(top)[rng.permutation(len(top))], axis=1)
    assert_same_complex(SimplicialComplex(cells), ref)
    assert_same_complex(SimplicialComplex(map(tuple, cells.tolist())), ref)
    assert_same_order(cx, ref, alpha_levels(cx, pts))


UNCLOSED = [(0, 1, 2), (1, 2, 3), (0, 1), (2,), (5, 7), (3,), (2, 5, 6, 9)]


@pytest.mark.parametrize(
    "simplices",
    [
        UNCLOSED,
        [(v,) for v in range(4)] + [(0, 1), (1, 2)] + [(i, i + 1, i + 2) for i in range(20)],
        [(-5, 70000, 2**40), (-5, 3), (2**40, -7, 3, 99999), (-(2**63), 2**63 - 1)],
        [(0, 1), (1, 0), (0,), (0,), (1,)],
        [(4,)],
        [],
    ],
    ids=["unclosed", "many-missing", "negative-and-large-ids", "repeats", "one-vertex", "empty"],
)
def test_builder_matches_reference(simplices):
    cx = SimplicialComplex(simplices)
    ref = TupleComplex(simplices)
    assert_same_complex(cx, ref)
    if len(ref):
        level = [float(len(s)) for s in ref.simplices]
        assert_same_order(cx, ref, level)


BIG = 2**63 - 1
# widths 1-4, ids at both ends of int64, rows repeated in another vertex order
EXTREME = [
    (-BIG,), (BIG,), (0,), (-BIG,), (BIG, -BIG), (-BIG, BIG), (0, BIG, -BIG),
    (BIG, -1, 0, -BIG), (-BIG, 0, -1, BIG), (7, BIG, -BIG), (7, -BIG, BIG), (3, 7),
]


def test_builder_matches_reference_at_extreme_ids():
    ref = TupleComplex(EXTREME)
    assert_same_complex(SimplicialComplex(EXTREME), ref)
    # the loader's rows, in reverse order with reversed vertices: the build
    # ranks each given row once, and that rank places its level
    rows = [list(reversed(s)) for s in reversed(ref.simplices)]
    o = complex_from_json({"simplices": [{"v": v, "level": float(len(v))} for v in rows]})
    assert_same_complex(o.cx, ref)
    assert o.level_array.tolist() == [float(len(s)) for s in ref.simplices]


@pytest.mark.parametrize("base", [2, 1000, 2**31 + 11, 2**40 + 11, 2**54])
def test_lex_rank_matches_lexsort(base):
    # keys that would overflow int64 at the next column are re-ranked first;
    # 300 * base fits in int64, as it does for the dense ranks of the build
    rng = np.random.default_rng(base % 1000)
    for width in (1, 2, 3, 4):
        rows = rng.integers(0, base, size=(300, width), dtype=np.int64)
        rows[150:] = rows[rng.integers(0, 150, 150)]  # repeated rows
        rank, first = _lex_rank(rows, base)
        order = np.lexsort(rows.T[::-1])
        s = rows[order]
        new = np.r_[True, (s[1:] != s[:-1]).any(axis=1)]
        want = np.empty(len(rows), dtype=np.int64)
        want[order] = np.cumsum(new) - 1
        assert np.array_equal(rank, want)
        assert np.array_equal(rows[first], s[new])


def test_builder_rejects_what_simplex_rejects():
    with pytest.raises(ValueError, match=r"duplicate vertices in simplex \(1, 1\)"):
        SimplicialComplex([(0, 1), (1, 1)])
    with pytest.raises(ValueError, match=r"duplicate vertices in simplex \(2, 2, 3\)"):
        SimplicialComplex(np.array([[0, 1, 2], [3, 2, 2]]))
    with pytest.raises(ValueError, match="empty simplex"):
        SimplicialComplex([(0,), ()])
    with pytest.raises(ValueError, match="64-bit"):
        SimplicialComplex([(0, 2**63)])


@pytest.mark.parametrize("seed", range(4))
def test_order_with_tied_levels_matches_reference(seed):
    # 3D grid cells with levels drawn from three values: ties everywhere
    cx = delaunay(GEOMETRY["grid-6x6x6"][:80])
    ref = TupleComplex([cx.simplices[i] for i in cx.ids_of_dim(cx.dim)])
    rng = random.Random(seed)
    raw = [float(rng.randint(0, 2)) for _ in range(len(cx))]
    assert_same_order(cx, ref, monotone_repair(ref, raw))
    # the raw draw violates monotonicity many times; the first pair is named
    assert_same_order(cx, ref, raw)


@pytest.mark.parametrize("name", sorted(GEOMETRY) + ["complex-json"])
def test_views_are_lazy_and_equal_array_oracle(name):
    if name == "complex-json":
        cx = complex_from_json(json.dumps(complex_to_json(torus_complex(6, 5, seed=0)))).cx
    else:
        cx = delaunay(GEOMETRY[name])
    assert not set(VIEWS) & set(vars(cx))
    ref = views_from_arrays(cx)
    assert cx.simplices == ref[0]
    assert set(VIEWS) <= set(vars(cx))
    # lengths and dimensions come from the id offsets
    assert len(cx) == len(ref[0])
    assert [cx.dim_of(i) for i in range(len(cx))] == [len(t) - 1 for t in ref[0]]
    assert [cx.vertices(i) for i in range(len(cx))] == ref[0]
    for bad in (-1, len(cx)):
        with pytest.raises(IndexError):
            cx.dim_of(bad)


# ---------------------------------------------------------------------------
# the array loader of complex JSON against the per-entry oracle


def assert_same_loaded(o, ref):
    for a in ("order_array", "level_array", "rank_array"):
        got, want = getattr(o, a), getattr(ref, a)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (o.cx.dim, len(o.cx)) == (ref.cx.dim, len(ref.cx))
    for k in range(ref.cx.dim + 1):
        for got, want in [
            (o.cx.vertex_array(k), ref.cx.vertex_array(k)),
            (o.cx.face_array(k), ref.cx.face_array(k)),
            *zip(o.cx.coface_csr(k), ref.cx.coface_csr(k)),
        ]:
            assert got.dtype == want.dtype and np.array_equal(got, want)
    assert not set(VIEWS) & set(vars(o.cx))


def loader_cases():
    cases = {"torus-6x5": torus_complex(6, 5, seed=0), "torus3d": torus3d_order()}
    for name, pts in GEOMETRY.items():
        cases[f"alpha-{name}"] = alpha_filtration(pts)
    return cases


LOADER_CASES = loader_cases()


@pytest.mark.parametrize("shuffle", [None, 3], ids=["listed", "shuffled-float-ids"])
@pytest.mark.parametrize("name", sorted(LOADER_CASES))
def test_complex_json_loader_matches_oracle(name, shuffle):
    text = complex_json_text(LOADER_CASES[name], shuffle_seed=shuffle)
    assert_same_loaded(complex_from_json(text), complex_from_json_oracle(text))


MALFORMED_EXTRA = [
    '{"simplices": [{"v": [0], "level": 0}, {"v": [%d], "level": 0}]}' % 2**63,
    '{"simplices": [{"v": [0, 1], "level": 0}, {"v": [%d], "level": 0}]}' % 2**64,
    '{"simplices": [{"v": [%d], "level": 0}, {"v": [0, 0], "level": 0}]}' % 2**64,
    '{"simplices": [{"v": [0], "level": 0}, {"v": [], "level": 0}, {"v": [1, 1], "level": 0}]}',
    '{"simplices": [{"v": [0, 2, 2], "level": 0}, {"v": [1, 1], "level": 0}]}',
    '{"simplices": [{"v": [1, 1], "level": 0}, {"v": [0, 2, 2], "level": 0}]}',
    '{"simplices": [{"v": [0], "level": 0}, {"v": [true], "level": 0}]}',
    '{"simplices": [{"v": [0], "level": true}]}',
    '{"simplices": [{"v": [0], "level": "1"}]}',
    '{"simplices": [{"v": [0], "level": 0}, {"v": "ab", "level": 0}]}',
    '{"simplices": [{"v": [0], "level": 0}, ["v", "level"]]}',
    '{"simplices": [{"v": [0], "level": 0}, {"v": [1.5], "lev": 0}]}',
    '{"simplices": [{"v": [0], "level": 0}, {"v": [1], "level": 1}, {"v": [0, 1], "level": 1},'
    ' {"v": [1.0], "level": 3}, {"v": [0, 1.0], "level": 2}]}',
    '{"simplices": [{"v": [0, 1], "level": 1}, {"v": [0], "level": 0}]}',
    '{"simplices": [{"v": [0], "level": 0}, {"v": [1], "level": NaN}, {"v": [0, 1], "level": 1e999}]}',
    '{"vertices": 3, "simplices": [{"v": [0], "level": 0}]}',
    '{"vertices": 1.5, "simplices": [{"v": [0], "level": 0}]}',
    '{"vertices": true, "simplices": [{"v": [0], "level": 0}]}',
    '[]',
    '{"simplices": [{"v": [%d], "level": 0}, {"v": [%d], "level": 0}, {"v": [0], "level": 0},'
    ' {"v": [%d, %d], "level": 1}, {"v": [%d, 0, %d], "level": 2}]}'
    % (-BIG, BIG, BIG, -BIG, BIG, -BIG),
]
MALFORMED_EXTRA_IDS = [
    "id-beyond-int64", "overflow-after-valid-group", "overflow-before-duplicate-vertex",
    "empty-before-duplicate-vertex", "duplicate-vertex-entry-order",
    "duplicate-vertex-entry-order-reversed", "bool-id", "bool-level", "string-level",
    "string-v", "list-entry", "fraction-id-before-missing-level", "float-id-duplicate",
    "missing-face", "non-finite-entry-order", "vertex-count-mismatch", "vertices-fraction",
    "vertices-bool", "top-level-list", "missing-face-extreme-ids",
]


@pytest.mark.parametrize("text", MALFORMED_EXTRA, ids=MALFORMED_EXTRA_IDS)
def test_complex_json_errors_match_oracle(text):
    with pytest.raises(ValueError) as want:
        complex_from_json_oracle(text)
    with pytest.raises(ValueError) as got:
        complex_from_json(text)
    assert str(got.value) == str(want.value)


def test_complex_json_accepts_integral_float_ids():
    text = '{"vertices": 2.0, "simplices": [{"v": [0.0], "level": 0}, {"v": [1], "level": 0.5},' \
        ' {"v": [1.0, 0], "level": 2}]}'
    o = complex_from_json(text)
    assert o.cx.vertex_array(1).tolist() == [[0, 1]] and o.level_array.tolist() == [0.0, 0.5, 2.0]
    assert_same_loaded(o, complex_from_json_oracle(text))
