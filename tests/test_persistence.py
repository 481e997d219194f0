import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    betti_bruteforce,
    bottleneck,
    cohomology_reduce_all_columns,
    complex_cases,
    complex_json_text,
    diagram,
    geometry_cases,
    merge_forest_oracle,
    perturbed_order,
    reduce_oracle,
    torus_complex,
    views_from_arrays,
)
from stablevol.alpha import alpha_filtration
from stablevol.complexes import SimplicialComplex, build_order, complex_from_json
from stablevol.delaunay import DegenerateInputError
from stablevol.fixtures import GENERATORS, fig1_five_points, generate
from stablevol import kernels, persistence as pers


def pairset(pairs):
    return {(p.birth_rank, p.death_rank) for p in pairs}


def test_two_vertices_one_edge():
    cx = SimplicialComplex([(0, 1)])
    o = build_order(cx, [0.0, 1.0, 2.0])  # ids: (0,), (1,), (0, 1)
    pairs = pers.reduce(o)
    deg0 = [p for p in pairs if p.degree == 0]
    assert len(deg0) == 2
    ess = [p for p in deg0 if p.essential]
    fin = [p for p in deg0 if not p.essential]
    assert len(ess) == 1 and ess[0].birth_time == 0.0
    assert len(fin) == 1
    assert cx.simplices[fin[0].birth_simplex] == (1,)
    assert cx.simplices[fin[0].death_simplex] == (0, 1)


def test_fig1_d1_has_two_nonzero_pairs():
    f = alpha_filtration(fig1_five_points().points)
    assert len(diagram(pers.reduce(f.order), 1)) == 2


def test_high_degree_diagram_empty():
    f = alpha_filtration(fig1_five_points().points)
    pairs = pers.reduce(f.order)
    assert len(diagram(pairs, 5)) == 0


def test_zero_persistence_pairs_excluded():
    f = alpha_filtration([(0, 0), (1, 0), (1, 1), (0, 1)])
    pairs = pers.reduce(f.order)
    raw1 = [p for p in pairs if p.degree == 1]
    d1 = diagram(pairs, 1)
    assert len(raw1) == 2 and len(d1) == 1  # the diagonal pair dies instantly


def test_betti_numbers_match_bruteforce_oracle():
    random.seed(5)
    pts = [(random.random(), random.random()) for _ in range(12)]
    f = alpha_filtration(pts)
    pairs = pers.reduce(f.order)
    for t in (0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 1.0):
        for k in (0, 1):
            alive = sum(
                1
                for p in pairs
                if p.degree == k and p.birth_time < t and (p.essential or p.death_time >= t)
            )
            assert alive == betti_bruteforce(f.order, t, k)


def test_clearing_equals_plain_reduction():
    random.seed(17)
    for _ in range(10):
        pts = [(random.random() * 2, random.random() * 2) for _ in range(15)]
        o = alpha_filtration(pts).order
        assert pairset(pers.reduce(o)) == pairset(reduce_oracle(o, clearing=False))


def test_pair_degree_law():
    random.seed(19)
    pts = [tuple(random.random() for _ in range(3)) for _ in range(14)]
    o = alpha_filtration(pts).order
    for p in pers.reduce(o):
        if not p.essential:
            assert o.cx.dim_of(p.death_simplex) == o.cx.dim_of(p.birth_simplex) + 1
            assert p.birth_rank < p.death_rank


def test_cohomology_pairs_equal_homology_pairs():
    random.seed(23)
    for _ in range(10):
        pts = [(random.random(), random.random()) for _ in range(12)]
        o = alpha_filtration(pts).order
        pairs = pers.reduce(o)
        all_degrees, _ = cohomology_reduce_all_columns(o)
        assert pairset(all_degrees) == pairset(pairs)
        degree1, _ = pers.cohomology_reduce(o)
        assert list(degree1) == [p for p in pairs if p.degree == 1]


@pytest.fixture(scope="module")
def cohomology_orders():
    """Orders for the pair-table and degree-1 cohomology tests: every
    geometry case (the `gen` fixtures among them), the appendix filtration,
    two small tori, a hollow triangle and a lone vertex."""
    cases = {name: alpha_filtration(pts).order for name, pts in geometry_cases().items()}
    cases.update(complex_cases())
    return cases


COHOMOLOGY_CASES = sorted([*geometry_cases(), *complex_cases()])


def assert_table_equals(table, expected):
    """The table's rows, by iteration, by index and column by column, are the
    reference PersistencePairs."""
    assert len(table) == len(expected)
    assert list(table) == expected
    assert [table[i] for i in range(len(table))] == expected
    if expected:
        assert table[-1] == expected[-1]
    for name in ("degree", "birth_simplex", "birth_time", "birth_rank"):
        assert getattr(table, name).tolist() == [getattr(p, name) for p in expected]
    assert table.death_simplex.tolist() == [
        -1 if p.essential else p.death_simplex for p in expected
    ]
    assert table.death_rank.tolist() == [-1 if p.essential else p.death_rank for p in expected]
    assert table.death_time.tolist() == [p.death_time for p in expected]
    assert all(math.isinf(p.death_time) for p in expected if p.essential)
    for p in list(table):
        assert type(p.birth_simplex) is int and type(p.birth_time) is float


@pytest.mark.parametrize("clearing", [True, False], ids=["clearing", "plain"])
@pytest.mark.parametrize("name", COHOMOLOGY_CASES)
def test_pair_table_matches_oracle(cohomology_orders, name, clearing):
    o = cohomology_orders[name]
    table = pers.reduce(o)
    expected = reduce_oracle(o, clearing=clearing)
    assert_table_equals(table, expected)
    for k in range(-1, o.cx.dim + 2):
        listed = sorted(
            (p for p in expected if p.degree == k and p.birth_time != p.death_time),
            key=lambda p: (p.birth_time, p.death_time, p.birth_rank),
        )
        assert table.rows(table.diagram_index(k)) == listed


@pytest.mark.parametrize("name", COHOMOLOGY_CASES)
def test_cohomology_pair_table_matches_oracle(cohomology_orders, name):
    o = cohomology_orders[name]
    table, _ = pers.cohomology_reduce(o)
    ref_pairs, _ = cohomology_reduce_all_columns(o)
    assert_table_equals(table, [p for p in ref_pairs if p.degree == 1])


@pytest.mark.parametrize("name", COHOMOLOGY_CASES)
def test_degree1_cohomology_matches_all_columns_oracle(cohomology_orders, name):
    o = cohomology_orders[name]
    pairs, cocycle = pers.cohomology_reduce(o)
    ref_pairs, ref_cocycles = cohomology_reduce_all_columns(o)
    assert list(pairs) == [p for p in ref_pairs if p.degree == 1]
    finite = [(p.birth_rank, p.death_rank) for p in pairs if not p.essential]
    assert {key: cocycle(*key) for key in finite} == {
        (p.birth_rank, p.death_rank): ref_cocycles[(p.birth_rank, p.death_rank)]
        for p in ref_pairs
        if p.degree == 1 and not p.essential
    }
    assert list(pairs) == [p for p in pers.reduce(o) if p.degree == 1]


@pytest.mark.parametrize("name", COHOMOLOGY_CASES)
def test_union_find_deaths_equal_reduce(cohomology_orders, name):
    o = cohomology_orders[name]
    births, death_ranks = pers.degree0_deaths(o)
    deaths = o.order_array[death_ranks[death_ranks >= 0]].tolist()
    expected = [p.death_simplex for p in pers.reduce(o) if p.degree == 0 and not p.essential]
    assert sorted(deaths) == sorted(expected)
    ranks = o.rank_array[deaths].tolist()
    assert ranks == sorted(ranks)
    # the elder rule kills the younger vertex: reduce's degree-0 rows
    assert sorted(zip(births.tolist(), death_ranks.tolist())) == sorted(
        (p.birth_rank, -1 if p.essential else p.death_rank)
        for p in pers.reduce(o) if p.degree == 0
    )


def random_multigraph(seed):
    """Seeded edge rows over up to 30 nodes, some never on an edge, with
    self-loops and repeated edges; the empty graph and edgeless graphs too."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 31))
    m = int(rng.integers(0, 3 * n + 1)) if n else 0
    ends = rng.integers(0, max(n // 2 + 1, 1), (m, 2)) if n else np.empty((0, 2), np.int64)
    loops = rng.random(m) < 0.1
    ends[loops, 1] = ends[loops, 0]
    repeats = rng.integers(0, m, m // 4) if m else np.empty(0, np.int64)
    return n, np.concatenate([ends, ends[repeats]]).astype(np.int64)


@pytest.mark.parametrize("seed", range(40))
def test_merge_forest_matches_component_list_oracle(seed):
    n, ends = random_multigraph(seed)
    got = pers.merge_forest(n, ends)
    assert all(a.dtype == np.int64 for a in got)
    assert [a.tolist() for a in got] == list(merge_forest_oracle(n, ends.tolist()))


@pytest.mark.parametrize(
    "n, ends",
    [(0, []), (1, []), (4, []), (1, [(0, 0)]), (3, [(2, 2), (1, 2), (2, 1), (0, 2)]),
     (5, [(4, 3), (3, 4), (1, 0), (4, 0), (2, 2)])],
    ids=["empty", "one-node", "no-edges", "self-loop", "loops-and-repeats", "isolated"],
)
def test_merge_forest_edge_cases_match_oracle(n, ends):
    rows = np.array(ends, dtype=np.int64).reshape(-1, 2)
    got = pers.merge_forest(n, rows)
    assert [a.tolist() for a in got] == list(merge_forest_oracle(n, ends))


@pytest.mark.parametrize("name", COHOMOLOGY_CASES)
def test_boundary_matrix_matches_face_lists(cohomology_orders, name):
    o = cohomology_orders[name]
    rank, faces = o.rank_array.tolist(), views_from_arrays(o.cx)[2]
    expected = [sorted(rank[f] for f in faces[sid]) for sid in o.order_array.tolist()]
    assert pers.boundary_matrix(o) == expected


def test_torus_has_two_essential_degree1_classes():
    pairs, cocycle = pers.cohomology_reduce(torus_complex(6, 5, seed=0))
    assert len([p for p in pairs if p.essential]) == 2
    for p in pairs:
        if p.essential:
            with pytest.raises(KeyError):
                cocycle(p.birth_rank, -1)
        else:
            assert cocycle(p.birth_rank, p.death_rank)
            with pytest.raises(KeyError):
                cocycle(p.birth_rank, p.death_rank + 1)


def test_cocycle_is_alive_cut():
    """Removing the cocycle's edges from any intermediate 1-skeleton must kill
    the class: the killing is checked as a Betti-number drop."""
    from helpers import z2_rank

    f = alpha_filtration(fig1_five_points().points)
    o = f.order
    faces = views_from_arrays(o.cx)[2]
    pairs, cocycle = pers.cohomology_reduce(o)
    for p in pairs:
        if p.degree != 1 or p.essential or p.birth_time == p.death_time:
            continue
        cut = cocycle(p.birth_rank, p.death_rank)
        for k in (p.birth_rank, (p.birth_rank + p.death_rank) // 2, p.death_rank - 1):
            ids = set(o.order_array[: k + 1].tolist())
            edges = sorted(i for i in ids if o.cx.dim_of(i) == 1)
            tris = [i for i in ids if o.cx.dim_of(i) == 2]
            pos = {e: b for b, e in enumerate(edges)}

            def betti1(edge_subset):
                epos = {e: b for b, e in enumerate(edge_subset)}
                verts = sorted(i for i in ids if o.cx.dim_of(i) == 0)
                vpos = {v: b for b, v in enumerate(verts)}
                cols = []
                for e in edge_subset:
                    m = 0
                    for fc in faces[e]:
                        m |= 1 << vpos[fc]
                    cols.append(m)
                r1 = z2_rank(cols)
                cols2 = []
                for t in tris:
                    if all(fc in epos for fc in faces[t]):
                        m = 0
                        for fc in faces[t]:
                            m ^= 1 << epos[fc]
                        cols2.append(m)
                return len(edge_subset) - r1 - z2_rank(cols2)

            full = betti1(edges)
            cutg = betti1([e for e in edges if e not in cut])
            assert full >= 1
            assert cutg < full


def test_filled_triangle_has_no_degree1_cocycles():
    # triangle filled from birth: every simplex at level 0
    cx = SimplicialComplex([(0, 1, 2)])
    o = build_order(cx, [0.0] * len(cx))
    pairs, _ = pers.cohomology_reduce(o)
    assert not [p for p in pairs if p.degree == 1 and p.birth_time != p.death_time]


def test_stability_random_perturbations():
    rng = random.Random(31)
    f = alpha_filtration(fig1_five_points().points)
    base = pers.reduce(f.order)
    for _ in range(100):
        mag = rng.uniform(0.001, 0.2)
        oq, dist = perturbed_order(f.order, mag, rng)
        qpairs = pers.reduce(oq)
        for k in (0, 1):
            d = bottleneck(diagram(base, k), diagram(qpairs, k))
            assert d <= dist + 1e-12


# ---------------------------------------------------------------------------
# pairs by structure

PAIR_COLUMNS = ("degree", "birth_rank", "death_rank", "birth_simplex", "death_simplex",
                "birth_time", "death_time")


def count_reduce_calls(monkeypatch):
    calls = []
    reduce = pers.reduce

    def counted(o):
        calls.append(1)
        return reduce(o)

    monkeypatch.setattr(pers, "reduce", counted)
    return calls


def assert_pairs_equal_reduce(o, monkeypatch=None):
    """`pairs` gives `reduce`'s rows, column for column, for all degrees at
    once and for each degree alone. Returns the `pairs` tables by requested
    degree (None for all), and, with `monkeypatch`, the `reduce` calls each
    one made."""
    full = pers.reduce(o)
    calls = count_reduce_calls(monkeypatch) if monkeypatch else []
    tables, made = {}, {}
    for degrees in (None, *([k] for k in range(-1, o.cx.dim + 3))):
        before = len(calls)
        table = pers.pairs(o, degrees)
        key = None if degrees is None else degrees[0]
        tables[key], made[key] = table, len(calls) - before
        rows = np.isin(full.degree, range(o.cx.dim + 1) if degrees is None else degrees)
        for col in PAIR_COLUMNS:
            assert np.array_equal(getattr(table, col), getattr(full, col)[rows]), (degrees, col)
        assert list(table) == [p for p, keep in zip(full, rows.tolist()) if keep]
    return tables, made


def pair_clouds():
    """`geometry_cases()` plus every `gen` fixture at seeds 1 and 7."""
    cases = dict(geometry_cases())
    for name in sorted(GENERATORS):
        for seed in (1, 7):
            cases[f"gen-{name}-seed{seed}"] = generate(name, seed).points
    return cases


PAIR_CLOUDS = pair_clouds()


@pytest.mark.parametrize("name", sorted(PAIR_CLOUDS))
def test_pairs_equal_reduce_rows(name, monkeypatch):
    o = alpha_filtration(PAIR_CLOUDS[name]).order
    tables, made = assert_pairs_equal_reduce(o, monkeypatch)
    # degree 0 by union-find, degree n-1 from the merge tree, a 3D complex's
    # degree 1 from the edge columns: no degree set reduces
    assert not any(made.values())
    n = o.cx.dim
    assert tables[n - 1].tree is not None and tables[n].tree is not None
    assert tables[n - 2].tree is None


def count_kernel_calls(monkeypatch):
    calls = []
    reduce_columns = kernels.reduce_columns
    monkeypatch.setattr(kernels, "reduce_columns",
                        lambda *args, **kwargs: calls.append(1) or reduce_columns(*args, **kwargs))
    return calls


# kernel calls of `pairs(o, degrees)` on a 3D complex with the merge tree:
# degree 1 runs the edge columns; degree 3 reads only the tree's death
# cells, and degree 2 only the tree and degree 1's deaths
KERNEL_CALLS_3D = [([3], 0), ([2], 1), ([1], 1), ([0], 0), ([0, 3], 0), ([2, 3], 1), (None, 1)]


@pytest.mark.parametrize("name", ["lattice-3x3x3", "cloud3d-300"])
def test_pairs_compute_only_the_degrees_a_wanted_degree_needs(name, monkeypatch):
    if name == "cloud3d-300":
        o = alpha_filtration(np.random.default_rng(7).uniform(0.0, 40.0, (300, 3))).order
    else:
        o = alpha_filtration(generate(name, 7).points).order
    full = pers.reduce(o)
    calls = count_kernel_calls(monkeypatch)
    for degrees, expected in KERNEL_CALLS_3D:
        before = len(calls)
        table = pers.pairs(o, degrees)
        assert len(calls) - before == expected, degrees
        rows = np.isin(full.degree, range(4) if degrees is None else degrees)
        for col in PAIR_COLUMNS:
            assert np.array_equal(getattr(table, col), getattr(full, col)[rows]), (degrees, col)


@pytest.mark.parametrize("name", sorted(complex_cases()))
def test_pairs_equal_reduce_rows_on_complexes(name, monkeypatch):
    # the grid tori are closed surfaces: an essential class in degree 2
    o = complex_cases()[name]
    _, made = assert_pairs_equal_reduce(o, monkeypatch)
    # degrees 0 and 1 never reduce, so neither does a complex of dimension 1
    assert made[0] == made[1] == 0
    assert o.cx.dim > 1 or not any(made.values())


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    n=st.integers(min_value=3, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    decimals=st.sampled_from([0, 1, 3, None]),
)
def test_pairs_equal_reduce_on_random_2d_clouds(n, seed, decimals):
    # rounded coordinates give ties, cocircular points and collinear runs
    pts = np.random.default_rng(seed).uniform(-5.0, 5.0, (n, 2))
    if decimals is not None:
        pts = np.unique(np.round(pts, decimals), axis=0)
    try:
        o = alpha_filtration(pts).order
    except DegenerateInputError:
        assume(False)
    assert_pairs_equal_reduce(o)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    n=st.integers(min_value=4, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    decimals=st.sampled_from([0, 1, 3, None]),
)
def test_pairs_equal_reduce_on_random_3d_clouds(n, seed, decimals):
    # degree 1 from the edge columns, degree 2 from the merge tree and
    # degree 3 from the tetrahedra that are no degree-2 death, on ties,
    # cospherical points and coplanar runs
    pts = np.random.default_rng(seed).uniform(-5.0, 5.0, (n, 3))
    if decimals is not None:
        pts = np.unique(np.round(pts, decimals), axis=0)
    try:
        o = alpha_filtration(pts).order
    except DegenerateInputError:
        assume(False)
    assume(o.cx.dim == 3)
    assert_pairs_equal_reduce(o)


ANNULUS = [(0, 1, 4), (1, 4, 5), (1, 2, 5), (2, 5, 6), (2, 3, 6), (3, 6, 7), (3, 0, 7), (0, 4, 7)]


def complex_json_order(simplices, seed):
    """The order that `complex_from_json` loads from a shuffled complex JSON
    of the simplices and their faces, with lower-star levels of seeded
    random vertex levels."""
    cx = SimplicialComplex(simplices)
    vl = np.random.default_rng(seed).random(cx.vertex_count)
    o = build_order(cx, [float(max(vl[v] for v in s)) for s in cx.simplices])
    return complex_from_json(complex_json_text(o, shuffle_seed=seed))


@pytest.mark.parametrize("seed", range(4))
def test_pairs_of_a_complex_with_components_and_a_hole(seed, monkeypatch):
    # a triangulated annulus and two separate triangles: three essential
    # degree-0 classes and one essential degree-1 class, and no reduction
    o = complex_json_order([*ANNULUS, (8, 9, 10), (11, 12, 13)], seed)
    tables, made = assert_pairs_equal_reduce(o, monkeypatch)
    assert not any(made.values())
    table = tables[None]
    assert sorted(table.degree[table.death_rank < 0].tolist()) == [0, 0, 0, 1]


@pytest.mark.parametrize("seed", range(4))
def test_pairs_of_a_complex_with_a_dangling_edge(seed, monkeypatch):
    # vertex 8 and edge (0, 8) have no triangle coface: the dual-graph
    # condition fails, degree 1 comes from the edge columns and degree 2
    # from the triangles that are no degree-1 death, with no reduce()
    o = complex_json_order([*ANNULUS, (0, 8)], seed)
    tables, made = assert_pairs_equal_reduce(o, monkeypatch)
    assert not any(made.values())
    assert tables[1].tree is None and tables[2].tree is None


def boundary_faces(vertices):
    """The facets of the simplex on `vertices`: a sphere of one dimension
    less."""
    return list(itertools.combinations(vertices, len(vertices) - 1))


HIGHER_COMPLEXES = {
    # the 4-sphere: degree 3 from the merge tree, degrees 1 and 2 from the
    # cochain columns
    "sphere4": (boundary_faces(range(6)), True, [0, 4]),
    # and a 3-sphere of tetrahedra with no 4-coface: the condition fails,
    # so degrees 1 to 3 come from the cochain columns
    "sphere4-and-sphere3": ([*boundary_faces(range(6)), *boundary_faces(range(6, 11))],
                            False, [0, 0, 3, 4]),
    # the 3-sphere and a tetrahedron on its triangle (0, 1, 2), which then
    # has three cofaces: degree 2 from the cochain columns
    "sphere3-and-fin": ([*boundary_faces(range(5)), (0, 1, 2, 5)], False, [0, 3]),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(HIGHER_COMPLEXES))
def test_pairs_of_higher_and_failed_condition_complexes(name, seed, monkeypatch):
    simplices, has_tree, essential_degrees = HIGHER_COMPLEXES[name]
    o = complex_json_order(simplices, seed)
    tables, made = assert_pairs_equal_reduce(o, monkeypatch)
    assert not any(made.values())
    n = o.cx.dim
    assert (tables[n - 1].tree is not None) == has_tree and tables[n - 2].tree is None
    # with the tree, degree n reads only its death cells and degree n-1
    # the cochain columns of degrees 1 to n-2; without it, both need 1 to n-1
    calls = count_kernel_calls(monkeypatch)
    for k, expected in ((n, 0 if has_tree else n - 1), (n - 1, n - 2 if has_tree else n - 1)):
        before = len(calls)
        pers.pairs(o, [k])
        assert len(calls) - before == expected, k
    table = tables[None]
    assert sorted(table.degree[table.death_rank < 0].tolist()) == essential_degrees
