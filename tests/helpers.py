"""Shared test utilities: perturbation samplers, brute-force oracles,
reference implementations and geometry test inputs."""

import importlib.util
import itertools
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from stablevol import persistence as pers
from stablevol.alpha import _circum_batch, _is_gabriel
from stablevol.complexes import (
    MonotonicityError,
    SimplicialComplex,
    boundary,
    build_order,
    faces_of,
    simplex,
)
from stablevol.dualtree import OMEGA_INF, ConditionError, PersistenceTree
from stablevol.fixtures import GENERATORS, generate
from stablevol.persistence import PersistencePair
from stablevol.predicates import orient_batch
from stablevol.volopt import InfeasibleError


def monotone_repair(cx, levels):
    """Raise each simplex to its faces' maximum so the map is a level map."""
    out = list(levels)
    simplices, _, faces, _ = views(cx)
    for i in sorted(range(len(cx)), key=lambda i: len(simplices[i])):
        for fi in faces[i]:
            if out[fi] > out[i]:
                out[i] = out[fi]
    return out


def perturbed_order(order, magnitude, rng):
    """A nearby order with levels; returns (new order, achieved sup distance)."""
    level = order.level_array.tolist()
    raw = [l + rng.uniform(-magnitude, magnitude) for l in level]
    q = monotone_repair(order.cx, raw)
    dist = max(abs(a - b) for a, b in zip(q, level))
    return build_order(order.cx, q), dist


def admissible_order(order, pair, eps, rng):
    """Sample a level perturbation within eps/2 that keeps everything ranked
    before the pair's death cell ranked before it (the death-cell order
    condition of the stable-volume theorem)."""
    r = order.level_array.tolist()
    delta = 0.499 * eps
    raw = [r[i] + rng.uniform(-delta, delta) for i in range(len(r))]
    w0 = pair.death_simplex
    q_w0 = r[w0] + 0.9 * delta
    cap = q_w0 - 0.05 * delta
    d_rank = pair.death_rank
    q = [min(raw[i], cap) if order.rank_array[i] < d_rank else raw[i] for i in range(len(r))]
    q[w0] = q_w0
    q = monotone_repair(order.cx, q)
    assert max(abs(a - b) for a, b in zip(q, r)) < eps / 2
    return build_order(order.cx, q)


def z2_rank(vectors):
    basis = {}
    r = 0
    for v in vectors:
        while v:
            low = v.bit_length() - 1
            if low in basis:
                v ^= basis[low]
            else:
                basis[low] = v
                r += 1
                break
    return r


def betti_bruteforce(order, t, k):
    """Rank of H_k of the sublevel complex at t by Gaussian elimination."""
    cx = order.cx
    faces = views_from_arrays(cx)[2]
    ids = [i for i in range(len(cx)) if order.level_array[i] < t]
    kses = [i for i in ids if cx.dim_of(i) == k]
    pos = {s: b for b, s in enumerate(kses)}
    km1 = [i for i in ids if cx.dim_of(i) == k - 1]
    posm = {s: b for b, s in enumerate(km1)}
    rank_dk = 0
    if k > 0:
        cols = []
        for s in kses:
            v = 0
            for fc in faces[s]:
                v |= 1 << posm[fc]
            cols.append(v)
        rank_dk = z2_rank(cols)
    cols1 = []
    for s in (i for i in ids if cx.dim_of(i) == k + 1):
        v = 0
        for fc in faces[s]:
            v |= 1 << pos[fc]
        cols1.append(v)
    return len(kses) - rank_dk - z2_rank(cols1)


def is_z2_boundary(order, edge_ids, max_rank):
    """Is the given 1-chain a boundary of triangles with rank < max_rank?"""
    cx = order.cx
    faces = views_from_arrays(cx)[2]
    target = 0
    for e in edge_ids:
        target ^= 1 << e
    cols = []
    for i in range(len(cx)):
        if cx.dim_of(i) == 2 and order.rank_array[i] < max_rank:
            v = 0
            for fc in faces[i]:
                v ^= 1 << fc
            cols.append(v)
    basis = {}
    for v in cols:
        while v:
            low = v.bit_length() - 1
            if low in basis:
                v ^= basis[low]
            else:
                basis[low] = v
                break
    v = target
    while v:
        low = v.bit_length() - 1
        if low not in basis:
            return False
        v ^= basis[low]
    return True


def simple_cycles(order, k_rank):
    """All simple cycles (as edge id sets) of the rank-k 1-skeleton.

    Enumerates paths from a canonical smallest vertex with the second vertex
    larger than the last, so each cycle appears once. Desk-scale graphs only.
    """
    cx = order.cx
    edges = [sid for sid in order.order_array[: k_rank + 1].tolist() if cx.dim_of(sid) == 1]
    adj = {}
    for e in edges:
        u, v = cx.simplices[e]
        adj.setdefault(u, []).append((v, e))
        adj.setdefault(v, []).append((u, e))
    cycles = []

    def extend(start, path_v, path_e):
        u = path_v[-1]
        for v, e in adj.get(u, ()):
            if v == start and len(path_e) >= 2 and e not in path_e:
                if path_v[1] < path_v[-1]:  # canonical direction
                    cycles.append(set(path_e) | {e})
            elif v > start and v not in path_v:
                extend(start, path_v + [v], path_e + [e])

    for s in sorted(adj):
        extend(s, [s], [])
    return cycles


def shortest_nontrivial_loop(order, k_rank):
    """Brute-force minimum-edge-count simple cycle of the rank-k 1-skeleton
    that is not a Z/2 boundary there. Returns (weight, edge id set) or None."""
    best = None
    for cyc in simple_cycles(order, k_rank):
        if best is not None and len(cyc) >= best[0]:
            continue
        if not is_z2_boundary(order, cyc, k_rank + 1):
            best = (float(len(cyc)), cyc)
    return best


def edge_length_oracle(p, q):
    """Euclidean length of the edge from point p to point q in Python
    floats: the difference scaled by a power of two to magnitude below 1,
    math.sqrt of its squares summed left to right, scaled back."""
    d = [float(a) - float(b) for a, b in zip(p, q)]
    _, k = math.frexp(max(abs(x) for x in d))
    total = 0.0
    for x in d:
        x = math.ldexp(x, -k)
        total += x * x
    return math.ldexp(math.sqrt(total), k)


def shortest_path_oracle(adj, src, dst):
    """Unbounded Dijkstra over `adj` (vertex -> [(neighbour, weight, edge
    id)]), settling vertices in (distance, vertex) order by a scan of the
    reached ones; a vertex takes a new parent only over a strictly shorter
    path. (distance, edge ids, vertex ids) of the path from src to dst, or
    None when dst is not reached."""
    dist, prev, settled = {src: 0.0}, {}, set()
    while True:
        open_ = [(d, v) for v, d in dist.items() if v not in settled]
        if not open_:
            return None
        d, u = min(open_)
        if u == dst:
            break
        settled.add(u)
        for v, w, sid in adj.get(u, ()):
            if v not in dist or d + w < dist[v]:
                dist[v] = d + w
                prev[v] = (u, sid)
    edges, verts, v = [], [dst], dst
    while v != src:
        v, sid = prev[v]
        edges.append(sid)
        verts.append(v)
    return dist[dst], edges[::-1], verts[::-1]


def geometry_cases():
    """Named pointclouds that exercise the geometry: every `gen` fixture,
    seeded random clouds, exact grids, a cocircular ring and far clusters."""
    rng = np.random.default_rng(20211)
    cases = {f"gen-{name}": generate(name, 0) for name in sorted(GENERATORS)}
    cases["cloud2d-400"] = rng.random((400, 2))
    cases["cloud2d-3200"] = rng.random((3200, 2)) * 40.0
    cases["cloud3d-800"] = rng.random((800, 3))
    cases["grid-20x20"] = np.array([(x, y) for x in range(20) for y in range(20)], dtype=float)
    cases["grid-6x6x6"] = np.array(list(itertools.product(range(6), repeat=3)), dtype=float)
    cases["ring-12"] = np.array(
        [(math.cos(2 * math.pi * k / 12), math.sin(2 * math.pi * k / 12)) for k in range(12)]
    )
    far = rng.random((20, 2))
    far[10:, 0] += 1e4
    cases["far-clusters"] = far
    return cases


def torus_complex(nu=6, nv=5, seed=0):
    """Triangulated torus on an nu x nv grid (each square cut along one
    diagonal), with seeded random vertex levels and lower-star levels."""
    def vid(i, j):
        return (i % nu) * nv + j % nv

    tris = []
    for i in range(nu):
        for j in range(nv):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            tris += [(a, b, c), (a, c, d)]
    cx = SimplicialComplex(tris)
    vl = np.random.default_rng(seed).random(nu * nv)
    return build_order(cx, [float(max(vl[v] for v in s)) for s in cx.simplices])


def appendix_filtration():
    """Hand-encoded 8-vertex loop-thickening filtration (integer levels are
    the stage indices).

    The loop closes at level 2 and is short-cut twice (levels 3-4 and 5)
    before dying at level 7, so the degree-1 pair is (2, 7), the
    representative cocycle has exactly three edges (the closing edge plus the
    two detour chords), and reconstructed loops tighten as the step index
    grows.
    """
    stages = {
        0: [(v,) for v in range(8)],
        1: [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)],
        2: [(0, 7)],
        3: [(0, 2), (2, 7)],
        4: [(0, 1, 2), (0, 2, 7)],
        5: [(2, 4), (4, 7), (2, 3, 4), (2, 4, 7)],
        7: [(4, 6), (4, 5, 6), (4, 6, 7)],
    }
    levels = {s: float(lvl) for lvl, batch in stages.items() for s in batch}
    cx = SimplicialComplex(list(levels))
    return build_order(cx, [levels[s] for s in cx.simplices])


def diagram(table, k):
    """The degree-k diagram of a `Pairs` table as `PersistencePair`s, in
    the order of `Pairs.diagram_index`, which `pd` and `--pair-index` use."""
    return table.rows(table.diagram_index(k))


def cocycle_of(o, pair):
    """The representative cocycle of a finite degree-1 pair, as
    `cohomology_reduce` gives it to `rsc`."""
    return pers.cohomology_reduce(o)[1](pair.birth_rank, pair.death_rank)


def finite(pairs):
    """The pairs of a list that have a finite death."""
    return [p for p in pairs if not p.essential]


def complex_cases():
    """Named filtered complexes beside the pointclouds of `geometry_cases`:
    the appendix filtration, two grid tori (two essential degree-1 classes
    each), a hollow triangle and a lone vertex."""
    hollow = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
    return {
        "appendix": appendix_filtration(),
        "torus-6x5": torus_complex(6, 5, seed=0),
        "torus-4x7": torus_complex(4, 7, seed=1),
        "hollow-triangle": build_order(hollow, [0.0, 0.0, 0.0, 1.0, 2.0, 1.0]),
        "vertex": build_order(SimplicialComplex([(0,)]), [0.0]),
    }


def bottleneck_bruteforce(d1, d2):
    """Factorial-enumeration oracle for the bottleneck distance of small
    diagrams (lists of `PersistencePair`s)."""
    e1 = sorted(p.birth_time for p in d1 if p.essential)
    e2 = sorted(p.birth_time for p in d2 if p.essential)
    if len(e1) != len(e2):
        return math.inf
    ess = max((abs(a - b) for a, b in zip(e1, e2)), default=0.0)
    p1 = [(p.birth_time, p.death_time) for p in finite(d1)]
    p2 = [(p.birth_time, p.death_time) for p in finite(d2)]
    n1, n2 = len(p1), len(p2)
    m = n1 + n2
    if m == 0:
        return ess
    left = p1 + [None] * n2
    right = p2 + [None] * n1
    best = math.inf
    for perm in itertools.permutations(range(m)):
        worst = ess
        for u, v in enumerate(perm):
            a, b = left[u], right[v]
            if a is None and b is None:
                c = 0.0
            elif a is None:
                c = (b[1] - b[0]) / 2.0
            elif b is None:
                c = (a[1] - a[0]) / 2.0
            else:
                c = max(abs(a[0] - b[0]), abs(a[1] - b[1]))
            worst = max(worst, c)
            if worst >= best:
                break
        best = min(best, worst)
    return best


class TupleComplex:
    """Per-simplex reference builder, from Python tuples, sets and dicts:
    the `simplices`, `dim`, ids and vertices of a `SimplicialComplex`, which
    holds every face of every given simplex, and the `index`, `faces` and
    `cofaces` that `views_from_arrays` reads off its arrays."""

    def __init__(self, simplices):
        canon = {simplex(s) for s in simplices}
        stack = list(canon)
        while stack:
            s = stack.pop()
            if len(s) == 1:
                continue
            for f in faces_of(s):
                if f not in canon:
                    canon.add(f)
                    stack.append(f)
        self.simplices = sorted(canon, key=lambda s: (len(s), s))
        self.index = {s: i for i, s in enumerate(self.simplices)}
        self.dim = max((len(s) - 1 for s in self.simplices), default=-1)
        n = len(self.simplices)
        self.faces = [[] for _ in range(n)]
        self.cofaces = [[] for _ in range(n)]
        for i, s in enumerate(self.simplices):
            if len(s) == 1:
                continue
            for f in faces_of(s):
                fi = self.index[f]
                self.faces[i].append(fi)
                self.cofaces[fi].append(i)

    def __len__(self):
        return len(self.simplices)

    def ids_of_dim(self, k):
        return [i for i, s in enumerate(self.simplices) if len(s) - 1 == k]

    def vertices(self, i):
        return self.simplices[i]


def missing_faces(simplices, limit=10):
    """"missing face F of S" for the first `limit` faces that the simplices
    (vertex tuples) lack, from tuple sets: by dimension, then lexicographic
    order, then vertex-removal order."""
    given = {simplex(s) for s in simplices}
    out = []
    for s in sorted(given, key=lambda s: (len(s), s)):
        if len(s) > 1:
            out += [f"missing face {f} of {s}" for f in faces_of(s) if f not in given]
    return out[:limit]


def assert_closed(cx):
    """Every face of every simplex of `cx` is in it: each face id names a
    simplex one dimension lower, and tuple sets find no missing face."""
    for k in range(1, cx.dim + 1):
        faces = cx.face_array(k)
        assert faces.min() >= 0 and faces.max() < cx.ids_of_dim(k - 1).stop
    assert missing_faces(cx.simplices) == []


def build_order_by_key(cx, level):
    """Reference order: (levels, order) with ties broken by sorting on the
    (level, dim, lex verts) key; raises as `build_order` does, and checks
    with tuple sets that the complex holds every face."""
    assert missing_faces(cx.simplices) == []
    lv = [float(x) for x in level]
    if len(lv) != len(cx):
        raise ValueError(f"expected {len(cx)} levels, got {len(lv)}")
    faces = views(cx)[2]
    for i in range(len(cx)):
        for fi in faces[i]:
            if lv[fi] > lv[i]:
                raise MonotonicityError(cx.simplices[fi], cx.simplices[i], lv[fi], lv[i])
    order = sorted(range(len(cx)), key=lambda i: (lv[i], len(cx.simplices[i]), cx.simplices[i]))
    return lv, order


def alpha_levels_full_scan(cx, points):
    """Reference alpha levels: one Gabriel test per simplex against every
    point (`_is_gabriel` with every point a candidate), minima over cofaces
    in Python."""
    pts = np.asarray(points, dtype=float)
    n = cx.dim
    cofaces = views_from_arrays(cx)[3]
    levels = [0.0] * len(cx)
    for k in range(n, 0, -1):
        ids = list(cx.ids_of_dim(k))
        if not ids:
            continue
        vl = np.array([cx.simplices[i] for i in ids], dtype=int)
        cs, r2 = _circum_batch(pts, vl)
        for j, sid in enumerate(ids):
            if k == n or _is_gabriel(cx, pts, sid, cs[j], r2[j], range(len(pts))):
                levels[sid] = math.sqrt(max(r2[j], 0.0))
            else:
                levels[sid] = min(levels[c] for c in cofaces[sid])
    for k in range(n - 1, -1, -1):
        for sid in cx.ids_of_dim(k):
            if cofaces[sid]:
                cap = min(levels[c] for c in cofaces[sid])
                if levels[sid] > cap:
                    levels[sid] = cap
    return levels


def sublevel_complex(o, t):
    """Subcomplex of simplices with level strictly below t."""
    return SimplicialComplex(
        [s for i, s in enumerate(o.cx.simplices) if o.level_array[i] < t]
    )


def complex_to_json(o):
    """The JSON complex format of an order, as `complex_from_json` reads it."""
    return {
        "vertices": o.cx.vertex_count,
        "simplices": [
            {"v": list(s), "level": level}
            for s, level in zip(o.cx.simplices, o.level_array.tolist())
        ],
    }


# the Python view that `SimplicialComplex` builds on first use
VIEWS = ("simplices",)


def views_from_arrays(cx):
    """Reference `simplices`, `index`, `faces` and `cofaces` of a complex,
    read row by row from its per-dimension arrays: the vertex tuple of each
    simplex, the id of each vertex tuple, the ids of each simplex's faces in
    vertex-removal order and of its cofaces, ascending."""
    simplices, faces, cofaces = [], [], []
    for k in range(cx.dim + 1):
        simplices += map(tuple, cx.vertex_array(k).tolist())
        faces += cx.face_array(k).tolist()
        ptr, idx = cx.coface_csr(k)
        idx, ptr = idx.tolist(), ptr.tolist()
        cofaces += [idx[a:b] for a, b in zip(ptr, ptr[1:])]
    return simplices, {s: i for i, s in enumerate(simplices)}, faces, cofaces


def views(cx):
    """(simplices, index, faces, cofaces) of a `TupleComplex`, or of a
    `SimplicialComplex` by `views_from_arrays`."""
    if isinstance(cx, TupleComplex):
        return cx.simplices, cx.index, cx.faces, cx.cofaces
    return views_from_arrays(cx)


def dual_edges(g):
    """(tau, a, b) per edge of a `DualGraph`, in id order."""
    return list(zip(g.tau.tolist(), g.a.tolist(), g.b.tolist()))


def build_dual_graph_oracle(o):
    """Reference dual graph from the Python views: a depth-first walk down
    the faces from every top cell, then the cofaces of each (n-1)-simplex.
    Returns `n`, `cells` as a list and `edges` as (tau, a, b) tuples; raises
    `ConditionError` with the messages `build_dual_graph` gives."""
    cx = o.cx
    n = cx.dim
    simplices, _, faces, cofaces = views_from_arrays(cx)
    covered = set()
    for t in cx.ids_of_dim(n):
        stack = [t]
        while stack:
            s = stack.pop()
            if s in covered:
                continue
            covered.add(s)
            stack.extend(faces[s])
    orphans = [simplices[i] for i in range(len(cx)) if i not in covered]
    if orphans:
        raise ConditionError(f"simplices with no top-cell coface: {orphans[:10]}")
    edges = []
    for tau in cx.ids_of_dim(n - 1):
        cofs = cofaces[tau]
        if len(cofs) > 2:
            raise ConditionError(
                f"(n-1)-simplex {simplices[tau]} has {len(cofs)} cofaces"
            )
        a = cofs[0]
        b = cofs[1] if len(cofs) == 2 else OMEGA_INF
        edges.append((tau, a, b))
    return SimpleNamespace(n=n, cells=list(cx.ids_of_dim(n)), edges=edges)


def compute_tree_oracle(g, o):
    """Reference merge tree: a pass over every simplex in descending order,
    cells becoming singletons as they are reached, with a dict union-find."""
    uf = {OMEGA_INF: OMEGA_INF}
    parent = {}
    edge_of = {tau: (a, b) for tau, a, b in g.edges}
    n = g.n
    rank = o.rank_array.tolist()

    def root(w):
        r = w
        while uf[r] != r:
            r = uf[r]
        while uf[w] != r:
            uf[w], w = r, uf[w]
        return r

    def later(a, b):
        if a == OMEGA_INF:
            return True
        if b == OMEGA_INF:
            return False
        return rank[a] > rank[b]

    for sid in reversed(o.order_array.tolist()):
        d = o.cx.dim_of(sid)
        if d == n:
            uf[sid] = sid
        elif d == n - 1:
            a, b = edge_of[sid]
            ra, rb = root(a), root(b)
            if ra == rb:
                continue
            child, par = (rb, ra) if later(ra, rb) else (ra, rb)
            parent[child] = (par, sid)
            uf[child] = par
    up, label = (np.array([v[i] for v in parent.values()], dtype=np.int64) for i in (0, 1))
    return PersistenceTree(o, np.fromiter(parent, np.int64, len(parent)), up, label)


def parent_map(tree):
    """A persistence tree's edges as a dict child -> (parent, label), in
    merge order."""
    child, parent, label = (a.tolist() for a in tree.edges)
    return {c: (p, tau) for c, p, tau in zip(child, parent, label)}


def merge_forest_oracle(n_nodes, ends):
    """`persistence.merge_forest` with no union-find: a list of components
    as sets, searched by membership. An edge between two components keeps
    the one whose least node is smaller and merges the other into it."""
    comps = [{v} for v in range(n_nodes)]
    killed, survivor, edge = [], [], []
    for e, (a, b) in enumerate(ends):
        ca = next(c for c in comps if a in c)
        cb = next(c for c in comps if b in c)
        if ca is cb:
            continue
        old, young = sorted((ca, cb), key=min)
        killed.append(min(young))
        survivor.append(min(old))
        edge.append(e)
        old |= young
        comps.remove(young)
    return killed, survivor, edge, sorted(min(c) for c in comps)


def boundary_vertices_oracle(o, cells):
    """Vertices of the Z/2 boundary of a nonempty set of cells of one
    dimension, by `boundary()`."""
    bnd = boundary(o.cx, o.cx.dim_of(next(iter(cells))), cells)
    return {v for sid in bnd for v in o.cx.simplices[sid]}


def statistical_frequencies_oracle(points, target, noise, trials):
    """Per-point counts and the matched-trial count of the trial loop that
    reduces every trial: `reduce`, the nearest pair, the reference dual
    graph and tree (codimension 1) or the l1 program (other degrees), and
    `boundary()`."""
    from stablevol import persistence, volopt
    from stablevol.alpha import alpha_filtration
    from stablevol.baselines import _match_pair

    radius = max(2.0 * noise.half_width, 1e-6)
    counts = np.zeros(len(points), dtype=int)
    matched = 0
    for t in range(trials):
        o = alpha_filtration(noise.perturb(points, t))
        hit = _match_pair(persistence.reduce(o), target, radius)
        if hit is None:
            continue
        if hit.degree == o.cx.dim - 1:
            tree = compute_tree_oracle(build_dual_graph_oracle(o), o)
            cells = tree.descendants(hit.death_simplex)
        else:
            cells = volopt.solve_volume(o, hit, "optimal").cells
        matched += 1
        for v in boundary_vertices_oracle(o, cells):
            counts[v] += 1
    return counts, matched


def _build_pairs(o, rank_pairs, essential_ranks):
    """Reference pair list: a PersistencePair per (birth rank, death rank)
    pair and per essential birth rank, sorted by (degree, birth rank)."""
    order, level = o.order_array.tolist(), o.level_array.tolist()
    pairs = []
    for i, j in rank_pairs:
        bi, dj = order[i], order[j]
        pairs.append(
            PersistencePair(
                degree=o.cx.dim_of(bi),
                birth_simplex=bi,
                death_simplex=dj,
                birth_time=level[bi],
                death_time=level[dj],
                birth_rank=i,
                death_rank=j,
            )
        )
    for i in essential_ranks:
        bi = order[i]
        pairs.append(
            PersistencePair(
                degree=o.cx.dim_of(bi),
                birth_simplex=bi,
                death_simplex=None,
                birth_time=level[bi],
                death_time=math.inf,
                birth_rank=i,
                death_rank=None,
            )
        )
    pairs.sort(key=lambda p: (p.degree, p.birth_rank))
    return pairs


def reduce_sets(columns, proc, clearing=False, track_v=False):
    """Z/2 column reduction with Python sets, sharing no code with the
    bitset kernel. Columns (collections of row indices) are reduced in the
    order `proc`; a column's low is its largest row, and the reduced column
    that owns a low is added by symmetric difference. With `clearing`, a
    column whose index is already a low is skipped (for an order that takes
    the dimensions from the top). Returns (pairs, essentials, v): the
    (low, column) pairs in processing order, the sorted columns that reduced
    to zero and are no low, and, with `track_v`, each death column's V as
    the set of columns summed into it."""
    reduced, vsets, pairs, zeros = {}, {}, [], []
    for j in proc:
        if clearing and j in reduced:
            continue
        col, v = set(columns[j]), {j}
        while col and (low := max(col)) in reduced:
            col ^= reduced[low]
            if track_v:
                v ^= vsets[low]
        if col:
            reduced[low], vsets[low] = col, v
            pairs.append((low, j))
        else:
            zeros.append(j)
    essentials = sorted(set(zeros) - set(reduced))
    return pairs, essentials, ({j: vsets[low] for low, j in pairs} if track_v else None)


def reduce_oracle(o, clearing=True):
    """`persistence.reduce`'s pairs as a reference list, built pair by pair
    from `reduce_sets` on the boundary matrix: dimensions from the top with
    clearing, or every column left to right."""
    from stablevol.persistence import boundary_matrix

    cols = boundary_matrix(o)
    if clearing:
        order = o.order_array.tolist()
        proc = sorted(range(len(cols)), key=lambda r: (-o.cx.dim_of(order[r]), r))
    else:
        proc = range(len(cols))
    raw_pairs, raw_essentials, _ = reduce_sets(cols, proc, clearing=clearing)
    return _build_pairs(o, raw_pairs, raw_essentials)


def pd_json_oracle(pairs, degrees, squared=False):
    """`pd`'s stdout for a list of pairs, built as dicts and written by
    json.dumps."""
    tr = (lambda x: x * x) if squared else (lambda x: x)
    out = {"diagrams": [], "squared": bool(squared)}
    for k in degrees:
        listed = sorted(
            (p for p in pairs if p.degree == k and p.birth_time != p.death_time),
            key=lambda p: (p.birth_time, p.death_time, p.birth_rank),
        )
        out["diagrams"].append({"degree": k, "pairs": [
            {
                "degree": p.degree,
                "birth": tr(p.birth_time),
                "death": None if p.essential else tr(p.death_time),
                "birth_simplex": p.birth_simplex,
                "death_simplex": p.death_simplex,
            }
            for p in listed
        ]})
    return json.dumps(out, indent=2, sort_keys=True, allow_nan=False) + "\n"


def cohomology_reduce_all_columns(o):
    """Reference cohomology: the anti-transposed reduction of every column,
    all degrees, V tracked everywhere. Returns (pairs, cocycles) with pairs of
    every degree and a cocycle per finite pair, keyed by (birth_rank,
    death_rank), as a set of simplex ids."""
    n = len(o)
    order, rank = o.order_array.tolist(), o.rank_array.tolist()
    cofaces = views_from_arrays(o.cx)[3]
    cols = []
    for c in range(n):
        sid = order[n - 1 - c]
        cols.append(sorted(n - 1 - rank[cf] for cf in cofaces[sid]))
    raw_pairs, raw_essentials, v = reduce_sets(cols, range(n), track_v=True)
    rank_pairs = []
    cocycles = {}
    for u, c in raw_pairs:
        i, j = n - 1 - c, n - 1 - u
        rank_pairs.append((i, j))
        cocycles[(i, j)] = {order[n - 1 - cc] for cc in v[c]}
    pairs = _build_pairs(o, rank_pairs, [n - 1 - c for c in raw_essentials])
    return pairs, cocycles


def bottleneck(d1, d2):
    """Exact bottleneck distance of two diagrams (lists of
    `PersistencePair`s) with diagonal augmentation.

    Essential pairs match only essential pairs; mismatched counts give inf.
    Exactness comes from binary search over the finite candidate set of all
    pairwise l-inf distances and distances to the diagonal.
    """
    e1 = sorted(p.birth_time for p in d1 if p.essential)
    e2 = sorted(p.birth_time for p in d2 if p.essential)
    if len(e1) != len(e2):
        return math.inf
    p1 = [(p.birth_time, p.death_time) for p in finite(d1)]
    p2 = [(p.birth_time, p.death_time) for p in finite(d2)]
    cands = {0.0}
    cands.update(abs(a - b) for a, b in zip(e1, e2))
    for a in p1:
        cands.add((a[1] - a[0]) / 2.0)
        for b in p2:
            cands.add(max(abs(a[0] - b[0]), abs(a[1] - b[1])))
    for b in p2:
        cands.add((b[1] - b[0]) / 2.0)
    ordered = sorted(cands)
    lo, hi = 0, len(ordered) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(p1, p2, e1, e2, ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return ordered[lo]


def _feasible(p1, p2, e1, e2, lam):
    if any(abs(a - b) > lam for a, b in zip(e1, e2)):
        return False
    n1, n2 = len(p1), len(p2)
    size = n1 + n2
    if size == 0:
        return True
    # left: p1 then diagonal clones of p2; right: p2 then diagonal clones of p1
    adj = [[] for _ in range(size)]
    for i, a in enumerate(p1):
        for j, b in enumerate(p2):
            if max(abs(a[0] - b[0]), abs(a[1] - b[1])) <= lam:
                adj[i].append(j)
        if (a[1] - a[0]) / 2.0 <= lam:
            adj[i].append(n2 + i)
    # diagonal clones take their own point or any opposite clone
    for j, b in enumerate(p2):
        if (b[1] - b[0]) / 2.0 <= lam:
            adj[n1 + j].append(j)
        adj[n1 + j].extend(range(n2, n2 + n1))
    match_r = [-1] * size

    def try_augment(u, seen):
        for v in adj[u]:
            if seen[v]:
                continue
            seen[v] = True
            if match_r[v] == -1 or try_augment(match_r[v], seen):
                match_r[v] = u
                return True
        return False

    matched = 0
    for u in range(size):
        seen = [False] * size
        if try_augment(u, seen):
            matched += 1
    return matched == size


class TooLargeError(ValueError):
    """Candidate set too large for exhaustive enumeration."""


def brute_force_volume(p, count_ties=False):
    """Exact l0 minimizer over Z/2 by subset enumeration.

    Subsets are visited in increasing cardinality, ties broken by the
    lexicographically least candidate-id tuple; returns the support including
    the death cell (and the number of same-size optima when asked).
    """
    if len(p.candidates) > 20:
        raise TooLargeError(f"{len(p.candidates)} candidates exceed the oracle limit")
    faces = views_from_arrays(p.order.cx)[2]
    cands = sorted(p.candidates)
    conpos = {tau: i for i, tau in enumerate(p.constraints)}
    pin_bit = len(p.constraints)
    want_pin = p.mode == "optimal"
    tau0 = p.pair.birth_simplex

    def mask_of(om):
        msk = 0
        for tau in faces[om]:
            i = conpos.get(tau)
            if i is not None:
                msk |= 1 << i
            if want_pin and tau == tau0:
                msk |= 1 << pin_bit
        return msk

    base = mask_of(p.pair.death_simplex)
    masks = [mask_of(w) for w in cands]
    target_low = 0  # all constraint bits must cancel
    for size in range(len(cands) + 1):
        hits = []
        for combo in itertools.combinations(range(len(cands)), size):
            acc = base
            for i in combo:
                acc ^= masks[i]
            ok = (acc & ((1 << pin_bit) - 1)) == target_low
            if ok and want_pin:
                ok = bool(acc >> pin_bit & 1)
            if ok:
                hits.append(combo)
                if not count_ties:
                    break
        if hits:
            chain = {p.pair.death_simplex} | {cands[i] for i in hits[0]}
            return (chain, len(hits)) if count_ties else chain
    raise InfeasibleError("no Z/2-feasible chain exists for this problem")


# ---------------------------------------------------------------------------
# the per-simplex complex JSON loader and l1 program assembly, as oracles


def complex_from_json_oracle(obj):
    """Reference loader of the JSON complex format: checks each entry in
    turn, builds the complex from vertex tuples and places each level
    through the `index` view. Raises the errors `complex_from_json` raises."""
    from stablevol.complexes import _is_json_int

    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or not isinstance(obj.get("simplices"), list):
        raise ValueError('complex JSON must be an object with a "simplices" list')
    entries = obj["simplices"]
    for k, e in enumerate(entries):
        if not isinstance(e, dict) or not isinstance(e.get("v"), list):
            raise ValueError(f'simplex entry {k} must be an object with a "v" list')
        if not all(map(_is_json_int, e["v"])):
            raise ValueError(f"simplex entry {k} has a non-integer vertex id: {e['v']!r}")
        lv = e.get("level")
        if isinstance(lv, bool) or not isinstance(lv, (int, float)):
            raise ValueError(f"simplex entry {k} needs a numeric level, got {lv!r}")
    keys = [tuple(sorted(map(int, e["v"]))) for e in entries]
    cx = SimplicialComplex(keys)
    first = {}
    for k, s in enumerate(keys):
        if s in first:
            raise ValueError(
                f"simplex {list(s)} is listed twice, in entries {first[s]} and {k}"
            )
        first[s] = k
    bad = missing_faces(keys)
    if bad:
        raise ValueError("invalid complex: " + "; ".join(bad))
    level = [0.0] * len(cx)
    index = views_from_arrays(cx)[1]
    for s, e in zip(keys, entries):
        try:
            lv = float(e["level"])
        except OverflowError:  # an integer literal beyond the float range
            lv = math.inf
        if not math.isfinite(lv):
            raise ValueError(f"non-finite level {lv} for simplex {list(e['v'])}")
        level[index[s]] = lv
    vertices = obj.get("vertices", cx.vertex_count)
    if not _is_json_int(vertices):
        raise ValueError(f'"vertices" must be an integer, got {vertices!r}')
    if int(vertices) != cx.vertex_count:
        raise ValueError("vertex count does not match simplex list")
    return build_order(cx, level)


def make_problem_oracle(o, pair, mode, epsilon=0.0, ov_cells=None):
    """Reference candidate and constraint lists, by a walk over the order
    window with `dim_of` and the level list."""
    k = pair.degree
    order, level = o.order_array.tolist(), o.level_array.tolist()
    cands, cons = [], []
    for pos in range(pair.birth_rank + 1, pair.death_rank):
        sid = order[pos]
        if mode != "optimal" and level[sid] < pair.birth_time + epsilon:
            continue
        d = o.cx.dim_of(sid)
        if d == k + 1:
            cands.append(sid)
        elif d == k:
            cons.append(sid)
    if mode == "sub":
        cands = [c for c in cands if c in ov_cells]
    return SimpleNamespace(order=o, pair=pair, mode=mode, candidates=cands, constraints=cons)


def boundary_coeff_oracle(cx, omega, tau):
    """tau*(boundary omega) with alternating signs on the sorted vertices."""
    verts = cx.simplices[omega]
    fv = cx.simplices[tau]
    for i in range(len(verts)):
        if verts[:i] + verts[i + 1 :] == fv:
            return 1 if i % 2 == 0 else -1
    return 0


def to_lp_oracle(p, pin_sign=1):
    """Reference l1 program of a problem from the `cofaces` view:
    `candidates`, `rows` as (tau, {candidate id: +-1}, const) tuples and
    `pinned` as (tau0, {candidate id: +-1}, const, target) or None."""
    cx = p.order.cx
    cofaces = views_from_arrays(cx)[3]
    w0 = p.pair.death_simplex
    cand_set = set(p.candidates)

    def row(tau):
        coeffs = {om: boundary_coeff_oracle(cx, om, tau) for om in cofaces[tau] if om in cand_set}
        return tau, coeffs, boundary_coeff_oracle(cx, w0, tau)

    rows = [row(tau) for tau in p.constraints]
    pinned = row(p.pair.birth_simplex) + (int(pin_sign),) if p.mode == "optimal" else None
    return SimpleNamespace(candidates=list(p.candidates), rows=rows, pinned=pinned)


def row_matrix_oracle(rows, col, n_cols):
    """Coefficients of (tau, {candidate id: +-1}, const) rows as a sparse
    COO matrix, one row each, columns numbered by `col`."""
    from scipy import sparse

    data, ri, ci = [], [], []
    for r, (tau, coeffs, const) in enumerate(rows):
        for w, c in coeffs.items():
            data.append(float(c))
            ri.append(r)
            ci.append(col[w])
    return sparse.coo_matrix((data, (ri, ci)), shape=(len(rows), n_cols))


def lp_arguments_oracle(prog):
    """The arguments of the HiGHS call for a reference program (from
    `to_lp_oracle`), assembled row by row: cost, A_ub, b_ub, A_eq, b_eq and
    bounds."""
    from scipy import sparse

    m = len(prog.candidates)
    col = {w: i for i, w in enumerate(prog.candidates)}
    eq_rows = list(prog.rows)
    if prog.pinned is not None:
        tau0, coeffs, const, target = prog.pinned
        eq_rows.append((tau0, coeffs, const - target))
    ud, uri, uci = [], [], []
    for i in range(m):
        ud += [1.0, -1.0, -1.0, -1.0]
        uri += [i, i, m + i, m + i]
        uci += [i, m + i, i, m + i]
    return {
        "cost": np.concatenate([np.zeros(m), np.ones(m)]),
        "A_ub": sparse.coo_matrix((ud, (uri, uci)), shape=(2 * m, 2 * m)).tocsc(),
        "b_ub": np.zeros(2 * m),
        "A_eq": row_matrix_oracle(eq_rows, col, 2 * m).tocsc(),
        "b_eq": np.array([-float(const) for _, _, const in eq_rows]),
        "bounds": [(None, None)] * m + [(0, None)] * m,
    }


def highs_model_oracle(args):
    """What `scipy.optimize.linprog(method="highs")` hands HiGHS for HiGHS
    arguments from `lp_arguments_oracle`, and linprog's result.

    The model is the arguments of SciPy's `_highs_wrapper` call: the arrays
    c, indptr, indices, data, lhs, rhs, lb and ub, and under "options" the
    option values HiGHS gets (unset ones and "sense" dropped, enums as ints,
    presolve as HiGHS's "on"/"off")."""
    from scipy.optimize import linprog

    module = sys.modules["scipy.optimize._linprog_highs"]
    wrapper = module._highs_wrapper
    seen = []

    def recording(c, indptr, indices, data, lhs, rhs, lb, ub, integrality, options):
        arrays = dict(c=c, indptr=indptr, indices=indices, data=data, lhs=lhs, rhs=rhs, lb=lb, ub=ub)
        seen.append({k: np.array(v, copy=True) for k, v in arrays.items()})
        given = {}
        for key, val in options.items():
            if val is None or key == "sense":
                continue
            if key == "presolve":
                val = "on" if val else "off"
            elif not isinstance(val, (bool, str, float)):
                val = int(val)
            given[key] = val
        seen[-1]["options"] = given
        return wrapper(c, indptr, indices, data, lhs, rhs, lb, ub, integrality, options)

    module._highs_wrapper = recording
    try:
        args = dict(args)
        res = linprog(args.pop("cost"), method="highs", **args)
    finally:
        module._highs_wrapper = wrapper
    (model,) = seen
    return model, res


def pin_sign_hint_oracle(prog):
    """Reference pin sign of a program from `to_lp_oracle`: the constant
    when no candidate touches the pin, else one LSMR solution of the rows."""
    from scipy.sparse.linalg import lsmr

    if prog.pinned is None:
        return 1
    _, coeffs, const, _ = prog.pinned
    if not coeffs:
        value = const
    elif not prog.rows:
        return 1
    else:
        col = {w: i for i, w in enumerate(prog.candidates)}
        A = row_matrix_oracle(prog.rows, col, len(col)).tocsr()
        b = np.array([-float(const) for _, _, const in prog.rows])
        x = lsmr(A, b)[0]
        value = const + sum(c * x[col[w]] for w, c in coeffs.items())
    return -1 if abs(value + 1) < 0.5 else 1


def z2_violations_oracle(p, support):
    """Reference constraint simplices whose Z/2 boundary coefficient is
    wrong, by counting each one's cofaces in the support."""
    cofaces = views_from_arrays(p.order.cx)[3]
    bad = [tau for tau in p.constraints if sum(1 for om in cofaces[tau] if om in support) & 1]
    if p.mode == "optimal":
        tau0 = p.pair.birth_simplex
        if not sum(1 for om in cofaces[tau0] if om in support) & 1:
            bad.append(tau0)
    return bad


def l1_program(candidates, rows, pinned=None):
    """The `L1Program` of a program written as candidate ids, (tau,
    {candidate id: +-1}, const) rows and an optional (tau0, {candidate id:
    +-1}, const, target) pin."""
    from stablevol.volopt import L1Program

    entries = list(rows) + ([pinned[:3]] if pinned else [])
    col = {w: i for i, w in enumerate(candidates)}
    triples = sorted(
        (col[w], r, c) for r, (_, coeffs, _) in enumerate(entries) for w, c in coeffs.items()
    )
    counts = np.bincount([i for i, _, _ in triples], minlength=len(candidates))
    return L1Program(
        np.array(candidates, dtype=np.int64),
        np.array([tau for tau, _, _ in entries], dtype=np.int64),
        np.array([const for _, _, const in entries], dtype=np.int64),
        np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
        np.array([r for _, r, _ in triples], dtype=np.int64),
        np.array([c for _, _, c in triples], dtype=np.int64),
        None if pinned is None else pinned[3],
    )


def program_rows(prog):
    """An `L1Program`'s equality rows and pin as Python values: the list of
    (tau, {candidate id: +-1}, const) rows, the pin excluded, and the
    (tau0, {candidate id: +-1}, const, target) pin or None; each dict's ids
    ascend."""
    coeffs = [{} for _ in prog.taus]
    ids = np.repeat(prog.candidates, np.diff(prog.indptr))
    srt = np.lexsort((ids, prog.row))
    for r, w, c in zip(prog.row[srt].tolist(), ids[srt].tolist(), prog.coef[srt].tolist()):
        coeffs[r][w] = c
    n = prog.n_rows
    rows = list(zip(prog.taus[:n].tolist(), coeffs[:n], prog.const[:n].tolist()))
    if prog.pin_sign is None:
        return rows, None
    return rows, (int(prog.taus[-1]), coeffs[-1], int(prog.const[-1]), prog.pin_sign)


def _entries(*rows):
    return json.dumps({"simplices": [{"v": list(v), "level": len(v) - 1} for v in rows]})


_LO, _HI = -(2**63), 2**63 - 1
# complex JSON texts with missing faces, and the loader's error for each:
# up to 10 faces, by simplex dimension, then lexicographic order, then
# vertex-removal order, whatever the order of the entries in the file
MISSING_FACE_CASES = {
    "edges-listed-out-of-order": (
        _entries((0,), (5,), (6, 5), (0, 2)),
        "invalid complex: missing face (2,) of (0, 2); missing face (6,) of (5, 6)",
    ),
    "no-edges-listed": (
        _entries((2, 1, 0), (0,), (1,), (2,)),
        "invalid complex: missing face (1, 2) of (0, 1, 2); missing face (0, 2) of (0, 1, 2);"
        " missing face (0, 1) of (0, 1, 2)",
    ),
    "twelve-cut-to-ten": (
        _entries((2, 3), (1, 3), (1, 2), (0, 3), (0, 2), (0, 1)),
        "invalid complex: " + "; ".join(
            f"missing face ({f},) of {e}" for e in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
            for f in e[::-1]),
    ),
    "negative-and-int64-extreme-ids": (
        _entries((_HI,), (_HI, -3), (-3, _LO, _HI)),
        f"invalid complex: missing face (-3,) of (-3, {_HI})"
        f"; missing face ({_LO}, {_HI}) of ({_LO}, -3, {_HI})"
        f"; missing face ({_LO}, -3) of ({_LO}, -3, {_HI})",
    ),
}


def complex_json_text(o, shuffle_seed=None):
    """The JSON complex format of an order as text. With `shuffle_seed`,
    the entries and the vertices within each entry are shuffled, and every
    other entry writes its vertex ids as integral floats such as 3.0."""
    obj = complex_to_json(o)
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        entries = [obj["simplices"][i] for i in rng.permutation(len(obj["simplices"]))]
        for k, e in enumerate(entries):
            v = [e["v"][i] for i in rng.permutation(len(e["v"]))]
            e["v"] = [float(x) for x in v] if k % 2 else v
        obj["simplices"] = entries
    return json.dumps(obj)


def torus3d_order(nu=18, nv=8, seed=0):
    """A 3D complex like the benchmark's torus inputs: the Delaunay complex
    of a noisy sample of a torus (radii 2 and 0.6) in R^3, with levels half
    the longest edge of each simplex (Delaunay-Rips)."""
    from stablevol.delaunay import delaunay

    rng = np.random.default_rng(seed)
    i, j = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    u = (i.ravel() + rng.random(nu * nv)) * (2 * math.pi / nu)
    v = (j.ravel() + rng.random(nu * nv)) * (2 * math.pi / nv)
    ring = 2.0 + 0.6 * np.cos(v)
    pts = np.stack([ring * np.cos(u), ring * np.sin(u), 0.6 * np.sin(v)], axis=1)
    pts += rng.uniform(-0.05, 0.05, pts.shape)
    cx = delaunay(pts)
    level = []
    for k in range(cx.dim + 1):
        rows = cx.vertex_array(k)
        longest = np.zeros(len(rows))
        for a, b in itertools.combinations(range(k + 1), 2):
            longest = np.maximum(longest, np.linalg.norm(pts[rows[:, a]] - pts[rows[:, b]], axis=1))
        level += (longest / 2.0).tolist()
    return build_order(cx, level)


def solve_volume_oracle(o, pair, mode, epsilon=0.0, ov_cells=None, threshold=1e-6):
    """Reference volume from the reference problem, program, pin sign and
    HiGHS arguments; the other pin sign is tried when the first is
    infeasible. Returns the rounded support, death cell included."""
    from scipy.optimize import linprog

    p = make_problem_oracle(o, pair, mode, epsilon, ov_cells)
    sign = pin_sign_hint_oracle(to_lp_oracle(p))
    for s in (sign, -sign):
        prog = to_lp_oracle(p, s)
        args = lp_arguments_oracle(prog)
        m = len(prog.candidates)
        if m:
            res = linprog(args.pop("cost"), method="highs", **args)
            feasible = res.status != 2
            alphas = res.x[:m] if res.status == 0 else None
        else:
            feasible, alphas = not args["b_eq"].any(), np.zeros(0)
        if feasible or prog.pinned is None:
            break
    assert feasible and alphas is not None
    support = {pair.death_simplex} | {
        w for w, a in zip(prog.candidates, alphas) if abs(a) > threshold
    }
    assert not z2_violations_oracle(p, support)
    return support


class DictChildrenTree:
    """Reference children of a persistence tree's parent map as a dict of
    lists over every cell, with the walks over it: descendants, subtree
    sizes and stable volumes."""

    def __init__(self, tree):
        self.parent = parent_map(tree)
        self.level = tree.order.level_array
        self.children = {OMEGA_INF: []}
        for c in self.parent:
            self.children.setdefault(c, [])
        for c, (p, tau) in self.parent.items():
            self.children.setdefault(p, []).append(c)

    def descendants(self, cell):
        out = set()
        stack = [cell]
        while stack:
            c = stack.pop()
            out.add(c)
            stack.extend(self.children.get(c, ()))
        return out

    def stable_volume(self, pair, epsilon):
        level = self.level.tolist()
        threshold = level[pair.birth_simplex] + epsilon
        cells = {pair.death_simplex}
        for child in self.children.get(pair.death_simplex, ()):
            if level[self.parent[child][1]] >= threshold:
                cells |= self.descendants(child)
        return cells


_M64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def jittered_points_oracle(points, magnitude=1e-9):
    """`predicates.jittered_points` one coordinate at a time, on Python ints
    and floats: a list of tuples."""
    pts = [tuple(map(float, p)) for p in points]
    dim = len(pts[0])
    lo = [min(p[a] for p in pts) for a in range(dim)]
    hi = [max(p[a] for p in pts) for a in range(dim)]
    extent = [h - l if h > l else 1.0 for l, h in zip(lo, hi)]
    out = []
    for i, p in enumerate(pts):
        q = []
        for a in range(dim):
            u = _splitmix64(i * 7 + a + 1) / float(1 << 63) - 1.0  # in [-1, 1)
            q.append(p[a] + u * magnitude * extent[a])
        out.append(tuple(q))
    return out


def hull_is_convex_gather(P, cells, hull_cell, hull_k, chunk_rows=1 << 16):
    """`delaunay._hull_is_convex` by gathering an (h, n, d+1) index array of
    every (hull facet, point) row and passing the rows that are not a
    facet's own vertices to `orient_batch`."""
    n = len(P)
    step = max(1, chunk_rows // n)
    pid = np.arange(n)
    for lo in range(0, len(hull_cell), step):
        fc, fk = hull_cell[lo : lo + step], hull_k[lo : lo + step]
        rows = np.repeat(cells[fc][:, None, :], n, axis=1)
        rows[np.arange(len(fc))[:, None], pid, fk[:, None]] = pid
        own = np.zeros((len(fc), n), dtype=bool)
        own[np.arange(len(fc))[:, None], cells[fc]] = True
        if np.any(orient_batch(P, rows[~own]) <= 0):
            return False
    return True


def load_tracing(monkeypatch):
    """`perfbench/tracing.py` as a module, loaded by its path; no bytecode
    is written next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module
