"""Shared test utilities: perturbation samplers, brute-force oracles,
reference implementations and geometry test inputs."""

import itertools
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from stablevol import kernels
from stablevol.alpha import _circum_batch, _is_gabriel
from stablevol.complexes import (
    Chain,
    MonotonicityError,
    SimplicialComplex,
    _levels_as_list,
    boundary,
    build_order,
    chain_z2,
    faces_of,
    simplex,
    validate_complex,
)
from stablevol.dualtree import OMEGA_INF, ConditionError, PersistenceTree
from stablevol.fixtures import GENERATORS, generate
from stablevol.persistence import PersistencePair
from stablevol.volopt import InfeasibleError


def monotone_repair(cx, levels):
    """Raise each simplex to its faces' maximum so the map is a level map."""
    out = list(levels)
    for i in sorted(range(len(cx)), key=lambda i: len(cx.simplices[i])):
        for fi in cx.faces[i]:
            if out[fi] > out[i]:
                out[i] = out[fi]
    return out


def perturbed_order(order, magnitude, rng):
    """A nearby order with levels; returns (new order, achieved sup distance)."""
    raw = [l + rng.uniform(-magnitude, magnitude) for l in order.level]
    q = monotone_repair(order.cx, raw)
    dist = max(abs(a - b) for a, b in zip(q, order.level))
    return build_order(order.cx, q), dist


def admissible_order(order, pair, eps, rng):
    """Sample a level perturbation within eps/2 that keeps everything ranked
    before the pair's death cell ranked before it (the death-cell order
    condition of the stable-volume theorem)."""
    r = order.level
    delta = 0.499 * eps
    raw = [r[i] + rng.uniform(-delta, delta) for i in range(len(r))]
    w0 = pair.death_simplex
    q_w0 = r[w0] + 0.9 * delta
    cap = q_w0 - 0.05 * delta
    d_rank = pair.death_rank
    q = [min(raw[i], cap) if order.rank[i] < d_rank else raw[i] for i in range(len(r))]
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
    ids = [i for i in range(len(cx)) if order.level[i] < t]
    kses = [i for i in ids if cx.dim_of(i) == k]
    pos = {s: b for b, s in enumerate(kses)}
    km1 = [i for i in ids if cx.dim_of(i) == k - 1]
    posm = {s: b for b, s in enumerate(km1)}
    rank_dk = 0
    if k > 0:
        cols = []
        for s in kses:
            v = 0
            for fc in cx.faces[s]:
                v |= 1 << posm[fc]
            cols.append(v)
        rank_dk = z2_rank(cols)
    cols1 = []
    for s in (i for i in ids if cx.dim_of(i) == k + 1):
        v = 0
        for fc in cx.faces[s]:
            v |= 1 << pos[fc]
        cols1.append(v)
    return len(kses) - rank_dk - z2_rank(cols1)


def is_z2_boundary(order, edge_ids, max_rank):
    """Is the given 1-chain a boundary of triangles with rank < max_rank?"""
    cx = order.cx
    target = 0
    for e in edge_ids:
        target ^= 1 << e
    cols = []
    for i in range(len(cx)):
        if cx.dim_of(i) == 2 and order.rank[i] < max_rank:
            v = 0
            for fc in cx.faces[i]:
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
    edges = [sid for sid in order.order[: k_rank + 1] if cx.dim_of(sid) == 1]
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


def geometry_cases():
    """Named pointclouds that exercise the geometry: every `gen` fixture,
    seeded random clouds, exact grids, a cocircular ring and far clusters."""
    rng = np.random.default_rng(20211)
    cases = {f"gen-{name}": generate(name, 0).points for name in sorted(GENERATORS)}
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
    cx = SimplicialComplex(tris, closure=True)
    vl = np.random.default_rng(seed).random(nu * nv)
    return build_order(cx, [float(max(vl[v] for v in s)) for s in cx.simplices])


def complex_cases():
    """Named filtered complexes beside the pointclouds of `geometry_cases`:
    the appendix filtration, two grid tori (two essential degree-1 classes
    each), a hollow triangle and a lone vertex."""
    from stablevol.fixtures import appendix_filtration

    hollow = SimplicialComplex([(0, 1), (1, 2), (0, 2)], closure=True)
    return {
        "appendix": appendix_filtration(),
        "torus-6x5": torus_complex(6, 5, seed=0),
        "torus-4x7": torus_complex(4, 7, seed=1),
        "hollow-triangle": build_order(hollow, [0.0, 0.0, 0.0, 1.0, 2.0, 1.0]),
        "vertex": build_order(SimplicialComplex([(0,)]), [0.0]),
    }


def chain_rational(coeffs, cx):
    """Chain with exact rational coefficients; zero coefficients are dropped."""
    cleaned = {int(i): Fraction(c) for i, c in coeffs.items() if Fraction(c) != 0}
    dims = {cx.dim_of(i) for i in cleaned}
    if len(dims) > 1:
        raise ValueError(f"mixed dimensions in chain: {sorted(dims)}")
    d = dims.pop() if dims else 0
    return Chain("rational", d, cleaned)


def bottleneck_bruteforce(d1, d2):
    """Factorial-enumeration oracle for the bottleneck distance of small diagrams."""
    e1 = sorted(p.birth_time for p in d1.essential())
    e2 = sorted(p.birth_time for p in d2.essential())
    if len(e1) != len(e2):
        return math.inf
    ess = max((abs(a - b) for a, b in zip(e1, e2)), default=0.0)
    p1 = [p.coords() for p in d1.finite()]
    p2 = [p.coords() for p in d2.finite()]
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
    """Per-simplex reference builder: the same attributes as
    `SimplicialComplex`, built from Python tuples, sets and dicts."""

    def __init__(self, simplices, closure=False):
        canon = {simplex(s) for s in simplices}
        if closure:
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
        self._missing = []
        for i, s in enumerate(self.simplices):
            if len(s) == 1:
                continue
            for f in faces_of(s):
                fi = self.index.get(f)
                if fi is None:
                    self._missing.append((i, f))
                else:
                    self.faces[i].append(fi)
                    self.cofaces[fi].append(i)

    def __len__(self):
        return len(self.simplices)

    def ids_of_dim(self, k):
        return [i for i, s in enumerate(self.simplices) if len(s) - 1 == k]


def build_order_by_key(cx, level):
    """Reference order: (levels, order) with ties broken by sorting on the
    (level, dim, lex verts) key; raises as `build_order` does."""
    bad = validate_complex(cx)
    if bad:
        raise ValueError("invalid complex: " + "; ".join(bad))
    lv = _levels_as_list(cx, level)
    for i in range(len(cx)):
        for fi in cx.faces[i]:
            if lv[fi] > lv[i]:
                raise MonotonicityError(cx.simplices[fi], cx.simplices[i], lv[fi], lv[i])
    order = sorted(range(len(cx)), key=lambda i: (lv[i], len(cx.simplices[i]), cx.simplices[i]))
    return lv, order


def alpha_levels_full_scan(cx, points):
    """Reference alpha levels: one Gabriel test per simplex against every
    point (`_is_gabriel` without candidates), minima over cofaces in Python."""
    pts = np.asarray(points, dtype=float)
    spread = float(((pts.max(axis=0) - pts.min(axis=0)) ** 2).sum())
    huge_r2 = 1e12 * (spread + 1.0)
    n = cx.dim
    levels = [0.0] * len(cx)
    for k in range(n, 0, -1):
        ids = list(cx.ids_of_dim(k))
        if not ids:
            continue
        vl = np.array([cx.simplices[i] for i in ids], dtype=int)
        cs, r2 = _circum_batch(pts, vl, huge_r2=huge_r2)
        for j, sid in enumerate(ids):
            if k == n or _is_gabriel(cx, pts, sid, cs[j], r2[j]):
                levels[sid] = math.sqrt(max(r2[j], 0.0))
            else:
                levels[sid] = min(levels[c] for c in cx.cofaces[sid])
    for k in range(n - 1, -1, -1):
        for sid in cx.ids_of_dim(k):
            if cx.cofaces[sid]:
                cap = min(levels[c] for c in cx.cofaces[sid])
                if levels[sid] > cap:
                    levels[sid] = cap
    return levels


def sublevel_complex(o, t):
    """Subcomplex of simplices with level strictly below t."""
    return SimplicialComplex(
        [s for i, s in enumerate(o.cx.simplices) if o.level[i] < t]
    )


def complex_to_json(o):
    """The JSON complex format of an order, as `complex_from_json` reads it."""
    return {
        "vertices": o.cx.vertex_count,
        "simplices": [
            {"v": list(s), "level": o.level[i]} for i, s in enumerate(o.cx.simplices)
        ],
    }


# the Python views that `SimplicialComplex` builds on first use
VIEWS = ("simplices", "index", "faces", "cofaces")


def views_from_arrays(cx):
    """Reference `simplices`, `index`, `faces` and `cofaces` of a complex,
    read element by element from its per-dimension arrays."""
    simplices, faces, cofaces = [], [], []
    for k in range(cx.dim + 1):
        simplices += [tuple(int(v) for v in row) for row in cx.vertex_array(k)]
        faces += [[int(f) for f in row if f >= 0] for row in cx.face_array(k)]
        ptr, idx = cx.coface_csr(k)
        cofaces += [[int(c) for c in idx[ptr[j] : ptr[j + 1]]] for j in range(len(ptr) - 1)]
    return simplices, {s: i for i, s in enumerate(simplices)}, faces, cofaces


def build_dual_graph_oracle(o):
    """Reference dual graph from the Python views: a depth-first walk down
    the faces from every top cell, then the cofaces of each (n-1)-simplex.
    Returns `n`, `cells` as a list and `edges` as (tau, a, b) tuples; raises
    `ConditionError` with the messages `build_dual_graph` gives."""
    cx = o.cx
    n = cx.dim
    covered = set()
    for t in cx.ids_of_dim(n):
        stack = [t]
        while stack:
            s = stack.pop()
            if s in covered:
                continue
            covered.add(s)
            stack.extend(cx.faces[s])
    orphans = [cx.simplices[i] for i in range(len(cx)) if i not in covered]
    if orphans:
        raise ConditionError(f"simplices with no top-cell coface: {orphans[:10]}")
    edges = []
    for tau in cx.ids_of_dim(n - 1):
        cofs = cx.cofaces[tau]
        if len(cofs) > 2:
            raise ConditionError(
                f"(n-1)-simplex {cx.simplices[tau]} has {len(cofs)} cofaces"
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
    rank = o.rank

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

    for sid in reversed(o.order):
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
    return PersistenceTree(o, parent)


def boundary_vertices_oracle(o, cells):
    """Vertices of the Z/2 boundary of a set of cells, by `boundary()`."""
    bnd = boundary(o.cx, chain_z2(cells, o.cx))
    return {v for sid in bnd.support() for v in o.cx.simplices[sid]}


def statistical_frequencies_oracle(pc, target, noise, trials):
    """Per-point counts and the matched-trial count of the trial loop that
    reduces every trial: `reduce`, the nearest pair, the reference dual
    graph and tree (codimension 1) or the l1 program (other degrees), and
    `boundary()`."""
    from stablevol import persistence, volopt
    from stablevol.alpha import alpha_filtration
    from stablevol.baselines import _match_pair

    radius = max(2.0 * noise.half_width, 1e-6)
    counts = np.zeros(len(pc), dtype=int)
    matched = 0
    for t in range(trials):
        o = alpha_filtration(noise.perturb(pc.points, t)).order
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
    pairs = []
    for i, j in rank_pairs:
        bi, dj = o.order[i], o.order[j]
        pairs.append(
            PersistencePair(
                degree=o.cx.dim_of(bi),
                birth_simplex=bi,
                death_simplex=dj,
                birth_time=o.level[bi],
                death_time=o.level[dj],
                birth_rank=i,
                death_rank=j,
            )
        )
    for i in essential_ranks:
        bi = o.order[i]
        pairs.append(
            PersistencePair(
                degree=o.cx.dim_of(bi),
                birth_simplex=bi,
                death_simplex=None,
                birth_time=o.level[bi],
                death_time=math.inf,
                birth_rank=i,
                death_rank=None,
            )
        )
    pairs.sort(key=lambda p: (p.degree, p.birth_rank))
    return pairs


def reduce_oracle(o, clearing=True):
    """`persistence.reduce`'s pairs as a reference list, built pair by pair
    from the kernel's output."""
    from stablevol.persistence import boundary_matrix

    cols = boundary_matrix(o)
    if clearing:
        proc = sorted(range(len(cols)), key=lambda r: (-o.cx.dim_of(o.order[r]), r))
    else:
        proc = range(len(cols))
    raw_pairs, raw_essentials, _ = kernels.reduce_columns(cols, proc, clearing=clearing)
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
    rank = o.rank
    cols = []
    for c in range(n):
        sid = o.order[n - 1 - c]
        cols.append(sorted(n - 1 - rank[cf] for cf in o.cx.cofaces[sid]))
    raw_pairs, raw_essentials, v = kernels.reduce_columns(
        cols, range(n), clearing=False, track_v=True
    )
    rank_pairs = []
    cocycles = {}
    for u, c in raw_pairs:
        i, j = n - 1 - c, n - 1 - u
        rank_pairs.append((i, j))
        cocycles[(i, j)] = {o.order[n - 1 - cc] for cc in v[c]}
    pairs = _build_pairs(o, rank_pairs, [n - 1 - c for c in raw_essentials])
    return pairs, cocycles


def bottleneck(d1, d2):
    """Exact bottleneck distance with diagonal augmentation.

    Essential pairs match only essential pairs; mismatched counts give inf.
    Exactness comes from binary search over the finite candidate set of all
    pairwise l-inf distances and distances to the diagonal.
    """
    e1 = sorted(p.birth_time for p in d1.essential())
    e2 = sorted(p.birth_time for p in d2.essential())
    if len(e1) != len(e2):
        return math.inf
    p1 = [p.coords() for p in d1.finite()]
    p2 = [p.coords() for p in d2.finite()]
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
    cx = p.order.cx
    cands = sorted(p.candidates)
    conpos = {tau: i for i, tau in enumerate(p.constraints)}
    pin_bit = len(p.constraints)
    want_pin = p.mode == "optimal"
    tau0 = p.pair.birth_simplex

    def mask_of(om):
        msk = 0
        for tau in cx.faces[om]:
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
