"""Shared test utilities: perturbation samplers, brute-force oracles and
geometry test inputs."""

import itertools
import math
from fractions import Fraction

import numpy as np

from stablevol.complexes import Chain, build_order
from stablevol.fixtures import GENERATORS, generate


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
