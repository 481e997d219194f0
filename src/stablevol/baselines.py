"""Prior-art baselines: the statistical resampling method and reconstructed
shortest cycles from persistent cohomology.

The statistical method re-runs the whole pipeline on noise-perturbed copies
of the pointcloud, an (n, d) array, and counts, per input point, how often
it lies on the boundary cycle of the matched pair's optimal volume: a
subtree of the trial's merge tree for a codimension-1 pair, the l1
program's volume (`optimal_volume_cells`) for any other degree. Reconstructed shortest
cycles cut the 1-skeleton along a representative cocycle and search the
shortest loop that re-crosses the cut: one Dijkstra search per cut edge,
all sharing one heap, with hop or euclidean weights; edge lengths come
from one array pass (`_edge_lengths`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import persistence as pers
from . import volopt
from .alpha import alpha_filtration
from .complexes import OrderWithLevel, id_mask, vertices_of, z2_boundary
from .dualtree import build_dual_graph, compute_tree, optimal_volume_tree
from .fixtures import Pcg64Stream
from .parallel import parallel_map
from .persistence import PersistencePair


@dataclass
class NoiseModel:
    """Uniform box noise: trial t adds the draws that
    `numpy.random.default_rng([seed, t]).uniform(-half_width, half_width)`
    makes, computed by `fixtures.Pcg64Stream`.

    The half width must be positive, and the box width 2 * half_width finite.
    """

    half_width: float
    seed: int

    def __post_init__(self):
        if not math.isfinite(2.0 * self.half_width):
            raise ValueError(f"noise half width must be finite, got {self.half_width}")
        if self.half_width <= 0:
            raise ValueError(f"noise half width must be positive, got {self.half_width}")

    def perturb(self, points: np.ndarray, trial: int) -> np.ndarray:
        noise = Pcg64Stream([self.seed, trial])
        return points + noise.uniform(-self.half_width, self.half_width, points.shape)


@dataclass
class FrequencyMap:
    trials: int
    matched: int
    counts: np.ndarray  # per input point, over matched trials
    status: str = "ok"

    @property
    def frequencies(self) -> np.ndarray:
        if self.matched == 0:
            return np.zeros_like(self.counts, dtype=float)
        return self.counts / float(self.matched)


def _match_pair(pairs: pers.Pairs, target: PersistencePair, radius: float):
    """The finite diagram pair of the target's degree nearest the target in
    the l-inf metric (the first in table order on a tie), or None beyond
    `radius`."""
    rows = np.flatnonzero(
        (pairs.degree == target.degree)
        & (pairs.death_rank >= 0)
        & (pairs.birth_time != pairs.death_time)
    )
    if not len(rows):
        return None
    dist = np.maximum(
        np.abs(pairs.birth_time[rows] - target.birth_time),
        np.abs(pairs.death_time[rows] - target.death_time),
    )
    best = int(np.argmin(dist))
    if dist[best] == math.inf or dist[best] > radius:
        return None
    return pairs[rows[best]]


def optimal_volume_cells(order: OrderWithLevel, pair: PersistencePair) -> set:
    """Optimal volume of a pair of any degree, by the l1 program."""
    return volopt.solve_volume(order, pair, "optimal").cells


def statistical_frequencies(
    points: np.ndarray,
    target: PersistencePair,
    noise: NoiseModel,
    trials: int,
) -> FrequencyMap:
    """Per-point frequency of lying on the optimal volume-boundary across
    noise-perturbed recomputations.

    Each trial perturbs the (n, d) pointcloud, recomputes the alpha
    filtration and its diagram, matches the target pair to the nearest pair
    in the l-inf metric (accepted within max(2 * half_width, 1e-6)), and
    marks the vertices of the matched pair's optimal volume boundary. For a
    pair of codimension 1 the trial builds one persistence tree, which gives
    both its pairs and the optimal volume, and runs no reduction; other
    degrees take their pairs from `persistence.pairs`, then solve the l1
    program. Unmatched
    trials are excluded from the denominator and reported; a majority of
    unmatched trials flags the result with a warning status.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    radius = max(2.0 * noise.half_width, 1e-6)

    def one_trial(t: int):
        o = alpha_filtration(noise.perturb(points, t))
        if target.degree == o.cx.dim - 1:
            tree = compute_tree(build_dual_graph(o), o)
            hit = _match_pair(tree.pairs_table(), target, radius)
            if hit is None:
                return None
            cells = optimal_volume_tree(tree, hit)
        else:
            hit = _match_pair(pers.pairs(o, [target.degree]), target, radius)
            if hit is None:
                return None
            cells = optimal_volume_cells(o, hit)
        return vertices_of(o.cx, hit.degree, z2_boundary(o.cx, hit.degree + 1, cells))

    results = parallel_map(one_trial, range(trials))
    counts = np.zeros(len(points), dtype=int)
    matched = 0
    for verts in results:
        if verts is None:
            continue
        matched += 1
        counts[verts] += 1
    status = "ok"
    if trials - matched > trials / 2:
        status = f"warning: {trials - matched} of {trials} trials unmatched"
    return FrequencyMap(trials, matched, counts, status)


# ---------------------------------------------------------------------------
# reconstructed shortest cycles


@dataclass
class CycleLoop:
    edges: list  # simplex ids, consecutive, closing back to the start
    vertices: list  # loop vertex ids, len == len(edges)
    weight: float


@dataclass
class RscResult:
    loop: Optional[CycleLoop]
    k_rank: int  # the filtration step the loop was searched at
    status: str = "ok"


def reconstructed_shortest_cycle(
    o: OrderWithLevel,
    pair: PersistencePair,
    cocycle: set,
    k_rank: Optional[int] = None,
    euclidean: bool = False,
    points=None,
) -> RscResult:
    """Tightest 1-cycle for a degree-1 pair at filtration step k.

    With C the representative cocycle of the pair (edge ids, as the
    `cocycle` function of `cohomology_reduce` gives them), each edge of C
    present at step k proposes the loop (shortest path between its
    endpoints avoiding C) + (the edge itself); the lightest proposal wins,
    ties going to the least sorted edge tuple. Weights are hop counts
    unless euclidean=True (needs points; an edge length or a loop weight
    that overflows raises ValueError). One Dijkstra heap serves the
    searches of all crossing edges (`_shortest_path`). A fully separating
    cut is reported via status="disconnected", not raised.
    """
    if pair.degree != 1:
        raise ValueError("reconstructed shortest cycles apply to degree-1 pairs only")
    if pair.essential:
        raise pers.StarPairError("essential pairs have no death index")
    if euclidean and points is None:
        raise ValueError("euclidean weights need point coordinates")
    if k_rank is None:
        k_rank = pair.death_rank - 1
    if not pair.birth_rank <= k_rank < pair.death_rank:
        raise ValueError(
            f"k must lie in [{pair.birth_rank}, {pair.death_rank}), got {k_rank}"
        )
    # the edges present at step k, in rank order, split by the cut
    edges = o.cx.ids_of_dim(1)
    present = o.order_array[: k_rank + 1]
    present = present[(present >= edges.start) & (present < edges.stop)]
    cut = id_mask(o.cx, 1, present, cocycle)
    ends = o.cx.vertex_array(1)[present - edges.start]
    weights = _edge_lengths(points, ends) if euclidean else np.ones(len(present))
    adj = _adjacency(ends[~cut], present[~cut], weights[~cut])
    wmin = float(weights[~cut].min(initial=math.inf))
    best = _shortest_path(adj, present[cut].tolist(), ends[cut].tolist(),
                          weights[cut].tolist(), wmin)
    if best is None:
        return RscResult(None, k_rank, "disconnected")
    total, _, loop_edges, verts = best
    if not math.isfinite(total):
        raise ValueError("coordinate range too large: a loop weight overflows")
    return RscResult(CycleLoop(loop_edges, verts, total), k_rank)


def _edge_lengths(points, ends: np.ndarray) -> np.ndarray:
    """Length of each edge, the rows of `ends`, measured on the difference
    scaled by a power of two to magnitude below 1 and scaled back, so that
    no square under- or overflows. Where none did unscaled, the float is the
    same: a square that the scaling makes underflow is below the rounding of
    the largest one. The squares are summed left to right, elementwise, so
    a length is the same float on any CPU. An overflow raises ValueError."""
    P = np.asarray(points, float)
    d = P[ends[:, 0]] - P[ends[:, 1]]
    k = np.frexp(np.abs(d).max(axis=1))[1]
    s = np.ldexp(d, -k[:, None])
    total = s[:, 0] * s[:, 0]
    for col in s.T[1:]:
        total = total + col * col
    with np.errstate(over="ignore"):
        lengths = np.ldexp(np.sqrt(total), k)
    if not np.isfinite(lengths).all():
        raise ValueError("coordinate range too large: an edge length overflows")
    return lengths


def _adjacency(ends: np.ndarray, sids: np.ndarray, weights: np.ndarray) -> dict:
    """Vertex -> [(neighbour, weight, edge id)], sorted, over the edges with
    ids `sids`, endpoint rows `ends` and weights `weights`."""
    src = np.concatenate([ends[:, 0], ends[:, 1]])
    dst = np.concatenate([ends[:, 1], ends[:, 0]])
    # a vertex pair has one edge, so the neighbour alone orders a list
    srt = np.lexsort((dst, src))
    src = src[srt]
    triples = list(zip(dst[srt].tolist(), np.concatenate([weights, weights])[srt].tolist(),
                       np.concatenate([sids, sids])[srt].tolist()))
    new = np.ones(len(src), dtype=bool)
    new[1:] = src[1:] != src[:-1]
    starts = np.flatnonzero(new).tolist()
    bounds = zip(starts, starts[1:] + [len(src)])
    return {u: triples[a:b] for u, (a, b) in zip(src[starts].tolist(), bounds)}


def _shortest_path(adj, crossings, ends, weights, wmin):
    """The lightest loop that a crossing edge closes through `adj`, as
    (weight, sorted edge tuple, edges, vertices), or None when no crossing
    edge's endpoints are joined in `adj`. `wmin` is a lower bound on the
    weights in `adj`.

    Crossing edge s (id `crossings[s]`, endpoints `ends[s]`, weight
    w_s = `weights[s]`) runs a Dijkstra search between its endpoints, and
    all searches share one heap of (distance + w_s, s, distance, vertex).
    Rounding is monotone, so each search pops its vertices in (distance,
    vertex) order and keeps a vertex's first parent unless a strictly
    shorter path replaces it, as a search of its own would. `cap`,
    the lightest loop total that a search has reached, bounds them all: no
    entry above it is pushed, no vertex whose next hop would pass it is
    expanded, and popping stops at the first key above it. A tie at the
    cap still pops, so every loop of the lightest total is found.
    """
    searches = [(u, v, w, {u: 0.0}, {}) for (u, v), w in zip(ends, weights)]
    heap = [(w, s, 0.0, u) for s, (u, _, w, _, _) in enumerate(searches)]
    heapq.heapify(heap)
    cap = math.inf
    loops = []
    while heap and heap[0][0] <= cap:
        total, s, d, a = heapq.heappop(heap)
        u, v, ws, dist, parent = searches[s]
        if dist[a] != d:
            continue  # stale: a shorter path replaced it
        if a == v:
            edges, verts = _path(parent, u, v)
            edges.append(crossings[s])
            loops.append((total, tuple(sorted(edges)), edges, verts))
        elif (d + wmin) + ws <= cap:
            for b, w, sid in adj.get(a, ()):
                nd = d + w
                if b not in dist or nd < dist[b]:
                    dist[b] = nd
                    parent[b] = (a, sid)
                    key = nd + ws
                    if key <= cap:
                        if b == v:
                            cap = key
                        heapq.heappush(heap, (key, s, nd, b))
    return min(loops) if loops else None


def _path(prev, src, dst):
    """(edge ids, vertex ids) of the path from src to dst that `prev`, a map
    from each reached vertex to its (parent, edge id), records."""
    edges = []
    verts = []
    v = dst
    while v != src:
        u, sid = prev[v]
        edges.append(sid)
        verts.append(v)
        v = u
    verts.append(src)
    edges.reverse()
    verts.reverse()
    return edges, verts
