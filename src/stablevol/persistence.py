"""Persistence pairs and diagrams by Z/2 boundary-matrix reduction, and
degree-1 representative cocycles by the anti-transposed reduction.

`reduce` pairs every degree: it builds the boundary matrix per dimension
from the complex's face arrays and reduces it with clearing, in descending
dimension. `cohomology_reduce` serves reconstructed shortest cycles: it
reduces only the edge columns of the anti-transposed (coboundary) matrix,
with the degree-0 death edges cleared first (the clearing of de Silva,
Morozov & Vejdemo-Johansson, "Dualities in persistent (co)homology", as
Ripser uses it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .complexes import OrderWithLevel


class StarPairError(ValueError):
    """An operation needing a finite death got an essential pair."""


@dataclass(frozen=True)
class PersistencePair:
    degree: int
    birth_simplex: int
    death_simplex: Optional[int]
    birth_time: float
    death_time: float
    birth_rank: int
    death_rank: Optional[int]

    @property
    def essential(self) -> bool:
        return self.death_simplex is None

    def coords(self):
        return (self.birth_time, self.death_time)


@dataclass
class Diagram:
    degree: int
    pairs: list  # PersistencePair, zero-persistence pairs already dropped

    def finite(self):
        return [p for p in self.pairs if not p.essential]

    def essential(self):
        return [p for p in self.pairs if p.essential]

    def __len__(self):
        return len(self.pairs)


def boundary_matrix(o: OrderWithLevel) -> list:
    """Column j = ranks of the codim-1 faces of the rank-j simplex, ascending.

    Built per dimension from `face_array(k)` and the rank array. The columns
    hold the int objects of `o.rank`, not new ones, which keeps the peak
    memory of a reduction down.
    """
    cx, rank = o.cx, np.array(o.rank)
    rank_objs = np.array(o.rank, dtype=object)
    cols = [[] for _ in cx.ids_of_dim(0)]  # one column per simplex id
    for k in range(1, cx.dim + 1):
        faces = cx.face_array(k)
        faces = np.take_along_axis(faces, rank[faces].argsort(axis=1), axis=1)
        cols.extend(rank_objs[faces].tolist())
    return list(map(cols.__getitem__, o.order))


def reduce(o: OrderWithLevel, clearing: bool = True) -> list:
    """All persistence pairs of the filtration, every degree, stars included.

    With `clearing`, columns are processed in descending dimension and
    known-positive columns are skipped; the pairing is identical either way
    (uniqueness of the interval decomposition) and the equivalence is tested,
    not assumed.
    """
    cols = boundary_matrix(o)
    if clearing:
        # each dimension's ranks, sorted; the ids of a dimension are contiguous
        proc = []
        for k in range(o.cx.dim, -1, -1):
            ids = o.cx.ids_of_dim(k)
            proc.extend(sorted(o.rank[ids.start : ids.stop]))
    else:
        proc = range(len(cols))
    raw_pairs, raw_essentials, _ = kernels.reduce_columns(cols, proc, clearing=clearing)
    return _build_pairs(o, raw_pairs, raw_essentials)


def _build_pairs(o: OrderWithLevel, rank_pairs, essential_ranks) -> list:
    """PersistencePairs from (birth rank, death rank) pairs and essential
    birth ranks, sorted by (degree, birth rank)."""
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


def diagram(pairs, o: OrderWithLevel, k: int) -> Diagram:
    """Degree-k persistence diagram: zero-persistence pairs are excluded."""
    kept = [p for p in pairs if p.degree == k and p.birth_time != p.death_time]
    return Diagram(k, kept)


def degree0_deaths(o: OrderWithLevel) -> np.ndarray:
    """Ids of the degree-0 death edges, in filtration order.

    One union-find pass over the edges in filtration order: an edge that
    joins two components is a death edge. Which vertex it kills (the elder
    rule) does not matter for this set.
    """
    cx = o.cx
    edges = cx.ids_of_dim(1)
    if not edges:
        return np.empty(0, dtype=np.int64)
    by_rank = np.argsort(o.rank[edges.start : edges.stop])
    parent = list(range(cx.vertex_count))
    deaths = []
    for e, (a, b) in zip(by_rank.tolist(), cx.face_array(1)[by_rank].tolist()):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            deaths.append(e)
    return np.array(deaths, dtype=np.int64) + edges.start


def cohomology_reduce(o: OrderWithLevel):
    """Degree-1 pairs via the anti-transposed reduction, plus representative
    cocycles.

    Only the edge columns of the anti-transposed coboundary matrix are
    reduced, in descending rank. Each column's rows are the edge's coface
    triangles, numbered by descending rank. The degree-0 death edges
    (`degree0_deaths`) are cleared: their columns would reduce to zero. An
    edge column has only triangle rows, so no column of another dimension is
    ever added into it; the pairs and cocycles are those of the reduction of
    every column. A column that reduces to zero is an essential class.

    Returns (pairs, cocycles). `pairs` are the degree-1 pairs, finite and
    essential, sorted by birth rank, as `reduce` gives them. `cocycles` maps
    each finite pair's (birth_rank, death_rank) to the support of its
    representative cocycle as a set of edge ids: edges whose duals sum to a
    persistent cocycle, i.e. the cut whose removal kills every
    representative cycle of the pair.
    """
    cx, rank = o.cx, np.array(o.rank)
    edges, tris = cx.ids_of_dim(1), cx.ids_of_dim(2)
    if not edges:
        return [], {}
    alive = np.ones(len(edges), dtype=bool)
    alive[degree0_deaths(o) - edges.start] = False
    live = np.flatnonzero(alive)
    col_edges = live[np.argsort(-rank[edges.start : edges.stop][live])]
    row_tris = np.argsort(-rank[tris.start : tris.stop])
    row_of = np.empty(len(tris), dtype=np.int64)
    row_of[row_tris] = np.arange(len(tris))
    ptr, idx = cx.coface_csr(1)
    rows = row_of[idx - tris.start]
    owner = np.repeat(np.arange(len(edges)), np.diff(ptr))
    srt = np.lexsort((rows, owner))
    flat, bounds = rows[srt].tolist(), ptr.tolist()
    cols = [flat[bounds[e] : bounds[e + 1]] for e in col_edges.tolist()]
    raw_pairs, _, v = kernels.reduce_columns(cols, range(len(cols)), clearing=False, track_v=True)

    edge_of = (col_edges + edges.start).tolist()
    tri_of = (row_tris + tris.start).tolist()
    rank_pairs = []
    cocycles = {}
    paired = set()
    for u, c in raw_pairs:
        i, j = o.rank[edge_of[c]], o.rank[tri_of[u]]
        rank_pairs.append((i, j))
        cocycles[(i, j)] = {edge_of[cc] for cc in v[c]}
        paired.add(c)
    essentials = [o.rank[edge_of[c]] for c in range(len(cols)) if c not in paired]
    return _build_pairs(o, rank_pairs, essentials), cocycles
