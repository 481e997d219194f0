"""Persistence pairs and diagrams, read from the structure of the complex,
and degree-1 representative cocycles.

`pd`, `vol`, `sweep` and `stat` call `pairs`, which follows one rule per
degree of an n-dimensional complex: degree 0 from an elder-rule union-find
pass over the edges; degree k, 1 <= k <= n-1, from the reduction of the
k-simplex columns of the anti-transposed (coboundary) matrix after the
degree-(k-1) death simplices are cleared (the clearing of de Silva, Morozov &
Vejdemo-Johansson, "Dualities in persistent (co)homology", as Ripser uses
it); degree n-1 instead from the merge tree over the dual graph when the
complex passes the dual-graph condition; degree n from the n-simplices that
kill no degree-(n-1) class, all essential. Only the degrees that a wanted
degree needs are computed. `merge_forest` is the one union-find: degree 0
and the merge tree (`dualtree.compute_tree`) both run it. The cochain
columns are the one caller of the bitset kernel `kernels.reduce_columns`.

`cohomology_reduce` serves reconstructed shortest cycles: the degree-1
cochain columns with V tracked, and the cocycle of the one pair asked for.
`reduce` pairs every degree by a set-arithmetic reduction of the boundary
matrix, with clearing, that shares no code with the kernel; no command
calls it, and it is the tests' oracle for `pairs`.

All three return a `Pairs` table: int64 birth-rank and death-rank arrays,
with degree, simplex and time columns derived from them by numpy. Commands
read the arrays; a `PersistencePair` is built only for a row that is
indexed or iterated, such as the one pair a command selects.
"""

from __future__ import annotations

import itertools
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


class Pairs:
    """Persistence pairs as a table of int64 rank arrays.

    Row r pairs the simplices at positions `birth_rank[r]` and
    `death_rank[r]` of the order; `death_rank` is -1 for an essential pair.
    Rows are sorted by (degree, birth rank). The columns `degree`,
    `birth_simplex`, `death_simplex` (-1 when essential), `birth_time` and
    `death_time` (inf when essential) derive from the ranks. `len()`,
    indexing and iteration give `PersistencePair`s, built on demand.
    `tree` is the merge tree that `pairs` read the rows from, if any, and
    `tree_error` the `ConditionError` that kept `pairs` from building it.
    """

    tree = None
    tree_error = None

    def __init__(self, o: OrderWithLevel, birth_rank, death_rank):
        birth_rank = np.asarray(birth_rank, dtype=np.int64)
        death_rank = np.asarray(death_rank, dtype=np.int64)
        order, level = o.order_array, o.level_array
        birth_simplex = order[birth_rank]
        # the ids of a dimension are contiguous: degree = dimensions started
        starts = [o.cx.ids_of_dim(k).start for k in range(1, o.cx.dim + 1)]
        degree = np.searchsorted(starts, birth_simplex, side="right")
        rows = np.lexsort((birth_rank, degree))
        self.birth_rank = birth_rank[rows]
        self.death_rank = death_rank[rows]
        self.degree = degree[rows]
        self.birth_simplex = birth_simplex[rows]
        essential = self.death_rank < 0
        self.death_simplex = np.where(essential, -1, order[self.death_rank])
        self.birth_time = level[self.birth_simplex]
        self.death_time = np.where(essential, math.inf, level[self.death_simplex])

    def __len__(self):
        return len(self.birth_rank)

    def __getitem__(self, i) -> PersistencePair:
        return self.rows([i])[0]

    def __iter__(self):
        return iter(self.rows(slice(None)))

    def rows(self, index) -> list:
        """The `PersistencePair`s of the rows that `index` selects."""
        cols = (
            self.degree[index].tolist(),
            self.birth_simplex[index].tolist(),
            self.death_simplex[index].tolist(),
            self.birth_time[index].tolist(),
            self.death_time[index].tolist(),
            self.birth_rank[index].tolist(),
            self.death_rank[index].tolist(),
        )
        return [
            PersistencePair(k, bs, None if dr < 0 else ds, bt, dt, br, None if dr < 0 else dr)
            for k, bs, ds, bt, dt, br, dr in zip(*cols)
        ]

    def diagram_index(self, k: int) -> np.ndarray:
        """Rows of the degree-k diagram (zero-persistence pairs dropped),
        sorted by (birth time, death time, birth rank)."""
        idx = np.flatnonzero((self.degree == k) & (self.birth_time != self.death_time))
        return idx[np.lexsort((self.birth_rank[idx], self.death_time[idx], self.birth_time[idx]))]


def boundary_matrix(o: OrderWithLevel) -> list:
    """Column j = ranks of the codim-1 faces of the rank-j simplex, ascending.

    Built per dimension from `face_array(k)` and the rank array.
    """
    cx, rank = o.cx, o.rank_array
    cols = [[] for _ in cx.ids_of_dim(0)]  # one column per simplex id
    for k in range(1, cx.dim + 1):
        faces = cx.face_array(k)
        faces = np.take_along_axis(faces, rank[faces].argsort(axis=1), axis=1)
        cols.extend(rank[faces].tolist())
    return list(map(cols.__getitem__, o.order_array.tolist()))


def reduce(o: OrderWithLevel) -> Pairs:
    """All persistence pairs of the filtration, every degree, stars included,
    as a `Pairs` table: the tests' oracle for `pairs`, which no command calls.

    Reduces `boundary_matrix(o)` with set arithmetic, not the kernel: a
    column is a set of ranks, its low is its largest rank, and the reduced
    column that owns a low is added by symmetric difference. Dimensions run
    from the top down, each in ascending rank, and a column that the
    dimension above made a birth is skipped (clearing). A simplex that is
    neither a birth nor a death is an essential class.
    """
    cols = boundary_matrix(o)
    reduced, births, deaths = {}, [], []  # reduced column by low
    for k in range(o.cx.dim, -1, -1):
        ids = o.cx.ids_of_dim(k)
        for j in np.sort(o.rank_array[ids.start : ids.stop]).tolist():
            if j in reduced:
                continue
            col = set(cols[j])
            while col:
                low = max(col)
                if low not in reduced:
                    reduced[low] = col
                    births.append(low)
                    deaths.append(j)
                    break
                col ^= reduced[low]
    essentials = np.setdiff1d(np.arange(len(cols)), births + deaths)
    return Pairs(o, births + essentials.tolist(), deaths + [-1] * len(essentials))


def pairs(o: OrderWithLevel, degrees=None) -> Pairs:
    """The rows of `reduce(o)` of the given degrees (default: every degree),
    with no boundary-matrix reduction. On an n-dimensional complex:

    - degree 0 comes from the elder-rule union-find (`degree0_deaths`);
    - degree k, 1 <= k <= n-1, from the k-simplex cochain columns with
      degree k-1's death simplices cleared (`_reduce_cochain_columns`);
    - degree n-1 instead from the merge tree (`compute_tree`) when n >= 2,
      degree n-1 or n is wanted and `build_dual_graph`'s condition holds:
      the tree edges are the finite pairs, and an (n-1)-simplex that is
      neither a degree-(n-2) death nor a tree label is an essential class;
    - degree n has one essential class per n-simplex that is no
      degree-(n-1) death.

    A degree is computed only when a wanted degree needs it. With the merge
    tree, degree n reads only the tree's death cells, and degree n-1 the
    tree and degree n-2's deaths; without it, degrees n-1 and n need degrees
    1 to n-1. `tree` is set on the table when the merge tree was built, and
    `tree_error` when the condition failed.
    """
    from . import dualtree  # dualtree imports this module

    n, rank = o.cx.dim, o.rank_array
    wanted = set(range(n + 1)).intersection(range(n + 1) if degrees is None else degrees)
    if not wanted:
        return Pairs(o, [], [])
    tree = tree_error = None
    if n >= 2 and max(wanted) >= n - 1:
        try:
            tree = dualtree.compute_tree(dualtree.build_dual_graph(o), o)
        except dualtree.ConditionError as e:
            tree_error = e.with_traceback(None)  # holds no frame of this call
    # union-find and the cochain columns compute degrees 0 to `last`
    last = max((k for k in wanted if k == 0 or k < n - 1), default=-1)
    if n - 1 in wanted or (tree is None and n in wanted):
        last = max(last, n - 1 if tree is None else n - 2)
    parts = []
    for k in range(last + 1):
        if k == 0:
            births, deaths = degree0_deaths(o)
        else:
            births, deaths = _reduce_cochain_columns(o, k, deaths)[:2]
        if k in wanted:
            parts.append((births, deaths))
    if tree is not None:
        cells, _, taus = tree.edges
        taus, cells = rank[taus], rank[cells]
        if n - 1 in wanted:
            ess = rank[_unkilled(o, n - 1, deaths, taus)]
            parts.append((np.concatenate([taus, ess]),
                          np.concatenate([cells, np.full_like(ess, -1)])))
        deaths = cells
    if n in wanted and n >= 1:
        ess = rank[_unkilled(o, n, deaths)]
        parts.append((ess, np.full_like(ess, -1)))
    table = Pairs(o, *(np.concatenate(c) for c in zip(*parts)))
    table.tree, table.tree_error = tree, tree_error
    return table


def _unkilled(o: OrderWithLevel, k: int, *rank_arrays) -> np.ndarray:
    """The ids, ascending, of the k-simplices whose ranks are none of the
    non-negative entries of `rank_arrays`."""
    ids, order = o.cx.ids_of_dim(k), o.order_array
    alive = np.ones(len(ids), dtype=bool)
    for ranks in rank_arrays:
        alive[order[ranks[ranks >= 0]] - ids.start] = False
    return np.flatnonzero(alive) + ids.start


def merge_forest(n_nodes: int, ends):
    """The elder-rule union-find over the nodes 0..n_nodes-1, a smaller node
    being older (Edelsbrunner, Letscher & Zomorodian, "Topological
    persistence and simplification"). The edges are the rows of the (m, 2)
    int array `ends`, in row order; each set's root is its oldest node, and
    an edge that joins two sets kills the younger root, which the elder
    root adopts. Returns int64 arrays (killed, survivor, edge, roots): per
    merge, in merge order, the killed root, the root that adopts it and the
    edge's row; then the nodes left as roots, ascending.
    """
    parent = list(range(n_nodes))
    killed, survivor, edge = [], [], []
    for e, a, b in zip(range(len(ends)), ends[:, 0].tolist(), ends[:, 1].tolist()):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            if a > b:
                a, b = b, a
            parent[b] = a
            killed.append(b)
            survivor.append(a)
            edge.append(e)
    roots = np.flatnonzero(np.array(parent, dtype=np.int64) == np.arange(n_nodes))
    return (*(np.array(x, dtype=np.int64) for x in (killed, survivor, edge)), roots)


def degree0_deaths(o: OrderWithLevel):
    """The degree-0 pairs by the elder rule, as (birth ranks, death ranks):
    one row per vertex, death rank -1 for a component that never dies:
    `merge_forest` over the edges in rank order, each vertex the node of its
    position among the vertices in rank order."""
    cx, order = o.cx, o.order_array
    n_vertices, edges = cx.vertex_count, cx.ids_of_dim(1)
    vertex_ranks = np.flatnonzero(order < n_vertices)  # ranks of the vertices, ascending
    edge_ranks = np.flatnonzero((order >= edges.start) & (order < edges.stop))
    node = np.empty(n_vertices, dtype=np.int64)
    node[order[vertex_ranks]] = np.arange(n_vertices)
    ends = np.empty((0, 2), dtype=np.int64)
    if edges:
        ends = node[cx.face_array(1)[order[edge_ranks] - edges.start]]
    killed, _, edge, roots = merge_forest(n_vertices, ends)
    births = vertex_ranks[np.concatenate([killed, roots])]
    deaths = np.concatenate([edge_ranks[edge], np.full(len(roots), -1, dtype=np.int64)])
    return births, deaths


def cohomology_reduce(o: OrderWithLevel):
    """Degree-1 pairs via the anti-transposed reduction, plus representative
    cocycles on demand.

    Reduces the edge columns (`_reduce_cochain_columns` at k = 1) with V
    tracked. An edge column has only triangle rows, so no column of another
    dimension is ever added into it; the pairs and cocycles are those of the
    reduction of every column. A column that reduces to zero is an essential
    class.

    Returns (pairs, cocycle). `pairs` is the `Pairs` table of the degree-1
    pairs, finite and essential: the degree-1 rows of `reduce`'s table.
    `cocycle(birth_rank, death_rank)` gives the support of a finite pair's
    representative cocycle as a set of edge ids: edges whose duals sum to a
    persistent cocycle, i.e. the cut whose removal kills every
    representative cycle of the pair. Only that pair's V mask is read; any
    other pair of ranks raises `KeyError`.
    """
    if o.cx.ids_of_dim(1):
        _, deaths = degree0_deaths(o)
        births, deaths, edge_ids, v = _reduce_cochain_columns(o, 1, deaths, track_v=True)
    else:
        births = deaths = edge_ids = np.empty(0, dtype=np.int64)
        v = {}

    def cocycle(birth_rank, death_rank):
        # the columns run in descending birth rank
        c = int(np.searchsorted(-births, -birth_rank))
        if death_rank < 0 or c == len(births) or (births[c], deaths[c]) != (birth_rank, death_rank):
            raise KeyError((birth_rank, death_rank))
        mask = v[c]
        bits = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
        return set(edge_ids[np.flatnonzero(np.unpackbits(bits, bitorder="little"))].tolist())

    return Pairs(o, births, deaths), cocycle


def _reduce_cochain_columns(o: OrderWithLevel, k: int, prev_deaths, track_v=False):
    """The degree-k pairs from the k-simplex columns of the anti-transposed
    coboundary matrix, with the degree-(k-1) death simplices (death ranks
    `prev_deaths`, -1 entries ignored) cleared: their columns would reduce
    to zero, so every other column that does is an essential class.

    Columns are reduced in descending rank; each column's rows are the
    simplex's (k+1)-cofaces, numbered by descending rank. Returns (birth
    ranks, death ranks, simplex ids, v), one entry per column, death rank -1
    for an essential class. With `track_v`, v maps each death column to the
    bitmask of the columns summed into it, as `kernels.reduce_columns`
    gives it; otherwise v is None.
    """
    cx, rank = o.cx, o.rank_array
    simplices, cofaces = cx.ids_of_dim(k), cx.ids_of_dim(k + 1)
    col_ids = _unkilled(o, k, prev_deaths)
    col_ids = col_ids[np.argsort(-rank[col_ids])]
    row_cofaces = np.argsort(-rank[cofaces.start : cofaces.stop])
    row_of = np.empty(len(cofaces), dtype=np.int64)
    row_of[row_cofaces] = np.arange(len(cofaces))
    ptr, idx = cx.coface_csr(k)
    rows = row_of[idx - cofaces.start]
    owner = np.repeat(np.arange(len(simplices)), np.diff(ptr))
    srt = np.lexsort((rows, owner))
    flat, bounds = rows[srt].tolist(), ptr.tolist()
    cols = [flat[bounds[c] : bounds[c + 1]] for c in (col_ids - simplices.start).tolist()]
    raw_pairs, v = kernels.reduce_columns(cols, track_v)
    flat_pairs = np.fromiter(itertools.chain.from_iterable(raw_pairs), np.int64, 2 * len(raw_pairs))
    births, deaths = rank[col_ids], np.full(len(cols), -1, dtype=np.int64)
    deaths[flat_pairs[1::2]] = rank[row_cofaces[flat_pairs[0::2]] + cofaces.start]
    return births, deaths, col_ids, v
