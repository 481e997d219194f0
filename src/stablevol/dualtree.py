"""Dual graph and merge-tree machinery for the codimension-1 persistence of
complexes embedded in R^n: persistence trees, tree optimal volumes, tree
stable volumes, and epsilon sweeps of stable-volume sizes.

The dual graph has the n-cells plus one compactification cell at infinity as
vertices and the (n-1)-simplices as edges. Running the merge-tree algorithm
over the (n-1)-simplices in descending filtration order yields a rooted tree
whose edges are exactly the degree-(n-1) persistence pairs and whose
subtrees are the optimal volumes (Obayashi 2018, "Volume-optimal cycle").
The merge is the elder-rule union-find of degree 0, `merge_forest`, with the
later cell as the elder, and the tree is held as its merge arrays.

The graph and the tree are built from the complex's face and coface arrays,
never from its vertex tuples. `PersistenceTree.pairs_table` gives the tree's
pairs as the `Pairs` table rows that `reduce` gives for degree n-1, so a
codimension-1 pair can be matched and its volume found with no reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import OrderWithLevel
from .persistence import Pairs, PersistencePair, StarPairError, merge_forest

OMEGA_INF = -1


class ConditionError(ValueError):
    """The complex is not a valid codim-1 substrate (simplices without an
    n-coface, or an (n-1)-simplex with more than two cofaces)."""


class DegreeError(ValueError):
    """Tree volumes exist only for degree n-1 pairs."""


@dataclass
class DualGraph:
    """Edge j joins the cells a[j] and b[j] (OMEGA_INF for the outside cell)
    and is labelled by the (n-1)-simplex tau[j]; edges are in id order."""

    n: int
    cells: range  # n-simplex ids
    tau: np.ndarray
    a: np.ndarray
    b: np.ndarray


def build_dual_graph(o: OrderWithLevel) -> DualGraph:
    """Dual graph of the complex; checks the embeddability condition.

    Every simplex must be a face of a top cell: the top cells are marked,
    and the marks pushed down through the face arrays one dimension at a
    time. Each (n-1)-simplex must have at most two cofaces.
    """
    cx = o.cx
    n = cx.dim
    covered = np.zeros(len(cx), dtype=bool)
    top = cx.ids_of_dim(n)
    covered[top.start : top.stop] = True
    for k in range(n, 0, -1):
        ids = cx.ids_of_dim(k)
        faces = cx.face_array(k)[covered[ids.start : ids.stop]]
        covered[faces] = True
    if not covered.all():
        orphans = [cx.vertices(i) for i in np.flatnonzero(~covered)[:10].tolist()]
        raise ConditionError(f"simplices with no top-cell coface: {orphans}")
    ids = cx.ids_of_dim(n - 1)
    tau = np.arange(ids.start, ids.stop)
    if n < 1:  # no (n-1)-simplices, so no edges
        return DualGraph(n, top, tau, tau, tau)
    ptr, idx = cx.coface_csr(n - 1)
    count = np.diff(ptr)
    over = np.flatnonzero(count > 2)
    if len(over):
        t = int(over[0])
        raise ConditionError(
            f"(n-1)-simplex {cx.vertices(ids.start + t)} has {int(count[t])} cofaces"
        )
    a = idx[ptr[:-1]]  # cofaces ascend, so a < b where both are cells
    b = np.full(len(tau), OMEGA_INF, dtype=np.int64)
    two = count == 2
    b[two] = idx[ptr[:-1][two] + 1]
    return DualGraph(n, top, tau, a, b)


class PersistenceTree:
    """Rooted tree on the n-cells (root = the cell at infinity, OMEGA_INF)
    with (n-1)-simplex edge labels, held as the int64 arrays `edges` =
    (child cells, parent cells, labelling simplex ids), one entry per tree
    edge in merge order.

    The children are stored as CSR lists over node slots (a cell's slot is
    its id minus the first n-cell id, the cell at infinity has the last),
    built with one stable argsort of the parent column, so each node's
    children keep merge order. `children(cell)` reads them and `label(cell)`
    the label above a cell; `descendants` and `stable_volume_tree` walk only
    the subtree they need.
    """

    def __init__(self, order: OrderWithLevel, child, parent, label):
        self.order = order
        self.edges = (child, parent, label)
        cells = order.cx.ids_of_dim(order.cx.dim)
        self._first, self._inf = cells.start, len(cells)
        slot = np.where(parent == OMEGA_INF, self._inf, parent - cells.start)
        ptr = np.zeros(self._inf + 2, dtype=np.int64)
        np.cumsum(np.bincount(slot, minlength=self._inf + 1), out=ptr[1:])
        self._ptr = ptr.tolist()
        self._kids = child[np.argsort(slot, kind="stable")].tolist()
        labels = np.full(self._inf, None)  # by slot; None for a root
        labels[child - cells.start] = label.tolist()
        self._labels = labels.tolist()

    def children(self, cell: int) -> list:
        """The children of a cell (or of OMEGA_INF), in merge order."""
        s = self._inf if cell == OMEGA_INF else cell - self._first
        return self._kids[self._ptr[s] : self._ptr[s + 1]]

    def label(self, cell: int):
        """The (n-1)-simplex id on the tree edge above `cell`, or None for a
        root or a simplex that is no n-cell."""
        s = cell - self._first
        return self._labels[s] if 0 <= s < self._inf else None

    def pairs_table(self) -> Pairs:
        """The tree edges as a `Pairs` table, one row per edge, in birth-rank
        order: the rows of `reduce`'s degree-(n-1) pairs."""
        rank = self.order.rank_array
        child, _, label = self.edges
        return Pairs(self.order, rank[label], rank[child])

    def descendants(self, cell: int) -> set:
        """All descendants of the cell, the cell included."""
        out = set()
        stack = [cell]
        while stack:
            c = stack.pop()
            out.add(c)
            stack.extend(self.children(c))
        return out


def compute_tree(g: DualGraph, o: OrderWithLevel) -> PersistenceTree:
    """Merge tree over the (n-1)-simplices in descending order.

    Both cofaces of an (n-1)-simplex come later in the order, so every cell
    is a singleton before its first edge is reached. `merge_forest` runs
    with the cell at infinity as node 0 and the cells after it in
    descending rank: each root is the latest cell of its set (infinity
    counting as the latest), and each merge is a tree edge from the killed
    root up to the root that adopts it, labelled by the merging simplex.
    """
    cells, m = g.cells, len(g.cells)
    rank = o.rank_array
    latest = np.argsort(-rank[cells.start : cells.stop])  # slots, latest cell first
    cell_of = np.concatenate([[OMEGA_INF], latest + cells.start])
    node = np.empty(m + 1, dtype=np.int64)  # by slot, the cell at infinity last
    node[latest] = np.arange(1, m + 1)
    node[m] = 0
    by_rank = np.argsort(-rank[g.tau])
    b = g.b[by_rank]
    ends = np.stack([node[g.a[by_rank] - cells.start],
                     node[np.where(b == OMEGA_INF, m, b - cells.start)]], axis=1)
    killed, survivor, merged, _ = merge_forest(m + 1, ends)
    return PersistenceTree(o, cell_of[killed], cell_of[survivor], g.tau[by_rank[merged]])


def check_tree_degree(n: int, pair: PersistencePair):
    """Raises `DegreeError` unless the pair has codimension 1 (dimension n)."""
    if pair.degree != n - 1:
        raise DegreeError(
            f"tree volumes need degree {n - 1} pairs, got degree {pair.degree}"
        )


def _check_tree_pair(tree: PersistenceTree, pair: PersistencePair):
    check_tree_degree(tree.order.cx.dim, pair)
    if pair.essential:
        raise StarPairError("essential pairs have no volume")
    if tree.label(pair.death_simplex) != pair.birth_simplex:
        raise ValueError("pair does not belong to this persistence tree")


def optimal_volume_tree(tree: PersistenceTree, pair: PersistencePair) -> set:
    """Optimal volume of a degree-(n-1) pair: the death cell's subtree."""
    _check_tree_pair(tree, pair)
    return tree.descendants(pair.death_simplex)


@dataclass
class StableVolumeResult:
    pair: PersistencePair
    epsilon: float
    cells: set


def stable_volume_tree(
    tree: PersistenceTree, pair: PersistencePair, epsilon: float
) -> StableVolumeResult:
    """Stable volume: the death cell plus subtrees of children whose edge
    label sits at least epsilon above the birth level."""
    _check_tree_pair(tree, pair)
    if epsilon < 0:
        raise ValueError("noise bandwidth must be >= 0")
    level = tree.order.level_array
    threshold = level[pair.birth_simplex] + epsilon
    cells = {pair.death_simplex}
    for child in tree.children(pair.death_simplex):
        if level[tree.label(child)] >= threshold:
            cells |= tree.descendants(child)
    return StableVolumeResult(pair, float(epsilon), cells)


def sweep_sizes(tree: PersistenceTree, pair: PersistencePair, eps_grid) -> np.ndarray:
    """Stable-volume size per epsilon of a strictly increasing grid, as an
    int64 array, from the sizes of the death cell's child subtrees.

    One walk counts each child's subtree; no volume is re-extracted per
    epsilon. A child counts at epsilon when its label's gap above the birth
    level is at least epsilon: one `searchsorted` (side "left") over the
    sorted gaps indexes suffix sums of the subtree sizes. Sizes are
    non-increasing in epsilon.
    """
    _check_tree_pair(tree, pair)
    grid = np.asarray(eps_grid, dtype=float)
    if (np.diff(grid) <= 0).any():
        raise ValueError("epsilon grid must be strictly increasing")
    level = tree.order.level_array
    kids = tree.children(pair.death_simplex)
    gaps = level[[tree.label(c) for c in kids]] - level[pair.birth_simplex]
    sizes = np.array([len(tree.descendants(c)) for c in kids], dtype=np.int64)
    srt = np.argsort(gaps, kind="stable")
    suffix = np.zeros(len(kids) + 1, dtype=np.int64)
    suffix[:-1] = np.cumsum(sizes[srt][::-1])[::-1]
    return 1 + suffix[np.searchsorted(gaps[srt], grid, side="left")]
