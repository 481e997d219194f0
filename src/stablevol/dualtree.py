"""Dual graph and merge-tree machinery for the codimension-1 persistence of
complexes embedded in R^n: persistence trees, tree optimal volumes, tree
stable volumes, and epsilon sweeps of stable-volume sizes.

The dual graph has the n-cells plus one compactification cell at infinity as
vertices and the (n-1)-simplices as edges. Running the merge-tree algorithm
over simplices in descending filtration order yields a rooted tree whose
edges are exactly the degree-(n-1) persistence pairs and whose subtrees are
the optimal volumes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .complexes import Chain, OrderWithLevel, boundary, chain_z2
from .persistence import PersistencePair, StarPairError

OMEGA_INF = -1


class ConditionError(ValueError):
    """The complex is not a valid codim-1 substrate (simplices without an
    n-coface, or an (n-1)-simplex with more than two cofaces)."""


class DegreeError(ValueError):
    """Tree volumes exist only for degree n-1 pairs."""


@dataclass
class DualGraph:
    n: int
    cells: list  # n-simplex ids
    edges: list  # (tau_id, cell_a, cell_b) with OMEGA_INF for the outside cell


def build_dual_graph(o: OrderWithLevel) -> DualGraph:
    """Dual graph of the complex; checks the embeddability condition."""
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
    return DualGraph(n, list(cx.ids_of_dim(n)), edges)


class PersistenceTree:
    """Rooted tree on n-cells (root = the cell at infinity) with (n-1)-simplex
    edge labels. parent[cell] = (parent cell, labelling simplex id)."""

    def __init__(self, order: OrderWithLevel, parent: dict):
        self.order = order
        self.parent = parent
        self.children = {OMEGA_INF: []}
        for c in parent:
            self.children.setdefault(c, [])
        for c, (p, tau) in parent.items():
            self.children.setdefault(p, []).append(c)
        self._sizes = {}

    def pair_of(self, cell: int) -> PersistencePair:
        """The degree-(n-1) pair of the tree edge above `cell`."""
        o = self.order
        tau = self.parent[cell][1]
        return PersistencePair(
            degree=o.cx.dim - 1,
            birth_simplex=tau,
            death_simplex=cell,
            birth_time=o.level[tau],
            death_time=o.level[cell],
            birth_rank=o.rank[tau],
            death_rank=o.rank[cell],
        )

    def pairs(self) -> list:
        """Degree-(n-1) persistence pairs read off the tree edges."""
        return sorted(map(self.pair_of, self.parent), key=lambda p: p.birth_rank)

    def descendants(self, cell: int) -> set:
        """All descendants of the cell, the cell included."""
        out = set()
        stack = [cell]
        while stack:
            c = stack.pop()
            out.add(c)
            stack.extend(self.children.get(c, ()))
        return out

    def subtree_size(self, cell: int) -> int:
        cached = self._sizes.get(cell)
        if cached is not None:
            return cached
        # iterative post-order; trees from large filtrations can be deep
        stack = [(cell, False)]
        while stack:
            node, expanded = stack.pop()
            if node in self._sizes:
                continue
            if expanded:
                self._sizes[node] = 1 + sum(
                    self._sizes[c] for c in self.children.get(node, ())
                )
            else:
                stack.append((node, True))
                stack.extend((c, False) for c in self.children.get(node, ()))
        return self._sizes[cell]


def compute_tree(g: DualGraph, o: OrderWithLevel) -> PersistenceTree:
    """Merge-tree pass over simplices in descending order.

    Union-find roots carry the set structure; the explicit parent map records
    the tree edges. The cell at infinity is the maximum element, so every
    root comparison treats it as largest.
    """
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
        # order position, infinity maximal
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


def _check_tree_pair(tree: PersistenceTree, pair: PersistencePair):
    n = tree.order.cx.dim
    if pair.degree != n - 1:
        raise DegreeError(
            f"tree volumes need degree {n - 1} pairs, got degree {pair.degree}"
        )
    if pair.essential:
        raise StarPairError("essential pairs have no volume")
    if tree.parent.get(pair.death_simplex, (None, None))[1] != pair.birth_simplex:
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
    boundary: Chain

    @property
    def size(self) -> int:
        return len(self.cells)


def stable_volume_tree(
    tree: PersistenceTree, pair: PersistencePair, epsilon: float
) -> StableVolumeResult:
    """Stable volume: the death cell plus subtrees of children whose edge
    label sits at least epsilon above the birth level."""
    _check_tree_pair(tree, pair)
    if epsilon < 0:
        raise ValueError("noise bandwidth must be >= 0")
    o = tree.order
    threshold = o.level[pair.birth_simplex] + epsilon
    cells = {pair.death_simplex}
    for child in tree.children.get(pair.death_simplex, ()):
        tau = tree.parent[child][1]
        if o.level[tau] >= threshold:
            cells |= tree.descendants(child)
    bnd = boundary(o.cx, chain_z2(cells, o.cx))
    return StableVolumeResult(pair, float(epsilon), cells, bnd)


def sweep_sizes(tree: PersistenceTree, pair: PersistencePair, eps_grid) -> list:
    """Stable-volume size per epsilon, from precomputed subtree sizes.

    Costs O(children + grid) after the subtree-size pass; no volume is
    re-extracted. Sizes are non-increasing in epsilon.
    """
    _check_tree_pair(tree, pair)
    grid = [float(e) for e in eps_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("epsilon grid must be strictly increasing")
    o = tree.order
    b = o.level[pair.birth_simplex]
    gaps = sorted(
        (o.level[tree.parent[c][1]] - b, tree.subtree_size(c))
        for c in tree.children.get(pair.death_simplex, ())
    )
    # suffix sums over children sorted by label gap
    suffix = [0] * (len(gaps) + 1)
    for i in range(len(gaps) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + gaps[i][1]
    out = []
    keys = [g for g, _ in gaps]
    for eps in grid:
        i = bisect.bisect_left(keys, eps)
        out.append((eps, 1 + suffix[i]))
    return out
