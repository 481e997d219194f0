"""Delaunay triangulation of 2D and 3D pointclouds with exact combinatorics.

All predicate decisions run on deterministically jittered coordinates with
exact signs, so the combinatorics are those of a genuinely general-position
pointcloud, whose Delaunay triangulation is unique.

The triangulation comes from Qhull (`scipy.spatial.Delaunay`) run on the
jittered coordinates scaled by 2**-k, with 2**k the smallest power of two
above their largest magnitude (`_rescaled`; unscaled if the scaling would
round a coordinate). An exact power-of-two scaling changes no Delaunay
cell and no predicate sign, and it keeps Qhull's own arithmetic in range
at any input scale. Qhull's cells become a `SimplicialComplex`, built
once, and are accepted only if its arrays pass a certificate evaluated
with the exact-sign predicates:

- every point is a vertex, and Qhull set no point aside as coplanar;
- every cell has nonzero orientation (negative cells are re-oriented);
- no facet lies in more than two cells (`coface_csr` counts); the two
  cells of an interior facet lie on opposite sides of it, and the vertex
  of one opposite the facet (its removal position read from `face_array`)
  is strictly outside the circumsphere of the other;
- every point other than a hull facet's own vertices lies strictly on the
  inner side of that facet: the hull is convex, so in particular locally
  convex.

The first three make the cells cover a neighbourhood of each interior facet
exactly once, and the last makes the hull facets facets of the convex hull,
so the cells triangulate the convex hull. Being locally Delaunay with strict
signs everywhere, that triangulation is the unique Delaunay triangulation of
the jittered points, hence the one the incremental construction below
builds. The checks run as numpy float filters (`predicates.orient_batch`,
`predicates.circumsphere_side_batch`, and `predicates.orient_filter` on
hull facets broadcast against all points), and only the rows the filter
cannot decide reach the scalar predicates.

`delaunay` works on arrays up to the triangulation: one conversion and one
finiteness check of the input, the jitter in one numpy pass. Python tuples
of the points are built only for the Bowyer-Watson fallback, or to word a
rejected input row.

If Qhull fails or any check fails, `_bowyer_watson` builds the
triangulation: an incremental Bowyer-Watson construction with ghost cells
through a single vertex at infinity, so hull growth needs no special
casing (a ghost cell conflicts with a point exactly when the point lies
strictly outside its hull facet). A predicate that evaluates to zero there
raises DegenerateInputError.
"""

from __future__ import annotations

import math

import numpy as np

from .complexes import SimplicialComplex
from .predicates import (
    circumsphere_side,
    circumsphere_side_batch,
    jittered_points,
    orient,
    orient_batch,
    orient_filter,
)

INFINITE = -1


class DegenerateInputError(ValueError):
    pass


class _Triangulation:
    def __init__(self, pts, dim):
        self.pts = pts  # jittered coordinates
        self.dim = dim
        self.verts = {}  # cell id -> tuple of d+1 vertex ids (INFINITE allowed)
        self.nbrs = {}  # cell id -> list of d+1 cell ids, nbrs[k] opposite verts[k]
        self.next_id = 0
        self.hint = None

    def _new_cell(self, verts):
        cid = self.next_id
        self.next_id += 1
        self.verts[cid] = tuple(verts)
        self.nbrs[cid] = [None] * (self.dim + 1)
        return cid

    def _coords(self, vid):
        return self.pts[vid]

    def _orient_ids(self, vids):
        return orient([self._coords(v) for v in vids])

    def _conflict(self, cell, p):
        verts = self.verts[cell]
        if INFINITE in verts:
            k = verts.index(INFINITE)
            facet = verts[:k] + verts[k + 1 :]
            inner = self.nbrs[cell][k]  # finite cell across the hull facet
            w = next(v for v in self.verts[inner] if v not in facet)
            s_p = self._orient_ids(facet + (p,))
            s_w = self._orient_ids(facet + (w,))
            if s_p == 0 or s_w == 0:
                raise DegenerateInputError(
                    f"point {p} is coplanar with hull facet {facet} after jitter"
                )
            return s_p != s_w
        side = circumsphere_side([self._coords(v) for v in verts], self._coords(p))
        if side == 0:
            raise DegenerateInputError(
                f"point {p} is cospherical with cell {verts} after jitter"
            )
        return side > 0

    def _locate(self, p):
        cell = self.hint
        if cell is None or cell not in self.verts:
            cell = next(iter(self.verts))
        if INFINITE in self.verts[cell]:
            cell = self.nbrs[cell][self.verts[cell].index(INFINITE)]
        limit = 4 * len(self.verts) + 64
        for _ in range(limit):
            verts = self.verts[cell]
            moved = False
            for k, v in enumerate(verts):
                facet = verts[:k] + verts[k + 1 :]
                s_p = self._orient_ids(facet + (p,))
                if s_p == 0:
                    raise DegenerateInputError(
                        f"point {p} degenerate against facet {facet} after jitter"
                    )
                if s_p != self._orient_ids(facet + (v,)):
                    nb = self.nbrs[cell][k]
                    if INFINITE in self.verts[nb]:
                        return nb  # p is outside the hull through this facet
                    cell = nb
                    moved = True
                    break
            if not moved:
                return cell
        # visibility walks terminate on Delaunay triangulations; this fallback
        # is pure defensive programming
        for cid in sorted(self.verts):
            if self._conflict(cid, p):
                return cid
        raise DegenerateInputError(f"no conflict cell found for point {p}")

    def insert(self, p):
        start = self._locate(p)
        status = {start: True}
        region = [start]
        stack = [start]
        boundary = []
        while stack:
            c = stack.pop()
            for k, nb in enumerate(self.nbrs[c]):
                hit = status.get(nb)
                if hit is None:
                    hit = self._conflict(nb, p)
                    status[nb] = hit
                    if hit:
                        region.append(nb)
                        stack.append(nb)
                if not hit:
                    boundary.append((c, k))
        ridge_map = {}
        created = []
        d = self.dim
        for c, k in boundary:
            verts = self.verts[c]
            facet = verts[:k] + verts[k + 1 :]
            outside = self.nbrs[c][k]
            nid = self._new_cell(facet + (p,))
            self.nbrs[nid][d] = outside
            self.nbrs[outside][self.nbrs[outside].index(c)] = nid
            for j, u in enumerate(facet):
                key = frozenset(facet) - {u}
                other = ridge_map.pop(key, None)
                if other is None:
                    ridge_map[key] = (nid, j)
                else:
                    oid, oj = other
                    self.nbrs[nid][j] = oid
                    self.nbrs[oid][oj] = nid
            created.append(nid)
        if ridge_map:
            raise DegenerateInputError("cavity boundary is not closed")
        for c in region:
            del self.verts[c]
            del self.nbrs[c]
        self.hint = created[-1]


def _initial_cells(tri: _Triangulation, seed_ids):
    d = tri.dim
    if tri._orient_ids(tuple(seed_ids)) == 0:
        raise DegenerateInputError(
            f"first {d + 1} insertion points are affinely dependent after jitter"
        )
    c0 = tri._new_cell(tuple(seed_ids))
    ghosts = []
    for k in range(d + 1):
        facet = tuple(seed_ids[:k] + seed_ids[k + 1 :])
        g = tri._new_cell(facet + (INFINITE,))
        tri.nbrs[g][d] = c0
        tri.nbrs[c0][k] = g
        ghosts.append((g, facet))
    # ghost-ghost adjacency along hull ridges
    for g, facet in ghosts:
        for j, u in enumerate(facet):
            ridge = frozenset(facet) - {u} | {INFINITE}
            for g2, facet2 in ghosts:
                if g2 != g and ridge <= set(facet2) | {INFINITE}:
                    tri.nbrs[g][j] = g2
                    break


def _bowyer_watson(pts, jit, dim) -> SimplicialComplex:
    """Incremental Bowyer-Watson triangulation of the jittered points `jit`.

    Insertion follows the coordinate-sorted order of the raw points `pts`
    for determinism and walk locality.
    """
    tri = _Triangulation(jit, dim)
    insertion = sorted(range(len(pts)), key=lambda i: pts[i])
    _initial_cells(tri, list(insertion[: dim + 1]))
    for p in insertion[dim + 1 :]:
        tri.insert(p)
    top = [
        tuple(sorted(v)) for v in tri.verts.values() if INFINITE not in v
    ]
    return SimplicialComplex(top)


# rows of one batched hull check; bounds the temporaries to a few MiB
_HULL_CHUNK_ROWS = 1 << 16


def Delaunay(P):
    """`scipy.spatial.Delaunay`, imported on the first triangulation, so that
    the subcommands that build none never load scipy.spatial."""
    from scipy.spatial import Delaunay

    return Delaunay(P)


def _certified_qhull(P):
    """The Delaunay complex of the jittered points P, an (n, d) array, built
    from Qhull's cells if they pass the certificate in the module
    docstring, else None."""
    from scipy.spatial import QhullError

    n, dim = P.shape
    try:
        tri = Delaunay(P)
    except QhullError:
        return None
    if len(tri.coplanar):
        return None
    cx = SimplicialComplex(tri.simplices)
    top = cx.vertex_array(dim)
    if len(top) != len(tri.simplices) or cx.vertex_count != n:
        return None
    del tri  # release Qhull's arrays before the checks allocate theirs

    cells = _oriented(P, top)
    if cells is None:
        return None
    ptr, idx = cx.coface_csr(dim - 1)
    count = ptr[1:] - ptr[:-1]
    if np.any(count > 2):
        return None  # a facet in three or more cells
    faces = cx.face_array(dim) - cx.ids_of_dim(dim - 1).start  # (m, d+1) facet ids

    # the two cells of an interior facet lie on opposite sides of it, and the
    # far vertex of the second is strictly outside the circumsphere of the first
    shared = np.flatnonzero(count == 2)
    start = cx.ids_of_dim(dim).start
    first, second = idx[ptr[shared]] - start, idx[ptr[shared] + 1] - start
    near = top[first, np.argmax(faces[first] == shared[:, None], axis=1)]
    far = top[second, np.argmax(faces[second] == shared[:, None], axis=1)]
    flipped = np.where(cells[first] == near[:, None], far[:, None], cells[first])
    if np.any(orient_batch(P, flipped) >= 0):
        return None
    if np.any(circumsphere_side_batch(P, cells[first], far) >= 0):
        return None

    # convex hull: every other point is on the inner side of each hull facet
    hull_cell, k = np.nonzero(count[faces] == 1)
    hull_k = np.argmax(cells[hull_cell] == top[hull_cell, k][:, None], axis=1)
    if not _hull_is_convex(P, cells, hull_cell, hull_k):
        return None
    return cx


def _oriented(P, rows):
    """The (m, d+1) cells `rows` with each negatively oriented one's vertices
    a and b swapped, so that every cell is positive, or None if a cell has
    zero orientation."""
    o = orient_batch(P, rows)
    if np.any(o == 0):
        return None
    # swapping these two arguments negates orient2d / orient3d exactly, in
    # the float and in the exact stage, so the swapped cells are positive
    a, b = (0, 1) if rows.shape[1] == 3 else (2, 3)
    cells = rows.copy()
    neg = o < 0
    cells[neg, a], cells[neg, b] = rows[neg, b], rows[neg, a]
    return cells


def _hull_is_convex(P, cells, hull_cell, hull_k):
    """Whether every point other than a hull facet's own vertices lies
    strictly on the inner side of it.

    Hull facet r is cell hull_cell[r] without its vertex hull_k[r]; the cells
    are positively oriented, so a point p is strictly inside exactly when
    the cell with p in place of that vertex is. For each position j, the
    facets' other vertex columns, shape (h, 1), broadcast against the point
    columns, shape (1, n), through `orient_filter`; only the rows it leaves
    undecided reach the scalar `orient`.
    """
    n, dim = P.shape
    step = max(1, _HULL_CHUNK_ROWS // n)
    points = [P[None, :, a] for a in range(dim)]
    for j in range(dim + 1):
        facets = cells[hull_cell[hull_k == j]]
        for lo in range(0, len(facets), step):
            c = facets[lo : lo + step]
            columns = [
                points if i == j else [P[c[:, i], a][:, None] for a in range(dim)]
                for i in range(dim + 1)
            ]
            s = orient_filter(columns)
            s[np.arange(len(c))[:, None], c] = 1  # a facet's own vertices
            if np.any(s < 0):
                return False
            for r, p in zip(*np.nonzero(s == 0)):
                row = c[r].copy()
                row[j] = p
                if orient(P[row].tolist()) <= 0:
                    return False
    return True


def delaunay(points) -> SimplicialComplex:
    """Delaunay complex of a 2D/3D pointcloud as a SimplicialComplex.

    Vertex ids are input point indices. `points` is an (n, d) array or a
    sequence of rows; the dimension is the width of the first row. Raises
    ValueError for a dimension other than 2 or 3, a row of another width or
    with a non-finite coordinate ("bad coordinates"), or a squared
    bounding-box extent that overflows; DegenerateInputError for no points,
    fewer than dim + 1 points, or a degeneracy the jitter does not resolve.
    """
    try:
        P = np.asarray(points, dtype=float)
    except (TypeError, ValueError, OverflowError):
        P = None  # ragged rows, or an entry float() rejects
    if P is None or P.ndim != 2 or len(P) == 0 or not np.isfinite(P).all():
        # the checks below word the error; float() raises on what it rejects
        P = [tuple(map(float, p)) for p in points]
    if not len(P):
        raise DegenerateInputError("no points to triangulate")
    dim = len(P[0])
    if dim not in (2, 3):
        raise ValueError(f"only 2D and 3D pointclouds are supported, got dim {dim}")
    if len(P) < dim + 1:
        raise DegenerateInputError(
            f"need at least {dim + 1} points for a {dim}D triangulation"
        )
    if isinstance(P, list):
        for p in P:
            if len(p) != dim or not all(map(math.isfinite, p)):
                raise ValueError(f"bad coordinates {p}")
        P = np.array(P, dtype=float)
    jit = jittered_points(P)
    with np.errstate(over="ignore", invalid="ignore"):
        sq_extent = ((jit.max(axis=0) - jit.min(axis=0)) ** 2).sum()
    if not np.isfinite(sq_extent):
        raise ValueError(
            "coordinate range too large: the squared bounding-box extent overflows"
        )
    cx = _certified_qhull(_rescaled(jit)[0])
    if cx is None:
        return _bowyer_watson(
            list(map(tuple, P.tolist())), list(map(tuple, jit.tolist())), dim
        )
    return cx


def _rescaled(P):
    """(P * 2**-k, k), with 2**k the smallest power of two above max |P|, if
    that scaling is exact (scaling back gives P), else (P, 0).

    Delaunay cells and the sign of every orient and insphere determinant
    are invariant under an exact scaling, so Qhull and the certificate see
    coordinates of magnitude below 1 at any input scale. The alpha levels
    are computed on the scaled points too, and scaled back by 2**k.
    """
    _, k = math.frexp(float(np.abs(P).max()))
    scaled = np.ldexp(P, -k)
    return (scaled, k) if np.array_equal(np.ldexp(scaled, k), P) else (P, 0)
