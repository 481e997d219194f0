"""Alpha filtrations of 2D/3D pointclouds.

A pointcloud is an (n, d) float array, d = 2 or 3; `parse_pointcloud`
reads one from text and `format_pointcloud` writes it back. An alpha
filtration is its `OrderWithLevel`: `alpha_filtration(points).cx` is the
Delaunay complex.

Levels are circumradii (not squared radii): a simplex that is Gabriel (its
smallest circumsphere contains no other point strictly inside) enters at its
own circumradius, anything else inherits the smallest level among its
cofaces. Vertices enter at 0. The complex is the Delaunay complex of
`delaunay.delaunay` (a certified Qhull triangulation, or the Bowyer-Watson
fallback).

The Gabriel test classes each other point as inside, outside or borderline
with a float filter of relative band width `_GABRIEL_BAND`, and decides
borderline points in exact rational arithmetic, so cocircular
configurations such as unit squares get exact levels. That exact stage
shares the one Fraction elimination of `predicates`.

The levels are computed on the points scaled by an exact power of two to
magnitude below 1 (`delaunay._rescaled`), and scaled back. That commutes
with every float operation here while nothing under- or overflows: levels
at ordinary scales are the unscaled floats, and at extreme scales no
square under- or overflows.

`alpha_levels` works one dimension at a time, top down, on arrays: one
batched solve gives the circumspheres (`_circum_batch`), and
`_gabriel_mask` decides the simplices in two array stages, each of which
decides a simplex only as a scan of all points would:

1. the coface witnesses: the vertex opposite the simplex in each of its
   cofaces, read off the complex's face and vertex arrays. In a Delaunay
   complex almost every simplex that is not Gabriel has one inside the
   float band.
2. one pass over a grid of the points (`_grid`), built once per call:
   each axis is sorted once and cut into about n**(1/d) bins of equal
   count, so an outlier or a dense cluster does not stretch or crowd the
   cells. Only the count per bin of each axis is equal: where the
   coordinates are correlated (a cloud near a line, a plane or a surface)
   the points fill fewer cells and a cell holds more of them: up to about
   n**(1/2) on a line in 2D, and up to about n**(1/3) on a surface in 3D.
   `_grid_pairs` lists, for each remaining simplex, the points of the
   cells that the box around its circumcenter of half-width
   `_candidate_radius` meets, as (simplex, point) pairs, a chunk of
   `_CHUNK` simplices at a time. Within that radius, slightly more than
   the circumradius, lies every point the float band can class as inside
   or borderline. The pairs go through the float band together, and
   each simplex's own vertices are left out of what it flags: a point
   inside makes the simplex not Gabriel; borderline points and none
   inside (on clouds in general position there is no such simplex; on
   grids, the diagonals of squares) send it to `_is_gabriel` with its
   candidates, which decides them in exact arithmetic; any other simplex
   is Gabriel.

No SciPy module is loaded for the levels.

Minima over cofaces are per-dimension reductions over the complex's CSR
coface arrays. The tests compare `alpha_levels` with a per-simplex loop
that hands `_is_gabriel` every point as a candidate.
"""

from __future__ import annotations

import math

import numpy as np

from .complexes import OrderWithLevel, SimplicialComplex, build_order
from .delaunay import DegenerateInputError, _rescaled, delaunay
from .predicates import _fraction_det

_GABRIEL_BAND = 1e-9  # relative width of the float filter around the sphere
# radius factor of the candidate search; far above the band and the float
# error of the distances, so no point the band can flag is missed
_CANDIDATE_SLACK = 1e-6
_CHUNK = 2048  # simplices per pass over the grid, which bounds the pair arrays


def parse_pointcloud(text: str) -> np.ndarray:
    """Whitespace- or comma-separated coordinates, one point per line, as an
    (n, d) float array.

    Dimension is inferred from the column count (2 or 3). Blank lines and
    lines starting with '#' are skipped. A non-finite coordinate is an error,
    and so is an empty CSV field: a doubled, leading or trailing comma, with
    or without whitespace around it.
    """
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "," in line and not all(map(str.strip, line.split(","))):
            raise ValueError(f"empty field in pointcloud row {line!r}")
        parts = line.replace(",", " ").split()
        rows.append([float(x) for x in parts])
    if not rows:
        raise ValueError("empty pointcloud")
    width = {len(r) for r in rows}
    if len(width) != 1 or width.pop() not in (2, 3):
        raise ValueError("pointcloud rows must all have 2 or 3 columns")
    points = np.array(rows, dtype=float)
    if not np.isfinite(points).all():
        raise ValueError("non-finite coordinates in pointcloud")
    return points


def format_pointcloud(points: np.ndarray) -> str:
    """The text `parse_pointcloud` reads back to the same (n, d) array."""
    return "\n".join(" ".join(repr(float(x)) for x in row) for row in points) + "\n"


def _circum_batch(pts: np.ndarray, vert_lists: np.ndarray, exp: int = 0):
    """Circumcenters and squared circumradii of same-dimension simplices of
    the points `pts`, which are the input points scaled by 2**-exp, by one
    batched solve of their Gram systems.

    Exactly degenerate simplices (affinely dependent vertices, possible in a
    jitter-resolved triangulation of degenerate inputs) are the rows whose
    Gram matrix LAPACK's LU finds singular. Only they get a sentinel radius
    far beyond the data scale of `pts`: they can never be Gabriel, so they
    inherit their coface levels downstream, which is the correct limit
    behaviour. In the input's units it is 1e12 * (spread + 1), with spread
    the squared bounding-box diagonal. The other rows are solved again
    without them, so no row's floats depend on its batch.
    """
    V = pts[vert_lists]  # (m, k+1, d)
    A = V[:, 1:, :] - V[:, :1, :]  # (m, k, d)
    G = 2.0 * np.einsum("mkd,mld->mkl", A, A)
    g = np.einsum("mkd,mkd->mk", A, A)
    try:
        lam = np.linalg.solve(G, g[..., None])[..., 0]
        flat = None
    except np.linalg.LinAlgError:
        # slogdet factors each matrix by the same LU (getrf) as solve
        flat = np.linalg.slogdet(G)[0] == 0
        lam = np.zeros_like(g)
        lam[~flat] = np.linalg.solve(G[~flat], g[~flat, :, None])[..., 0]
    cvec = np.einsum("mk,mkd->md", lam, A)
    centers = V[:, 0, :] + cvec
    r2 = np.einsum("md,md->m", cvec, cvec)
    if flat is not None:
        spread = float(((pts.max(axis=0) - pts.min(axis=0)) ** 2).sum())
        # 1 in the input's squared units is 2**-2exp here; capped to stay finite
        r2[flat] = 1e12 * (spread + math.ldexp(1.0, min(-2 * exp, 930)))
        centers[flat] = V[flat].mean(axis=1)
    return centers, r2


def _circum_exact(verts_pts):
    """Exact circumcenter and squared circumradius over fractions: the
    center is v0 + sum(lam_i a_i), a_i = v_i - v0, where lam solves the
    Gram system 2 A A^T lam = (|a_i|^2), made integral by scaling A by a
    common denominator, by Cramer's rule over `_fraction_det`."""
    from fractions import Fraction  # only in the exact stages, as in predicates

    v0 = [Fraction(x) for x in verts_pts[0]]
    A = [[Fraction(x) - b for x, b in zip(v, v0)] for v in verts_pts[1:]]
    scale = math.lcm(*(x.denominator for a in A for x in a))
    N = [[int(x * scale) for x in a] for a in A]
    G = [[2 * sum(x * y for x, y in zip(a, b)) for b in N] for a in N]
    g = [sum(x * x for x in a) for a in N]
    det = _fraction_det(G)
    if det == 0:
        raise DegenerateInputError("exactly degenerate simplex")
    lam = [_fraction_det([r[:i] + [gi] + r[i + 1 :] for r, gi in zip(G, g)]) / det
           for i in range(len(A))]
    cvec = [sum(l * a[t] for l, a in zip(lam, A)) for t in range(len(v0))]
    return [b + c for b, c in zip(v0, cvec)], sum(c * c for c in cvec)


def alpha_levels(cx: SimplicialComplex, points) -> np.ndarray:
    """Alpha level per simplex id for a Delaunay complex of the points, as a
    float array.

    A simplex of lower than top dimension with no coface (possible only in
    a complex that is not pure) enters at its own circumradius. A level
    that overflows once scaled back to the input's units raises ValueError.
    """
    pts, exp = _rescaled(np.asarray(points, dtype=float))
    n = cx.dim
    levels = np.zeros(len(cx))
    grid = _grid(pts)
    for k in range(n, 0, -1):
        ids = cx.ids_of_dim(k)
        if not ids:
            continue
        verts = cx.vertex_array(k)
        cs, r2 = _circum_batch(pts, verts, exp)
        own = np.sqrt(np.maximum(r2, 0.0))
        if k == n:
            levels[ids.start : ids.stop] = own
            continue
        gabriel = _gabriel_mask(cx, pts, grid, k, cs, r2)
        # the cofaces' levels are final, so capping a Gabriel level at them
        # (float noise can put it above) keeps level(face) <= level(coface)
        cap, has = _coface_min(cx, k, levels)
        levels[ids.start : ids.stop] = np.where(gabriel | ~has, np.minimum(own, cap), cap)
    with np.errstate(over="ignore"):
        levels = np.ldexp(levels, exp)
    if not np.isfinite(levels).all():
        raise ValueError("coordinate range too large: an alpha level overflows")
    return levels


def _gabriel_mask(cx, pts, grid, k, cs, r2):
    """Gabriel flag of each k-simplex, 0 < k < cx.dim, from the
    circumcenters and squared radii of the k-simplices, by the stages of
    the module docstring."""
    ids, verts = cx.ids_of_dim(k), cx.vertex_array(k)
    sim = cx.face_array(k + 1).ravel() - ids.start
    inside, _ = _band(pts[cx.vertex_array(k + 1).ravel()], cs[sim], r2[sim])
    gabriel = np.ones(len(verts), dtype=bool)
    gabriel[sim[inside]] = False
    rest = np.flatnonzero(gabriel)
    radius = _candidate_radius(r2)
    for lo in range(0, len(rest), _CHUNK):
        js = rest[lo : lo + _CHUNK]
        q, p = _grid_pairs(grid, cs[js], radius[js])
        sq = js[q]
        inside, border = _band(pts[p], cs[sq], r2[sq])
        # a simplex's own vertices are flagged too (borderline, or inside a
        # degenerate simplex's sentinel ball): drop them among the flagged
        flagged = np.flatnonzero(inside | border)
        flagged = flagged[(verts[sq[flagged]] != p[flagged, None]).all(axis=1)]
        gabriel[sq[flagged[inside[flagged]]]] = False
        undecided = np.zeros(len(js), dtype=bool)
        undecided[q[flagged]] = True
        undecided &= gabriel[js]
        # the pairs come in query order, so each simplex's candidates are one run
        pick = undecided[q]
        runs = np.split(p[pick], np.flatnonzero(np.diff(q[pick])) + 1)
        for j, cands in zip(js[undecided].tolist(), runs):
            gabriel[j] = _is_gabriel(cx, pts, ids.start + j, cs[j], r2[j], cands)
    return gabriel


def _grid(pts):
    """Rank-space grid of the (n, d) points: each axis sorted once and cut
    into about n**(1/d) bins of equal count, none of them empty. Returns
    the smallest and the largest coordinate of each bin (two (d, bins)
    arrays, each row sorted), the point ids sorted by cell (axis 0 varying
    fastest) and the start of each cell in that order."""
    n, d = pts.shape
    bins = max(1, round(n ** (1.0 / d)))
    order = np.argsort(pts.T, axis=1)
    rank = np.empty((n, d), dtype=np.intp)
    rank[order.T, np.arange(d)] = np.arange(n)[:, None]
    cell = (rank * bins // n) @ bins ** np.arange(d)
    start = np.zeros(bins**d + 1, dtype=np.intp)
    np.cumsum(np.bincount(cell, minlength=bins**d), out=start[1:])
    coords = np.take_along_axis(pts.T, order, axis=1)
    bounds = -(-np.arange(bins + 1) * n // bins)  # the first rank of each bin, then n
    return coords[:, bounds[:-1]], coords[:, bounds[1:] - 1], np.argsort(cell, kind="stable"), start


def _grid_pairs(grid, centers, radii):
    """(query, point) pairs, sorted by query, that include every point p
    with |p - centers[i]| <= radii[i] in each coordinate: the points of
    the cells that the box [c - r, c + r] meets.

    On each axis the box meets the bins from the first whose largest
    coordinate is at least c - r to the last whose smallest is at most
    c + r, so a run of equal coordinates split across bins is covered.
    The box ends are rounded, but rounding is monotone and coordinates are
    floats, so no point of the exact box is lost. Each query's cells are
    rows of consecutive cells along axis 0, and each row is one run of the
    cell-sorted points.
    """
    low, high, members, start = grid
    d, bins = low.shape
    first = np.stack([np.searchsorted(high[a], centers[:, a] - radii, "left")
                      for a in range(d)], axis=1)
    last = np.stack([np.searchsorted(low[a], centers[:, a] + radii, "right")
                     for a in range(d)], axis=1) - 1
    span = np.maximum(last - first + 1, 0)
    rows = span[:, 1:].prod(axis=1) * (span[:, 0] > 0)
    q = np.repeat(np.arange(len(centers)), rows)
    t = np.arange(len(q)) - np.repeat(np.cumsum(rows) - rows, rows)
    cell = first[q, 0]
    for a in range(1, d):
        cell += (first[q, a] + t % span[q, a]) * bins**a
        t //= span[q, a]
    begin = start[cell]
    length = start[cell + span[q, 0]] - begin
    pos = np.arange(length.sum()) + np.repeat(begin - (np.cumsum(length) - length), length)
    return np.repeat(q, length), members[pos]


def _band(p, c, r2):
    """The float band of the Gabriel test: whether each point p lies
    inside the sphere of center c and squared radius r2 (rows broadcast
    against each other), and whether it is borderline."""
    d2 = ((p - c) ** 2).sum(axis=1)
    band = _GABRIEL_BAND * (d2 + r2 + 1e-300)
    return d2 < r2 - band, np.abs(d2 - r2) <= band


def _coface_min(cx, k, levels):
    """Smallest level among the cofaces of each k-simplex (inf where there
    is none), and which k-simplices have a coface."""
    ptr, idx = cx.coface_csr(k)
    has = ptr[1:] > ptr[:-1]
    out = np.full(len(has), np.inf)
    if has.any():
        # reduce within this dimension's slice only: the last segment of
        # reduceat runs to the end of the array it is given
        out[has] = np.minimum.reduceat(levels[idx], ptr[:-1][has])
    return out, has


def _candidate_radius(r2):
    """Search radius that covers every point the float band can flag.

    `_band` flags a point only if its squared distance from the center
    exceeds r2 by at most the band, that is, only within
    (1 + 1.1e-9) * sqrt(r2 + 1e-300) of the center.
    """
    return np.sqrt(np.maximum(r2, 0.0) + 1e-300) * (1.0 + _CANDIDATE_SLACK)


def _is_gabriel(cx, pts, sid, center, r2, candidates) -> bool:
    """True iff no other input point lies strictly inside the circumball.

    `candidates` are the indices of the points to test; they must include
    every point within `_candidate_radius(r2)` of the center.
    """
    verts = cx.vertices(sid)
    idx = np.asarray(candidates, dtype=np.intp)
    for v in verts:
        idx = idx[idx != v]
    inside, border = _band(pts[idx], center, r2)
    if inside.any():
        return False
    if not border.any():
        return True
    from fractions import Fraction

    ec, er2 = _circum_exact([pts[v] for v in verts])
    for i in idx[border]:
        dd = sum((Fraction(x) - c) ** 2 for x, c in zip(pts[i], ec))
        if dd < er2:
            return False
    return True


def alpha_filtration(points) -> OrderWithLevel:
    """The alpha filtration of an (n, d) pointcloud: its Delaunay complex,
    alpha levels and total order."""
    cx = delaunay(points)
    return build_order(cx, alpha_levels(cx, points))
