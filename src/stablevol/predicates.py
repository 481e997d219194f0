"""Exact-sign geometric predicates via a float filter with rational fallback.

Each predicate evaluates a small determinant in double precision together
with a running magnitude of the summed terms. When the result is safely
larger than the accumulated rounding error the float sign is returned;
otherwise the determinant is recomputed exactly over fractions. Inputs are
floats, so the fraction stage is exact, never heuristic. Its elimination,
`_fraction_det`, is the package's one; `alpha` calls it by that name. Only
the exact stages import `fractions` (which imports `decimal`), so a process
whose float filters decide every sign loads neither.

The float stage of each predicate is written once and runs either on floats
or elementwise on numpy arrays. `orient_batch` and `circumsphere_side_batch`
use it to evaluate many rows at once with the same operations and guards,
and pass only the rows the filter cannot decide to the scalar predicates,
so every batch sign equals the scalar predicate's sign for that row.
`orient_filter` exposes orient's float stage on coordinate arrays of any
shapes that broadcast together.

`jittered_points` gives the deterministic symbolic jitter that the
Delaunay construction runs its predicates on, in one numpy pass.
"""

from __future__ import annotations

import numpy as np

_EPS = 2.0 ** -52
# generous safety factors; too large only costs a rational re-evaluation
_ORIENT_GUARD = 32.0 * _EPS
_SPHERE_GUARD = 512.0 * _EPS
_JITTER = 1e-9  # jitter offset, relative to the bounding-box extent of an axis


def _sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _fraction_det(rows) -> Fraction:
    """Determinant over fractions, by Gaussian elimination."""
    from fractions import Fraction  # only here: fractions imports decimal

    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] / m[col][col]
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def _det_exact(rows) -> Fraction:
    """The predicates' exact stage, under a name of its own so that a count
    of its calls (the benchmark's `predicates.exact_calls`) is theirs alone."""
    return _fraction_det(rows)


def _orient2d_float(pa, pb, pc):
    """(det, magnitude, rows) of orient2d's float stage."""
    acx = pa[0] - pc[0]
    acy = pa[1] - pc[1]
    bcx = pb[0] - pc[0]
    bcy = pb[1] - pc[1]
    det = acx * bcy - acy * bcx
    mag = abs(acx * bcy) + abs(acy * bcx)
    return det, mag, [[acx, acy], [bcx, bcy]]


def _orient3d_float(pa, pb, pc, pd):
    """(det, magnitude, rows) of orient3d's float stage."""
    adx = pb[0] - pa[0]
    ady = pb[1] - pa[1]
    adz = pb[2] - pa[2]
    bdx = pc[0] - pa[0]
    bdy = pc[1] - pa[1]
    bdz = pc[2] - pa[2]
    cdx = pd[0] - pa[0]
    cdy = pd[1] - pa[1]
    cdz = pd[2] - pa[2]
    xy, yx = bdx * cdy, bdy * cdx
    xz, zx = bdx * cdz, bdz * cdx
    yz, zy = bdy * cdz, bdz * cdy
    det = adx * (yz - zy) - ady * (xz - zx) + adz * (xy - yx)
    # the permanent bounds the rounding of the 2x2 minors too, whose terms
    # can cancel; |adx * (yz - zy)| + ... would not
    mag = (
        abs(adx) * (abs(yz) + abs(zy))
        + abs(ady) * (abs(xz) + abs(zx))
        + abs(adz) * (abs(xy) + abs(yx))
    )
    return det, mag, [[adx, ady, adz], [bdx, bdy, bdz], [cdx, cdy, cdz]]


def orient2d(pa, pb, pc) -> int:
    """Sign of det[b-a; c-a]: +1 when (a, b, c) is counterclockwise."""
    det, mag, rows = _orient2d_float(pa, pb, pc)
    if abs(det) > _ORIENT_GUARD * mag:
        return _sign(det)
    return _sign(_det_exact(rows))


def orient3d(pa, pb, pc, pd) -> int:
    """Sign of det[b-a; c-a; d-a]."""
    det, mag, rows = _orient3d_float(pa, pb, pc, pd)
    if abs(det) > _ORIENT_GUARD * mag:
        return _sign(det)
    return _sign(_det_exact(rows))


def orient(points) -> int:
    """Orientation of d+1 points in dimension d (d = 2 or 3)."""
    if len(points) == 3:
        return orient2d(*points)
    if len(points) == 4:
        return orient3d(*points)
    raise ValueError(f"orientation needs 3 or 4 points, got {len(points)}")


def _lifted_rows(points, p):
    rows = []
    for v in points:
        diff = [v[i] - p[i] for i in range(len(p))]
        lift = diff[0] * diff[0]
        for x in diff[1:]:
            lift = lift + x * x  # left to right, for floats and arrays alike
        rows.append(diff + [lift])
    return rows


def _det_float(rows):
    # cofactor expansion along the first row; returns (value, magnitude)
    n = len(rows)
    if n == 1:
        return rows[0][0], abs(rows[0][0])
    if n == 2:
        a = rows[0][0] * rows[1][1]
        b = rows[0][1] * rows[1][0]
        return a - b, abs(a) + abs(b)
    det = 0.0
    mag = 0.0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sub, submag = _det_float(minor)
        term = rows[0][j] * sub
        det += term if j % 2 == 0 else -term
        mag += abs(rows[0][j]) * submag
    return det, mag


def circumsphere_side(points, p) -> int:
    """+1 if p is strictly inside the circumsphere of the d+1 points, -1 if
    strictly outside, 0 if exactly on it. Raises on degenerate simplices."""
    d = len(p)
    o = orient(points)
    if o == 0:
        raise ValueError("degenerate simplex in circumsphere test")
    rows = _lifted_rows(points, p)
    det, mag = _det_float(rows)
    if abs(det) > _SPHERE_GUARD * mag:
        s = _sign(det)
    else:
        s = _sign(_det_exact(rows))
    # p inside  <=>  (-1)^(d+1) * det * orient < 0
    parity = -1 if (d + 1) % 2 else 1
    return -_sign(parity * s * o)


# ---------------------------------------------------------------------------
# batched evaluation


def _columns(P, idx):
    """Per row position j, the coordinate arrays of the points P[idx[:, j]]."""
    return [[P[idx[:, j], a] for a in range(P.shape[1])] for j in range(idx.shape[1])]


def _undecided(det, mag, guard) -> np.ndarray:
    """Rows whose float determinant does not clear the guard.

    A NaN or infinite determinant never clears it, so such rows go to the
    scalar predicate too.
    """
    return ~(np.abs(det) > guard * mag)


def orient_filter(columns) -> np.ndarray:
    """Signs of orient's float stage, 0 where the filter cannot decide.

    `columns[j][a]` is an array of coordinate a of the j-th of the d+1
    points; the arrays may have any shapes that broadcast together, and the
    result has the broadcast shape. Each entry is the float stage of orient()
    on its points, with the same operations and guard, so a nonzero entry is
    orient()'s sign.
    """
    stage = _orient2d_float if len(columns) == 3 else _orient3d_float
    det, mag, _ = stage(*columns)
    return np.where(_undecided(det, mag, _ORIENT_GUARD), 0, np.sign(det)).astype(np.int64)


def orient_batch(P, idx) -> np.ndarray:
    """orient() of the points P[idx[r]] for every row r of an index array.

    P is an (n, d) float array with d = 2 or 3, idx an (m, d+1) int array.
    """
    P = np.asarray(P, dtype=float)
    idx = np.asarray(idx, dtype=np.intp)
    out = orient_filter(_columns(P, idx))
    for r in np.flatnonzero(out == 0):
        out[r] = orient(P[idx[r]].tolist())
    return out


def circumsphere_side_batch(P, idx, q) -> np.ndarray:
    """circumsphere_side(P[idx[r]], P[q[r]]) for every row r.

    Raises ValueError, as the scalar predicate does, if a row's simplex is
    degenerate.
    """
    P = np.asarray(P, dtype=float)
    idx = np.asarray(idx, dtype=np.intp)
    q = np.asarray(q, dtype=np.intp)
    d = P.shape[1]
    o = orient_batch(P, idx)
    det, mag = _det_float(_lifted_rows(_columns(P, idx), [P[q, a] for a in range(d)]))
    parity = -1 if (d + 1) % 2 else 1
    out = -np.sign(parity * np.sign(det) * o).astype(np.int64)
    for r in np.flatnonzero(_undecided(det, mag, _SPHERE_GUARD) | (o == 0)):
        out[r] = circumsphere_side(P[idx[r]].tolist(), P[q[r]].tolist())
    return out


# ---------------------------------------------------------------------------
# symbolic jitter


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Splitmix64 of each entry of a uint64 array, wrapping modulo 2**64."""
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def jittered_points(P) -> np.ndarray:
    """Deterministic symbolic jitter derived from the point index.

    P is an (n, d) float array with n >= 1. Coordinate a of point i is offset
    by u * _JITTER * extent[a], where u in [-1, 1) is splitmix64 of the key
    i*7 + a + 1 scaled by 2**-63, less 1, and extent[a] is the bounding-box
    extent of axis a (1.0 on an axis where every coordinate is equal). Used
    only inside predicate evaluation; level computations keep the original
    coordinates. An extent that overflows gives non-finite coordinates,
    without a warning; the caller checks for them.
    """
    P = np.asarray(P, dtype=float)
    n, dim = P.shape
    keys = np.arange(n, dtype=np.uint64)[:, None] * np.uint64(7) + np.arange(
        1, dim + 1, dtype=np.uint64
    )
    u = _splitmix64(keys).astype(float) / float(1 << 63) - 1.0
    lo, hi = P.min(axis=0), P.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        extent = np.where(hi > lo, hi - lo, 1.0)
        return P + u * _JITTER * extent
