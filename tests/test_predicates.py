import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import jittered_points_oracle
from stablevol.predicates import (
    circumsphere_side,
    jittered_points,
    orient2d,
    orient3d,
    orient_batch,
)

# cofactor signs along the first row of a 2x2 and a 3x3 determinant
SIGNS = {2: (1, -1), 3: (1, -1, 1)}


def fraction_det(rows, signs=None):
    """Determinant of a 2x2 or 3x3 float matrix over Fractions, by cofactor
    expansion along the first row with the cofactor signs `signs` (the
    right ones by default): an oracle that shares no arithmetic with the
    predicates' Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    signs = SIGNS[len(m)] if signs is None else signs
    if len(m) == 2:
        return signs[0] * m[0][0] * m[1][1] + signs[1] * m[0][1] * m[1][0]
    (a, b, c), (d, e, f), (g, h, i) = m
    return (signs[0] * a * (e * i - f * h) + signs[1] * b * (d * i - f * g)
            + signs[2] * c * (d * h - e * g))


def sign(x):
    return (x > 0) - (x < 0)


# the float differences that orient2d and orient3d hand their exact stage
def exact_orient2d(a, b, c, signs=None):
    return sign(fraction_det([[a[0] - c[0], a[1] - c[1]], [b[0] - c[0], b[1] - c[1]]], signs))


def exact_orient3d(a, b, c, d, signs=None):
    return sign(fraction_det([[p[i] - a[i] for i in range(3)] for p in (b, c, d)], signs))


def adversarial_grid():
    """Near-collinear triples around a double-precision boundary."""
    base = [(12.0, 12.0), (24.0, 24.0)]
    return [((0.5 + i * 2.0 ** -53, 0.5 + j * 2.0 ** -53), *base)
            for i in range(-8, 9) for j in range(-8, 9)]


def random_quadruples():
    random.seed(2)
    return [[tuple(random.choice([0.0, 0.25, 0.5, 1.0]) for _ in range(3)) for _ in range(4)]
            for _ in range(300)]


def test_orient2d_matches_exact_on_adversarial_grid():
    for pts in adversarial_grid():
        assert orient2d(*pts) == exact_orient2d(*pts)


def test_orient3d_matches_exact_random():
    for pts in random_quadruples():
        assert orient3d(*pts) == exact_orient3d(*pts)


@pytest.mark.parametrize("flip", range(5))
def test_an_oracle_with_one_sign_flipped_disagrees(flip):
    # a copy of the oracle with cofactor sign `flip` of the five negated
    # must fail the comparison that the right one passes
    signs = [*SIGNS[2], *SIGNS[3]]
    signs[flip] = -signs[flip]
    s2, s3 = tuple(signs[:2]), tuple(signs[2:])
    mismatches = sum(orient2d(*pts) != exact_orient2d(*pts, signs=s2)
                     for pts in adversarial_grid())
    mismatches += sum(orient3d(*pts) != exact_orient3d(*pts, signs=s3)
                      for pts in random_quadruples())
    assert mismatches > 0


def test_orient3d_matches_exact_when_the_minors_cancel():
    # a = 0, and b, c, d within 1e-9 of a point about 1 away: each 2x2 minor
    # cancels terms of size 1 down to about 1e-9, and the determinant is about
    # 1e-18, below the rounding of those terms. The differences from a are
    # exact, so the oracle is the determinant of the input Fractions
    rng = np.random.default_rng(5)
    near = rng.random((100, 1, 3)) + 0.5 + rng.random((100, 3, 3)) * 1e-9
    want = []
    for (bx, by, bz), (cx, cy, cz), (dx, dy, dz) in near.tolist():
        b, c, d = (tuple(map(Fraction, p)) for p in ((bx, by, bz), (cx, cy, cz), (dx, dy, dz)))
        v = (
            b[0] * (c[1] * d[2] - c[2] * d[1])
            - b[1] * (c[0] * d[2] - c[2] * d[0])
            + b[2] * (c[0] * d[1] - c[1] * d[0])
        )
        want.append((v > 0) - (v < 0))
    P = np.concatenate([np.zeros((100, 1, 3)), near], axis=1)
    assert [orient3d(*map(tuple, q)) for q in P.tolist()] == want
    assert orient_batch(P.reshape(-1, 3), np.arange(400).reshape(-1, 4)).tolist() == want


def test_circumsphere_side_known_cases():
    tri = [(0, 0), (1, 0), (0, 1)]
    assert circumsphere_side(tri, (0.5, 0.5)) == 1
    assert circumsphere_side(tri, (2, 2)) == -1
    assert circumsphere_side(tri, (1, 1)) == 0  # cocircular corner
    tet = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert circumsphere_side(tet, (0.5, 0.5, 0.5)) == 1
    assert circumsphere_side(tet, (1, 1, 1)) == 0
    assert circumsphere_side(tet, (2, 2, 2)) == -1


def test_circumsphere_side_orientation_invariant():
    random.seed(5)
    for _ in range(100):
        pts = [tuple(random.uniform(0, 1) for _ in range(2)) for _ in range(3)]
        q = tuple(random.uniform(0, 1) for _ in range(2))
        pts2 = [pts[1], pts[0], pts[2]]
        try:
            assert circumsphere_side(pts, q) == circumsphere_side(pts2, q)
        except ValueError:
            pass  # degenerate random triple


def test_circumsphere_exact_via_rational_center():
    # compare the sign against an exact rational |q - c|^2 vs R^2 test
    random.seed(7)
    grid = [0.0, 0.125, 0.25, 0.5, 0.75, 1.0]
    for _ in range(200):
        pts = [(random.choice(grid), random.choice(grid)) for _ in range(3)]
        q = (random.choice(grid), random.choice(grid))
        if exact_orient2d(*pts) == 0:
            continue
        (ax, ay), (bx, by), (cx, cy) = [(Fraction(x), Fraction(y)) for x, y in pts]
        d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
              + (cx * cx + cy * cy) * (ay - by)) / d
        uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
              + (cx * cx + cy * cy) * (bx - ax)) / d
        r2 = (ax - ux) ** 2 + (ay - uy) ** 2
        d2 = (Fraction(q[0]) - ux) ** 2 + (Fraction(q[1]) - uy) ** 2
        want = 1 if d2 < r2 else (-1 if d2 > r2 else 0)
        assert circumsphere_side(pts, q) == want


def test_jitter_deterministic_and_small():
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    a = jittered_points(pts)
    b = jittered_points(pts)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a - pts) <= 1e-9) and np.all(np.any(a != pts, axis=1))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    n=st.integers(1, 20_000),
    dim=st.sampled_from([2, 3]),
    span_exp=st.integers(-300, 300),
    centre=st.sampled_from([0.0, 0.5, -3.0, 1e6]),
    constant=st.lists(st.booleans(), min_size=3, max_size=3),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=20_000, dim=3, span_exp=0, centre=0.5, constant=[False] * 3, zeros=True, seed=1)
@example(n=50, dim=2, span_exp=-300, centre=0.0, constant=[False, True, False], zeros=False, seed=2)
@example(n=50, dim=3, span_exp=300, centre=0.0, constant=[False] * 3, zeros=True, seed=3)
@example(n=50, dim=2, span_exp=-200, centre=1e6, constant=[True] * 3, zeros=False, seed=4)
def test_jitter_matches_scalar_oracle_bit_for_bit(n, dim, span_exp, centre, constant, zeros, seed):
    rng = np.random.default_rng(seed)
    P = centre * 10.0**span_exp + rng.standard_normal((n, dim)) * 10.0**span_exp
    if zeros:
        P[::3] = 0.0  # the offset itself, with every bit of its rounding, is the result
    for a in range(dim):
        if constant[a]:
            P[:, a] = P[0, a]  # extent 0, jittered on the scale 1.0
    got = jittered_points(P)
    want = np.array(jittered_points_oracle(P), dtype=float)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
