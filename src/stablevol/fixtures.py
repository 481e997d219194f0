"""Deterministic dataset generators for experiments and tests.

Every generator is a pure function of its arguments (seed included), so
regenerating a fixture always yields identical bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .alpha import PointCloud


def fig1_five_points(a: float = 1.0) -> PointCloud:
    """Unit square sharing an edge with a unit equilateral triangle.

    Five points total; the degree-1 diagram is {(a/2, a/sqrt(3)),
    (a/2, a/sqrt(2))}.
    """
    pts = np.array(
        [
            [0.0, 0.0],
            [a, 0.0],
            [a, a],
            [0.0, a],
            [-a * math.sqrt(3.0) / 2.0, a / 2.0],
        ]
    )
    return PointCloud(2, pts)


def lattice_3x3x3(seed: int, noise: float = 0.05) -> PointCloud:
    """27 integer lattice points with uniform noise on (-noise, noise)^3."""
    base = np.array(
        [[x, y, z] for x in range(3) for y in range(3) for z in range(3)], dtype=float
    )
    rng = np.random.default_rng(seed)
    return PointCloud(3, base + rng.uniform(-noise, noise, base.shape))


def lattice_2d_defects(
    seed: int, size: int = 30, keep_prob: float = 0.5, noise: float = 0.1
) -> PointCloud:
    """size x size lattice: interior points kept with probability keep_prob,
    perimeter always kept, uniform noise on (-noise, noise)^2."""
    rng = np.random.default_rng(seed)
    rows = []
    for x in range(size):
        for y in range(size):
            on_perimeter = x in (0, size - 1) or y in (0, size - 1)
            if on_perimeter or rng.random() < keep_prob:
                rows.append([float(x), float(y)])
    base = np.array(rows)
    return PointCloud(2, base + rng.uniform(-noise, noise, base.shape))


def hexagon(radius: float = 1.0) -> PointCloud:
    """Regular hexagon; side length equals the radius."""
    pts = [
        (radius * math.cos(k * math.pi / 3.0), radius * math.sin(k * math.pi / 3.0))
        for k in range(6)
    ]
    return PointCloud(2, np.array(pts))


def annulus(seed: int = 0, jitter: float = 0.02) -> PointCloud:
    """Two concentric rings (radii 1 and 2) with a little seeded jitter."""
    rng = np.random.default_rng(seed)
    pts = []
    for k in range(10):
        t = 2.0 * math.pi * k / 10.0
        pts.append((math.cos(t), math.sin(t)))
    for k in range(20):
        t = 2.0 * math.pi * k / 20.0
        pts.append((2.0 * math.cos(t), 2.0 * math.sin(t)))
    arr = np.array(pts) + rng.uniform(-jitter, jitter, (len(pts), 2))
    return PointCloud(2, arr)


GENERATORS = {
    "fig1-five-points": lambda seed: fig1_five_points(),
    "lattice-3x3x3": lattice_3x3x3,
    "lattice-2d-defects": lattice_2d_defects,
    "hexagon": lambda seed: hexagon(),
    "annulus": annulus,
}


def generate(name: str, seed: int = 0) -> PointCloud:
    try:
        gen = GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown fixture {name!r}; choose from {sorted(GENERATORS)}"
        ) from None
    return gen(seed)

