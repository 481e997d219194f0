"""Deterministic dataset generators for experiments and tests.

Every generator is a pure function of its arguments (seed included), so
regenerating a fixture always yields identical bytes. A fixture is an
(n, d) float array of points, as `alpha.parse_pointcloud` returns.
"""

from __future__ import annotations

import math

import numpy as np


def fig1_five_points() -> np.ndarray:
    """Unit square sharing an edge with a unit equilateral triangle.

    Five points total; the degree-1 diagram is {(1/2, 1/sqrt(3)),
    (1/2, 1/sqrt(2))}.
    """
    return np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [-math.sqrt(3.0) / 2.0, 0.5]]
    )


def lattice_3x3x3(seed: int, noise: float = 0.05) -> np.ndarray:
    """27 integer lattice points with uniform noise on (-noise, noise)^3."""
    base = np.array(
        [[x, y, z] for x in range(3) for y in range(3) for z in range(3)], dtype=float
    )
    rng = np.random.default_rng(seed)
    return base + rng.uniform(-noise, noise, base.shape)


def lattice_2d_defects(seed: int, size: int = 30, noise: float = 0.1) -> np.ndarray:
    """size x size lattice: interior points kept with probability 1/2,
    perimeter always kept, uniform noise on (-noise, noise)^2."""
    rng = np.random.default_rng(seed)
    rows = []
    for x in range(size):
        for y in range(size):
            on_perimeter = x in (0, size - 1) or y in (0, size - 1)
            if on_perimeter or rng.random() < 0.5:
                rows.append([float(x), float(y)])
    base = np.array(rows)
    return base + rng.uniform(-noise, noise, base.shape)


def hexagon() -> np.ndarray:
    """Regular hexagon of radius and side length 1."""
    return np.array([(math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)) for k in range(6)])


def annulus(seed: int = 0) -> np.ndarray:
    """Two concentric rings (radii 1 and 2) with seeded uniform jitter on
    (-0.02, 0.02)^2."""
    rng = np.random.default_rng(seed)
    pts = []
    for k in range(10):
        t = 2.0 * math.pi * k / 10.0
        pts.append((math.cos(t), math.sin(t)))
    for k in range(20):
        t = 2.0 * math.pi * k / 20.0
        pts.append((2.0 * math.cos(t), 2.0 * math.sin(t)))
    return np.array(pts) + rng.uniform(-0.02, 0.02, (len(pts), 2))


GENERATORS = {
    "fig1-five-points": lambda seed: fig1_five_points(),
    "lattice-3x3x3": lattice_3x3x3,
    "lattice-2d-defects": lattice_2d_defects,
    "hexagon": lambda seed: hexagon(),
    "annulus": annulus,
}


def generate(name: str, seed: int = 0) -> np.ndarray:
    try:
        gen = GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown fixture {name!r}; choose from {sorted(GENERATORS)}"
        ) from None
    return gen(seed)

