import numpy as np
import pytest

from helpers import appendix_filtration
from stablevol.fixtures import (
    annulus,
    fig1_five_points,
    generate,
    hexagon,
    lattice_2d_defects,
    lattice_3x3x3,
)


def test_fig1_geometry():
    pc = fig1_five_points()
    assert len(pc) == 5
    d = np.linalg.norm(pc[4] - pc[0])
    assert abs(d - 1.0) < 1e-12  # apex is unit distance from the shared edge ends
    d2 = np.linalg.norm(pc[4] - pc[3])
    assert abs(d2 - 1.0) < 1e-12


def test_lattice_3x3x3_bounds():
    pc = lattice_3x3x3(seed=3)
    assert len(pc) == 27
    assert pc.min() >= -0.05 and pc.max() <= 2.05


def test_lattice_defects_perimeter_kept():
    pc = lattice_2d_defects(seed=1, size=10, noise=0.0)
    pts = {tuple(p) for p in np.round(pc).astype(int)}
    for x in range(10):
        assert (x, 0) in pts and (x, 9) in pts
        assert (0, x) in pts and (9, x) in pts
    assert len(pc) < 100  # some interior points removed


def test_generators_deterministic():
    for name in ("lattice-3x3x3", "lattice-2d-defects", "annulus"):
        a = generate(name, seed=5)
        b = generate(name, seed=5)
        assert np.array_equal(a, b)


def test_unknown_fixture():
    with pytest.raises(ValueError):
        generate("nope", 0)


def test_hexagon_unit_sides():
    pc = hexagon()
    for k in range(6):
        d = np.linalg.norm(pc[k] - pc[(k + 1) % 6])
        assert abs(d - 1.0) < 1e-12


def test_appendix_filtration_valid():
    o = appendix_filtration()
    level = o.level_array
    for k in range(1, o.cx.dim + 1):
        ids = o.cx.ids_of_dim(k)
        assert (level[o.cx.face_array(k)] <= level[ids.start : ids.stop, None]).all()
