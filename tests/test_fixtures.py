import math

import numpy as np
import pytest

from helpers import appendix_filtration
from stablevol import fixtures
from stablevol.fixtures import (
    GENERATORS,
    Pcg64Stream,
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


# ---------------------------------------------------------------------------
# Pcg64Stream against numpy.random.default_rng, its oracle

# one-word, multi-word and more-than-4-word entropy, ints and lists
ENTROPIES = [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 5, np.int64(9), [], [0], [0, 0],
             [7, 3], [2**64 + 3, 2**33], [1, 2, 3, 4, 5, 6], (5, 2**40)]

# random() scalars (None) between uniform(-h, h, shape) arrays ((h, shape))
CALLS = [None, (0.05, (0,)), (0.05, (7, 2)), None, None, (1e-300, (5, 3)), (3.0, (1, 2)),
         (1e300, (4, 3)), None, (0.1, (40, 2))]


def stream_draws(rng, calls=CALLS):
    """(shape, bytes) of each draw that `calls` makes from `rng`, with a
    random() scalar's shape ()."""
    out = []
    for call in calls:
        if call is None:
            x = rng.random()
            assert type(x) is float
            out.append(((), np.float64(x).tobytes()))
        else:
            h, shape = call
            a = rng.uniform(-h, h, shape)
            out.append((a.shape, a.tobytes()))
    return out


@pytest.mark.parametrize("entropy", ENTROPIES, ids=repr)
def test_stream_is_default_rng_bit_for_bit(entropy):
    assert stream_draws(Pcg64Stream(entropy)) == stream_draws(np.random.default_rng(entropy))


def test_stream_of_each_seed_and_trial_is_default_rng():
    calls = [(h, (53, 2)) for h in (0.05, 1e-300, 3.0, 1e300)]
    for seed in [*range(40), 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64 + 3, 10**20]:
        for trial in (0, 1, 7, 2**33):
            want = stream_draws(np.random.default_rng([seed, trial]), calls)
            assert stream_draws(Pcg64Stream([seed, trial]), calls) == want, (seed, trial)


def test_stream_keeps_numpys_errors():
    for make in (Pcg64Stream, np.random.default_rng):
        for entropy in (-1, [3, -1]):
            with pytest.raises(ValueError, match="^expected non-negative integer$"):
                make(entropy)
        rng = make(1)
        for low, high in [(-1e308, 1e308), (0.0, math.inf), (math.nan, 1.0)]:
            with pytest.raises(OverflowError):
                rng.uniform(low, high, (2,))
        with pytest.raises(ValueError):
            rng.uniform(1.0, 0.0, (2,))


@pytest.mark.parametrize(
    "name", ["_INIT_A", "_MULT_A", "_INIT_B", "_MULT_B", "_MIX_L", "_MIX_R", "_PCG_MULT"])
def test_stream_with_a_changed_constant_is_not_default_rng(monkeypatch, name):
    """The comparison with numpy sees every constant: a stream whose
    constant `name` has one bit flipped draws other doubles."""
    monkeypatch.setattr(fixtures, name, getattr(fixtures, name) ^ 2)
    for entropy in (7, [7, 3]):
        assert stream_draws(Pcg64Stream(entropy)) != stream_draws(np.random.default_rng(entropy))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_fixtures_are_the_default_rng_fixtures(monkeypatch, name):
    ours = [generate(name, seed) for seed in range(6)]
    monkeypatch.setattr(fixtures, "Pcg64Stream", np.random.default_rng)
    for seed, pts in enumerate(ours):
        assert pts.tobytes() == generate(name, seed).tobytes(), seed
