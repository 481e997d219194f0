"""Deterministic dataset generators for experiments and tests, and the
seeded stream of doubles that they and `stat` draw their noise from.

Every generator is a pure function of its arguments (seed included), so
regenerating a fixture always yields identical bytes. A fixture is an
(n, d) float array of points, as `alpha.parse_pointcloud` returns.
`Pcg64Stream(seed)` draws the doubles of `numpy.random.default_rng(seed)`
bit for bit, computed here, so no command loads numpy.random.
"""

from __future__ import annotations

import math
import operator

import numpy as np

# numpy.random.SeedSequence's hash constants, and PCG64's LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _hasher(const, mult):
    """SeedSequence's hashmix: each call xors the value with the running
    constant, advances the constant by `mult` and multiplies by it."""

    def hashmix(value):
        nonlocal const
        value ^= const
        const = (const * mult) & _M32
        value = (value * const) & _M32
        return value ^ (value >> 16)

    return hashmix


def _seed_words(entropy) -> list:
    """`numpy.random.SeedSequence(entropy).generate_state(4, uint64)` as
    Python ints, for a non-negative int or a list of them. Each int gives
    its little-endian 32-bit words (0 gives one); the first four words fill
    the pool, and every further word is mixed into each pool word."""
    words = []
    for n in entropy if isinstance(entropy, (list, tuple)) else [entropy]:
        n = operator.index(n)
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & _M32)
        while n > _M32:
            n >>= 32
            words.append(n & _M32)
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    state = _hasher(_INIT_B, _MULT_B)
    out = [state(pool[i % 4]) for i in range(8)]
    return [out[i] | (out[i + 1] << 32) for i in range(0, 8, 2)]


class Pcg64Stream:
    """The doubles that `numpy.random.default_rng(entropy)` draws, bit for
    bit (O'Neill 2014, PCG64). The 128-bit state, seeded from SeedSequence's
    words w0..w3, steps as an LCG with increment 2 * (w2, w3) + 1; a draw
    steps it, takes the XSL-RR output of the new state and keeps its top
    53 bits times 2**-53. Python ints step the state; numpy turns a run of
    states into doubles."""

    def __init__(self, entropy):
        w0, w1, w2, w3 = _seed_words(entropy)
        self._inc = ((((w2 << 64) | w3) << 1) | 1) & _M128
        self._state = self._step((self._step(0) + ((w0 << 64) | w1)) & _M128)

    def _step(self, state: int) -> int:
        return (state * _PCG_MULT + self._inc) & _M128

    def random(self) -> float:
        """The next double in [0, 1), as `Generator.random()` draws it."""
        s = self._state = self._step(self._state)
        hi = s >> 64
        rot = hi >> 58
        x = (hi ^ s) & _M64
        x = ((x >> rot) | (x << (64 - rot))) & _M64
        return (x >> 11) * 2.0**-53

    def uniform(self, low: float, high: float, shape: tuple) -> np.ndarray:
        """`Generator.uniform(low, high, shape)`: low + (high - low) * u for
        the next draws u, in C order. A non-finite high - low raises
        OverflowError and a negative one ValueError, as numpy does."""
        low = float(low)
        span = float(high) - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0:
            raise ValueError("high - low < 0")
        n = math.prod(shape)
        s, inc, states = self._state, self._inc, []
        for _ in range(n):
            s = (s * _PCG_MULT + inc) & _M128
            states.append(s.to_bytes(16, "little"))
        self._state = s
        lo, hi = np.frombuffer(b"".join(states), "<u8").reshape(n, 2).T
        rot = hi >> 58
        x = hi ^ lo
        x = (x >> rot) | (x << ((64 - rot) & 63))
        return low + span * ((x >> 11) * 2.0**-53).reshape(shape)


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
    rng = Pcg64Stream(seed)
    return base + rng.uniform(-noise, noise, base.shape)


def lattice_2d_defects(seed: int, size: int = 30, noise: float = 0.1) -> np.ndarray:
    """size x size lattice: interior points kept with probability 1/2,
    perimeter always kept, uniform noise on (-noise, noise)^2."""
    rng = Pcg64Stream(seed)
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
    rng = Pcg64Stream(seed)
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

