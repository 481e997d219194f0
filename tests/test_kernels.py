"""The Z/2 bitset kernel against a set-based reduction, and its V masks."""

import random

from helpers import reduce_sets
from stablevol import kernels


def random_boundary_like(rng, n):
    cols = []
    for j in range(n):
        below = list(range(j))
        rng.shuffle(below)
        cols.append(sorted(below[: rng.randint(0, min(j, 6))]))
    return cols


def sparse_columns(rng, n):
    """Empty and one-row columns mixed with short ones, rows anywhere in
    0..n-1."""
    cols = []
    for _ in range(n):
        width = rng.choice((0, 0, 1, 1, 1, 2, 3))
        cols.append(sorted(rng.sample(range(n), min(width, n))))
    return cols


def matrices():
    rng = random.Random(9)
    yield []
    yield [[]]
    yield [[0], [0], []]
    for _ in range(30):
        yield random_boundary_like(rng, rng.randint(2, 40))
    for _ in range(30):
        yield sparse_columns(rng, rng.randint(1, 30))


def test_pairs_equal_set_reduction():
    for cols in matrices():
        for track_v in (False, True):
            pairs, v = kernels.reduce_columns(cols, track_v=track_v)
            assert pairs == reduce_sets(cols, range(len(cols)))[0]
            assert (v is None) == (not track_v)


def test_v_columns_witness_combination():
    # the input columns that a V mask selects XOR to a column with the pair's low
    for cols in matrices():
        pairs, v = kernels.reduce_columns(cols, track_v=True)
        assert sorted(v) == [j for _, j in pairs]
        for low, j in pairs:
            assert v[j] >> j & 1 and v[j].bit_length() == j + 1
            acc = set()
            for c in range(len(cols)):
                if v[j] >> c & 1:
                    acc ^= set(cols[c])
            assert max(acc) == low
