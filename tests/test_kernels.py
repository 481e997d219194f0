"""The Z/2 reduction kernel records a witness for every death column."""

import random

from stablevol import kernels


def random_boundary_like(rng, n):
    cols = []
    for j in range(n):
        below = list(range(j))
        rng.shuffle(below)
        cols.append(sorted(below[: rng.randint(0, min(j, 6))]))
    return cols


def test_v_columns_witness_combination():
    # the tracked v column must reproduce the reduced column by XOR of inputs
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 40)
        cols = random_boundary_like(rng, n)
        pairs, _, v = kernels.reduce_columns(cols, range(n), False, True)
        for low, j in pairs:
            acc = 0
            for c in v[j]:
                m = 0
                for r in cols[c]:
                    m ^= 1 << r
                acc ^= m
            assert acc.bit_length() - 1 == low
