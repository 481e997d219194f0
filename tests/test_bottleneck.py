import math
import random

from helpers import bottleneck, bottleneck_bruteforce
from stablevol.persistence import PersistencePair


def diag_of(finite=(), essential=()):
    ps = [PersistencePair(1, 0, 1, b, d, 0, 1) for b, d in finite]
    ps += [PersistencePair(1, 0, None, b, math.inf, 0, None) for b in essential]
    return ps


def test_identity_distance_zero():
    d = diag_of([(0.1, 0.9), (0.3, 0.4)])
    assert bottleneck(d, d) == 0.0


def test_single_point_to_empty():
    assert bottleneck(diag_of([(0, 2)]), diag_of()) == 1.0


def test_essential_mismatch_infinite():
    assert bottleneck(diag_of(essential=[1.0]), diag_of()) == math.inf
    got = bottleneck(diag_of(essential=[1.0]), diag_of(essential=[1.4]))
    assert abs(got - 0.4) < 1e-12


def test_matches_factorial_oracle():
    rng = random.Random(11)
    for _ in range(300):
        def rand_diag():
            fin = []
            for _ in range(rng.randint(0, 3)):
                b = rng.random()
                fin.append((b, b + rng.random()))
            ess = [rng.random() for _ in range(rng.randint(0, 1))]
            return diag_of(fin, ess)

        a, b = rand_diag(), rand_diag()
        if sum(p.essential for p in a) != sum(p.essential for p in b):
            continue
        assert abs(bottleneck(a, b) - bottleneck_bruteforce(a, b)) < 1e-12


def test_diagonal_beats_bad_match():
    # a far-apart pair should go to the diagonal, not to the other diagram
    a = diag_of([(0.0, 0.2)])
    b = diag_of([(5.0, 5.2)])
    assert abs(bottleneck(a, b) - 0.1) < 1e-12
