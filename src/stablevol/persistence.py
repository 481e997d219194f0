"""Persistence pairs and diagrams by Z/2 boundary-matrix reduction,
representative cocycles via the anti-transposed reduction, and exact
bottleneck distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import kernels
from .complexes import OrderWithLevel


class StarPairError(ValueError):
    """An operation needing a finite death got an essential pair."""


@dataclass(frozen=True)
class PersistencePair:
    degree: int
    birth_simplex: int
    death_simplex: Optional[int]
    birth_time: float
    death_time: float
    birth_rank: int
    death_rank: Optional[int]

    @property
    def essential(self) -> bool:
        return self.death_simplex is None

    def coords(self):
        return (self.birth_time, self.death_time)


@dataclass
class Diagram:
    degree: int
    pairs: list  # PersistencePair, zero-persistence pairs already dropped

    def finite(self):
        return [p for p in self.pairs if not p.essential]

    def essential(self):
        return [p for p in self.pairs if p.essential]

    def __len__(self):
        return len(self.pairs)


def boundary_matrix(o: OrderWithLevel) -> list:
    """Column j = ranks of the codim-1 faces of the rank-j simplex."""
    rank = o.rank
    return [sorted(rank[f] for f in o.cx.faces[sid]) for sid in o.order]


def reduce(o: OrderWithLevel, clearing: bool = True) -> list:
    """All persistence pairs of the filtration, every degree, stars included.

    With `clearing`, columns are processed in descending dimension and
    known-positive columns are skipped; the pairing is identical either way
    (uniqueness of the interval decomposition) and the equivalence is tested,
    not assumed.
    """
    cols = boundary_matrix(o)
    n = len(cols)
    if clearing:
        proc = sorted(range(n), key=lambda j: (-len(o.cx.simplices[o.order[j]]), j))
    else:
        proc = range(n)
    raw_pairs, raw_essentials, _ = kernels.reduce_columns(cols, proc, clearing=clearing)
    return _build_pairs(o, raw_pairs, raw_essentials)


def _build_pairs(o: OrderWithLevel, rank_pairs, essential_ranks) -> list:
    """PersistencePairs from (birth rank, death rank) pairs and essential
    birth ranks, sorted by (degree, birth rank)."""
    pairs = []
    for i, j in rank_pairs:
        bi, dj = o.order[i], o.order[j]
        pairs.append(
            PersistencePair(
                degree=o.cx.dim_of(bi),
                birth_simplex=bi,
                death_simplex=dj,
                birth_time=o.level[bi],
                death_time=o.level[dj],
                birth_rank=i,
                death_rank=j,
            )
        )
    for i in essential_ranks:
        bi = o.order[i]
        pairs.append(
            PersistencePair(
                degree=o.cx.dim_of(bi),
                birth_simplex=bi,
                death_simplex=None,
                birth_time=o.level[bi],
                death_time=math.inf,
                birth_rank=i,
                death_rank=None,
            )
        )
    pairs.sort(key=lambda p: (p.degree, p.birth_rank))
    return pairs


def diagram(pairs, o: OrderWithLevel, k: int) -> Diagram:
    """Degree-k persistence diagram: zero-persistence pairs are excluded."""
    kept = [p for p in pairs if p.degree == k and p.birth_time != p.death_time]
    return Diagram(k, kept)


def cohomology_reduce(o: OrderWithLevel):
    """Pairs via the anti-transposed reduction, plus representative cocycles.

    The pairing is identical to reduce(). For each non-essential pair the
    returned dict maps the pair's (birth_rank, death_rank) to the support of
    its representative cocycle as a set of simplex ids: simplices of the
    birth dimension whose duals sum to a persistent cocycle, i.e. the cut
    whose removal kills every representative cycle of the pair.
    """
    n = len(o)
    rank = o.rank
    cols = []
    for c in range(n):
        sid = o.order[n - 1 - c]
        cols.append(sorted(n - 1 - rank[cf] for cf in o.cx.cofaces[sid]))
    raw_pairs, raw_essentials, v = kernels.reduce_columns(
        cols, range(n), clearing=False, track_v=True
    )
    rank_pairs = []
    cocycles = {}
    for u, c in raw_pairs:
        i, j = n - 1 - c, n - 1 - u
        rank_pairs.append((i, j))
        cocycles[(i, j)] = {o.order[n - 1 - cc] for cc in v[c]}
    pairs = _build_pairs(o, rank_pairs, [n - 1 - c for c in raw_essentials])
    return pairs, cocycles


# ---------------------------------------------------------------------------
# bottleneck distance


def bottleneck(d1: Diagram, d2: Diagram) -> float:
    """Exact bottleneck distance with diagonal augmentation.

    Essential pairs match only essential pairs; mismatched counts give inf.
    Exactness comes from binary search over the finite candidate set of all
    pairwise l-inf distances and distances to the diagonal.
    """
    e1 = sorted(p.birth_time for p in d1.essential())
    e2 = sorted(p.birth_time for p in d2.essential())
    if len(e1) != len(e2):
        return math.inf
    p1 = [p.coords() for p in d1.finite()]
    p2 = [p.coords() for p in d2.finite()]
    cands = {0.0}
    cands.update(abs(a - b) for a, b in zip(e1, e2))
    for a in p1:
        cands.add((a[1] - a[0]) / 2.0)
        for b in p2:
            cands.add(max(abs(a[0] - b[0]), abs(a[1] - b[1])))
    for b in p2:
        cands.add((b[1] - b[0]) / 2.0)
    ordered = sorted(cands)
    lo, hi = 0, len(ordered) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(p1, p2, e1, e2, ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return ordered[lo]


def _feasible(p1, p2, e1, e2, lam) -> bool:
    if any(abs(a - b) > lam for a, b in zip(e1, e2)):
        return False
    n1, n2 = len(p1), len(p2)
    size = n1 + n2
    if size == 0:
        return True
    # left: p1 then diagonal clones of p2; right: p2 then diagonal clones of p1
    adj = [[] for _ in range(size)]
    for i, a in enumerate(p1):
        for j, b in enumerate(p2):
            if max(abs(a[0] - b[0]), abs(a[1] - b[1])) <= lam:
                adj[i].append(j)
        if (a[1] - a[0]) / 2.0 <= lam:
            adj[i].append(n2 + i)
    # diagonal clones take their own point or any opposite clone
    for j, b in enumerate(p2):
        if (b[1] - b[0]) / 2.0 <= lam:
            adj[n1 + j].append(j)
        adj[n1 + j].extend(range(n2, n2 + n1))
    match_r = [-1] * size

    def try_augment(u, seen):
        for v in adj[u]:
            if seen[v]:
                continue
            seen[v] = True
            if match_r[v] == -1 or try_augment(match_r[v], seen):
                match_r[v] = u
                return True
        return False

    matched = 0
    for u in range(size):
        seen = [False] * size
        if try_augment(u, seen):
            matched += 1
    return matched == size
