"""Simplicial complexes, Z/2 and rational chains, and filtration orders.

Simplices are canonical tuples of strictly increasing vertex ids. A complex
assigns dense integer ids to its simplices at construction; everything
downstream (orders, boundary matrices, volumes) refers to simplex ids, never
to vertex tuples, so incidence lookups are O(1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


class MonotonicityError(ValueError):
    """A level map decreases from a face to one of its cofaces."""

    def __init__(self, face, coface, face_level, coface_level):
        self.face = face
        self.coface = coface
        super().__init__(
            f"level({face}) = {face_level} exceeds level({coface}) = {coface_level}"
        )


class DimensionError(ValueError):
    pass


def simplex(vertices: Iterable[int]) -> tuple:
    """Canonical form: sorted tuple of distinct vertex ids."""
    vs = tuple(sorted(int(v) for v in vertices))
    if len(set(vs)) != len(vs):
        raise ValueError(f"duplicate vertices in simplex {vs}")
    if not vs:
        raise ValueError("empty simplex")
    return vs


def faces_of(verts: tuple):
    """Codimension-1 faces, in vertex-removal order."""
    return [verts[:i] + verts[i + 1 :] for i in range(len(verts))]


class SimplicialComplex:
    """Finite simplicial complex with dense simplex ids and incidence maps.

    Ids are assigned in (dimension, lexicographic vertex tuple) order, so a
    complex built from the same simplex set is always indexed identically.
    """

    def __init__(self, simplices: Iterable, closure: bool = False):
        canon = {simplex(s) for s in simplices}
        if closure:
            stack = list(canon)
            while stack:
                s = stack.pop()
                if len(s) == 1:
                    continue
                for f in faces_of(s):
                    if f not in canon:
                        canon.add(f)
                        stack.append(f)
        self.simplices: list = sorted(canon, key=lambda s: (len(s), s))
        self.index: dict = {s: i for i, s in enumerate(self.simplices)}
        self.dim = max((len(s) - 1 for s in self.simplices), default=-1)
        n = len(self.simplices)
        self.faces: list = [[] for _ in range(n)]
        self.cofaces: list = [[] for _ in range(n)]
        self._missing: list = []  # (simplex id, missing face tuple)
        for i, s in enumerate(self.simplices):
            if len(s) == 1:
                continue
            for f in faces_of(s):
                fi = self.index.get(f)
                if fi is None:
                    self._missing.append((i, f))
                else:
                    self.faces[i].append(fi)
                    self.cofaces[fi].append(i)

    def __len__(self):
        return len(self.simplices)

    def dim_of(self, i: int) -> int:
        return len(self.simplices[i]) - 1

    def ids_of_dim(self, k: int) -> list:
        return [i for i, s in enumerate(self.simplices) if len(s) - 1 == k]

    @property
    def vertex_count(self) -> int:
        return sum(1 for s in self.simplices if len(s) == 1)


def validate_complex(cx: SimplicialComplex, max_violations: int = 10) -> list:
    """Check closure under faces and face/coface consistency.

    Returns a list of violation strings, empty iff the complex is valid.
    Only the first `max_violations` missing faces are reported.
    """
    violations = []
    for i, f in cx._missing[:max_violations]:
        violations.append(f"missing face {f} of {cx.simplices[i]}")
    if violations:
        return violations
    # incidence maps must be mutual transposes with the right cardinalities
    for i, s in enumerate(cx.simplices):
        if len(cx.faces[i]) != (0 if len(s) == 1 else len(s)):
            violations.append(f"face count mismatch at {s}")
        for fi in cx.faces[i]:
            if i not in cx.cofaces[fi]:
                violations.append(f"coface map misses {s} at {cx.simplices[fi]}")
        if len(violations) >= max_violations:
            break
    return violations


# ---------------------------------------------------------------------------
# chains


@dataclass
class Chain:
    """Formal sum of equal-dimension simplices. `field` is "z2" or "rational".

    Z/2 coefficients are stored as the integer 1; rational coefficients are
    exact fractions so that boundary-of-boundary cancels identically.
    """

    field: str
    dim: int
    coeffs: dict

    def support(self) -> set:
        return set(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)


def chain_z2(ids: Iterable[int], cx: SimplicialComplex) -> Chain:
    ids = list(ids)
    dims = {cx.dim_of(i) for i in ids}
    if len(dims) > 1:
        raise ValueError(f"mixed dimensions in chain: {sorted(dims)}")
    d = dims.pop() if dims else 0
    coeffs = {}
    for i in ids:
        coeffs[i] = coeffs.get(i, 0) ^ 1
    return Chain("z2", d, {i: 1 for i, c in coeffs.items() if c})


def chain_rational(coeffs: Mapping[int, object], cx: SimplicialComplex) -> Chain:
    cleaned = {int(i): Fraction(c) for i, c in coeffs.items() if Fraction(c) != 0}
    dims = {cx.dim_of(i) for i in cleaned}
    if len(dims) > 1:
        raise ValueError(f"mixed dimensions in chain: {sorted(dims)}")
    d = dims.pop() if dims else 0
    return Chain("rational", d, cleaned)


def boundary(cx: SimplicialComplex, ch: Chain) -> Chain:
    """Boundary with alternating signs on the sorted vertex list (Z/2 drops signs)."""
    if ch.dim < 1:
        raise DimensionError("boundary of a 0-chain is undefined")
    out: dict = {}
    for sid, coef in ch.coeffs.items():
        verts = cx.simplices[sid]
        for i, f in enumerate(faces_of(verts)):
            fi = cx.index.get(f)
            if fi is None:
                raise ValueError(f"complex not closed: missing face {f}")
            if ch.field == "z2":
                out[fi] = out.get(fi, 0) ^ 1
            else:
                out[fi] = out.get(fi, Fraction(0)) + (-1) ** i * coef
    if ch.field == "z2":
        coeffs = {i: 1 for i, c in out.items() if c}
    else:
        coeffs = {i: c for i, c in out.items() if c != 0}
    return Chain(ch.field, ch.dim - 1, coeffs)


# ---------------------------------------------------------------------------
# orders with level


class OrderWithLevel:
    """A level map plus a total order refining (level, dimension, lex verts).

    rank[i] is the 0-based position of simplex id i; order[p] is the simplex
    id at position p. Prefixes of `order` are subcomplexes, and sublevel sets
    of `level` are subcomplexes.
    """

    def __init__(self, cx: SimplicialComplex, level: Sequence[float], order: Sequence[int]):
        self.cx = cx
        self.level = list(map(float, level))
        self.order = list(order)
        self.rank = [0] * len(cx)
        for pos, sid in enumerate(self.order):
            self.rank[sid] = pos

    def __len__(self):
        return len(self.order)

    def level_at_rank(self, pos: int) -> float:
        return self.level[self.order[pos]]

    def prefix_ids(self, count: int) -> list:
        return self.order[:count]


def build_order(cx: SimplicialComplex, level) -> OrderWithLevel:
    """Total order refining the level map; ties break by (dim, lex verts).

    Raises MonotonicityError naming the first face/coface pair whose levels
    are out of order. The level argument may be a sequence indexed by simplex
    id or a mapping from vertex tuples (or ids) to levels.
    """
    bad = validate_complex(cx)
    if bad:
        raise ValueError("invalid complex: " + "; ".join(bad))
    lv = _levels_as_list(cx, level)
    for i in range(len(cx)):
        for fi in cx.faces[i]:
            if lv[fi] > lv[i]:
                raise MonotonicityError(cx.simplices[fi], cx.simplices[i], lv[fi], lv[i])
    order = sorted(range(len(cx)), key=lambda i: (lv[i], len(cx.simplices[i]), cx.simplices[i]))
    return OrderWithLevel(cx, lv, order)


def _levels_as_list(cx: SimplicialComplex, level) -> list:
    if isinstance(level, Mapping):
        out = []
        for i, s in enumerate(cx.simplices):
            if s in level:
                out.append(float(level[s]))
            elif i in level:
                out.append(float(level[i]))
            else:
                raise KeyError(f"no level for simplex {s}")
        return out
    lv = [float(x) for x in level]
    if len(lv) != len(cx):
        raise ValueError(f"expected {len(cx)} levels, got {len(lv)}")
    return lv


def sublevel_complex(o: OrderWithLevel, t: float) -> SimplicialComplex:
    """Subcomplex of simplices with level strictly below t."""
    return SimplicialComplex(
        [s for i, s in enumerate(o.cx.simplices) if o.level[i] < t]
    )


# ---------------------------------------------------------------------------
# JSON complex format


def complex_to_json(o: OrderWithLevel) -> dict:
    return {
        "vertices": o.cx.vertex_count,
        "simplices": [
            {"v": list(s), "level": o.level[i]} for i, s in enumerate(o.cx.simplices)
        ],
    }


def complex_from_json(obj) -> OrderWithLevel:
    """Load the JSON complex format, validate closure, and build the order."""
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    entries = obj["simplices"]
    cx = SimplicialComplex([e["v"] for e in entries])
    bad = validate_complex(cx)
    if bad:
        raise ValueError("invalid complex: " + "; ".join(bad))
    level = [0.0] * len(cx)
    for e in entries:
        lv = float(e["level"])
        if not math.isfinite(lv):
            raise ValueError(f"non-finite level {lv} for simplex {list(e['v'])}")
        level[cx.index[simplex(e["v"])]] = lv
    if int(obj.get("vertices", cx.vertex_count)) != cx.vertex_count:
        raise ValueError("vertex count does not match simplex list")
    return build_order(cx, level)
