"""Simplicial complexes, Z/2 boundaries, and filtration orders.

Simplices are canonical tuples of strictly increasing vertex ids. A complex
assigns dense integer ids to its simplices at construction; everything
downstream (orders, boundary matrices, volumes) refers to simplex ids, never
to vertex tuples, so incidence lookups are O(1). `complex_from_json` runs
the same build on the rows a file gives: the build ranks each row once,
which gives the row its simplex id, and it rejects rows that are not
closed under faces instead of adding the faces.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


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


class _MissingFace(Exception):
    """A row given to the build lacks a face among the given rows."""


def simplex(vertices: Iterable[int]) -> tuple:
    """Canonical form: sorted tuple of distinct vertex ids."""
    vs = tuple(sorted(int(v) for v in vertices))
    if len(set(vs)) != len(vs):
        raise ValueError(f"duplicate vertices in simplex {vs}")
    if not vs:
        raise ValueError("empty simplex")
    return vs


def faces_of(verts: tuple):
    """Codimension-1 faces, in vertex-removal order, formed one at a time."""
    return (verts[:i] + verts[i + 1 :] for i in range(len(verts)))


class SimplicialComplex:
    """Finite simplicial complex with dense simplex ids and incidence maps.

    Ids are assigned in (dimension, lexicographic vertex tuple) order, so a
    complex built from the same simplex set is always indexed identically,
    and the ids of one dimension are contiguous.

    `simplices` may be an iterable of vertex iterables or an (m, k+1)
    integer array of m k-simplices. Repeated simplices are kept once, and
    every face of a given simplex is added: a complex is closed under faces
    by construction.

    The build runs one dimension at a time on integer arrays, from the top
    dimension down, with each vertex id replaced by its dense rank: one
    sort of prefix-packed int64 keys (`_lex_rank`) ranks the given rows
    together with the faces of the dimension above, listed in
    vertex-removal order. It gives the unique rows and, read off the
    ranks, the position of each face among the simplices one dimension
    lower. `vertex_array`, `face_array` and `coface_csr` give the
    incidences per dimension as arrays.

    `_ids` is `complex_from_json`'s, which must reject a complex that is
    not closed rather than close it. With a dict, `simplices` maps each
    width to an (m, width) int64 array of sorted rows. The build then
    raises `_MissingFace` at the first dimension that gains a row, before
    it forms any face below it, and sets `_ids[w]` to the rank of each
    given row of width w: its id among the simplices of its dimension,
    less the dimension's first id.

    `simplices[i]`, the vertex tuple of simplex i, is the one Python view;
    it is built from the arrays on first use and cached. Building it costs
    more than the arrays, so the pipeline from points to persistence pairs,
    and the `stat` trials, read only the arrays.
    """

    def __init__(self, simplices, _ids=None):
        given = _rows_by_width(simplices) if _ids is None else simplices
        top = max(given, default=0)
        values, given = _vertex_ranks(given)
        base = max(len(values), 1)
        rows = [None] * top  # dimension k -> (m, k+1) sorted unique vertex rows
        # dimension k -> (m, k+1) face indices among the (k-1)-simplices
        local_faces = [None] * top
        below = None  # faces of the dimension above, one row per face
        for k in range(top - 1, -1, -1):
            cand = given.get(k + 1, np.empty((0, k + 1), dtype=np.int64))
            n_given = len(cand)
            if below is not None:
                cand = np.concatenate([cand, below])
            rank, first = _lex_rank(cand, base)
            if _ids is not None:
                if not np.bincount(rank[:n_given], minlength=len(first)).all():
                    raise _MissingFace
                _ids[k + 1] = rank[:n_given].copy()  # not a view that keeps `rank`
            rows[k] = cand[first]
            if below is not None:
                local_faces[k + 1] = rank[n_given:].reshape(-1, k + 2)
            if k > 0:  # each row's faces in vertex-removal order: drop column j
                drop = [[i for i in range(k + 1) if i != j] for j in range(k + 1)]
                below = rows[k][:, drop].reshape(-1, k)
        if len(values) and (values[0] != 0 or values[-1] != len(values) - 1):
            # the ids are not 0..V-1, so their ranks differ from them
            rows = [values[r] for r in rows]
        sizes = [len(r) for r in rows]
        self._offsets = [0, *itertools.accumulate(sizes)]
        self.dim = top - 1
        self._verts = rows
        self._faces = [np.empty((sizes[0], 0), dtype=np.int64)] if top else []
        self._faces += [local_faces[k] + self._offsets[k - 1] for k in range(1, top)]
        self._cofaces = [_coface_csr(local_faces[k + 1], sizes[k], self._offsets[k + 1])
                         for k in range(top - 1)]
        if top:
            self._cofaces.append((np.zeros(sizes[-1] + 1, dtype=np.int64),
                                  np.empty(0, dtype=np.int64)))
        for a in (*self._verts, *self._faces, *(x for csr in self._cofaces for x in csr)):
            a.flags.writeable = False

    @cached_property
    def simplices(self) -> list:
        """Vertex tuple of each simplex, in id order."""
        return [s for rows in self._verts for s in map(tuple, rows.tolist())]

    def __len__(self):
        return self._offsets[-1]

    def dim_of(self, i: int) -> int:
        if not 0 <= i < self._offsets[-1]:
            raise IndexError(f"simplex id {i} out of range")
        return bisect.bisect_right(self._offsets, i) - 1

    def vertices(self, i: int) -> tuple:
        """Vertex tuple of simplex i, read from the arrays."""
        k = self.dim_of(i)
        return tuple(self._verts[k][i - self._offsets[k]].tolist())

    def ids_of_dim(self, k: int) -> range:
        if not 0 <= k <= self.dim:
            return range(0)
        return range(self._offsets[k], self._offsets[k + 1])

    def vertex_array(self, k: int) -> np.ndarray:
        """(m, k+1) vertex ids of the k-simplices, in id order."""
        return self._verts[k]

    def face_array(self, k: int) -> np.ndarray:
        """(m, k+1) ids of the faces of the k-simplices in vertex-removal
        order; (m, 0) for vertices."""
        return self._faces[k]

    def coface_csr(self, k: int):
        """(ptr, idx): the cofaces of the j-th k-simplex are idx[ptr[j]:ptr[j+1]]."""
        return self._cofaces[k]

    @property
    def vertex_count(self) -> int:
        return len(self.ids_of_dim(0))


def _rows_by_width(simplices) -> dict:
    """Canonical (sorted) vertex rows of the given simplices, by width.
    Raises what `simplex` raises for the first simplex it rejects.
    """
    if isinstance(simplices, np.ndarray):
        if simplices.ndim != 2:
            raise ValueError("a simplex array must have shape (m, k+1)")
        groups = {simplices.shape[1]: simplices} if len(simplices) else {}
    else:
        simplices = [tuple(s) for s in simplices]
        groups = {}
        for s in simplices:
            groups.setdefault(len(s), []).append(s)
    rows = {}
    for w, g in groups.items():
        rows[w] = a = _sorted_rows(g, w)
        if a is None:
            for s in simplices:
                simplex(s)
    return rows


def _sorted_rows(g, w: int):
    """The rows `g` as an (m, w) int64 array, each row sorted, or None if a
    row is empty or repeats a vertex."""
    try:
        a = np.array(g, dtype=np.int64).reshape(len(g), w)
    except OverflowError:
        raise ValueError("vertex ids must fit in a signed 64-bit integer") from None
    a.sort(axis=1)
    return None if w == 0 or (a[:, 1:] == a[:, :-1]).any() else a


def _vertex_ranks(given: dict):
    """The sorted distinct vertex ids of the rows `given` (width -> (m, w)
    array), and the rows with each id replaced by its dense rank among
    them; the rows as they are when their ids are 0..V-1."""
    flat = np.concatenate([g.ravel() for g in given.values()]) if given else np.empty(0, np.int64)
    if len(flat) and flat.min() == 0 and flat.max() < len(flat) and np.bincount(flat).all():
        return np.arange(flat.max() + 1), given  # the ids are 0..V-1, their own ranks
    rank, first = _dense_rank(flat)
    values = flat[first]
    out, start = {}, 0
    for w, g in given.items():
        out[w] = rank[start : start + g.size].reshape(g.shape)
        start += g.size
    return values, out


def _lex_rank(rows: np.ndarray, base: int):
    """Dense rank of each row of an (m, w) array of vertex ranks in
    [0, base) in lexicographic order (equal rows share a rank), and the
    index of one row of each rank, by rank.

    The rows are packed column by column into int64 keys, key * base + v;
    a key that could overflow at the next column is first replaced by its
    dense rank, which keeps the order. A rank is below m, so m * base must
    fit in int64; it does for the dense ranks of any int64 ids the build
    can hold in memory.
    """
    key = rows[:, 0]
    limit = (np.iinfo(np.int64).max - base + 1) // base
    for j in range(1, rows.shape[1]):
        if len(key) and key.max() > limit:
            key = _dense_rank(key)[0]
        key = key * base + rows[:, j]
    return _dense_rank(key)


def _dense_rank(key: np.ndarray):
    """Dense rank of each entry of an int64 array (equal entries share a
    rank), and the index of one entry of each rank, by rank; one sort."""
    order = np.argsort(key)
    s = key[order]
    new = np.ones(len(s), dtype=bool)
    new[1:] = s[1:] != s[:-1]
    rank = np.empty(len(s), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return rank, order[new]


def _coface_csr(local_faces, m: int, offset: int):
    """CSR coface lists of m simplices from the (c, k+2) local face ids of
    their c cofaces, whose ids start at `offset`; ascending within a row."""
    c, width = local_faces.shape
    face = local_faces.ravel()
    coface = np.repeat(np.arange(c), width)
    ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(face, minlength=m), out=ptr[1:])
    # the keys are distinct, so an unstable sort orders them exactly
    return ptr, coface[np.argsort(face * c + coface)] + offset


# ---------------------------------------------------------------------------
# Z/2 boundaries


def boundary(cx: SimplicialComplex, k: int, ids: Iterable[int]) -> set:
    """Ids of the Z/2 boundary of the k-simplices `ids`: the (k-1)-simplices
    that an odd number of them have as a face, so an id listed twice
    cancels. It reads the vertex tuples (`simplices`, `faces_of`), not the
    face arrays, so the tests check `z2_boundary` against it. Raises
    DimensionError for k < 1 or an id that is not a k-simplex."""
    if k < 1:
        raise DimensionError("boundary of a 0-chain is undefined")
    cells, facets = cx.ids_of_dim(k), cx.ids_of_dim(k - 1)
    index = dict(zip(cx.simplices[facets.start : facets.stop], facets))
    out = set()
    for sid in ids:
        if not cells.start <= sid < cells.stop:
            raise DimensionError(f"simplex {sid} is not a {k}-simplex")
        out ^= {index[f] for f in faces_of(cx.simplices[sid])}
    return out


def z2_boundary(cx: SimplicialComplex, k: int, cells) -> np.ndarray:
    """Ids of the Z/2 boundary of a set of k-simplices, ascending: the
    (k-1)-simplices that an odd number of the cells have as a face, counted
    over `face_array(k)`."""
    ids, facets = cx.ids_of_dim(k), cx.ids_of_dim(k - 1)
    local = np.fromiter(cells, np.int64, len(cells)) - ids.start
    count = np.bincount(cx.face_array(k)[local].ravel() - facets.start, minlength=len(facets))
    return np.flatnonzero(count & 1) + facets.start


# Distinct ids and id membership on command paths go through these two, not
# through `np.unique` or `np.isin`: with no `return_*` option, numpy 2.4's
# `np.unique` calls `np.ma.is_masked`, which imports numpy.ma (12-18 ms and
# 1.28 MiB in a fresh process), and `np.setdiff1d` and `np.isin`'s sort path
# call it.


def vertices_of(cx: SimplicialComplex, k: int, ids) -> np.ndarray:
    """Sorted distinct vertex ids of the k-simplices `ids`, by a bincount
    over the vertex ids."""
    rows = cx.vertex_array(k)[np.asarray(ids, dtype=np.int64) - cx.ids_of_dim(k).start]
    return np.flatnonzero(np.bincount(rows.ravel()))


def id_mask(cx: SimplicialComplex, k: int, ids, members) -> np.ndarray:
    """For each of the k-simplices `ids`, whether it is among `members`
    (k-simplex ids too, any iterable), by a bool mask over `ids_of_dim(k)`."""
    span = cx.ids_of_dim(k)
    mask = np.zeros(len(span), dtype=bool)
    mask[np.fromiter(members, np.int64, len(members)) - span.start] = True
    return mask[np.asarray(ids, dtype=np.int64) - span.start]


# ---------------------------------------------------------------------------
# orders with level


class OrderWithLevel:
    """A level map plus a total order refining (level, dimension, lex verts),
    as read-only numpy arrays.

    `level_array[i]` is the level of simplex id i, `order_array[p]` the
    simplex id at position p and `rank_array[i]` the 0-based position of
    simplex id i. Prefixes of the order are subcomplexes, and sublevel sets
    of the level map are subcomplexes.
    """

    def __init__(self, cx: SimplicialComplex, level: Sequence[float], order: Sequence[int]):
        self.cx = cx
        self.level_array = np.array(level, dtype=float)
        self.order_array = np.array(order, dtype=np.int64)
        self.rank_array = np.zeros(len(cx), dtype=np.int64)
        self.rank_array[self.order_array] = np.arange(len(self.order_array))
        for a in (self.level_array, self.order_array, self.rank_array):
            a.flags.writeable = False

    def __len__(self):
        return len(self.order_array)


def build_order(cx: SimplicialComplex, level) -> OrderWithLevel:
    """Total order refining the level map; ties break by (dim, lex verts).

    `level` is an array-like of floats indexed by simplex id. Raises
    MonotonicityError naming the first face/coface pair whose levels are
    out of order (by coface id, then face in vertex-removal order).
    """
    arr = np.array(level, dtype=float)
    if arr.ndim != 1 or len(arr) != len(cx):
        raise ValueError(f"expected {len(cx)} levels, got {arr.size}")
    for k in range(1, cx.dim + 1):
        ids = cx.ids_of_dim(k)
        faces = cx.face_array(k)
        over = arr[faces] > arr[ids.start : ids.stop, None]
        if over.any():
            r, c = divmod(int(over.argmax()), k + 1)
            i, fi = ids[r], int(faces[r, c])
            raise MonotonicityError(cx.vertices(fi), cx.vertices(i), float(arr[fi]), float(arr[i]))
    # ids ascend in (dim, lex verts) order, so a stable sort breaks the ties
    return OrderWithLevel(cx, arr, np.argsort(arr, kind="stable"))


# ---------------------------------------------------------------------------
# JSON complex format


def complex_from_json(obj) -> OrderWithLevel:
    """Load the JSON complex format, validate it, and build the order.

    The entries are read in bulk: one type check over all vertex ids and one
    over all levels, and one sorted (m, w) int64 array of vertex rows per
    entry width. The complex is built from the per-width arrays, and the
    build's rank of each row is its entry's simplex id (the ids of a
    dimension are dense and lexicographic); the build also finds a missing
    face, as a dimension with more rows than were given. The levels come
    from one float array, so no Python view of the complex is built.

    Input that does not have the format's shape raises a one-line ValueError
    naming the first bad entry, a duplicate (the first entry that repeats an
    earlier one), up to 10 missing faces (in simplex order, not entry
    order), a non-finite level (the first in entry order) or a bad
    "vertices" value. Where a bulk check fails, a scan of the entries words
    the error. Integral floats such as 1.0 are valid ids. Text nested too
    deeply for `json.loads` raises a one-line ValueError too.
    """
    if isinstance(obj, (str, bytes)):
        try:
            obj = json.loads(obj)
        except RecursionError:
            raise ValueError("complex JSON is nested too deeply to parse") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("simplices"), list):
        raise ValueError('complex JSON must be an object with a "simplices" list')
    entries = obj["simplices"]
    bulk = _read_entries(entries)
    if bulk is None:
        for k, e in enumerate(entries):
            _check_entry(k, e)
    vs, flat, levels = bulk
    widths = np.fromiter(map(len, vs), np.int64, len(vs))
    try:
        ids = np.array(flat, dtype=np.int64)
    except OverflowError:  # each width's rows are converted on their own, in order
        ids = None
    starts = np.cumsum(widths) - widths
    seen, first = np.unique(widths, return_index=True)
    entry, rows = {}, {}  # width -> entry indices, and their sorted vertex rows
    for w in seen[np.argsort(first)].tolist():  # widths in order of first entry
        entry[w] = idx = np.flatnonzero(widths == w)
        if ids is None:
            rows[w] = _sorted_rows([vs[i] for i in idx.tolist()], w)
        else:
            rows[w] = _sorted_rows(ids[starts[idx, None] + np.arange(w)], w)
        if rows[w] is None:
            for v in vs:
                simplex(v)
    # a closed set with a row of width w holds at least 2^w - 1 rows, so a
    # row wider than the bit length of the entry count lacks a face
    if max(rows, default=0) > len(entries).bit_length():
        _reject_unclosed(vs, rows)
    rank = {}
    try:
        cx = SimplicialComplex(rows, _ids=rank)
    except _MissingFace:
        _reject_unclosed(vs, rows)
    if any(len(r) > len(cx.ids_of_dim(w - 1)) for w, r in rank.items()):
        _raise_first_duplicate(vs)
    try:
        levels = np.array(levels, dtype=float)
    except OverflowError:  # an integer literal beyond the float range
        levels = None
    if levels is None or not np.isfinite(levels).all():
        for e in entries:
            _check_level(e)
    level = np.empty(len(cx))
    for w, idx in entry.items():
        level[cx.ids_of_dim(w - 1).start + rank[w]] = levels[idx]
    vertices = obj.get("vertices", cx.vertex_count)
    if not _is_json_int(vertices):
        raise ValueError(f'"vertices" must be an integer, got {vertices!r}')
    if int(vertices) != cx.vertex_count:
        raise ValueError("vertex count does not match simplex list")
    return build_order(cx, level)


def _read_entries(entries):
    """The entries' vertex lists, all their vertex ids in one flat list and
    their levels, or None if an entry fails `_check_entry`. Checks the set
    of types of the entries, the vertex lists, the vertex ids and the
    levels; an integral float id stays a float until the int64 conversion."""
    try:
        vs = list(map(operator.itemgetter("v"), entries))
        levels = list(map(operator.itemgetter("level"), entries))
    except (KeyError, TypeError):
        return None
    if not all(issubclass(t, dict) for t in set(map(type, entries))):
        return None
    if not all(issubclass(t, list) for t in set(map(type, vs))):
        return None
    if not all(_is_int_type(t) or issubclass(t, float) for t in set(map(type, levels))):
        return None
    flat = list(itertools.chain.from_iterable(vs))
    ids = set(map(type, flat))
    if not all(_is_int_type(t) or issubclass(t, float) for t in ids):
        return None
    if any(issubclass(t, float) for t in ids) and not all(map(_is_json_int, flat)):
        return None
    return vs, flat, levels


def _check_entry(k: int, e) -> None:
    if not isinstance(e, dict) or not isinstance(e.get("v"), list):
        raise ValueError(f'simplex entry {k} must be an object with a "v" list')
    if not all(map(_is_json_int, e["v"])):
        raise ValueError(f"simplex entry {k} has a non-integer vertex id: {e['v']!r}")
    lv = e.get("level")
    if isinstance(lv, bool) or not isinstance(lv, (int, float)):
        raise ValueError(f"simplex entry {k} needs a numeric level, got {lv!r}")


def _raise_first_duplicate(vs) -> None:
    first = {}
    for k, v in enumerate(vs):
        s = tuple(sorted(map(int, v)))
        if s in first:
            raise ValueError(f"simplex {list(s)} is listed twice, in entries {first[s]} and {k}")
        first[s] = k


def _reject_unclosed(vs, rows) -> None:
    """Raise for the given rows (width -> vertex rows), which lack a face:
    for the first duplicate entry if there is one, else for the first 10
    missing faces."""
    _raise_first_duplicate(vs)
    raise ValueError("invalid complex: " + "; ".join(_absent_faces(rows)))


def _absent_faces(rows) -> list:
    """"missing face F of S" for the first 10 faces that the given rows
    lack, by dimension, then lexicographic order, then vertex-removal order;
    `rows` maps a width to vertex rows."""
    given = {w: set(map(tuple, r.tolist())) for w, r in rows.items()}
    absent = (
        f"missing face {f} of {s}"
        for w in sorted(given.keys() - {1})
        for s in sorted(given[w])
        for f in faces_of(s)
        if f not in given.get(w - 1, ())
    )
    return list(itertools.islice(absent, 10))


def _check_level(e) -> None:
    try:
        lv = float(e["level"])
    except OverflowError:  # an integer literal beyond the float range
        lv = math.inf
    if not math.isfinite(lv):
        raise ValueError(f"non-finite level {lv} for simplex {list(e['v'])}")


def _is_int_type(t) -> bool:
    return issubclass(t, int) and not issubclass(t, bool)


def _is_json_int(x) -> bool:
    """True for a JSON integer; an integral float such as 1.0 counts as one."""
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or isinstance(x, float) and x.is_integer()
