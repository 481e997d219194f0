"""Seeded inputs, CLI command sets and output checks for the benchmark.

A workload turns a seed into one or more instances. An instance is a set of
input files plus the CLI commands that make up one job on them, and a check
that decides from the job's stdout bytes alone whether the job was correct.
The checks recompute what they need with their own arithmetic from the
inputs this module generated; of stablevol they use only the JSON schemas
it publishes, never its code.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import jsonschema
import numpy as np
from scipy.spatial import Delaunay

# Why each workload is in the benchmark (copied into BENCHMARK.json).
WHY = {
    "pd-cloud2d": "pd on a seeded uniform 2D cloud: geometry-bound (Delaunay, alpha levels), no LP, no threads",
    "torus-complex3d": "vol --method sub then rsc on a 3D complex JSON: HiGHS and cohomology, no geometry",
    "stat-defects2d": "stat with 2 threads on the defects lattice: many small pipelines through the parallel map",
}
WORKLOADS = tuple(WHY)

CLOUD_POINTS = 1600
TORUS_GRID = (36, 14)  # samples around the big and the small circle
TORUS_INSTANCES = 4
TORUS_BASE_SEED = 7
TORUS_JITTER = 0.001
STAT_FIXTURE_SEED = 7
STAT_TRIALS = 8


class CheckError(Exception):
    """A job's output failed a check."""


@dataclass
class Instance:
    """One job's inputs: CLI argument lists and a check of their stdouts."""

    label: str
    commands: list
    check: Callable[[list], None]


def build(name: str, seed: int, workdir: Path, cli) -> list:
    """Writes the inputs of workload `name` for `seed` under `workdir`.

    `cli` is the stablevol.cli module; it is used only for the set-up steps
    the workload definition names (the `gen` fixture, and `pd` to pick the
    most persistent pair), never inside a check.
    """
    if name == "pd-cloud2d":
        return [_cloud_instance(seed, workdir)]
    if name == "torus-complex3d":
        return [_torus_instance(seed, i, workdir, cli) for i in range(TORUS_INSTANCES)]
    if name == "stat-defects2d":
        return [_stat_instance(seed, workdir, cli)]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _write_points(path: Path, pts: np.ndarray) -> None:
    path.write_text("".join(" ".join(repr(float(x)) for x in row) + "\n" for row in pts))


def _schemas():
    from stablevol import schemas

    return schemas


def _run_quiet(cli, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"set-up command {argv} exited {code}")
    return out.getvalue()


def most_persistent_pair(cli, path: Path) -> int:
    """Index of the most persistent finite degree-1 pair in the CLI's listing
    (ties go to the lowest index); this is the `--pair-index` a job uses."""
    pairs = json.loads(_run_quiet(cli, ["pd", str(path), "--degree", "1"]))
    pairs = pairs["diagrams"][0]["pairs"]
    finite = [(p["death"] - p["birth"], -i) for i, p in enumerate(pairs) if p["death"] is not None]
    if not finite:
        raise RuntimeError(f"{path} has no finite degree-1 pair")
    return -max(finite)[1]


# ---------------------------------------------------------------------------
# pd-cloud2d


def _cloud_instance(seed: int, workdir: Path) -> Instance:
    rng = np.random.default_rng([seed, 0])
    pts = rng.random((CLOUD_POINTS, 2)) * math.sqrt(CLOUD_POINTS)
    path = workdir / "cloud2d.txt"
    _write_points(path, pts)
    n = len(pts)

    def check(outs):
        obj = json.loads(outs[0])
        jsonschema.validate(obj, _schemas().DIAGRAMS_SCHEMA)
        if [d["degree"] for d in obj["diagrams"]] != [0, 1, 2]:
            raise CheckError("pd must list degrees 0, 1 and 2")
        for d in obj["diagrams"]:
            essential = [p for p in d["pairs"] if p["death"] is None]
            # The Delaunay complex of the cloud is its convex hull: contractible.
            if len(essential) != (1 if d["degree"] == 0 else 0):
                raise CheckError(f"degree {d['degree']}: {len(essential)} essential pairs")
            if any(p["death"] is not None and p["death"] < p["birth"] for p in d["pairs"]):
                raise CheckError(f"degree {d['degree']}: a pair dies before it is born")
        # Every vertex enters at 0 and every edge later, so each vertex but
        # one dies at a positive level: n degree-0 pairs in all.
        if len(obj["diagrams"][0]["pairs"]) != n:
            raise CheckError(f"{len(obj['diagrams'][0]['pairs'])} degree-0 pairs for {n} points")

    return Instance("cloud", [["pd", str(path)]], check)


# ---------------------------------------------------------------------------
# torus-complex3d


def torus_points(seed: int, instance: int) -> np.ndarray:
    """Noisy torus (radii 2 and 0.6): a base sample per instance, moved by a
    seeded jitter.

    The base sample puts one point in each cell of a grid on the torus and
    adds box noise of +-0.05; it depends only on the instance number. The
    workload seed then adds a jitter of +-0.001. Redrawing the whole sample
    per seed changed the HiGHS iteration count of the `vol` LP up to
    fourfold, and whether its optimal-mode pin needed a retry on half of
    the instances: noise that would hide any change to the program. The
    small jitter still changes levels, ties and some Delaunay cells.
    """
    nu, nv = TORUS_GRID
    rng = np.random.default_rng([TORUS_BASE_SEED, instance])
    i, j = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    u = (i.ravel() + rng.random(nu * nv)) * (2.0 * math.pi / nu)
    v = (j.ravel() + rng.random(nu * nv)) * (2.0 * math.pi / nv)
    ring = 2.0 + 0.6 * np.cos(v)
    pts = np.stack([ring * np.cos(u), ring * np.sin(u), 0.6 * np.sin(v)], axis=1)
    pts += rng.uniform(-0.05, 0.05, pts.shape)
    return pts + np.random.default_rng([seed, 1, instance]).uniform(-TORUS_JITTER, TORUS_JITTER, pts.shape)


class Complex:
    """Delaunay complex of 3D points with Delaunay-Rips levels (half the
    longest edge), built with scipy and numpy only.

    `by_dim[k]` holds the k-simplices as lexicographically sorted rows.
    Listing them by (dimension, rows) gives simplex ids in the order the CLI
    documents for complex JSON inputs, so output ids can be checked here.
    """

    def __init__(self, pts: np.ndarray):
        tets = np.sort(Delaunay(pts).simplices, axis=1)
        self.n = len(pts)
        self.by_dim = [np.arange(self.n)[:, None]]
        for k in (1, 2, 3):
            faces = np.concatenate([tets[:, list(c)] for c in combinations(range(4), k + 1)])
            self.by_dim.append(np.unique(faces, axis=0))
        self.offset = np.cumsum([0] + [len(a) for a in self.by_dim])
        self.levels = [np.zeros(self.n)]
        for k in (1, 2, 3):
            rows = self.by_dim[k]
            longest = np.zeros(len(rows))
            for a, b in combinations(range(k + 1), 2):
                d = np.linalg.norm(pts[rows[:, a]] - pts[rows[:, b]], axis=1)
                longest = np.maximum(longest, d)
            self.levels.append(longest / 2.0)
        e = self.by_dim[1]
        self.edge_keys = e[:, 0] * self.n + e[:, 1]  # ascending, rows are sorted

    def to_json(self) -> str:
        simplices = [
            {"v": [int(x) for x in row], "level": float(lv)}
            for rows, lvs in zip(self.by_dim, self.levels)
            for row, lv in zip(rows, lvs)
        ]
        return json.dumps({"vertices": self.n, "simplices": simplices})

    def ids_to_rows(self, ids, k: int) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        lo, hi = self.offset[k], self.offset[k + 1]
        if len(ids) and (ids.min() < lo or ids.max() >= hi):
            raise CheckError(f"ids outside the {k}-simplices")
        return self.by_dim[k][ids - lo]

    def edge_ids(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        keys = np.minimum(a, b) * self.n + np.maximum(a, b)
        pos = np.searchsorted(self.edge_keys, keys)
        pos = np.minimum(pos, len(self.edge_keys) - 1)
        if np.any(self.edge_keys[pos] != keys):
            raise CheckError("a boundary edge is not in the complex")
        return pos + self.offset[1]


def _torus_instance(seed: int, instance: int, workdir: Path, cli) -> Instance:
    cx = Complex(torus_points(seed, instance))
    path = workdir / f"torus{instance}.json"
    path.write_text(cx.to_json())
    idx = str(most_persistent_pair(cli, path))
    commands = [
        ["vol", str(path), "--pair-index", idx, "--method", "sub", "--epsilon", "0.1"],
        ["rsc", str(path), "--pair-index", idx],
    ]

    def check(outs):
        schema = _schemas().VOLUME_SCHEMA
        vol, rsc = (json.loads(o) for o in outs)
        for obj, method in ((vol, "lp-sub"), (rsc, "rsc")):
            jsonschema.validate(obj, schema)
            if obj["method"] != method:
                raise CheckError(f"method {obj['method']!r}, expected {method!r}")
        # vol: the reported boundary is the Z/2 boundary of the reported cells.
        tri = cx.ids_to_rows(vol["cells"], 2)
        faces = np.concatenate([cx.edge_ids(tri[:, a], tri[:, b]) for a, b in ((0, 1), (0, 2), (1, 2))])
        ids, counts = np.unique(faces, return_counts=True)
        if sorted(int(i) for i in ids[counts % 2 == 1]) != vol["boundary"]:
            raise CheckError("vol boundary is not the Z/2 boundary of its cells")
        # rsc: a closed simple loop made of complex edges, weighed by hops.
        loop = rsc["boundary"]
        edges = cx.ids_to_rows(loop, 1)
        if rsc["status"] != "ok" or len(loop) < 3 or len(set(loop)) != len(loop):
            raise CheckError(f"rsc loop has {len(loop)} edges, status {rsc['status']!r}")
        verts, deg = np.unique(edges, return_counts=True)
        if np.any(deg != 2) or len(verts) != len(loop) or not _connected(edges):
            raise CheckError("rsc loop is not one closed cycle")
        if rsc["weight"] != float(len(loop)):
            raise CheckError("rsc weight is not the hop count of its loop")

    return Instance(f"torus{instance}", commands, check)


def _connected(edges: np.ndarray) -> bool:
    adj = {}
    for a, b in edges.tolist():
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    start = next(iter(adj))
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


# ---------------------------------------------------------------------------
# stat-defects2d


def _stat_instance(seed: int, workdir: Path, cli) -> Instance:
    path = workdir / "defects.txt"
    _run_quiet(cli, ["gen", "lattice-2d-defects", "--seed", str(STAT_FIXTURE_SEED), "-o", str(path)])
    n = sum(1 for line in path.read_text().splitlines() if line.strip())
    idx = str(most_persistent_pair(cli, path))
    command = ["stat", str(path), "--pair-index", idx, "--noise", "0.05",
               "--trials", str(STAT_TRIALS), "--threads", "2", "--seed", str(seed)]

    def check(outs):
        obj = json.loads(outs[0])
        jsonschema.validate(obj, _schemas().FREQUENCY_SCHEMA)
        if obj["trials"] != STAT_TRIALS or not 0 <= obj["matched"] <= STAT_TRIALS:
            raise CheckError(f"matched {obj['matched']} of {obj['trials']} trials")
        freqs = obj["frequencies"]
        if [f["point"] for f in freqs] != list(range(n)):
            raise CheckError("frequencies do not list every input point once, in order")
        if not all(0.0 <= f["f"] <= 1.0 for f in freqs):
            raise CheckError("a frequency is outside [0, 1]")

    return Instance("defects", [command], check)
