import functools
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

import stablevol
from stablevol import cli, schemas, volopt
from stablevol import persistence as pers
from helpers import (
    MISSING_FACE_CASES,
    VIEWS,
    DictChildrenTree,
    appendix_filtration,
    build_dual_graph_oracle,
    complex_cases,
    complex_from_json_oracle,
    complex_json_text,
    complex_to_json,
    compute_tree_oracle,
    geometry_cases,
    load_tracing,
    missing_faces,
    pd_json_oracle,
    reduce_oracle,
    torus3d_order,
)
from stablevol.alpha import format_pointcloud
from stablevol.cli import PairSelectionError, _load_input, _select_pair, main
from stablevol.complexes import SimplicialComplex, build_order


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def fig1_file(tmp_path, capsys):
    path = tmp_path / "fig1.txt"
    assert main(["gen", "fig1-five-points", "-o", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["gen", "lattice-3x3x3", "--seed", "7", "-o", str(a)]) == 0
    assert main(["gen", "lattice-3x3x3", "--seed", "7", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.txt"
    assert main(["gen", "lattice-3x3x3", "--seed", "8", "-o", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


# sha256 of the `gen` output of each fixture at seeds 0 and 7, as recorded
# when a fixture was still a PointCloud object; an array must give the
# same bytes
GEN_SHA256 = {
    ("fig1-five-points", 0): "07c11c22bc74bd00f31a5494efd9216ef79edd0568ecec8a8b53300e950d9380",
    ("fig1-five-points", 7): "07c11c22bc74bd00f31a5494efd9216ef79edd0568ecec8a8b53300e950d9380",
    ("lattice-3x3x3", 0): "17fa372738a6de879a86de640c10ff81bd19983811b75289c1fabf5732be9182",
    ("lattice-3x3x3", 7): "83e5cd6f11655fefffd219ff4b5181e6ed66d01eeabd8a1f843c74b5085c00a3",
    ("lattice-2d-defects", 0): "c4d0d1fd5a78fd3d15759de301d0b8403d644c67130a6f07b67fe925e7caddec",
    ("lattice-2d-defects", 7): "e7ca6fa0589f2f54356c6419fd9c3673936ed2c5a98680dc195c575fa78cfdf9",
    ("hexagon", 0): "e02c83f6e5cb4cf03db83d0a314f78183d444b8590d7c7a00180d7ec4ac8e95c",
    ("hexagon", 7): "e02c83f6e5cb4cf03db83d0a314f78183d444b8590d7c7a00180d7ec4ac8e95c",
    ("annulus", 0): "e9a5667a7d288e0551b94097de22817831689f905d3fe8b1ff31d18218c1330a",
    ("annulus", 7): "64175a75df386828ab07783709fe85d15852ce017fe0a913604d533da214ce66",
}


@pytest.mark.parametrize("fixture,seed", sorted(GEN_SHA256))
def test_gen_bytes_are_pinned(fixture, seed, tmp_path):
    import hashlib

    path = tmp_path / "gen.txt"
    assert main(["gen", fixture, "--seed", str(seed), "-o", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GEN_SHA256[fixture, seed]


def test_pd_fig1(fig1_file, capsys):
    code, out, _ = run(["pd", fig1_file, "--degree", "1"], capsys)
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schemas.DIAGRAMS_SCHEMA)
    pairs = obj["diagrams"][0]["pairs"]
    assert len(pairs) == 2
    vals = sorted((p["birth"], p["death"]) for p in pairs)
    assert abs(vals[0][1] - 1 / math.sqrt(3)) < 1e-9
    assert abs(vals[1][1] - 1 / math.sqrt(2)) < 1e-9


def test_pd_squared_maps_levels(fig1_file, capsys):
    code, out, _ = run(["pd", fig1_file, "--degree", "1", "--squared"], capsys)
    obj = json.loads(out)
    vals = sorted((p["birth"], p["death"]) for p in obj["diagrams"][0]["pairs"])
    assert abs(vals[0][0] - 0.25) < 1e-9
    assert abs(vals[1][1] - 0.5) < 1e-9


def test_pd_complex_json_input(tmp_path, capsys):
    o = appendix_filtration()
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(complex_to_json(o)))
    code, out, _ = run(["pd", str(path), "--degree", "1"], capsys)
    assert code == 0
    pairs = json.loads(out)["diagrams"][0]["pairs"]
    assert (2.0, 7.0) in {(p["birth"], p["death"]) for p in pairs}


def test_pd_scatter(fig1_file, tmp_path, capsys):
    tsv = tmp_path / "sc.tsv"
    code, out, _ = run(["pd", fig1_file, "--scatter", str(tsv)], capsys)
    assert code == 0
    lines = tsv.read_text().strip().splitlines()
    assert lines[0] == "degree\tbirth\tdeath"
    assert len(lines) > 3


def test_pd_opens_o_before_it_writes_the_scatter_file(fig1_file, tmp_path, capsys):
    tsv = tmp_path / "sc.tsv"
    missing = tmp_path / "missing-dir" / "out.json"
    code, out, err = run(["pd", fig1_file, "--scatter", str(tsv), "-o", str(missing)], capsys)
    assert (code, out) == (2, "") and "No such file or directory" in err
    assert not tsv.exists()
    # the same outputs once -o can be opened: scatter and -o as written alone
    target = tmp_path / "out.json"
    assert run(["pd", fig1_file, "--scatter", str(tsv), "-o", str(target)], capsys)[:2] == (0, "")
    code, want, _ = run(["pd", fig1_file], capsys)
    assert code == 0 and target.read_text() == want
    scatter = tsv.read_text()
    tsv.unlink()
    assert run(["pd", fig1_file, "--scatter", str(tsv)], capsys)[:2] == (0, want)
    assert tsv.read_text() == scatter
    # one file for both: the JSON, written last and never shorter than the
    # table, overwrites it whole, as when the table was written first
    assert run(["pd", fig1_file, "--scatter", str(tsv), "-o", str(tsv)], capsys)[:2] == (0, "")
    assert tsv.read_text() == want


def test_empty_input_exit_2(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("")
    code, _, err = run(["pd", str(p)], capsys)
    assert code == 2


def test_degenerate_input_exit_3(tmp_path, capsys):
    p = tmp_path / "two.txt"
    p.write_text("0 0\n1 1\n")  # too few points for a 2D triangulation
    code, _, err = run(["pd", str(p)], capsys)
    assert code == 3


def test_square_of_side_1e200_has_its_exact_diagram(tmp_path, capsys):
    # the squared extent of the raw square overflows, but that of the points
    # Qhull sees, scaled by 2**-665, does not; the loop dies at the nearest
    # float to 1e200 / sqrt(2)
    p = tmp_path / "huge.txt"
    p.write_text("0 0\n1e200 0\n0 1e200\n1e200 1e200\n")
    code, out, err = run(["pd", str(p)], capsys)
    assert code == 0 and err == ""
    pairs = {d["degree"]: [(q["birth"], q["death"]) for q in d["pairs"]]
             for d in json.loads(out)["diagrams"]}
    assert pairs == {0: [(0.0, 5e199)] * 3 + [(0.0, None)],
                     1: [(5e199, 7.071067811865475e199)], 2: []}


def test_overflowing_coordinates_one_stderr_line_in_a_fresh_process(tmp_path):
    # numpy's RuntimeWarnings go to stderr in a real process; pytest's
    # warning capture would hide them from capsys
    p = tmp_path / "huge.txt"
    p.write_text("1e308 0\n-1e308 1\n0 1e308\n5 5\n")
    src = str(Path(stablevol.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "stablevol.cli", "pd", str(p)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: coordinate range too large: the squared bounding-box extent overflows"
    ]


def test_overflowing_alpha_level_one_stderr_line_in_a_fresh_process(tmp_path):
    # the 3x3x3 grid at 2**1020 triangulates, but the placeholder level of
    # its flat tetrahedra overflows once scaled back to the input's units
    grid = np.array(list(itertools.product(range(3), repeat=3)), dtype=float)
    p = tmp_path / "grid.txt"
    p.write_text(format_pointcloud(np.ldexp(grid, 1020)))
    src = str(Path(stablevol.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "stablevol.cli", "pd", str(p)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: coordinate range too large: an alpha level overflows"
    ]


@pytest.mark.parametrize("side, message", [
    # the diagonal of the square is longer than the largest float
    ("1.5e308", "coordinate range too large: an edge length overflows"),
    # every edge length is finite, but the loop's weight is not
    ("1e308", "coordinate range too large: a loop weight overflows"),
], ids=["edge", "loop"])
def test_rsc_euclidean_overflow_one_stderr_line_in_a_fresh_process(tmp_path, side, message):
    p = tmp_path / "square.txt"
    p.write_text(f"0 0\n{side} 0\n{side} {side}\n0 {side}\n")
    src = str(Path(stablevol.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "stablevol.cli", "rsc", str(p), "--pair-index", "0", "--euclidean"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("shift", [0, 2**19, 2**21, 2**22])
@pytest.mark.parametrize("m", [4, 8, 10, 15])
def test_pd_on_a_translated_integer_grid_is_the_closed_form(m, shift, tmp_path, capsys):
    # degree 0: m*m - 1 pairs (0, 1/2) and one essential class; degree 1:
    # (m - 1)**2 pairs (1/2, sqrt(2)/2), one per unit square. From a shift of
    # 2**19 on, the jitter rounds to a few ulps, Qhull's cells fail the
    # certificate and Bowyer-Watson builds the complex
    path = tmp_path / "grid.txt"
    path.write_text("".join(f"{x + shift} {y + shift}\n" for x in range(m) for y in range(m)))
    code, out, _ = run(["pd", str(path)], capsys)
    assert code == 0
    pairs = {d["degree"]: d["pairs"] for d in json.loads(out)["diagrams"]}
    finite = [(p["birth"], p["death"]) for p in pairs[0] if p["death"] is not None]
    assert len(pairs[0]) - len(finite) == 1
    assert finite == [(0.0, pytest.approx(0.5, rel=1e-12))] * (m * m - 1)
    loops = [(p["birth"], p["death"]) for p in pairs[1]]
    want = (pytest.approx(0.5, rel=1e-12), pytest.approx(math.sqrt(0.5), rel=1e-12))
    assert loops == [want] * (m - 1) ** 2


def test_pd_on_a_3d_cloud_at_2_to_the_400_is_the_scaled_diagram(tmp_path, capsys):
    # Qhull once crashed the process (SIGSEGV) on this input; it now gets a
    # copy scaled by an exact power of two, so the run goes in a subprocess
    pts = np.random.default_rng(400).random((300, 3)) * 40
    one, big = tmp_path / "one.txt", tmp_path / "big.txt"
    for path, p in ((one, pts), (big, np.ldexp(pts, 400))):
        path.write_text("".join(" ".join(map(repr, row)) + "\n" for row in p.tolist()))
    code, out, _ = run(["pd", str(one)], capsys)
    assert code == 0
    want = json.loads(out)
    for d in want["diagrams"]:
        for pair in d["pairs"]:
            for key in ("birth", "death"):
                if pair[key] is not None:
                    pair[key] = math.ldexp(pair[key], 400)
    src = str(Path(stablevol.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "stablevol.cli", "pd", str(big)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout) == want


NON_FINITE_TOKENS = ["NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="1e400")]


def non_finite_level_json(token):
    return (
        '{"vertices": 2, "simplices": [{"v": [0], "level": 0}, '
        '{"v": [1], "level": 0}, {"v": [0, 1], "level": %s}]}' % token
    )


@pytest.mark.parametrize("token", NON_FINITE_TOKENS)
def test_non_finite_level_exit_2(tmp_path, capsys, token):
    p = tmp_path / "cx.json"
    p.write_text(non_finite_level_json(token))
    code, out, err = run(["pd", str(p)], capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "non-finite level" in err


MALFORMED_COMPLEX_JSON = [
    "{}",
    '{"simplices": 5}',
    '{"simplices": [7]}',
    '{"simplices": [{"v": [0]}]}',
    '{"simplices": [{"v": 5, "level": 0}]}',
    '{"simplices": [{"v": [0], "level": null}]}',
    '{"vertices": null, "simplices": [{"v": [0], "level": 0}]}',
    '{"simplices": [{"v": [0.5], "level": 0}]}',
    '{"simplices": [{"v": [0], "level": 0}, {"v": [0], "level": 5}]}',
    '{"simplices": [{"v": [0], "level": 0}, {"v": [1], "level": 0}, '
    '{"v": [1, 0], "level": 1}, {"v": [0, 1], "level": 1}]}',
]
MALFORMED_COMPLEX_JSON_IDS = [
    "no-simplices", "simplices-number", "entry-number", "no-level", "v-number", "level-null",
    "vertices-null", "v-fraction", "duplicate-vertex-entry", "duplicate-reordered-edge",
]


@pytest.mark.parametrize("text", MALFORMED_COMPLEX_JSON, ids=MALFORMED_COMPLEX_JSON_IDS)
def test_malformed_complex_json_exit_2(tmp_path, capsys, text):
    p = tmp_path / "cx.json"
    p.write_text(text)
    code, out, err = run(["pd", str(p)], capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "text",
    MALFORMED_COMPLEX_JSON + [non_finite_level_json(t) for t in ("NaN", "Infinity", "-Infinity",
                                                                 "1" + "0" * 400)],
    ids=MALFORMED_COMPLEX_JSON_IDS + ["NaN", "Infinity", "-Infinity", "1e400"],
)
def test_complex_json_error_message_matches_oracle(tmp_path, capsys, text):
    """The loader words each rejection as the per-entry oracle loader does."""
    with pytest.raises(ValueError) as want:
        complex_from_json_oracle(text)
    p = tmp_path / "cx.json"
    p.write_text(text)
    code, out, err = run(["pd", str(p)], capsys)
    assert (code, out, err) == (2, "", f"error: {want.value}\n")


@pytest.mark.parametrize("name", sorted(MISSING_FACE_CASES))
def test_complex_json_missing_face_exit_2(tmp_path, capsys, name):
    text, message = MISSING_FACE_CASES[name]
    p = tmp_path / "cx.json"
    p.write_text(text)
    assert run(["pd", str(p)], capsys) == (2, "", f"error: {message}\n")


def test_deeply_nested_complex_json_exit_2_in_a_fresh_process(tmp_path):
    # json.loads runs out of recursion depth on it
    p = tmp_path / "deep.json"
    p.write_text('{"simplices": ' + "[" * 200_000 + "1" + "]" * 200_000 + "}")
    src = str(Path(stablevol.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "stablevol.cli", "pd", str(p)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: complex JSON is nested too deeply to parse"]


@pytest.mark.parametrize("text", ["[1, 2]\n", '\n  "simplices"\n', "[]"],
                         ids=["array", "string", "empty-array"])
def test_json_that_is_not_an_object_exit_2_with_the_loader_message(tmp_path, capsys, text):
    # a first non-blank character of [ or " is JSON, not a pointcloud row
    p = tmp_path / "cx.json"
    p.write_text(text)
    assert run(["pd", str(p)], capsys) == (
        2, "", 'error: complex JSON must be an object with a "simplices" list\n')


# runs main(argv) in a fresh interpreter, then prints its exit code and its
# peak resident memory (VmHWM, KiB) to stdout
PEAK_PROBE = """
import contextlib, io, sys
from stablevol.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(code, next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


def test_one_wide_entry_exits_2_before_building_its_faces(tmp_path):
    # the closure of one 24-vertex entry has 2^24 - 1 simplices; the file
    # lacks faces, so the loader stops before it builds any of them
    p = tmp_path / "wide.json"
    p.write_text(json.dumps({"simplices": [{"v": list(range(24)), "level": 0}]}))
    src = str(Path(stablevol.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_PROBE, "pd", str(p)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 2
    message = "invalid complex: " + "; ".join(missing_faces([tuple(range(24))]))
    assert proc.stderr.splitlines() == [f"error: {message}"]
    assert peak_kib < 100 * 1024


def test_unclosed_rows_at_the_bit_length_exit_2_at_bounded_memory(tmp_path):
    # 4,000 distinct width-12 rows without any of their faces: 12 is the bit
    # length of 4,000, so they pass the width precheck, and a build that
    # closed them before checking would form about 4,000 * C(12, 6) = 3.7M
    # rows of width 6; the loader stops at the first dimension that gains a row
    rng = np.random.default_rng(12)
    rows = set()
    while len(rows) < 4000:
        rows.add(tuple(sorted(rng.choice(1000, 12, replace=False).tolist())))
    rows = sorted(rows)
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"simplices": [{"v": list(v), "level": 0} for v in rows]}))
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"simplices": [
        {"v": [0], "level": 0}, {"v": [1], "level": 0}, {"v": [0, 1], "level": 1}]}))
    src = str(Path(stablevol.__file__).resolve().parents[1])
    procs = [
        subprocess.run(
            [sys.executable, "-c", PEAK_PROBE, "pd", str(p)],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        for p in (wide, small)
    ]
    (code, peak_kib), (small_code, small_kib) = (map(int, p.stdout.split()) for p in procs)
    assert (code, small_code) == (2, 0)
    message = "invalid complex: " + "; ".join(missing_faces(rows))
    assert procs[0].stderr.splitlines() == [f"error: {message}"]
    assert peak_kib - small_kib < 40 * 1024


def _entries_text(*rows):
    return json.dumps({"simplices": [{"v": list(v), "level": len(v) - 1} for v in rows]})


@pytest.mark.parametrize("text,first", [
    # a vertex listed twice beside an edge that lacks a vertex
    (_entries_text((0,), (0,), (0, 1)), "entries 0 and 1"),
    # the edges of a triangle are missing, a vertex below them is repeated
    (_entries_text((2, 1, 0), (0,), (1,), (2,), (1,)), "entries 2 and 4"),
    # the triangle's edge is repeated, its vertices are missing
    (_entries_text((0, 1, 2), (0, 1), (1, 2), (0, 2), (1, 0)), "entries 1 and 4"),
    # a row wider than the bit length of the entry count
    (_entries_text((0,), (0,), (0, 1, 2, 3, 4)), "entries 0 and 1"),
], ids=["same-width", "below-the-missing-faces", "above-the-missing-faces", "wide-row"])
def test_duplicate_beside_a_missing_face_is_reported_first(tmp_path, capsys, text, first):
    p = tmp_path / "cx.json"
    p.write_text(text)
    code, out, err = run(["pd", str(p)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: simplex [") and err.endswith(f"is listed twice, in {first}\n")


def test_benchmark_tracer_attaches_and_detaches(fig1_file, capsys, monkeypatch):
    """perfbench/tracing.py wraps stablevol functions by name; every name it
    resolves must exist, and uninstalling must restore the originals."""
    from stablevol import kernels, parallel
    from stablevol.complexes import SimplicialComplex

    tracing = load_tracing(monkeypatch)
    modules = {n: m for n, m in sys.modules.items() if n.startswith("stablevol") and m}
    before = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    names = [*tracing.SPANS.values(), *(t for ts in tracing.COUNTERS.values() for t in ts)]
    targets = {tracing._resolve(mod, attr) for mod, attr in names}
    tracer = tracing.Tracer()
    tracer.install(counters=True)
    try:
        patched = list(tracer._patches)
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patched)
        assert targets == {orig for _, _, orig in patched}
        assert run(["pd", fig1_file], capsys)[0] == 0
        assert tracer.job_metrics(0)["complexes.simplices"] > 0
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in patched)
    assert {(n, k): v for n, m in modules.items() for k, v in vars(m).items()} == before
    assert isinstance(kernels.active_backend(), str)
    assert SimplicialComplex([(0, 1, 2)]).simplices[-1] == (0, 1, 2)
    assert list(inspect.signature(parallel.parallel_map).parameters) == ["fn", "items", "threads"]


def test_benchmark_tracer_observes_vol_and_stat(fig1_file, tmp_path, capsys, monkeypatch):
    """Each result the tracer's observers read is there: `linprog`'s matrices
    and `solve_lp`'s residual on a vol job, and the trial counts of
    `statistical_frequencies` on a stat job."""
    tracing = load_tracing(monkeypatch)
    o = torus3d_order(12, 6)
    path = tmp_path / "torus.json"
    path.write_text(complex_json_text(o))
    table = pers.pairs(o, [1])
    rows = table.diagram_index(1)
    top = int(np.argmax(table.death_time[rows] - table.birth_time[rows]))
    jobs = [
        ["vol", str(path), "--pair-index", str(top), "--method", "sub", "--epsilon", "0.1"],
        ["stat", fig1_file, "--pair-index", "1", "--noise", "0.05", "--trials", "2", "--seed", "3"],
    ]
    metrics = []
    for argv in jobs:
        tracer = tracing.Tracer()
        tracer.install(counters=True)
        try:
            assert run(argv, capsys)[0] == 0
            metrics.append(tracer.job_metrics(0))
        finally:
            tracer.uninstall()
    vol, stat = metrics
    assert vol["volopt.lp_solves"] >= 1
    assert vol["volopt.lp_rows"] > 0 and vol["volopt.lp_cols"] > 0
    assert math.isfinite(vol["volopt.lp_residual_max"])
    assert vol["volopt.pin_retries"] == 0
    assert 0 <= stat["baselines.matched_ratio"] <= 1


@pytest.mark.parametrize(
    "side,dim,counts", [(4, 3, (0, 610, 610)), (12, 2, (0, 121, 121))], ids=["4x4x4", "12x12"]
)
def test_benchmark_tracer_exact_stage_counts_on_integer_grids(
    side, dim, counts, tmp_path, capsys, monkeypatch
):
    """On an integer grid the Gabriel test of every square's diagonal is
    borderline and reaches the exact circumsphere. The tracer counts those
    calls as `alpha.exact_circumspheres`; `predicates.exact_calls` counts the
    predicates' exact determinants alone, which the jitter leaves to none
    here, and not the elimination that the circumspheres share with them."""
    tracing = load_tracing(monkeypatch)
    grid = np.array(list(itertools.product(range(side), repeat=dim)), dtype=float)
    path = tmp_path / "grid.txt"
    path.write_text(format_pointcloud(grid))
    tracer = tracing.Tracer()
    tracer.install(counters=True)
    try:
        assert run(["pd", str(path)], capsys)[0] == 0
        m = tracer.job_metrics(0)
    finally:
        tracer.uninstall()
    names = ("predicates.exact_calls", "alpha.exact_circumspheres", "alpha.gabriel_tests")
    assert tuple(m[n] for n in names) == counts


def _scaled_output(out, k):
    """A pd or rsc output with every float (the levels, the coordinates and
    the loop weight) times 2**k."""
    if isinstance(out, float):
        return math.ldexp(out, k)
    if isinstance(out, list):
        return [_scaled_output(v, k) for v in out]
    if isinstance(out, dict):
        return {key: _scaled_output(v, k) for key, v in out.items()}
    return out


@pytest.mark.parametrize("k", [-900, -600, -540, -520, 500, 510, 520, 600, 900, 1000])
def test_outputs_scale_exactly_by_powers_of_two(k, tmp_path, capsys):
    """pd on a cloud scaled by 2**k prints the unscaled diagram with every
    level times 2**k, exactly, and so does rsc --euclidean with its loop
    weight: levels and edge lengths are computed at magnitude below 1."""
    rng = np.random.default_rng(3)
    clouds = {"2d": rng.random((30, 2)), "3d": rng.random((40, 3))}
    jobs = [("2d", ["pd"]), ("3d", ["pd"]), ("2d", ["rsc", "--euclidean", "--pair-index", "0"])]
    for name, argv in jobs:
        outs = []
        for scale in (0, k):
            path = tmp_path / f"{name}_{scale}.txt"
            path.write_text(format_pointcloud(np.ldexp(clouds[name], scale)))
            code, out, _ = run([argv[0], str(path), *argv[1:]], capsys)
            assert code == 0
            outs.append(json.loads(out))
        assert outs[1] == _scaled_output(outs[0], k)
        assert outs[0] != outs[1]


def test_pd_on_a_tiny_grid_keeps_degenerate_levels_finite(tmp_path, capsys):
    """A 4x4x4 grid scaled by 2**-540 has flat tetrahedra. The sentinel level
    they get stays finite in the scaled units, so pd prints as many pairs
    as on the unscaled grid."""
    grid = np.array(list(itertools.product(range(4), repeat=3)), dtype=float)
    counts = []
    for k in (0, -540):
        path = tmp_path / f"grid_{k}.txt"
        path.write_text(format_pointcloud(np.ldexp(grid, k)))
        code, out, _ = run(["pd", str(path)], capsys)
        assert code == 0
        counts.append(sum(len(d["pairs"]) for d in json.loads(out)["diagrams"]))
    assert counts[0] == counts[1] > 0


def test_pd_rejects_threads(fig1_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pd", fig1_file, "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_json_output_refuses_nan(tmp_path):
    from stablevol.cli import _dump_json

    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        _dump_json({"birth": float("nan")}, str(path))
    assert not path.exists()


def _zero_alphas(prog):
    # rounds to the death cell alone, which violates the constraints
    return volopt.RawSolution(np.zeros(len(prog.candidates)), 0.0, 0.0)


def _unbounded(prog):
    raise volopt.UnboundedError("l1 program unbounded")


def _solver_failure(prog):
    raise volopt.LPError("LP solver failed: iteration limit reached")


@pytest.mark.parametrize(
    "solve_lp, message",
    [
        (_zero_alphas, "rounded support violates"),
        (_unbounded, "unbounded"),
        (_solver_failure, "LP solver failed"),
    ],
    ids=["mismatch", "unbounded", "solver-failure"],
)
def test_lp_failure_exit_3(fig1_file, capsys, monkeypatch, solve_lp, message):
    monkeypatch.setattr(volopt, "solve_lp", solve_lp)
    code, out, err = run(
        ["vol", fig1_file, "--pair-index", "1", "--method", "stable-lp",
         "--epsilon", "0.05"],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert message in err


HIGHS_CORE = "scipy.optimize._highspy._core"
QHULL, CKDTREE = "scipy.spatial._qhull", "scipy.spatial._ckdtree"
# the packages whose import would run their __init__; no command needs one
SCIPY_PACKAGES = ("scipy.optimize", "scipy.spatial", "scipy.linalg", "scipy.special")
SCIPY_PARTS = (*SCIPY_PACKAGES, "scipy.sparse", HIGHS_CORE, QHULL, CKDTREE)

# run in a fresh interpreter: prints the scipy parts loaded after each step
SCIPY_PROBE = """
import contextlib, io, json, sys
import stablevol.cli as cli

def loaded():
    return [m for m in %r if m in sys.modules]

steps = {"import": loaded()}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    steps[name] = loaded()
print(json.dumps(steps))
""" % (SCIPY_PARTS,)


def test_scipy_is_loaded_only_where_it_is_used(tmp_path):
    """Which parts of scipy each command loads, with pd, stat and vol on
    points each in a fresh interpreter of its own: the extension modules
    they run, and no scipy package whose __init__ would load more."""
    cx_path = tmp_path / "cx.json"
    cx_path.write_text(json.dumps(complex_to_json(appendix_filtration())))
    fig1 = str(tmp_path / "fig1.txt")
    pair = ["--pair-index", "1"]
    processes = [
        [("gen", ["gen", "fig1-five-points", "-o", fig1]),
         ("rsc", ["rsc", str(cx_path), "--birth", "2", "--death", "7"]),
         ("vol-json", ["vol", str(cx_path), "--birth", "2", "--death", "7",
                       "--method", "stable-lp", "--epsilon", "0"])],
        [("pd", ["pd", fig1])],
        [("stat", ["stat", fig1, *pair, "--noise", "0.05", "--trials", "2", "--seed", "1"])],
        [("vol", ["vol", fig1, *pair, "--method", "stable-lp", "--epsilon", "0.05"])],
    ]
    src = str(Path(stablevol.__file__).resolve().parents[1])
    loaded = {}
    for steps in processes:
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE, json.dumps(steps)],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        loaded.update(json.loads(proc.stdout))
    assert loaded["import"] == loaded["gen"] == loaded["rsc"] == []
    # an l1 program on a complex JSON loads HiGHS's extension module alone
    assert loaded["vol-json"] == [HIGHS_CORE]
    # a pointcloud loads Qhull's module alone: the Gabriel test searches a
    # grid of its own, so neither the KD-tree's module nor scipy.sparse loads
    assert loaded["pd"] == loaded["stat"] == [QHULL]
    assert sorted(loaded["vol"]) == sorted([QHULL, HIGHS_CORE])
    assert not any(p in parts for parts in loaded.values() for p in SCIPY_PACKAGES)


def test_ambiguous_pair_exit_4(fig1_file, capsys):
    code, _, err = run(
        ["vol", fig1_file, "--birth", "0:1", "--death", "0:1"], capsys
    )
    assert code == 4
    code, _, _ = run(["vol", fig1_file, "--pair-index", "99"], capsys)
    assert code == 4
    # both selectors at once is also a selection error
    code, _, _ = run(
        ["vol", fig1_file, "--pair-index", "0", "--birth", "0.5"], capsys
    )
    assert code == 4


def test_star_pair_exit_5(fig1_file, capsys):
    # the essential component pair sorts last (infinite death)
    code, _, err = run(
        ["vol", fig1_file, "--degree", "0", "--pair-index", "4"], capsys
    )
    assert code == 5


def test_vol_methods_agree_on_codim1(fig1_file, capsys):
    outs = {}
    for method in ("stable-tree", "stable-lp", "sub"):
        code, out, _ = run(
            ["vol", fig1_file, "--pair-index", "1", "--method", method,
             "--epsilon", "0.05"],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        jsonschema.validate(obj, schemas.VOLUME_SCHEMA)
        outs[method] = obj
    assert outs["stable-tree"]["cells"] == outs["stable-lp"]["cells"]
    assert outs["stable-tree"]["cells"] == outs["sub"]["cells"]
    assert outs["stable-tree"]["boundary"] == outs["stable-lp"]["boundary"]


def test_vol_optimal_epsilon_zero_identity(fig1_file, capsys):
    _, opt, _ = run(["vol", fig1_file, "--pair-index", "1", "--method", "optimal"], capsys)
    _, sv0, _ = run(
        ["vol", fig1_file, "--pair-index", "1", "--method", "stable-tree",
         "--epsilon", "0"],
        capsys,
    )
    assert json.loads(opt)["cells"] == json.loads(sv0)["cells"]


def three_triangles_file(tmp_path):
    """Triangles (0, 1, 2), (0, 1, 3) and (0, 1, 4), ids 12 to 14, at levels
    2, 3 and 4: edge (0, 1) has three cofaces, so no merge tree exists."""
    cx = SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    path = tmp_path / "three.json"
    levels = [min(len(s) - 1, 1) for s in cx.simplices]
    levels[12:] = [2, 3, 4]
    path.write_text(json.dumps(complex_to_json(build_order(cx, levels))))
    return str(path)


@pytest.mark.parametrize("method", ["optimal", "sub"])
def test_vol_optimal_and_sub_solve_by_l1_without_a_merge_tree(tmp_path, capsys, method):
    path = three_triangles_file(tmp_path)
    code, out, _ = run(["pd", path, "--degree", "1"], capsys)
    assert code == 0 and len(json.loads(out)["diagrams"][0]["pairs"]) == 3
    for i in range(3):
        code, out, err = run(["vol", path, "--pair-index", str(i), "--method", method], capsys)
        assert code == 0 and err == ""
        obj = json.loads(out)
        jsonschema.validate(obj, schemas.VOLUME_SCHEMA)
        assert obj["method"] == f"lp-{method}" and obj["status"] == "optimal"
        assert obj["cells"] == [12 + i] and obj["pair"]["death_simplex"] == 12 + i


@pytest.mark.parametrize("argv", [["vol", "--method", "stable-tree"],
                                  ["sweep", "--epsilon-grid", "0:1:0.5"]],
                         ids=["stable-tree", "sweep"])
def test_tree_only_commands_exit_2_without_a_merge_tree(tmp_path, capsys, argv):
    path = three_triangles_file(tmp_path)
    code, out, err = run([argv[0], path, "--pair-index", "0", *argv[1:]], capsys)
    assert code == 2 and out == ""
    assert err == "error: (n-1)-simplex (0, 1) has 3 cofaces\n"


@pytest.mark.parametrize("argv, code", [
    (["vol", "--method", "optimal"], 0),
    (["vol", "--method", "sub"], 0),
    (["vol", "--method", "stable-tree"], 2),
    (["sweep", "--epsilon-grid", "0:1:0.5"], 2),
], ids=["optimal", "sub", "stable-tree", "sweep"])
def test_a_failed_dual_graph_condition_is_met_once(tmp_path, capsys, monkeypatch, argv, code):
    # pairs() keeps the ConditionError on the table; the commands re-raise it
    from stablevol import dualtree

    path = three_triangles_file(tmp_path)
    calls = []
    build = dualtree.build_dual_graph

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(dualtree, "build_dual_graph", counted)
    monkeypatch.setattr(cli, "build_dual_graph", counted)
    got, out, err = run([argv[0], path, "--pair-index", "0", *argv[1:]], capsys)
    assert got == code and len(calls) == 1
    if code:
        assert out == "" and err == "error: (n-1)-simplex (0, 1) has 3 cofaces\n"


def one_dim_order(cycle, seed):
    """A path or a cycle on eight vertices with seeded levels."""
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1) for i in range(7)] + ([(0, 7)] if cycle else [])
    cx = SimplicialComplex(edges)
    vertex_level = rng.random(8)
    levels = [vertex_level[s[0]] if len(s) == 1 else max(vertex_level[list(s)]) + rng.random()
              for s in cx.simplices]
    return build_order(cx, levels)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("cycle", [False, True], ids=["path", "cycle"])
def test_pd_and_vol_on_one_dimensional_complexes_match_reduce(tmp_path, capsys, cycle, seed):
    # degree 0 is codimension 1 here, so vol builds a merge tree for it
    o = one_dim_order(cycle, seed)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(complex_to_json(o)))
    table = pers.reduce(o)
    code, out, _ = run(["pd", str(path)], capsys)
    assert code == 0 and out == pd_json_oracle(list(table), [0, 1])
    ref = DictChildrenTree(compute_tree_oracle(build_dual_graph_oracle(o), o))
    rows = table.diagram_index(0)
    assert len(rows) == 8
    for i, row in enumerate(rows.tolist()):
        pair = table[row]
        code, out, err = run(["vol", str(path), "--degree", "0", "--pair-index", str(i)], capsys)
        if pair.essential:
            assert code == 5
            continue
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert obj["method"] == "tree-optimal"
        assert (obj["pair"]["birth_simplex"], obj["pair"]["death_simplex"]) == (
            pair.birth_simplex, pair.death_simplex)
        assert obj["cells"] == sorted(ref.descendants(pair.death_simplex))


def test_sweep_rows(fig1_file, tmp_path, capsys):
    out = tmp_path / "sweep.tsv"
    code, _, _ = run(
        ["sweep", fig1_file, "--pair-index", "1", "--epsilon-grid", "0:0.2:0.01",
         "-o", str(out)],
        capsys,
    )
    assert code == 0
    rows = [l.split("\t") for l in out.read_text().strip().splitlines()]
    assert len(rows) == 21
    sizes = [int(s) for _, s in rows]
    assert sizes == sorted(sizes, reverse=True)
    code, single, _ = run(
        ["sweep", fig1_file, "--pair-index", "1", "--epsilon-grid", "0.1:0.1:0.01"],
        capsys,
    )
    assert len(single.strip().splitlines()) == 1


def test_sweep_writes_its_rows_in_bounded_chunks(fig1_file, tmp_path, monkeypatch):
    # 40,001 rows: the table is written chunk by chunk, never joined whole,
    # and the chunks join to one line per row of sweep_sizes
    from stablevol.cli import _tree_for
    from stablevol.dualtree import sweep_sizes

    rec = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", rec)
    argv = ["sweep", fig1_file, "--pair-index", "1", "--epsilon-grid", "0:0.4:0.00001"]
    assert main(argv) == 0
    order = _load_input(fig1_file)[0]
    pairs = pers.pairs(order, [1])
    pair = _select_pair(pairs, SimpleNamespace(pair_index=1, degree=1, birth=None, death=None))
    grid = cli._parse_grid("0:0.4:0.00001").tolist()
    sizes = sweep_sizes(_tree_for(order, pairs, pair), pair, grid).tolist()
    want = "".join(f"{e!r}\t{s}\n" for e, s in zip(grid, sizes))
    assert len(sizes) == 40_001 and "".join(rec.writes) == want
    assert len(rec.writes) > 100 and max(map(len, rec.writes)) <= 64 * 1024
    # -o gets the same bytes
    target = tmp_path / "sweep.tsv"
    rec.writes.clear()
    assert main([*argv, "-o", str(target)]) == 0
    assert rec.writes == [] and target.read_text() == want


@pytest.mark.parametrize(
    "grid, rows, last", [("0:16426.6:714.2", 24, 16426.6), ("0:0.4:0.01", 41, 0.4)]
)
def test_sweep_keeps_the_end_of_an_inclusive_grid(fig1_file, capsys, grid, rows, last):
    # 23 * 714.2 rounds above 16426.6 by more than a fixed slack of 1e-12
    code, out, _ = run(["sweep", fig1_file, "--pair-index", "1", "--epsilon-grid", grid], capsys)
    lines = out.splitlines()
    assert code == 0 and len(lines) == rows
    assert float(lines[-1].split("\t")[0]) == pytest.approx(last)


@pytest.mark.parametrize("fixture, degree, n", [("lattice-3x3x3", 1, 3),
                                                ("fig1-five-points", 0, 2)])
def test_sweep_exit_2_on_a_pair_not_of_codimension_1(tmp_path, capsys, fixture, degree, n):
    # as vol --method stable-tree: the tree's degree check, not pair selection
    path = tmp_path / "in.txt"
    assert main(["gen", fixture, "--seed", "7", "-o", str(path)]) == 0
    capsys.readouterr()
    argv = ["--degree", str(degree), "--pair-index", "0"]
    want = f"error: tree volumes need degree {n - 1} pairs, got degree {degree}\n"
    for cmd in (["sweep", "--epsilon-grid", "0:0.1:0.05"], ["vol", "--method", "stable-tree"]):
        assert run([cmd[0], str(path), *argv, *cmd[1:]], capsys) == (2, "", want)


def test_stat_deterministic_across_threads(fig1_file, capsys):
    argv = ["stat", fig1_file, "--pair-index", "1", "--noise", "0.05",
            "--trials", "20", "--seed", "3"]
    _, out1, _ = run(argv + ["--threads", "1"], capsys)
    _, out2, _ = run(argv + ["--threads", "8"], capsys)
    assert out1 == out2
    obj = json.loads(out1)
    jsonschema.validate(obj, schemas.FREQUENCY_SCHEMA)
    assert obj["trials"] == 20


def test_rsc_two_bandwidths(tmp_path, capsys):
    o = appendix_filtration()
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(complex_to_json(o)))
    weights = {}
    for bw in ("1.5", "3.5"):
        code, out, _ = run(
            ["rsc", str(path), "--birth", "2", "--death", "7", "--bandwidth", bw],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        jsonschema.validate(obj, schemas.VOLUME_SCHEMA)
        weights[bw] = obj["weight"]
    assert weights["3.5"] < weights["1.5"]


@pytest.mark.parametrize("missing_input", [False, True], ids=["fig1", "missing-input"])
@pytest.mark.parametrize(
    "argv, option",
    [
        (["stat", "--noise", "nan", "--seed", "1"], "--noise"),
        (["stat", "--noise", "inf", "--seed", "1"], "--noise"),
        (["stat", "--noise", "1e308", "--seed", "1"], "--noise"),
        (["stat", "--noise", "0", "--seed", "1"], "--noise"),
        (["stat", "--noise", "-1", "--seed", "1"], "--noise"),
        (["vol", "--method", "stable-lp", "--epsilon", "nan"], "--epsilon"),
        (["vol", "--method", "sub", "--epsilon", "inf"], "--epsilon"),
        (["vol", "--method", "stable-lp", "--epsilon", "0.05", "--threshold", "nan"],
         "--threshold"),
        (["rsc", "--bandwidth", "nan"], "--bandwidth"),
        (["rsc", "--bandwidth=-inf"], "--bandwidth"),
        (["rsc", "--k-index", "3", "--bandwidth", "0.3"], "--k-index and --bandwidth"),
        (["stat", "--noise", "0.05", "--seed", "1", "--trials", "0"], "--trials"),
        (["stat", "--noise", "0.05", "--seed", "1", "--trials", "-3"], "--trials"),
    ],
    ids=["noise-nan", "noise-inf", "noise-1e308", "noise-0", "noise-neg", "epsilon-nan",
         "epsilon-inf", "threshold-nan", "bandwidth-nan", "bandwidth-neg-inf",
         "k-index-with-bandwidth", "trials-0", "trials-neg"],
)
def test_non_finite_option_exit_2(fig1_file, tmp_path, capsys, argv, option, missing_input):
    # a non-finite value, a --noise that is not positive, a --trials below 1
    # or both of rsc's step selectors: the options are checked before the
    # input is read
    path = str(tmp_path / "missing.txt") if missing_input else fig1_file
    code, out, err = run([argv[0], path, "--pair-index", "1", *argv[1:]], capsys)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and option in lines[0]


def test_rsc_reduces_once(fig1_file, capsys, monkeypatch):
    from stablevol import persistence as pers

    calls = {"reduce": 0, "cohomology_reduce": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(pers, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(pers, name, counted)
    code, out, _ = run(["rsc", fig1_file, "--pair-index", "1", "--bandwidth", "0.05"], capsys)
    assert code == 0 and json.loads(out)["status"] == "ok"
    assert calls == {"reduce": 0, "cohomology_reduce": 1}


def appendix_json_file(tmp_path):
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(complex_to_json(appendix_filtration())))
    return str(path)


def test_rsc_euclidean_on_a_complex_exit_2_before_the_reduction(tmp_path, capsys, monkeypatch):
    from stablevol import persistence as pers

    calls = []
    reduce = pers.cohomology_reduce
    monkeypatch.setattr(pers, "cohomology_reduce", lambda o: calls.append(1) or reduce(o))
    code, out, err = run(["rsc", appendix_json_file(tmp_path), "--pair-index", "0",
                          "--euclidean"], capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: euclidean weights need point coordinates"]
    assert calls == []


def test_rsc_euclidean_on_a_complex_exit_2_in_a_fresh_process(tmp_path):
    src = str(Path(stablevol.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "stablevol.cli", "rsc", appendix_json_file(tmp_path),
         "--pair-index", "0", "--euclidean"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: euclidean weights need point coordinates"]


@pytest.mark.parametrize("degree", ["0", "2"])
def test_rsc_wrong_degree_exit_2_in_a_fresh_process(fig1_file, degree):
    # a parse error, as for sweep and vol --method stable-tree, given
    # before the cohomology reduction
    src = str(Path(stablevol.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "from stablevol import cli, persistence\n"
        "def reduced(order):\n"
        "    raise AssertionError('cohomology reduced')\n"
        "persistence.cohomology_reduce = reduced\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "rsc", fig1_file, "--degree", degree, "--pair-index", "0"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: reconstructed shortest cycles need degree 1"]


def count_pairing_calls(monkeypatch):
    """Counts of `reduce` and `compute_tree` calls, under every name the
    commands reach them by."""
    from stablevol import baselines, dualtree

    calls = {"reduce": 0, "compute_tree": 0}

    def counted(*args, _name, _fn, **kwargs):
        calls[_name] += 1
        return _fn(*args, **kwargs)

    originals = {"reduce": pers.reduce, "compute_tree": dualtree.compute_tree}
    for module, name in ((pers, "reduce"), (dualtree, "compute_tree"), (cli, "compute_tree"),
                         (baselines, "compute_tree")):
        wrapper = functools.partial(counted, _name=name, _fn=originals[name])
        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_commands_on_a_2d_cloud_reduce_never_and_build_one_tree(fig1_file, capsys, monkeypatch):
    # pairs come from the union-find and the merge tree; vol and sweep
    # reuse the tree that selected the pair
    calls = count_pairing_calls(monkeypatch)
    pair = ["--pair-index", "1"]
    expected = [
        (["pd", fig1_file], 1),
        (["vol", fig1_file, *pair], 1),
        (["vol", fig1_file, *pair, "--method", "stable-tree", "--epsilon", "0.05"], 1),
        (["vol", fig1_file, *pair, "--method", "sub", "--epsilon", "0.05"], 1),
        (["vol", fig1_file, "--degree", "0", "--pair-index", "0"], 0),
        (["sweep", fig1_file, *pair, "--epsilon-grid", "0:0.2:0.1"], 1),
        (["stat", fig1_file, *pair, "--noise", "0.05", "--trials", "2", "--seed", "1"], 3),
    ]
    for argv, trees in expected:
        calls.update(reduce=0, compute_tree=0)
        code, out, err = run(argv, capsys)
        assert code == 0, err
        assert calls == {"reduce": 0, "compute_tree": trees}, argv


def test_commands_on_a_3d_cloud_reduce_never_and_build_one_tree(tmp_path, capsys, monkeypatch):
    # degree 2 of a 3D alpha complex comes from the merge tree, which vol
    # and sweep reuse; pd takes degree 1 from the edge columns
    path = str(tmp_path / "lattice.txt")
    assert main(["gen", "lattice-3x3x3", "--seed", "7", "-o", path]) == 0
    calls = count_pairing_calls(monkeypatch)
    pair = ["--degree", "2", "--pair-index", "0"]
    expected = [
        (["pd", path], 1),
        (["sweep", path, *pair, "--epsilon-grid", "0:0.2:0.1"], 1),
        (["vol", path, *pair, "--method", "stable-tree", "--epsilon", "0.05"], 1),
    ]
    for argv, trees in expected:
        calls.update(reduce=0, compute_tree=0)
        code, out, err = run(argv, capsys)
        assert code == 0, err
        assert calls == {"reduce": 0, "compute_tree": trees}, argv


def test_stable_tree_on_a_degree_1_pair_exit_2_before_any_tree(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "lattice.txt")
    assert main(["gen", "lattice-3x3x3", "--seed", "7", "-o", path]) == 0
    calls = count_pairing_calls(monkeypatch)
    code, out, err = run(["vol", path, "--degree", "1", "--pair-index", "0",
                          "--method", "stable-tree", "--epsilon", "0.05"], capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: tree volumes need degree 2 pairs, got degree 1"]
    assert calls == {"reduce": 0, "compute_tree": 0}


NEGATIVE_DEGREE = [
    ["pd", "--degree", "-1"],
    ["pd", "--degree", "1", "--degree", "-2"],
    ["vol", "--degree", "-1", "--pair-index", "0"],
    ["sweep", "--degree", "-1", "--pair-index", "0", "--epsilon-grid", "0:0.1:0.05"],
    ["stat", "--degree", "-1", "--pair-index", "0", "--noise", "0.05", "--seed", "1"],
    ["rsc", "--degree", "-1", "--pair-index", "0"],
]


@pytest.mark.parametrize("argv", NEGATIVE_DEGREE,
                         ids=["pd", "pd-repeated", "vol", "sweep", "stat", "rsc"])
def test_negative_degree_exit_2_in_a_fresh_process(fig1_file, argv):
    src = str(Path(stablevol.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "stablevol.cli", argv[0], fig1_file, *argv[1:]],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: --degree must be >= 0"]


def test_negative_stat_seed_exit_2_before_the_input_is_read(tmp_path, capsys, monkeypatch):
    path = tmp_path / "defects.txt"
    assert main(["gen", "lattice-2d-defects", "--seed", "7", "-o", str(path)]) == 0
    capsys.readouterr()

    def no_read(path):
        raise AssertionError("input read")

    monkeypatch.setattr(cli, "_load_input", no_read)
    code, out, err = run(["stat", str(path), "--pair-index", "0", "--noise", "0.05",
                          "--seed", "-3"], capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: --seed must be >= 0"]


@pytest.mark.parametrize("fixture", ["lattice-2d-defects", "fig1-five-points", "hexagon"])
def test_negative_gen_seed_exit_2(tmp_path, capsys, fixture):
    # the fixtures that ignore their seed reject a negative one too
    path = tmp_path / "out.txt"
    code, out, err = run(["gen", fixture, "--seed", "-1", "-o", str(path)], capsys)
    assert code == 2 and out == "" and not path.exists()
    assert err.splitlines() == ["error: --seed must be >= 0"]
    code, out, err = run(["gen", fixture, "--seed", "0"], capsys)
    assert code == 0 and out and err == ""


def test_degree_above_the_dimension_selects_from_an_empty_diagram(fig1_file, capsys):
    code, out, err = run(["vol", fig1_file, "--degree", "3", "--pair-index", "0"], capsys)
    assert code == 4 and out == "" and "0 pairs" in err


@pytest.mark.parametrize("bandwidth", [[], ["--bandwidth", "0.5"]], ids=["plain", "bandwidth"])
def test_rsc_essential_pair_exit_5(tmp_path, capsys, bandwidth):
    path = tmp_path / "hollow.json"
    path.write_text(json.dumps({"simplices": [
        {"v": [0], "level": 0}, {"v": [1], "level": 0}, {"v": [2], "level": 0},
        {"v": [0, 1], "level": 1}, {"v": [1, 2], "level": 1}, {"v": [0, 2], "level": 2},
    ]}))
    code, out, err = run(["rsc", str(path), "--pair-index", "0", *bandwidth], capsys)
    assert code == 5 and out == ""
    assert len(err.strip().splitlines()) == 1


def test_outputs_are_byte_identical_across_runs(fig1_file, capsys):
    for argv in (
        ["pd", fig1_file],
        ["vol", fig1_file, "--pair-index", "1", "--method", "stable-lp",
         "--epsilon", "0.05"],
        ["sweep", fig1_file, "--pair-index", "1", "--epsilon-grid", "0:0.3:0.05"],
    ):
        _, a, _ = run(argv, capsys)
        _, b, _ = run(argv, capsys)
        assert a == b


def test_vol_sub_vs_stable_divergence_3d(tmp_path, capsys):
    # 3D degree-1 pair whose optimal volume excludes the tighter path: the
    # stable volume escapes it, the sub-volume stays inside and is larger
    import numpy as np
    from stablevol.alpha import format_pointcloud

    rng = np.random.default_rng(2)
    n = int(rng.integers(10, 16))
    pts = rng.random((n, 3)) * 2
    path = tmp_path / "cloud3d.txt"
    path.write_text(format_pointcloud(pts))
    sel = ["--birth", "0.36:0.38", "--death", "0.49:0.50"]
    _, opt, _ = run(["vol", str(path), *sel, "--method", "optimal"], capsys)
    _, stab, _ = run(["vol", str(path), *sel, "--method", "stable-lp",
                      "--epsilon", "0.05"], capsys)
    _, sub, _ = run(["vol", str(path), *sel, "--method", "sub",
                     "--epsilon", "0.05"], capsys)
    ov = set(json.loads(opt)["cells"])
    sv = set(json.loads(stab)["cells"])
    sb = set(json.loads(sub)["cells"])
    assert not sv <= ov
    assert sb <= ov
    assert len(sb) > len(sv)


# ---------------------------------------------------------------------------
# pd's writer and pair selection against the pair-list oracles

PD_CASES = sorted([*geometry_cases(), *complex_cases()])


@pytest.fixture(scope="module")
def pd_inputs(tmp_path_factory):
    """An input file per case: a pointcloud text file (repr floats) or a
    complex JSON file."""
    root = tmp_path_factory.mktemp("pd-inputs")
    paths = {}
    for name, pts in geometry_cases().items():
        paths[name] = root / f"{name}.txt"
        paths[name].write_text("".join(" ".join(map(repr, p)) + "\n" for p in pts.tolist()))
    for name, o in complex_cases().items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(complex_to_json(o)))
    return {name: str(p) for name, p in paths.items()}


def scatter_oracle(pairs, degrees, squared=False):
    rows = ["degree\tbirth\tdeath\n"]
    for k in degrees:
        listed = sorted(
            (p for p in pairs if p.degree == k and p.birth_time != p.death_time),
            key=lambda p: (p.birth_time, p.death_time, p.birth_rank),
        )
        for p in listed:
            b, d = p.birth_time, p.death_time
            if squared:
                b, d = b * b, d * d
            rows.append(f"{k}\t{b!r}\t{'inf' if math.isinf(d) else repr(d)}\n")
    return "".join(rows)


@pytest.mark.parametrize("name", PD_CASES)
def test_pd_stdout_equals_json_dumps_oracle(pd_inputs, tmp_path, capsys, monkeypatch, name):
    loaded = _load_input(pd_inputs[name])
    order = loaded[0]
    # the four runs share one load: the writer is under test, not the input
    monkeypatch.setattr(cli, "_load_input", lambda path: loaded)
    expected = reduce_oracle(order)
    every = list(range(order.cx.dim + 1))
    for extra, degrees, squared in [
        ([], every, False),
        (["--squared"], every, True),
        (["--degree", "1", "--degree", "1", "--degree", "0"], [1, 1, 0], False),
        (["--degree", "7", "--squared"], [7], True),
    ]:
        tsv = tmp_path / "scatter.tsv"
        code, out, err = run(["pd", pd_inputs[name], *extra, "--scatter", str(tsv)], capsys)
        assert code == 0 and err == ""
        assert out == pd_json_oracle(expected, degrees, squared)
        assert tsv.read_text() == scatter_oracle(expected, degrees, squared)


def test_pd_empty_diagram_is_an_empty_list(fig1_file, capsys):
    code, out, _ = run(["pd", fig1_file, "--degree", "7"], capsys)
    assert code == 0
    assert '"pairs": []' in out
    assert json.loads(out) == {"diagrams": [{"degree": 7, "pairs": []}], "squared": False}


@pytest.mark.parametrize("scatter", [False, True], ids=["stdout", "scatter"])
def test_pd_squared_overflow_exit_2(tmp_path, capsys, scatter):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"simplices": [
        {"v": [0], "level": 0}, {"v": [1], "level": 0}, {"v": [0, 1], "level": 1e200},
    ]}))
    tsv = tmp_path / "scatter.tsv"
    extra = ["--scatter", str(tsv)] if scatter else []
    code, out, err = run(["pd", str(path), "--squared", *extra], capsys)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "--squared" in lines[0]
    assert not tsv.exists()
    code, out, _ = run(["pd", str(path), *extra], capsys)
    assert code == 0 and json.loads(out)["diagrams"][0]["pairs"][0]["death"] == 1e200


def test_pd_squared_scatter_rows_are_the_json_levels(tmp_path, capsys):
    # on this cloud two levels x have x ** 2 != x * x; both outputs hold x * x
    pts = np.random.default_rng([7, 0]).random((1600, 2)) * 40
    path = tmp_path / "cloud.txt"
    path.write_text("".join(" ".join(map(repr, p)) + "\n" for p in pts.tolist()))
    tsv = tmp_path / "scatter.tsv"
    code, out, err = run(["pd", str(path), "--squared", "--scatter", str(tsv)], capsys)
    assert code == 0 and err == ""
    want = [(d["degree"], p["birth"], math.inf if p["death"] is None else p["death"])
            for d in json.loads(out)["diagrams"] for p in d["pairs"]]
    header, *lines = tsv.read_text().splitlines()
    assert header == "degree\tbirth\tdeath"
    got = [(int(k), float(b), float(d)) for k, b, d in (line.split("\t") for line in lines)]
    assert len(got) > 3000 and got == want


def test_pd_writer_refuses_non_finite_values():
    from stablevol.cli import _pd_diagram_json

    ints = np.array([0])
    for births, deaths in [([math.inf], [1.0]), ([0.0], [math.nan])]:
        with pytest.raises(ValueError):
            next(_pd_diagram_json(0, np.array(births), np.array(deaths), ints, ints,
                                  np.array([False])))
    # an essential pair's infinite death is written as null
    text = "".join(_pd_diagram_json(0, np.array([0.5]), np.array([math.inf]), ints,
                                    np.array([-1]), np.array([True])))
    assert json.loads(text) == {"degree": 0, "pairs": [
        {"birth": 0.5, "birth_simplex": 0, "death": None, "death_simplex": None, "degree": 0}
    ]}


def stat_json_oracle(fm):
    """stat's document as json.dumps writes it, from a FrequencyMap."""
    obj = {"trials": fm.trials, "matched": fm.matched, "status": fm.status,
           "frequencies": [{"point": i, "f": float(f)} for i, f in enumerate(fm.frequencies)]}
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


@pytest.mark.parametrize("n, trials, matched, status", [
    (600, 7, 7, "ok"),  # three chunks of rows, frequencies such as 3/7
    (5, 6, 0, "warning: 6 of 6 trials unmatched"),  # all-zero frequencies
    (0, 2, 2, "ok"),
    (1, 1, 1, 'a "quoted" status, \u00e9'),
])
def test_stat_writer_equals_json_dumps_oracle(n, trials, matched, status):
    from stablevol.baselines import FrequencyMap
    from stablevol.cli import _stat_json

    counts = np.random.default_rng(n).integers(0, matched + 1, n)
    fm = FrequencyMap(trials, matched, counts, status)
    assert "".join(_stat_json(fm)) == stat_json_oracle(fm)
    if matched == 0:
        assert not fm.frequencies.any()


def test_stat_writer_refuses_non_finite_frequencies():
    from stablevol.baselines import FrequencyMap
    from stablevol.cli import _stat_json

    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            _stat_json(FrequencyMap(2, 2, np.array([1.0, bad])))


class RecordingStdout:
    """A stdout that keeps every string written to it, one entry a write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_pd_writes_its_output_in_bounded_chunks(tmp_path, monkeypatch):
    # a seeded 1600-point cloud: about 550 KB of pd output, which pd must
    # never hold whole, so no single write may come near it
    pts = np.random.default_rng(7).uniform(0.0, 40.0, (1600, 2))
    path = tmp_path / "cloud.txt"
    path.write_text("".join(f"{x!r} {y!r}\n" for x, y in pts.tolist()))
    rec = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", rec)
    assert main(["pd", str(path)]) == 0
    out = "".join(rec.writes)
    assert len(out) > 8 * 64 * 1024
    assert max(map(len, rec.writes)) <= 64 * 1024
    assert out == pd_json_oracle(reduce_oracle(_load_input(str(path))[0]), [0, 1, 2])
    # -o writes the same bytes to the file, and nothing to stdout
    rec.writes.clear()
    target = tmp_path / "pd.json"
    assert main(["pd", str(path), "-o", str(target)]) == 0
    assert rec.writes == [] and target.read_bytes() == out.encode()
    # a level that overflows when squared is found before any output opens
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"simplices": [
        {"v": [0], "level": 0}, {"v": [1], "level": 0}, {"v": [0, 1], "level": 1e200},
    ]}))
    target, tsv = tmp_path / "squared.json", tmp_path / "squared.tsv"
    for extra in [[], ["-o", str(target)], ["--scatter", str(tsv)]]:
        assert main(["pd", str(big), "--squared", *extra]) == 2
    assert "".join(rec.writes) == ""
    assert not target.exists() and not tsv.exists()


@pytest.mark.parametrize("name", ["fig1", "complex"])
def test_input_with_a_byte_order_mark_reads_as_without(fig1_file, tmp_path, capsys, name):
    if name == "fig1":
        plain = Path(fig1_file)
    else:
        plain = tmp_path / "complex.json"
        plain.write_text(json.dumps(complex_to_json(_load_input(fig1_file)[0])))
    marked = tmp_path / f"bom-{plain.name}"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    code, want, _ = run(["pd", str(plain)], capsys)
    assert code == 0
    assert run(["pd", str(marked)], capsys) == (0, want, "")


def select_pair_oracle(pairs, args):
    """The pair selection rule on a list of PersistencePairs."""
    if (args.pair_index is not None) == (args.birth is not None or args.death is not None):
        raise PairSelectionError("selectors")
    cands = sorted(
        (p for p in pairs if p.degree == args.degree and p.birth_time != p.death_time),
        key=lambda p: (p.birth_time, p.death_time, p.birth_rank),
    )
    if args.pair_index is not None:
        if not 0 <= args.pair_index < len(cands):
            raise PairSelectionError("range")
        return cands[args.pair_index]
    for spec, which in ((args.birth, "birth"), (args.death, "death")):
        if spec is None:
            continue
        if ":" in spec:
            lo, hi = map(float, spec.split(":", 1))
        else:
            lo, hi = float(spec) - 1e-9, float(spec) + 1e-9
        cands = [
            p for p in cands
            if (which == "birth" or not p.essential) and lo <= getattr(p, f"{which}_time") <= hi
        ]
    if len(cands) != 1:
        raise PairSelectionError("count")
    return cands[0]


def selector_args(name, table):
    """Selectors for every pair index and every listed birth and death value,
    as exact values and as windows, in the degrees the table holds."""
    out = []
    for k in sorted(set(table.degree.tolist())) + [9]:
        n = len(table.diagram_index(k))
        out += [SimpleNamespace(degree=k, pair_index=i, birth=None, death=None)
                for i in range(-1, n + 1)]
        for p in table.rows(table.diagram_index(k))[:40]:
            b, d = repr(p.birth_time), repr(p.death_time)
            out += [
                SimpleNamespace(degree=k, pair_index=None, birth=b, death=None),
                SimpleNamespace(degree=k, pair_index=None, birth=None, death=d),
                SimpleNamespace(degree=k, pair_index=None, birth=b, death=d),
                SimpleNamespace(degree=k, pair_index=None, birth=f"{b}:{b}", death=None),
                SimpleNamespace(degree=k, pair_index=None, birth=None, death=f"0:{d}"),
                SimpleNamespace(degree=k, pair_index=None, birth=f"{b}:inf", death=f"{d}:inf"),
            ]
    out.append(SimpleNamespace(degree=1, pair_index=0, birth="0", death=None))
    out.append(SimpleNamespace(degree=1, pair_index=None, birth=None, death=None))
    return out


@pytest.mark.parametrize(
    "name", ["gen-fig1-five-points", "gen-annulus", "grid-20x20", "appendix", "torus-6x5",
             "hollow-triangle"]
)
def test_select_pair_matches_sorted_list_oracle(name):
    o = complex_cases()[name] if name in complex_cases() else None
    if o is None:
        from stablevol.alpha import alpha_filtration

        o = alpha_filtration(geometry_cases()[name])
    for table in (pers.reduce(o), pers.cohomology_reduce(o)[0]):
        pairs = list(table)
        for args in selector_args(name, table):
            try:
                expected = select_pair_oracle(pairs, args)
            except PairSelectionError:
                with pytest.raises(PairSelectionError):
                    _select_pair(table, args)
            else:
                assert _select_pair(table, args) == expected


@pytest.mark.parametrize(
    "grid", ["0:inf:0.1", "0:nan:0.1", "-1:0:0.5", "0:1:1e-300", "0:1:0", "1:0:0.1", "0:1"],
)
def test_bad_epsilon_grid_exit_2(fig1_file, capsys, grid):
    code, out, err = run(
        ["sweep", fig1_file, "--pair-index", "1", f"--epsilon-grid={grid}"], capsys
    )
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "--epsilon-grid" in lines[0]


def test_epsilon_grid_point_limit():
    from stablevol.cli import _parse_grid

    assert len(_parse_grid("0:999999:1")) == 1_000_000
    with pytest.raises(ValueError, match="more than"):
        _parse_grid("0:1000000:1")


@pytest.mark.parametrize(
    "selector",
    [["--birth", "nan"], ["--death", "nan:1"], ["--birth", "0.5:nan"], ["--death", "NaN"],
     ["--birth", "abc"], ["--death", "0:1:2"]],
)
def test_bad_window_exit_2(fig1_file, capsys, selector):
    code, out, err = run(["vol", fig1_file, *selector], capsys)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and selector[0] in lines[0]


def test_pd_and_stat_build_no_views(tmp_path, capsys, monkeypatch):
    from stablevol.complexes import SimplicialComplex

    built = []
    init = SimplicialComplex.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SimplicialComplex, "__init__", recording_init)
    path = tmp_path / "defects.txt"
    assert main(["gen", "lattice-2d-defects", "--seed", "7", "-o", str(path)]) == 0
    assert main(["pd", str(path)]) == 0
    assert main(["stat", str(path), "--pair-index", "0", "--noise", "0.05", "--trials", "2",
                 "--seed", "7"]) == 0
    capsys.readouterr()
    assert len(built) == 4
    for cx in built:
        assert not set(VIEWS) & set(vars(cx))


def test_vol_sub_and_rsc_on_complex_json_build_no_views(tmp_path, capsys, monkeypatch):
    from helpers import torus3d_order
    from stablevol.complexes import SimplicialComplex

    o = torus3d_order()
    path = tmp_path / "torus.json"
    path.write_text(complex_json_text(o))
    table = pers.reduce(o)
    idx = table.diagram_index(1)
    index = str(int(np.argmax(table.death_time[idx] - table.birth_time[idx])))
    built = []
    init = SimplicialComplex.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SimplicialComplex, "__init__", recording_init)
    for argv in (["vol", str(path), "--pair-index", index, "--method", "sub", "--epsilon", "0.1"],
                 ["rsc", str(path), "--pair-index", index],
                 ["rsc", str(path), "--pair-index", index, "--bandwidth", "0.2"]):
        code, out, err = run(argv, capsys)
        assert code == 0 and json.loads(out)["boundary"]
    assert len(built) == 3
    for cx in built:
        assert not set(VIEWS) & set(vars(cx))


BAD_OPTIONS = [
    (["vol", "--method", "stable-lp", "--threshold", "-1"], "--threshold"),
    (["vol", "--threshold", "0"], "--threshold"),
    (["vol", "--method", "sub", "--threshold", "1"], "--threshold"),
    (["vol", "--threshold", "1.5"], "--threshold"),
    (["vol", "--epsilon", "-1"], "--epsilon"),
    (["vol", "--method", "stable-tree", "--epsilon", "-0.5"], "--epsilon"),
    (["rsc", "--bandwidth", "-1"], "--bandwidth"),
]


@pytest.mark.parametrize("real_input", [True, False], ids=["real-input", "missing-input"])
@pytest.mark.parametrize(
    "argv, option", BAD_OPTIONS,
    ids=["threshold-negative", "threshold-zero", "threshold-one", "threshold-above-one",
         "epsilon-negative", "epsilon-negative-tree", "bandwidth-negative"],
)
def test_bad_threshold_epsilon_bandwidth_exit_2(tmp_path, capsys, argv, option, real_input):
    path = tmp_path / "defects.txt"
    if real_input:
        assert main(["gen", "lattice-2d-defects", "--seed", "7", "-o", str(path)]) == 0
        capsys.readouterr()
    code, out, err = run([argv[0], str(path), "--pair-index", "0", *argv[1:]], capsys)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {option} must be")


def test_threshold_epsilon_bandwidth_bounds_accepted(tmp_path, capsys):
    path = tmp_path / "defects.txt"
    assert main(["gen", "lattice-2d-defects", "--seed", "7", "-o", str(path)]) == 0
    capsys.readouterr()
    base = [str(path), "--pair-index", "0"]
    for argv in (["vol", *base, "--method", "stable-lp", "--threshold", "0.5", "--epsilon", "0"],
                 ["rsc", *base, "--bandwidth", "0"]):
        code, out, _ = run(argv, capsys)
        assert code == 0 and json.loads(out)
