import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import stablevol
from stablevol import schemas, volopt
from helpers import complex_to_json
from stablevol.cli import main
from stablevol.fixtures import appendix_filtration


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


def test_overflowing_coordinates_exit_2(tmp_path, capsys):
    p = tmp_path / "huge.txt"
    p.write_text("0 0\n1e200 0\n0 1e200\n1e200 1e200\n")
    code, out, err = run(["pd", str(p)], capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "extent" in err


@pytest.mark.parametrize(
    "token", ["NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="1e400")]
)
def test_non_finite_level_exit_2(tmp_path, capsys, token):
    p = tmp_path / "cx.json"
    p.write_text(
        '{"vertices": 2, "simplices": [{"v": [0], "level": 0}, '
        '{"v": [1], "level": 0}, {"v": [0, 1], "level": %s}]}' % token
    )
    code, out, err = run(["pd", str(p)], capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "non-finite level" in err


@pytest.mark.parametrize(
    "text",
    [
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
    ],
    ids=["no-simplices", "simplices-number", "entry-number", "no-level", "v-number",
         "level-null", "vertices-null", "v-fraction", "duplicate-vertex-entry",
         "duplicate-reordered-edge"],
)
def test_malformed_complex_json_exit_2(tmp_path, capsys, text):
    p = tmp_path / "cx.json"
    p.write_text(text)
    code, out, err = run(["pd", str(p)], capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


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
    return volopt.RawSolution(np.zeros(len(prog.candidates)), 0.0, "optimal", 0.0)


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


SCIPY_PARTS = ("scipy.optimize", "scipy.spatial", "scipy.sparse")

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
    cx_path = tmp_path / "cx.json"
    cx_path.write_text(json.dumps(complex_to_json(appendix_filtration())))
    fig1 = str(tmp_path / "fig1.txt")
    pair = ["--pair-index", "1"]
    steps = [
        ("gen", ["gen", "fig1-five-points", "-o", fig1]),
        ("rsc", ["rsc", str(cx_path), "--birth", "2", "--death", "7"]),
        ("pd", ["pd", fig1]),
        ("stat", ["stat", fig1, *pair, "--noise", "0.05", "--trials", "2", "--seed", "1"]),
        ("vol", ["vol", fig1, *pair, "--method", "stable-lp", "--epsilon", "0.05"]),
    ]
    src = str(Path(stablevol.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(steps)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded["import"] == loaded["gen"] == loaded["rsc"] == []
    assert "scipy.optimize" not in loaded["pd"] + loaded["stat"]
    assert "scipy.spatial" in loaded["pd"]
    assert "scipy.optimize" in loaded["vol"]


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
        (["vol", "--method", "stable-lp", "--epsilon", "nan"], "--epsilon"),
        (["vol", "--method", "sub", "--epsilon", "inf"], "--epsilon"),
        (["vol", "--method", "stable-lp", "--epsilon", "0.05", "--threshold", "nan"],
         "--threshold"),
        (["rsc", "--bandwidth", "nan"], "--bandwidth"),
        (["rsc", "--bandwidth=-inf"], "--bandwidth"),
    ],
    ids=["noise-nan", "noise-inf", "noise-1e308", "epsilon-nan", "epsilon-inf",
         "threshold-nan", "bandwidth-nan", "bandwidth-neg-inf"],
)
def test_non_finite_option_exit_2(fig1_file, tmp_path, capsys, argv, option, missing_input):
    # the option is checked before the input is read
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
    from stablevol.alpha import PointCloud, format_pointcloud

    rng = np.random.default_rng(2)
    n = int(rng.integers(10, 16))
    pts = rng.random((n, 3)) * 2
    path = tmp_path / "cloud3d.txt"
    path.write_text(format_pointcloud(PointCloud(3, pts)))
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
