"""The package metadata and the README's library sketch."""

import importlib.metadata
import re
import tomllib
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def lower_bound(spec):
    """The version that a `>=X.Y` clause of a Requires-Python or requirement
    spec names, as a tuple of ints."""
    found = re.search(r">=\s*(\d+(?:\.\d+)*)", spec)
    assert found, f"no >= clause in {spec!r}"
    return tuple(map(int, found.group(1).split(".")))


def test_python_floor_is_not_below_the_dependencies():
    # a Python the dependencies refuse must be refused by the package first,
    # not inside the resolver
    with open(ROOT / "pyproject.toml", "rb") as fh:
        floor = lower_bound(tomllib.load(fh)["project"]["requires-python"])
    for dist in ("numpy", "scipy"):
        need = importlib.metadata.metadata(dist)["Requires-Python"]
        assert floor >= lower_bound(need), f"{dist} needs Python {need}"


def test_dependency_floors_are_not_below_what_the_other_dependencies_need():
    # a floor below what an installed dependency requires (scipy 1.17.1
    # needs numpy>=1.26.4) lets the resolver accept a set that cannot run
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    floors = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower(): lower_bound(d) for d in declared}
    for dist in floors:
        for req in importlib.metadata.requires(dist) or []:
            name = re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
            if ";" in req or name not in floors or ">=" not in req:
                continue  # an extra's or a platform's requirement, or no floor
            version = importlib.metadata.version(dist)
            assert floors[name] >= lower_bound(req), f"{dist} {version} requires {req}"


def test_readme_library_sketch_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", text, re.S).group(1)
    points = np.random.default_rng(7).uniform(0, 40, (300, 2))
    names = {"points": points}
    exec(compile(sketch, "README.md", "exec"), names)
    cx = names["order"].cx
    assert names["sv"] and names["sv"] <= set(cx.ids_of_dim(2))
    assert names["rim"] <= set(cx.ids_of_dim(1))
    assert len(names["same"]) == len(names["table"])
