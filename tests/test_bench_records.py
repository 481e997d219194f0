"""Checks every committed benchmark record, `BENCH_*.json` at the root of
the repository.

A record compares a parent commit with a change on the benchmark of
`BENCHMARK.json`. It holds, per workload and seed, every run of
`perfbench/run.py` in the order it ran, each tagged `parent` or `change`,
with its `env` line and its JSON result line as printed. Its `claims` are
the end-to-end gains the change claims; its `checks`, the metrics it
reports without a claim. For each, the record gives the medians of both
sides, the parent's quartiles and the change's wins over the pairs, and
this test recomputes them from the runs. A run's result is
`{"correct": ..., "metrics": {name: {"value": ...}}}`.

- The runs of one workload and seed split into pairs: runs 2i and 2i+1
  are one of each side, in either order. Both orders occur, and their
  counts differ by at most one, so an effect of running first or second
  falls on both sides alike.
- Each workload and seed has at least 10 pairs.
- Every run is `correct`.
- The `env` lines of one workload and seed agree except in `commit` and
  `src_sha256`, which tell the two sides apart, and `input_build_s`, a
  timing. Each side's commit is the record's.
- A claim wins at least 9 in 10 pairs, and its median difference exceeds
  the parent's interquartile range.
- Runs made against an earlier state of the change are kept under
  `earlier`, with that state's commit: each is `correct` and of its side's
  commit.
"""

import copy
import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
# env keys allowed to differ between the runs of one workload and seed
VARYING_ENV = {"commit", "src_sha256", "input_build_s"}
SIDES = ("parent", "change")


def pairs_of(runs):
    """Runs 2i and 2i+1 as pair i, each given as (parent run, change run)."""
    return [tuple(sorted(runs[i : i + 2], key=lambda r: SIDES.index(r["side"])))
            for i in range(0, len(runs) - 1, 2)]


def value(run, metric):
    return json.loads(run["result"])["metrics"][metric]["value"]


def summary(runs, metric, better):
    """Medians of both sides, the parent's quartiles (linear interpolation,
    numpy.percentile's default) and the pairs the change wins."""
    pairs = [(value(p, metric), value(c, metric)) for p, c in pairs_of(runs)]
    parent, change = zip(*pairs)
    sign = 1 if better == "lower" else -1
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    return {
        "pairs": len(pairs),
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_q1": q1,
        "parent_q3": q3,
        "wins": sum(sign * (p - c) > 0 for p, c in pairs),
    }


def run_errors(record):
    errors = []
    for workload, by_seed in record["runs"].items():
        for seed, runs in by_seed.items():
            where = f"{workload} seed {seed}"
            orders = [tuple(r["side"] for r in runs[i : i + 2]) for i in range(0, len(runs), 2)]
            if any(sorted(o) != sorted(SIDES) for o in orders):
                errors.append(f"{where}: runs do not pair up one parent, one change")
            first = [o[0] for o in orders]
            if abs(first.count("parent") - first.count("change")) > 1:
                errors.append(f"{where}: {first.count('parent')} pairs run the parent first, "
                              f"{first.count('change')} the change")
            if len(orders) < 10:
                errors.append(f"{where}: {len(orders)} pairs, fewer than 10")
            envs = [json.loads(r["env"].removeprefix("env ")) for r in runs]
            fixed = [{k: v for k, v in env.items() if k not in VARYING_ENV} for env in envs]
            if any(f != fixed[0] for f in fixed):
                errors.append(f"{where}: env lines differ beyond {sorted(VARYING_ENV)}")
            if any(env["workload"] != workload or str(env["seed"]) != seed for env in envs):
                errors.append(f"{where}: a run of another workload or seed")
            for r, env in zip(runs, envs):
                if env["commit"] != record[r["side"]]:
                    errors.append(f"{where}: a {r['side']} run of commit {env['commit']}")
            for side in SIDES:
                if len({env["src_sha256"] for r, env in zip(runs, envs) if r["side"] == side}) > 1:
                    errors.append(f"{where}: {side} runs of different sources")
            if not all(json.loads(r["result"])["correct"] is True for r in runs):
                errors.append(f"{where}: a run is not correct")
    return errors


def earlier_errors(record):
    """`earlier`, if given, holds the runs made against an earlier state of
    the change, in the order they ran; no summary uses them."""
    errors = []
    earlier = record.get("earlier", {"runs": {}})
    for workload, by_seed in earlier["runs"].items():
        for seed, runs in by_seed.items():
            for r in runs:
                env = json.loads(r["env"].removeprefix("env "))
                commit = record["parent"] if r["side"] == "parent" else earlier["change"]
                if (env["workload"], str(env["seed"]), env["commit"]) != (workload, seed, commit):
                    errors.append(f"earlier {workload} seed {seed}: a {r['side']} run of "
                                  f"{env['workload']} seed {env['seed']}, commit {env['commit']}")
                if json.loads(r["result"])["correct"] is not True:
                    errors.append(f"earlier {workload} seed {seed}: a run is not correct")
    return errors


def summary_errors(record, key):
    errors = []
    for entry in record[key]:
        where = f"{key} {entry['workload']} seed {entry['seed']} {entry['metric']}"
        runs = record["runs"][entry["workload"]][str(entry["seed"])]
        expected = summary(runs, entry["metric"], entry["better"])
        for field, value in expected.items():
            if not math.isclose(entry[field], value, rel_tol=1e-12, abs_tol=0.0):
                errors.append(f"{where}: {field} is {entry[field]}, the runs give {value}")
        if key != "claims":
            continue
        if entry["wins"] < math.ceil(0.9 * entry["pairs"]):
            errors.append(f"{where}: wins {entry['wins']} of {entry['pairs']} pairs")
        sign = 1 if entry["better"] == "lower" else -1
        gain = sign * (entry["parent_median"] - entry["change_median"])
        if not gain > entry["parent_q3"] - entry["parent_q1"]:
            errors.append(f"{where}: median gain {gain} within the parent's quartiles")
    return errors


def record_errors(record):
    return (run_errors(record) + earlier_errors(record)
            + summary_errors(record, "claims") + summary_errors(record, "checks"))


def load(path):
    return json.loads(path.read_text())


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_recomputes_from_its_runs(path):
    assert record_errors(load(path)) == []


def first_runs(record):
    return next(iter(next(iter(record["runs"].values())).values()))


def split_the_first_pair(record):
    """Two runs of one side make the first pair."""
    runs = first_runs(record)
    later = next(i for i in range(2, len(runs)) if runs[i]["side"] == runs[0]["side"])
    runs[1], runs[later] = runs[later], runs[1]


def run_the_parent_first_always(record):
    runs = first_runs(record)
    runs[:] = [r for pair in pairs_of(runs) for r in pair]


def shift_a_claimed_median(record):
    record["claims"][0]["parent_median"] *= 1.01


def mark_a_run_incorrect(record):
    runs = first_runs(record)
    result = json.loads(runs[-1]["result"])
    result["correct"] = False
    runs[-1]["result"] = json.dumps(result)


def change_an_env_field(record):
    runs = first_runs(record)
    env = json.loads(runs[-1]["env"].removeprefix("env "))
    env["nproc"] += 1
    runs[-1]["env"] = "env " + json.dumps(env)


def tag_an_earlier_change_run_parent(record):
    runs = next(iter(next(iter(record["earlier"]["runs"].values())).values()))
    next(r for r in runs if r["side"] == "change")["side"] = "parent"


def drop_to_nine_pairs(record):
    """The claimed workload and seed keep 9 pairs, with every summary of
    them recomputed."""
    claim = record["claims"][0]
    runs = record["runs"][claim["workload"]][str(claim["seed"])]
    del runs[18:]
    for entry in record["claims"] + record["checks"]:
        if (entry["workload"], entry["seed"]) == (claim["workload"], claim["seed"]):
            entry.update(summary(runs, entry["metric"], entry["better"]))


@pytest.mark.parametrize(
    "corrupt",
    [split_the_first_pair, run_the_parent_first_always, shift_a_claimed_median,
     mark_a_run_incorrect, change_an_env_field, drop_to_nine_pairs,
     tag_an_earlier_change_run_parent],
)
def test_a_corrupted_record_fails(corrupt):
    """Negative controls of the checks, on the first record: it has a claim
    and `earlier` runs for every corruption to act on."""
    record = load(ROOT / "BENCH_33.json")
    assert record_errors(record) == []
    broken = copy.deepcopy(record)
    corrupt(broken)
    assert record_errors(broken)
