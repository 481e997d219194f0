"""Spans and counters around stablevol's entry points, from outside the package.

`Tracer.install` replaces each traced function, wherever a stablevol module
holds a reference to it, with a wrapper that records a span (name, start,
end, parent, thread) and, if asked, wraps the hot helpers with call
counters; `uninstall` puts the originals back. Nothing under src/ is
edited. The tracer is installed for one job at a time, so its spans are
that job's. Counters use `itertools.count`, whose increment is atomic under
the interpreter lock, so counts from worker threads are exact.

A span's self time is the part of its interval that none of its child
spans covers, children in other threads included. Where spans of several
threads are in their self time at once (the `stat` worker threads), each
instant is shared equally among them, so the self times of a job add up to
the wall time of its `cli.main` spans.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# span name -> (module, attribute); "Class.method" patches the class.
SPANS = {
    "cli.main": ("cli", "main"),
    "alpha.parse": ("alpha", "parse_pointcloud"),
    "alpha.filtration": ("alpha", "alpha_filtration"),
    "alpha.levels": ("alpha", "alpha_levels"),
    "delaunay.delaunay": ("delaunay", "delaunay"),
    "complexes.build": ("complexes", "SimplicialComplex.__init__"),
    "complexes.order": ("complexes", "build_order"),
    "complexes.json": ("complexes", "complex_from_json"),
    "complexes.boundary": ("complexes", "boundary"),
    "persistence.reduce": ("persistence", "reduce"),
    "persistence.boundary_matrix": ("persistence", "boundary_matrix"),
    "persistence.cohomology": ("persistence", "cohomology_reduce"),
    "kernels.reduce_columns": ("kernels", "reduce_columns"),
    "dualtree.graph": ("dualtree", "build_dual_graph"),
    "dualtree.tree": ("dualtree", "compute_tree"),
    "dualtree.optimal_volume": ("dualtree", "optimal_volume_tree"),
    "dualtree.stable_volume": ("dualtree", "stable_volume_tree"),
    "volopt.solve_volume": ("volopt", "solve_volume"),
    "volopt.problem": ("volopt", "make_problem"),
    "volopt.to_lp": ("volopt", "to_lp"),
    "volopt.solve_lp": ("volopt", "solve_lp"),
    "volopt.highs": ("volopt", "linprog"),
    "volopt.round": ("volopt", "round_support"),
    "baselines.stat": ("baselines", "statistical_frequencies"),
    "baselines.optimal_volume": ("baselines", "optimal_volume_cells"),
    "baselines.rsc": ("baselines", "reconstructed_shortest_cycle"),
    "parallel.map": ("parallel", "parallel_map"),
}
# Each call of the mapped function inside parallel.map is a span of its own.
TRIAL_SPAN = "baselines.trial"

# counter name -> functions whose calls it counts
COUNTERS = {
    "predicates.orient_calls": [("predicates", "orient2d"), ("predicates", "orient3d")],
    "predicates.insphere_calls": [("predicates", "circumsphere_side")],
    "predicates.exact_calls": [("predicates", "_det_exact")],
    "alpha.gabriel_tests": [("alpha", "_is_gabriel")],
    "alpha.exact_circumspheres": [("alpha", "_circum_exact")],
    "baselines.rsc_candidates": [("baselines", "_shortest_path")],
}

# per-layer metric -> span names whose self time it sums
SELF_METRICS = {
    "cli.self_s": ["cli.main"],
    "alpha.parse_s": ["alpha.parse"],
    "alpha.filtration_s": ["alpha.filtration"],
    "alpha.levels_s": ["alpha.levels"],
    "delaunay.self_s": ["delaunay.delaunay"],
    "complexes.build_s": ["complexes.build"],
    "complexes.order_s": ["complexes.order"],
    "complexes.json_s": ["complexes.json"],
    "complexes.boundary_s": ["complexes.boundary"],
    "persistence.reduce_s": ["persistence.reduce"],
    "persistence.boundary_matrix_s": ["persistence.boundary_matrix"],
    "persistence.cohomology_s": ["persistence.cohomology"],
    "kernels.reduce_columns_s": ["kernels.reduce_columns"],
    "dualtree.graph_s": ["dualtree.graph"],
    "dualtree.tree_s": ["dualtree.tree"],
    "dualtree.volume_s": ["dualtree.optimal_volume", "dualtree.stable_volume"],
    "volopt.solve_volume_s": ["volopt.solve_volume"],
    "volopt.problem_s": ["volopt.problem"],
    "volopt.to_lp_s": ["volopt.to_lp"],
    "volopt.solve_lp_s": ["volopt.solve_lp"],
    "volopt.highs_s": ["volopt.highs"],
    "volopt.round_s": ["volopt.round"],
    "baselines.stat_s": ["baselines.stat"],
    "baselines.trial_s": [TRIAL_SPAN],
    "baselines.optimal_volume_s": ["baselines.optimal_volume"],
    "baselines.rsc_s": ["baselines.rsc"],
    "parallel.self_s": ["parallel.map"],
}

# (metric, unit, better) for everything job_metrics reports, plus the two
# figures the traced run adds; BENCHMARK.json lists the same metrics.
PER_LAYER = (
    [(m, "s", "lower") for m in SELF_METRICS]
    + [(c, "count", "lower") for c in COUNTERS]
    + [
        ("delaunay.cells", "count", "lower"),
        ("complexes.simplices", "count", "lower"),
        ("persistence.reduce_calls", "count", "lower"),
        ("volopt.lp_solves", "count", "lower"),
        ("volopt.lp_rows", "count", "lower"),
        ("volopt.lp_cols", "count", "lower"),
        ("volopt.highs_iterations", "count", "lower"),
        ("volopt.lp_residual_max", "1", "lower"),
        ("volopt.lp_useful_ratio", "1", "higher"),
        ("volopt.pin_retries", "count", "lower"),
        ("baselines.matched_ratio", "1", "higher"),
        ("baselines.unmatched_trials", "count", "lower"),
        ("parallel.map_s", "s", "lower"),
        ("parallel.workers", "count", "higher"),
        ("parallel.cpu_util", "1", "higher"),
        ("cli.output_bytes", "bytes", "lower"),
        ("trace.self_sum_ratio", "1", "lower"),
        ("trace.overhead_ratio", "1", "lower"),
    ]
)
# Metrics that count work; they must repeat exactly for the same input.
EXACT = {m for m, unit, _ in PER_LAYER if unit == "count"} | {"volopt.lp_useful_ratio", "baselines.matched_ratio"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    error: str | None


class Tracer:
    """Wraps the stablevol entry points while installed; one job at a time."""

    def __init__(self):
        self._patches = []

    # -- installation -------------------------------------------------------

    def install(self, counters: bool) -> None:
        """Wraps the entry points: spans always, call counters if asked."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.spans = {}
        self.counters = {name: itertools.count() for name in COUNTERS} if counters else {}
        self.lp = []  # (rows, cols, iterations) per linprog call
        self.residuals = []
        self.trials = []  # (trials, matched) per statistical_frequencies call
        self.simplices = []  # size of each SimplicialComplex built
        self.maps = []  # (span id, process CPU seconds during the map)
        self.delaunay_results = []
        self._ids = itertools.count()
        self._local = threading.local()
        observers = {
            "complexes.build": lambda a, kw, r: self.simplices.append(len(a[0].simplices)),
            "delaunay.delaunay": lambda a, kw, r: self.delaunay_results.append(r),
            "volopt.highs": self._observe_linprog,
            "volopt.solve_lp": lambda a, kw, r: self.residuals.append(r.residual),
            "baselines.stat": lambda a, kw, r: self.trials.append((r.trials, r.matched)),
        }
        for name, (mod, attr) in SPANS.items():
            orig = _resolve(mod, attr)
            if name == "parallel.map":
                wrapper = self._map_wrapper(orig)
            else:
                wrapper = self._span_wrapper(name, orig, observers.get(name))
            self._replace(mod, attr, orig, wrapper)
        for name, counter in self.counters.items():
            tick = counter.__next__
            for mod, attr in COUNTERS[name]:
                orig = _resolve(mod, attr)
                self._replace(mod, attr, orig, _counting(orig, tick))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def _replace(self, mod, attr, orig, wrapper) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(sys.modules[f"stablevol.{mod}"], cls_name)
            self._patches.append((owner, meth, orig))
            setattr(owner, meth, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if not name.startswith("stablevol") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is orig:
                    self._patches.append((module, key, orig))
                    setattr(module, key, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn, observe=None, parent=None):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            up = stack[-1] if stack else parent
            stack.append(sid)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = Span(name, start, end, up, threading.get_ident(), error)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _map_wrapper(self, fn):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        def parallel_map(func, items, threads=1):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            up = stack[-1] if stack else None
            trial = self._span_wrapper(TRIAL_SPAN, func, parent=sid)
            stack.append(sid)
            cpu0 = _process_cpu()
            start = clock()
            try:
                return fn(trial, items, threads)
            finally:
                end = clock()
                self.maps.append((sid, _process_cpu() - cpu0))
                stack.pop()
                spans[sid] = Span("parallel.map", start, end, up, threading.get_ident(), None)

        return parallel_map

    def _observe_linprog(self, args, kwargs, result):
        rows = sum(kwargs[k].shape[0] for k in ("A_ub", "A_eq") if kwargs.get(k) is not None)
        self.lp.append((rows, len(args[0]), int(result.nit)))

    # -- results --------------------------------------------------------------

    def job_metrics(self, output_bytes: int) -> dict:
        """Per-layer metrics of the job recorded since install()."""
        spans = self.spans
        own = self_times(spans)
        by_name = defaultdict(float)
        for sid, t in own.items():
            by_name[spans[sid].name] += t
        m = {metric: sum(by_name[n] for n in names) for metric, names in SELF_METRICS.items()}
        for name, counter in self.counters.items():
            m[name] = next(counter)
        count = defaultdict(int)
        for s in spans.values():
            count[s.name] += 1
        m["delaunay.cells"] = sum(len(cx.ids_of_dim(cx.dim)) for cx in self.delaunay_results)
        m["complexes.simplices"] = sum(self.simplices)
        m["persistence.reduce_calls"] = count["persistence.reduce"]
        m["volopt.lp_solves"] = count["volopt.highs"]
        m["volopt.lp_rows"] = max((r for r, _, _ in self.lp), default=0)
        m["volopt.lp_cols"] = max((c for _, c, _ in self.lp), default=0)
        m["volopt.highs_iterations"] = sum(it for _, _, it in self.lp)
        m["volopt.lp_residual_max"] = max(self.residuals, default=0.0)
        m["volopt.lp_useful_ratio"] = count["volopt.round"] / len(self.lp) if self.lp else 0.0
        m["volopt.pin_retries"] = sum(
            1 for s in spans.values() if s.name == "volopt.solve_lp" and s.error == "InfeasibleError"
        )
        trials = sum(t for t, _ in self.trials)
        matched = sum(k for _, k in self.trials)
        m["baselines.matched_ratio"] = matched / trials if trials else 0.0
        m["baselines.unmatched_trials"] = trials - matched
        map_wall = sum(spans[sid].end - spans[sid].start for sid, _ in self.maps)
        workers = len({s.thread for s in spans.values() if s.name == TRIAL_SPAN})
        m["parallel.map_s"] = map_wall
        m["parallel.workers"] = workers
        cpu = sum(c for _, c in self.maps)
        m["parallel.cpu_util"] = cpu / (map_wall * workers) if map_wall and workers else 0.0
        m["cli.output_bytes"] = output_bytes
        return m


def _resolve(mod, attr):
    obj = sys.modules[f"stablevol.{mod}"]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _counting(fn, tick):
    def wrapper(*args, **kwargs):
        tick()
        return fn(*args, **kwargs)

    return wrapper


def _process_cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def self_times(spans: dict) -> dict:
    """Self seconds per span id, shared among threads as the module says."""
    children = defaultdict(list)
    for sid, s in spans.items():
        if s.parent is not None and s.parent in spans:
            children[s.parent].append(spans[sid])
    events = []
    for sid, s in spans.items():
        cur = s.start
        for c in sorted(children[sid], key=lambda c: c.start):
            if c.start > cur:
                events.append((cur, 1, sid))
                events.append((min(c.start, s.end), -1, sid))
            cur = max(cur, c.end)
        if s.end > cur:
            events.append((cur, 1, sid))
            events.append((s.end, -1, sid))
    events.sort()
    own = {sid: 0.0 for sid in spans}
    active = set()
    last = None
    for t, kind, sid in events:
        if active and last is not None and t > last:
            share = (t - last) / len(active)
            for a in active:
                own[a] += share
        last = t
        if kind > 0:
            active.add(sid)
        else:
            active.discard(sid)
    return own
