"""Benchmark of the stablevol CLI: end-to-end time on seeded workloads, and
per-layer self time and counters from a separate traced run.

Run from the root of a stablevol checkout:

    python3 perfbench/run.py --workload pd-cloud2d --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, default seed and length

With --trace 0 each job runs the workload's CLI commands once in a fresh
interpreter (wall_s, cpu_s, peak_rss_mb, and the import time setup_s) and
once in-process through stablevol.cli.main (call_s). With --trace 1 each job
is an untraced and a traced in-process call, and the per-layer times come
from the traced one; the counts come from one more traced call per instance
with call counters on. Every output is checked; the last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 7
DEFAULT_SECONDS = 30
MIN_JOBS = 3
JOB_TIMEOUT = 60.0

END_TO_END = [
    ("wall_s", "s"),
    ("call_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# The console-script entry point. It also reports on stderr the import time
# and the peak resident set of its process tree. The peak comes from VmHWM,
# not from wait4: on Linux a spawned child inherits the benchmark's own
# high-water mark at exec, which would hide the CLI's.
LAUNCHER = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "from stablevol.cli import main\n"
    "sys.stderr.write('perfbench import_s %r\\n' % (time.perf_counter() - t0))\n"
    "try:\n"
    "    code = main()\n"
    "finally:\n"
    "    import resource\n"
    "    hwm = [int(l.split()[1]) for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
    "    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
    "    sys.stderr.write('perfbench rss_kb %d\\n' % max(hwm + [kids]))\n"
    "sys.exit(code)\n"
)


# ---------------------------------------------------------------------------
# one job


class Job:
    """Outcome of one job: stdouts, timings and whether it failed."""

    def __init__(self):
        self.outs = []
        self.wall = 0.0
        self.cpu = 0.0
        self.rss_mb = 0.0
        self.imports = []
        self.error = None


def run_subprocess(argvs, workdir: Path, env: dict) -> Job:
    """Runs each command in a fresh interpreter; CPU time comes from wait4."""
    job = Job()
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    for argv in argvs:
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, "-c", LAUNCHER, *argv], env, file_actions=actions)
        killer = threading.Timer(JOB_TIMEOUT, _kill, (pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            _kill(pid)
            os.waitpid(pid, 0)
            raise
        finally:
            killer.cancel()
        job.wall += time.perf_counter() - t0
        job.cpu += usage.ru_utime + usage.ru_stime
        job.outs.append(out_path.read_text(encoding="utf-8"))
        lines = err_path.read_text(encoding="utf-8", errors="replace").splitlines()
        marks = dict(line.split()[1:3] for line in lines if line.startswith("perfbench "))
        err = [line for line in lines if not line.startswith("perfbench ")]
        if "import_s" in marks:
            job.imports.append(float(marks["import_s"]))
        if "rss_kb" in marks:
            job.rss_mb = max(job.rss_mb, int(marks["rss_kb"]) / 1024.0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            job.error = f"{argv[0]} exited {code}: {' '.join(err[-1:])}"
            break
    return job


def _kill(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def run_call(argvs, cli) -> Job:
    """Runs each command through cli.main in this process."""
    job = Job()
    for argv in argvs:
        gc.collect()  # leave no garbage of earlier calls for this one to collect
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is a failed job, not a crash
                code = f"{type(exc).__name__}: {exc}"
            job.wall += time.perf_counter() - t0
        job.outs.append(out.getvalue())
        if code != 0:
            job.error = f"{argv[0]} in-process gave {code}: {err.getvalue().strip()[-200:]}"
            break
    return job


# ---------------------------------------------------------------------------
# output checks


def digest(outs) -> str:
    h = hashlib.sha256()
    for o in outs:
        h.update(o.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


class Checker:
    """Checks a job's outputs; the verdict is cached per stdout digest.

    Every job of an instance must print the same bytes. When digests.json
    has the digest for this workload, seed and instance, the bytes must also
    match it; otherwise the first output of the run is the reference.
    """

    def __init__(self, workload: str, seed: int, instances):
        recorded = load_digests().get(workload, {}).get(str(seed))
        self.recorded = recorded is not None
        self.expected = {inst.label: (recorded[i] if recorded else None) for i, inst in enumerate(instances)}
        self.verdicts = {}
        self.failures = []

    def verify(self, inst, job: Job) -> bool:
        error = job.error
        if error is None:
            d = digest(job.outs)
            key = (inst.label, d)
            if key not in self.verdicts:
                self.verdicts[key] = check_outputs(inst, job.outs)
            error = self.verdicts[key]
            if error is None:
                want = self.expected[inst.label]
                if want is None:
                    self.expected[inst.label] = d
                elif want != d:
                    error = f"stdout digest {d[:12]} differs from {want[:12]}"
        if error is not None:
            self.failures.append(f"{inst.label}: {error}")
        return error is None


def check_outputs(inst, outs) -> str | None:
    """None if the outputs pass the instance's check, else the reason."""
    try:
        inst.check(outs)
    except Exception as exc:  # any failed or crashing check is a failed job
        return f"check failed: {type(exc).__name__}: {str(exc)[:200]}"
    return None


def load_digests() -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text())


# ---------------------------------------------------------------------------
# runs


def per_instance(samples: dict, metric: str) -> float:
    """Mean over instances of the median over that instance's jobs."""
    meds = [statistics.median(s[metric]) for s in samples.values() if s[metric]]
    return sum(meds) / len(meds) if meds else 0.0


def _schedule(instances, seconds):
    """Yields instances round-robin for about `seconds`: at least MIN_JOBS
    jobs and one per instance, then another only while half of one fits."""
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if i >= max(MIN_JOBS, len(instances)) and elapsed + elapsed / i / 2 > seconds:
            return
        yield instances[i % len(instances)]
        i += 1


def timed_run(name, seed, seconds, instances, cli, workdir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    checker = Checker(name, seed, instances)
    samples = {inst.label: defaultdict(list) for inst in instances}
    imports = []
    attempted = 0
    for inst in _schedule(instances, seconds):
        sub = run_subprocess(inst.commands, workdir, env)
        call = run_call(inst.commands, cli)
        attempted += 2
        imports += sub.imports
        s = samples[inst.label]
        if checker.verify(inst, sub):
            s["wall_s"].append(sub.wall)
            s["cpu_s"].append(sub.cpu)
            s["peak_rss_mb"].append(sub.rss_mb)
        if checker.verify(inst, call):
            s["call_s"].append(call.wall)
    metrics = {m: per_instance(samples, m) for m, _ in END_TO_END if m != "setup_s"}
    metrics["setup_s"] = statistics.median(imports) if imports else 0.0
    counts = {m: sum(len(s[m]) for s in samples.values()) for m, _ in END_TO_END if m != "setup_s"}
    counts["setup_s"] = len(imports)
    return metrics, counts, attempted, checker


def traced_run(name, seed, seconds, instances, cli):
    """Per-layer metrics. Counts come from one call per instance with the
    call counters on; times come from calls with spans only, because the
    counters on the predicates add several percent to the geometry."""
    checker = Checker(name, seed, instances)
    tracer = tracing.Tracer()
    samples = {inst.label: defaultdict(list) for inst in instances}
    counts = {}
    attempted = 0
    for i, inst in enumerate(_schedule(instances, seconds)):
        if inst.label not in counts:
            job = _traced_call(tracer, inst, cli, counters=True)
            attempted += 1
            if checker.verify(inst, job):
                counts[inst.label] = tracer.job_metrics(_nbytes(job))
        # Alternate which call goes first, so an order effect cancels.
        if i % 2:
            traced = _traced_call(tracer, inst, cli, counters=False)
            plain = run_call(inst.commands, cli)
        else:
            plain = run_call(inst.commands, cli)
            traced = _traced_call(tracer, inst, cli, counters=False)
        attempted += 2
        ok = checker.verify(inst, plain)
        if checker.verify(inst, traced) and ok:
            s = samples[inst.label]
            s["call_s"].append(plain.wall)
            s["traced_s"].append(traced.wall)
            layers = tracer.job_metrics(_nbytes(traced))
            # Ratios within a pair of calls made back to back, so that the
            # machine's drift between pairs cancels.
            layers["trace.self_sum_ratio"] = sum(layers[m] for m in tracing.SELF_METRICS) / plain.wall
            layers["trace.overhead_ratio"] = traced.wall / plain.wall
            for m, v in layers.items():
                s[m].append(v)
    metrics = {}
    for m, _, _ in tracing.PER_LAYER:
        if m in tracing.EXACT:
            metrics[m] = sum(c[m] for c in counts.values()) / len(counts) if counts else 0.0
        else:
            metrics[m] = per_instance(samples, m)
    call = per_instance(samples, "call_s")
    traced_call = per_instance(samples, "traced_s")
    jobs = sum(len(s["call_s"]) for s in samples.values())
    return metrics, (call, traced_call, jobs), attempted, checker


def _nbytes(job: Job) -> int:
    return sum(len(o.encode("utf-8")) for o in job.outs)


def _traced_call(tracer, inst, cli, counters: bool) -> Job:
    tracer.install(counters)
    try:
        return run_call(inst.commands, cli)
    finally:
        tracer.uninstall()


# ---------------------------------------------------------------------------
# environment


def environment(name, seed, seconds, trace) -> dict:
    from stablevol import kernels

    h = hashlib.sha256()
    for path in sorted((SRC / "stablevol").glob("*.py*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": kernels.active_backend(),
        "nproc": os.cpu_count(),
        # without a bytecode cache, setup_s includes compiling stablevol
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "commit": _git_commit(),
        "src_sha256": h.hexdigest(),
    }


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


# ---------------------------------------------------------------------------
# entry point


def run_workload(name, seed, seconds, trace, cli) -> None:
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        instances = workloads.build(name, seed, workdir, cli)
        build_s = time.perf_counter() - t0
        env = environment(name, seed, seconds, trace)
        if trace:
            metrics, extra, attempted, checker = traced_run(name, seed, seconds, instances, cli)
        else:
            metrics, counts, attempted, checker = timed_run(name, seed, seconds, instances, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    failed = len(checker.failures)
    env["digests"] = "recorded" if checker.recorded else "unrecorded"
    env["input_build_s"] = build_s
    print("env " + json.dumps(env, sort_keys=True))
    for failure in checker.failures[:5]:
        print(f"FAILED {name} {failure}", file=sys.stderr)
    print(f"{name} (seed {seed}):")
    if trace:
        for m, unit, _ in tracing.PER_LAYER:
            print(f"  {m:32s} {metrics[m]:.6g} {unit}")
        call, traced_call, jobs = extra
        ratio = metrics["trace.self_sum_ratio"]
        print(f"  self times sum to {ratio:.4f} of the untraced call_s (median {call:.4f} s) "
              f"({'within' if abs(ratio - 1) <= 0.10 else 'NOT within'} 10%)")
        print(f"  tracing overhead {traced_call - call:+.4f} s per job over {jobs} jobs; "
              f"stdout identical traced and untraced: {failed == 0}")
    else:
        for m, unit in END_TO_END:
            print(f"  {m:12s} {metrics[m]:.6f} {unit}  (from {counts[m]} samples)")
        print(f"  {'error_rate':12s} {failed / attempted:.6f}  ({failed} of {attempted} jobs failed)")
    units = [(m, u) for m, u, _ in tracing.PER_LAYER] if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units},
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default=None, help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed (default 7; 1009 is held out to confirm claimed gains)")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "stablevol" / "cli.py").is_file():
        print(f"error: {SRC / 'stablevol'} not found; run from a stablevol checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from stablevol import cli

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for n in names:
        run_workload(n, args.seed, args.seconds, args.trace, cli)
    return 0


if __name__ == "__main__":
    sys.exit(main())
