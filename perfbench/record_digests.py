"""Records the stdout digests that benchmark jobs are checked against.

Run from the root of a stablevol checkout:

    python3 perfbench/record_digests.py 0-20 1009

For each workload and seed it runs every instance once in-process, applies
the workload's output checks, and stores the sha256 of the stdouts in
perfbench/digests.json. The CLI promises byte-identical output for a fixed
input and seed, so re-record only for an intended change of output.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def parse_seeds(args) -> list:
    seeds = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv) -> int:
    seeds = parse_seeds(argv)
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import workloads
    from stablevol import cli

    table = run.load_digests()
    workdir = run.WORK / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            for seed in seeds:
                digests = []
                for inst in workloads.build(name, seed, workdir, cli):
                    job = run.run_call(inst.commands, cli)
                    error = job.error or run.check_outputs(inst, job.outs)
                    if error:
                        print(f"{name} seed {seed} {inst.label}: {error}", file=sys.stderr)
                        return 1
                    digests.append(run.digest(job.outs))
                table.setdefault(name, {})[str(seed)] = digests
                print(f"{name} seed {seed}: {' '.join(d[:12] for d in digests)}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name in table:
        table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
