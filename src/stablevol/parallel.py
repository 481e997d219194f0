"""Ordered mapping of the `stat` resampling trials.

The trials run one after another in the calling thread and the results come
back in item order. They are pure Python, so worker threads would only
contend for the interpreter lock.
"""

from __future__ import annotations


# Kept as a named function with this signature because the benchmark's tracer
# wraps `parallel.parallel_map` and calls it with three positional arguments.
def parallel_map(fn, items, threads: int = 1) -> list:
    return [fn(x) for x in items]
