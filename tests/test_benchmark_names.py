"""Every stablevol name that the benchmark's tracer wraps still resolves.

`perfbench/tracing.py` wraps functions by module and attribute name, from
the modules that `stablevol.cli` has imported. A rename in `src/` (of
`persistence.reduce`, `boundary_matrix` or `kernels.reduce_columns`, say)
fails here, with the name, rather than deep in a benchmark run.
"""

import sys

import stablevol.cli  # noqa: F401  the tracer resolves names from the modules it imports
from helpers import load_tracing
from stablevol import kernels


def resolve(mod, attr):
    """The object at `stablevol.<mod>.<attr>` ("Class.method" included), or
    None when the module is not imported or lacks the attribute."""
    obj = sys.modules.get(f"stablevol.{mod}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_every_span_and_counter_target_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    targets = list(tracing.SPANS.items())
    targets += [(name, t) for name, ts in tracing.COUNTERS.items() for t in ts]
    assert targets
    missing = [f"{name}: stablevol.{mod}.{attr}" for name, (mod, attr) in targets
               if not callable(resolve(mod, attr))]
    assert missing == []
    assert isinstance(kernels.active_backend(), str)
