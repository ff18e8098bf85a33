"""Every function the benchmark traces still exists in the package.

A traced name that no longer resolves is only listed under
``untraced_targets`` in a ``--trace 1`` report, and its per-layer metrics
read 0, so a rename or deletion in the package must fail here instead.
"""

import importlib.util
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    targets = run.trace_targets(run.Counters())
    missing = []
    for owner, path, _span, _hook in targets:
        # the attribute walk that bench/tracing.py's Tracer.install does
        holder = owner
        for part in path.split("."):
            holder = getattr(holder, part, None)
        if not callable(holder):
            missing.append(f"{owner.__name__}.{path}")
    assert targets and not missing, missing
