"""One traced pass of every benchmark workload, at tiny size, against
this source tree.  The tracer wraps sfvm functions and methods by name
and the driver reads attributes of what they return, so a rename in
`src/` that the benchmark depends on fails here, not only when the
benchmark runs."""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
BENCH = os.path.join(ROOT, "bench")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    WORKLOADS = [wl["name"] for wl in json.load(fh)["workloads"]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_pass_checks_clean(name):
    sys.path.insert(0, BENCH)
    try:
        import run
        import workloads
        wl = workloads.WORKLOADS[name]
        tr, state, result, counters = run.traced_pass(wl, 1, tiny=True)
        attempted, failed = wl.check(state, result)
        metrics = run.layer_metrics(tr, counters)
    finally:
        sys.path.remove(BENCH)
    assert attempted > 0 and failed == 0
    assert set(run.COUNTERS) <= set(counters)
    assert all(math.isfinite(value) for value, _ in metrics.values())
