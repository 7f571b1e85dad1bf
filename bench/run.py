"""sfvm benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, single-threaded and closed-loop (one
caller; each operation starts when the previous one has completed), and
prints as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

--trace 0  measures for --seconds and reports the end-to-end metrics
           (see `run_untraced` for how time is taken).  Every pass is
           checked: the first against the oracle, the rest by digest
           against the first.
--trace 1  alternates untraced and traced passes, reports the per-layer
           metrics, the tracing overhead and the calibration rows, and
           prints the deterministic work counters as `counter` lines.

--tiny shrinks every workload for the smoke test.  At the default seed
and full size the pass digest must equal the pin in `pins.json`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src")

DEFAULT_SEED = 1
SETUP_SAMPLES = 24

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# layer self-time buckets -> reported share name
SHARES = {
    "policies": "policies.share",
    "asm": "asm.share",
    "codec": "codec.share",
    "verifier": "verifier.share",
    "engine.load": "engine.load.share",
    "engine.syscall": "engine.syscall.share",
    "vm": "vm.share",
    "snapshot": "snapshot.share",
    "usermem": "usermem.share",
    "maps": "maps.share",
    "sim": "sim.share",
    "explore.deepcopy": "explore.deepcopy_share",
    "explore.state_key": "explore.state_key_share",
    "explore.materialize": "explore.materialize_share",
    "scenarios": "scenarios.check_share",
    "trace.parse": "trace.parse_share",
}

PER_LAYER = {
    "asm.us_per_insn": "us",
    "verifier.abstract_steps": "count",
    "verifier.us_per_abstract_step": "us",
    "engine.load.self_ms": "ms",
    "vm.steps_per_syscall": "count",
    "vm.ns_per_step": "ns",
    "vm.helper_calls_per_syscall": "count",
    "engine.syscall.self_us": "us",
    "engine.blocks_per_syscall": "count",
    "snapshot.us_per_syscall": "us",
    "snapshot.bytes_per_syscall": "bytes",
    "snapshot.reads_per_syscall": "count",
    "usermem.stalls": "count",
    "maps.ops_per_syscall": "count",
    "maps.us_per_op": "us",
    "maps.hit_ratio": "ratio",
    "sim.steps": "count",
    "sim.us_per_step": "us",
    "explore.deepcopies": "count",
    "explore.states": "count",
    "explore.memo_hit_ratio": "ratio",
    "explore.schedules": "count",
    "explore.outcomes": "count",
    "trace.parse_ms": "ms",
    "other.share": "fraction",
    "tracing.overhead_pct": "%",
    **{name: "fraction" for name in SHARES.values()},
    "calib.allow_all_us": "us",
    "calib.deny_linear256_miss_us": "us",
    "calib.deny_hash256_miss_us": "us",
    "calib.verify_allow400_linear_ms": "ms",
    "calib.verify_allow400_tree_ms": "ms",
    "calib.load_temporal_ms": "ms",
    "calib.explore_cve_2016_5195_ms": "ms",
    "calib.fuzz_ns_per_insn": "ns",
}


# deterministic work counts of one traced pass; each repeats exactly at
# a given seed, so a later change may rest a count claim on them
COUNTERS = (
    "asm.instructions", "engine.blocks", "engine.decisions", "engine.loads",
    "explore.deepcopies", "explore.outcomes", "explore.schedules",
    "explore.state_keys", "explore.states", "maps.hits", "maps.lookups",
    "maps.ops", "sim.steps", "snapshot.bytes", "snapshot.reads",
    "usermem.stalls", "verifier.abstract_steps", "verifier.programs",
    "vm.helper_calls", "vm.steps",
)


def _import_program():
    """The benchmark measures the checkout it sits in, never an
    installed copy: without `src/sfvm` next to it, it refuses to run."""
    if not os.path.isdir(os.path.join(SRC, "sfvm")):
        sys.exit(f"bench: no sfvm sources at {os.path.normpath(SRC)}")
    sys.path.insert(0, os.path.normpath(SRC))
    sys.path.insert(0, HERE)


def _percentile(values, pct: int) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(wl, seed: int, seconds: float, tiny: bool) -> dict:
    """Repeat set-up and pass until the passes have taken `seconds`.

    Every pass performs the same operations in the same order, and host
    slowdowns only ever add time, so each operation is timed as its
    fastest time over the passes of a run; percentiles and throughput
    are taken over those per-operation times.  Passes alternate between
    the CPUs the process may use.  Set-up runs before every pass (more
    than once when passes are few, so that about SETUP_SAMPLES set-ups
    spread over the run) and is reported as the median of all set-ups.
    """
    now = time.perf_counter_ns
    cpus = sorted(os.sched_getaffinity(0))
    setup_ns = []
    latency = cost = first = None
    measured = attempted = failed = passes_run = 0
    setups_per_gap = 1
    while True:
        # on a shared host each CPU is slowed at different times, and the
        # fastest pass wins: alternate CPUs from pass to pass
        os.sched_setaffinity(0, {cpus[passes_run % len(cpus)]})
        passes_run += 1
        for _ in range(setups_per_gap):
            t0 = now()
            state = wl.setup(seed, tiny)
            setup_ns.append(now() - t0)
        gc.collect()            # every pass starts from the same heap state
        result = wl.run_pass(state)
        measured += result.elapsed_ns
        if first is None:
            first = result
            per_pass = wl.check(state, result)
            latency, cost = list(result.samples_ns), list(result.cost_ns)
            pass_attempted, pass_failed = per_pass
            passes = max(1, int(seconds * 1e9 // max(result.elapsed_ns, 1)))
            setups_per_gap = min(8, -(-SETUP_SAMPLES // passes))
        elif result.digest != first.digest:
            pass_failed = pass_attempted
        else:
            pass_failed = per_pass[1]
            latency = list(map(min, latency, result.samples_ns))
            cost = list(map(min, cost, result.cost_ns))
        attempted += pass_attempted
        failed += pass_failed
        if measured >= seconds * 1e9:
            break
    os.sched_setaffinity(0, cpus)
    correct = failed == 0
    if seed == DEFAULT_SEED and not tiny:
        import pins
        correct = correct and first.digest == pins.load()["workloads"].get(
            wl.name)
    metrics = {
        "setup_s": statistics.median(setup_ns) / 1e9,
        "throughput_per_s": first.work / (sum(cost) / 1e9),
        "op_p50_ms": statistics.median(latency) / 1e6,
        "op_p99_ms": _percentile(latency, 99) / 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                        for k, v in metrics.items()}}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tr, counters: dict) -> dict:
    wall = tr.traced_ns
    self_ns = dict(tr.self_ns)
    self_ns["snapshot"] = sum(self_ns.pop(k, 0) for k in
                              ("snapshot.capture", "snapshot.release",
                               "snapshot.read"))
    c = counters
    decisions = c.get("engine.decisions", 0)
    vm_steps = c.get("vm.steps", 0)
    shares = {name: self_ns.get(layer, 0) / wall
              for layer, name in SHARES.items()}
    snap_us = (tr.self_ns.get("snapshot.capture", 0)
               + tr.self_ns.get("snapshot.release", 0)) / 1e3
    out = {
        "asm.us_per_insn": _ratio(self_ns.get("asm", 0) / 1e3,
                                  c.get("asm.instructions", 0)),
        "verifier.abstract_steps": c.get("verifier.abstract_steps", 0),
        "verifier.us_per_abstract_step": _ratio(
            self_ns.get("verifier", 0) / 1e3,
            c.get("verifier.abstract_steps", 0)),
        "engine.load.self_ms": _ratio(self_ns.get("engine.load", 0) / 1e6,
                                      c.get("engine.loads", 0)),
        "vm.steps_per_syscall": _ratio(vm_steps, decisions),
        "vm.ns_per_step": _ratio(self_ns.get("vm", 0), vm_steps),
        "vm.helper_calls_per_syscall": _ratio(c.get("vm.helper_calls", 0),
                                              decisions),
        "engine.syscall.self_us": _ratio(
            self_ns.get("engine.syscall", 0) / 1e3, decisions),
        "engine.blocks_per_syscall": _ratio(c.get("engine.blocks", 0),
                                            decisions),
        "snapshot.us_per_syscall": _ratio(snap_us, decisions),
        "snapshot.bytes_per_syscall": _ratio(c.get("snapshot.bytes", 0),
                                             decisions),
        "snapshot.reads_per_syscall": _ratio(c.get("snapshot.reads", 0),
                                             decisions),
        "usermem.stalls": c.get("usermem.stalls", 0),
        "maps.ops_per_syscall": _ratio(c.get("maps.ops", 0), decisions),
        "maps.us_per_op": _ratio(self_ns.get("maps", 0) / 1e3,
                                 c.get("maps.ops", 0)),
        "maps.hit_ratio": _ratio(c.get("maps.hits", 0),
                                 c.get("maps.lookups", 0)),
        "sim.steps": c.get("sim.steps", 0),
        "sim.us_per_step": _ratio(self_ns.get("sim", 0) / 1e3,
                                  c.get("sim.steps", 0)),
        "explore.deepcopies": c.get("explore.deepcopies", 0),
        "explore.states": c.get("explore.states", 0),
        "explore.memo_hit_ratio": _ratio(
            c.get("explore.state_keys", 0) - c.get("explore.states", 0),
            c.get("explore.state_keys", 0)),
        "explore.schedules": c.get("explore.schedules", 0),
        "explore.outcomes": c.get("explore.outcomes", 0),
        "trace.parse_ms": self_ns.get("trace.parse", 0) / 1e6,
        "other.share": 1.0 - sum(shares.values()),
        **shares,
    }
    return {k: (v, PER_LAYER[k]) for k, v in out.items()}


def traced_pass(wl, seed: int, tiny: bool):
    """Set up and run one pass under the tracer.  Returns the tracer, the
    state, the pass result and the deterministic work counters."""
    from tracer import Tracer

    with Tracer() as tr:
        state = wl.setup(seed, tiny)
        result = wl.run_pass(state)
    counters = dict.fromkeys(COUNTERS, 0)
    counters.update(tr.counters())
    return tr, state, result, counters


def run_traced(wl, seed: int, tiny: bool, reps: int = 3) -> dict:
    """Alternate untraced and traced set-up+pass `reps` times; the
    overhead compares the fastest of each, the layer metrics come from
    the last traced pass."""
    import calibrate

    now = time.perf_counter_ns
    wl.run_pass(wl.setup(seed, tiny))       # warm caches and lazy imports
    untraced_ns = traced_ns = None
    collect = gc.collect
    for _ in range(reps):
        collect()
        # the tracer counts forced collections as its own bookkeeping;
        # leave them out of the untraced time as well
        forced = [0]

        def timed_collect(*args):
            c0 = now()
            try:
                return collect(*args)
            finally:
                forced[0] += now() - c0

        gc.collect = timed_collect
        try:
            t0 = now()
            reference = wl.run_pass(wl.setup(seed, tiny))
            elapsed = now() - t0 - forced[0]
        finally:
            gc.collect = collect
        untraced_ns = min(untraced_ns or elapsed, elapsed)
        gc.collect()
        tr, state, result, counters = traced_pass(wl, seed, tiny)
        traced_ns = min(traced_ns or tr.traced_ns, tr.traced_ns)
    attempted, failed = wl.check(state, result)
    correct = failed == 0 and result.digest == reference.digest
    for name, value in sorted(counters.items()):
        print(f"counter\t{name}\t{value}")
    metrics = layer_metrics(tr, counters)
    metrics["tracing.overhead_pct"] = (
        (traced_ns - untraced_ns) / untraced_ns * 100, "%")
    metrics.update(calibrate.measure())
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in sorted(metrics.items())}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    _import_program()
    import workloads
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    if args.trace:
        out = run_traced(wl, args.seed, args.tiny)
    else:
        out = run_untraced(wl, args.seed, args.seconds, args.tiny)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
