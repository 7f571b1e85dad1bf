"""Calibration rows: ROADMAP item 1's baseline measurements, re-taken by
this harness so later work has a measured base.

Each row times one small, fixed operation untraced and reports the
median over repetitions.  Rows run in every traced run, after the
workload, and are printed with the per-layer metrics.
"""

from __future__ import annotations

import random
import statistics
import time

from sfvm import (asm, engine, isa, policies, scenarios, sim, trace,
                  verifier, vm)

import workloads

now_ns = time.perf_counter_ns


def _median_ns(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = now_ns()
        fn()
        times.append(now_ns() - t0)
    return statistics.median(times)


def _attached(program):
    eng = engine.Engine()
    tid = eng.spawn(nnp=True)
    eng.install(tid, eng.load(tid, program))
    return eng, tid


def _probe_us(program, nr: int, reps: int) -> float:
    eng, tid = _attached(program)
    ctx = isa.SyscallContext(nr=nr)

    def once():
        record = eng.run_syscall(tid, ctx)
        if record["action"] in ("allow", "log"):
            eng.syscall_exit(tid)
        else:
            eng.task(tid).denied_enter = False

    return _median_ns(once, reps) / 1e3


def _verify_ms(program, reps: int) -> float:
    return _median_ns(lambda: verifier.verify(program), reps) / 1e6


def _load_ms(program, reps: int) -> float:
    eng = engine.Engine()

    def once():
        tid = eng.spawn(nnp=True)
        eng.install(tid, eng.load(tid, program))

    return _median_ns(once, reps) / 1e6


def _explore_ms(name: str, reps: int) -> float:
    spec = scenarios.load_bundled_scenario(name)
    tr = trace.parse_trace(workloads._spec_events(spec["trace"]))
    desc = workloads.bundled_descriptors()
    return _median_ns(lambda: sim.explore_interleavings(
        tr, descriptors=desc, max_steps=spec.get("max_steps", 14)),
        reps) / 1e6


def _fuzz_ns_per_insn(n_programs: int, n_contexts: int) -> float:
    rng = random.Random(31337)
    programs = [asm.assemble(workloads.fuzz_source(rng))
                for _ in range(n_programs)]
    for p in programs:
        verifier.verify(p)
    contexts = [workloads.fuzz_context(rng) for _ in range(n_contexts)]
    env = vm.RuntimeEnv()
    rates = []
    for _ in range(3):
        steps = 0
        t0 = now_ns()
        for p in programs:
            for c in contexts:
                thread = vm.VmThread(p, [], c)
                thread.run(env)
                steps += thread.steps
        rates.append((now_ns() - t0) / steps)
    return statistics.median(rates)


def measure() -> dict:
    """name -> (value, unit)"""
    allow400 = sorted(random.Random(400).sample(range(2000), 400))
    denied = range(1000, 1256)
    nginx = workloads.NGINX
    return {
        "calib.allow_all_us": (
            _probe_us(policies.gen_allow_all(), 0, 2000), "us"),
        "calib.deny_linear256_miss_us": (
            _probe_us(policies.gen_denylist(denied, layout="linear"), 500,
                      200), "us"),
        "calib.deny_hash256_miss_us": (
            _probe_us(policies.gen_denylist(denied, layout="hash"), 500,
                      1000), "us"),
        "calib.verify_allow400_linear_ms": (
            _verify_ms(policies.gen_allowlist(allow400, layout="linear"),
                       15), "ms"),
        "calib.verify_allow400_tree_ms": (
            _verify_ms(policies.gen_allowlist(allow400, layout="tree"),
                       7), "ms"),
        "calib.load_temporal_ms": (
            _load_ms(policies.gen_temporal(nginx), 30), "ms"),
        "calib.explore_cve_2016_5195_ms": (
            _explore_ms("cve-2016-5195", 3), "ms"),
        "calib.fuzz_ns_per_insn": (_fuzz_ns_per_insn(40, 25), "ns"),
    }
