"""The benchmark's own tests: golden pins, oracle sanity, repeatable
counters, and a tiny-size smoke run of every workload.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import pins  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sfvm import sim, trace  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          timeout=600)


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- golden pins -------------------------------------------------------------

def test_golden_pins_match():
    pinned = pins.load()
    assert pinned["seed"] == run.DEFAULT_SEED
    bad = pins.mismatches(pinned, pins.compute(pinned["seed"]))
    assert not bad, "\n".join(bad)


# -- the harness drives the program faithfully --------------------------------

@pytest.mark.parametrize("name", ["replay-stateless", "replay-stateful"])
def test_replay_driver_matches_simulator_run(name):
    """The timed driver schedules exactly as `Simulator.run` does."""
    wl = workloads.WORKLOADS[name]
    state = wl.setup(5, True)
    timed = wl.run_pass(state)
    inputs = state.inputs
    plain = sim.Simulator(trace.parse_trace(inputs["text"]),
                          config=state.sim.engine.config,
                          descriptors=state.sim.engine.descriptors,
                          seed=inputs["sched_seed"]).run()
    assert plain.digest() == timed.digest


@pytest.mark.parametrize("name", NAMES)
def test_oracle_passes_and_flags_a_wrong_verdict(name):
    wl = workloads.WORKLOADS[name]
    state = wl.setup(7, True)
    result = wl.run_pass(state)
    attempted, failed = wl.check(state, result)
    assert attempted > 0 and failed == 0
    # corrupt one output and the oracle must notice
    if name.startswith("replay"):
        entry = next(e for e in state.sim.entries if e["kind"] == "decision"
                     and e["action"] == "allow")
        entry["action"], entry["errno"] = "errno", 1
    elif name == "explore-races":
        result.detail[-1].metrics["stripped_schedules"] += 1
    else:
        kind, detail = result.detail[0]
        result.detail[0] = ("format" if kind != "format" else "accept",
                            detail)
    assert wl.check(state, result)[1] >= 1


def test_schedule_count_oracle_on_a_known_trace():
    # one root that spawns a child; each runs enter+exit: the child's two
    # events interleave with the root's remaining two in C(4,2) ways
    text = "\n".join(json.dumps(e) for e in [
        {"event": "spawn", "tid": 1},
        {"event": "spawn", "task": 1, "tid": 2},
        {"event": "syscall_enter", "task": 1, "nr": 0},
        {"event": "syscall_exit", "task": 1},
        {"event": "syscall_enter", "task": 2, "nr": 0},
        {"event": "syscall_exit", "task": 2},
    ])
    assert oracle.count_schedules(trace.parse_trace(text)) == 6


# -- counters --------------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_counters_repeat_exactly(name):
    wl = workloads.WORKLOADS[name]
    first = run.traced_pass(wl, 3, True)[3]
    second = run.traced_pass(wl, 3, True)[3]
    assert first == second
    assert set(run.COUNTERS) <= set(first)


# -- smoke: every workload, every named metric with its unit ---------------

def _last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
def test_smoke_every_metric_with_its_unit(name):
    spec = _benchmark_json()
    assert name in {w["name"] for w in spec["workloads"]}
    for flag, declared in (("0", spec["end_to_end"]),
                           ("1", spec["per_layer"])):
        out = _last_json(_run("--workload", name, "--seed", "2",
                              "--seconds", "0.5", "--trace", flag,
                              "--tiny"))
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0
        assert out["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        assert got == want


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "load-churn", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
