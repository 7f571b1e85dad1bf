"""Malformed scenario specs against `run_scenario`, outside the test
suite:

    PYTHONPATH=src python -m tests.fuzz_scenarios --seed 1 --specs 256

Each spec is `full_spec(kind)` for a kind of `scenarios.CHECKS`: every
scenario key its mode allows, a tiny two-task `serialization` trace and
one check of that kind giving every field (`FULL_CHECKS`), with one
change: a check
field or a scenario key given a value of some JSON type from
`fuzz_trace.JSON_VALUES`, taken out, or an unknown field added.  Every
such spec must be refused with a `ScenarioError` or a `TraceError`, hit
the exploration cap (`ExplorationLimit`), or give a result.  It prints
each spec that raises anything else and exits with their number.
"""

from __future__ import annotations

import argparse
import random
import sys
from copy import deepcopy

from sfvm.scenarios import CHECKS, MODES, ScenarioError, run_scenario
from sfvm.sim import ExplorationLimit
from sfvm.trace import TraceError

from .fuzz_trace import JSON_VALUES

TRACE = [
    {"event": "spawn", "tid": 1, "nnp": True},
    {"event": "load", "task": 1, "handle": "h",
     "policy": {"generator": "serialization", "pairs": {"1": [2], "2": [1]}}},
    {"event": "install", "task": 1, "handle": "h"},
    {"event": "spawn", "task": 1, "tid": 2},
    {"event": "syscall_enter", "task": 1, "nr": 1},
    {"event": "syscall_exit", "task": 1},
    {"event": "syscall_enter", "task": 2, "nr": 2},
    {"event": "syscall_exit", "task": 2},
]
FULL_CHECKS = {
    "decision_sequence": {"check": "decision_sequence", "task": 1, "nr": 1,
                          "actions": ["allow"]},
    "denied": {"check": "denied", "task": 2, "nr": 2},
    "allowed": {"check": "allowed", "task": 1, "nr": 1},
    "action_count": {"check": "action_count", "task": 2, "nr": 2,
                     "action": "allow", "min": 1, "max": 1},
    "no_overlap": {"check": "no_overlap", "pair": [1, 2]},
    "overlap_without_policy": {"check": "overlap_without_policy",
                               "pair": [1, 2], "min_schedules": 1},
    "schedule_count": {"check": "schedule_count", "count": 4},
}
UNKNOWN = "sed"                     # a field no check or scenario has


MODE_VALUES = {"seed": 1, "max_steps": 16}


def full_spec(kind: str) -> dict:
    mode = CHECKS[kind].mode
    return {"name": kind, "title": f"one {kind} check",
            "description": "a fuzzing base", "mode": mode,
            MODES[mode]: MODE_VALUES[MODES[mode]], "trace": deepcopy(TRACE),
            "checks": [deepcopy(FULL_CHECKS[kind])]}


def spec_swaps() -> list:
    """(kind, where, field, JSON type): every field of every full check
    and every JSON type, with where "check", and an unknown field per
    check; then every scenario key of a run and an explore base and
    every JSON type, with where "scenario" and no kind (the rng picks one
    whose base has the key), and an unknown scenario key."""
    out = []
    for kind, check in FULL_CHECKS.items():
        out += [(kind, "check", key, json_type)
                for key in check for json_type in JSON_VALUES]
        out.append((kind, "check", UNKNOWN, None))
    keys = dict.fromkeys([*full_spec("allowed"), *full_spec("no_overlap")])
    out += [(None, "scenario", key, json_type)
            for key in keys for json_type in JSON_VALUES]
    out.append((None, "scenario", UNKNOWN, None))
    return out


def swapped_spec(rng: random.Random, swap) -> dict:
    kind, where, key, json_type = swap
    if kind is None:
        kind = rng.choice([k for k in FULL_CHECKS
                           if json_type is None or key in full_spec(k)])
    spec = full_spec(kind)
    target = spec["checks"][0] if where == "check" else spec
    if json_type == "absent":
        del target[key]
        return spec
    if json_type is None:           # the unknown field: any JSON type
        json_type = rng.choice([k for k in JSON_VALUES if k != "absent"])
    target[key] = deepcopy(rng.choice(JSON_VALUES[json_type]))
    return spec


def crash(spec: dict):
    """What `run_scenario(spec)` raises other than a refusal or the
    exploration cap; None when it gives a result."""
    try:
        run_scenario(spec)
    except (ScenarioError, TraceError, ExplorationLimit):
        return None
    except Exception as exc:        # the crash this looks for
        return exc
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.fuzz_scenarios")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--specs", type=int, default=len(spec_swaps()))
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    swaps = spec_swaps()
    rng.shuffle(swaps)
    crashed = 0
    for n in range(args.specs):
        swap = swaps[n % len(swaps)]
        spec = swapped_spec(rng, swap)
        found = crash(spec)
        if found is not None:
            crashed += 1
            print(f"crash at {swap[0]} {swap[1]} {swap[2]} as {swap[3]}: "
                  f"{found!r}\n{spec!r}")
    print(f"specs {args.specs} of {len(swaps)} swaps  crashed {crashed}")
    return min(crashed, 255)


if __name__ == "__main__":
    sys.exit(main())
