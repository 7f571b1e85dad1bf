"""Malformed JSON inputs against every input format, driven by the
formats' own `vocab` declarations:

    PYTHONPATH=src python -m tests.fuzz_inputs --seed 7

Each format has bases whose objects carry every field their shapes
declare.  For each shape, each of its fields and `UNKNOWN`, and each JSON
type of `JSON_VALUES`, one input is a base with that field of an object
of that shape given a value of that type, or taken out ("absent"); the
seed picks the object and the value.  An input passes when its format's
run returns or raises one of its refusals: for trace events a
`TraceError` from `parse_trace` (the run must be clean), for specs and
their profiles a `PolicySpecError` (their programs must verify), for
scenarios a `ScenarioError`, `TraceError` or `ExplorationLimit`, and for
descriptor tables a `DescriptorError`.  It prints every input that does
not pass and exits with their number; the test suite runs it at seed 1.
"""

from __future__ import annotations

import argparse
import random
import sys
from copy import deepcopy
from typing import Callable, NamedTuple

from sfvm import policies, scenarios, snapshot
from sfvm.engine import EngineConfig
from sfvm.sim import ExplorationLimit, Simulator
from sfvm.trace import EVENTS, TraceError, parse_trace
from sfvm.verifier import verify

from .helpers import bundled_descriptors, every_field_trace, \
    programs_within, trace_text

# JSON type -> values of it to swap in; "absent" takes the field out
JSON_VALUES = {
    "absent": (None,),
    "null": (None,),
    "boolean": (True, False),
    "integer": (0, 1, -1, 7, 2 ** 32, 2 ** 64, -2 ** 63),
    "number": (0.5, -1.0, 1e300),
    "string": ("", "x", "00", "c", "counter", "CAP_SYS_ADMIN"),
    "array": ([], [1], ["x"], [None], [1] * 7, [[1]], [True]),
    "object": ({}, {"a": 1}, {"generator": "allow_all"},
               {"generator": "count_limit"}),
}
UNKNOWN = "layuot"                  # a field no shape declares

# a valid spec per generator that gives every field
FULL_SPECS = {
    "allow_all": {"generator": "allow_all"},
    "allowlist": {"generator": "allowlist", "allowed": [0, 1, 59],
                  "layout": "tree", "deny": "errno:1"},
    "denylist": {"generator": "denylist", "denied": [2, 59],
                 "layout": "hash", "deny": "kill_process"},
    "count_limit": {"generator": "count_limit", "nr": 1, "max": 2,
                    "arg_index": 0, "arg_value": 3, "deny": "errno:2"},
    "rate_limit": {"generator": "rate_limit", "nr": 0, "rate": 10,
                   "capacity": 3, "deny": "errno:11"},
    "temporal": {"generator": "temporal", "deny": "trap",
                 "profile": {"name": "tiny", "init": [[0, 3]],
                             "serv": [[2, 4]], "marker": 9}},
    "flow_integrity": {"generator": "flow_integrity", "syscalls": [1, 7, 0],
                       "transitions": [[None, 1], [1, 7], [7, 1]],
                       "origins": {"7": [0x401000]}, "deny": 0x50026},
    "serialization": {"generator": "serialization",
                      "pairs": {"1": [2], "2": [1, 3]}},
    "validation_cache": {"generator": "validation_cache",
                         "rules": {"1": {"0": [1, 2], "2": [64]}},
                         "cached": True, "deny": "errno:22",
                         "default": "log"},
}

# a tiny two-task `serialization` race, and a check of each kind that
# gives every field
SCENARIO_TRACE = [
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
    "decision_sequence": {"task": 1, "nr": 1, "actions": ["allow"]},
    "denied": {"task": 2, "nr": 2},
    "allowed": {"task": 1, "nr": 1},
    "action_count": {"task": 2, "nr": 2, "action": "allow", "min": 1,
                     "max": 1},
    "no_overlap": {"pair": [1, 2]},
    "overlap_without_policy": {"pair": [1, 2], "min_schedules": 1},
    "schedule_count": {"count": 4},
}


def full_scenario(kind: str) -> dict:
    """Every scenario key the mode of check `kind` allows, and one check
    of that kind."""
    mode = scenarios.CHECKS[kind].mode
    return {"name": kind, "title": f"one {kind} check",
            "description": "a fuzzing base", "mode": mode,
            scenarios.MODES[mode]: 1 if mode == "run" else 16,
            "trace": deepcopy(SCENARIO_TRACE),
            "checks": [{"check": kind, **deepcopy(FULL_CHECKS[kind])}]}


# one syscall that gives every argument index, every descriptor kind and
# both kinds of record field
FULL_DESCRIPTORS = {
    "1": {"name": "write", "args": {
        "0": {"kind": "scalar"},
        "1": {"kind": "user_buffer", "size": 64},
        "2": {"kind": "user_string", "max": 32},
        "3": {"kind": "user_record", "size": 16, "fields": [
            {"offset": 0, "kind": "user_buffer", "size": 8},
            {"offset": 8, "kind": "user_string", "max": 8}]},
        "4": {"kind": "scalar"}, "5": {"kind": "scalar"}}},
}


def _run_trace(events: list, rng: random.Random) -> None:
    trace = parse_trace(trace_text(events))
    config = EngineConfig(snapshot_mode=rng.choice(snapshot.MODES))
    try:
        Simulator(trace, config=config, descriptors=bundled_descriptors(),
                  seed=rng.randrange(1 << 16)).run()
    except TraceError as exc:      # only the parser may refuse
        raise AssertionError(f"the run raised {exc!r}") from None


def _run_spec(spec: dict, rng: random.Random) -> None:
    for program in programs_within(policies.build_program(spec)):
        report = verify(program)
        if not report.accepted:
            raise AssertionError(f"the verifier refused {report.reason}")


def _descriptor_targets() -> list:
    table, out = FULL_DESCRIPTORS, []
    for nr, entry in table.items():
        out += [(table, (nr,), snapshot.SYSCALL),
                (table, (nr, "args"), snapshot.ARGS)]
        for idx, arg in entry["args"].items():
            path = (nr, "args", idx)
            out.append((table, path, snapshot.ARG_KINDS[arg["kind"]]))
            out += [(table, (*path, "fields", j),
                     snapshot.FIELD_KINDS[item["kind"]])
                    for j, item in enumerate(arg.get("fields", ()))]
    return out


class Format(NamedTuple):
    """An input format: its bases as (base, path, shape) for each object a
    shape of it holds in a base, every shape it declares, what runs an
    input, and the errors that refuse one."""
    targets: Callable[[], list]
    shapes: list
    run: Callable
    refusals: tuple


FORMATS = {
    "trace": Format(
        lambda: [(events, (i,), EVENTS[ev["event"]])
                 for events in [every_field_trace()]
                 for i, ev in enumerate(events)],
        list(EVENTS.values()), _run_trace, (TraceError,)),
    "spec": Format(
        lambda: [(spec, (), policies.GENERATORS[name][2])
                 for name, spec in FULL_SPECS.items()]
        + [(FULL_SPECS["temporal"], ("profile",), policies.PHASE_PROFILE)],
        [*(shape for _, _, shape in policies.GENERATORS.values()),
         policies.PHASE_PROFILE], _run_spec, (policies.PolicySpecError,)),
    "scenario": Format(
        lambda: [target for kind, entry in scenarios.CHECKS.items()
                 for spec in [full_scenario(kind)]
                 for target in ((spec, (), scenarios.SCENARIO),
                                (spec, ("checks", 0), entry.shape))],
        [scenarios.SCENARIO,
         *(entry.shape for entry in scenarios.CHECKS.values())],
        lambda spec, rng: scenarios.run_scenario(spec),
        (scenarios.ScenarioError, TraceError, ExplorationLimit)),
    "descriptors": Format(
        _descriptor_targets,
        [snapshot.SYSCALL, snapshot.ARGS, *snapshot.ARG_KINDS.values(),
         *snapshot.FIELD_KINDS.values()],
        lambda table, rng: snapshot.DescriptorTable.from_json(table),
        (snapshot.DescriptorError,)),
}


def at(base, path: tuple):
    for key in path:
        base = base[key]
    return base


def slice_swaps(fmt: Format, rng: random.Random) -> list:
    """(base, path, shape, field, JSON type): for every shape the format
    declares, each of its fields and `UNKNOWN` with each JSON type, at an
    object of that shape that carries the field."""
    targets = fmt.targets()
    out = []
    for shape in fmt.shapes:
        for key in [*shape.types, UNKNOWN]:
            options = [(base, path) for base, path, held in targets
                       if held is shape
                       and (key == UNKNOWN or key in at(base, path))]
            out += [(*rng.choice(options), shape, key, json_type)
                    for json_type in JSON_VALUES]
    return out


def swapped(swap, rng: random.Random) -> object:
    """The base of `swap` with its change made."""
    base, path, _, key, json_type = swap
    value = deepcopy(base)
    target = at(value, path)
    if json_type == "absent":
        target.pop(key, None)
    else:
        target[key] = deepcopy(rng.choice(JSON_VALUES[json_type]))
    return value


def fuzz(name: str, rng: random.Random) -> int:
    """Run the slice of format `name`; the number of inputs that crashed,
    each printed."""
    fmt = FORMATS[name]
    picked = slice_swaps(fmt, rng)
    crashed = 0
    for swap in picked:
        value = swapped(swap, rng)
        try:
            fmt.run(value, rng)
        except fmt.refusals:
            continue
        except Exception as exc:    # the crash this looks for
            crashed += 1
            print(f"{name}: crash at {list(swap[1])}, {swap[3]} as "
                  f"{swap[4]}: {exc!r}\n{value!r}")
    print(f"{name}: inputs {len(picked)}  crashed {crashed}")
    return crashed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.fuzz_inputs")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    return min(sum(fuzz(name, rng) for name in FORMATS), 255)


if __name__ == "__main__":
    sys.exit(main())
