"""Malformed generator specs against `build_program`, outside the test
suite:

    PYTHONPATH=src python -m tests.fuzz_specs --seed 1 --specs 2000

Each spec is one of `FULL_SPECS`, a valid spec per entry of
`policies.GENERATORS` that gives every field, with one change: a field
(or "generator") given a value of some JSON type from
`fuzz_trace.JSON_VALUES`, a field taken out, or an unknown field added.
Every such spec must either be refused with a `PolicySpecError` or build
a program that `verify` accepts, together with every program it hands
off to.  It prints each spec that does neither and exits with their
number.
"""

from __future__ import annotations

import argparse
import random
import sys
from copy import deepcopy

from sfvm.policies import PolicySpecError, build_program
from sfvm.verifier import verify

from .fuzz_trace import JSON_VALUES

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
UNKNOWN = "layuot"                  # a field no generator has


def spec_swaps() -> list:
    """(generator, field, JSON type) for every field of every full spec
    and every JSON type, and (generator, UNKNOWN, None) for each
    generator."""
    out = []
    for name, spec in FULL_SPECS.items():
        out += [(name, key, kind) for key in spec for kind in JSON_VALUES]
        out.append((name, UNKNOWN, None))
    return out


def swapped_spec(rng: random.Random, swap) -> dict:
    name, key, kind = swap
    spec = deepcopy(FULL_SPECS[name])
    if kind == "absent":
        del spec[key]
        return spec
    if kind is None:                # the unknown field: any JSON type
        kind = rng.choice([k for k in JSON_VALUES if k != "absent"])
    spec[key] = deepcopy(rng.choice(JSON_VALUES[kind]))
    return spec


def rejection(program):
    """The verifier's reason for refusing `program` or a program it hands
    off to; None when all are accepted."""
    report = verify(program)
    if not report.accepted:
        return report.reason
    for decl in program.map_refs:
        for nested in decl.initial_programs.values():
            reason = rejection(nested)
            if reason is not None:
                return reason
    return None


def crash(spec: dict):
    """What `build_program(spec)` raises other than a `PolicySpecError`,
    or the reason `verify` gives for refusing what it built; None when
    the spec is refused or its program is accepted."""
    try:
        program = build_program(spec)
    except PolicySpecError:
        return None
    except Exception as exc:        # the crash this looks for
        return exc
    return rejection(program)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.fuzz_specs")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--specs", type=int, default=1000)
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
            print(f"crash at {swap[0]}, {swap[1]} as {swap[2]}: "
                  f"{found!r}\n{spec!r}")
    print(f"specs {args.specs} of {len(swaps)} swaps  crashed {crashed}")
    return min(crashed, 255)


if __name__ == "__main__":
    sys.exit(main())
