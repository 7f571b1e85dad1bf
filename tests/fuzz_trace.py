"""Malformed traces against the parser and the simulator, outside the
test suite:

    PYTHONPATH=src python -m tests.fuzz_trace --seed 1 --traces 2000

Each trace is `helpers.every_field_trace` with one field of one event
taken out or given a value of some JSON type, going through every field
that `trace.EVENTS` lists for each event, plus "event" and "dt_ns", and
every JSON type in turn.  Every such trace must either be refused by
`parse_trace` with a `TraceError` or run to completion under
`Simulator.run`.  It prints each trace that does neither and exits with
their number.
"""

from __future__ import annotations

import argparse
import random
import sys
from copy import deepcopy

from sfvm.engine import EngineConfig
from sfvm.sim import Simulator
from sfvm.trace import EVENTS, TraceError, parse_trace

from .helpers import bundled_descriptors, every_field_trace, trace_text

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


def kind_fields(kind: str) -> list:
    """The fields `trace.EVENTS` lists for `kind`, required or not."""
    required, optional = EVENTS[kind]
    return f"{required.replace('|', ' ')} {optional}".split()


def field_swaps(events) -> list:
    """(event index, field, JSON type) for every field of every event
    and every JSON type."""
    out = []
    for i, ev in enumerate(events):
        names = [*kind_fields(ev["event"]), "event", "dt_ns"]
        out += [(i, name, kind) for name in names for kind in JSON_VALUES]
    return out


def swapped_trace(rng: random.Random, events, swap) -> list:
    i, name, kind = swap
    events = deepcopy(events)
    if kind == "absent":
        events[i].pop(name, None)
    else:
        events[i][name] = deepcopy(rng.choice(JSON_VALUES[kind]))
    return events


def crash(text: str, seed: int, config, descriptors):
    """What `text` raises on its way through `parse_trace` and a seeded
    `Simulator.run`, other than a `TraceError` from parsing; None when
    it is refused or runs to completion."""
    try:
        trace = parse_trace(text)
    except TraceError:
        return None
    except Exception as exc:        # the crash this looks for
        return exc
    try:
        Simulator(trace, config=config, descriptors=descriptors,
                  seed=seed).run()
    except Exception as exc:
        return exc
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.fuzz_trace")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--traces", type=int, default=1000)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    descriptors = bundled_descriptors()
    base = every_field_trace()
    swaps = field_swaps(base)
    rng.shuffle(swaps)
    crashed = 0
    for n in range(args.traces):
        swap = swaps[n % len(swaps)]
        text = trace_text(swapped_trace(rng, base, swap))
        config = EngineConfig(snapshot_mode=rng.choice(("copy",
                                                        "write_protect")))
        exc = crash(text, rng.randrange(1 << 16), config, descriptors)
        if exc is not None:
            crashed += 1
            print(f"crash at event {swap[0]}, {swap[1]} as {swap[2]}: "
                  f"{exc!r}\n{text}")
    print(f"traces {args.traces} of {len(swaps)} swaps  crashed {crashed}")
    return min(crashed, 255)


if __name__ == "__main__":
    sys.exit(main())
