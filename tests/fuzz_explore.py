"""Longer runs of the exploration cross-check (see `tests/test_explore.py`),
outside the test suite:

    PYTHONPATH=src python -m tests.fuzz_explore --seed 1 --traces 2000

For each generated race it checks that `explore_interleavings` returns
the reference explorer's schedules and logs in the reference's order,
that the explored graph counts the reference's schedules and, for every
pair of syscall numbers, its overlapping ones, and that replaying each
schedule from scratch logs the same entries.
It prints the counts and exits with the number of disagreeing traces.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from sfvm.trace import parse_trace

from .helpers import (
    bundled_descriptors,
    explore_disagreements,
    race_trace,
    trace_text,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.fuzz_explore")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--traces", type=int, default=500)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    descriptors = bundled_descriptors()
    disagreeing = 0
    for _ in range(args.traces):
        events, config = race_trace(rng)
        trace = parse_trace(trace_text(events))
        problems = explore_disagreements(trace, config, descriptors)
        if problems:
            disagreeing += 1
            print(f"disagreement ({config.snapshot_mode}): "
                  + "; ".join(problems))
            print("\n".join(json.dumps(ev) for ev in events))
    print(f"traces {args.traces}  disagreeing {disagreeing}")
    return min(disagreeing, 255)


if __name__ == "__main__":
    sys.exit(main())
