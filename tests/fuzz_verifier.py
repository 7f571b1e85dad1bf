"""Longer runs of the verifier's soundness properties (see
`tests/test_verifier_soundness.py`), outside the test suite:

    PYTHONPATH=src python -m tests.fuzz_verifier --seed 1 --programs 5000

For each generated program it checks that `verify` agrees with the path
walk alone (when the walk fits `STEP_BUDGET`), that the program survives
encode/decode and disassemble/assemble, and, if accepted, that random
runs end at `exit` without a VM fault.  It prints the counts and exits
non-zero on any fault, disagreement or round-trip failure.
"""

from __future__ import annotations

import argparse
import random
import sys

from sfvm import verifier

from .helpers import (
    round_trip_faults,
    same_verdict,
    soundness_faults,
    soundness_program,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.fuzz_verifier")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--programs", type=int, default=1000)
    ap.add_argument("--runs", type=int, default=8,
                    help="random runs per accepted program")
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    accepted = looped = fallbacks = faults = disagreements = 0
    round_trips = 0
    for _ in range(args.programs):
        source, program = soundness_program(rng)
        for problem in round_trip_faults(program):
            round_trips += 1
            print(f"round trip: {problem}\n{source}")
        report = verifier.verify(program)
        walked = verifier._walk(program)
        if report.walked_states:
            # a program with a loop always walks from pc 0; a loop-free
            # one walks only where the joined pass failed
            if 0 in verifier._acyclic_ranks(program.instructions):
                fallbacks += 1
            else:
                looped += 1
        if "step budget" not in walked.reason \
                and not same_verdict(report, walked):
            disagreements += 1
            print(f"disagreement: verify {report.reason!r} at "
                  f"{report.offending_instruction}, walk {walked.reason!r} "
                  f"at {walked.offending_instruction}\n{source}")
        if report.accepted:
            accepted += 1
            found = soundness_faults(rng, program, args.runs)
            faults += len(found)
            for reason in found:
                print(f"fault: {reason}\n{source}")
    print(f"programs {args.programs}  accepted {accepted}  "
          f"rejected {args.programs - accepted}  "
          f"walked-state fallbacks {fallbacks} (loop-free programs)  "
          f"walked around a loop {looped}")
    print(f"VM faults of accepted programs {faults}  "
          f"walk/verify disagreements {disagreements}  "
          f"round-trip failures {round_trips}")
    return 1 if faults or disagreements or round_trips else 0


if __name__ == "__main__":
    sys.exit(main())
