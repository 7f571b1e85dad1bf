"""Behaviour pins kept by the benchmark (`bench/pins.json`): the digest of
one pass of every workload, the `log_digest` of every bundled run-mode
scenario, the explore digest sets, and the outcomes of 10^4 runs of the
criterion-5 fuzz corpus.  Any change in decisions, step counts or
helper counts moves at least one of them."""

from __future__ import annotations

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, "bench")


def test_golden_pins_match():
    sys.path.insert(0, BENCH)
    try:
        import pins
        assert pins.mismatches(pins.load(), pins.compute(1)) == []
    finally:
        sys.path.remove(BENCH)
