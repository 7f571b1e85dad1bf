"""Exploration against its reference: the same schedules and logs, in the
same order, on a seeded corpus of small races, and copies and
fingerprints taken only where the schedule branches.

`python -m tests.fuzz_explore` runs the corpus for longer.
"""

from __future__ import annotations

import random

import pytest

from sfvm.scenarios import load_bundled_scenario
from sfvm.sim import Simulator, explore_interleavings
from sfvm.trace import parse_trace

from .helpers import (
    bundled_descriptors,
    explore_disagreements,
    race_trace,
    trace_text,
)

CORPUS = 60


@pytest.mark.parametrize("seed", range(CORPUS))
def test_exploration_agrees_with_the_reference(seed):
    events, config = race_trace(random.Random(seed))
    trace = parse_trace(trace_text(events))
    assert explore_disagreements(trace, config, bundled_descriptors()) == []


def test_the_corpus_reaches_every_feature():
    events_seen, policies, modes, logged = set(), set(), set(), set()
    for seed in range(CORPUS):
        events, config = race_trace(random.Random(seed))
        events_seen |= {ev["event"] for ev in events}
        policies |= {ev["policy"]["generator"] for ev in events
                     if ev["event"] == "load"}
        modes.add(config.snapshot_mode)
        runs = explore_interleavings(parse_trace(trace_text(events)), config,
                                     bundled_descriptors())
        logged |= {(e["kind"], e.get("action")) for _, entries in runs
                   for e in entries}
    assert {"spawn", "spawn_thread", "syscall_enter", "mem_write",
            "map_update"} <= events_seen
    assert policies == {"allow_all", "count_limit", "serialization"}
    assert modes == {"copy", "write_protect"}
    # stores stall under write protection; a kill drains its victim
    assert {("stall", None), ("skipped", None), ("error", None),
            ("decision", "kill_process"), ("decision", "errno")} <= logged


def test_copies_and_keys_only_at_branch_points(monkeypatch):
    copy, key = Simulator.__deepcopy__, Simulator.state_key
    copies, keyed = [], []

    def counted_copy(self, memo):
        copies.append(self)
        return copy(self, memo)

    def counted_key(self):
        got = key(self)
        keyed.append((got, len(self.runnable_tasks())))
        return got

    monkeypatch.setattr(Simulator, "__deepcopy__", counted_copy)
    monkeypatch.setattr(Simulator, "state_key", counted_key)
    spec = load_bundled_scenario("cve-2016-5195")
    runs = explore_interleavings(parse_trace(trace_text(spec["trace"])),
                                 descriptors=bundled_descriptors())
    assert len(runs) == 210
    assert (len(copies), len(keyed)) == (49, 70)
    assert min(k for _, k in keyed) >= 2
    expanded = {}               # memo misses: a branch point's first key
    for got, k in keyed:
        expanded.setdefault(got, k)
    assert len(copies) == sum(k - 1 for k in expanded.values())
    assert all(sim.rng is None for sim in copies)
