"""Exploration against its reference: the same schedules and logs, in the
same order, and the same schedule and overlap counts from the graph, on
a seeded corpus of small races, and copies and fingerprints taken only
where the schedule branches and, for fingerprints, only where a second
schedule could lead.

`python -m tests.fuzz_explore` runs the corpus for longer.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from sfvm.scenarios import load_bundled_scenario
from sfvm.sim import Simulator, explore_interleavings
from sfvm.trace import parse_trace

from .helpers import (
    RACES,
    bundled_descriptors,
    explore_branch_points,
    explore_corpus,
    explore_disagreements,
    race_trace,
    trace_text,
)


@pytest.mark.parametrize("seed", range(RACES))
def test_exploration_agrees_with_the_reference(seed):
    events, config = race_trace(random.Random(seed))
    trace = parse_trace(trace_text(events))
    assert explore_disagreements(trace, config, bundled_descriptors()) == []


def test_the_corpus_reaches_every_feature():
    events_seen, policies, modes, logged = set(), set(), set(), set()
    for seed in range(RACES):
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
    runnable = Simulator.runnable_tasks
    copy, key = Simulator.__deepcopy__, Simulator.state_key
    points, copies, keyed = {}, [], []      # a branch point is its schedule

    def counted_runnable(self):
        got = runnable(self)
        if len(got) > 1:
            points[tuple(self.schedule)] = len(got)
        return got

    def counted_copy(self, memo):
        copies.append((tuple(self.schedule), self.rng))
        return copy(self, memo)

    def counted_key(self):
        got = key(self)
        keyed.append((got, tuple(self.schedule)))
        return got

    monkeypatch.setattr(Simulator, "runnable_tasks", counted_runnable)
    monkeypatch.setattr(Simulator, "__deepcopy__", counted_copy)
    monkeypatch.setattr(Simulator, "state_key", counted_key)
    spec = load_bundled_scenario("cve-2016-5195")
    runs = explore_interleavings(parse_trace(trace_text(spec["trace"])),
                                 descriptors=bundled_descriptors())
    assert len(runs) == 210
    assert (len(copies), len(keyed), len(points)) == (49, 66, 70)
    assert {point for _, point in keyed} <= set(points)
    met, hits = set(), set()        # a memo hit: a key met before
    for got, point in keyed:
        if got in met:
            hits.add(point)
        met.add(got)
    expanded = {point: k for point, k in points.items() if point not in hits}
    assert {point for point, _ in copies} == set(expanded)
    assert len(copies) == sum(k - 1 for k in expanded.values())
    assert all(rng is None for _, rng in copies)


@pytest.mark.parametrize("name,events,config", explore_corpus(),
                         ids=[name for name, _, _ in explore_corpus()])
def test_a_branch_point_left_unkeyed_meets_no_other_state(name, events,
                                                          config):
    # every branch point keyed, skipped ones included: a state that
    # exploration does not key is one no other schedule reaches, so the
    # skip loses no memo hit
    keys, keyed = explore_branch_points(events, config,
                                        lambda sim, key: key(sim))
    met = Counter(keys.values())
    skipped = [point for point in keys if point not in keyed]
    assert all(met[keys[point]] == 1 for point in skipped)
    assert set(keyed) <= set(keys)
