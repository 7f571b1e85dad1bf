"""Verifier soundness as a property, over a seeded corpus of programs
that mix stack spills, map lookups, helper calls, tail calls, branches
and loops, some of them deliberately broken (`helpers.soundness_program`).

(A) An accepted program runs to `exit` without a VM fault, whatever the
context, map contents, user memory and environment.  One fault is
outside the verifier's reach: `vm.STEP_LIMIT` counts steps across a
tail-call chain, while the verifier bounds each program on its own, so a
chain of programs each within the budget may still hit the limit.  Only
that fault, and only after a handoff, is excused.

(B) `verify`, which proves loop-free regions in one joined pass, reaches
the verdict, reason and offending pc of the path walk alone
(`verifier._walk`) on every program whose walk fits `STEP_BUDGET`.

(C) Every program survives encode/decode and disassemble/assemble.

`python -m tests.fuzz_verifier` runs the same checks for longer.
"""

from __future__ import annotations

import random

import pytest

from sfvm import verifier

from .helpers import (
    round_trip_faults,
    same_verdict,
    soundness_faults,
    soundness_program,
)

SEED = 2302
PROGRAMS = 300
RUNS = 4


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(SEED)
    out = []
    for _ in range(PROGRAMS):
        source, program = soundness_program(rng)
        out.append((source, program, verifier.verify(program)))
    return out


def test_accepted_programs_run_to_exit_without_a_fault(corpus):
    rng = random.Random(SEED + 1)
    for source, program, report in corpus:
        if report.accepted:
            assert soundness_faults(rng, program, RUNS) == [], source


def test_verify_agrees_with_the_walk_alone(corpus):
    for source, program, report in corpus:
        walked = verifier._walk(program)
        if "step budget" not in walked.reason:
            assert same_verdict(report, walked), (source, report, walked)


def test_programs_survive_both_round_trips(corpus):
    for source, program, _ in corpus:
        assert round_trip_faults(program) == [], source


def test_corpus_mixes_every_shape(corpus):
    sources = [s for s, _, _ in corpus]
    reports = [r for _, _, r in corpus]
    rejected = sum(not r.accepted for r in reports)
    assert 0.1 * PROGRAMS < rejected < 0.4 * PROGRAMS
    assert any(r.accepted and r.walked_states for r in reports)   # loops
    assert any(r.accepted and r.joined_states for r in reports)
    assert any("unbounded loop" in r.reason for r in reports)
    for needle in ("tail_call", "jeq r0, 0", "map_update_elem",
                   "safe_read_user", "safe_task_storage_get", "ld_map r",
                   "jset"):
        assert any(needle in s for s in sources), needle
