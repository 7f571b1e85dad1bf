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

(D) The facts `verify` records cover every state a run reaches: at each
pc a run of an accepted program executes, on the reference interpreter
(`helpers.ReferenceThread`), each register is of the type its tag gives,
and each slot the facts mark initialised is.  The fused blocks are
written from these facts and test none of them at run time, so a block
faults under a condition only at `STEP_LIMIT` (its counted variant), and
otherwise only at a pc with no fact, which no run reaches: checked here
over this corpus, every policy generator's programs and the first 300 of
criterion 5's.

`python -m tests.fuzz_verifier` runs the same checks for longer.
"""

from __future__ import annotations

import random

import pytest

from sfvm import verifier
from sfvm import vm
from sfvm.asm import assemble

from .helpers import (
    every_generator,
    facts_faults,
    fuzz_source,
    programs_within,
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


def _verified_generators() -> list:
    programs = [p for prog in every_generator() for p in programs_within(prog)]
    assert all(verifier.verify(p).accepted for p in programs)
    return programs


def test_facts_cover_every_state_a_run_reaches(corpus):
    rng = random.Random(SEED + 2)
    programs = [program for _, program, report in corpus if report.accepted]
    for program in programs + _verified_generators():
        assert facts_faults(rng, program, RUNS) == [], program


def _conditional_faults(program) -> list:
    """Lines of `program`'s blocks, plain and counted, that fault under a
    condition other than a `STEP_LIMIT` check."""
    entries, targets = vm._block_entries(program.instructions)
    out = []
    for entry in entries:
        for counted in (False, True):
            lines = vm._BlockWriter(program.instructions, program.facts,
                                    entry, targets, counted).source()
            opened = []     # (indent, line) of the enclosing lines
            for line in lines.splitlines():
                indent = len(line) - len(line.lstrip())
                while opened and opened[-1][0] >= indent:
                    opened.pop()
                if "raise" in line and indent > 8 \
                        and "STEP_LIMIT" not in opened[-1][1]:
                    out.append(line)
                opened.append((indent, line))
    return out


def test_blocks_hand_over_only_unconditionally(corpus):
    rng = random.Random(31337)      # criterion 5's
    fuzzed = [assemble(fuzz_source(rng)) for _ in range(300)]
    assert all(verifier.verify(p).accepted for p in fuzzed)
    accepted = [p for _, p, report in corpus if report.accepted]
    for program in accepted + _verified_generators() + fuzzed:
        assert _conditional_faults(program) == [], program
