"""Static checker: what gets in, what gets thrown out, and why."""

from __future__ import annotations

import random
import time
from dataclasses import replace

import pytest

from sfvm.asm import assemble
from sfvm.engine import Engine, EngineError
from sfvm import verifier
from sfvm.isa import (
    FilterProgram,
    Instruction,
    MapDecl,
    MapKind,
    Opcode,
)
from sfvm.verifier import verify

from .helpers import every_generator, fuzz_source

ALLOW = 0x7FFF0000


def accept(source: str):
    report = verify(assemble(source))
    assert report.accepted, report.reason
    return report


def reject(source_or_prog, fragment: str):
    prog = source_or_prog
    if isinstance(prog, str):
        prog = assemble(prog)
    report = verify(prog)
    assert not report.accepted
    assert fragment in report.reason, report.reason
    assert not prog.verified
    return report


def raw(instructions, maps=()):
    return FilterProgram(instructions=tuple(instructions),
                         map_refs=tuple(maps))


# -- things that must pass ----------------------------------------------------

def test_minimal_program():
    report = accept("section seccomp\n    mov r0, 0\n    exit\n")
    assert report.notes == {0: 1, 1: 1}
    assert report.abstract_steps == 2


def test_verified_flag_is_set_on_acceptance():
    prog = assemble("section seccomp\n    mov r0, 0\n    exit\n")
    assert not prog.verified
    verify(prog)
    assert prog.verified


def test_counted_loop_terminates():
    accept(
        "section seccomp\n"
        "    mov r1, 0\n"
        "loop:\n"
        "    add r1, 1\n"
        "    jlt r1, 10, loop\n"
        f"    mov r0, {ALLOW}\n"
        "    exit\n")


def test_both_branches_of_unknown_compare_are_walked():
    report = accept(
        "section seccomp\n"
        "    ld_ctx r2, 0\n"
        "    jeq r2, 1, one\n"
        "    mov r0, 0\n"
        "    exit\n"
        "one:\n"
        f"    mov r0, {ALLOW}\n"
        "    exit\n")
    assert all(report.notes[i] >= 1 for i in range(6))


def test_stack_round_trip():
    accept(
        "section seccomp\n"
        "    mov r2, 7\n"
        "    st_map r10, r2, -8\n"
        "    ld_map r0, r10, -8\n"
        "    exit\n")


def test_map_lookup_with_null_check():
    accept(
        "section seccomp\n"
        "map m hash 8 8 4\n"
        "    ld_ctx r2, 0\n"
        "    st_map r10, r2, -8\n"
        "    mov r2, r10\n"
        "    add r2, -8\n"
        "    ld_imm64 r1, map:m\n"
        "    call map_lookup_elem\n"
        "    jeq r0, 0, out\n"
        "    ld_map r3, r0, 0\n"
        "out:\n"
        "    mov r0, 0\n"
        "    exit\n")


# -- rejections ---------------------------------------------------------------

def test_empty_program():
    reject(raw([]), "empty")


def test_uninitialized_register():
    reject("section seccomp\n    mov r0, r3\n    exit\n", "uninitialized")


def test_frame_register_is_read_only():
    reject("section seccomp\n    mov r10, 0\n    exit\n", "read-only")


def test_fall_off_end():
    reject(raw([Instruction(Opcode.MOV_IMM, dst=0, imm=0)]), "falls off")


def test_jump_target_out_of_range():
    reject(raw([Instruction(Opcode.JA, offset=5),
                Instruction(Opcode.EXIT)]), "target out of range")
    reject(raw([Instruction(Opcode.MOV_IMM, dst=0, imm=0),
                Instruction(Opcode.JEQ_IMM, dst=0, imm=0, offset=-3),
                Instruction(Opcode.EXIT)]), "target out of range")


def test_unbounded_loops():
    reject(raw([Instruction(Opcode.JA, offset=-1)]), "unbounded loop")
    reject(
        "section seccomp\n"
        "    ld_ctx r2, 0\n"
        "spin:\n"
        "    jne r2, 0, spin\n"
        "    mov r0, 0\n"
        "    exit\n",
        "unbounded loop")


def test_step_budget(monkeypatch):
    monkeypatch.setattr(verifier, "STEP_BUDGET", 20)
    body = "".join("    add r1, 1\n" for _ in range(50))
    reject("section seccomp\n    mov r1, 0\n" + body + "    mov r0, 0\n"
           "    exit\n",
           "step budget")


def test_instruction_count_budget(monkeypatch):
    monkeypatch.setattr(verifier, "MAX_INSTRUCTIONS", 2)
    reject("section seccomp\n    mov r0, 0\n    mov r1, 1\n    exit\n",
           "exceeds 2 instructions")


def test_context_read_bounds():
    reject(raw([Instruction(Opcode.LD_CTX, dst=2, offset=12),
                Instruction(Opcode.EXIT)]), "not field aligned")
    reject(raw([Instruction(Opcode.LD_CTX, dst=2, offset=64),
                Instruction(Opcode.EXIT)]), "out of bounds")


def test_stack_windows():
    reject("section seccomp\n    mov r2, 1\n    st_map r10, r2, -520\n"
           "    exit\n", "out of bounds")
    reject("section seccomp\n    mov r2, 1\n    st_map r10, r2, 8\n"
           "    exit\n", "out of bounds")
    reject("section seccomp\n    mov r2, 1\n    st_map r10, r2, -12\n"
           "    exit\n", "aligned")
    reject("section seccomp\n    ld_map r0, r10, -8\n    exit\n",
           "uninitialized stack")


def test_pointer_hygiene():
    # a pointer may not leave the filter through r0
    reject("section seccomp\n    mov r0, r10\n    exit\n", "scalar at exit")
    # nor may it be compared against anything but the null constant
    reject("section seccomp\n    jeq r10, r1, out\nout:\n    mov r0, 0\n"
           "    exit\n", "non-scalar")
    # nor spilled to memory
    reject("section seccomp\n    st_map r10, r10, -8\n    exit\n", "spill")
    reject("section seccomp\n    mov r10, 0\n    exit\n", "read-only")


def test_pointer_arithmetic_needs_known_offset():
    reject("section seccomp\n    add r10, r10\n    exit\n", "unknown offset")
    reject(
        "section seccomp\n"
        "    ld_ctx r2, 0\n"
        "    mov r3, r10\n"
        "    add r3, r2\n"
        "    exit\n",
        "unknown offset")


def test_maybe_null_pointer_must_be_checked():
    reject(
        "section seccomp\n"
        "map m hash 8 8 4\n"
        "    mov r2, 0\n"
        "    st_map r10, r2, -8\n"
        "    mov r2, r10\n"
        "    add r2, -8\n"
        "    ld_imm64 r1, map:m\n"
        "    call map_lookup_elem\n"
        "    ld_map r3, r0, 0\n"
        "    mov r0, 0\n"
        "    exit\n",
        "possibly-null")


def test_map_value_window():
    reject(
        "section seccomp\n"
        "map m hash 8 8 4\n"
        "    mov r2, 0\n"
        "    st_map r10, r2, -8\n"
        "    mov r2, r10\n"
        "    add r2, -8\n"
        "    ld_imm64 r1, map:m\n"
        "    call map_lookup_elem\n"
        "    jeq r0, 0, out\n"
        "    ld_map r3, r0, 8\n"     # value_size is 8: one slot, offset 8 is past it
        "out:\n"
        "    mov r0, 0\n"
        "    exit\n",
        "out of bounds")


def test_undeclared_map_reference():
    prog = raw([Instruction(Opcode.LD_IMM64, dst=1, src=1, imm=0),
                Instruction(Opcode.EXIT)])
    reject(prog, "undeclared map")


def test_bad_map_declaration():
    prog = raw([Instruction(Opcode.MOV_IMM, dst=0, imm=0),
                Instruction(Opcode.EXIT)],
               maps=[MapDecl("m", MapKind.ARRAY, 4, 8, 4)])
    reject(prog, "bad map declaration")


def test_helper_whitelist():
    reject(raw([Instruction(Opcode.CALL, imm=99),
                Instruction(Opcode.EXIT)]), "not in the whitelist")


def test_helper_argument_types():
    # key argument must be a stack pointer
    reject(
        "section seccomp\n"
        "map m hash 8 8 4\n"
        "    ld_imm64 r1, map:m\n"
        "    mov r2, 5\n"
        "    call map_lookup_elem\n"
        "    mov r0, 0\n"
        "    exit\n",
        "must point into the stack")
    # key bytes must be written before the call
    reject(
        "section seccomp\n"
        "map m hash 8 8 4\n"
        "    ld_imm64 r1, map:m\n"
        "    mov r2, r10\n"
        "    add r2, -8\n"
        "    call map_lookup_elem\n"
        "    mov r0, 0\n"
        "    exit\n",
        "not fully initialized")
    # wrong map kind for the helper
    reject(
        "section seccomp\n"
        "map s task_storage 8 8 4\n"
        "    mov r2, 0\n"
        "    st_map r10, r2, -8\n"
        "    mov r2, r10\n"
        "    add r2, -8\n"
        "    ld_imm64 r1, map:s\n"
        "    call map_lookup_elem\n"
        "    mov r0, 0\n"
        "    exit\n",
        "not accepted")


def test_user_read_size_must_be_known_and_aligned():
    reject(
        "section seccomp\n"
        "    ld_ctx r2, 16\n"
        "    mov r1, r10\n"
        "    add r1, -8\n"
        "    ld_ctx r3, 24\n"
        "    call safe_read_user\n"
        "    mov r0, 0\n"
        "    exit\n",
        "known constant")
    reject(
        "section seccomp\n"
        "    mov r1, r10\n"
        "    add r1, -8\n"
        "    mov r2, 7\n"
        "    ld_ctx r3, 24\n"
        "    call safe_read_user\n"
        "    mov r0, 0\n"
        "    exit\n",
        "multiple of 8")


def test_tail_call_shape():
    reject(
        "section seccomp\n"
        "map arr array 8 8 4\n"
        "    ld_imm64 r1, map:arr\n"
        "    mov r2, 0\n"
        "    tail_call\n"
        "    mov r0, 0\n"
        "    exit\n",
        "program-array")
    reject(
        "section seccomp\n"
        "map progs prog_array 8 8 4\n"
        "    ld_imm64 r1, map:progs\n"
        "    mov r2, r10\n"
        "    tail_call\n"
        "    mov r0, 0\n"
        "    exit\n",
        "scalar index")
    # the fall-through path after a missing entry must still be valid
    accept(
        "section seccomp\n"
        "map progs prog_array 8 8 4\n"
        "    ld_imm64 r1, map:progs\n"
        "    mov r2, 0\n"
        "    tail_call\n"
        "    mov r0, 0\n"
        "    exit\n")


def test_program_array_target_past_max_entries_is_rejected():
    # a 1-entry array declaring its target at index 5 would drop it at
    # load, and the tail call would silently miss
    inner = assemble("section seccomp\n    ld_imm64 r0, 0x7fff0000\n"
                     "    exit\n")
    decl = MapDecl("progs", MapKind.PROG_ARRAY, 8, 8, 1,
                   initial_programs={5: inner})
    prog = assemble(
        "section seccomp\n"
        "map progs prog_array 8 8 1\n"
        "    ld_imm64 r1, map:progs\n"
        "    mov r2, 5\n"
        "    tail_call\n"
        "    mov r0, 0x50001\n"
        "    exit\n")
    prog = replace(prog, map_refs=(decl,))
    reject(prog, "bad map declaration: map progs: initial program index")
    eng = Engine()
    tid = eng.spawn(nnp=True)
    with pytest.raises(EngineError, match="bad map declaration"):
        eng.load(tid, prog)


def test_offending_instruction_is_reported():
    report = reject("section seccomp\n    mov r0, r3\n    exit\n",
                    "uninitialized")
    assert report.offending_instruction == 0


def test_every_generator_output_is_accepted():
    for prog in every_generator():
        report = verify(prog)
        assert report.accepted, report.reason
        # loop-free: one joined pass proves it, so no policy pays twice
        assert (report.joined_states, report.walked_states) == (1, 0)


# -- the joined pass: loop-free regions in one forward pass ---------------------

def diamonds(n: int, looped: bool = False) -> str:
    """n independent `jset` diamonds on an unknown argument, each adding a
    distinct power of two to r3: 2**n paths for a path walk.  `looped`
    puts a spin on the unknown argument right after the inits (pc 2)."""
    lines = ["section seccomp", "    ld_ctx r2, 16", "    mov r3, 0"]
    if looped:
        lines += ["spin:", "    jne r2, 0, spin"]
    for i in range(n):
        lines += [f"    jset r2, {1 << i}, d{i}", f"    add r3, {1 << i}",
                  f"d{i}:"]
    lines += ["    jgt r3, 100000, deny", f"    mov r0, {ALLOW}", "    exit",
              "deny:", "    mov r0, 0x50001", "    exit"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [9, 18, 40])
def test_diamonds_verify_in_linear_steps(n):
    t0 = time.perf_counter()
    report = accept(diamonds(n))
    assert time.perf_counter() - t0 < 0.25
    # 2n + 7 instructions, each stepped once
    assert report.abstract_steps == 2 * n + 7
    assert (report.joined_states, report.walked_states) == (1, 0)


def test_looped_diamonds_are_still_unbounded():
    report = reject(diamonds(9, looped=True), "unbounded loop")
    assert report.offending_instruction == 2
    # the loop's exit enters the loop-free diamonds: one pass proves them
    assert report.joined_states == 1
    assert report.abstract_steps < 50


def test_a_loop_free_program_past_the_walk_budget_now_verifies(monkeypatch):
    # the one verdict the joined pass changes: 2**9 paths do not fit a
    # 1000-step walk, but the program's 25 instructions do
    monkeypatch.setattr(verifier, "STEP_BUDGET", 1000)
    program = assemble(diamonds(9))
    assert "step budget" in verifier._walk(program).reason
    assert accept(diamonds(9)).abstract_steps == 25


def test_joined_pass_falls_back_to_the_walk_where_joins_lose_facts():
    # r3 is a known constant on each path but unknown once they merge,
    # and a stack pointer may only move by a known offset
    report = accept(
        "section seccomp\n"
        "    ld_ctx r2, 16\n"
        "    mov r3, 8\n"
        "    jeq r2, 0, merge\n"
        "    mov r3, 16\n"
        "merge:\n"
        "    mov r4, r10\n"
        "    sub r4, r3\n"
        "    mov r0, 0\n"
        "    exit\n")
    assert report.joined_states == 0
    # the failed pass's six steps count too
    assert report.abstract_steps == report.walked_states + 6


def test_criterion_5_fuzz_programs_are_proved_by_the_joined_pass():
    rng = random.Random(31337)      # criterion 5's corpus
    for _ in range(1000):
        report = verify(assemble(fuzz_source(rng)))
        assert report.accepted, report.reason
        assert (report.joined_states, report.walked_states) == (1, 0)
