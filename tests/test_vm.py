"""Interpreter semantics: arithmetic, control, helpers, accounting."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest

from sfvm.asm import assemble
from sfvm.isa import (
    ALU_OPS,
    FilterProgram,
    Instruction,
    MapDecl,
    MapKind,
    Opcode,
    SyscallContext,
)
from sfvm.maps import EFAULT, ENOENT, EPERM, PolicyMap
from sfvm.usermem import UserMemory
from sfvm import vm
from sfvm.verifier import verify
from sfvm.vm import (
    MAX_TAIL_CALLS,
    InFlightTable,
    RuntimeEnv,
    VmFault,
    VmThread,
    WaitBlock,
)

from .helpers import (
    ReferenceThread,
    ctx,
    every_generator,
    fused_blocks,
    programs_within,
    untyped_operands,
)

U64 = (1 << 64) - 1
U32 = (1 << 32) - 1
ALLOW = 0x7FFF0000


def build(source: str) -> FilterProgram:
    prog = assemble(source)
    report = verify(prog)
    assert report.accepted, report.reason
    return prog


def run(prog, c=None, env=None, maps=None, thread=VmThread):
    """The outcome of `prog` on the fused blocks, or on the reference
    interpreter (`thread=ReferenceThread`), which also runs a program the
    verifier refuses."""
    if isinstance(prog, str):
        prog = build(prog)
    if maps is None:
        maps = [PolicyMap(d) for d in prog.map_refs]
    thread = thread(prog, maps, c if c is not None else ctx(0))
    status = thread.run(env or RuntimeEnv())
    assert status == "done"
    return thread.outcome


def test_refuses_unverified_programs():
    prog = assemble("section seccomp\n    mov r0, 0\n    exit\n")
    with pytest.raises(VmFault):
        VmThread(prog, [], ctx(0))


def test_alu_matches_reference_semantics():
    rng = random.Random(0xBEEF)
    ops = ["add", "sub", "mul", "and", "or", "xor", "lsh", "rsh"]
    for _ in range(300):
        base = rng.choice(ops)
        a = rng.randrange(0, 1 << 64)
        b = rng.randrange(0, 1 << 64) if base not in ("lsh", "rsh") \
            else rng.randrange(0, 128)
        src = (
            "section seccomp\n"
            f"    mov r0, {a if a < (1 << 63) else a - (1 << 64)}\n"
            f"    mov r3, {b}\n"
            f"    {base} r0, r3\n")
        want = ALU_OPS[base](a, b)
        # the exit word is 32-bit, so the wide result leaves in halves
        low = run(src + "    exit\n")
        high = run(src + "    rsh r0, 32\n    exit\n")
        assert not low.faulted and not high.faulted
        assert low.raw_action == want & U32
        assert high.raw_action == want >> 32


def test_context_fields_reach_the_program():
    c = SyscallContext(nr=7, arch=0x11, calling_address=0x12345678,
                       args=(21, 22, 23, 24, 25, 26))
    for offset, want in [(0, 7), (4, 0x11), (8, 0x12345678), (16, 21),
                         (24, 22), (32, 23), (40, 24), (48, 25), (56, 26)]:
        out = run(f"section seccomp\n    ld_ctx r0, {offset}\n    exit\n", c)
        assert out.raw_action == want


def test_ld_imm64_wide_value():
    # truncated to the 32-bit action word at exit, like a real filter
    out = run("section seccomp\n    ld_imm64 r0, 0xdeadbeefcafef00d\n"
              "    exit\n")
    assert out.raw_action == 0xCAFEF00D
    out = run("section seccomp\n    ld_imm64 r0, 0xdeadbeefcafef00d\n"
              "    rsh r0, 32\n    exit\n")
    assert out.raw_action == 0xDEADBEEF


def test_unsigned_jump_semantics():
    # -1 compares as the largest word, not as a signed value
    out = run(
        "section seccomp\n"
        "    mov r2, -1\n"
        "    jgt r2, 100, big\n"
        "    mov r0, 0\n"
        "    exit\n"
        "big:\n"
        "    mov r0, 1\n"
        "    exit\n")
    assert out.raw_action == 1


def test_step_accounting_straight_line():
    out = run("section seccomp\n    mov r0, 0\n    mov r1, 1\n    exit\n")
    assert out.steps_executed == 3
    assert out.helper_calls == 0


def test_step_accounting_with_loop_and_helpers():
    n = 5
    out = run(
        "section seccomp\n"
        "map m array 8 8 1\n"
        "    mov r6, 0\n"
        "loop:\n"
        "    mov r2, 0\n"
        "    st_map r10, r2, -8\n"
        "    mov r2, r10\n"
        "    add r2, -8\n"
        "    ld_imm64 r1, map:m\n"
        "    call map_lookup_elem\n"
        "    add r6, 1\n"
        f"    jlt r6, {n}, loop\n"
        "    mov r0, 0\n"
        "    exit\n")
    assert out.helper_calls == n
    # 1 setup + n iterations of 8 instructions + mov + exit
    assert out.steps_executed == 1 + 8 * n + 2


def test_runtime_step_limit_faults(monkeypatch):
    prog = build(
        "section seccomp\n"
        "    mov r1, 0\n"
        "loop:\n"
        "    add r1, 1\n"
        "    jlt r1, 1000, loop\n"
        "    mov r0, 0\n"
        "    exit\n")
    monkeypatch.setattr(vm, "STEP_LIMIT", 50)
    out = run(prog)
    assert out.faulted
    assert "step limit" in out.fault_reason


def test_caller_saved_registers_are_clobbered_by_calls():
    prog = assemble(
        "section seccomp\n"
        "    mov r5, 9\n"
        "    call ktime_get_ns\n"
        "    mov r0, r5\n"
        "    exit\n")
    # the verifier refuses this outright; the reference interpreter must
    # fault rather than leak a stale value
    assert not verify(prog).accepted
    out = run(prog, thread=ReferenceThread)
    assert out.faulted
    assert "uninitialized" in out.fault_reason


def test_preserved_registers_survive_calls():
    out = run(
        "section seccomp\n"
        "    mov r6, 41\n"
        "    call ktime_get_ns\n"
        "    mov r0, r6\n"
        "    add r0, 1\n"
        "    exit\n")
    assert out.raw_action == 42


def test_forged_verified_flag_still_faults_on_bad_access():
    # a program cannot claim to be verified (`verified` is having facts);
    # run unverified, on the reference interpreter, it faults
    bad = FilterProgram(instructions=(
        Instruction(Opcode.LD_CTX, dst=0, offset=12),
        Instruction(Opcode.EXIT),
    ))
    with pytest.raises(AttributeError):
        bad.verified = True
    with pytest.raises(VmFault):
        VmThread(bad, [], ctx(0))
    out = run(bad, thread=ReferenceThread)
    assert out.faulted
    assert "field aligned" in out.fault_reason


def test_forged_stack_access_faults():
    bad = FilterProgram(instructions=(
        Instruction(Opcode.MOV_IMM, dst=2, imm=1),
        Instruction(Opcode.ST_MAP, dst=10, src=2, offset=-520),
        Instruction(Opcode.EXIT),
    ))
    out = run(bad, thread=ReferenceThread)
    assert out.faulted


def test_ktime_reads_the_environment_clock():
    out = run("section seccomp\n    call ktime_get_ns\n    exit\n",
              env=RuntimeEnv(clock_ns=123456))
    assert out.raw_action == 123456
    assert out.helper_calls == 1


# -- map helpers --------------------------------------------------------------

LOOKUP_NR = (
    "section seccomp\n"
    "map m hash 8 8 4\n"
    "    ld_ctx r2, 0\n"
    "    st_map r10, r2, -8\n"
    "    mov r2, r10\n"
    "    add r2, -8\n"
    "    ld_imm64 r1, map:m\n"
    "    call map_lookup_elem\n"
    "    jeq r0, 0, miss\n"
    "    ld_map r0, r0, 0\n"
    "    exit\n"
    "miss:\n"
    "    mov r0, 0\n"
    "    exit\n")


def test_lookup_hit_and_miss():
    prog = build(LOOKUP_NR)
    pmap = PolicyMap(prog.map_refs[0])
    pmap.update((7).to_bytes(8, "little"), (99).to_bytes(8, "little"))
    assert run(prog, ctx(7), maps=[pmap]).raw_action == 99
    assert run(prog, ctx(8), maps=[pmap]).raw_action == 0


def test_update_writes_through_to_the_map():
    prog = build(
        "section seccomp\n"
        "map m hash 8 8 4\n"
        "    mov r2, 5\n"
        "    st_map r10, r2, -16\n"
        "    mov r2, 77\n"
        "    st_map r10, r2, -8\n"
        "    mov r2, r10\n"
        "    add r2, -16\n"
        "    mov r3, r10\n"
        "    add r3, -8\n"
        "    mov r4, 0\n"
        "    ld_imm64 r1, map:m\n"
        "    call map_update_elem\n"
        "    mov r0, r0\n"
        "    exit\n")
    pmap = PolicyMap(prog.map_refs[0])
    out = run(prog, maps=[pmap])
    assert out.raw_action == 0
    assert pmap.lookup((5).to_bytes(8, "little")) == \
        (77).to_bytes(8, "little")


def test_store_through_lookup_pointer_persists():
    prog = build(
        "section seccomp\n"
        "map m array 8 8 1\n"
        "    mov r2, 0\n"
        "    st_map r10, r2, -8\n"
        "    mov r2, r10\n"
        "    add r2, -8\n"
        "    ld_imm64 r1, map:m\n"
        "    call map_lookup_elem\n"
        "    jeq r0, 0, out\n"
        "    ld_map r3, r0, 0\n"
        "    add r3, 1\n"
        "    st_map r0, r3, 0\n"
        "out:\n"
        "    mov r0, 0\n"
        "    exit\n")
    pmap = PolicyMap(prog.map_refs[0])
    for expect in (1, 2, 3):
        run(prog, maps=[pmap])
        got = int.from_bytes(pmap.lookup((0).to_bytes(8, "little")),
                             "little")
        assert got == expect


# -- handoff ------------------------------------------------------------------

def _dispatcher_with(inner_allow):
    decl = MapDecl("next", MapKind.PROG_ARRAY, 8, 8, 4,
                   initial_programs={1: inner_allow})
    outer = FilterProgram(instructions=(
        Instruction(Opcode.LD_IMM64, dst=1, src=1, imm=0),
        Instruction(Opcode.LD_CTX, dst=2, offset=0),
        Instruction(Opcode.TAIL_CALL),
        Instruction(Opcode.MOV_IMM, dst=0, imm=0x50001),
        Instruction(Opcode.EXIT),
    ), map_refs=(decl,))
    assert verify(outer).accepted
    return outer


def test_tail_call_dispatch_and_miss():
    inner = build(f"section seccomp\n    mov r0, {ALLOW}\n    exit\n")
    outer = _dispatcher_with(inner)
    pmap = PolicyMap(outer.map_refs[0])
    assert pmap.get_program(1) == (inner, [])
    hit = run(outer, ctx(1), maps=[pmap])
    assert hit.raw_action == ALLOW
    assert hit.helper_calls == 1
    # missing index: the helper reports no-entry and control falls through
    miss = run(outer, ctx(3), maps=[pmap])
    assert miss.raw_action == 0x50001
    assert miss.helper_calls == 1


def test_tail_call_depth_limit():
    a = build(
        "section seccomp\n"
        "map next prog_array 8 8 1\n"
        "    ld_imm64 r1, map:next\n"
        "    mov r2, 0\n"
        "    tail_call\n"
        "    mov r0, 0\n"
        "    exit\n")
    b = build(
        "section seccomp\n"
        "map next prog_array 8 8 1\n"
        "    ld_imm64 r1, map:next\n"
        "    mov r2, 0\n"
        "    tail_call\n"
        "    mov r0, 0\n"
        "    exit\n")
    map_a, map_b = PolicyMap(a.map_refs[0]), PolicyMap(b.map_refs[0])
    map_a.set_program(0, b, [map_b])
    map_b.set_program(0, a, [map_a])
    out = run(a, maps=[map_a])
    assert out.faulted
    assert str(MAX_TAIL_CALLS) in out.fault_reason


# -- user memory --------------------------------------------------------------

READ_ARG1 = (
    "section seccomp\n"
    "    mov r1, r10\n"
    "    add r1, -8\n"
    "    mov r2, 8\n"
    "    ld_ctx r3, 24\n"
    "    call safe_read_user\n"
    "    jne r0, 0, failed\n"
    "    ld_map r0, r10, -8\n"
    "    exit\n"
    "failed:\n"
    "    exit\n")


def test_safe_read_user_reads_live_memory():
    mem = UserMemory()
    mem.map_region(0x1000, 4096)
    mem.poke(0x1040, (0x55AA).to_bytes(8, "little"))
    env = RuntimeEnv(usermem=mem, user_access_allowed=True)
    out = run(READ_ARG1, ctx(1, 0, 0x1040), env=env)
    assert out.raw_action == 0x55AA


def test_safe_read_user_unmapped_returns_efault_and_zeros():
    mem = UserMemory()
    env = RuntimeEnv(usermem=mem, user_access_allowed=True)
    out = run(READ_ARG1, ctx(1, 0, 0xDEAD000), env=env)
    assert out.raw_action == (-EFAULT) & U32


def test_safe_read_user_denied_without_access_grant():
    mem = UserMemory()
    mem.map_region(0x1000, 4096)
    env = RuntimeEnv(usermem=mem, user_access_allowed=False)
    out = run(READ_ARG1, ctx(1, 0, 0x1000), env=env)
    assert out.raw_action == (-EPERM) & U32


@pytest.mark.parametrize("helper", ["safe_read_user", "safe_read_user_str"])
def test_user_reads_fill_their_buffer_even_when_denied(helper):
    # the verifier counts the buffer as written after the call, so a
    # denied read must write it too (with zeros) or the read below faults
    out = run("section seccomp\n"
              "    mov r1, r10\n"
              "    add r1, -16\n"
              "    mov r2, 16\n"
              "    ld_ctx r3, 16\n"
              f"    call {helper}\n"
              "    ld_map r0, r10, -16\n"
              "    ld_map r1, r10, -8\n"
              "    or r0, r1\n"
              "    exit\n",
              ctx(2, 0x1000), env=RuntimeEnv(user_access_allowed=False))
    assert not out.faulted, out.fault_reason
    assert out.raw_action == 0


READ_STR = (
    "section seccomp\n"
    "    mov r1, r10\n"
    "    add r1, -16\n"
    "    mov r2, 16\n"
    "    ld_ctx r3, 16\n"
    "    call safe_read_user_str\n"
    "    exit\n")


def test_safe_read_user_str_length_and_truncation():
    mem = UserMemory()
    mem.map_region(0x2000, 4096)
    mem.poke(0x2000, b"hello\x00")
    env = RuntimeEnv(usermem=mem, user_access_allowed=True)
    out = run(READ_STR, ctx(2, 0x2000), env=env)
    assert out.raw_action == 6    # includes the terminator
    mem.poke(0x2100, b"x" * 32)   # no terminator within the 16-byte cap
    out = run(READ_STR, ctx(2, 0x2100), env=env)
    assert out.raw_action == (-7) & U32   # E2BIG


# -- serialization helper ------------------------------------------------------

WAIT_PROG = (
    "section seccomp\n"
    "    ld_ctx r1, 0\n"
    "    mov r2, 77\n"
    "    call wait_syscall\n"
    "    mov r0, 0\n"
    "    exit\n")


def test_wait_registers_when_target_is_idle():
    table, registered = InFlightTable(), set()
    env = RuntimeEnv(in_flight=table, registered=registered)
    out = run(WAIT_PROG, ctx(25), env=env)
    assert not out.faulted
    assert registered == {25}
    assert table.counts == {25: 1}


def test_wait_blocks_while_target_is_in_flight():
    prog = build(WAIT_PROG)
    table = InFlightTable()
    table.increment(77)             # another task is inside 77
    env = RuntimeEnv(in_flight=table)
    thread = VmThread(prog, [], ctx(25))
    assert thread.run(env) == "blocked"
    assert thread.block == WaitBlock(77)
    assert env.registered == set()
    # once the target drains, the same thread picks up where it parked
    table.decrement(77)
    thread.block = None
    assert thread.run(env) == "done"
    assert not thread.outcome.faulted
    assert env.registered == {25}


def test_wait_discounts_its_own_registration():
    # a program serialized against its own syscall number must not
    # deadlock on the registration it just made
    table = InFlightTable()
    prog = build(
        "section seccomp\n"
        "    ld_ctx r1, 0\n"
        "    mov r2, 25\n"
        "    call wait_syscall\n"
        "    mov r2, 25\n"
        "    ld_ctx r1, 0\n"
        "    call wait_syscall\n"
        "    mov r0, 0\n"
        "    exit\n")
    out = run(prog, ctx(25), env=RuntimeEnv(in_flight=table))
    assert not out.faulted
    assert table.count(25) == 1   # registered once; the second wait passed


# -- runtime checks on forged programs -----------------------------------------

# one program per check the reference interpreter makes, with the fault
# reason it must report; the verifier refuses each, so only the reference
# runs it.  Assembly the assembler cannot express is given as
# instructions.
FORGED = {
    "uninit-register": ("mov r0, r3\nexit",
                        "read of uninitialized register r3"),
    "uninit-jump-operand": ("mov r2, 0\njeq r2, r4, 0\nmov r0, 0\nexit",
                            "read of uninitialized register r4"),
    "r10-mov": ("mov r10, 1\nmov r0, 0\nexit",
                "frame register is read-only"),
    "r10-add": ("add r10, 8\nmov r0, 0\nexit",
                "frame register is read-only"),
    "r10-ld-imm64": ("ld_imm64 r10, 1\nmov r0, 0\nexit",
                     "frame register is read-only"),
    "r10-ld-ctx": ("ld_ctx r10, 0\nmov r0, 0\nexit",
                   "frame register is read-only"),
    "pointer-compare": ("jeq r10, 5, 0\nmov r0, 0\nexit",
                        "comparison on non-scalar operands"),
    "ctx-null-check": ("jne r1, 0, 0\nmov r0, 0\nexit",
                       "comparison on non-scalar operands"),
    "scalar-vs-pointer": ("mov r2, 0\njgt r2, r10, 0\nmov r0, 0\nexit",
                          "comparison on non-scalar operands"),
    "ctx-arithmetic": ("add r1, 1\nmov r0, 0\nexit",
                       "add on non-scalar operands"),
    "pointer-multiply": ("mov r2, r10\nmul r2, 2\nmov r0, 0\nexit",
                         "mul on non-scalar operands"),
    "pointer-plus-pointer": ("mov r2, r10\nadd r2, r10\nmov r0, 0\nexit",
                             "pointer arithmetic needs a scalar offset"),
    "ctx-offset-unaligned": ("ld_ctx r0, 12\nexit", "field aligned"),
    "ctx-offset-past-end": ("ld_ctx r0, 64\nexit", "field aligned"),
    "stack-out-of-bounds": ("mov r2, 0\nst_map r10, r2, -520\nexit",
                            "memory access out of bounds"),
    "stack-above-frame": ("mov r2, 0\nst_map r10, r2, 0\nexit",
                          "memory access out of bounds"),
    "stack-uninitialized": ("ld_map r0, r10, -8\nexit",
                            "read of uninitialized stack slot"),
    "stack-misaligned": ("mov r2, 0\nst_map r10, r2, -4\nexit",
                         "not 8-byte aligned"),
    "load-through-scalar": ("mov r2, 0\nld_map r0, r2, 0\nexit",
                            "r2: expected a memory pointer"),
    "pointer-spill": ("st_map r10, r10, -8\nmov r0, 0\nexit",
                      "r10: expected a scalar"),
    "undeclared-map": ((Instruction(Opcode.LD_IMM64, dst=1, src=1),
                        Instruction(Opcode.EXIT)),
                       "reference to undeclared map"),
    "bad-ld-imm64-flag": ((Instruction(Opcode.LD_IMM64, dst=0, src=2),
                           Instruction(Opcode.EXIT)),
                          "bad ld_imm64 source flag"),
    "unknown-helper": ("call 99\nexit", "unknown helper id 99"),
    "tail-call-as-helper": ((Instruction(Opcode.CALL, imm=4),
                             Instruction(Opcode.EXIT)),
                            "helper tail_call not callable here"),
    "helper-without-map": ("mov r1, 0\ncall map_lookup_elem\nexit",
                           "r1: expected a map reference"),
    "tail-call-on-hash": ("map m hash 8 8 4\nld_imm64 r1, map:m\n"
                          "mov r2, 0\ntail_call\nexit",
                          "map m: kind not accepted here"),
    "exit-with-pointer": ("mov r0, r10\nexit", "r0: expected a scalar"),
    "exit-uninitialized": ("exit", "read of uninitialized register r0"),
    "falls-off-end": ("mov r0, 0", "control fell off the program"),
    "jumps-off-end": ("ja 5\nexit", "control fell off the program"),
    "jumps-before-start": ("ja -2\nexit", "control fell off the program"),
    "unhandled-opcode": ((Instruction(0x7E), Instruction(Opcode.EXIT)),
                         "unhandled opcode"),
}


@pytest.mark.parametrize("name", sorted(FORGED))
def test_forged_programs_fail_closed(name):
    body, reason = FORGED[name]
    if isinstance(body, str):
        prog = assemble("section seccomp\n" + body + "\n")
        assert not verify(prog).accepted
    else:
        prog = FilterProgram(instructions=body)
    out = run(prog, thread=ReferenceThread)
    assert out.faulted
    assert reason in out.fault_reason


def test_a_wrong_fact_faults_instead_of_raising():
    # the block trusts the facts: told that r1 is a reference to map 5,
    # it writes one back on leaving, and the lookup of map 5 raises
    prog = build("section seccomp\n    mov r4, r1\n    mov r0, 0\n    exit\n")
    tags, init = prog.facts[0]
    prog.facts = ((tags[:1] + (("M", 5),) + tags[2:], init),) \
        + prog.facts[1:]
    out = run(prog)
    assert fused_blocks(prog)
    assert out.faulted
    assert out.fault_reason == "IndexError: list index out of range"


def test_unreached_bad_instructions_cost_nothing():
    # faults belong to executing an instruction, not to building the
    # table: on the reference, and on the blocks, which have no fact there
    prog = assemble("section seccomp\n    mov r0, 7\n    exit\n"
                    "    call 99\n    ld_ctx r0, 3\n")
    out = run(prog, thread=ReferenceThread)
    assert not out.faulted and out.raw_action == 7
    assert verify(prog).accepted and prog.facts[2:] == (None, None)
    assert run(prog) == out


def test_handler_table_is_built_once_and_shared():
    import copy
    prog = build("section seccomp\n    mov r0, 1\n    exit\n")
    vm._LOWERINGS.pop((prog.instructions, prog.facts), None)
    assert prog.compiled is None
    thread = VmThread(prog, [], ctx(0))
    clone = copy.deepcopy(thread)
    thread.run(RuntimeEnv())
    table = prog.compiled
    assert len(table) == 2
    clone.run(RuntimeEnv())
    assert clone.program is prog and prog.compiled is table
    assert clone.outcome == thread.outcome


# one lowering, two declarations: an 8-byte-key array, or a 16-byte-key
# hash whose lookup reads an unwritten slot; read by a sleepable copy
SHARED_BODY = (
    "    mov r2, 0\n"
    "    st_map r10, r2, -16\n"
    "    mov r2, r10\n"
    "    add r2, -16\n"
    "    ld_imm64 r1, map:m\n"
    "    call map_lookup_elem\n"
    "    jeq r0, 0, miss\n"
    "    ld_map r0, r0, 0\n"
    "    exit\n"
    "miss:\n"
    "    mov r0, 3\n"
    "    exit\n")


def test_equal_instructions_share_one_lowering():
    # shared when the facts are equal too; a program the verifier refuses
    # (no facts) runs on the reference only, never on a verified one's
    # blocks
    array = build("section seccomp\nmap m array 8 8 1\n" + SHARED_BODY)
    sleepy = build("section seccomp-sleepable\nmap m array 8 8 1\n"
                   + SHARED_BODY)
    hashed = assemble("section seccomp\nmap m hash 16 8 2\n" + SHARED_BODY)
    assert not verify(hashed).accepted  # the key's second slot is unwritten
    assert array.instructions == hashed.instructions == sleepy.instructions

    def maps_of(prog):
        maps = [PolicyMap(d) for d in prog.map_refs]
        if prog is array:
            maps[0].update(bytes(8), (41).to_bytes(8, "little"))
        return maps

    outcomes = []
    for prog in (array, hashed, sleepy):
        thread = ReferenceThread if prog is hashed else VmThread
        outcomes.append(run(prog, maps=maps_of(prog), thread=thread))
        assert bool(fused_blocks(prog)) == (prog is not hashed)
    assert array.compiled is sleepy.compiled is not hashed.compiled
    for prog, fused in zip((array, hashed, sleepy), outcomes):
        assert fused == run(prog, maps=maps_of(prog), thread=ReferenceThread)
    assert outcomes[0].raw_action == 41 and not outcomes[0].faulted
    assert outcomes[1].fault_reason == "read of uninitialized stack slot"
    other = build("section seccomp\nmap m array 8 8 1\n"
                  + SHARED_BODY.replace("mov r0, 3", "mov r0, 4"))
    run(other)
    assert other.compiled is not array.compiled


def test_the_least_recently_used_lowering_is_evicted(monkeypatch):
    monkeypatch.setattr(vm, "_LOWERINGS", {})
    monkeypatch.setattr(vm, "LOWERINGS_KEPT", 3)
    progs = [build(f"section seccomp\n    mov r0, {i}\n    exit\n")
             for i in range(4)]
    for prog in progs[:3]:
        run(prog)
    run(build("section seccomp\n    mov r0, 0\n    exit\n"))  # 0 is used
    run(progs[3])
    assert list(vm._LOWERINGS) == [(progs[i].instructions, progs[i].facts)
                                   for i in (2, 0, 3)]
    fresh = build("section seccomp\n    mov r0, 1\n    exit\n")
    run(fresh)
    assert fresh.compiled is not progs[1].compiled
    assert list(vm._LOWERINGS) == [(progs[i].instructions, progs[i].facts)
                                   for i in (0, 3, 1)]


def test_every_generator_instruction_runs_fused():
    # every instruction is reached, and the facts type every operand it
    # reads: a generator change after which a block must read an operand
    # from the thread, untyped, fails here
    for prog in every_generator():
        for p in programs_within(prog):
            assert verify(p).accepted
            assert None not in p.facts, p
            assert untyped_operands(p) == [], p


# programs for the paths a fused block takes at run time: each the
# verifier accepts runs on the blocks and on the reference, and the
# outcomes must be equal; each it rejects runs on the reference alone,
# and must fault with the reason given.  The `joined-` ones take two
# paths, by the syscall number, that reach an instruction with operands
# the facts join to X (two frame offsets, two maps, two maybe-null
# lookups), so the block reads them from the thread.
JOINED_SLOTS = ("mov r3, 5\nst_map r10, r3, -8\nmov r3, 7\n"
                "st_map r10, r3, -16\n")
BLOCK_EDGES = {
    "joined-frame-load": (JOINED_SLOTS + "ld_ctx r4, 0\nmov r2, r10\n"
                          "add r2, -8\njeq r4, 1, 2\nmov r2, r10\n"
                          "add r2, -16\nld_map r0, r2, 0\nexit", None),
    "joined-frame-store": ("ld_ctx r4, 0\nmov r2, r10\nadd r2, -8\n"
                           "jeq r4, 1, 2\nmov r2, r10\nadd r2, -16\n"
                           "mov r3, r4\nadd r3, 9\nst_map r2, r3, 0\n"
                           "ld_map r0, r2, 0\nexit", None),
    "joined-map-call": ("map a hash 8 8 4\nmap b array 8 8 4\nmov r3, 0\n"
                        "st_map r10, r3, -8\nld_ctx r4, 0\n"
                        "ld_imm64 r1, map:a\njeq r4, 1, 1\n"
                        "ld_imm64 r1, map:b\nmov r2, r10\nadd r2, -8\n"
                        "call map_lookup_elem\njeq r0, 0, 2\n"
                        "ld_map r0, r0, 0\nexit\nmov r0, 3\nexit", None),
    "joined-null-check": ("map a hash 8 8 4\nmap b array 8 8 4\n"
                          "mov r3, 0\nst_map r10, r3, -8\nld_ctx r6, 0\n"
                          "mov r2, r10\nadd r2, -8\njeq r6, 1, other\n"
                          "ld_imm64 r1, map:a\ncall map_lookup_elem\n"
                          "ja check\nother:\nld_imm64 r1, map:b\n"
                          "call map_lookup_elem\ncheck:\njeq r0, 0, miss\n"
                          "mov r0, 1\nexit\nmiss:\nmov r0, 2\nexit", None),
    # r2 reaches the next block as a frame pointer
    "unwritten-slot-past-a-jump": ("mov r2, r10\nadd r2, -8\nja 0\n"
                                   "ld_map r0, r2, 0\nexit",
                                   "read of uninitialized stack slot"),
    "written-slot-past-a-jump": ("mov r2, r10\nadd r2, -8\nmov r3, 9\n"
                                 "ja 0\nst_map r2, r3, 0\nja 0\n"
                                 "ld_map r0, r2, 0\nexit", None),
    "misaligned-past-a-jump": ("mov r2, r10\nadd r2, -12\nja 0\n"
                               "mov r3, 1\nst_map r2, r3, 0\nmov r0, 0\n"
                               "exit", "not 8-byte aligned"),
    "pointer-from-offset-register": ("mov r3, -8\nmov r2, r10\n"
                                     "add r2, r3\nmov r4, 5\n"
                                     "st_map r2, r4, 0\nld_map r0, r2, 0\n"
                                     "exit", None),
    "lookup-on-a-program-array": ("map m prog_array 8 8 1\nmov r2, 0\n"
                                  "st_map r10, r2, -8\nmov r2, r10\n"
                                  "add r2, -8\nld_imm64 r1, map:m\n"
                                  "call map_lookup_elem\nmov r0, 0\nexit",
                                  "kind not accepted here"),
    "lookup-past-the-frame": ("map m hash 16 8 1\nmov r2, 0\n"
                              "st_map r10, r2, -8\nmov r2, r10\n"
                              "add r2, -8\nld_imm64 r1, map:m\n"
                              "call map_lookup_elem\nmov r0, 0\nexit",
                              "memory access out of bounds"),
    "wide-key-lookup": ("map m hash 16 8 1\nmov r2, 7\n"
                        "st_map r10, r2, -16\nst_map r10, r2, -8\n"
                        "mov r2, r10\nadd r2, -16\nmov r3, r10\n"
                        "add r3, -8\nmov r4, 0\nld_imm64 r1, map:m\n"
                        "call map_update_elem\nmov r2, r10\nadd r2, -16\n"
                        "ld_imm64 r1, map:m\ncall map_lookup_elem\n"
                        "jeq r0, 0, 1\nld_map r0, r0, 0\nexit", None),
    "null-then-load": ("map m hash 8 8 1\nmov r2, 0\nst_map r10, r2, -8\n"
                       "mov r2, r10\nadd r2, -8\nld_imm64 r1, map:m\n"
                       "call map_lookup_elem\njne r0, 0, 1\n"
                       "ld_map r0, r0, 0\nexit",
                       "r0: expected a memory pointer"),
    "context-copy": ("mov r6, r1\nmov r0, 0\nexit", None),
    "context-compare": ("mov r6, r1\njeq r6, 0, 0\nmov r0, 0\nexit",
                        "comparison on non-scalar operands"),
    "frame-null-check": ("jne r10, 0, 1\nmov r0, 1\nmov r0, 2\nexit", None),
}


def _run_seen(thread, prog, c):
    """The outcome, stack and its initialised slots after a run."""
    t = thread(prog, [PolicyMap(d) for d in prog.map_refs], c)
    assert t.run(RuntimeEnv()) == "done"
    return t.outcome, bytes(t.stack), t.stack_init


@pytest.mark.parametrize("name", sorted(BLOCK_EDGES))
def test_fused_blocks_take_each_path_like_the_handlers(name):
    body, reason = BLOCK_EDGES[name]
    prog = assemble("section seccomp\n" + body + "\n")
    accepted = verify(prog).accepted
    if name.startswith("joined-"):
        assert accepted and untyped_operands(prog), prog.facts
    outcomes = set()
    for nr in (0, 1):       # each path of the joined programs
        seen = _run_seen(ReferenceThread, prog, ctx(nr))
        if accepted:
            assert _run_seen(VmThread, prog, ctx(nr)) == seen
        out = seen[0]
        assert out.faulted == (reason is not None)
        assert reason is None or reason in out.fault_reason
        outcomes.add(out.raw_action)
    assert bool(fused_blocks(prog)) == accepted
    assert len(outcomes) == 2 or not name.startswith("joined-")


def test_fused_and_per_pc_lowerings_agree_on_a_seeded_corpus():
    # a fixed slice of `python -m tests.fuzz_lowering`
    from . import fuzz_lowering
    found, seen = fuzz_lowering.run_corpus(1, 1000)
    assert found == []
    assert seen["WaitBlock"] and seen["FaultServiceBlock"]
    assert seen["handoff"] and seen["fault"]


# -- records --------------------------------------------------------------------


def _as_dataclass(cls):
    """The frozen dataclass each record replaced, with the same fields."""
    return dataclasses.make_dataclass(cls.__name__, cls.__slots__,
                                      frozen=True)


RECORD_SAMPLES = {
    vm.WaitBlock: [(77,), (78,)],
    vm.FaultServiceBlock: [((0x1000, 8),), ((0x1000, 16),)],
    vm.VmOutcome: [(ALLOW, 3, 1, False, ""), (0, 3, 1, True, "boom"),
                   (ALLOW, 4, 1, False, "")],
    vm.MapRef: [("m",), ("n",)],
    vm.MemPtr: [(bytearray(b"ab"), 0), (bytearray(b"ab"), 8),
                (bytearray(b"ac"), 0)],
}


@pytest.mark.parametrize("cls", RECORD_SAMPLES, ids=lambda c: c.__name__)
def test_records_compare_hash_and_print_like_frozen_dataclasses(cls):
    old = _as_dataclass(cls)
    samples = RECORD_SAMPLES[cls]
    for a in samples:
        for b in samples:
            # equal field values, not identity: new buffers of equal bytes
            copy_b = tuple(bytearray(v) if type(v) is bytearray else v
                           for v in b)
            assert (cls(*a) == cls(*copy_b)) == (old(*a) == old(*copy_b))
            assert (cls(*a) != cls(*b)) == (old(*a) != old(*b))
        rec = cls(*a)
        assert repr(rec) == repr(old(*a))
        assert rec != a and rec != old(*a)
        try:
            want = hash(old(*a))
        except TypeError:       # a MemPtr over a bytearray
            with pytest.raises(TypeError):
                hash(rec)
        else:
            assert hash(rec) == want
        for name in cls.__slots__:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.other = 0
        assert not hasattr(rec, "__dict__")


def test_records_take_their_fields_by_position_or_name():
    out = vm.VmOutcome(ALLOW, 3, 1)
    assert (out.faulted, out.fault_reason) == (False, "")
    assert out == vm.VmOutcome(raw_action=ALLOW, steps_executed=3,
                               helper_calls=1, faulted=False)
    assert vm.WaitBlock(target_nr=77) == WaitBlock(77)
    with pytest.raises(TypeError):
        vm.MemPtr(bytearray(8))


def test_record_copies_keep_their_values():
    block = WaitBlock(77)
    assert copy.copy(block) == block and copy.deepcopy(block) == block
    assert pickle.loads(pickle.dumps(block)) == block
    stack = bytearray(range(8))
    ptr = vm.MemPtr(stack, 8)
    # declared state: a copy points into the copy of what it aliases
    stack2, ptr2 = copy.deepcopy((stack, ptr))
    assert ptr2 == ptr and ptr2.buf is stack2 and stack2 is not stack
