"""Interpreter semantics: arithmetic, control, helpers, accounting."""

from __future__ import annotations

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

from .helpers import ctx

U64 = (1 << 64) - 1
U32 = (1 << 32) - 1
ALLOW = 0x7FFF0000


def build(source: str) -> FilterProgram:
    prog = assemble(source)
    report = verify(prog)
    assert report.accepted, report.reason
    return prog


def run(prog, c=None, env=None, maps=None):
    if isinstance(prog, str):
        prog = build(prog)
    if maps is None:
        maps = [PolicyMap(d) for d in prog.map_refs]
    thread = VmThread(prog, maps, c if c is not None else ctx(0))
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
    # the verifier refuses this outright; the interpreter, run on a forged
    # verified flag, must fault rather than leak a stale value
    assert not verify(prog).accepted
    prog.verified = True
    out = run(prog)
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
    bad = FilterProgram(instructions=(
        Instruction(Opcode.LD_CTX, dst=0, offset=12),
        Instruction(Opcode.EXIT),
    ))
    bad.verified = True        # lie about it
    out = run(bad)
    assert out.faulted
    assert "field aligned" in out.fault_reason


def test_forged_stack_access_faults():
    bad = FilterProgram(instructions=(
        Instruction(Opcode.MOV_IMM, dst=2, imm=1),
        Instruction(Opcode.ST_MAP, dst=10, src=2, offset=-520),
        Instruction(Opcode.EXIT),
    ))
    bad.verified = True
    out = run(bad)
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

# one program per check the interpreter makes, with the fault reason it
# must report; each is run with a forged "verified" flag.  Assembly the
# assembler cannot express is given as instructions.
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
    prog.verified = True        # lie about it
    out = run(prog)
    assert out.faulted
    assert reason in out.fault_reason


def test_unreached_bad_instructions_cost_nothing():
    # faults belong to executing an instruction, not to building the table
    prog = assemble("section seccomp\n    mov r0, 7\n    exit\n"
                    "    call 99\n    ld_ctx r0, 3\n")
    prog.verified = True
    out = run(prog)
    assert not out.faulted and out.raw_action == 7


def test_handler_table_is_built_once_and_shared():
    import copy
    prog = build("section seccomp\n    mov r0, 1\n    exit\n")
    assert prog.compiled is None
    thread = VmThread(prog, [], ctx(0))
    clone = copy.deepcopy(thread)
    thread.run(RuntimeEnv())
    table = prog.compiled
    assert len(table) == 2
    clone.run(RuntimeEnv())
    assert clone.program is prog and prog.compiled is table
    assert clone.outcome == thread.outcome
