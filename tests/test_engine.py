"""Kernel-side mechanics: attachment gates, chains, tamper protection,
checkpoint round trips."""

from __future__ import annotations

import json
import random
import struct
from copy import deepcopy
from dataclasses import replace

import pytest

from sfvm import vm
from sfvm.actions import ActionKind, ResolvedAction
from sfvm.asm import assemble
from sfvm.engine import (
    CAP_SYS_ADMIN,
    CAP_SYS_PTRACE,
    Engine,
    EngineConfig,
    EngineError,
    InFlightTable,
    MAX_INSNS_PER_PATH,
    PermissionDenied,
)
from sfvm.isa import (
    FilterProgram,
    Instruction,
    Opcode,
    encode_program,
)
from sfvm.maps import EINVAL
from sfvm.policies import (
    gen_allowlist,
    gen_count_limit,
    gen_flow_integrity,
    gen_rate_limit,
    gen_serialization,
    gen_validation_cache,
)
from sfvm.usermem import WriteStatus
from sfvm.verifier import verify
from sfvm.vm import RuntimeEnv, VmThread

from .helpers import (
    attach, bundled_descriptors, ctx, every_generator, fused_blocks,
    fuzz_source, probe,
)

ALLOW_ALL = assemble(
    "section seccomp\n"
    "    ld_imm64 r0, 0x7fff0000\n"
    "    exit\n")

DENY_WRITE = assemble(
    "section seccomp\n"
    "    ld_ctx r1, 0\n"
    "    jeq r1, 1, deny\n"
    "    ld_imm64 r0, 0x7fff0000\n"
    "    exit\n"
    "deny:\n"
    "    mov r0, 0x5000d\n"       # errno 13
    "    exit\n")

KILL_PROCESS_ON_WRITE = assemble(
    "section seccomp\n"
    "    ld_ctx r1, 0\n"
    "    jeq r1, 1, kill\n"
    "    ld_imm64 r0, 0x7fff0000\n"
    "    exit\n"
    "kill:\n"
    "    ld_imm64 r0, 0x80000000\n"
    "    exit\n")

# allows three calls of any syscall, then returns errno 13
BUDGET3 = (
    "section seccomp\n"
    "    map used array 8 8 1\n"
    "    ld_imm64 r1, map:used\n"
    "    mov r3, 0\n"
    "    st_map r10, r3, -8\n"
    "    mov r2, r10\n"
    "    add r2, -8\n"
    "    call map_lookup_elem\n"
    "    jeq r0, 0, deny\n"
    "    ld_map r1, r0, 0\n"
    "    jgt r1, 2, deny\n"
    "    add r1, 1\n"
    "    st_map r0, r1, 0\n"
    "    ld_imm64 r0, 0x7fff0000\n"
    "    exit\n"
    "deny:\n"
    "    mov r0, 0x5000d\n"
    "    exit\n")

# errno 13 when the 8 bytes at args[1] spell the magic value
DENY_ON_MAGIC = (
    "section seccomp\n"
    "    mov r1, r10\n"
    "    add r1, -8\n"
    "    mov r2, 8\n"
    "    ld_ctx r3, 24\n"
    "    call safe_read_user\n"
    "    jne r0, 0, allow\n"
    "    ld_map r1, r10, -8\n"
    "    mov r2, 0x4d414749\n"
    "    jne r1, r2, allow\n"
    "    mov r0, 0x5000d\n"
    "    exit\n"
    "allow:\n"
    "    ld_imm64 r0, 0x7fff0000\n"
    "    exit\n")

MAGIC = (0x4D414749).to_bytes(8, "little")


# -- attachment gates ---------------------------------------------------------


def test_attach_needs_admin_or_nnp():
    eng = Engine()
    plain = eng.spawn()
    with pytest.raises(PermissionDenied, match="no-new-privileges"):
        eng.install_classic(plain, ALLOW_ALL)
    eng.set_nnp(plain)
    eng.install_classic(plain, ALLOW_ALL)

    admin = eng.spawn(caps=[CAP_SYS_ADMIN])
    eng.install_classic(admin, ALLOW_ALL)


def test_privileged_only_rejects_nnp_and_foreign_namespaces():
    eng = Engine(EngineConfig(privileged_only=True))
    nnp = eng.spawn(nnp=True)
    with pytest.raises(PermissionDenied, match="restricted"):
        eng.install_classic(nnp, ALLOW_ALL)

    boxed = eng.spawn()
    eng.new_userns(boxed)          # grants admin, but not in ns 0
    with pytest.raises(PermissionDenied, match="restricted"):
        eng.install_classic(boxed, ALLOW_ALL)

    root = eng.spawn(caps=[CAP_SYS_ADMIN])
    eng.install_classic(root, ALLOW_ALL)


def test_load_pins_the_user_namespace():
    eng = Engine()
    tid = eng.spawn(nnp=True)
    handle = eng.load(tid, ALLOW_ALL)
    eng.new_userns(tid)            # namespace changed after load
    with pytest.raises(PermissionDenied, match="different user namespace"):
        eng.install(tid, handle)


def test_handles_are_single_use():
    eng = Engine()
    tid = eng.spawn(nnp=True)
    handle = eng.load(tid, ALLOW_ALL)
    eng.install(tid, handle)
    with pytest.raises(EngineError, match="no such handle"):
        eng.install(tid, handle)


def test_classic_attach_skips_namespace_pinning():
    eng = Engine()
    tid = eng.spawn(nnp=True)
    eng.new_userns(tid)
    eng.install_classic(tid, ALLOW_ALL)    # fine: verified at attach time
    assert eng.task(tid).chain[0].classic


def test_load_rejects_bad_programs():
    bad = assemble("section seccomp\n    mov r0, r3\n    exit\n")
    eng = Engine()
    tid = eng.spawn(nnp=True)
    with pytest.raises(EngineError, match="program rejected"):
        eng.load(tid, bad)


def test_load_accepts_wire_format():
    from sfvm.isa import encode_program
    eng = Engine()
    tid = attach(eng, encode_program(ALLOW_ALL))
    assert probe(eng, tid, ctx(0))["action"] == "allow"


def test_duplicate_tid_is_refused():
    eng = Engine()
    eng.spawn(tid=5)
    with pytest.raises(EngineError, match="already in use"):
        eng.spawn(tid=5)


# -- inheritance --------------------------------------------------------------


def test_fork_inherits_chain_and_shares_filter_state():
    eng = Engine()
    parent = attach(eng, assemble(BUDGET3))
    child = eng.spawn(parent=parent)
    assert eng.task(child).chain[0] is eng.task(parent).chain[0]
    # the budget is shared: parent spends two, child gets one
    assert probe(eng, parent, ctx(0))["action"] == "allow"
    assert probe(eng, parent, ctx(0))["action"] == "allow"
    assert probe(eng, child, ctx(0))["action"] == "allow"
    assert probe(eng, child, ctx(0))["action"] == "errno"
    assert probe(eng, parent, ctx(0))["action"] == "errno"


def test_fork_copies_the_address_space():
    eng = Engine()
    parent = eng.spawn(nnp=True)
    eng.task(parent).address_space.write(0x1000, b"orig")
    child = eng.spawn(parent=parent)
    eng.task(child).address_space.write(0x1000, b"mine")
    assert eng.task(parent).address_space.read(0x1000, 4) == b"orig"


def test_threads_share_the_address_space_and_tgid():
    eng = Engine()
    leader = eng.spawn(nnp=True)
    peer = eng.spawn_thread(leader)
    assert eng.task(peer).tgid == leader
    eng.task(peer).address_space.write(0x1000, b"ours")
    assert eng.task(leader).address_space.read(0x1000, 4) == b"ours"


def test_nnp_is_one_way_across_fork():
    eng = Engine()
    parent = eng.spawn(nnp=True)
    child = eng.spawn(parent=parent, nnp=False)
    assert eng.task(child).creds.nnp


def test_installs_after_fork_are_private():
    eng = Engine()
    parent = attach(eng, ALLOW_ALL)
    child = eng.spawn(parent=parent)
    attach(eng, DENY_WRITE, tid=child)
    assert len(eng.task(parent).chain) == 1
    assert probe(eng, parent, ctx(1))["action"] == "allow"
    assert probe(eng, child, ctx(1))["action"] == "errno"


# -- the syscall path ---------------------------------------------------------


def test_chain_votes_and_most_restrictive_verdict():
    eng = Engine()
    tid = attach(eng, ALLOW_ALL)
    attach(eng, DENY_WRITE, tid=tid)
    record = probe(eng, tid, ctx(1))
    assert record["action"] == "errno" and record["errno"] == 13
    assert [v["action"] for v in record["votes"]] == ["allow", "errno"]
    assert record["steps"] == sum(v["steps"] for v in record["votes"])
    assert probe(eng, tid, ctx(0))["action"] == "allow"


def test_denied_entry_consumes_the_matching_exit():
    eng = Engine()
    tid = attach(eng, DENY_WRITE)
    record = eng.run_syscall(tid, ctx(1))
    assert record["action"] == "errno"
    assert eng.syscall_exit(tid) is None
    with pytest.raises(EngineError, match="exit without a completed entry"):
        eng.syscall_exit(tid)


def test_allowed_entry_pairs_with_a_real_exit():
    eng = Engine()
    tid = attach(eng, ALLOW_ALL)
    eng.run_syscall(tid, ctx(7))
    assert eng.syscall_exit(tid) == {"task": tid, "nr": 7}


def test_nested_entry_is_rejected():
    eng = Engine()
    tid = attach(eng, ALLOW_ALL)
    eng.run_syscall(tid, ctx(0))
    with pytest.raises(EngineError, match="already inside"):
        eng.start_syscall(tid, ctx(0))


def test_kill_process_takes_out_every_thread():
    eng = Engine()
    leader = attach(eng, KILL_PROCESS_ON_WRITE)
    peer = eng.spawn_thread(leader)
    record = eng.run_syscall(peer, ctx(1))
    assert record["action"] == "kill_process"
    assert record["killed"] == sorted([leader, peer])
    assert not eng.task(leader).alive and not eng.task(peer).alive
    with pytest.raises(EngineError, match="dead"):
        eng.run_syscall(leader, ctx(0))


def test_kill_thread_spares_the_siblings():
    prog = assemble(
        "section seccomp\n"
        "    ld_ctx r1, 0\n"
        "    jeq r1, 1, kill\n"
        "    ld_imm64 r0, 0x7fff0000\n"
        "    exit\n"
        "kill:\n"
        "    mov r0, 0\n"          # kill-thread encoding
        "    exit\n")
    eng = Engine()
    leader = attach(eng, prog)
    peer = eng.spawn_thread(leader)
    record = eng.run_syscall(peer, ctx(1))
    assert record["action"] == "kill_thread"
    assert record["killed"] == [peer]
    assert eng.task(leader).alive


def test_faulting_filter_votes_the_configured_action():
    # a verified program can still die at runtime; build one that
    # hands off to itself until the chain limit trips
    looper = assemble(
        "section seccomp\n"
        "    map jumps prog_array 8 8 4\n"
        "    ld_imm64 r1, map:jumps\n"
        "    mov r2, 0\n"
        "    tail_call\n"
        "    ld_imm64 r0, 0x7fff0000\n"
        "    exit\n")

    def rig(eng, tid):
        inst = eng.task(tid).chain[-1]
        inst.maps[0].set_program(0, inst.program, inst.maps)
        return inst

    eng = Engine()
    tid = attach(eng, looper)
    rig(eng, tid)
    record = eng.run_syscall(tid, ctx(0))
    assert record["votes"][0]["faulted"]
    assert record["action"] == "kill_thread"      # the default
    assert not eng.task(tid).alive

    lenient = Engine(EngineConfig(
        bad_filter_action=ResolvedAction.from_raw(0x50000 | 99)))
    tid = attach(lenient, looper)
    rig(lenient, tid)
    record = lenient.run_syscall(tid, ctx(0))
    assert record["action"] == "errno" and record["errno"] == 99
    assert lenient.task(tid).alive


def test_wait_needs_a_scheduler_when_the_partner_is_in_flight():
    waiter = assemble(
        "section seccomp\n"
        "    ld_ctx r1, 0\n"
        "    ld_ctx r2, 16\n"       # partner number rides in args[0]
        "    call wait_syscall\n"
        "    ld_imm64 r0, 0x7fff0000\n"
        "    exit\n")
    eng = Engine()
    first = attach(eng, waiter)
    second = attach(eng, waiter)
    record = eng.run_syscall(first, ctx(7, 9))
    assert record["action"] == "allow"            # 9 is idle, 7 registered
    assert eng.in_flight.count(7) == 1
    with pytest.raises(EngineError, match="run it under a scheduler"):
        eng.run_syscall(second, ctx(9, 7))
    eng.syscall_exit(first)
    assert eng.in_flight.count(7) == 0
    # the second task's pending syscall went with the exception, so a
    # clean retry succeeds
    assert eng.run_syscall(second, ctx(9, 7))["action"] == "allow"


def test_stacked_serializations_discount_the_syscalls_own_registration():
    # the first filter registers syscall 0; the second waits for 0 and
    # must count that registration as this syscall's own, just as the
    # one-filter form {0: [1, 0]} does
    eng = Engine()
    single = attach(eng, gen_serialization({0: [1, 0]}))
    assert probe(eng, single, ctx(0))["action"] == "allow"
    first, second = (
        attach(eng, gen_serialization({0: [0]}),
               attach(eng, gen_serialization({0: [1]})))
        for _ in range(2))
    assert eng.run_syscall(first, ctx(0))["action"] == "allow"
    assert eng.in_flight.counts == {0: 1}
    # another task inside 0 still holds the second one at the door
    with pytest.raises(EngineError, match="would wait on syscall 0"):
        eng.run_syscall(second, ctx(0))
    assert eng.kill_task(second) == [second]
    eng.syscall_exit(first)
    assert eng.in_flight.counts == {}
    assert probe(eng, first, ctx(0))["action"] == "allow"
    assert eng.in_flight.counts == {}


def test_a_syscall_that_would_wait_is_abandoned():
    # run_syscall cannot wait, so it must drop the refused syscall with
    # what its earlier filter registered; a retry then starts afresh
    eng = Engine()
    first, second = (
        attach(eng, gen_serialization({0: [0]}),
               attach(eng, gen_serialization({0: [1]})))
        for _ in range(2))
    assert eng.run_syscall(first, ctx(0))["action"] == "allow"
    with pytest.raises(EngineError, match="would wait on syscall 0"):
        eng.run_syscall(second, ctx(0))
    assert eng.task(second).pending is None
    assert eng.in_flight.counts == {0: 1}
    eng.syscall_exit(first)
    assert eng.in_flight.counts == {}
    assert probe(eng, second, ctx(0))["action"] == "allow"
    assert eng.in_flight.counts == {}


def test_in_flight_table_counts():
    table = InFlightTable()
    assert table.count(3) == 0
    table.increment(3)
    table.increment(3)
    table.increment(5)
    assert table.count(3) == 2
    assert table.counts == {3: 2, 5: 1}
    table.decrement(3)
    table.decrement(5)
    table.decrement(5)               # over-decrement clamps at zero
    assert table.count(3) == 1
    assert table.count(5) == 0
    assert table.counts == {3: 1}


# -- entry-time argument capture ----------------------------------------------


def test_decision_reads_entry_time_memory():
    eng = Engine(descriptors=bundled_descriptors())
    tid = attach(eng, assemble(DENY_ON_MAGIC))
    mem = eng.task(tid).address_space
    mem.map_region(0x1000, 4096)

    mem.write(0x1000, MAGIC)
    eng.start_syscall(tid, ctx(1, 3, 0x1000, 64))
    mem.write(0x1000, b"\x00" * 8)               # too late to help
    status, record = eng.resume_syscall(tid)
    assert status == "decision"
    assert record["action"] == "errno"
    eng.task(tid).denied_enter = False

    mem.write(0x1000, b"\x00" * 8)
    eng.start_syscall(tid, ctx(1, 3, 0x1000, 64))
    mem.write(0x1000, MAGIC)                      # too late to hurt
    status, record = eng.resume_syscall(tid)
    assert record["action"] == "allow"


def test_write_protect_mode_releases_pages_after_denial():
    eng = Engine(EngineConfig(snapshot_mode="write_protect"),
                 descriptors=bundled_descriptors())
    tid = attach(eng, assemble(DENY_ON_MAGIC))
    mem = eng.task(tid).address_space
    mem.map_region(0x1000, 4096)
    mem.write(0x1000, MAGIC)
    eng.start_syscall(tid, ctx(1, 3, 0x1000, 64))
    assert mem.write(0x1000, b"flip") == WriteStatus.STALL
    status, record = eng.resume_syscall(tid)
    assert record["action"] == "errno"            # denial released the pages
    assert mem.write(0x1000, b"flip") == WriteStatus.OK
    eng.task(tid).denied_enter = False


def test_ptrace_gate_controls_user_reads():
    # not dumpable and no ptrace capability on the loader: reads fail
    # open, so the magic is never seen
    eng = Engine(descriptors=bundled_descriptors())
    tid = attach(eng, assemble(DENY_ON_MAGIC))
    mem = eng.task(tid).address_space
    mem.map_region(0x1000, 4096)
    mem.write(0x1000, MAGIC)
    c = ctx(1, 3, 0x1000, 64)
    assert probe(eng, tid, c)["action"] == "errno"
    eng.set_dumpable(tid, False)
    assert probe(eng, tid, c)["action"] == "allow"

    # a ptrace-capable loader reaches a non-dumpable task
    eng2 = Engine(descriptors=bundled_descriptors())
    tid2 = eng2.spawn(nnp=True, caps=[CAP_SYS_PTRACE])
    attach(eng2, assemble(DENY_ON_MAGIC), tid=tid2)
    mem2 = eng2.task(tid2).address_space
    mem2.map_region(0x1000, 4096)
    mem2.write(0x1000, MAGIC)
    eng2.set_dumpable(tid2, False)
    assert probe(eng2, tid2, c)["action"] == "errno"


def test_restricted_ptrace_scope_checks_uids():
    config = EngineConfig(ptrace_scope="restricted")
    eng = Engine(config, descriptors=bundled_descriptors())
    parent = eng.spawn(nnp=True, uid=0)
    attach(eng, assemble(DENY_ON_MAGIC), tid=parent)
    mem = eng.task(parent).address_space
    mem.map_region(0x1000, 4096)
    mem.write(0x1000, MAGIC)
    child = eng.spawn(parent=parent, uid=1000)    # loader uid 0, task uid 1000
    c = ctx(1, 3, 0x1000, 64)
    assert probe(eng, child, c)["action"] == "allow"    # read refused
    assert probe(eng, parent, c)["action"] == "errno"   # same uid: read works


# -- tamper protection -------------------------------------------------------


def test_external_map_updates_are_privileged():
    eng = Engine()
    victim = attach(eng, assemble(BUDGET3))
    nobody = eng.spawn(uid=1000)
    with pytest.raises(PermissionDenied, match="privileged"):
        eng.update_map_external(nobody, victim, 0, "used",
                                bytes(8), bytes(8))
    boxed = eng.spawn(uid=1000)
    eng.new_userns(boxed)
    with pytest.raises(PermissionDenied, match="privileged"):
        eng.update_map_external(boxed, victim, 0, "used",
                                bytes(8), bytes(8))


def test_admin_can_rewind_a_budget_until_fds_close():
    eng = Engine()
    victim = attach(eng, assemble(BUDGET3))
    admin = eng.spawn(caps=[CAP_SYS_ADMIN])
    for _ in range(3):
        assert probe(eng, victim, ctx(0))["action"] == "allow"
    assert probe(eng, victim, ctx(0))["action"] == "errno"
    assert eng.update_map_external(admin, victim, 0, "used",
                                   bytes(8), bytes(8)) == 0
    assert probe(eng, victim, ctx(0))["action"] == "allow"

    eng.close_map_fds(victim)
    with pytest.raises(PermissionDenied, match="descriptor closed"):
        eng.update_map_external(admin, victim, 0, "used",
                                bytes(8), bytes(8))
    # the filter itself still works: its references are not descriptors
    assert probe(eng, victim, ctx(0))["action"] == "allow"
    assert probe(eng, victim, ctx(0))["action"] == "allow"
    assert probe(eng, victim, ctx(0))["action"] == "errno"


@pytest.mark.parametrize("installs,index", [
    (0, 0), (0, 5), (0, -1), (1, 1), (1, -2)])
def test_closing_a_missing_installation_is_an_engine_error(installs, index):
    eng = Engine()
    tid = eng.spawn(nnp=True)
    for _ in range(installs):
        attach(eng, assemble(BUDGET3), tid)
    with pytest.raises(EngineError,
                       match=f"^task {tid} has no installation {index}$"):
        eng.close_map_fds(tid, index)
    assert all(pmap.fd_open for inst in eng.task(tid).chain
               for pmap in inst.maps)


def test_external_updates_reject_private_map_kinds():
    prog = assemble(
        "section seccomp\n"
        "    map scratch task_storage 8 8 4\n"
        "    ld_imm64 r0, 0x7fff0000\n"
        "    exit\n")
    eng = Engine()
    victim = attach(eng, prog)
    admin = eng.spawn(caps=[CAP_SYS_ADMIN])
    assert eng.update_map_external(admin, victim, 0, "scratch",
                                   bytes(8), bytes(8)) == -EINVAL
    with pytest.raises(EngineError, match="no map"):
        eng.update_map_external(admin, victim, 0, "missing",
                                bytes(8), bytes(8))


def _straight(n: int) -> FilterProgram:
    """An allow-all filter of `n` instructions."""
    return FilterProgram(instructions=(
        Instruction(Opcode.MOV_IMM, dst=0, imm=0x7FFF0000),) * (n - 1)
        + (Instruction(Opcode.EXIT),))


def test_a_chain_holds_at_most_max_insns_per_path():
    # counted as seccomp_attach_filter counts: the new filter's
    # instructions, and every installed filter's with 4 more
    half = MAX_INSNS_PER_PATH // 2 - 2
    eng = Engine()
    tid = eng.spawn(nnp=True)
    eng.install(tid, eng.load(tid, _straight(half)))
    blob = eng.checkpoint(tid)
    handle = eng.load(tid, _straight(half + 1))
    with pytest.raises(EngineError, match="32769 instructions, past 32768"):
        eng.install(tid, handle)
    with pytest.raises(EngineError, match="32769 instructions"):
        eng.install_classic(tid, _straight(half + 1))
    assert len(eng.task(tid).chain) == 1 and handle in eng.handles
    assert eng.install_classic(tid, _straight(half)) == 1     # 32768
    with pytest.raises(EngineError, match="32774 instructions"):
        eng.install_classic(tid, _straight(2))
    # a restore is attached as a whole, or not at all
    admin = eng.spawn(caps=[CAP_SYS_ADMIN])
    eng.install_classic(admin, _straight(half + 1))
    eng.clock_ns = 5
    with pytest.raises(EngineError, match="32769 instructions"):
        eng.restore(admin, blob)
    assert len(eng.task(admin).chain) == 1 and eng.clock_ns == 5
    assert eng.restore(eng.spawn(caps=[CAP_SYS_ADMIN]), blob) == [0]


# -- checkpoint / restore ------------------------------------------------------


def test_checkpoint_requires_quiescence():
    eng = Engine()
    tid = attach(eng, ALLOW_ALL)
    eng.checkpoint(tid)                       # fine between syscalls
    eng.run_syscall(tid, ctx(0))
    with pytest.raises(EngineError, match="between"):
        eng.checkpoint(tid)
    eng.syscall_exit(tid)
    eng.checkpoint(tid)


def test_restore_is_privileged():
    eng = Engine()
    blob = eng.checkpoint(attach(eng, ALLOW_ALL))
    target = eng.spawn(nnp=True)
    with pytest.raises(PermissionDenied, match="restricted"):
        eng.restore(target, blob)
    boxed = eng.spawn(caps=[CAP_SYS_ADMIN])
    eng.new_userns(boxed)
    with pytest.raises(PermissionDenied, match="restricted"):
        eng.restore(boxed, blob)


def test_restore_round_trips_map_state():
    eng = Engine()
    tid = attach(eng, assemble(BUDGET3))
    assert probe(eng, tid, ctx(0))["action"] == "allow"
    assert probe(eng, tid, ctx(0))["action"] == "allow"
    eng.clock_ns = 5150
    blob = eng.checkpoint(tid)

    other = Engine()
    target = other.spawn(caps=[CAP_SYS_ADMIN])
    assert other.restore(target, blob) == [0]
    assert other.clock_ns == 5150
    # two of three uses were spent before the checkpoint
    assert probe(other, target, ctx(0))["action"] == "allow"
    assert probe(other, target, ctx(0))["action"] == "errno"


def test_restore_never_moves_the_clock_back():
    eng = Engine()
    admin = eng.spawn(caps=[CAP_SYS_ADMIN])
    blob = eng.checkpoint(admin)                    # taken at clock 0
    tid = attach(eng, gen_rate_limit(1, 1, 2))
    eng.clock_ns = 5 * 10 ** 9
    spent = [probe(eng, tid, ctx(1))["action"] for _ in range(4)]
    assert spent == ["allow", "allow", "errno", "errno"]
    eng.restore(admin, blob)
    # no time passed, so the other task's bucket stays empty
    assert eng.clock_ns == 5 * 10 ** 9
    assert probe(eng, tid, ctx(1))["action"] == "errno"


@pytest.mark.parametrize("uid,clock", [(-1, 0), (2 ** 32, 0), (0, 2 ** 64)])
def test_checkpoint_refuses_values_its_format_cannot_hold(uid, clock):
    eng = Engine()
    tid = eng.spawn(uid=uid, nnp=True)
    eng.install(tid, eng.load(tid, ALLOW_ALL))
    eng.clock_ns = clock
    with pytest.raises(EngineError, match="cannot checkpoint"):
        eng.checkpoint(tid)


def _target_items(eng: Engine, tid: int) -> list:
    """Contents of the maps of the first handoff target of the task's
    first filter."""
    _, maps = eng.task(tid).chain[0].maps[0].get_program(0)
    return [pmap.items() for pmap in maps]


def test_restore_round_trips_handoff_target_maps():
    eng = Engine()
    tid = attach(eng, gen_validation_cache({7: {0: [1, 2]}}))
    empty = _target_items(eng, tid)
    assert probe(eng, tid, ctx(7, 1))["action"] == "allow"
    cached = _target_items(eng, tid)
    assert cached != empty          # the checker cached its verdict
    other = Engine()
    target = other.spawn(caps=[CAP_SYS_ADMIN])
    other.restore(target, eng.checkpoint(tid))
    assert _target_items(other, target) == cached


def test_restore_appends_to_the_existing_chain():
    eng = Engine()
    blob = eng.checkpoint(attach(eng, DENY_WRITE))
    target = attach(eng, ALLOW_ALL,
                    tid=eng.spawn(caps=[CAP_SYS_ADMIN]))
    assert eng.restore(target, blob) == [1]
    assert len(eng.task(target).chain) == 2
    assert probe(eng, target, ctx(1))["action"] == "errno"


def test_restore_preserves_closed_descriptors():
    eng = Engine()
    tid = attach(eng, assemble(BUDGET3))
    eng.close_map_fds(tid)
    blob = eng.checkpoint(tid)
    target = eng.spawn(caps=[CAP_SYS_ADMIN])
    eng.restore(target, blob)
    with pytest.raises(PermissionDenied, match="descriptor closed"):
        eng.update_map_external(target, target, 0, "used",
                                bytes(8), bytes(8))


@pytest.mark.parametrize("mangle,fragment", [
    (lambda b: b[:8], "truncated"),
    (lambda b: b"JUNK" + b[4:], "bad magic"),
    (lambda b: b[:4] + b"\xff\xff" + b[6:], "version"),
    (lambda b: b + b"\x00", "trailing"),
])
def test_restore_rejects_mangled_blobs(mangle, fragment):
    eng = Engine()
    blob = eng.checkpoint(attach(eng, ALLOW_ALL))
    target = eng.spawn(caps=[CAP_SYS_ADMIN])
    with pytest.raises(EngineError, match=fragment):
        eng.restore(target, mangle(blob))


FLOW = dict(syscalls=[7, 8], transitions=[(None, 7), (7, 8), (8, 7)])


def _zero_valued_allowlist():
    """Allows nr 7 on a lookup hit; the entry's value is zero."""
    prog = gen_allowlist([7], layout="hash", deny="errno:1")
    decl = replace(prog.map_refs[0],
                   initial_entries={(7).to_bytes(8, "little"): bytes(8)})
    return replace(prog, map_refs=(decl,))


def test_restore_keeps_zero_valued_entries():
    eng = Engine()
    tid = attach(eng, _zero_valued_allowlist())
    eng.install(tid, eng.load(tid, gen_flow_integrity(**FLOW,
                                                       deny="errno:2")))
    assert probe(eng, tid, ctx(7))["action"] == "allow"
    blob = eng.checkpoint(tid)
    items = [[pmap.items() for pmap in inst.maps]
             for inst in eng.task(tid).chain]
    probes = [ctx(nr) for nr in (8, 7, 9)]
    before = [probe(eng, tid, c)["action"] for c in probes]

    other = Engine()
    target = other.spawn(tid=tid, caps=[CAP_SYS_ADMIN])
    assert other.restore(target, blob) == [0, 1]
    assert [[pmap.items() for pmap in inst.maps]
            for inst in other.task(target).chain] == items
    after = [probe(other, target, c)["action"] for c in probes]
    assert after == before
    assert after[1] == "allow"      # the zero-valued entry still hits


def _fuzz_checkpoint() -> bytes:
    eng = Engine()
    tid = attach(eng, assemble(BUDGET3))
    eng.install(tid, eng.load(tid, _zero_valued_allowlist()))
    eng.install(tid, eng.load(tid, gen_validation_cache({7: {0: [1, 2]}})))
    probe(eng, tid, ctx(7, 1))
    eng.clock_ns = 4242
    return eng.checkpoint(tid)


def test_restore_fuzz_is_typed_and_all_or_nothing():
    """Every truncation and every single-byte flip of a checkpoint either
    restores, or raises EngineError and changes nothing.  Whatever
    restores decides syscalls without raising: a garbage filter is
    refused at restore, which verifies every program as `load` does."""
    blob = _fuzz_checkpoint()
    rng = random.Random(0x5EED)
    mangled = [blob[:n] for n in range(len(blob))]
    for pos in range(len(blob)):
        flipped = bytearray(blob)
        flipped[pos] ^= rng.randrange(1, 256)
        mangled.append(bytes(flipped))
    restored = 0
    for bad in mangled:
        eng = Engine()
        tid = attach(eng, ALLOW_ALL, tid=eng.spawn(caps=[CAP_SYS_ADMIN]))
        eng.clock_ns = 99
        chain = list(eng.task(tid).chain)
        try:
            eng.restore(tid, bad)
        except EngineError:
            assert eng.task(tid).chain == chain and eng.clock_ns == 99
            continue
        restored += 1
        record = eng.run_syscall(tid, ctx(7, 1, 2))
        assert record["action"] in {kind.value for kind in ActionKind}
    assert 0 < restored < len(mangled)


def test_state_key_is_content_sensitive():
    eng = Engine()
    tid = attach(eng, assemble(BUDGET3))
    key = eng.state_key()
    assert eng.state_key() == key          # observing changes nothing
    probe(eng, tid, ctx(0))
    assert eng.state_key() != key          # the spent budget shows


# -- verdict memo ---------------------------------------------------------------

def _fresh_votes(eng: Engine, tid: int, c) -> list:
    """The votes a fresh interpreter thread gives for `c`, run on copies
    of the live maps so the engine's own run still sees them unspent."""
    t = eng.task(tid)
    chain_maps = deepcopy([inst.maps for inst in t.chain])
    env = RuntimeEnv(clock_ns=eng.clock_ns, usermem=t.address_space,
                     user_access_allowed=True, leader_tid=t.tgid,
                     in_flight=deepcopy(eng.in_flight))
    votes = []
    for inst, maps in zip(t.chain, chain_maps):
        thread = VmThread(inst.program, maps, c)
        assert thread.run(env) == "done"
        out = thread.outcome
        votes.append((out.raw_action, out.steps_executed, out.helper_calls,
                      out.faulted))
    return votes


def test_memoized_votes_equal_fresh_runs():
    rng = random.Random(4711)
    programs = every_generator()
    programs += [assemble(fuzz_source(rng)) for _ in range(40)]
    nrs = [0, 1, 2, 3, 9, 25, 39, 77, 250, 257]
    hits = 0
    for program in programs:
        eng = Engine()
        tid = attach(eng, program)
        mem = eng.task(tid).address_space
        mem.map_region(0x1000, 4096)
        mem.write(0x1000, bytes(rng.randrange(256) for _ in range(64)))
        calls = [(nr, i) for nr in nrs for i in range(3)]
        rng.shuffle(calls)
        for nr, i in calls:
            args = [rng.choice([0, 3, 8, 16, 0x1000, rng.randrange(2**64)])
                    for _ in range(6)]
            args[0] = i        # no two calls of one nr share their args
            c = ctx(nr, *args, addr=rng.choice([0, 0x401000]))
            program = eng.task(tid).chain[0].program
            hits += nr in program.verdicts
            expected = _fresh_votes(eng, tid, c)
            record = probe(eng, tid, c)
            assert [(v["raw"], v["steps"], v["helper_calls"], v["faulted"])
                    for v in record["votes"]] == expected, (program, c)
            if "killed" in record:
                # a sibling carries on with the same chain and maps
                tid = eng.spawn_thread(tid)
    assert hits > 0


def test_count_limit_is_memoized_only_off_its_number():
    eng = Engine()
    tid = attach(eng, gen_count_limit(250, 2))
    program = eng.task(tid).chain[0].program
    actions = [probe(eng, tid, ctx(250))["action"] for _ in range(4)]
    assert actions == ["allow", "allow", "errno", "errno"]
    for _ in range(2):
        assert probe(eng, tid, ctx(0))["action"] == "allow"
    assert 0 in program.verdicts and 250 not in program.verdicts


def test_rate_limit_reads_the_clock_every_time():
    eng = Engine()
    tid = attach(eng, gen_rate_limit(0, 1, 2))
    program = eng.task(tid).chain[0].program
    actions = [probe(eng, tid, ctx(0))["action"] for _ in range(3)]
    assert actions == ["allow", "allow", "errno"]
    eng.clock_ns += 10**9          # one token back
    assert probe(eng, tid, ctx(0))["action"] == "allow"
    assert 0 not in program.verdicts


def test_argument_and_memory_readers_are_never_memoized():
    by_arg = assemble(
        "section seccomp\n"
        "    ld_ctx r1, 16\n"
        "    jeq r1, 7, deny\n"
        "    ld_imm64 r0, 0x7fff0000\n"
        "    exit\n"
        "deny:\n"
        "    mov r0, 0x5000d\n"
        "    exit\n")
    # the address is a constant, so only the helper call reads the world
    by_path = assemble(
        "section seccomp\n"
        "    mov r1, r10\n"
        "    add r1, -16\n"
        "    mov r2, 16\n"
        "    ld_imm64 r3, 0x1000\n"
        "    call safe_read_user_str\n"
        "    ld_map r4, r10, -16\n"
        "    jeq r4, 0x6374652f, deny\n"     # "/etc"
        "    ld_imm64 r0, 0x7fff0000\n"
        "    exit\n"
        "deny:\n"
        "    mov r0, 0x5000d\n"
        "    exit\n")
    eng = Engine()
    tid = attach(eng, by_arg)
    assert probe(eng, tid, ctx(1, 7))["action"] == "errno"
    assert probe(eng, tid, ctx(1, 0))["action"] == "allow"
    assert eng.task(tid).chain[0].program.verdicts == {}

    eng = Engine()
    tid = attach(eng, by_path)
    mem = eng.task(tid).address_space
    mem.map_region(0x1000, 4096)
    mem.write(0x1000, b"/etc\x00")
    assert probe(eng, tid, ctx(2, 0x1000))["action"] == "errno"
    mem.write(0x1000, b"/tmp\x00")
    assert probe(eng, tid, ctx(2, 0x1000))["action"] == "allow"
    assert eng.task(tid).chain[0].program.verdicts == {}

    eng = Engine()
    tid = attach(eng, gen_validation_cache({1: {0: [3]}}))
    program = eng.task(tid).chain[0].program
    assert probe(eng, tid, ctx(1, 3))["action"] == "allow"
    assert probe(eng, tid, ctx(1, 4))["action"] == "errno"
    assert probe(eng, tid, ctx(1, 3))["action"] == "allow"
    assert 1 not in program.verdicts


# -- chain cache ------------------------------------------------------------

CACHE_NRS = [0, 1, 2, 3, 9, 25, 39, 77, 250, 257]


def _fresh_record(programs, tid, c) -> dict:
    """The record a fresh engine, every memo empty, gives for `c` on a
    task `tid` under `programs`."""
    eng = Engine()
    eng.spawn(tid=tid, nnp=True)
    for program in programs:
        eng.install(tid, eng.load(tid, program))
    assert all(c.nr not in inst.program.verdicts
               for inst in eng.task(tid).chain)
    return eng.run_syscall(tid, c)


def _unowned(record) -> dict:
    """A record without the task that made it."""
    return {k: v for k, v in record.items() if k not in ("task", "killed")}


def test_chain_cache_serves_what_a_fresh_engine_logs():
    rng = random.Random(2718)
    corpus = every_generator()
    corpus += [assemble(fuzz_source(rng)) for _ in range(10)]
    served = 0
    for _ in range(40):
        programs = rng.sample(corpus, rng.randint(1, 3))
        eng = Engine()
        tid = eng.spawn(nnp=True)
        for program in programs:
            eng.install(tid, eng.load(tid, program))
        mem = eng.task(tid).address_space
        mem.map_region(0x1000, 4096)
        mem.write(0x1000, bytes(rng.randrange(256) for _ in range(64)))
        calls = [nr for nr in CACHE_NRS for _ in range(3)]
        rng.shuffle(calls)
        for nr in calls:
            args = [rng.choice([0, 3, 8, 16, 0x1000, rng.randrange(2**64)])
                    for _ in range(6)]
            c = ctx(nr, *args, addr=rng.choice([0, 0x401000]))
            chain = eng.task(tid).chain
            cached = nr in chain[-1].walks
            record = probe(eng, tid, c)
            if cached:
                served += 1
                assert json.dumps(record) == json.dumps(
                    _fresh_record(programs, tid, c)), (programs, c)
            if nr in chain[-1].walks:   # only walks served by the memos
                assert all(nr in inst.program.verdicts for inst in chain)
                assert not any(v["faulted"] for v in record["votes"])
            if "killed" in record:
                # a sibling carries on with the same chain and caches
                tid = eng.spawn_thread(tid)
    assert served > 0


def test_an_install_never_serves_the_shorter_chain():
    eng = Engine()
    tid = attach(eng, ALLOW_ALL)
    for _ in range(3):
        assert probe(eng, tid, ctx(1))["action"] == "allow"
    first = eng.task(tid).chain[0]
    assert 1 in first.walks
    attach(eng, DENY_WRITE, tid)
    assert eng.task(tid).chain[1].walks == {}
    for _ in range(3):
        record = probe(eng, tid, ctx(1))
        assert record["action"] == "errno"
        assert [v["install"] for v in record["votes"]] == [0, 1]
    assert first.walks[1][4].name == "allow"   # the shorter chain's own


def test_children_share_their_parents_chain_cache():
    eng = Engine()
    parent = attach(eng, DENY_WRITE)
    attach(eng, gen_count_limit(2, 2), parent)
    records = {}
    for nr in (0, 1, 0, 1, 0, 1):
        records[nr] = probe(eng, parent, ctx(nr))
    link = eng.task(parent).chain[-1]
    assert {0, 1} <= set(link.walks)
    for child in (eng.spawn(parent), eng.spawn_thread(parent)):
        assert eng.task(child).chain[-1] is link
        for nr, record in records.items():
            assert _unowned(probe(eng, child, ctx(nr))) == _unowned(record)
    # a child's own install leaves its parent's link as it was
    child = eng.spawn(parent)
    attach(eng, ALLOW_ALL, child)
    assert eng.task(parent).chain[-1] is link
    assert _unowned(probe(eng, parent, ctx(1))) == _unowned(records[1])


def test_a_restore_starts_with_an_empty_chain_cache():
    eng = Engine()
    tid = attach(eng, DENY_WRITE)
    attach(eng, gen_allowlist([0, 1, 2], layout="linear"), tid)
    records = {nr: probe(eng, tid, ctx(nr)) for nr in (0, 1, 5) * 3}
    assert {0, 1, 5} <= set(eng.task(tid).chain[-1].walks)
    target = eng.spawn(caps=[CAP_SYS_ADMIN])
    eng.restore(target, eng.checkpoint(tid))
    assert all(inst.walks == {} for inst in eng.task(target).chain)
    for _ in range(3):
        for nr, record in records.items():
            assert _unowned(probe(eng, target, ctx(nr))) == _unowned(record)


def test_a_pure_fault_still_votes_the_bad_filter_action(monkeypatch):
    # a loop that reads nothing at all, cut short by the step limit
    spin = assemble(
        "section seccomp\n"
        "    mov r1, 0\n"
        "loop:\n"
        "    add r1, 1\n"
        "    jlt r1, 20, loop\n"
        "    ld_imm64 r0, 0x7fff0000\n"
        "    exit\n")
    monkeypatch.setattr(vm, "STEP_LIMIT", 16)
    for bad in (ResolvedAction.from_raw(0x50000 | 99),
                ResolvedAction.from_raw(0x50000 | 98)):
        eng = Engine(EngineConfig(bad_filter_action=bad))
        tid = attach(eng, spin)
        for _ in range(4):
            record = probe(eng, tid, ctx(3))
            assert record["votes"][0]["faulted"]
            assert (record["action"], record["errno"]) == ("errno", bad.errno)
        link = eng.task(tid).chain[0]
        assert 3 in link.program.verdicts and link.walks == {}


def test_a_chain_with_a_reader_is_never_served_from_the_cache():
    by_arg = assemble(
        "section seccomp\n"
        "    ld_ctx r1, 16\n"
        "    jeq r1, 7, deny\n"
        "    ld_imm64 r0, 0x7fff0000\n"
        "    exit\n"
        "deny:\n"
        "    mov r0, 0x5000d\n"
        "    exit\n")
    by_memory = assemble(
        "section seccomp\n"
        "    mov r1, r10\n"
        "    add r1, -8\n"
        "    mov r2, 8\n"
        "    ld_imm64 r3, 0x1000\n"
        "    call safe_read_user\n"
        "    ld_map r4, r10, -8\n"
        "    jeq r4, 7, deny\n"
        "    ld_imm64 r0, 0x7fff0000\n"
        "    exit\n"
        "deny:\n"
        "    mov r0, 0x5000d\n"
        "    exit\n")
    by_clock = gen_rate_limit(1, 100, 2)
    for reader in (by_arg, by_memory, by_clock):
        for order in ((ALLOW_ALL, reader), (reader, ALLOW_ALL)):
            eng = Engine()
            tid = eng.spawn(nnp=True)
            eng.task(tid).address_space.map_region(0x1000, 4096)
            for program in order:
                attach(eng, program, tid)
            for _ in range(4):
                probe(eng, tid, ctx(1, 0, 7))
            assert 1 not in eng.task(tid).chain[-1].walks


def test_restored_forged_program_replays_its_fault():
    # a checkpoint holding a program the verifier refuses: nr 1 reads an
    # uninitialized register on a path that reads only nr, nr 2 faults
    # only when its first argument is zero.  Restore verifies it, refuses
    # it and changes nothing
    forged = FilterProgram(instructions=(
        Instruction(Opcode.LD_CTX, dst=1, offset=0),
        Instruction(Opcode.JEQ_IMM, dst=1, offset=4, imm=1),
        Instruction(Opcode.JNE_IMM, dst=1, offset=2, imm=2),
        Instruction(Opcode.LD_CTX, dst=2, offset=16),
        Instruction(Opcode.JEQ_IMM, dst=2, offset=1, imm=0),
        Instruction(Opcode.LD_IMM64, dst=3, imm=0x7FFF0000),
        Instruction(Opcode.MOV_REG, dst=0, src=3),
        Instruction(Opcode.EXIT),
    ))
    assert not verify(forged).accepted
    eng = Engine()
    good = eng.checkpoint(attach(eng, ALLOW_ALL))
    tail = encode_program(ALLOW_ALL)
    assert good.endswith(struct.pack("<I", len(tail)) + tail)
    raw = encode_program(forged)
    blob = good[:-4 - len(tail)] + struct.pack("<I", len(raw)) + raw
    tid = eng.spawn(caps=[CAP_SYS_ADMIN])
    eng.clock_ns = 7
    with pytest.raises(EngineError, match="program rejected: read of "
                                          "uninitialized register r3"):
        eng.restore(tid, blob)
    assert eng.task(tid).chain == [] and eng.clock_ns == 7
    assert probe(eng, tid, ctx(1))["action"] == "allow"


def test_restore_starts_with_an_empty_memo():
    eng = Engine()
    tid = attach(eng, gen_allowlist([0, 250], layout="linear"))
    eng.install(tid, eng.load(tid, gen_count_limit(250, 2)))
    for nr in (0, 250, 250, 1):
        probe(eng, tid, ctx(nr))    # spends the whole budget
    assert all(inst.program.verdicts for inst in eng.task(tid).chain)
    blob = eng.checkpoint(tid)
    other = Engine()
    target = other.spawn(caps=[CAP_SYS_ADMIN])
    other.restore(target, blob)
    assert all(inst.program.verdicts == {}
               for inst in other.task(target).chain)
    records = [probe(other, target, ctx(nr)) for nr in (0, 250, 1, 0)]
    assert [r["action"] for r in records] == ["allow", "errno", "errno",
                                              "allow"]
    assert records == [probe(eng, tid, ctx(nr)) for nr in (0, 250, 1, 0)]


# a lookup whose result is dropped: allows under an array map; under a
# program array, which the verifier refuses, the lookup faults
LOOKUP_THEN_ALLOW = (
    "    mov r2, 0\n"
    "    st_map r10, r2, -8\n"
    "    mov r2, r10\n"
    "    add r2, -8\n"
    "    ld_imm64 r1, map:m\n"
    "    call map_lookup_elem\n"
    "    ld_imm64 r0, 0x7fff0000\n"
    "    exit\n")


def test_a_restored_program_never_runs_a_loaded_twins_blocks():
    # the twin has the loaded program's instructions under a map the
    # verifier refuses them for: restore refuses it and changes nothing,
    # and the loaded program runs on as before
    eng = Engine()
    loaded = assemble("section seccomp\nmap m array 8 8 1\n"
                      + LOOKUP_THEN_ALLOW)
    tid = attach(eng, loaded)
    assert probe(eng, tid, ctx(0))["action"] == "allow"   # lowered, run
    blob = eng.checkpoint(tid)
    twin = assemble("section seccomp\nmap m prog_array 8 8 1\n"
                    + LOOKUP_THEN_ALLOW)
    assert twin.instructions == loaded.instructions
    assert not verify(twin).accepted
    good, bad = encode_program(loaded), encode_program(twin)
    blob = blob.replace(struct.pack("<I", len(good)) + good,
                        struct.pack("<I", len(bad)) + bad)
    target = eng.spawn(caps=[CAP_SYS_ADMIN])
    with pytest.raises(EngineError, match="map kind prog_array not "
                                          "accepted"):
        eng.restore(target, blob)
    assert eng.task(target).chain == [] and eng.clock_ns == 0
    assert probe(eng, target, ctx(0))["action"] == "allow"
    installed = eng.task(tid).chain[0].program
    assert fused_blocks(installed)
    assert probe(eng, tid, ctx(0))["action"] == "allow"
