"""Scheduler behavior: reproducibility, blocking, drains, exploration."""

from __future__ import annotations

from dataclasses import replace

import pytest

from sfvm.asm import assemble
from sfvm.engine import Engine
from sfvm.isa import encode_program
from sfvm.scenarios import bundled_scenario_names, load_bundled_scenario
from sfvm.sim import (
    MAX_EXPLORE_STEPS,
    ExplorationLimit,
    Simulator,
    explore_interleavings,
    log_digest,
)
from sfvm.snapshot import REGION_BASE, REGION_STRIDE
from sfvm.trace import TraceError, parse_trace

from .helpers import (
    bundled_descriptors,
    decisions,
    explore_disagreements,
    run_trace,
    trace_text,
)


def hexprog(source: str) -> str:
    return encode_program(assemble(source)).hex()


ALLOW_ALL = hexprog(
    "section seccomp\n"
    "    ld_imm64 r0, 0x7fff0000\n"
    "    exit\n")

KILL99 = hexprog(
    "section seccomp\n"
    "    ld_ctx r1, 0\n"
    "    jeq r1, 99, kill\n"
    "    ld_imm64 r0, 0x7fff0000\n"
    "    exit\n"
    "kill:\n"
    "    ld_imm64 r0, 0x80000000\n"
    "    exit\n")

# waits for the syscalls named in args[0] and args[1] to drain
WAIT2 = hexprog(
    "section seccomp\n"
    "    ld_ctx r1, 0\n"
    "    ld_ctx r2, 16\n"
    "    call wait_syscall\n"
    "    ld_ctx r1, 0\n"
    "    ld_ctx r2, 24\n"
    "    call wait_syscall\n"
    "    ld_imm64 r0, 0x7fff0000\n"
    "    exit\n")


def attach_events(tid: int, program_hex: str) -> list[dict]:
    return [
        {"event": "load", "task": tid, "handle": 1,
         "program_hex": program_hex},
        {"event": "install", "task": tid, "handle": 1},
    ]


def test_same_seed_same_run():
    events = [
        {"event": "spawn", "tid": 1, "nnp": True},
        {"event": "spawn", "tid": 2, "nnp": True},
        *attach_events(1, ALLOW_ALL),
        *attach_events(2, KILL99),
        {"event": "syscall_enter", "task": 1, "nr": 0},
        {"event": "syscall_exit", "task": 1},
        {"event": "syscall_enter", "task": 2, "nr": 3},
        {"event": "syscall_exit", "task": 2},
    ]
    a = run_trace(events, seed=7)
    b = run_trace(events, seed=7)
    assert a.digest() == b.digest()
    assert a.schedule == b.schedule
    assert a.metrics() == b.metrics()


def test_explicit_schedule_replays_a_seeded_run():
    events = [
        {"event": "spawn", "tid": 1, "nnp": True},
        {"event": "spawn", "tid": 2, "nnp": True},
        *attach_events(1, ALLOW_ALL),
        *attach_events(2, ALLOW_ALL),
        {"event": "syscall_enter", "task": 1, "nr": 0},
        {"event": "syscall_exit", "task": 1},
        {"event": "syscall_enter", "task": 2, "nr": 1},
        {"event": "syscall_exit", "task": 2},
    ]
    seeded = run_trace(events, seed=3)
    replayed = run_trace(events, schedule=seeded.schedule)
    assert replayed.digest() == seeded.digest()


def test_schedule_must_pick_runnable_tasks():
    events = [
        {"event": "spawn", "tid": 1, "nnp": True},
        {"event": "set_nnp", "task": 1},
    ]
    with pytest.raises(TraceError, match="not runnable"):
        run_trace(events, schedule=[2])


def test_exhausted_schedule_leaves_the_run_unfinished():
    events = [
        {"event": "spawn", "tid": 1, "nnp": True},
        {"event": "set_nnp", "task": 1},
        {"event": "set_dumpable", "task": 1, "value": False},
    ]
    sim = run_trace(events, schedule=[1])
    assert not sim.finished
    assert sim.pos[1] == 1
    # picking up where the schedule stopped works
    sim.step(1)
    sim.finalize()
    assert sim.finished
    assert not any(e["kind"] == "deadlock" for e in sim.entries)


def test_clock_advances_with_dt_ns():
    events = [
        {"event": "spawn", "tid": 1, "nnp": True, "dt_ns": 40},
        *attach_events(1, ALLOW_ALL),
        {"event": "syscall_enter", "task": 1, "nr": 0, "dt_ns": 60},
        {"event": "syscall_exit", "task": 1},
    ]
    sim = run_trace(events)
    assert sim.engine.clock_ns == 100
    assert decisions(sim.entries)[0]["clock"] == 100


def test_cross_waiting_filters_deadlock():
    # task 1 passes through syscall 52 and leaves; tasks 2 and 3 then
    # hold 54 and 52 respectively while each waits for the other's
    events = [
        {"event": "spawn", "tid": 1, "nnp": True},
        {"event": "spawn", "tid": 2, "nnp": True},
        {"event": "spawn", "tid": 3, "nnp": True},
        *attach_events(1, WAIT2),
        *attach_events(2, WAIT2),
        *attach_events(3, WAIT2),
        {"event": "syscall_enter", "task": 1, "nr": 52, "args": [50, 50]},
        {"event": "syscall_exit", "task": 1},
        {"event": "syscall_enter", "task": 2, "nr": 54, "args": [51, 52]},
        {"event": "syscall_enter", "task": 3, "nr": 52, "args": [53, 54]},
    ]
    sim = run_trace(events, schedule=[1, 1, 2, 2, 3, 3, 1, 2, 3, 1])
    assert sim.blocked == {2: ("wait", 52), 3: ("wait", 54)}
    deadlock = [e for e in sim.entries if e["kind"] == "deadlock"]
    assert deadlock == [{"kind": "deadlock", "blocked": {
        "2": "waiting for syscall 52 to drain",
        "3": "waiting for syscall 54 to drain",
    }}]
    assert sim.metrics()["deadlocked"]


def _serialized_twice(tid: int) -> list[dict]:
    """Task `tid` enters and leaves syscall 0 under two stacked filters:
    0 waits for 1, then 0 waits for 0."""
    events = []
    for handle, pairs in ((1, {"0": [1]}), (2, {"0": [0]})):
        events += [
            {"event": "load", "task": tid, "handle": handle,
             "policy": {"generator": "serialization", "pairs": pairs}},
            {"event": "install", "task": tid, "handle": handle},
        ]
    return events + [{"event": "syscall_enter", "task": tid, "nr": 0},
                     {"event": "syscall_exit", "task": tid}]


def test_stacked_serializations_do_not_wait_on_their_own_syscall():
    # the first filter registers syscall 0 for the task; the second is
    # serialized against 0 itself and must see that registration as its
    # own, not as a partner's, whichever filter made it
    spawn = [{"event": "spawn", "tid": tid, "nnp": True} for tid in (1, 2)]
    alone = run_trace(spawn[:1] + _serialized_twice(1))
    assert not alone.metrics()["deadlocked"]
    assert [e["kind"] for e in alone.entries] == ["decision", "exit"]
    assert alone.entries[0]["action"] == "allow"
    # task 2 enters while task 1 is inside 0, so it waits for the exit
    sim = run_trace(spawn + _serialized_twice(1) + _serialized_twice(2),
                    schedule=[1] * 5 + [2] * 5 + [1, 2, 2])
    assert not sim.metrics()["deadlocked"]
    assert [(e["kind"], e["task"]) for e in sim.entries] == [
        ("decision", 1), ("exit", 1), ("decision", 2), ("exit", 2)]
    assert {d["action"] for d in decisions(sim.entries)} == {"allow"}


def test_wait_resolves_when_the_partner_drains():
    # same shape minus the cross edge: task 2 wakes once 52 drains
    events = [
        {"event": "spawn", "tid": 1, "nnp": True},
        {"event": "spawn", "tid": 2, "nnp": True},
        *attach_events(1, WAIT2),
        *attach_events(2, WAIT2),
        {"event": "syscall_enter", "task": 1, "nr": 52, "args": [50, 50]},
        {"event": "syscall_exit", "task": 1},
        {"event": "syscall_enter", "task": 2, "nr": 54, "args": [52, 52]},
        {"event": "syscall_exit", "task": 2},
    ]
    sim = run_trace(events, schedule=[1, 1, 2, 2, 1, 2, 1, 2, 2])
    assert not sim.metrics()["deadlocked"]
    assert [d["nr"] for d in decisions(sim.entries)] == [52, 54]


def test_stalled_store_blocks_until_release():
    events = [
        {"event": "spawn", "tid": 1, "nnp": True},
        *attach_events(1, ALLOW_ALL),
        {"event": "spawn_thread", "task": 1, "tid": 2},
        {"event": "mem_write", "task": 1, "addr": 0x1000,
         "data_hex": "aa" * 64},
        {"event": "syscall_enter", "task": 1, "nr": 1,
         "args": [3, 0x1000, 64]},
        {"event": "syscall_exit", "task": 1},
        {"event": "mem_write", "task": 2, "addr": 0x1010,
         "value_u64": 0xFEED},
    ]
    from sfvm.engine import EngineConfig
    sim = Simulator(parse_trace(trace_text(events)),
                    config=EngineConfig(snapshot_mode="write_protect"),
                    descriptors=bundled_descriptors(),
                    schedule=[1, 1, 1, 1, 1, 2, 1, 2])
    sim.run()
    stalls = [e for e in sim.entries if e["kind"] == "stall"]
    assert stalls == [{"kind": "stall", "task": 2, "addr": 0x1010}]
    mem = sim.engine.task(2).address_space
    assert mem.read(0x1010, 8) == (0xFEED).to_bytes(8, "little")
    assert not sim.metrics()["deadlocked"]


def test_killed_task_drains_its_future():
    events = [
        {"event": "spawn", "tid": 1, "nnp": True},
        *attach_events(1, KILL99),
        {"event": "syscall_enter", "task": 1, "nr": 99},
        {"event": "syscall_exit", "task": 1},
        {"event": "spawn", "task": 1, "tid": 2},
        {"event": "syscall_enter", "task": 2, "nr": 0},
        {"event": "syscall_exit", "task": 2},
    ]
    sim = run_trace(events, seed=1)
    kill = decisions(sim.entries)[0]
    assert kill["action"] == "kill_process" and kill["killed"] == [1]
    skipped = [(e["task"], e["event"]) for e in sim.entries
               if e["kind"] == "skipped"]
    assert skipped == [
        (1, "syscall_exit"), (1, "spawn"),
        (2, "syscall_enter"), (2, "syscall_exit"),
    ]
    assert not sim.metrics()["deadlocked"]
    assert 2 not in sim.engine.tasks


def test_engine_errors_become_log_entries():
    events = [
        {"event": "spawn", "tid": 1, "nnp": True},
        {"event": "install", "task": 1, "handle": 9},
        {"event": "set_nnp", "task": 1},
    ]
    sim = run_trace(events)
    errors = [e for e in sim.entries if e["kind"] == "error"]
    assert len(errors) == 1
    assert errors[0]["event"] == "install"
    assert "never loaded" in errors[0]["error"]
    assert sim.pos[1] == 2                     # the run moved on


@pytest.mark.parametrize("source,error", [
    ({"program_hex": "00"}, "ProgramFormatError('truncated program file')"),
    ({"policy": {"generator": "nope"}},
     """ValueError("unknown policy generator 'nope'")"""),
    ({"policy": {"generator": "allowlist", "allowed": 5}},
     """TypeError("'int' object is not iterable")"""),
    ({"policy": {"generator": "temporal", "profile": 5}},
     """AttributeError("'int' object has no attribute 'get'")"""),
    ({"policy": {"generator": "count_limit", "nr": 1}}, "KeyError('max')"),
])
def test_a_load_that_cannot_be_carried_out_is_an_error_entry(source, error):
    events = [
        {"event": "spawn", "tid": 1, "nnp": True},
        {"event": "load", "task": 1, "handle": 1, **source},
        {"event": "set_nnp", "task": 1},
    ]
    sim = run_trace(events)
    assert sim.entries == [{"kind": "error", "task": 1, "event": "load",
                            "error": f"cannot load: {error}"}]
    assert sim.pos[1] == 2                     # the run moved on


def test_failed_write_is_an_error_entry():
    # write(2)'s buffer is copied into the task's staging page, which
    # stays mapped and refuses application stores
    staging = REGION_BASE + 1 * REGION_STRIDE
    events = [
        {"event": "spawn", "tid": 1, "nnp": True},
        {"event": "mem_write", "task": 1, "addr": 0x8000, "value_u64": 1},
        {"event": "syscall_enter", "task": 1, "nr": 1,
         "args": [5, 0x8000, 64]},
        {"event": "syscall_exit", "task": 1},
        {"event": "mem_write", "task": 1, "addr": staging, "value_u64": 2},
    ]
    sim = run_trace(events, descriptors=bundled_descriptors())
    errors = [e for e in sim.entries if e["kind"] == "error"]
    assert errors == [{"kind": "error", "task": 1, "event": "mem_write",
                       "error": f"write denied at {staging:#x}"}]
    assert sim.pos[1] == 4                     # the run moved on


def test_map_update_event_reports_failures():
    budget = hexprog(
        "section seccomp\n"
        "    map used array 8 8 1\n"
        "    ld_imm64 r0, 0x7fff0000\n"
        "    exit\n")
    events = [
        {"event": "spawn", "tid": 1, "caps": ["CAP_SYS_ADMIN"]},
        *attach_events(1, budget),
        {"event": "map_update", "task": 1, "install": 0, "map": "used",
         "key_hex": "00" * 8, "value_hex": "07" + "00" * 7},
        {"event": "map_update", "task": 1, "install": 0, "map": "used",
         "key_hex": "00" * 8, "value_hex": "ff"},
    ]
    sim = run_trace(events)
    errors = [e for e in sim.entries if e["kind"] == "error"]
    assert len(errors) == 1 and "map update failed" in errors[0]["error"]
    pmap = sim.engine.task(1).chain[0].maps[0]
    assert bytes(pmap.lookup(bytes(8)))[0] == 7


def test_phase_marker_decides_and_completes_in_one_step():
    events = [
        {"event": "spawn", "tid": 1, "nnp": True},
        *attach_events(1, ALLOW_ALL),
        {"event": "phase_marker", "task": 1, "nr": 460},
    ]
    sim = run_trace(events)
    marks = decisions(sim.entries)
    assert len(marks) == 1
    assert marks[0]["marker"] and marks[0]["nr"] == 460
    assert [e["kind"] for e in sim.entries] == ["decision", "exit"]


def test_checkpoint_restore_within_a_run():
    events = [
        {"event": "spawn", "tid": 1, "caps": ["CAP_SYS_ADMIN"]},
        {"event": "spawn", "tid": 2, "caps": ["CAP_SYS_ADMIN"]},
        *attach_events(1, KILL99),
        {"event": "checkpoint", "task": 1, "id": "c1"},
        {"event": "restore", "task": 2, "id": "c1"},
        {"event": "syscall_enter", "task": 2, "nr": 99},
    ]
    sim = run_trace(events, schedule=[1, 1, 1, 2, 2])
    assert "c1" in sim.checkpoints
    assert decisions(sim.entries, task=2)[0]["action"] == "kill_process"


def test_clock_saturates_after_a_restore_at_the_top():
    # a checkpoint made at clock 2**64-1, restored by an admin task: a
    # later dt_ns would carry the clock past 2**64 and make the next
    # checkpoint unpackable
    eng = Engine()
    eng.clock_ns = 2**64 - 1
    blob = eng.checkpoint(eng.spawn(caps=["CAP_SYS_ADMIN"]))
    events = [
        {"event": "spawn", "tid": 1, "caps": ["CAP_SYS_ADMIN"]},
        {"event": "restore", "task": 1, "blob_hex": blob.hex()},
        {"event": "syscall_enter", "task": 1, "nr": 39, "dt_ns": 10},
        {"event": "syscall_exit", "task": 1},
        {"event": "checkpoint", "task": 1, "id": "c"},
    ]
    sim = run_trace(events)
    assert decisions(sim.entries)[0]["clock"] == 2**64 - 1
    assert not [e for e in sim.entries if e["kind"] == "error"]
    assert "c" in sim.checkpoints


def test_restore_with_unknown_id_is_an_error():
    events = [
        {"event": "spawn", "tid": 1, "caps": ["CAP_SYS_ADMIN"]},
        {"event": "restore", "task": 1, "id": "ghost"},
    ]
    sim = run_trace(events)
    errors = [e for e in sim.entries if e["kind"] == "error"]
    assert errors and "no checkpoint" in errors[0]["error"]


# -- exploration ---------------------------------------------------------------


EXPLORE_EVENTS = [
    {"event": "spawn", "tid": 1, "nnp": True},
    {"event": "spawn", "tid": 2, "nnp": True},
    *attach_events(1, KILL99),
    {"event": "syscall_enter", "task": 1, "nr": 0},
    {"event": "syscall_exit", "task": 1},
    {"event": "syscall_enter", "task": 2, "nr": 1},
    {"event": "syscall_exit", "task": 2},
]


# a dispatcher hands every syscall to a target that keeps the last
# first argument in its own array: it denies with the previous value as
# errno (allows while that is 0) and stores the new one, so its verdicts
# depend on the order in which tasks reached it
_LAST_ARG = assemble(
    "section seccomp\n"
    "map last array 8 8 1\n"
    "    mov r6, 0\n"
    "    st_map r10, r6, -8\n"
    "    mov r2, r10\n"
    "    add r2, -8\n"
    "    ld_imm64 r1, map:last\n"
    "    call map_lookup_elem\n"
    "    jeq r0, 0, allow\n"
    "    ld_map r7, r0, 0\n"
    "    ld_ctx r8, 16\n"
    "    st_map r0, r8, 0\n"
    "    jeq r7, 0, allow\n"
    "    or r7, 0x50000\n"
    "    mov r0, r7\n"
    "    exit\n"
    "allow:\n"
    "    ld_imm64 r0, 0x7fff0000\n"
    "    exit\n")
_DISPATCH = assemble(
    "section seccomp\n"
    "map next prog_array 8 8 1\n"
    "    ld_imm64 r1, map:next\n"
    "    mov r2, 0\n"
    "    tail_call\n"
    "    mov r0, 0x50001\n"
    "    exit\n")
DISPATCH_TO_LAST_ARG = encode_program(replace(_DISPATCH, map_refs=(
    replace(_DISPATCH.map_refs[0], initial_programs={0: _LAST_ARG}),))).hex()

# 9 schedulable events: the thread shares its leader's chain, and so the
# target's array, with C(6, 2) = 15 schedules
TAIL_STATE_EVENTS = [
    {"event": "spawn", "tid": 1, "nnp": True},
    *attach_events(1, DISPATCH_TO_LAST_ARG),
    {"event": "spawn_thread", "task": 1, "tid": 2},
    {"event": "syscall_enter", "task": 1, "nr": 5, "args": [1]},
    {"event": "syscall_exit", "task": 1},
    {"event": "syscall_enter", "task": 2, "nr": 5, "args": [2]},
    {"event": "syscall_exit", "task": 2},
    {"event": "syscall_enter", "task": 2, "nr": 5, "args": [3]},
    {"event": "syscall_exit", "task": 2},
]


# syscall 5 keeps a pointer to its counter across a wait for syscall 9
# to drain, then bumps the counter and denies with the new count as
# errno; syscall 9 registers itself and is allowed
COUNT_AFTER_WAIT = hexprog(
    "section seccomp\n"
    "map count array 8 8 1\n"
    "    ld_ctx r1, 0\n"
    "    jeq r1, 5, counted\n"
    "    mov r2, 77\n"
    "    call wait_syscall\n"
    "    ld_imm64 r0, 0x7fff0000\n"
    "    exit\n"
    "counted:\n"
    "    mov r6, 0\n"
    "    st_map r10, r6, -8\n"
    "    mov r2, r10\n"
    "    add r2, -8\n"
    "    ld_imm64 r1, map:count\n"
    "    call map_lookup_elem\n"
    "    jeq r0, 0, out\n"
    "    mov r6, r0\n"
    "    mov r1, 5\n"
    "    mov r2, 9\n"
    "    call wait_syscall\n"
    "    ld_map r7, r6, 0\n"
    "    add r7, 1\n"
    "    st_map r6, r7, 0\n"
    "    or r7, 0x50000\n"
    "    mov r0, r7\n"
    "    exit\n"
    "out:\n"
    "    mov r0, 0\n"
    "    exit\n")

# a copy taken while task 1 waits must keep r6 pointing into the copy's
# own counter, or the bump is lost and the second verdict repeats errno 1
MAP_POINTER_ACROSS_WAIT = [
    {"event": "spawn", "tid": 1, "nnp": True},
    *attach_events(1, COUNT_AFTER_WAIT),
    {"event": "spawn_thread", "task": 1, "tid": 2},
    {"event": "syscall_enter", "task": 1, "nr": 5},
    {"event": "syscall_exit", "task": 1},
    {"event": "syscall_enter", "task": 1, "nr": 5},
    {"event": "syscall_exit", "task": 1},
    {"event": "syscall_enter", "task": 2, "nr": 9},
    {"event": "syscall_exit", "task": 2},
]

# denies with the value in its array as errno, allows while that is 0
DENY_WITH_LIMIT = hexprog(
    "section seccomp\n"
    "map limit array 8 8 1\n"
    "    mov r6, 0\n"
    "    st_map r10, r6, -8\n"
    "    mov r2, r10\n"
    "    add r2, -8\n"
    "    ld_imm64 r1, map:limit\n"
    "    call map_lookup_elem\n"
    "    jeq r0, 0, allow\n"
    "    ld_map r7, r0, 0\n"
    "    jeq r7, 0, allow\n"
    "    or r7, 0x50000\n"
    "    mov r0, r7\n"
    "    exit\n"
    "allow:\n"
    "    ld_imm64 r0, 0x7fff0000\n"
    "    exit\n")

# the child's update before or after the checkpoint leaves the live map
# the same but not the saved blob, so the restored filter votes apart
CHECKPOINT_AFTER_UPDATE = [
    {"event": "spawn", "tid": 1, "caps": ["CAP_SYS_ADMIN"]},
    *attach_events(1, DENY_WITH_LIMIT),
    {"event": "spawn", "task": 1, "tid": 2},
    {"event": "checkpoint", "task": 1, "id": "c"},
    {"event": "restore", "task": 1, "id": "c"},
    {"event": "syscall_enter", "task": 1, "nr": 3},
    {"event": "map_update", "task": 2, "target": 1, "install": 0,
     "map": "limit", "key_hex": "00" * 8, "value_hex": "01" + "00" * 7},
]

# always allows, after a three-step detour while its array holds 1
DETOUR_ON_FLAG = hexprog(
    "section seccomp\n"
    "map flag array 8 8 1\n"
    "    mov r6, 0\n"
    "    st_map r10, r6, -8\n"
    "    mov r2, r10\n"
    "    add r2, -8\n"
    "    ld_imm64 r1, map:flag\n"
    "    call map_lookup_elem\n"
    "    jeq r0, 0, allow\n"
    "    ld_map r7, r0, 0\n"
    "    jeq r7, 0, allow\n"
    "    mov r7, 1\n"
    "    mov r7, 2\n"
    "    mov r7, 3\n"
    "allow:\n"
    "    ld_imm64 r0, 0x7fff0000\n"
    "    exit\n")

# waits for the syscall named in args[0] to drain
WAIT_ARG0 = hexprog(
    "section seccomp\n"
    "    ld_ctx r1, 0\n"
    "    ld_ctx r2, 16\n"
    "    call wait_syscall\n"
    "    ld_imm64 r0, 0x7fff0000\n"
    "    exit\n")

# task 1's first filter votes allow in a number of steps that depends
# on the flag, and its second waits while thread 2 is inside syscall 9;
# task 3 sets the flag and clears it again, so two parked states can
# agree on everything but the steps of the vote already cast
VOTE_STEPS = [
    {"event": "spawn", "tid": 1, "nnp": True},
    *attach_events(1, DETOUR_ON_FLAG),
    {"event": "load", "task": 1, "handle": 2, "program_hex": WAIT_ARG0},
    {"event": "install", "task": 1, "handle": 2},
    {"event": "spawn_thread", "task": 1, "tid": 2},
    {"event": "spawn", "task": 1, "tid": 3, "caps": ["CAP_SYS_ADMIN"]},
    {"event": "syscall_enter", "task": 1, "nr": 5, "args": [9]},
    {"event": "syscall_enter", "task": 2, "nr": 9, "args": [77]},
    {"event": "syscall_exit", "task": 2},
    {"event": "map_update", "task": 3, "target": 1, "install": 0,
     "map": "flag", "key_hex": "00" * 8, "value_hex": "01" + "00" * 7},
    {"event": "map_update", "task": 3, "target": 1, "install": 0,
     "map": "flag", "key_hex": "00" * 8, "value_hex": "00" * 8},
]


TRACE_CASES = {"explore-events": EXPLORE_EVENTS,
               "tail-call-state": TAIL_STATE_EVENTS,
               "map-pointer-across-wait": MAP_POINTER_ACROSS_WAIT,
               "checkpoint-after-update": CHECKPOINT_AFTER_UPDATE,
               "vote-steps": VOTE_STEPS}
EXPLORE_SCENARIOS = [name for name in bundled_scenario_names()
                     if load_bundled_scenario(name).get("mode") == "explore"]


@pytest.mark.parametrize("name", [*TRACE_CASES, *EXPLORE_SCENARIOS])
def test_dedupe_preserves_the_schedule_set(name):
    spec = ({"trace": TRACE_CASES[name]} if name in TRACE_CASES
            else load_bundled_scenario(name))
    trace = parse_trace(trace_text(spec["trace"]))
    kwargs = {"descriptors": bundled_descriptors(),
              "max_steps": spec.get("max_steps", MAX_EXPLORE_STEPS)}
    # the reference's list, in its order
    assert explore_disagreements(trace, **kwargs) == []
    if name == "tail-call-state":
        fast = explore_interleavings(trace, **kwargs)
        assert len(fast) == 15
        # the target's state decides: some schedules deny with its value
        assert len({log_digest(e) for _, e in fast}) > 1


def test_explore_enumerates_every_schedule():
    for name, events in TRACE_CASES.items():
        results = explore_interleavings(parse_trace(trace_text(events)))
        schedules = [tuple(s) for s, _ in results]
        assert len(schedules) == len(set(schedules)), name
        if name == "explore-events":
            # 4 events for task 1 interleaved with 2 for task 2: C(6,2)
            assert len(schedules) == 15
        # every explored log is the log of replaying its schedule
        for schedule, entries in results:
            again = run_trace(events, schedule=list(schedule))
            assert log_digest(again.entries) == log_digest(entries), \
                (name, schedule)


def test_map_update_before_its_target_installs_is_an_error_entry():
    events = [
        {"event": "spawn", "tid": 1, "caps": ["CAP_SYS_ADMIN"]},
        {"event": "spawn", "tid": 2, "caps": ["CAP_SYS_ADMIN"]},
        *attach_events(1, DENY_WITH_LIMIT),
        {"event": "map_update", "task": 2, "target": 1, "install": 0,
         "map": "limit", "key_hex": "00" * 8, "value_hex": "00" * 8},
    ]
    sim = run_trace(events, schedule=[2, 1, 1])
    assert sim.entries == [{"kind": "error", "task": 2,
                            "event": "map_update",
                            "error": "task 1 has no installation 0"}]
    # after the install, before it, or before the load
    results = explore_interleavings(parse_trace(trace_text(events)))
    assert [len(e) for _, e in results] == [0, 1, 1]


def test_explore_keys_handles_named_by_int_and_by_str():
    # two pending handles of one task, one named 1 and one "a": the state
    # fingerprint must order them without comparing an int with a str
    events = [
        {"event": "spawn", "tid": 1, "nnp": True},
        {"event": "spawn", "tid": 2, "nnp": True},
        {"event": "load", "task": 1, "handle": 1, "program_hex": ALLOW_ALL},
        {"event": "load", "task": 1, "handle": "a", "program_hex": ALLOW_ALL},
        {"event": "set_nnp", "task": 2},
    ]
    results = explore_interleavings(parse_trace(trace_text(events)))
    assert len(results) == 3
    assert all(entries == [] for _, entries in results)


def test_explore_refuses_oversized_traces():
    events = [{"event": "spawn", "tid": 1, "nnp": True}]
    events += [{"event": "set_nnp", "task": 1}] * (MAX_EXPLORE_STEPS + 1)
    trace = parse_trace(trace_text(events))
    with pytest.raises(ExplorationLimit, match="capped at 14"):
        explore_interleavings(trace)
    assert len(explore_interleavings(trace, max_steps=20)) == 1


def test_metrics_shape():
    sim = run_trace(EXPLORE_EVENTS, seed=5)
    got = sim.metrics()
    assert got["decisions"] == 2
    assert got["by_action"] == {"allow": 2}
    assert got["digest"] == sim.digest()
    assert got["schedule"] == sim.schedule
    assert got["steps"] > 0 and got["helper_calls"] == 0
    assert not got["deadlocked"]
