"""The field declarations behind copies and fingerprints of the world."""

from __future__ import annotations

import ast
from copy import deepcopy
from dataclasses import dataclass, is_dataclass
from enum import Enum
from pathlib import Path

import pytest

import sfvm
from sfvm import state
from sfvm.engine import (Engine, EngineConfig, Installation, LoadedHandle,
                         PendingSyscall, Task)
from sfvm.isa import FilterProgram
from sfvm.maps import PolicyMap
from sfvm.sim import Simulator
from sfvm.snapshot import ArgSnapshot
from sfvm.state import ALIASED, OWNED, SHARED, VALUE, Record, stateful
from sfvm.trace import parse_trace
from sfvm.usermem import UserMemory
from sfvm.vm import InFlightTable, MapRef, MemPtr, VmThread

from .helpers import (
    bundled_descriptors,
    explore_branch_points,
    explore_corpus,
    reference_copy,
    reference_key,
    trace_text,
)
from .test_sim import DISPATCH_TO_LAST_ARG, attach_events, hexprog

# syscall 1 parks in wait_syscall for 9 with a map-value pointer in r6
# and a map reference in r7; any other syscall registers itself
PARK = hexprog(
    "section seccomp\n"
    "map count array 8 8 1\n"
    "    ld_ctx r1, 0\n"
    "    jeq r1, 1, park\n"
    "    mov r2, 77\n"
    "    call wait_syscall\n"
    "    ld_imm64 r0, 0x7fff0000\n"
    "    exit\n"
    "park:\n"
    "    mov r6, 0\n"
    "    st_map r10, r6, -8\n"
    "    mov r2, r10\n"
    "    add r2, -8\n"
    "    ld_imm64 r1, map:count\n"
    "    call map_lookup_elem\n"
    "    jeq r0, 0, out\n"
    "    mov r6, r0\n"
    "    ld_imm64 r7, map:count\n"
    "    mov r1, 1\n"
    "    mov r2, 9\n"
    "    call wait_syscall\n"
    "out:\n"
    "    ld_imm64 r0, 0x7fff0000\n"
    "    exit\n")

WORLD_EVENTS = [
    {"event": "spawn", "tid": 1, "caps": ["CAP_SYS_ADMIN"]},
    *attach_events(1, PARK),
    {"event": "load", "task": 1, "handle": 2,
     "program_hex": DISPATCH_TO_LAST_ARG},
    {"event": "install", "task": 1, "handle": 2},
    {"event": "load", "task": 1, "handle": 3, "program_hex": PARK},
    {"event": "mem_write", "task": 1, "addr": 0x1000, "data_hex": "aa" * 64},
    {"event": "checkpoint", "task": 1, "id": "c"},
    {"event": "spawn_thread", "task": 1, "tid": 2},
    {"event": "syscall_enter", "task": 2, "nr": 9, "args": [77]},
    {"event": "syscall_enter", "task": 1, "nr": 1, "args": [3, 0x1000, 64]},
]


def world() -> Simulator:
    """Task 1 parked inside a snapshotted syscall while thread 2 holds
    syscall 9, with a handle loaded but not installed: an instance of
    every declared class."""
    sim = Simulator(parse_trace(trace_text(WORLD_EVENTS)),
                    config=EngineConfig(snapshot_mode="write_protect"),
                    descriptors=bundled_descriptors(),
                    schedule=[1] * 8 + [2, 1])
    sim.run()
    assert sim.blocked == {1: ("wait", 9)}
    return sim


def _inside(value):
    """Declared objects and bytearrays held in a field's value."""
    if type(value) in (list, tuple):
        for v in value:
            yield from _inside(v)
    elif type(value) is dict:
        for k in sorted(value):
            yield from _inside(value[k])
    elif type(value) in state.DECLARED or type(value) is bytearray:
        yield value
    elif type(value) is not set:
        assert _immutable(value), f"mutable leaf {value!r}"


def _immutable(leaf) -> bool:
    if leaf is None or isinstance(leaf, (int, str, bytes, float, frozenset,
                                         Enum, FilterProgram)):
        return True     # programs are immutable once loaded
    return is_dataclass(leaf) and leaf.__dataclass_params__.frozen


def fields_of(root):
    """(object, field, role) of every declared object reachable from
    `root` through walked fields, in a fixed order, and how often each
    object was reached."""
    out, reached, todo = [], {}, [root]
    while todo:
        obj = todo.pop(0)
        reached[id(obj)] = reached.get(id(obj), 0) + 1
        if reached[id(obj)] > 1 or type(obj) is bytearray:
            continue
        for name, role in state.DECLARED[type(obj)]:
            out.append((obj, name, role))
            if role in (VALUE, OWNED, ALIASED):
                todo.extend(_inside(getattr(obj, name)))
    return out, reached


def test_a_copy_shares_every_program_and_keys_alike():
    sim = world()
    twin = deepcopy(sim)
    assert twin.state_key() == sim.state_key()

    def programs(s):
        return [*(inst.program for task in s.engine.tasks.values()
                  for inst in task.chain),
                *(handle.program for handle in s.engine.handles.values())]

    assert len(programs(sim)) >= 3
    assert all(a is b for a, b in zip(programs(sim), programs(twin),
                                      strict=True))


def agrees_with_the_reference(sim, key=Simulator.state_key):
    """The generated key equals the reference walker's, and a generated
    copy keys alike, as the reference copy does, and shares every shared
    field and no mutable object besides (an untracked one is copied
    shallowly)."""
    want = reference_key(sim, {}, True)
    assert key(sim) == want
    twin = sim.__deepcopy__({})
    assert reference_key(twin, {}, True) == want
    assert reference_key(reference_copy(sim, {}), {}, True) == want
    for (a, name, role), (b, twin_name, _) in zip(
            fields_of(sim)[0], fields_of(twin)[0], strict=True):
        assert name == twin_name
        if role == SHARED:
            assert getattr(b, name) is getattr(a, name), name
        elif role in (VALUE, OWNED, ALIASED):
            for x, y in zip(_inside(getattr(a, name)),
                            _inside(getattr(b, name)), strict=True):
                assert y is not x, name
        else:
            value = getattr(a, name)
            assert getattr(b, name) is not value or _immutable(value), name
    return True


def test_the_world_keys_and_copies_as_the_reference_does():
    assert agrees_with_the_reference(world())


@pytest.mark.parametrize("name,events,config", explore_corpus(),
                         ids=[name for name, _, _ in explore_corpus()])
def test_every_branch_point_keys_and_copies_as_the_reference_does(
        name, events, config):
    checked, _ = explore_branch_points(events, config,
                                       agrees_with_the_reference)
    assert all(checked.values())


def test_every_declared_class_lists_exactly_its_attributes():
    found, reached = fields_of(world())
    objects = {id(obj): obj for obj, _, _ in found}
    classes = {type(obj) for obj in objects.values()}
    assert {Simulator, Engine, Task, PendingSyscall, Installation,
            LoadedHandle, ArgSnapshot, VmThread, PolicyMap, UserMemory,
            InFlightTable} <= classes == set(state.DECLARED)
    for obj in objects.values():
        declared = {name for name, _ in state.DECLARED[type(obj)]}
        have = (set(vars(obj)) if hasattr(obj, "__dict__")
                else set(type(obj).__slots__))
        assert have == declared, type(obj).__name__
    # an owned object is reached through its owner's field alone
    for obj, name, role in found:
        if role == OWNED:
            for child in _inside(getattr(obj, name)):
                assert reached[id(child)] == 1, (type(obj).__name__, name)


def test_a_dataclass_field_without_a_role_is_refused():
    with pytest.raises(TypeError, match="declared fields"):
        @stateful(value="tid")
        @dataclass
        class Grown:
            tid: int
            extra: int


def test_a_record_field_without_a_role_is_refused():
    with pytest.raises(TypeError, match="declared fields"):
        @stateful(value="tid")
        class Grown(Record):
            __slots__ = ("tid", "extra")


def test_records_are_immutable_state_as_frozen_dataclasses_are():
    # keyed by value, never numbered by identity
    assert {MemPtr, MapRef}.isdisjoint(state._MUTABLE)
    assert {VmThread, PolicyMap, bytearray} <= state._MUTABLE
    stack = bytearray(16)
    ptrs = [MemPtr(stack, 8), MemPtr(stack, 8)]
    # the two pointers are keyed alike, the buffer they share numbered
    assert state._key(ptrs, {}, True) == (
        (MemPtr, 8, (state._REF, 0, bytes(16))), (MemPtr, 8, (state._REF, 0)))


def _change(obj, name):
    """Change a field in place where it is a mutable container, else
    rebind it to a value it never had."""
    value = getattr(obj, name)
    if type(value) in (list, bytearray):
        value.append(1)
    elif type(value) is dict and value:
        value.popitem()
    elif type(value) is set and value:
        value.pop()
    elif type(value) in (dict, set):
        value.update({0: 0} if type(value) is dict else {0})
    else:
        object.__setattr__(obj, name, object())


def _first_of_each():
    """(index, class, field, role) of each class's first instance."""
    found, _ = fields_of(world())
    first, out = {}, []
    for i, (obj, name, role) in enumerate(found):
        cls = type(obj).__name__
        if first.setdefault(cls, id(obj)) == id(obj):
            out.append(pytest.param(i, cls, name, role, id=f"{cls}.{name}"))
    return out


@pytest.mark.parametrize("index,cls,name,role", _first_of_each())
def test_each_field_is_in_the_key_and_the_copy_or_neither(index, cls, name,
                                                           role):
    sim = world()
    before = sim.state_key()
    clone = deepcopy(sim)
    assert clone.state_key() == before
    obj, field, _ = fields_of(sim)[0][index]
    assert (type(obj).__name__, field) == (cls, name)
    _change(obj, name)
    if role in (SHARED, VALUE, OWNED, ALIASED):
        assert sim.state_key() != before
    else:               # untracked: the reason is the role
        assert sim.state_key() == before
    assert clone.state_key() == before      # the copy does not see it


def test_no_walk_is_written_outside_the_state_module():
    src = Path(sfvm.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "state.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                assert node.name not in ("state_key", "__deepcopy__"), \
                    f"{path.name}: {node.name}"
