"""Entry-time argument capture in both modes."""

from __future__ import annotations

import json
import re

import pytest

from sfvm.engine import Engine, EngineConfig
from sfvm.isa import SyscallContext
from sfvm.policies import gen_allow_all
from sfvm.snapshot import (
    COPY,
    REGION_BASE,
    REGION_STRIDE,
    SNAPSHOT_LIMIT,
    WRITE_PROTECT,
    DescriptorError,
    DescriptorTable,
    Snapshotter,
)
from sfvm.usermem import PAGE_SIZE, UserMemory, WriteStatus

from .helpers import attach, bundled_descriptors, ctx


def table(spec: dict) -> DescriptorTable:
    return DescriptorTable.from_json(json.dumps(spec))


WRITE_TABLE = table({"1": {"args": {"1": {"kind": "user_buffer", "size": 64}}}})


def mem_with(addr: int, data: bytes) -> UserMemory:
    mem = UserMemory()
    mem.map_region(addr, max(len(data), 1))
    mem.write(addr, data)
    return mem


# -- descriptor table loading ------------------------------------------


def test_table_lookup():
    tab = WRITE_TABLE
    assert tab.get(2) == {}
    assert tab.get(1)[1].size == 64
    assert tab.get(99) == {}


def test_user_string_uses_max():
    tab = table({"2": {"args": {"0": {"kind": "user_string", "max": 256}}}})
    desc = tab.get(2)[0]
    assert desc.kind == "user_string"
    assert desc.size == 256


def test_record_fields_parse():
    tab = table({"209": {"args": {"2": {
        "kind": "user_record", "size": 32,
        "fields": [{"offset": 8, "kind": "user_buffer", "size": 16}],
    }}}})
    desc = tab.get(209)[2]
    assert desc.snapshot_bytes == 48
    assert desc.fields[0].offset == 8


@pytest.mark.parametrize("spec,fragment", [
    ({"x": {"args": {}}}, "bad syscall number"),
    ({"1": {"args": {"6": {"kind": "scalar"}}}}, "out of range"),
    ({"1": {"args": {"0": {"kind": "mystery"}}}}, "unknown descriptor kind"),
    ({"1": {"args": {"0": {"kind": "user_buffer", "size": 0}}}}, "bad size"),
    ({"1": {"args": {"0": {"kind": "user_buffer"}}}}, "bad size"),
    ({"1": {"args": {"0": {"kind": "user_string"}}}}, "bad size"),
    ({"1": {"args": {"0": {"kind": "user_record", "size": 8, "fields":
        [{"offset": 4, "kind": "user_buffer", "size": 8}]}}}}, "does not fit"),
    ({"1": {"args": {"0": {"kind": "user_record", "size": 16, "fields":
        [{"offset": 0, "kind": "user_record", "size": 8}]}}}},
     "may only be"),
    ({"1": {"args": {"0": {"kind": "user_buffer",
                           "size": SNAPSHOT_LIMIT + 1}}}}, "limit is"),
    ({"1": {"args": {"x": {"kind": "scalar"}}}}, "bad argument index 'x'"),
    ([1], "descriptor table: must be a JSON object"),
    ({"1": [1]}, "syscall 1: must be a JSON object"),
    ({"1": {"args": [1]}}, "syscall 1 args: must be a JSON object"),
    ({"1": {"args": {"0": "scalar"}}}, "syscall 1 arg 0: must be a JSON"),
    ({"1": {"args": {"0": {"kind": "user_record", "size": 16,
                           "fields": [8]}}}}, r"fields\[0\]: must be a JSON"),
    ({"1": {"args": {"0": {"kind": "user_record", "size": 16,
                           "fields": "ab"}}}}, "fields must be a list"),
    ({"1": {"args": {"0": {"kind": "user_buffer", "size": True}}}},
     "bad size"),
    ({"1": {"args": {"0": {"kind": "user_record", "size": True}}}},
     "bad record size"),
    ({"1": {"args": {"0": {"kind": "user_record", "size": 16, "fields":
        [{"offset": True, "kind": "user_buffer", "size": 8}]}}}},
     "bad field offset"),
    ({"1": {"args": {"0": {"kind": "user_record", "size": 16, "fields":
        [{"offset": 0, "kind": "user_string", "max": 0}]}}}},
     r"fields\[0\]: bad size"),
    ({"1": {"name": 5, "args": {}}}, "^syscall 1 name: must be a string$"),
    # a key no shape declares, which a typo makes
    ({"1": {"argz": {"1": {"kind": "user_buffer", "size": 64}}}},
     "^syscall 1: unknown field 'argz'$"),
    ({"1": {"args": {"0": {"kind": "scalar", "junk": 1}}}},
     "^syscall 1 arg 0: unknown field 'junk'$"),
    ({"1": {"args": {"0": {"kind": "user_string", "size": 8}}}},
     "^syscall 1 arg 0: unknown field 'size'$"),
    ({"1": {"args": {"0": {"kind": "user_record", "size": 16, "fields": [
        {"offset": 0, "kind": "user_buffer", "size": 8, "junk": 1}]}}}},
     r"^syscall 1 arg 0\.fields\[0\]: unknown field 'junk'$"),
    ({"1": {"args": {"01": {"kind": "scalar"}}}},
     r"^syscall 1: bad argument index '01' \(out of range 0-5\)$"),
    *(({key: {"args": {}}}, f"^bad syscall number {re.escape(repr(key))}$")
      for key in ("-5", " 7 ", "1_0", "\u0661\u0662", "+1",
                  "99999999999999999999999")),
])
def test_table_rejects_bad_descriptors(spec, fragment):
    with pytest.raises(DescriptorError, match=fragment):
        table(spec)


def test_snapshot_limit_is_cumulative():
    half = SNAPSHOT_LIMIT // 2
    with pytest.raises(DescriptorError, match="limit"):
        table({"1": {"args": {
            "0": {"kind": "user_buffer", "size": half},
            "1": {"kind": "user_buffer", "size": half + 1},
        }}})
    # exactly at the limit is fine
    table({"1": {"args": {
        "0": {"kind": "user_buffer", "size": half},
        "1": {"kind": "user_buffer", "size": half},
    }}})


def test_bundled_descriptor_file_loads():
    from .helpers import bundled_descriptors
    tab = bundled_descriptors()
    assert tab.get(1)[1].kind == "user_buffer"
    assert tab.get(257)[1].kind == "user_string"
    assert tab.get(209)[2].fields[0].kind == "user_buffer"


# -- copy mode -----------------------------------------------------------


def test_copy_mode_freezes_entry_bytes():
    mem = mem_with(0x1000, b"A" * 64)
    snap = Snapshotter(WRITE_TABLE, COPY).snapshot(mem, 7, ctx(1, 3, 0x1000, 64))
    assert mem.write(0x1000, b"B" * 64) == WriteStatus.OK   # live write lands
    status, data = snap.read(mem, 0x1000, 64)
    assert status == "ok"
    assert data == b"A" * 64                                 # snapshot is stale


def test_copy_region_is_per_task_and_readonly():
    mem = mem_with(0x1000, b"A" * 64)
    snap = Snapshotter(WRITE_TABLE, COPY).snapshot(mem, 7, ctx(1, 3, 0x1000, 64))
    base = REGION_BASE + 7 * REGION_STRIDE
    assert snap.region_base == base
    assert mem.read(base, 4) == b"AAAA"
    assert mem.write(base, b"junk") == WriteStatus.DENIED


def test_reads_outside_ranges_fall_through_to_live_memory():
    mem = mem_with(0x1000, b"A" * 128)
    snap = Snapshotter(WRITE_TABLE, COPY).snapshot(mem, 1, ctx(1, 3, 0x1000, 64))
    mem.write(0x1040, b"Z" * 8)
    assert snap.read(mem, 0x1040, 8) == ("ok", b"Z" * 8)
    # straddling read: first half frozen, second half live
    mem.write(0x1000, b"B" * 128)
    status, data = snap.read(mem, 0x103C, 8)
    assert (status, data) == ("ok", b"A" * 4 + b"B" * 4)


def test_null_pointer_is_skipped():
    mem = UserMemory()
    snap = Snapshotter(WRITE_TABLE, COPY).snapshot(mem, 1, ctx(1, 3, 0, 64))
    assert snap.ranges == [] and snap.fault_markers == []


def test_scalar_args_are_never_captured():
    tab = table({"1": {"args": {"0": {"kind": "scalar"}}}})
    mem = UserMemory()
    snap = Snapshotter(tab, COPY).snapshot(mem, 1, ctx(1, 0xBAD))
    assert snap.ranges == []


# -- fault markers ---------------------------------------------------------


def test_unmapped_range_becomes_marker():
    mem = UserMemory()
    snap = Snapshotter(WRITE_TABLE, COPY).snapshot(mem, 1, ctx(1, 3, 0x1000, 64))
    assert snap.ranges == []
    assert snap.fault_markers == [(0x1000, 64)]
    assert snap.read(mem, 0x1000, 8) == ("marker", (0x1000, 64))


def test_service_fault_recaptures_after_mapping():
    mem = UserMemory()
    snap = Snapshotter(WRITE_TABLE, COPY).snapshot(mem, 1, ctx(1, 3, 0x1000, 64))
    marker = snap.fault_markers[0]
    mem.map_region(0x1000, PAGE_SIZE)
    mem.write(0x1000, b"late" * 16)
    assert snap.service_fault(mem, marker)
    assert snap.fault_markers == []
    assert snap.read(mem, 0x1000, 4) == ("ok", b"late")
    # once captured, further live writes no longer show
    mem.write(0x1000, b"XXXX")
    assert snap.read(mem, 0x1000, 4) == ("ok", b"late")


def test_service_fault_without_mapping_makes_no_progress():
    mem = UserMemory()
    snap = Snapshotter(WRITE_TABLE, COPY).snapshot(mem, 1, ctx(1, 3, 0x1000, 64))
    marker = snap.fault_markers[0]
    assert not snap.service_fault(mem, marker)
    assert snap.fault_markers == [marker]
    assert not snap.service_fault(mem, (0xDEAD, 8))   # unknown marker


def test_partially_mapped_range_splits():
    mem = UserMemory()
    mem.map_region(0x1000, PAGE_SIZE)
    mem.write(0x1000 + PAGE_SIZE - 8, b"\xAA" * 8)
    addr = 0x1000 + PAGE_SIZE - 8     # 8 mapped bytes, then 56 unmapped
    snap = Snapshotter(WRITE_TABLE, COPY).snapshot(mem, 1, ctx(1, 3, addr, 64))
    assert len(snap.ranges) == 1 and snap.ranges[0].size == 8
    assert snap.fault_markers == [(0x1000 + PAGE_SIZE, 56)]
    assert snap.read(mem, addr, 8) == ("ok", b"\xAA" * 8)


# -- write_protect mode ------------------------------------------------------


def test_wp_mode_stalls_writers_until_release():
    mem = mem_with(0x1000, b"A" * 64)
    snapper = Snapshotter(WRITE_TABLE, WRITE_PROTECT)
    snap = snapper.snapshot(mem, 1, ctx(1, 3, 0x1000, 64))
    assert mem.write(0x1000, b"B") == WriteStatus.STALL
    # reads resolve from live (necessarily unchanged) memory
    assert snap.read(mem, 0x1000, 4) == ("ok", b"AAAA")
    snapper.release(mem, snap)
    assert snap.released
    assert mem.write(0x1000, b"B") == WriteStatus.OK
    snapper.release(mem, snap)    # second release is a no-op


def test_wp_mode_protects_whole_pages():
    mem = mem_with(0x1000, b"A" * PAGE_SIZE)
    snapper = Snapshotter(WRITE_TABLE, WRITE_PROTECT)
    snap = snapper.snapshot(mem, 1, ctx(1, 3, 0x1010, 64))
    # granularity is the page, so a write elsewhere in it also stalls
    assert mem.write(0x1F00, b"B") == WriteStatus.STALL
    snapper.release(mem, snap)


def test_wp_release_waits_for_every_thread_on_the_page():
    # two threads of one process snapshot the same path page; the page
    # must stay protected until the last of them leaves its syscall
    eng = Engine(EngineConfig(snapshot_mode=WRITE_PROTECT),
                 descriptors=bundled_descriptors())
    first = attach(eng, gen_allow_all())
    second = eng.spawn_thread(first)
    mem = eng.task(first).address_space
    mem.map_region(0x1000, PAGE_SIZE)
    mem.write(0x1000, b"/etc/passwd\x00")
    for tid in (first, second):
        assert eng.run_syscall(tid, ctx(2, 0x1000))["action"] == "allow"
    eng.syscall_exit(first)
    assert mem.write(0x1000, b"/tmp") == WriteStatus.STALL
    eng.syscall_exit(second)
    assert mem.write(0x1000, b"/tmp") == WriteStatus.OK


def test_copy_mode_release_keeps_live_memory_writable():
    mem = mem_with(0x1000, b"A" * 64)
    snapper = Snapshotter(WRITE_TABLE, COPY)
    snapper.snapshot(mem, 1, ctx(1, 3, 0x1000, 64))
    assert mem.write(0x1000, b"B") == WriteStatus.OK


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown snapshot mode"):
        Snapshotter(WRITE_TABLE, "mmap")


# -- records -------------------------------------------------------------


RECORD_TABLE = table({"209": {"args": {"2": {
    "kind": "user_record", "size": 16,
    "fields": [{"offset": 0, "kind": "user_buffer", "size": 8}],
}}}})


def test_record_follows_interior_pointer():
    mem = UserMemory()
    mem.map_region(0x1000, PAGE_SIZE)
    mem.map_region(0x9000, PAGE_SIZE)
    mem.write(0x1000, (0x9000).to_bytes(8, "little"))
    mem.write(0x9000, b"payload!")
    snap = Snapshotter(RECORD_TABLE, COPY).snapshot(
        mem, 1, ctx(209, 0, 0, 0x1000))
    mem.write(0x9000, b"replaced")
    assert snap.read(mem, 0x9000, 8) == ("ok", b"payload!")
    # and the record itself was captured too
    mem.write(0x1000, b"\x00" * 8)
    status, data = snap.read(mem, 0x1000, 8)
    assert (status, data) == ("ok", (0x9000).to_bytes(8, "little"))


def test_record_null_interior_pointer_is_skipped():
    mem = UserMemory()
    mem.map_region(0x1000, PAGE_SIZE)
    snap = Snapshotter(RECORD_TABLE, COPY).snapshot(
        mem, 1, ctx(209, 0, 0, 0x1000))
    assert len(snap.ranges) == 1    # just the record


def test_record_behind_unmapped_memory_skips_fields():
    mem = UserMemory()
    snap = Snapshotter(RECORD_TABLE, COPY).snapshot(
        mem, 1, ctx(209, 0, 0, 0x1000))
    assert snap.fault_markers == [(0x1000, 16)]


def test_wp_snapshot_holds_a_shared_page_once():
    # the record and the buffer it points to share a page: one
    # snapshot, one hold, so one release frees it
    mem = UserMemory()
    mem.map_region(0x1000, PAGE_SIZE)
    mem.write(0x1000, (0x1100).to_bytes(8, "little"))
    snapper = Snapshotter(RECORD_TABLE, WRITE_PROTECT)
    snap = snapper.snapshot(mem, 1, ctx(209, 0, 0, 0x1000))
    assert len(snap.ranges) == 2
    assert mem.write(0x1100, b"B") == WriteStatus.STALL
    snapper.release(mem, snap)
    assert mem.write(0x1100, b"B") == WriteStatus.OK


def test_context_type_round_trip():
    # snapshotting consumes the same context objects the vm sees
    c = ctx(1, 3, 0x1000, 64)
    assert isinstance(c, SyscallContext)
    assert c.args[1] == 0x1000
