"""Trace parsing and static validation."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from sfvm.sim import Simulator
from sfvm.trace import TraceError, TraceEvent, load_trace, parse_trace

from .helpers import (
    bundled_descriptors,
    decisions,
    every_field_trace,
    reference_copy,
    reference_key,
    trace_text,
)


def test_queues_split_by_task():
    trace = parse_trace(trace_text([
        {"event": "spawn", "tid": 1},
        {"event": "spawn", "tid": 2},
        {"event": "syscall_enter", "task": 1, "nr": 0},
        {"event": "syscall_exit", "task": 1},
        {"event": "spawn", "task": 1, "tid": 3},
        {"event": "syscall_enter", "task": 3, "nr": 1, "args": [1, 2]},
        {"event": "syscall_exit", "task": 3},
    ]))
    assert len(trace.setup) == 2
    assert trace.tids == [1, 2, 3]
    assert [ev.kind for ev in trace.queues[1]] == \
        ["syscall_enter", "syscall_exit", "spawn"]
    assert trace.queues[2] == []          # spawned but idle
    assert len(trace.queues[3]) == 2
    # the child's spawn waits in the parent's queue
    assert trace.queues[1][2]["tid"] == 3


def test_comments_and_blank_lines_are_skipped():
    text = (
        "# a comment\n"
        "\n"
        '{"event": "spawn", "tid": 1}\n'
        "   \n"
        '{"event": "set_nnp", "task": 1}\n')
    trace = parse_trace(text)
    assert len(trace.events) == 2


def test_dt_ns_is_preserved():
    trace = parse_trace(trace_text([
        {"event": "spawn", "tid": 1},
        {"event": "syscall_enter", "task": 1, "nr": 0, "dt_ns": 250},
        {"event": "syscall_exit", "task": 1},
    ]))
    assert trace.queues[1][0].dt_ns == 250
    assert trace.queues[1][1].dt_ns == 0


@pytest.mark.parametrize("line,fragment", [
    ("not json", "bad JSON"),
    ('["event"]', "must be a JSON object"),
    ('{"event": "reboot", "task": 1}', "unknown event kind"),
    ('{"event": "syscall_enter", "task": 1}', "missing 'nr'"),
    ('{"event": "spawn"}', "missing 'tid'"),
    ('{"event": "load", "task": 1, "handle": 1}',
     "program_hex or policy"),
    ('{"event": "mem_write", "task": 1, "addr": 4096}',
     "data_hex or value_u64"),
    ('{"event": "restore", "task": 1}', "id or blob_hex"),
    ('{"event": "syscall_enter", "task": 1, "nr": 0, "dt_ns": -5}',
     "non-negative"),
    ('{"event": "syscall_enter", "task": 1, "nr": 0, "dt_ns": 1.5}',
     "non-negative"),
    ('{"event": "syscall_enter", "task": 1, "nr": 0, '
     '"args": [1, 2, 3, 4, 5, 6, 7]}', "six integers"),
    ('{"event": "syscall_enter", "task": 1, "nr": 0, "args": ["x"]}',
     "six integers"),
    ('{"event": "map_update", "task": 1, "install": "0", "map": "m", '
     '"key_hex": "00", "value_hex": "00"}', "install must be an integer"),
    ('{"event": "map_update", "task": 1, "install": 0, "map": "m", '
     '"key_hex": "0g", "value_hex": "00"}', "key_hex is not hex"),
    ('{"event": "mem_write", "task": 1, "addr": 4096, "data_hex": "abc"}',
     "data_hex is not hex"),
    ('{"event": "mem_write", "task": 1, "addr": "0x1000", "value_u64": 1}',
     "addr must be an integer"),
    ('{"event": "load", "task": 1, "handle": 1, "program_hex": 7}',
     "program_hex is not hex"),
    ('{"event": "restore", "task": 1, "blob_hex": "zz"}',
     "blob_hex is not hex"),
    ('{"event": "set_caps", "task": 1, "caps": 5}',
     "caps must be a list of strings"),
    ('{"event": "spawn", "task": 1, "tid": 2, "caps": [5]}',
     "caps must be a list of strings"),
    ('{"event": "syscall_exit", "task": true}', "task must be an integer"),
    ('{"event": "install", "task": 1, "handle": [1]}',
     "handle must be an integer or a string"),
    ('{"event": "install", "task": 1, "handle": 1.5}',
     "handle must be an integer or a string"),
    ('{"event": "install", "task": 1, "handle": false}',
     "handle must be an integer or a string"),
    ('{"event": "phase_marker", "task": 1, "nr": 0, "args": "abc"}',
     "line 2: args must be up to six integers"),
    ('{"event": "checkpoint", "task": 1, "id": [1]}',
     "line 2: id must be an integer or a string"),
    ('{"event": "restore", "task": 1, "id": {"a": 1}}',
     "line 2: id must be an integer or a string"),
    ('{"event": "load", "task": 1, "handle": 1, "policy": "allow_all"}',
     "line 2: policy must be an object"),
    ('{"event": "spawn", "task": 1, "tid": 2, "uid": "root"}',
     "line 2: uid must be an integer"),
    ('{"event": "spawn", "task": 1, "tid": 2, "uid": -1}',
     r"line 2: uid must be an integer in \[0, 2\*\*32\)"),
    ('{"event": "spawn", "task": 1, "tid": 2, "uid": 4294967296}',
     r"line 2: uid must be an integer in \[0, 2\*\*32\)"),
    ('{"event": "spawn", "task": 1, "tid": 2, "nnp": "false"}',
     "line 2: nnp must be true or false"),
    ('{"event": "spawn", "task": 1, "tid": 2, "dumpable": "false"}',
     "line 2: dumpable must be true or false"),
    ('{"event": "set_dumpable", "task": 1, "value": 0}',
     "line 2: value must be true or false"),
    ('{"event": "map_update", "task": 1, "install": 0, "map": 5, '
     '"key_hex": "00", "value_hex": "00"}', "line 2: map must be a string"),
    ('{"event": ["spawn"], "tid": 2}', "line 2: unknown event kind"),
    ('{"event": "syscall_exit", "task": 1, "dt_ns": true}',
     "line 2: dt_ns must be a non-negative integer"),
    ('{"event": "syscall_enter", "task": 1, "nr": 1, "arg": [5]}',
     "^line 2: syscall_enter event has unknown field 'arg'$"),
    ('{"event": "syscall_exit", "task": 1, "nr": 1}',
     "^line 2: syscall_exit event has unknown field 'nr'$"),
])
def test_event_validation(line, fragment):
    with pytest.raises(TraceError, match=fragment):
        parse_trace('{"event": "spawn", "tid": 1}\n' + line)


def test_the_clock_must_stay_below_two_to_the_64():
    head = '{"event": "spawn", "tid": 1, "uid": 4294967295}\n'
    enter = '{"event": "syscall_enter", "task": 1, "nr": 0, "dt_ns": %d}\n'
    exit_ = '{"event": "syscall_exit", "task": 1, "dt_ns": %d}\n'
    trace = parse_trace(head + enter % (2 ** 63) + exit_ % (2 ** 63 - 1))
    assert sum(ev.dt_ns for ev in trace.events) == 2 ** 64 - 1
    with pytest.raises(TraceError, match=r"^line 3: dt_ns takes the clock"):
        parse_trace(head + enter % (2 ** 63) + exit_ % (2 ** 63))
    with pytest.raises(TraceError, match=r"^line 2: dt_ns takes the clock"):
        parse_trace(head + enter % (2 ** 64))


def test_every_field_trace_runs_clean():
    events = every_field_trace()
    sim = Simulator(parse_trace(trace_text(events)),
                    descriptors=bundled_descriptors()).run()
    assert [e for e in sim.entries if e["kind"] not in ("decision", "exit")
            ] == []
    assert len(decisions(sim.entries)) == 3


def test_error_reports_the_offending_line():
    events = [
        {"event": "spawn", "tid": 1},
        {"event": "set_nnp", "task": 1},
        {"event": "bogus", "task": 1},
    ]
    with pytest.raises(TraceError, match="line 3"):
        parse_trace(trace_text(events))


def test_parentless_spawns_must_lead():
    with pytest.raises(TraceError, match="must lead"):
        parse_trace(trace_text([
            {"event": "spawn", "tid": 1},
            {"event": "set_nnp", "task": 1},
            {"event": "spawn", "tid": 2},
        ]))


def test_duplicate_tids_are_rejected():
    with pytest.raises(TraceError, match="spawned twice"):
        parse_trace(trace_text([
            {"event": "spawn", "tid": 1},
            {"event": "spawn", "tid": 1},
        ]))
    with pytest.raises(TraceError, match="spawned twice"):
        parse_trace(trace_text([
            {"event": "spawn", "tid": 1},
            {"event": "spawn", "task": 1, "tid": 1},
        ]))


def test_orphan_events_are_rejected():
    with pytest.raises(TraceError, match="never spawned"):
        parse_trace(trace_text([
            {"event": "spawn", "tid": 1},
            {"event": "set_nnp", "task": 99},
        ]))


def test_syscall_nesting_is_checked_per_task():
    with pytest.raises(TraceError, match="already open"):
        parse_trace(trace_text([
            {"event": "spawn", "tid": 1},
            {"event": "syscall_enter", "task": 1, "nr": 0},
            {"event": "syscall_enter", "task": 1, "nr": 1},
        ]))
    with pytest.raises(TraceError, match="never entered"):
        parse_trace(trace_text([
            {"event": "spawn", "tid": 1},
            {"event": "syscall_exit", "task": 1},
        ]))
    # an open syscall at end of trace is fine; interleaved tasks nest freely
    parse_trace(trace_text([
        {"event": "spawn", "tid": 1},
        {"event": "spawn", "tid": 2},
        {"event": "syscall_enter", "task": 1, "nr": 0},
        {"event": "syscall_enter", "task": 2, "nr": 0},
        {"event": "syscall_exit", "task": 2},
    ]))


def test_trace_events_compare_and_print_like_frozen_dataclasses():
    old = dataclasses.make_dataclass("TraceEvent", TraceEvent.__slots__,
                                     frozen=True)
    samples = [("spawn", 1, 0, {"tid": 1}), ("spawn", 2, 0, {"tid": 1}),
               ("syscall_enter", 3, 5, {"task": 1, "nr": 0}),
               ("syscall_enter", 3, 5, {"task": 1, "nr": 1})]
    for a in samples:
        for b in samples:
            assert (TraceEvent(*a) == TraceEvent(*b)) == (old(*a) == old(*b))
        event = TraceEvent(*a)
        assert repr(event) == repr(old(*a))
        assert event != old(*a)
        with pytest.raises(TypeError):    # its fields are a dict
            hash(event)
        for name in TraceEvent.__slots__:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(event, name, 0)
        assert copy.deepcopy(event) == event
        assert pickle.loads(pickle.dumps(event)) == event


def test_parsed_events_key_and_copy_as_the_reference_does():
    # leaves of the world's state, as the frozen dataclasses were: keyed
    # by value, shared by copies (`test_state` checks the world whole)
    trace = parse_trace(trace_text(every_field_trace()))
    for event in trace.events:
        assert reference_key(event, {}, False) is event
        assert reference_copy(event, {}) is event
    sim = Simulator(trace, descriptors=bundled_descriptors())
    assert sim.state_key() == reference_key(sim, {}, True)
    assert copy.deepcopy(sim).trace.events == trace.events


def test_a_trace_file_that_is_not_utf8_is_a_trace_error(tmp_path):
    path = tmp_path / "trace.jsonl"
    # the offset is the file's, past the first buffer's worth of text
    path.write_bytes(b'{"event": "spawn", "tid": 1}\n' * 400 + b"\xff\xfe")
    with pytest.raises(TraceError, match=r"^not UTF-8 text \(byte 11600: "
                                         r"invalid start byte\)$"):
        load_trace(path)
