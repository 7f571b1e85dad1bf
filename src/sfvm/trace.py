"""Workload traces: what the simulated applications do.

A trace is JSON lines, one event per line.  Root processes are spawn
events without a parent task; they must come first and are processed
as setup before any scheduling happens.  Every other event carries a
"task" field and goes into that task's queue; the scheduler then picks
which task advances next, which is where interleavings come from.  A
child's spawn event sits in the *parent's* queue (the parent performs
the clone); events of the child itself queue under the child's id and
become runnable once it exists.

Any event may carry "dt_ns", which advances the global clock before
the event is processed.  Time is data here, not wall clock, so runs
are reproducible.  The clock is 64 bits wide, so the sum of every
dt_ns stays below 2**64, and a uid is 32 bits wide.  A restore may set
the clock to any u64 a checkpoint recorded; later dt_ns then saturate it
at 2**64-1 rather than carry it past.

`EVENTS` declares each event kind's fields in the `vocab` vocabulary,
of the one type `FIELDS` gives each field name.  A `load` carries a hex
program blob or a policy spec (a dict with "generator" plus its
parameters), which keeps traces binary-free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import vocab
from .state import Record
from .vocab import check


def _is_hex(value) -> bool:
    try:
        bytes.fromhex(value)
    except (TypeError, ValueError):
        return False
    return True


# field name -> its type; a field has this one type in every event that
# carries it
FIELDS = {
    **dict.fromkeys(("tid", "task", "nr", "addr", "install", "target",
                     "value_u64"), vocab.INT),
    "uid": vocab.Type("an integer in [0, 2**32)",
                      lambda v: type(v) is int and 0 <= v < 1 << 32),
    "dt_ns": vocab.Type("a non-negative integer",
                        lambda v: type(v) is int and v >= 0),
    **dict.fromkeys(("handle", "id"), vocab.Type(
        "an integer or a string", lambda v: type(v) in (int, str))),
    "caps": vocab.STRS,
    "args": vocab.Type("up to six integers", lambda v: type(v) is list
                       and len(v) <= 6 and all(type(a) is int for a in v)),
    **dict.fromkeys(("nnp", "dumpable", "value"), vocab.BOOL),
    "map": vocab.STR,
    "policy": vocab.OBJECT,
    **dict.fromkeys(("program_hex", "data_hex", "key_hex", "value_hex",
                     "blob_hex"), vocab.Type("hex", _is_hex, "is not hex")),
    "event": vocab.STR,
}


def _event(kind: str, required: str, optional: str) -> vocab.Shape:
    return vocab.shape(
        FIELDS, required, f"event dt_ns {optional}",
        unknown="line {where}: " + kind + " event has unknown field {key!r}",
        missing="line {where}: " + kind + " event is missing {key!r}",
        wrong="line {where}: {key} {told}")


# event kind -> its shape, from the fields it requires ("a|b": either, or
# both) and the others it may carry; every event carries "event" and may
# carry "dt_ns"
EVENTS = {kind: _event(kind, *fields) for kind, fields in {
    "spawn":         ("tid", "task uid caps nnp dumpable"),
    "spawn_thread":  ("task tid", ""),
    "set_nnp":       ("task", ""),
    "set_dumpable":  ("task value", ""),
    "set_caps":      ("task caps", ""),
    "new_userns":    ("task", ""),
    "load":          ("task handle program_hex|policy", ""),
    "install":       ("task handle", ""),
    "syscall_enter": ("task nr", "args addr"),
    "syscall_exit":  ("task", ""),
    "mem_write":     ("task addr data_hex|value_u64", ""),
    "map_update":    ("task install map key_hex value_hex", "target"),
    "phase_marker":  ("task nr", "args addr"),
    "checkpoint":    ("task id", ""),
    "restore":       ("task id|blob_hex", ""),
}.items()}


class TraceError(ValueError):
    pass


class TraceEvent(Record):
    """One event of a trace: its kind, line, time step and other fields."""
    __slots__ = ("kind", "line", "dt_ns", "fields")

    @property
    def task(self):
        return self.fields.get("task")

    def __getitem__(self, key):
        return self.fields[key]

    def get(self, key, default=None):
        return self.fields.get(key, default)


@dataclass
class Trace:
    setup: list          # parentless spawns, in file order
    queues: dict         # tid -> list of TraceEvent
    events: list         # everything, in file order

    @property
    def tids(self):
        return sorted(self.queues)


def parse_trace(text: str) -> Trace:
    """Parse and statically validate a JSON-lines trace."""
    events = []
    clock = 0       # every schedule ends at this sum: the u64 clock holds it
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"line {line_no}: bad JSON ({exc.msg})") from None
        if type(raw) is not dict:
            raise TraceError(f"line {line_no}: event must be a JSON object")
        kind = raw.get("event")
        shape = EVENTS.get(kind) if type(kind) is str else None
        if shape is None:
            raise TraceError(f"line {line_no}: unknown event kind {kind!r}")
        check(raw, shape, line_no, TraceError)
        fields = dict(raw)
        del fields["event"]
        dt_ns = fields.pop("dt_ns", 0)
        clock += dt_ns
        if clock >= 1 << 64:
            raise TraceError(f"line {line_no}: dt_ns takes the clock to "
                             f"2**64 ns or past it")
        events.append(TraceEvent(kind, line_no, dt_ns, fields))

    setup = []
    queues: dict[int, list] = {}
    seen_tids: set[int] = set()
    for ev in events:
        if ev.kind == "spawn" and ev.task is None:
            if queues:
                raise TraceError(
                    f"line {ev.line}: parentless spawns must lead the trace")
            setup.append(ev)
        else:
            queues.setdefault(ev.task, []).append(ev)
        if ev.kind in ("spawn", "spawn_thread"):
            tid = ev["tid"]
            if tid in seen_tids:
                raise TraceError(f"line {ev.line}: task {tid} spawned twice")
            seen_tids.add(tid)

    for tid, queue in queues.items():
        if tid not in seen_tids:
            raise TraceError(f"task {tid} has events but is never spawned")
        depth = 0
        for ev in queue:
            if ev.kind == "syscall_enter":
                if depth:
                    raise TraceError(
                        f"line {ev.line}: task {tid} enters a syscall "
                        f"while one is already open")
                depth = 1
            elif ev.kind == "syscall_exit":
                if not depth:
                    raise TraceError(
                        f"line {ev.line}: task {tid} exits a syscall "
                        f"it never entered")
                depth = 0
    for tid in seen_tids:
        queues.setdefault(tid, [])
    return Trace(setup, queues, events)


def load_trace(path) -> Trace:
    with open(path, encoding="utf-8") as fh:
        return parse_trace(fh.read())

