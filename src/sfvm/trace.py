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
are reproducible.

Event kinds and their fields:

  spawn          tid, [task=parent, uid, caps, nnp, dumpable]
  spawn_thread   task, tid
  set_nnp        task
  set_dumpable   task, value
  set_caps       task, caps
  new_userns     task
  load           task, handle, program_hex | policy
  install        task, handle
  syscall_enter  task, nr, [args, addr]
  syscall_exit   task
  mem_write      task, addr, data_hex | value_u64
  map_update     task, install, map, key_hex, value_hex
  phase_marker   task, nr
  checkpoint     task, id
  restore        task, id | blob_hex

`load` takes either a hex-encoded program blob or a policy generator
spec (a dict with "generator" plus its parameters), so traces can stay
self-contained without embedding binaries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

# event kind -> the fields every event of that kind carries
_REQUIRED = {
    "spawn": ("tid",),
    "spawn_thread": ("task", "tid"),
    "set_nnp": ("task",),
    "set_dumpable": ("task", "value"),
    "set_caps": ("task", "caps"),
    "new_userns": ("task",),
    "load": ("task", "handle"),
    "install": ("task", "handle"),
    "syscall_enter": ("task", "nr"),
    "syscall_exit": ("task",),
    "mem_write": ("task", "addr"),
    "map_update": ("task", "install", "map", "key_hex", "value_hex"),
    "phase_marker": ("task", "nr"),
    "checkpoint": ("task", "id"),
    "restore": ("task",),
}
EVENT_KINDS = frozenset(_REQUIRED)
_INT_FIELDS = {"tid", "task", "nr", "addr", "install", "target", "value_u64"}


class TraceError(ValueError):
    pass


@dataclass(frozen=True)
class TraceEvent:
    kind: str
    line: int
    dt_ns: int = 0
    fields: dict = field(default_factory=dict)

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


def _check_event(raw: dict, line: int) -> TraceEvent:
    if not isinstance(raw, dict):
        raise TraceError(f"line {line}: event must be a JSON object")
    kind = raw.get("event")
    if kind not in EVENT_KINDS:
        raise TraceError(f"line {line}: unknown event kind {kind!r}")
    for key in _REQUIRED[kind]:
        if key not in raw:
            raise TraceError(f"line {line}: {kind} event is missing {key!r}")
    dt = raw.get("dt_ns", 0)
    if not isinstance(dt, int) or dt < 0:
        raise TraceError(f"line {line}: dt_ns must be a non-negative integer")
    if kind == "load" and "program_hex" not in raw and "policy" not in raw:
        raise TraceError(f"line {line}: load needs program_hex or policy")
    if kind == "mem_write" and "data_hex" not in raw and "value_u64" not in raw:
        raise TraceError(f"line {line}: mem_write needs data_hex or value_u64")
    if kind == "restore" and "id" not in raw and "blob_hex" not in raw:
        raise TraceError(f"line {line}: restore needs id or blob_hex")
    if kind == "syscall_enter":
        args = raw.get("args", [])
        if not isinstance(args, list) or len(args) > 6 \
                or not all(isinstance(a, int) for a in args):
            raise TraceError(f"line {line}: args must be up to six integers")
    for key, value in raw.items():
        if key in _INT_FIELDS and type(value) is not int:
            raise TraceError(f"line {line}: {key} must be an integer")
        if key.endswith("_hex"):
            try:
                bytes.fromhex(value)
            except (TypeError, ValueError):
                raise TraceError(f"line {line}: {key} is not hex") from None
        elif key == "handle" and type(value) not in (int, str):
            raise TraceError(f"line {line}: handle must be an integer or a"
                             " string")
        elif key == "caps" and not (isinstance(value, list) and all(
                isinstance(c, str) for c in value)):
            raise TraceError(f"line {line}: caps must be a list of strings")
    fields = {k: v for k, v in raw.items() if k not in ("event", "dt_ns")}
    return TraceEvent(kind, line, dt, fields)


def parse_trace(text: str) -> Trace:
    """Parse and statically validate a JSON-lines trace."""
    events = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"line {line_no}: bad JSON ({exc.msg})") from None
        events.append(_check_event(raw, line_no))

    setup = []
    queues: dict[int, list] = {}
    seen_tids: set[int] = set()
    body_started = False
    for ev in events:
        if ev.kind == "spawn" and ev.task is None:
            if body_started:
                raise TraceError(
                    f"line {ev.line}: parentless spawns must lead the trace")
            tid = ev["tid"]
            if tid in seen_tids:
                raise TraceError(f"line {ev.line}: task {tid} spawned twice")
            seen_tids.add(tid)
            setup.append(ev)
            continue
        body_started = True
        if ev.kind in ("spawn", "spawn_thread"):
            tid = ev["tid"]
            if tid in seen_tids:
                raise TraceError(f"line {ev.line}: task {tid} spawned twice")
            seen_tids.add(tid)
        queues.setdefault(ev.task, []).append(ev)

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


def event_to_json(ev: TraceEvent) -> dict:
    out = {"event": ev.kind}
    if ev.dt_ns:
        out["dt_ns"] = ev.dt_ns
    out.update(ev.fields)
    return out
