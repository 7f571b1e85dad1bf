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

`EVENTS` below gives each event kind its fields and `FIELDS` each field
its type.  A `load` carries a hex program blob or a policy spec (a dict
with "generator" plus its parameters), which keeps traces binary-free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

# event kind -> the fields it requires ("a|b": either, or both) and the
# others it may carry; any event may carry dt_ns, and unknown fields pass
EVENTS = {
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
}
_REQUIRES = {kind: [names.split("|") for names in required.split()]
             for kind, (required, _) in EVENTS.items()}


def _is_int(value) -> bool:
    return type(value) is int


def _is_hex(value) -> bool:
    try:
        bytes.fromhex(value)
    except (TypeError, ValueError):
        return False
    return True


# field name -> (the test its value passes, what a value failing it is
# told); a field has this one type in every event that carries it
FIELDS = {
    **dict.fromkeys(("tid", "task", "nr", "addr", "install", "target",
                     "value_u64"), (_is_int, "must be an integer")),
    "uid": (lambda v: _is_int(v) and 0 <= v < 1 << 32,
            "must be an integer in [0, 2**32)"),
    "dt_ns": (lambda v: _is_int(v) and v >= 0,
              "must be a non-negative integer"),
    **dict.fromkeys(("handle", "id"), (lambda v: type(v) in (int, str),
                                       "must be an integer or a string")),
    "caps": (lambda v: type(v) is list and all(type(c) is str for c in v),
             "must be a list of strings"),
    "args": (lambda v: type(v) is list and len(v) <= 6
             and all(map(_is_int, v)), "must be up to six integers"),
    **dict.fromkeys(("nnp", "dumpable", "value"),
                    (lambda v: type(v) is bool, "must be true or false")),
    "map": (lambda v: type(v) is str, "must be a string"),
    "policy": (lambda v: type(v) is dict, "must be an object"),
    **dict.fromkeys(("program_hex", "data_hex", "key_hex", "value_hex",
                     "blob_hex"), (_is_hex, "is not hex")),
}


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
    if not isinstance(kind, str) or kind not in EVENTS:
        raise TraceError(f"line {line}: unknown event kind {kind!r}")
    for names in _REQUIRES[kind]:
        if raw.keys().isdisjoint(names):
            raise TraceError(f"line {line}: {kind} event is missing "
                             f"{' or '.join(names)!r}")
    for key, value in raw.items():
        check = FIELDS.get(key)
        if check is not None and not check[0](value):
            raise TraceError(f"line {line}: {key} {check[1]}")
    fields = {k: v for k, v in raw.items() if k not in ("event", "dt_ns")}
    return TraceEvent(kind, line, raw.get("dt_ns", 0), fields)


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
        events.append(_check_event(raw, line_no))
        clock += events[-1].dt_ns
        if clock >= 1 << 64:
            raise TraceError(f"line {line_no}: dt_ns takes the clock to "
                             f"2**64 ns or past it")

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


def event_to_json(ev: TraceEvent) -> dict:
    out = {"event": ev.kind}
    if ev.dt_ns:
        out["dt_ns"] = ev.dt_ns
    out.update(ev.fields)
    return out
