"""Trace scheduler, decision log, and interleaving exploration.

One scheduling step advances one task by one unit of work: consuming
its next trace event, or resuming work that blocked earlier (a filter
waiting on another syscall, a fault-service boundary, a store stalled
on a write-protected page).  Which task runs next comes from a seeded
generator by default, or from an explicit schedule when replaying, so
every run is reproducible from (trace, seed) or (trace, schedule).

The run produces a decision log: one entry per verdict plus entries
for syscall completion, stalled stores, events skipped because their
task was killed, engine-level errors, and deadlock.  The log's SHA-256
over canonical JSON is the run's identity; two runs agree iff their
digests do.

`explore_graph` explores every schedule into a graph.  It steps one
simulator in place while a single task can run, and copies the world
only at branch points, where two or more can: there the last runnable
task steps the original and the others step copies.  Each `Node` holds
the steps and log entries that lead into it and one child per runnable
task.  States are deduplicated by fingerprint: when two prefixes reach
indistinguishable branch points, their nodes share one child tuple,
explored once.  Only a branch point that a second schedule could reach
is fingerprinted: one where two or more tasks have moved since the
first branch point, which every schedule passes through.  Copy and
fingerprint are generated per class from the field declarations (see
`state`).  Exploration refuses traces above a step bound rather than
silently running for hours.

The graph is read without unrolling it: `count_schedules` counts the
schedules, or those along which a scanner folded over the log never
trips, by dynamic programming over the shared child tuples, and the
`Graph` carries the first count.  `schedules` enumerates the
per-schedule logs one at a time, and `explore_interleavings` lists them.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import NamedTuple

from .engine import Engine, EngineConfig, EngineError
from .isa import AUDIT_ARCH_X86_64, U64_MASK, SyscallContext, decode_program
from .policies import build_program
from .snapshot import DescriptorTable
from .state import stateful
from .trace import Trace, TraceError
from .usermem import WriteStatus
from .vm import FaultServiceBlock, WaitBlock


class ExplorationLimit(RuntimeError):
    pass


def log_digest(entries) -> str:
    blob = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _build_ctx(ev) -> SyscallContext:
    return SyscallContext(nr=ev["nr"], arch=AUDIT_ARCH_X86_64,
                          calling_address=ev.get("addr", 0),
                          args=(*ev.get("args", ()), 0, 0, 0, 0, 0, 0)[:6])


@stateful(shared="trace", owned="engine",
          value="replay pos in_progress blocked handle_ids "
                "checkpoints finished",
          untracked={"rng": "exploration picks every task itself",
                     "entries": "the log of the way here, not of what follows",
                     "schedule": "the way here, not where it leads"})
class Simulator:
    def __init__(self, trace: Trace, config: EngineConfig | None = None,
                 descriptors: DescriptorTable | None = None,
                 seed: int = 0, schedule=None):
        self.trace = trace
        self.engine = Engine(config, descriptors)
        self.rng = random.Random(seed)
        self.replay = list(schedule) if schedule is not None else None
        self.pos = {tid: 0 for tid in trace.queues}
        self.in_progress: set[int] = set()      # undecided syscall entries
        self.blocked: dict[int, tuple] = {}     # tid -> wake condition
        self.entries: list[dict] = []
        self.schedule: list[int] = []
        self.handle_ids: dict[tuple, int] = {}
        self.checkpoints: dict[str, bytes] = {}
        self.finished = False
        for ev in trace.setup:
            self._apply_clock(ev)
            self.engine.spawn(tid=ev["tid"], uid=ev.get("uid"),
                              caps=ev.get("caps"), nnp=ev.get("nnp"),
                              dumpable=ev.get("dumpable"))

    # -- scheduling -------------------------------------------------------

    def _has_work(self, tid: int) -> bool:
        return tid in self.in_progress or tid in self.blocked \
            or self.pos[tid] < len(self.trace.queues[tid])

    def _awake(self, tid: int) -> bool:
        cond = self.blocked.get(tid)
        if cond is None:
            return True
        kind = cond[0]
        if kind == "wait":
            # the helper's own test: the task's registrations don't count
            registered = self.engine.tasks[tid].pending.registered
            return not self.engine.in_flight.others_inside(cond[1],
                                                           registered)
        if kind == "stall":
            mem = self.engine.task(tid).address_space
            return not mem.is_protected(cond[1], cond[2])
        return True   # fault service: runnable at the next boundary

    def runnable_tasks(self) -> list[int]:
        out = []
        for tid in sorted(self.trace.queues):
            task = self.engine.tasks.get(tid)
            if task is None or not task.alive:
                continue
            if self._has_work(tid) and self._awake(tid):
                out.append(tid)
        return out

    def pending_tasks(self) -> dict[int, str]:
        """Tasks with work left, and why each cannot run."""
        out = {}
        for tid in sorted(self.trace.queues):
            if not self._has_work(tid):
                continue
            task = self.engine.tasks.get(tid)
            if task is None:
                out[tid] = "never spawned"
            elif not task.alive:
                out[tid] = "killed"
            elif not self._awake(tid):
                cond = self.blocked[tid]
                if cond[0] == "wait":
                    out[tid] = f"waiting for syscall {cond[1]} to drain"
                else:
                    out[tid] = f"stalled store at {cond[1]:#x}"
        return out

    def run(self):
        replay_ran_dry = False
        while True:
            runnable = self.runnable_tasks()
            if not runnable:
                break
            if self.replay is not None:
                if not self.replay:
                    replay_ran_dry = True
                    break
                tid = self.replay.pop(0)
                if tid not in runnable:
                    raise TraceError(
                        f"schedule picks task {tid}, which is not runnable "
                        f"(runnable: {runnable})")
            else:
                tid = self.rng.choice(runnable)
            self.step(tid)
        if not replay_ran_dry:
            self.finalize()
        return self

    def finalize(self):
        """Record a deadlock if work remains with nothing runnable.
        Killed tasks drain eagerly, so anything left is a genuine wait
        cycle or a spawn that never got to happen."""
        if self.finished:
            return
        self.finished = True
        stuck = self.pending_tasks()
        if stuck:
            self.entries.append({
                "kind": "deadlock",
                "blocked": {str(t): r for t, r in sorted(stuck.items())},
            })

    # -- one unit of work ---------------------------------------------------

    def step(self, tid: int):
        self.schedule.append(tid)
        if tid in self.in_progress:
            self._resume_enter(tid)
            return
        cond = self.blocked.pop(tid, None)
        queue = self.trace.queues[tid]
        ev = queue[self.pos[tid]]
        if cond is not None and cond[0] == "stall":
            self._do_mem_write(tid, ev, first_attempt=False)
            return
        self._apply_clock(ev)
        handler = getattr(self, "_ev_" + ev.kind)
        try:
            handler(tid, ev)
        except EngineError as exc:
            self.entries.append({"kind": "error", "task": tid,
                                 "event": ev.kind, "error": str(exc)})
            self._consume(tid)

    def _apply_clock(self, ev):
        # a restore may have set any u64 clock: time saturates there,
        # so it stays a u64 and never moves back
        if ev.dt_ns:
            self.engine.clock_ns = min(self.engine.clock_ns + ev.dt_ns,
                                       U64_MASK)

    def _consume(self, tid: int):
        self.pos[tid] += 1

    # -- event handlers -------------------------------------------------------

    def _ev_spawn(self, tid: int, ev):
        self.engine.spawn(parent=tid, tid=ev["tid"], uid=ev.get("uid"),
                          caps=ev.get("caps"), nnp=ev.get("nnp"),
                          dumpable=ev.get("dumpable"))
        self._consume(tid)

    def _ev_spawn_thread(self, tid: int, ev):
        self.engine.spawn_thread(tid, ev["tid"])
        self._consume(tid)

    def _ev_set_nnp(self, tid: int, ev):
        self.engine.set_nnp(tid)
        self._consume(tid)

    def _ev_set_dumpable(self, tid: int, ev):
        self.engine.set_dumpable(tid, ev["value"])
        self._consume(tid)

    def _ev_set_caps(self, tid: int, ev):
        self.engine.set_caps(tid, ev["caps"])
        self._consume(tid)

    def _ev_new_userns(self, tid: int, ev):
        self.engine.new_userns(tid)
        self._consume(tid)

    def _ev_load(self, tid: int, ev):
        try:
            if "program_hex" in ev.fields:
                program = decode_program(bytes.fromhex(ev["program_hex"]))
            else:
                program = build_program(ev["policy"])
        # a ProgramFormatError or a PolicySpecError
        except ValueError as exc:
            raise EngineError(f"cannot load: {exc!r}") from None
        handle = self.engine.load(tid, program)
        self.handle_ids[(tid, ev["handle"])] = handle
        self._consume(tid)

    def _ev_install(self, tid: int, ev):
        key = (tid, ev["handle"])
        if key not in self.handle_ids:
            raise EngineError(f"task {tid} never loaded handle "
                              f"{ev['handle']!r}")
        self.engine.install(tid, self.handle_ids.pop(key))
        self._consume(tid)

    def _ev_syscall_enter(self, tid: int, ev):
        self.engine.start_syscall(tid, _build_ctx(ev))
        self.in_progress.add(tid)
        self._resume_enter(tid)

    def _resume_enter(self, tid: int):
        if self.blocked.pop(tid, (None,))[0] == "service":
            self.engine.service_fault(tid)
        status, payload = self.engine.resume_syscall(tid)
        if status == "blocked":
            if isinstance(payload, WaitBlock):
                self.blocked[tid] = ("wait", payload.target_nr)
            elif isinstance(payload, FaultServiceBlock):
                self.blocked[tid] = ("service",)
            else:
                raise EngineError(f"unknown block {payload!r}")
            return
        self.in_progress.discard(tid)
        self._consume(tid)
        self._log_decision(payload)

    def _log_decision(self, record: dict, **marker):
        self.entries.append({"kind": "decision",
                             "clock": self.engine.clock_ns,
                             **marker, **record})
        for victim in record.get("killed", ()):
            self._drain(victim)

    def _ev_syscall_exit(self, tid: int, ev):
        record = self.engine.syscall_exit(tid)
        if record is not None:
            self.entries.append({"kind": "exit", **record})
        self._consume(tid)

    def _ev_phase_marker(self, tid: int, ev):
        record = self.engine.run_syscall(tid, _build_ctx(ev))
        self._log_decision(record, marker=True)
        if self.engine.tasks[tid].alive:
            if record["action"] in ("allow", "log"):
                exit_rec = self.engine.syscall_exit(tid)
                self.entries.append({"kind": "exit", **exit_rec})
            else:
                self.engine.tasks[tid].denied_enter = False
        self._consume(tid)

    def _ev_mem_write(self, tid: int, ev):
        self._do_mem_write(tid, ev, first_attempt=True)

    def _do_mem_write(self, tid: int, ev, first_attempt: bool):
        if "data_hex" in ev.fields:
            data = bytes.fromhex(ev["data_hex"])
        else:
            data = (ev["value_u64"] & (2 ** 64 - 1)).to_bytes(8, "little")
        mem = self.engine.task(tid).address_space
        status = mem.write(ev["addr"], data)
        if status == WriteStatus.STALL:
            if first_attempt:
                self.entries.append({"kind": "stall", "task": tid,
                                     "addr": ev["addr"]})
            self.blocked[tid] = ("stall", ev["addr"], len(data))
            return
        if status != WriteStatus.OK:
            self.entries.append({"kind": "error", "task": tid,
                                 "event": "mem_write",
                                 "error": f"write {status.value} at "
                                          f"{ev['addr']:#x}"})
        self._consume(tid)

    def _ev_map_update(self, tid: int, ev):
        rc = self.engine.update_map_external(
            tid, ev.get("target", tid), ev["install"], ev["map"],
            bytes.fromhex(ev["key_hex"]), bytes.fromhex(ev["value_hex"]))
        if rc != 0:
            self.entries.append({"kind": "error", "task": tid,
                                 "event": "map_update",
                                 "error": f"map update failed ({rc})"})
        self._consume(tid)

    def _ev_checkpoint(self, tid: int, ev):
        self.checkpoints[ev["id"]] = self.engine.checkpoint(tid)
        self._consume(tid)

    def _ev_restore(self, tid: int, ev):
        if "blob_hex" in ev.fields:
            blob = bytes.fromhex(ev["blob_hex"])
        else:
            blob = self.checkpoints.get(ev["id"])
            if blob is None:
                raise EngineError(f"no checkpoint named {ev['id']!r}")
        self.engine.restore(tid, blob)
        self._consume(tid)

    def _drain(self, tid: int):
        """A killed (or never-to-exist) task skips its remaining events,
        including the existence of any children it would have created."""
        self.in_progress.discard(tid)
        self.blocked.pop(tid, None)
        queue = self.trace.queues.get(tid, [])
        while self.pos.get(tid, len(queue)) < len(queue):
            ev = queue[self.pos[tid]]
            self.entries.append({"kind": "skipped", "task": tid,
                                 "event": ev.kind})
            self.pos[tid] += 1
            if ev.kind in ("spawn", "spawn_thread") \
                    and ev["tid"] not in self.engine.tasks:
                self._drain(ev["tid"])

    # -- results ---------------------------------------------------------

    def digest(self) -> str:
        return log_digest(self.entries)

    def metrics(self) -> dict:
        by_action: dict[str, int] = {}
        steps = helpers = 0
        for e in self.entries:
            if e["kind"] == "decision":
                by_action[e["action"]] = by_action.get(e["action"], 0) + 1
                steps += e["steps"]
                helpers += e["helper_calls"]
        return {
            "decisions": sum(by_action.values()),
            "by_action": dict(sorted(by_action.items())),
            "steps": steps,
            "helper_calls": helpers,
            "deadlocked": any(e["kind"] == "deadlock" for e in self.entries),
            "clock_ns": self.engine.clock_ns,
            "schedule": list(self.schedule),
            "digest": self.digest(),
        }


MAX_EXPLORE_STEPS = 14


class Node(NamedTuple):
    """A state of the explored graph, and the way into it from the branch
    point above: the tasks stepped there, in order, and the log entries
    those steps append (at the end of a schedule, with `finalize`'s).  It
    holds one child per task runnable in that state, by ascending id, and
    none where the schedule ends.  Nodes whose states key equal share
    one child tuple."""
    steps: tuple
    entries: list
    children: tuple


class Graph(NamedTuple):
    """The deduplicated graph of one exploration: its root node, and the
    number of schedules through it."""
    root: Node
    schedules: int


def explore_graph(trace: Trace, config: EngineConfig | None = None,
                  descriptors: DescriptorTable | None = None,
                  max_steps: int = MAX_EXPLORE_STEPS) -> Graph:
    """The deduplicated graph of every schedule of `trace`.

    A state where one task can run is stepped in place, neither copied
    nor keyed.  A branch point with k runnable tasks is keyed once and,
    unless the memo already holds its children, copied k-1 times; its
    last task steps the original.  A branch point is keyed only after
    two or more tasks have moved since the first branch point: while a
    single task has moved, only one schedule leads there, so no other
    can hit it in the memo, and it is copied without a key.  Finished
    states are never keyed.

    Refuses traces whose scheduling depth exceeds `max_steps`: the
    schedule space is exponential and this is a verification aid, not
    a model checker for long traces.
    """
    total = sum(len(q) for q in trace.queues.values())
    if total > max_steps:
        raise ExplorationLimit(
            f"trace has {total} schedulable events; exploration is capped "
            f"at {max_steps} (pass max_steps to raise the cap)")

    base = Simulator(trace, config=config, descriptors=descriptors)
    base.rng = None     # exploration picks every task itself
    memo: dict = {}

    def node(sim: Simulator, first: int | None = None,
             moved: frozenset = frozenset()) -> Node:
        # the node reached from `sim` after `first` steps if given; `sim`
        # is stepped in place, since nothing reads a state again once it
        # is keyed and its other children are copied.  `moved` holds the
        # tasks that stepped since the first branch point, until it
        # holds two.
        mark, start = len(sim.schedule), len(sim.entries)
        if first is not None:
            sim.step(first)
        runnable = sim.runnable_tasks()
        while len(runnable) == 1:
            sim.step(runnable[0])
            runnable = sim.runnable_tasks()
        path = tuple(sim.schedule[mark:])
        if not runnable:
            sim.finalize()
            return Node(path, sim.entries[start:], ())
        head = sim.entries[start:]
        if first is not None and len(moved) < 2:
            moved = moved.union(path)
        key = sim.state_key() if len(moved) > 1 else None
        children = memo.get(key)    # None is never a key there
        if children is None:
            children = tuple(
                node(sim if tid == runnable[-1] else sim.__deepcopy__({}),
                     tid, moved)
                for tid in runnable)
            if key is not None:
                memo[key] = children
        return Node(path, head, children)

    root = node(base)
    return Graph(root, count_schedules(root))


def count_schedules(root: Node, step=None, start=None) -> int:
    """The schedules below `root` along whose log `step` never returns
    None, folded from `start` over each entry (every schedule without a
    `step`).  Dynamic programming over the shared child tuples: `step`'s
    state is not part of a state key, so a count is kept per child tuple
    and scanner state, never per tuple alone."""
    memo: dict = {}

    def below(node: Node, state) -> int:
        if step is not None:
            for entry in node.entries:
                state = step(state, entry)
                if state is None:
                    return 0
        children = node.children
        if not children:
            return 1
        key = (id(children), state)     # `root` keeps every tuple alive
        count = memo.get(key)
        if count is None:
            count = memo[key] = sum([below(child, state)
                                     for child in children])
        return count

    return below(root, start)


def schedules(graph: Graph):
    """Every schedule of `graph`, one at a time, as (schedule, entries)
    pairs in depth-first order with children taken by ascending task id."""
    def walk(node: Node, steps: tuple, entries: list):
        steps, entries = steps + node.steps, entries + node.entries
        if not node.children:
            yield list(steps), entries
        for child in node.children:
            yield from walk(child, steps, entries)

    return walk(graph.root, (), [])


def explore_interleavings(trace: Trace, config: EngineConfig | None = None,
                          descriptors: DescriptorTable | None = None,
                          max_steps: int = MAX_EXPLORE_STEPS) -> list[tuple]:
    """Every schedule of `trace`, as (schedule, entries) pairs, in
    depth-first order with runnable tasks taken by ascending id: the
    per-schedule logs of `explore_graph`'s graph, enumerated on demand.
    A check on every schedule is cheaper on the graph itself, through
    `count_schedules`."""
    return list(schedules(explore_graph(trace, config, descriptors,
                                        max_steps)))
