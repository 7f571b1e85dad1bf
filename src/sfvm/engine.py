"""Kernel-side mechanics: tasks, attachment, and the syscall path.

The engine owns everything below the trace level.  Tasks carry
credentials, an address space (shared between threads of a process),
and a filter chain.  Attaching a filter is a two-step handshake: `load`
checks and prepares a program, recording the user namespace it was
loaded in, and `install` attaches it to the calling task only if that
namespace still matches, which stops a program vetted under one set of
namespace privileges from being smuggled into another.  `install_classic`
is the one-step legacy path with neither the handshake nor namespace
tracking.

Attachment requires administrative capability in the caller's own user
namespace, or the no-new-privileges flag; with `privileged_only` set,
only init-namespace administrators may attach anything.

On syscall entry the engine snapshots described pointer arguments,
then runs every installed filter in installation order and combines the
votes into the most restrictive verdict.  Each filter runs in a fresh
interpreter thread unless its verdict for this syscall number is
memoized, like the kernel's seccomp action cache: a run that read
nothing but `nr` and called no helper stores its outcome on the program
(`FilterProgram.verdicts`), and later syscalls with that number reuse
it, logging the same steps, helper calls and raw action the run
produced.  A filter that faults votes the configured bad-filter action
instead.  Denials clean up immediately (in-flight marks, snapshot) and
the matching exit event from the application is consumed as a no-op,
since the syscall it would have paired with never ran.

Each piece of state has one owner, declared with its class (`state`
derives copies and fingerprints from that).  An installation owns its
live maps (handoff targets' maps included, see `maps`).  A pending
syscall owns its snapshot, its thread and the numbers it holds in the
in-flight table (`registered`), which every filter of it sees through
`RuntimeEnv`.

Checkpoint blobs capture a task's chain, the live contents of every
map in it, and the engine clock; restore re-attaches without
re-verification, which is exactly why it is gated on init-namespace
administrative capability.
"""

from __future__ import annotations

import struct
from copy import deepcopy
from dataclasses import dataclass, field, replace

from . import maps as m
from .actions import KILL_THREAD, ResolvedAction, resolve
from .isa import (
    FilterProgram,
    MapKind,
    SyscallContext,
    decode_program,
    encode_program,
)
from .snapshot import COPY, ArgSnapshot, DescriptorTable, MODES, Snapshotter
from .state import stateful
from .usermem import UserMemory
from .verifier import verify
from .vm import (FaultServiceBlock, InFlightTable, RuntimeEnv, VmThread,
                 WaitBlock)

CAP_SYS_ADMIN = "CAP_SYS_ADMIN"
CAP_SYS_PTRACE = "CAP_SYS_PTRACE"

CHECKPOINT_MAGIC = b"SFCK"
CHECKPOINT_VERSION = 1

PTRACE_SCOPES = ("classic", "restricted")

_CHECKPOINT_HEADER = struct.Struct("<4sHHQI")
_CHECKPOINT_INSTALL = struct.Struct("<BIIBBH")


class EngineError(Exception):
    pass


class PermissionDenied(EngineError):
    pass


@dataclass(frozen=True)
class Credentials:
    uid: int = 0
    caps: frozenset = frozenset()
    userns: int = 0
    nnp: bool = False
    dumpable: bool = True


@stateful(shared="program loader", aliased="maps", value="classic")
@dataclass
class Installation:
    program: FilterProgram
    maps: list
    loader: Credentials
    classic: bool = False


@stateful(shared="program", aliased="maps")
@dataclass
class LoadedHandle:
    program: FilterProgram
    maps: list


@stateful(shared="ctx", owned="snapshot thread", aliased="chain",
          value="index votes actions registered executing")
@dataclass
class PendingSyscall:
    ctx: SyscallContext
    snapshot: ArgSnapshot
    chain: list
    index: int = 0
    thread: VmThread | None = None
    votes: list = field(default_factory=list)
    actions: list = field(default_factory=list)
    registered: set = field(default_factory=set)
    executing: bool = False


@stateful(value="tid tgid alive denied_enter", shared="creds",
          aliased="address_space chain", owned="pending")
@dataclass
class Task:
    tid: int
    tgid: int
    creds: Credentials
    address_space: UserMemory
    chain: list = field(default_factory=list)
    alive: bool = True
    pending: PendingSyscall | None = None
    denied_enter: bool = False


@dataclass(frozen=True)
class EngineConfig:
    privileged_only: bool = False
    bad_filter_action: ResolvedAction = KILL_THREAD
    ptrace_scope: str = "classic"
    snapshot_mode: str = COPY

    def __post_init__(self):
        if self.ptrace_scope not in PTRACE_SCOPES:
            raise ValueError(f"unknown ptrace scope {self.ptrace_scope!r}")
        if self.snapshot_mode not in MODES:
            raise ValueError(f"unknown snapshot mode {self.snapshot_mode!r}")


@stateful(shared="config descriptors snapshotter",
          owned="tasks handles in_flight",
          value="clock_ns _next_tid _next_handle _next_userns")
class Engine:
    def __init__(self, config: EngineConfig | None = None,
                 descriptors: DescriptorTable | None = None):
        self.config = config or EngineConfig()
        self.descriptors = descriptors or DescriptorTable()
        self.snapshotter = Snapshotter(self.descriptors,
                                       self.config.snapshot_mode)
        self.clock_ns = 0
        self.tasks: dict[int, Task] = {}
        self.handles: dict[int, LoadedHandle] = {}
        self.in_flight = InFlightTable()
        self._next_tid = 1
        self._next_handle = 1
        self._next_userns = 1

    # -- tasks ----------------------------------------------------------

    def task(self, tid: int) -> Task:
        t = self.tasks.get(tid)
        if t is None:
            raise EngineError(f"no such task {tid}")
        return t

    def _claim_tid(self, tid: int | None) -> int:
        if tid is None:
            tid = self._next_tid
        if tid in self.tasks:
            raise EngineError(f"task id {tid} already in use")
        self._next_tid = max(self._next_tid, tid + 1)
        return tid

    def spawn(self, parent: int | None = None, tid: int | None = None,
              uid: int | None = None, caps=None, nnp: bool | None = None,
              dumpable: bool | None = None) -> int:
        """New process. With a parent this is a fork: credentials,
        address space contents, and the filter chain are inherited."""
        tid = self._claim_tid(tid)
        if parent is None:
            creds = Credentials(
                uid=uid or 0,
                caps=frozenset(caps or ()),
                nnp=bool(nnp),
                dumpable=True if dumpable is None else dumpable,
            )
            self.tasks[tid] = Task(tid, tid, creds, UserMemory())
        else:
            p = self.task(parent)
            creds = p.creds
            if uid is not None:
                creds = replace(creds, uid=uid)
            if caps is not None:
                creds = replace(creds, caps=frozenset(caps))
            if nnp is not None:
                creds = replace(creds, nnp=creds.nnp or nnp)
            if dumpable is not None:
                creds = replace(creds, dumpable=dumpable)
            self.tasks[tid] = Task(tid, tid, creds, deepcopy(p.address_space),
                                   chain=list(p.chain))
        return tid

    def spawn_thread(self, parent: int, tid: int | None = None) -> int:
        p = self.task(parent)
        tid = self._claim_tid(tid)
        self.tasks[tid] = Task(tid, p.tgid, p.creds, p.address_space,
                               chain=list(p.chain))
        return tid

    def set_nnp(self, tid: int):
        t = self.task(tid)
        t.creds = replace(t.creds, nnp=True)   # one-way, like the real bit

    def set_dumpable(self, tid: int, value: bool):
        t = self.task(tid)
        t.creds = replace(t.creds, dumpable=value)

    def set_caps(self, tid: int, caps):
        t = self.task(tid)
        t.creds = replace(t.creds, caps=frozenset(caps))

    def new_userns(self, tid: int) -> int:
        """Enter a fresh user namespace, gaining admin capability there."""
        t = self.task(tid)
        ns = self._next_userns
        self._next_userns += 1
        t.creds = replace(t.creds, userns=ns,
                          caps=t.creds.caps | {CAP_SYS_ADMIN})
        return ns

    # -- attachment --------------------------------------------------------

    def _check_attach(self, creds: Credentials):
        if self.config.privileged_only:
            if CAP_SYS_ADMIN not in creds.caps or creds.userns != 0:
                raise PermissionDenied(
                    "attaching filters is restricted to init-namespace "
                    "administrators")
            return
        if CAP_SYS_ADMIN in creds.caps or creds.nnp:
            return
        raise PermissionDenied(
            "attaching a filter needs admin capability or no-new-privileges")

    def _instantiate(self, program: FilterProgram, userns: int | None):
        """Private, verified copy of a program.  Nested handoff targets
        get the same treatment (their maps come with the program array)."""
        new_decls = []
        for decl in program.map_refs:
            if decl.kind == MapKind.PROG_ARRAY and decl.initial_programs:
                nested = {idx: self._instantiate(p, userns)
                          for idx, p in sorted(decl.initial_programs.items())}
                decl = replace(decl, initial_programs=nested)
            new_decls.append(decl)
        copy = replace(program, map_refs=tuple(new_decls),
                       verified=False, load_userns=userns)
        report = verify(copy)
        if not report.accepted:
            raise EngineError(
                f"program rejected: {report.reason}"
                + (f" (instruction {report.offending_instruction})"
                   if report.offending_instruction is not None else ""))
        return copy

    def load(self, tid: int, program) -> int:
        """Verify and prepare a program; returns a handle for install."""
        t = self.task(tid)
        if isinstance(program, (bytes, bytearray)):
            program = decode_program(bytes(program))
        copy = self._instantiate(program, t.creds.userns)
        handle = self._next_handle
        self._next_handle += 1
        self.handles[handle] = LoadedHandle(copy, m.instantiate(copy))
        return handle

    def install(self, tid: int, handle: int) -> int:
        t = self.task(tid)
        loaded = self.handles.get(handle)
        if loaded is None:
            raise EngineError(f"no such handle {handle}")
        self._check_attach(t.creds)
        if loaded.program.load_userns != t.creds.userns:
            raise PermissionDenied(
                "program was loaded in a different user namespace")
        del self.handles[handle]   # single use
        t.chain.append(Installation(loaded.program, loaded.maps, t.creds))
        return len(t.chain) - 1

    def install_classic(self, tid: int, program) -> int:
        """One-step attach: verify now, no handle, no namespace pinning."""
        t = self.task(tid)
        self._check_attach(t.creds)
        if isinstance(program, (bytes, bytearray)):
            program = decode_program(bytes(program))
        copy = self._instantiate(program, None)
        t.chain.append(Installation(copy, m.instantiate(copy), t.creds,
                                    classic=True))
        return len(t.chain) - 1

    def close_map_fds(self, tid: int, install_index: int = -1):
        """Drop the userspace handles on an installation's maps. The maps
        stay alive through the installation's own references, but nothing
        outside the filter can touch them any more."""
        t = self.task(tid)
        for pmap in t.chain[install_index].maps:
            pmap.fd_open = False

    def update_map_external(self, actor: int, target: int,
                            install_index: int, map_name: str,
                            key: bytes, value: bytes) -> int:
        a = self.task(actor)
        if CAP_SYS_ADMIN not in a.creds.caps or a.creds.userns != 0:
            raise PermissionDenied("external map updates are privileged")
        t = self.task(target)
        if not 0 <= install_index < len(t.chain):
            raise EngineError(f"task {target} has no installation "
                              f"{install_index}")
        inst = t.chain[install_index]
        for pmap in inst.maps:
            if pmap.name == map_name:
                if pmap.kind in (MapKind.TASK_STORAGE, MapKind.PROG_ARRAY):
                    return -m.EINVAL
                if not pmap.fd_open:
                    raise PermissionDenied(
                        f"map {map_name}: descriptor closed, unreachable")
                return pmap.update(key, value)
        raise EngineError(f"installation has no map {map_name!r}")

    # -- syscall path -------------------------------------------------------

    def _user_access_allowed(self, task: Task, inst: Installation) -> bool:
        loader = inst.loader
        if not (task.creds.dumpable or CAP_SYS_PTRACE in loader.caps):
            return False
        if self.config.ptrace_scope == "classic":
            return True
        return loader.uid == task.creds.uid or CAP_SYS_PTRACE in loader.caps

    def start_syscall(self, tid: int, ctx: SyscallContext):
        t = self.task(tid)
        if not t.alive:
            raise EngineError(f"task {tid} is dead")
        if t.pending is not None:
            raise EngineError(f"task {tid} is already inside a syscall")
        snap = self.snapshotter.snapshot(t.address_space, tid, ctx)
        t.pending = PendingSyscall(ctx, snap, list(t.chain))

    def _env_for(self, t: Task, inst: Installation) -> RuntimeEnv:
        return RuntimeEnv(
            clock_ns=self.clock_ns,
            usermem=t.address_space,
            snapshot=t.pending.snapshot,
            user_access_allowed=self._user_access_allowed(t, inst),
            leader_tid=t.tgid,
            in_flight=self.in_flight,
            registered=t.pending.registered,
        )

    def resume_syscall(self, tid: int):
        """Run filters until a decision or a block.

        ("decision", record)   the verdict is in; record is loggable
        ("blocked", block)     the current filter parked; call again
                               once its wake condition holds
        """
        t = self.task(tid)
        pending = t.pending
        if pending is None or pending.executing:
            raise EngineError(f"task {tid} has no undecided syscall")
        nr = pending.ctx.nr
        while pending.index < len(pending.chain):
            inst = pending.chain[pending.index]
            verdicts = inst.program.verdicts
            thread = pending.thread
            out = verdicts.get(nr) if thread is None else None
            if out is None:
                if thread is None:
                    thread = pending.thread = VmThread(
                        inst.program, inst.maps, pending.ctx)
                thread.block = None
                status = thread.run(self._env_for(t, inst))
                if status == "blocked":
                    return ("blocked", thread.block)
                out = thread.outcome
                if thread.pure:
                    verdicts[nr] = out
            action = (self.config.bad_filter_action if out.faulted
                      else ResolvedAction.from_raw(out.raw_action))
            pending.actions.append(action)
            pending.votes.append({
                "install": pending.index,
                "action": action.kind.value,
                "errno": action.errno,
                "raw": out.raw_action,
                "steps": out.steps_executed,
                "helper_calls": out.helper_calls,
                "faulted": out.faulted,
            })
            pending.thread = None
            pending.index += 1
        return ("decision", self._finish_enter(t))

    def _finish_enter(self, t: Task) -> dict:
        pending = t.pending
        decision = resolve(pending.actions)
        record = {
            "task": t.tid,
            "nr": pending.ctx.nr,
            "action": decision.kind.value,
            "errno": decision.errno,
            "raw": decision.raw,
            "votes": list(pending.votes),
            "steps": sum(v["steps"] for v in pending.votes),
            "helper_calls": sum(v["helper_calls"] for v in pending.votes),
        }
        if decision.executes:
            pending.executing = True
            return record
        self._abandon_pending(t)
        t.denied_enter = True
        killed = []
        if decision.kind.value == "kill_thread":
            killed = self.kill_task(t.tid)
        elif decision.kind.value == "kill_process":
            killed = self.kill_process(t.tgid)
        if killed:
            record["killed"] = killed
        return record

    def _abandon_pending(self, t: Task):
        pending, t.pending = t.pending, None
        if pending is None:
            return
        for nr in pending.registered:
            self.in_flight.decrement(nr)
        pending.registered.clear()
        self.snapshotter.release(t.address_space, pending.snapshot)

    def syscall_exit(self, tid: int) -> dict | None:
        """None when this exit pairs with a denied entry (nothing ran)."""
        t = self.task(tid)
        if t.denied_enter:
            t.denied_enter = False
            return None
        pending = t.pending
        if pending is None or not pending.executing:
            raise EngineError(f"task {tid}: exit without a completed entry")
        record = {"task": tid, "nr": pending.ctx.nr}
        self._abandon_pending(t)
        return record

    def service_fault(self, tid: int) -> bool:
        t = self.task(tid)
        pending = t.pending
        if pending is None or pending.thread is None \
                or not isinstance(pending.thread.block, FaultServiceBlock):
            raise EngineError(f"task {tid} is not awaiting fault service")
        marker = pending.thread.block.marker
        progress = pending.snapshot.service_fault(t.address_space, marker)
        pending.thread.fault_serviced.add(marker)
        pending.thread.block = None
        return progress

    def run_syscall(self, tid: int, ctx: SyscallContext) -> dict:
        """Enter and decide in one go; only fault-service blocks are
        absorbed here. Anything that must actually wait needs a scheduler,
        so the syscall is abandoned, registrations and all, and raises."""
        self.start_syscall(tid, ctx)
        t = self.task(tid)
        while True:
            status, payload = self.resume_syscall(tid)
            if status == "decision":
                return payload
            if isinstance(payload, FaultServiceBlock):
                self.service_fault(tid)
                continue
            if isinstance(payload, WaitBlock):
                if not self.in_flight.others_inside(payload.target_nr,
                                                    t.pending.registered):
                    continue
                self._abandon_pending(t)
                raise EngineError(
                    f"task {tid} would wait on syscall "
                    f"{payload.target_nr}; run it under a scheduler")
            raise EngineError(f"unexpected block {payload!r}")

    # -- lifetime --------------------------------------------------------

    def kill_task(self, tid: int) -> list[int]:
        t = self.task(tid)
        if not t.alive:
            return []
        t.alive = False
        self._abandon_pending(t)
        return [tid]

    def kill_process(self, tgid: int) -> list[int]:
        killed = []
        for t in self.tasks.values():
            if t.tgid == tgid and t.alive:
                killed.extend(self.kill_task(t.tid))
        return sorted(killed)

    # -- checkpoint / restore ------------------------------------------------

    def _snapshot_program(self, program: FilterProgram,
                          prog_maps: list) -> FilterProgram:
        """The program with its maps' current contents baked in.  Array
        slots start zeroed, so all-zero ones are left out."""
        decls = []
        for decl, pmap in zip(program.map_refs, prog_maps):
            if decl.kind == MapKind.PROG_ARRAY:
                nested = {i: self._snapshot_program(p, pmaps)
                          for i, (p, pmaps) in sorted(pmap._programs.items())}
                decls.append(replace(decl, initial_programs=nested))
            else:
                entries = {k: v for k, v in pmap.items()
                           if any(v) or decl.kind != MapKind.ARRAY}
                decls.append(replace(decl, initial_entries=entries))
        return replace(program, map_refs=tuple(decls))

    def checkpoint(self, tid: int) -> bytes:
        t = self.task(tid)
        if t.pending is not None or t.denied_enter:
            raise EngineError("checkpoint requires the task to be between "
                              "syscalls")
        out = bytearray()
        try:
            out += _CHECKPOINT_HEADER.pack(
                CHECKPOINT_MAGIC, CHECKPOINT_VERSION, 0, self.clock_ns,
                len(t.chain))
            for inst in t.chain:
                blob = encode_program(self._snapshot_program(inst.program,
                                                             inst.maps))
                caps = ",".join(sorted(inst.loader.caps)).encode()
                out += _CHECKPOINT_INSTALL.pack(
                    1 if inst.classic else 0, inst.loader.uid,
                    inst.loader.userns, 1 if inst.loader.nnp else 0,
                    1 if inst.loader.dumpable else 0, len(caps))
                out += caps
                out += struct.pack("<I", len(inst.maps))
                out += bytes(1 if pmap.fd_open else 0 for pmap in inst.maps)
                out += struct.pack("<I", len(blob))
                out += blob
        # a clock or a uid out of the range the format's fields hold
        except struct.error as exc:
            raise EngineError(f"cannot checkpoint: {exc}") from None
        return bytes(out)

    def restore(self, tid: int, blob: bytes) -> list[int]:
        """Re-attach a checkpointed chain to `tid` without re-verification.
        Returns the new installation indexes.  The blob is parsed and its
        maps built before the engine changes, so a malformed one raises
        EngineError and changes nothing."""
        t = self.task(tid)
        if CAP_SYS_ADMIN not in t.creds.caps or t.creds.userns != 0:
            raise PermissionDenied("restore is restricted to init-namespace "
                                   "administrators")
        try:
            clock, installs = _parse_checkpoint(bytes(blob))
        # ProgramFormatError and UnicodeDecodeError are ValueErrors
        except (struct.error, ValueError) as exc:
            raise EngineError(f"malformed checkpoint: {exc}") from None
        # time is shared by every task: a restored clock may move it
        # forward, never back
        self.clock_ns = max(self.clock_ns, clock)
        t.chain += installs
        return list(range(len(t.chain) - len(installs), len(t.chain)))


def _parse_checkpoint(blob: bytes):
    """(clock, installations) of a checkpoint, with fresh live maps."""
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise EngineError("checkpoint is truncated")
        pos += n
        return blob[pos - n:pos]

    magic, version, _, clock, n_installs = \
        _CHECKPOINT_HEADER.unpack(take(_CHECKPOINT_HEADER.size))
    if magic != CHECKPOINT_MAGIC:
        raise EngineError("not a checkpoint (bad magic)")
    if version != CHECKPOINT_VERSION:
        raise EngineError(f"unsupported checkpoint version {version}")
    installs = []
    for _ in range(n_installs):
        classic, uid, userns, nnp, dumpable, caps_len = \
            _CHECKPOINT_INSTALL.unpack(take(_CHECKPOINT_INSTALL.size))
        caps = frozenset(c for c in take(caps_len).decode().split(",") if c)
        (n_maps,) = struct.unpack("<I", take(4))
        fd_flags = take(n_maps)
        (blob_len,) = struct.unpack("<I", take(4))
        program = decode_program(take(blob_len))
        _adopt(program)
        maps = m.instantiate(program)
        for pmap, flag in zip(maps, fd_flags):
            pmap.fd_open = bool(flag)
        loader = Credentials(uid=uid, caps=caps, userns=userns,
                             nnp=bool(nnp), dumpable=bool(dumpable))
        installs.append(Installation(program, maps, loader,
                                     classic=bool(classic)))
    if pos != len(blob):
        raise EngineError("checkpoint has trailing bytes")
    return clock, installs


def _adopt(program: FilterProgram):
    """Take a checkpointed program, and its handoff targets, on trust:
    no verification pass."""
    for decl in program.map_refs:
        for nested in decl.initial_programs.values():
            _adopt(nested)
    program.verified = True
