"""Filter program interpreter.

Threads of execution are plain-data state machines rather than
generators so that an in-progress evaluation can be deep-copied,
resumed, and compared; the interleaving explorer depends on all three.
`VmThread.run` executes instructions until the program exits, faults,
or blocks.  A blocked thread parks *before* completing the current
instruction: the step counter only moves on completion, the program
counter stays put, and resuming simply re-dispatches the same
instruction (whose helper re-checks its wake condition).

Only a verified program runs: `VmThread` refuses one without the
verifier's `facts`, per pc the join of every abstract state it reached
there.  A program is lowered once, on its first run, much as a kernel
built with `CONFIG_BPF_JIT_ALWAYS_ON` JIT-compiles every program and
keeps no interpreter.  Each block entry (pc 0, every jump target, and
every call that may park) gets a fused block: Python source generated from
`isa.ALU_EXPRS`/`COND_EXPRS` and compiled once, which keeps registers in
locals, runs on through untaken branches and calls, and stops at the
next jump target.  Like the kernel's JIT, which trusts what the verifier
recorded per instruction, a block takes each register's type, each
frame pointer's offset and each known constant from the facts and tests
none of them at run time: stack loads, stores and call arguments are
direct slices, and it calls each helper itself with the arguments its
contract (`isa.HELPER_PROTOS`, `isa.TAIL_CALL_PROTO`) declares.  Where
paths that reach an instruction disagree on an operand (two frame
offsets, two maps), the block reads that register from the thread.  A pc
no state reached faults, and a block that could cross `STEP_LIMIT` runs
a counted variant of itself that stops at the exact step.  A block is
written and compiled when it is first entered, so code no run reaches
costs no compile.  Should a block still raise (a wrong fact), the run
faults with the exception's text.

A lowering depends on the instructions and the facts alone: maps,
`sleepable` and the context are read from the thread at run time.  So
one table, bounded and least recently used first out, keyed by both,
serves every program with equal instructions and facts
(`FilterProgram.compiled` points at its entry), and threads stay plain
data.

A run that reads no context field but `nr` and calls no helper (nor
`tail_call`) leaves the thread `pure`: its outcome, fault included, is a
function of the program and the syscall number alone, because the stack
starts zeroed and maps are reachable only through helpers.  The engine
memoizes such outcomes per program (`FilterProgram.verdicts`), and a
walk of a chain that those memos served whole on the chain's last link
(`engine.Installation.walks`); a later syscall with the same number then
runs nothing.  The kernel's seccomp action cache
keeps one verdict only: at attach it emulates each filter for every
number and keeps a bitmap of the numbers it always allows
(`seccomp_cache_prepare` in `kernel/seccomp.c`).  These memos keep any
constant decision, a denial too, and fill it at its first use, so that
a load pays nothing for them.

A thread owns only its registers, stack, pc and counters.  Its maps
belong to its installation or to the program-array entry it was handed
to; its `wait_syscall` registrations belong to the engine's pending
syscall (`RuntimeEnv.registered`), shared by every filter of it.

A handoff (`tail_call`) replaces the running program, registers, and
stack with the (program, maps) entry it looked up, but keeps the
accumulated step and helper counts, and at most 32 handoffs may occur in
one evaluation.  That bound is real: the handoff target comes from a
map, so no static walk can see the whole chain.
"""

from __future__ import annotations

import re
import struct

from . import maps as m
from .isa import (
    ALU_BASE,
    ALU_EXPRS,
    ALU_OPS,
    ARG_BUF,
    ARG_KEY,
    ARG_VALUE,
    COND_EXPRS,
    COND_OPS,
    CTX_LOADS,
    FilterProgram,
    HELPER_NAMES,
    HELPER_PROTOS,
    Helper,
    IMM_FORM,
    JUMP_BASE,
    JUMPS,
    LD_IMM64_MAP_REF,
    MapArg,
    NUM_REGS,
    Opcode,
    STACK_SIZE,
    SyscallContext,
    TAIL_CALL_PROTO,
    U64_MASK,
)
from .state import Record, stateful

MAX_TAIL_CALLS = 32
STEP_LIMIT = 1_000_000

_UNSET = ("uninit",)
_CTX = ("ctx",)


class VmFault(Exception):
    pass


@stateful(aliased="map")
class MapRef(Record):
    __slots__ = ("map",)


@stateful(aliased="buf", value="off")
class MemPtr(Record):
    """Pointer into a stack frame or a live map value."""
    __slots__ = ("buf", "off")


class WaitBlock(Record):
    __slots__ = ("target_nr",)


class FaultServiceBlock(Record):
    __slots__ = ("marker",)     # (addr, size)


class VmOutcome(Record, defaults={"faulted": False, "fault_reason": ""}):
    __slots__ = ("raw_action", "steps_executed", "helper_calls", "faulted",
                 "fault_reason")


@stateful(value="counts")
class InFlightTable:
    """How many tasks are currently inside each syscall number (`counts`).
    The numbers one task holds are a `registered` set kept by its caller."""

    def __init__(self):
        self.counts: dict[int, int] = {}

    def increment(self, nr: int):
        self.counts[nr] = self.counts.get(nr, 0) + 1

    def decrement(self, nr: int):
        current = self.counts.get(nr, 0)
        if current <= 1:
            self.counts.pop(nr, None)
        else:
            self.counts[nr] = current - 1

    def count(self, nr: int) -> int:
        return self.counts.get(nr, 0)

    def register(self, nr: int, registered: set):
        """Count the task holding `registered` as inside `nr`, once."""
        if nr not in registered:
            registered.add(nr)
            self.increment(nr)

    def others_inside(self, nr: int, registered: set) -> bool:
        """Is a task other than the one holding `registered` inside `nr`?"""
        return self.count(nr) > (nr in registered)


class RuntimeEnv:
    """Everything an evaluation needs from the world around it.

    Supplied per run call and never stored on the thread, so threads
    stay plain data.  `in_flight` and `registered` are lent by the caller.
    """

    def __init__(self, *, clock_ns=0, usermem=None, snapshot=None,
                 user_access_allowed=False, leader_tid=0,
                 in_flight=None, registered=None):
        self.clock_ns = clock_ns
        self.usermem = usermem
        self.snapshot = snapshot
        self.user_access_allowed = user_access_allowed
        self.leader_tid = leader_tid
        self.in_flight = InFlightTable() if in_flight is None else in_flight
        self.registered = set() if registered is None else registered

    def read_user(self, addr: int, size: int):
        if self.snapshot is not None:
            return self.snapshot.read(self.usermem, addr, size)
        if self.usermem is None:
            return ("fault", None)
        data = self.usermem.read(addr, size)
        return ("fault", None) if data is None else ("ok", data)


@stateful(shared="ctx program block outcome", aliased="maps regs stack",
          value="pc stack_init steps helper_calls tail_depth pure done "
                "fault_serviced")
class VmThread:
    def __init__(self, program: FilterProgram, prog_maps, ctx: SyscallContext):
        self._admit(program)
        self.ctx = ctx
        self._enter(program, prog_maps)
        self.steps = 0
        self.helper_calls = 0
        self.tail_depth = 0
        self.pure = True    # read only ctx.nr, called nothing (so far)
        self.block = None
        self.done = False
        self.outcome: VmOutcome | None = None
        self.fault_serviced: set = set()

    # -- plumbing -------------------------------------------------------

    @staticmethod
    def _admit(program: FilterProgram):
        if not program.verified:
            raise VmFault("refusing to run an unverified program")

    def _enter(self, program: FilterProgram, prog_maps):
        """Start `program` afresh: pc 0, new registers and stack."""
        self.program = program
        self.maps = list(prog_maps)
        self.pc = 0
        self.regs = [_UNSET] * NUM_REGS
        self.stack = bytearray(STACK_SIZE)
        self.stack_init = 0
        self.regs[1] = _CTX
        self.regs[10] = MemPtr(self.stack, STACK_SIZE)

    def _write_mem(self, ptr: MemPtr, data: bytes):
        """Write `data` at `ptr`, marking the stack slots it fills."""
        pos = ptr.off
        ptr.buf[pos:pos + len(data)] = data
        if ptr.buf is self.stack:
            self.stack_init |= (2 << (pos + len(data) - 1) // 8) \
                - (1 << pos // 8)

    def _finish(self, raw: int):
        self.steps += 1     # the exit itself
        self.done = True
        self.outcome = VmOutcome(raw & 0xFFFFFFFF, self.steps,
                                 self.helper_calls)

    def _fault(self, reason: str):
        self.done = True
        self.outcome = VmOutcome(0, self.steps, self.helper_calls,
                                 faulted=True, fault_reason=reason)

    # -- execution -------------------------------------------------------

    def run(self, env: RuntimeEnv) -> str:
        """Advance until "done" or "blocked"."""
        limit = STEP_LIMIT
        while not self.done:
            if self.block is not None:
                return "blocked"
            code = self.program.compiled or _compile(self.program)
            try:
                while True:
                    if self.steps >= limit:
                        raise VmFault("step limit exceeded")
                    pc = code[self.pc](self, env)
                    if pc is None:
                        break
                    self.pc = pc
            except VmFault as exc:
                self._fault(str(exc))
            except Exception as exc:    # fail closed: a wrong fact, a bug
                self._fault(f"{type(exc).__name__}: {exc}")
        return "done"

    # -- helpers -----------------------------------------------------------
    #
    # `_helper_<name>` implements the helper of that name (see
    # `isa.HELPER_NAMES`).  Its contract is its `isa.HELPER_PROTOS`
    # entry, which the verifier checked r1.. against: a block passes the
    # typed arguments, so a body holds only the helper's semantics.  It
    # returns r0, or _PARKED after setting `block`.

    def _helper_map_lookup_elem(self, env, pmap, key):
        value = pmap.lookup(key)
        return 0 if value is None else MemPtr(value, 0)

    def _helper_map_update_elem(self, env, pmap, key, value, flags):
        return pmap.update(key, value, flags) & U64_MASK

    def _helper_map_delete_elem(self, env, pmap, key):
        return pmap.delete(key) & U64_MASK

    def _helper_ktime_get_ns(self, env):
        return env.clock_ns & U64_MASK

    def _helper_safe_task_storage_get(self, env, pmap, flags):
        value = pmap.storage_get(env.leader_tid, bool(flags & 1))
        return 0 if value is None else MemPtr(value, 0)

    def _helper_safe_task_storage_delete(self, env, pmap):
        return pmap.storage_delete(env.leader_tid) & U64_MASK

    def _helper_wait_syscall(self, env, curr, target):
        # Check before registering: the helper runs atomically, so
        # whichever of two mutually-serialized tasks gets here first
        # claims the window and the other waits, never both.  What this
        # syscall registered itself, in any filter, doesn't count.
        if env.in_flight.others_inside(target, env.registered):
            self.block = WaitBlock(target)
            return _PARKED
        env.in_flight.register(curr, env.registered)
        return 0

    def _helper_safe_read_user(self, env, dst, size, addr):
        if not env.user_access_allowed:
            self._write_mem(dst, bytes(size))   # the buffer is always filled
            return (-m.EPERM) & U64_MASK
        status, payload = env.read_user(addr, size)
        if status == "ok":
            self._write_mem(dst, payload)
            return 0
        if status == "marker" and self.program.sleepable \
                and payload not in self.fault_serviced:
            self.block = FaultServiceBlock(payload)
            return _PARKED
        self._write_mem(dst, bytes(size))
        return (-m.EFAULT) & U64_MASK

    def _helper_safe_read_user_str(self, env, dst, cap, addr):
        if not env.user_access_allowed:
            self._write_mem(dst, bytes(cap))
            return (-m.EPERM) & U64_MASK
        collected = bytearray()
        for i in range(cap):
            status, payload = env.read_user(addr + i, 1)
            if status == "marker" and self.program.sleepable \
                    and payload not in self.fault_serviced:
                self.block = FaultServiceBlock(payload)
                return _PARKED
            if status != "ok":
                self._write_mem(dst, bytes(cap))
                return (-m.EFAULT) & U64_MASK
            if payload == b"\x00":
                out = bytes(collected) + b"\x00"
                self._write_mem(dst, out + bytes(cap - len(out)))
                return i + 1
            collected += payload
        out = bytes(collected[:cap - 1]) + b"\x00"
        self._write_mem(dst, out)
        return (-m.E2BIG) & U64_MASK

    def _tail_call(self, env, pmap, idx):
        """The `tail_call` opcode: -ENOENT when the entry is missing,
        _HANDED_OFF once the target program has taken over."""
        entry = pmap.get_program(idx)
        if entry is None:
            return (-m.ENOENT) & U64_MASK
        if self.tail_depth + 1 > MAX_TAIL_CALLS:
            raise VmFault("handoff chain exceeds 32")
        self.tail_depth += 1
        self._enter(*entry)
        return _HANDED_OFF




# -- lowering ---------------------------------------------------------------
#
# `code[pc]` is the block that starts at `pc` (None where none does): a
# function of (thread, env) that counts in `steps` every instruction it
# completed and returns the next pc, or None when the run loop must look
# at the thread again (exit, park, handoff).  It is one generated Python
# function per block entry: pc 0, every jump target, and every call that
# may park, where a parked run resumes.  It runs on through untaken
# branches (a taken one is a side exit) and through calls, and stops at
# the next jump target.
# Registers live in locals and are written through to the thread, except
# frame pointers and map references, which the facts give exactly and
# which the block writes back only when it leaves.  What it knows of a
# register is the tag the verifier's facts give it at the pc (`verifier`
# names them): K a known scalar, U a scalar, C the context, S a frame
# pointer, M a map reference, V a map value pointer, N one that may be
# null, X nothing (paths that reach the pc disagree on it).

_PARKED = object()
_HANDED_OFF = object()
_CLOBBERED = [_UNSET] * 5     # r1..r5 after a call
_PARKS = frozenset({Helper.WAIT_SYSCALL, Helper.SAFE_READ_USER,
                    Helper.SAFE_READ_USER_STR})   # may return _PARKED

LOWERINGS_KEPT = 256
# (instructions, facts) -> code, least recently used first
_LOWERINGS: dict = {}


def _compile(program: FilterProgram) -> list:
    key = (tuple(program.instructions), program.facts)
    code = _LOWERINGS.pop(key, None)
    if code is None:
        code = _lower_program(*key)
        if len(_LOWERINGS) >= LOWERINGS_KEPT:
            del _LOWERINGS[next(iter(_LOWERINGS))]
    _LOWERINGS[key] = code
    program.compiled = code
    return code


def _lower_program(instructions: tuple, facts: tuple) -> list:
    entries, targets = _block_entries(instructions)
    code = [None] * len(instructions)
    for entry in entries:
        code[entry] = _first_entry(code, instructions, facts, entry, targets)
    return code


def _block_entries(instructions: tuple) -> tuple:
    """The block entries in range, and the jump targets."""
    targets = {pc + 1 + ins.offset for pc, ins in enumerate(instructions)
               if ins.opcode in JUMPS}
    entries = {0} | targets | {pc for pc, ins in enumerate(instructions)
                               if ins.opcode == Opcode.CALL
                               and ins.imm in _PARKS}
    return sorted(e for e in entries if 0 <= e < len(instructions)), targets


def _first_entry(code, instructions, facts, entry, targets):
    """Holds the place of the block at `entry` until it is first entered,
    then writes and compiles it and gives its place to it: a block never
    entered costs no compile.  So does its counted variant, which a run
    that could cross `STEP_LIMIT` in the block takes instead."""
    counted = None

    def count(t, env):
        nonlocal counted
        if counted is None:
            counted = _fuse(_BlockWriter(instructions, facts, entry, targets,
                                         counted=True))
        return counted(t, env)

    def first_entry(t, env):
        block = code[entry] = _fuse(_BlockWriter(instructions, facts, entry,
                                                 targets), count)
        return block(t, env)
    return first_entry


def _fuse(writer, counted=None):
    namespace = {}
    # module globals, so a block reads the live STEP_LIMIT
    exec(compile(writer.source(), "<fused block>", "exec"), globals(),
         namespace)
    return namespace["build"](counted)


_load = struct.Struct("<Q").unpack_from
_store = struct.Struct("<Q").pack_into
_SCALARS = ("K", "U")
_CALLS = frozenset({Opcode.CALL, Opcode.TAIL_CALL})
_OPERANDS = re.compile(r"\b[abM]\b")


def _render(expr: str, a: str, b: str) -> str:
    """An `isa.ALU_EXPRS`/`COND_EXPRS` template over operands a and b (or
    an `isa.CTX_LOADS` one over the block's local c)."""
    names = {"a": a, "b": b, "M": hex(U64_MASK)}
    return _OPERANDS.sub(lambda m: names[m[0]], expr)


def _pointer_delta(base: str, rhs: int) -> int:
    """The signed byte offset `add`/`sub` of the word `rhs` moves a pointer."""
    delta = rhs if rhs < (1 << 63) else rhs - (1 << 64)
    return -delta if base == "sub" else delta


def _untyped_alu(base: str, a, b):
    """`base` on an operand whose fact is X: a pointer moves by the
    scalar, scalars combine."""
    if type(a) is int:
        return ALU_OPS[base](a, b)
    return MemPtr(a.buf, a.off + _pointer_delta(base, b))


def _untyped_cond(base: str, a, b) -> bool:
    """`base` on an operand whose fact is X: a map value pointer is the
    non-null side of a null check."""
    if type(a) is int:
        return COND_OPS[base](a, b)
    return base == "jne"


def _untyped_store(t: VmThread, ptr: MemPtr, off: int, value: int):
    """`st_map` through a pointer whose fact is X."""
    at = ptr.off + off
    _store(ptr.buf, at, value)
    if ptr.buf is t.stack:
        t.stack_init |= 1 << at // 8


class _BlockWriter:
    """The source of the block that starts at `entry`, written from the
    verifier's `facts`, or of its `counted` variant, which also stops
    before any instruction that would start at `STEP_LIMIT`.

    Nothing is tested at run time: the verifier proved every instruction
    a verified program executes safe (in bounds, initialised, of an
    accepted map kind) in each state that reaches it, and the facts cover
    each such state.  An operand the facts type is used as what they say
    (a constant, a frame offset, a map); one whose fact is X is read from
    the thread and used as what it holds.  A pc with no fact faults, since
    no run reaches it.
    """

    def __init__(self, instructions: tuple, facts: tuple, entry: int,
                 targets: set, counted: bool = False):
        self.entry = entry
        self.counted = counted
        self.body: list[str] = []
        self.depth = 2
        self.loaded: set = set()    # registers whose local is current
        self.dirty: dict = {}       # register -> the pointer the thread lacks
        self.done = 0               # instructions completed before this one
        self.uses: set = set()
        self.impure = False         # t.pure is cleared on every path here
        pc = entry
        while pc == entry or pc not in targets:
            self.size = self.done + 1
            if counted and self.done:
                self.side_exit(f"s0 + {self.done} >= STEP_LIMIT",
                               *self.fault(pc, "step limit exceeded"))
            if pc >= len(instructions) or facts[pc] is None:
                self.leave(*self.fault(pc, "unreachable instruction"))
                return
            self.regs, self.init = facts[pc]
            if self.insn(pc, instructions[pc]):
                return
            self.done += 1
            pc += 1
        self.leave(self.steps(self.done), f"return {pc}")

    def source(self) -> str:
        head = ["def build(_counted):", f"    def b{self.entry}(t, env):",
                "        s0 = t.steps"]
        if self.size > 1 and not self.counted:
            head += [f"        if s0 + {self.size} > STEP_LIMIT:",
                     "            return _counted(t, env)"]
        head.append("        regs = t.regs")
        head += [f"        {name} = t.{attr}"
                 for name, attr in (("stk", "stack"), ("c", "ctx"),
                                    ("maps", "maps"))
                 if name in self.uses]
        return "\n".join(head + self.body + [f"    return b{self.entry}"]) \
            + "\n"

    # -- emitting -------------------------------------------------------

    def emit(self, line: str):
        if line:
            self.body.append("    " * self.depth + line)

    def steps(self, done: int) -> str:
        return f"t.steps = s0 + {done}" if done else ""

    def leave(self, *lines: str):
        """Write back stale pointers, then `lines`."""
        for reg in sorted(self.dirty):
            self.emit(f"regs[{reg}] = {self.dirty[reg]}")
        for line in lines:
            self.emit(line)

    def side_exit(self, cond: str, *lines: str):
        """Leave the block by `lines` when `cond` holds."""
        self.emit(f"if {cond}:")
        self.depth += 1
        self.leave(*lines)
        self.depth -= 1

    def fault(self, pc: int, reason: str) -> tuple:
        """The lines that fault before the instruction at `pc`."""
        return self.steps(self.done), f"t.pc = {pc}", \
            f"raise VmFault({reason!r})"

    # -- registers ------------------------------------------------------

    def value(self, tag: tuple, reg: int) -> str:
        """An operand of `tag`: its known value, or r{reg}'s local, read
        from the thread first if need be."""
        if tag[0] == "K":
            return str(tag[1])
        if reg not in self.loaded:
            self.emit(f"r{reg} = regs[{reg}]")
            self.loaded.add(reg)
        return f"r{reg}"

    def write(self, reg: int, expr: str):
        """r{reg} becomes `expr`, in its local and in the thread."""
        self.emit(f"regs[{reg}] = r{reg} = {expr}")
        self.loaded.add(reg)
        self.dirty.pop(reg, None)

    def point(self, reg: int, tag: tuple):
        """r{reg} becomes the frame pointer or map reference `tag`,
        written back only on leaving."""
        if tag[0] == "S":
            self.uses.add("stk")
            self.dirty[reg] = f"MemPtr(stk, {STACK_SIZE + tag[1]})"
        else:
            self.uses.add("maps")
            self.dirty[reg] = f"MapRef(maps[{tag[1]}])"
        self.loaded.discard(reg)

    def frame(self, tag: tuple, off: int = 0) -> int:
        """The stack offset `off` bytes from the frame pointer `tag`."""
        self.uses.add("stk")
        return STACK_SIZE + tag[1] + off

    # -- instructions ---------------------------------------------------

    def insn(self, pc: int, ins) -> bool:
        """Write `ins`; True when the block ends with it."""
        op, dst, src, off, imm = ins
        rhs = ("K", imm & U64_MASK) if op in IMM_FORM else self.regs[src]
        if op in ALU_BASE:
            self.alu(ALU_BASE[op], dst, src, rhs)
        elif op in JUMP_BASE:
            self.branch(JUMP_BASE[op], dst, src, rhs, pc + 1 + off)
        elif op == Opcode.JA:
            self.leave(self.steps(self.done + 1), f"return {pc + 1 + off}")
            return True
        elif op == Opcode.LD_IMM64:
            if src == LD_IMM64_MAP_REF:
                self.point(dst, ("M", imm))
            else:
                self.alu("mov", dst, 0, ("K", imm & U64_MASK))
        elif op == Opcode.LD_CTX:
            self.uses.add("c")
            if off:
                self.clear_pure()
            self.write(dst, _render(CTX_LOADS[off], "", ""))
        elif op == Opcode.LD_MAP:
            self.ld_map(dst, src, off)
        elif op == Opcode.ST_MAP:
            self.st_map(dst, src, off)
        elif op in _CALLS:
            self.call(pc, ins)
        elif op == Opcode.EXIT:
            self.leave(self.steps(self.done), f"t.pc = {pc}",
                       f"t._finish({self.value(self.regs[0], 0)})",
                       "return None")
            return True
        else:   # the verifier refuses it: fail closed all the same
            raise VmFault(f"unhandled opcode {op!r}")
        return False

    def alu(self, base, dst, src, rhs):
        """`rhs` is the tag of the operand: src's, or the immediate's."""
        lhs = self.regs[dst]
        if base == "mov":
            if rhs[0] in ("S", "M"):
                self.point(dst, rhs)
            else:
                self.write(dst, self.value(rhs, src))
        elif lhs[0] == "S" and rhs[0] == "K" and base in ("add", "sub"):
            self.point(dst, ("S", lhs[1] + _pointer_delta(base, rhs[1])))
        elif lhs[0] in _SCALARS and rhs[0] in _SCALARS:
            b = self.value(rhs, src)
            self.write(dst, _render(ALU_EXPRS[base], self.value(lhs, dst), b))
        else:   # a map value pointer, or an operand of fact X
            b = self.value(rhs, src)
            self.write(dst, f"_untyped_alu({base!r}, {self.value(lhs, dst)}, "
                            f"{b})")

    def branch(self, base, dst, src, rhs, target):
        lhs = self.regs[dst]
        b = self.value(rhs, src)
        if lhs[0] == "N" and rhs == ("K", 0) and base in ("jeq", "jne"):
            # the null check on a lookup result: the only scalar here is 0
            cond = f"type({self.value(lhs, dst)}) is " \
                f"{'' if base == 'jeq' else 'not '}int"
        elif lhs[0] in _SCALARS and rhs[0] in _SCALARS:
            cond = _render(COND_EXPRS[base], self.value(lhs, dst), b)
        else:   # an operand of fact X
            cond = f"_untyped_cond({base!r}, {self.value(lhs, dst)}, {b})"
        self.side_exit(cond, self.steps(self.done + 1), f"return {target}")

    def ld_map(self, dst, src, off):
        ptr = self.regs[src]
        if ptr[0] == "S":
            self.write(dst, f"_load(stk, {self.frame(ptr, off)})[0]")
        elif ptr[0] == "V":
            self.write(dst, f"_load({self.value(ptr, src)}.buf, "
                            f"{ptr[2] + off})[0]")
        else:   # fact X
            p = self.value(ptr, src)
            self.write(dst, f"_load({p}.buf, {p}.off + {off})[0]")

    def st_map(self, dst, src, off):
        ptr, scalar = self.regs[dst], self.value(self.regs[src], src)
        if ptr[0] == "S":
            at = self.frame(ptr, off)
            self.emit(f"_store(stk, {at}, {scalar})")
            if not self.init >> at // 8 & 1:
                self.emit(f"t.stack_init |= {1 << at // 8}")
        elif ptr[0] == "V":
            self.emit(f"_store({self.value(ptr, dst)}.buf, {ptr[2] + off}, "
                      f"{scalar})")
        else:   # fact X
            self.emit(f"_untyped_store(t, {self.value(ptr, dst)}, {off}, "
                      f"{scalar})")

    def call(self, pc, ins):
        """A helper call or `tail_call`, passed the arguments its prototype
        declares (`isa.HELPER_PROTOS`, `TAIL_CALL_PROTO`).  A parked call
        leaves `pc` on itself, where the run resumes."""
        tail = ins.opcode == Opcode.TAIL_CALL
        args, _ = TAIL_CALL_PROTO if tail else HELPER_PROTOS[ins.imm]
        body = "_tail_call" if tail else f"_helper_{HELPER_NAMES[ins.imm]}"
        self.clear_pure()
        values = "".join(f", {self.arg(reg, arg)}"
                         for reg, arg in enumerate(args, 1))
        call = f"r0 = t.{body}(env{values})"
        if tail:    # a handoff leaves the block, or faults past 32
            self.leave(self.steps(self.done), f"t.pc = {pc}", call,
                       "t.helper_calls += 1")
            self.dirty.clear()
            self.side_exit("r0 is _HANDED_OFF", self.steps(self.done + 1),
                           "return None")
        else:
            self.emit(call)
            if ins.imm in _PARKS:
                self.side_exit("r0 is _PARKED", self.steps(self.done),
                               f"t.pc = {pc}", "return None")
            self.emit("t.helper_calls += 1")
        self.emit("regs[0] = r0")
        self.emit("regs[1:6] = _CLOBBERED")
        self.loaded.add(0)
        self.dirty.pop(0, None)
        for reg in range(1, 6):
            self.loaded.discard(reg)
            self.dirty.pop(reg, None)

    def arg(self, reg: int, arg) -> str:
        """r{reg} as the argument `arg` of a call, the map argument (bound
        to `pm`, always r1) first."""
        tag = self.regs[reg]
        if isinstance(arg, MapArg):
            if tag[0] == "M":
                self.uses.add("maps")
                self.emit(f"pm = maps[{tag[1]}]")
            else:
                self.emit(f"pm = {self.value(tag, reg)}.map")
            return "pm"
        if arg in (ARG_KEY, ARG_VALUE):
            size = "pm.key_size" if arg == ARG_KEY else "pm.value_size"
            if tag[0] == "S":
                at = self.frame(tag)
                return f"stk[{at}:{at} + {size}]"
            p = self.value(tag, reg)
            return f"{p}.buf[{p}.off:{p}.off + {size}]"
        if arg == ARG_BUF and tag[0] == "S":
            return f"MemPtr(stk, {self.frame(tag)})"
        return self.value(tag, reg)

    def clear_pure(self):
        if not self.impure:
            self.emit("t.pure = False")
            self.impure = True
