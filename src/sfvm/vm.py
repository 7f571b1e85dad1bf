"""Filter program interpreter.

Threads of execution are plain-data state machines rather than
generators so that an in-progress evaluation can be deep-copied,
resumed, and compared; the interleaving explorer depends on all three.
`VmThread.run` executes instructions until the program exits, faults,
or blocks.  A blocked thread parks *before* completing the current
instruction: the step counter only moves on completion, the program
counter stays put, and resuming simply re-dispatches the same
instruction (whose helper re-checks its wake condition).

The per-pc handlers re-check every structural rule the static checker
enforces and raise a fault, so an interpreter bug or a forged "verified"
flag degrades to the configured bad-filter action instead of silently
corrupting state.  On a genuinely verified program none of these
checks can fire.  For helper calls and `tail_call` the contract is one
table the verifier reads too (`isa.HELPER_PROTOS`, `isa.TAIL_CALL_PROTO`):
each call site checks its argument registers against it.

A program is lowered once, on its first run, much as the kernel's BPF
JIT compiles a program to native code.  Each pc has a checked per-pc
handler, a closure with operand form, immediate, jump targets and
semantics (`isa.ALU_OPS`/`COND_OPS`) bound in.  A program the verifier
accepted also carries its `facts`: per pc, the join of every abstract
state the verifier reached there.  For it, each block entry (pc 0,
every jump target, and the pc after each call, `tail_call`, `ja` and
`exit`) gets a fused block: Python source generated from
`isa.ALU_EXPRS`/`COND_EXPRS` and compiled once, which keeps registers in
locals, runs on through untaken branches and calls, and stops at the
next jump target.  Like the kernel's JIT, which trusts what the verifier
recorded per instruction, a block takes each register's type, each
frame pointer's offset and each known constant from the facts and tests
none of them at run time: stack loads, stores and lookup keys are
direct slices, and it calls `map_lookup_elem` itself when it sees the
map and the key.  An instruction the facts do not type for it is handed,
unconditionally, to its per-pc handler with registers, pc and steps
written back, as are other calls; the one run-time check left in a
block is that it cannot cross `STEP_LIMIT`.  A block is written and
compiled when it is first entered, so code no run reaches costs no
compile.  Should a block still raise (a wrong fact), the run faults
with the exception's text.

A program without facts (restored on trust, or a forged flag) runs on
its per-pc handlers alone.  A lowering depends on the instructions and
the facts alone: maps, `sleepable` and the context are read from the
thread at run time.  So one table, bounded and least recently used first
out, keyed by both, serves every program with equal instructions and
facts (`FilterProgram.compiled` points at its entry), and threads stay
plain data.

A run that reads no context field but `nr` and calls no helper (nor
`tail_call`) leaves the thread `pure`: its outcome, fault included, is a
function of the program and the syscall number alone, because the stack
starts zeroed and maps are reachable only through helpers.  The engine
memoizes such outcomes per program (`FilterProgram.verdicts`) and serves
later syscalls with the same number without running the program, much
as the kernel's seccomp action cache skips a filter whose verdict
depends on the number only.

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
    CTX_FIELDS,
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
        if not program.verified:
            raise VmFault("refusing to run an unverified program")
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

    def _get(self, idx: int):
        v = self.regs[idx]
        if v is _UNSET or v == _UNSET:
            raise VmFault(f"read of uninitialized register r{idx}")
        return v

    def _set(self, idx: int, value):
        if idx == 10:
            raise VmFault("frame register is read-only")
        self.regs[idx] = value

    def _scalar(self, idx: int) -> int:
        v = self._get(idx)
        if not isinstance(v, int):
            raise VmFault(f"r{idx}: expected a scalar")
        return v

    def _ptr(self, idx: int) -> MemPtr:
        v = self._get(idx)
        if not isinstance(v, MemPtr):
            raise VmFault(f"r{idx}: expected a memory pointer")
        return v

    def _map(self, idx: int, kinds) -> m.PolicyMap:
        v = self._get(idx)
        if not isinstance(v, MapRef):
            raise VmFault(f"r{idx}: expected a map reference")
        if v.map.kind not in kinds:
            raise VmFault(f"map {v.map.name}: kind not accepted here")
        return v.map

    def _buffer(self, idx: int) -> MemPtr:
        """r{idx} as a writable buffer of the byte count in the next one."""
        ptr = self._ptr(idx)
        size = self._scalar(idx + 1)
        if size <= 0 or size % 8 != 0:
            raise VmFault("byte count must be a positive multiple of 8")
        self._check_window(ptr, ptr.off, size, for_write=True)
        return ptr

    def _check_window(self, ptr: MemPtr, at: int, size: int, for_write: bool):
        if at % 8 != 0 and size >= 8:
            raise VmFault("memory access not 8-byte aligned")
        if at < 0 or at + size > len(ptr.buf):
            raise VmFault("memory access out of bounds")
        if ptr.buf is self.stack and not for_write:
            first, last = at // 8, (at + size - 1) // 8
            for slot in range(first, last + 1):
                if not self.stack_init & (1 << slot):
                    raise VmFault("read of uninitialized stack slot")

    def _read_mem(self, ptr: MemPtr, size: int, at=None) -> bytes:
        pos = ptr.off if at is None else at
        self._check_window(ptr, pos, size, for_write=False)
        return bytes(ptr.buf[pos:pos + size])

    def _write_mem(self, ptr: MemPtr, data: bytes, at=None):
        pos = ptr.off if at is None else at
        self._check_window(ptr, pos, len(data), for_write=True)
        ptr.buf[pos:pos + len(data)] = data
        if ptr.buf is self.stack:
            first, last = pos // 8, (pos + len(data) - 1) // 8
            for slot in range(first, last + 1):
                self.stack_init |= 1 << slot

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
                    pc = self.pc
                    if not 0 <= pc < len(code):
                        raise VmFault("control fell off the program")
                    pc = code[pc](self, env)
                    if pc is None:
                        break
                    self.pc = pc
                    self.steps += 1
            except VmFault as exc:
                self._fault(str(exc))
            except Exception as exc:    # fail closed: a wrong fact, a bug
                self._fault(f"{type(exc).__name__}: {exc}")
        return "done"

    # -- helpers -----------------------------------------------------------
    #
    # `_helper_<name>` implements the helper of that name (see
    # `isa.HELPER_NAMES`).  Its contract is its `isa.HELPER_PROTOS`
    # entry: the call handler checks r1.. against it and passes the typed
    # arguments, so a body holds only the helper's semantics.  It returns
    # r0, or _PARKED after setting `block`.

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
# `code[pc]` is a function of (thread, env) that returns the next pc, or
# None when the run loop must look at the thread again (exit, park,
# handoff).  The loop counts one step for each pc returned, so a fused
# block records in `steps` every instruction it completed but the last.
#
# The per-pc handlers are the checked reference path: each executes one
# instruction and faults exactly as decoding each step would.  A fused
# block hands them every instruction the facts do not type for it, and
# every call but a lookup it can see whole.

_PARKED = object()
_HANDED_OFF = object()
_CLOBBERED = [_UNSET] * 5     # r1..r5 after a call

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


def _lower_program(instructions: tuple, facts) -> list:
    """Per-pc handlers, and with facts a fused block at each entry."""
    handlers = tuple(_lower(pc, ins) for pc, ins in enumerate(instructions))
    code = list(handlers)
    if facts is not None:
        entries, targets = _block_entries(instructions)
        for entry in entries:
            code[entry] = _on_first_entry(code, instructions, facts, entry,
                                          targets, handlers)
    return code


def _faulting(reason: str):
    def fault(t, env):
        raise VmFault(reason)
    return fault


def _lower(pc: int, ins):
    op, dst, src, off, imm = ins
    nxt = pc + 1
    if op in ALU_BASE:
        return _lower_alu(ALU_BASE[op], op in IMM_FORM, dst, src, imm, nxt)
    if op in JUMP_BASE:
        return _lower_jump(JUMP_BASE[op], op in IMM_FORM, dst, src, imm, nxt,
                           nxt + off)
    if op == Opcode.JA:
        target = nxt + off
        return lambda t, env: target
    if op == Opcode.LD_IMM64:
        if src == LD_IMM64_MAP_REF:
            def ld_map_ref(t, env):
                if not 0 <= imm < len(t.maps):
                    raise VmFault("reference to undeclared map")
                t._set(dst, MapRef(t.maps[imm]))
                return nxt
            return ld_map_ref
        if src != 0:
            return _faulting("bad ld_imm64 source flag")
        return _lower_alu("mov", True, dst, src, imm, nxt)
    if op == Opcode.LD_CTX:
        if CTX_FIELDS.get(off) is None:
            return _faulting("context read is not field aligned")

        def ld_ctx(t, env):
            if off:
                t.pure = False
            t._set(dst, t.ctx.field(off))
            return nxt
        return ld_ctx
    if op == Opcode.LD_MAP:
        def ld_map(t, env):
            ptr = t._ptr(src)
            data = t._read_mem(ptr, 8, ptr.off + off)
            t._set(dst, int.from_bytes(data, "little"))
            return nxt
        return ld_map
    if op == Opcode.ST_MAP:
        def st_map(t, env):
            ptr = t._ptr(dst)
            value = t._scalar(src)
            t._write_mem(ptr, (value & U64_MASK).to_bytes(8, "little"),
                         ptr.off + off)
            return nxt
        return st_map
    if op == Opcode.CALL:
        try:
            helper = Helper(imm)
        except ValueError:
            return _faulting(f"unknown helper id {imm}")
        name = HELPER_NAMES[helper]
        if helper not in HELPER_PROTOS:
            return _faulting(f"helper {name} not callable here")
        return _lower_call(getattr(VmThread, f"_helper_{name}"),
                           HELPER_PROTOS[helper][0], nxt)
    if op == Opcode.TAIL_CALL:
        return _lower_call(VmThread._tail_call, TAIL_CALL_PROTO[0], nxt)
    if op == Opcode.EXIT:
        return lambda t, env: t._finish(t._scalar(0))
    return _faulting(f"unhandled opcode {op!r}")


def _lower_call(body, args, nxt):
    invoke = _with_args(body, args)

    def call(t, env):
        t.pure = False
        result = invoke(t, env)
        if result is _PARKED:
            return None     # no step, no pc move: resuming re-calls
        t.helper_calls += 1
        if result is _HANDED_OFF:
            t.steps += 1
            return None
        t.regs[1:6] = _CLOBBERED
        t.regs[0] = result
        return nxt
    return call


def _with_args(body, args):
    """`body` as a function of (thread, env) that checks and fetches its
    declared arguments in register order.  Unrolled by arity: a star
    call costs more than most bodies."""
    map_reg = next((reg for reg, arg in enumerate(args, 1)
                    if isinstance(arg, MapArg)), None)
    fetch = [_arg_fetcher(reg, arg, map_reg)
             for reg, arg in enumerate(args, 1)]
    a, b, c, d = fetch + [None] * (4 - len(fetch))
    return [body,
            lambda t, env: body(t, env, a(t)),
            lambda t, env: body(t, env, a(t), b(t)),
            lambda t, env: body(t, env, a(t), b(t), c(t)),
            lambda t, env: body(t, env, a(t), b(t), c(t), d(t))][len(fetch)]


def _arg_fetcher(reg, arg, map_reg):
    """A function of the thread that returns r{reg} checked against its
    type: a map, key or value bytes of the map in r{map_reg} (checked
    first), a writable buffer or a scalar."""
    if isinstance(arg, MapArg):
        kinds = arg.kinds
        return lambda t: t._map(reg, kinds)
    if arg == ARG_KEY:
        return lambda t: t._read_mem(t._ptr(reg), t.regs[map_reg].map.key_size)
    if arg == ARG_VALUE:
        return lambda t: t._read_mem(t._ptr(reg),
                                     t.regs[map_reg].map.value_size)
    if arg == ARG_BUF:
        return lambda t: t._buffer(reg)
    return lambda t: t._scalar(reg)


def _lower_alu(base, imm_form, dst, src, imm, nxt):
    fn = ALU_OPS[base]
    b = imm & U64_MASK

    def alu(t, env):
        rhs = b if imm_form else t._get(src)
        if base == "mov":
            t._set(dst, rhs)
            return nxt
        lhs = t._get(dst)
        if isinstance(lhs, MemPtr) and base in ("add", "sub"):
            if not isinstance(rhs, int):
                raise VmFault("pointer arithmetic needs a scalar offset")
            t._set(dst, MemPtr(lhs.buf, lhs.off + _pointer_delta(base, rhs)))
        elif isinstance(lhs, int) and isinstance(rhs, int):
            t._set(dst, fn(lhs, rhs))
        else:
            raise VmFault(f"{base} on non-scalar operands")
        return nxt
    return alu


def _pointer_delta(base: str, rhs: int) -> int:
    """The signed byte offset `add`/`sub` of the word `rhs` moves a pointer."""
    delta = rhs if rhs < (1 << 63) else rhs - (1 << 64)
    return -delta if base == "sub" else delta


def _lower_jump(base, imm_form, dst, src, imm, nxt, taken):
    fn = COND_OPS[base]
    b = imm & U64_MASK

    def jump(t, env):
        lhs = t._get(dst)
        rhs = b if imm_form else t._get(src)
        if isinstance(lhs, (MemPtr, MapRef)) or lhs == _CTX:
            # only the null check on a maybe-null lookup result is legal
            if base not in ("jeq", "jne") or rhs != 0 \
                    or not isinstance(lhs, MemPtr):
                raise VmFault("comparison on non-scalar operands")
            return taken if base == "jne" else nxt
        if isinstance(lhs, int) and isinstance(rhs, int):
            return taken if fn(lhs, rhs) else nxt
        raise VmFault("comparison on non-scalar operands")
    return jump


# -- fused blocks -------------------------------------------------------------
#
# A block is one generated Python function per block entry: pc 0, every
# jump target, and the pc after each call, tail_call, ja and exit.  It
# runs on through untaken branches (a taken one is a side exit) and
# through calls, and stops at the next jump target.  Registers live in
# locals and are written through to the thread, except frame pointers and
# map references, which the facts give exactly and which the block writes
# back only when it leaves.  What it knows of a register is the tag the
# verifier's facts give it at the pc (`verifier` names them): K a known
# scalar, U a scalar, C the context, S a frame pointer, M a map
# reference, V a map value pointer, N one that may be null, X nothing.

_load = struct.Struct("<Q").unpack_from
_store = struct.Struct("<Q").pack_into
_lookup = VmThread._helper_map_lookup_elem
_SCALARS = ("K", "U")
_ENDS_BEFORE = frozenset({Opcode.CALL, Opcode.TAIL_CALL, Opcode.JA,
                          Opcode.EXIT})    # the pc after one is an entry
# how `_BlockWriter.insn` left an instruction
_FUSED, _CALLED, _END, _HAND = "fused", "called", "end", "hand"
_OPERANDS = re.compile(r"\b[abM]\b")


def _render(expr: str, a: str, b: str) -> str:
    """An `isa.ALU_EXPRS`/`COND_EXPRS` template over operands a and b (or
    an `isa.CTX_LOADS` one over the block's local c)."""
    names = {"a": a, "b": b, "M": hex(U64_MASK)}
    return _OPERANDS.sub(lambda m: names[m[0]], expr)


def _block_entries(instructions: tuple) -> tuple:
    """The block entries in range, and the jump targets."""
    targets = {pc + 1 + ins.offset for pc, ins in enumerate(instructions)
               if ins.opcode in JUMPS}
    entries = {0} | targets | {pc + 1 for pc, ins in enumerate(instructions)
                               if ins.opcode in _ENDS_BEFORE}
    return sorted(e for e in entries if 0 <= e < len(instructions)), targets


def _on_first_entry(code, instructions, facts, entry, targets, handlers):
    """Holds the place of the block at `entry` until it is first entered,
    then writes and compiles it and gives its place to it (or to the
    handler, when it would fuse nothing): a block never entered costs no
    compile."""
    block = None

    def first_entry(t, env):
        nonlocal block
        if block is None:
            writer = _BlockWriter(instructions, facts, entry, targets)
            block = code[entry] = _fuse(writer, handlers) if writer.fused \
                else handlers[entry]
        return block(t, env)
    return first_entry


def _fuse(writer, handlers: tuple):
    namespace = {}
    # module globals, so a block reads the live STEP_LIMIT
    exec(compile(writer.source(), "<fused block>", "exec"), globals(),
         namespace)
    return namespace["build"](handlers)


def fused_pcs(program: FilterProgram) -> set:
    """The pcs of `program` that some fused block runs inline: none
    without facts."""
    if program.facts is None:
        return set()
    entries, targets = _block_entries(program.instructions)
    return {pc for entry in entries
            for pc in _BlockWriter(program.instructions, program.facts,
                                   entry, targets).fused}


class _BlockWriter:
    """The source of the block that starts at `entry`, written from the
    verifier's `facts`.

    An instruction is fused when the facts at its pc give its operands
    the tags its code needs; otherwise the block writes back its
    pointers, `pc` and `steps` and hands it to its per-pc handler, and
    ends.  Nothing else is tested at run time: the verifier proved every
    instruction a verified program executes safe (in bounds, initialised,
    of an accepted map kind) in each state that reaches it, and the facts
    cover each such state.  At entry the block checks that it cannot cross
    `STEP_LIMIT`.
    """

    def __init__(self, instructions: tuple, facts: tuple, entry: int,
                 targets: set):
        self.entry = entry
        self.body: list[str] = []
        self.depth = 2
        self.loaded: set = set()    # registers whose local is current
        self.dirty: dict = {}       # register -> the pointer the thread lacks
        self.done = 0               # instructions completed before this one
        self.uses: set = set()
        self.impure = False         # t.pure is cleared on every path here
        self.fused: list[int] = []
        pc = entry
        while True:
            if pc >= len(instructions) or pc != entry and pc in targets:
                self.leave(self.steps(self.done - 1), f"return {pc}")
                break
            self.size = pc - entry + 1
            how = _HAND
            if facts[pc] is not None:
                self.regs, self.init = facts[pc]
                how = self.insn(pc, instructions[pc])
            if how is _HAND:
                self.leave(self.steps(self.done), f"t.pc = {pc}",
                           f"return _h[{pc}](t, env)")
                break
            if how is not _CALLED:
                self.fused.append(pc)
            if how is _END:
                break
            self.done += 1
            pc += 1

    def source(self) -> str:
        head = ["def build(_h):", f"    def b{self.entry}(t, env):",
                "        s0 = t.steps"]
        if self.size > 1:
            head += [f"        if s0 + {self.size} > STEP_LIMIT:",
                     f"            return _h[{self.entry}](t, env)"]
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

    def side_exit(self, cond: str, target: int):
        self.emit(f"if {cond}:")
        self.depth += 1
        self.leave(self.steps(self.done), f"return {target}")
        self.depth -= 1

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

    def frame_slot(self, tag: tuple, off: int):
        """The stack offset of an 8-byte access `off` bytes from the frame
        pointer `tag`, or None when it would fault."""
        at = STACK_SIZE + tag[1] + off
        if at % 8 or at < 0 or at + 8 > STACK_SIZE:
            return None
        self.uses.add("stk")
        return at

    # -- instructions ---------------------------------------------------

    def insn(self, pc: int, ins) -> str:
        op, dst, src, off, imm = ins
        rhs = ("K", imm & U64_MASK) if op in IMM_FORM else self.regs[src]
        if op in ALU_BASE:
            return self.alu(ALU_BASE[op], dst, src, rhs)
        if op in JUMP_BASE:
            return self.branch(JUMP_BASE[op], dst, src, rhs, pc + 1 + off)
        if op == Opcode.JA:
            self.leave(self.steps(self.done), f"return {pc + 1 + off}")
            return _END
        if op == Opcode.LD_IMM64:
            if src == LD_IMM64_MAP_REF:
                self.point(dst, ("M", imm))
                return _FUSED
            return _HAND if src else self.alu("mov", dst, 0,
                                              ("K", imm & U64_MASK))
        if op == Opcode.LD_CTX:
            return self.ld_ctx(dst, off)
        if op == Opcode.LD_MAP:
            return self.ld_map(dst, src, off)
        if op == Opcode.ST_MAP:
            return self.st_map(dst, src, off)
        if op == Opcode.CALL:
            return self.call(pc, imm)
        if op == Opcode.TAIL_CALL:
            return self.through_handler(pc)
        if op == Opcode.EXIT:
            return self.exit(pc)
        return _HAND

    def alu(self, base, dst, src, rhs) -> str:
        """`rhs` is the tag of the operand: src's, or the immediate's."""
        lhs = self.regs[dst]
        if base == "mov":
            if rhs[0] in ("S", "M"):
                self.point(dst, rhs)
            elif rhs[0] == "X":
                return _HAND
            else:
                self.write(dst, self.value(rhs, src))
        elif lhs[0] == "S" and rhs[0] == "K" and base in ("add", "sub"):
            self.point(dst, ("S", lhs[1] + _pointer_delta(base, rhs[1])))
        elif lhs[0] in _SCALARS and rhs[0] in _SCALARS:
            b = self.value(rhs, src)
            self.write(dst, _render(ALU_EXPRS[base], self.value(lhs, dst), b))
        else:
            return _HAND
        return _FUSED

    def branch(self, base, dst, src, rhs, target) -> str:
        lhs = self.regs[dst]
        if lhs[0] == "N" and rhs == ("K", 0) and base in ("jeq", "jne"):
            # the null check on a lookup result: the only scalar here is 0
            cond = f"type({self.value(lhs, dst)}) is " \
                f"{'' if base == 'jeq' else 'not '}int"
        elif lhs[0] in _SCALARS and rhs[0] in _SCALARS:
            b = self.value(rhs, src)
            cond = _render(COND_EXPRS[base], self.value(lhs, dst), b)
        else:
            return _HAND
        self.side_exit(cond, target)
        return _FUSED

    def ld_ctx(self, dst, off) -> str:
        if off not in CTX_LOADS:
            return _HAND
        self.uses.add("c")
        if off:
            self.clear_pure()
        self.write(dst, _render(CTX_LOADS[off], "", ""))
        return _FUSED

    def ld_map(self, dst, src, off) -> str:
        ptr = self.regs[src]
        if ptr[0] == "S":
            at = self.frame_slot(ptr, off)
            if at is None:
                return _HAND
            self.write(dst, f"_load(stk, {at})[0]")
        elif ptr[0] == "V":
            self.write(dst, f"_load({self.value(ptr, src)}.buf, "
                            f"{ptr[2] + off})[0]")
        else:
            return _HAND
        return _FUSED

    def st_map(self, dst, src, off) -> str:
        ptr, scalar = self.regs[dst], self.regs[src]
        if scalar[0] not in _SCALARS:
            return _HAND
        if ptr[0] == "S":
            at = self.frame_slot(ptr, off)
            if at is None:
                return _HAND
            self.emit(f"_store(stk, {at}, {self.value(scalar, src)})")
            if not self.init >> at // 8 & 1:
                self.emit(f"t.stack_init |= {1 << at // 8}")
        elif ptr[0] == "V":
            self.emit(f"_store({self.value(ptr, dst)}.buf, {ptr[2] + off}, "
                      f"{self.value(scalar, src)})")
        else:
            return _HAND
        return _FUSED

    def call(self, pc, imm) -> str:
        pmap, key = self.regs[1], self.regs[2]
        if imm != Helper.MAP_LOOKUP_ELEM or pmap[0] != "M" or key[0] != "S":
            return self.through_handler(pc)
        at = STACK_SIZE + key[1]
        self.uses.update(("stk", "maps"))
        self.clear_pure()
        self.emit(f"pm = maps[{pmap[1]}]")
        self.write(0, f"_lookup(t, env, pm, stk[{at}:{at} + pm.key_size])")
        self.emit("t.helper_calls += 1")
        self.emit("regs[1:6] = _CLOBBERED")
        self.clobbered()
        return _FUSED

    def through_handler(self, pc) -> str:
        """A call made by the instruction's handler; the block goes on
        with what it leaves in r0..r5 unless it parked or handed off."""
        self.leave(self.steps(self.done), f"t.pc = {pc}")
        self.emit(f"if _h[{pc}](t, env) is None:")
        self.emit("    return None")
        self.impure = True      # the handler cleared it
        self.dirty.clear()
        self.loaded.discard(0)
        self.clobbered()
        return _CALLED

    def clear_pure(self):
        if not self.impure:
            self.emit("t.pure = False")
            self.impure = True

    def clobbered(self):
        """r1..r5 after a call."""
        for reg in range(1, 6):
            self.loaded.discard(reg)
            self.dirty.pop(reg, None)

    def exit(self, pc) -> str:
        if self.regs[0][0] not in _SCALARS:
            return _HAND
        self.leave(self.steps(self.done), f"t.pc = {pc}",
                   f"t._finish({self.value(self.regs[0], 0)})", "return None")
        return _END
