"""Filter program interpreter.

Threads of execution are plain-data state machines rather than
generators so that an in-progress evaluation can be deep-copied,
resumed, and compared; the interleaving explorer depends on all three.
`VmThread.run` executes instructions until the program exits, faults,
or blocks.  A blocked thread parks *before* completing the current
instruction: the step counter only moves on completion, the program
counter stays put, and resuming simply re-dispatches the same
instruction (whose helper re-checks its wake condition).

Every structural rule the static checker enforces is re-checked here
and raised as a fault, so an interpreter bug or a forged "verified"
flag degrades to the configured bad-filter action instead of silently
corrupting state.  On a genuinely verified program none of these
checks can fire.  For helper calls and `tail_call` the contract is one
table the verifier reads too (`isa.HELPER_PROTOS`, `isa.TAIL_CALL_PROTO`):
each call site checks its argument registers against it.

A program is lowered once, on its first run, much as the kernel's BPF
JIT compiles a program to native code.  Each pc has a checked per-pc
handler, a closure with operand form, immediate, jump targets and
semantics (`isa.ALU_OPS`/`COND_OPS`) bound in.  Each block entry (pc 0,
every jump target, and the pc after each call, `tail_call`, `ja` and
`exit`) also gets a fused block: Python source generated from
`isa.ALU_EXPRS`/`COND_EXPRS` and compiled once, which keeps registers in
locals, runs on through untaken branches and calls, and stops at the
next jump target.  It knows r10-derived pointers as frame offsets at
compile time, so stack loads, stores and lookup keys at a constant
offset are direct slices whose bounds and alignment were checked then,
and it calls `map_lookup_elem` itself when it knows the map and the key.
Whatever it cannot prove (an operand's type, an initialised slot, a
pointer it cannot place, room below `STEP_LIMIT`) it checks at run time,
and where that check fails it writes back registers, pc and steps and
hands the instruction to its per-pc handler, so every fault, step count,
park and handoff comes from the checked code.  Other calls go through
their handlers too.  A block is written and compiled when it is first
entered, so code no run reaches costs no compile.

A lowering depends on the instructions alone: maps, `sleepable` and the
context are read from the thread at run time.  So one table, bounded and
least recently used first out, keyed by the instruction tuple, serves
every program with equal instructions (`FilterProgram.compiled` points
at its entry), and threads stay plain data.

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
    FRAME_REG,
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
    RET_SCALAR,
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
# block hands them every instruction whose precondition fails, and every
# call but a lookup it can see whole.

_PARKED = object()
_HANDED_OFF = object()
_CLOBBERED = [_UNSET] * 5     # r1..r5 after a call

LOWERINGS_KEPT = 256
_LOWERINGS: dict = {}     # instructions -> code, least recently used first


def _compile(program: FilterProgram) -> list:
    key = tuple(program.instructions)
    code = _LOWERINGS.pop(key, None)
    if code is None:
        code = _lower_program(key)
        if len(_LOWERINGS) >= LOWERINGS_KEPT:
            del _LOWERINGS[next(iter(_LOWERINGS))]
    _LOWERINGS[key] = code
    program.compiled = code
    return code


def _lower_program(instructions: tuple) -> list:
    handlers = tuple(_lower(pc, ins) for pc, ins in enumerate(instructions))
    code = list(handlers)
    entries, targets = _block_entries(instructions)
    for entry in entries:
        code[entry] = _on_first_entry(code, instructions, entry, targets,
                                      handlers)
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
# locals and are written through to the thread, except pointers the block
# knows at compile time, which it writes back only when it leaves.  What
# the block knows of each register at compile time is its kind:

_ANY = "any"            # rK holds the register, of a type not yet checked
_INT = "int"            # rK holds a scalar
_NULLABLE = "nullable"  # rK holds a memory pointer or the scalar 0
_PTR = "pointer"        # rK holds a memory pointer
# _UNSET: clobbered by a call; no local
# ("fp", off): the frame pointer moved to byte `off` of the stack; no local
# ("map", name): a reference to the map in local `name`; no register local
# A register the block has not read yet has no kind: the thread holds it.

_load = struct.Struct("<Q").unpack_from
_store = struct.Struct("<Q").pack_into
_lookup = VmThread._helper_map_lookup_elem
_LOOKUP_KINDS = HELPER_PROTOS[Helper.MAP_LOOKUP_ELEM][0][0].kinds
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


def _on_first_entry(code, instructions, entry, targets, handlers):
    """Holds the place of the block at `entry` until it is first entered,
    then writes and compiles it and gives its place to it (or to the
    handler, when it would fuse nothing): a block never entered costs no
    compile."""
    block = None

    def first_entry(t, env):
        nonlocal block
        if block is None:
            writer = _BlockWriter(instructions, entry, targets)
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


def fused_pcs(instructions: tuple) -> set:
    """The pcs of `instructions` that some fused block runs inline."""
    entries, targets = _block_entries(instructions)
    return {pc for entry in entries
            for pc in _BlockWriter(instructions, entry, targets).fused}


def _is_fp(kind) -> bool:
    return type(kind) is tuple and kind[0] == "fp"


def _is_map(kind) -> bool:
    return type(kind) is tuple and kind[0] == "map"


class _BlockWriter:
    """The source of the block that starts at `entry`.

    Each instruction's precondition is checked where the compile-time
    kinds cannot prove it: operand types, initialised stack slots, a
    pointer the block can place.  Where it fails the block writes back
    its pointers, `pc` and `steps` and hands the instruction to its
    per-pc handler, so every fault and park comes from the checked code.
    At entry the block checks that it cannot cross `STEP_LIMIT`.
    """

    def __init__(self, instructions: tuple, entry: int, targets: set):
        self.entry = entry
        self.body: list[str] = []
        self.depth = 2
        self.kinds: dict = {FRAME_REG: ("fp", STACK_SIZE)}
        self.dirty: set = set()     # pointers the thread holds stale
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
            how = self.insn(pc, instructions[pc])
            if how is _HAND:
                self.hand_over(pc)
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

    def value(self, reg: int) -> str:
        """The expression that materialises the pointer in r{reg}."""
        kind = self.kinds[reg]
        if _is_fp(kind):
            self.uses.add("stk")
            return f"MemPtr(stk, {kind[1]})"
        return f"MapRef({kind[1]})"

    def leave(self, *lines: str):
        """Write back stale pointers, then `lines`."""
        for reg in sorted(self.dirty):
            self.emit(f"regs[{reg}] = {self.value(reg)}")
        for line in lines:
            self.emit(line)

    def hand_over(self, pc: int):
        self.leave(self.steps(self.done), f"t.pc = {pc}",
                   f"return _h[{pc}](t, env)")

    def guard(self, cond: str, pc: int):
        """Hand instruction `pc` to its handler when `cond` holds."""
        self.emit(f"if {cond}:")
        self.depth += 1
        self.hand_over(pc)
        self.depth -= 1

    def side_exit(self, cond: str, target: int):
        self.emit(f"if {cond}:")
        self.depth += 1
        self.leave(self.steps(self.done), f"return {target}")
        self.depth -= 1

    # -- registers ------------------------------------------------------

    def read(self, reg: int):
        kind = self.kinds.get(reg)
        if kind is None:
            self.emit(f"r{reg} = regs[{reg}]")
            kind = self.kinds[reg] = _ANY
        return kind

    def write(self, reg: int, kind, expr=None):
        """r{reg} becomes `expr`, in its local and in the thread; or,
        without one, a pointer of `kind` written back only on leaving."""
        self.kinds[reg] = kind
        if expr is None:
            self.dirty.add(reg)
        else:
            self.emit(f"regs[{reg}] = r{reg} = {expr}")
            self.dirty.discard(reg)

    def scalar(self, reg: int, pc: int) -> bool:
        """Whether r{reg} is a scalar from here on, guarding if need be."""
        if self.read(reg) in (_ANY, _NULLABLE):
            self.guard(f"type(r{reg}) is not int", pc)
            self.kinds[reg] = _INT
        return self.kinds[reg] is _INT

    # -- instructions ---------------------------------------------------

    def insn(self, pc: int, ins) -> str:
        op, dst, src, off, imm = ins
        if op in ALU_BASE:
            return self.alu(pc, ALU_BASE[op], op in IMM_FORM, dst, src, imm)
        if op in JUMP_BASE:
            return self.branch(pc, JUMP_BASE[op], op in IMM_FORM, dst, src,
                               imm, pc + 1 + off)
        if op == Opcode.JA:
            self.leave(self.steps(self.done), f"return {pc + 1 + off}")
            return _END
        if op == Opcode.LD_IMM64:
            if src == LD_IMM64_MAP_REF:
                return self.map_ref(pc, dst, imm)
            return _HAND if src else self.alu(pc, "mov", True, dst, 0, imm)
        if op == Opcode.LD_CTX:
            return self.ld_ctx(dst, off)
        if op == Opcode.LD_MAP:
            return self.ld_map(pc, dst, src, off)
        if op == Opcode.ST_MAP:
            return self.st_map(pc, dst, src, off)
        if op == Opcode.CALL:
            return self.call(pc, imm)
        if op == Opcode.TAIL_CALL:
            return self.through_handler(pc, TAIL_CALL_PROTO[1])
        if op == Opcode.EXIT:
            return self.exit(pc)
        return _HAND

    def alu(self, pc, base, imm_form, dst, src, imm) -> str:
        if dst == FRAME_REG:
            return _HAND
        rhs = str(imm & U64_MASK)
        if base == "mov" and not imm_form:
            kind = self.read(src)
            if kind is _UNSET:
                return _HAND
            if kind is _ANY:
                # the unset marker is a tuple, and so is r1's context,
                # whose copies are legal but rare: the handler takes both
                self.guard(f"type(r{src}) is tuple", pc)
            self.write(dst, kind, f"r{src}" if type(kind) is str else None)
            return _FUSED
        if base != "mov":
            kind = self.read(dst)
            if _is_fp(kind) and imm_form and base in ("add", "sub"):
                delta = _pointer_delta(base, imm & U64_MASK)
                self.write(dst, ("fp", kind[1] + delta))
                return _FUSED
            if not self.scalar(dst, pc):
                return _HAND
            if not imm_form:
                if not self.scalar(src, pc):
                    return _HAND
                rhs = f"r{src}"
        self.write(dst, _INT, _render(ALU_EXPRS[base], f"r{dst}", rhs))
        return _FUSED

    def branch(self, pc, base, imm_form, dst, src, imm, target) -> str:
        cond = COND_EXPRS[base]
        if imm_form and imm == 0 and base in ("jeq", "jne") \
                and self.read(dst) in (_NULLABLE, _PTR):
            # the null check on a lookup result: a memory pointer is
            # never null, and the only scalar here is 0
            if self.kinds[dst] is _PTR:
                if base == "jeq":
                    return _FUSED
                self.leave(self.steps(self.done), f"return {target}")
                return _END
            self.side_exit(f"type(r{dst}) is {'' if base == 'jeq' else 'not '}"
                           "int", target)
            self.kinds[dst] = _PTR if base == "jeq" else _INT
            return _FUSED
        if imm_form and imm == 0 and base in ("jeq", "jne") \
                and self.kinds[dst] is _ANY:
            # the same on a register of unknown type: any other
            # non-scalar faults
            self.emit(f"if type(r{dst}) is int:")
            self.depth += 1
            self.side_exit(_render(cond, f"r{dst}", "0"), target)
            self.depth -= 1
            if base == "jeq":
                self.emit(f"elif type(r{dst}) is not MemPtr:")
                self.depth += 1
                self.hand_over(pc)
                self.depth -= 1
                return _FUSED
            self.emit(f"elif type(r{dst}) is MemPtr:")
            self.depth += 1
            self.leave(self.steps(self.done), f"return {target}")
            self.depth -= 1
            self.emit("else:")
            self.depth += 1
            self.hand_over(pc)
            self.depth -= 1
            self.kinds[dst] = _INT      # only a zero falls through
            return _FUSED
        if not self.scalar(dst, pc):
            return _HAND
        rhs = str(imm & U64_MASK)
        if not imm_form:
            if not self.scalar(src, pc):
                return _HAND
            rhs = f"r{src}"
        self.side_exit(_render(cond, f"r{dst}", rhs), target)
        return _FUSED

    def map_ref(self, pc, dst, idx) -> str:
        if dst == FRAME_REG or idx < 0:
            return _HAND
        self.uses.add("maps")
        self.guard(f"len(maps) <= {idx}", pc)
        name = f"m{pc}"
        self.emit(f"{name} = maps[{idx}]")
        self.write(dst, ("map", name))
        return _FUSED

    def ld_ctx(self, dst, off) -> str:
        if CTX_FIELDS.get(off) is None or dst == FRAME_REG:
            return _HAND
        self.uses.add("c")
        if off:
            self.clear_pure()
        self.write(dst, _INT, _render(CTX_LOADS[off], "", ""))
        return _FUSED

    def frame_slot(self, kind, off):
        """The stack offset of an 8-byte access `off` bytes from a frame
        pointer, or None when the access faults."""
        at = kind[1] + off
        if at % 8 or at < 0 or at + 8 > STACK_SIZE:
            return None
        self.uses.add("stk")
        return at

    def place(self, pc, reg, off, for_write):
        """Locals b and a: the buffer and offset of an 8-byte access `off`
        bytes from the pointer in r{reg}, placed at run time."""
        self.uses.add("stk")
        if self.kinds[reg] is not _PTR:
            self.guard(f"type(r{reg}) is not MemPtr", pc)
            self.kinds[reg] = _PTR
        self.emit(f"b, a = r{reg}.buf, r{reg}.off + {off}")
        cond = "a & 7 or a < 0 or a + 8 > len(b)"
        if not for_write:
            cond += " or b is stk and not (t.stack_init >> (a >> 3)) & 1"
        self.guard(cond, pc)

    def ld_map(self, pc, dst, src, off) -> str:
        if dst == FRAME_REG:
            return _HAND
        kind = self.read(src)
        if _is_fp(kind):
            at = self.frame_slot(kind, off)
            if at is None:
                return _HAND
            self.guard(f"not t.stack_init & {1 << at // 8}", pc)
            self.write(dst, _INT, f"_load(stk, {at})[0]")
        elif kind in (_ANY, _NULLABLE, _PTR):
            self.place(pc, src, off, for_write=False)
            self.write(dst, _INT, "_load(b, a)[0]")
        else:
            return _HAND
        return _FUSED

    def st_map(self, pc, dst, src, off) -> str:
        kind = self.read(dst)
        if _is_fp(kind):
            at = self.frame_slot(kind, off)
            if at is None or not self.scalar(src, pc):
                return _HAND
            self.emit(f"_store(stk, {at}, r{src})")
            self.emit(f"t.stack_init |= {1 << at // 8}")
        elif kind in (_ANY, _NULLABLE, _PTR):
            self.place(pc, dst, off, for_write=True)
            if not self.scalar(src, pc):
                return _HAND
            self.emit(f"_store(b, a, r{src})")
            self.emit("if b is stk:")
            self.emit("    t.stack_init |= 1 << (a >> 3)")
        else:
            return _HAND
        return _FUSED

    def call(self, pc, imm) -> str:
        try:
            helper = Helper(imm)
        except ValueError:
            return _HAND
        if helper not in HELPER_PROTOS:
            return _HAND
        pmap, key = self.kinds.get(1), self.kinds.get(2)
        if helper is Helper.MAP_LOOKUP_ELEM and _is_map(pmap) \
                and _is_fp(key) and key[1] >= 0 and key[1] % 8 == 0:
            return self.lookup(pc, pmap[1], key[1])
        return self.through_handler(pc, HELPER_PROTOS[helper][1])

    def lookup(self, pc, pmap, at) -> str:
        """`map_lookup_elem` on a map and a key slot the block knows."""
        self.uses.add("stk")
        self.guard(f"{pmap}.kind not in _LOOKUP_KINDS", pc)
        self.emit(f"ks = {pmap}.key_size")
        self.guard(f"{at} + ks > {STACK_SIZE} or ~t.stack_init & "
                   f"(((1 << ((ks + 7) >> 3)) - 1) << {at // 8})", pc)
        self.clear_pure()
        self.write(0, _NULLABLE, f"_lookup(t, env, {pmap}, stk[{at}:{at} + ks])")
        self.emit("t.helper_calls += 1")
        self.clobbered()
        return _FUSED

    def through_handler(self, pc, returns) -> str:
        """A call made by the instruction's handler; the block goes on
        with what it leaves in r0..r5 unless it parked or handed off."""
        self.leave(self.steps(self.done), f"t.pc = {pc}")
        self.emit(f"if _h[{pc}](t, env) is None:")
        self.emit("    return None")
        self.emit("r0 = regs[0]")
        self.impure = True      # the handler cleared it
        self.dirty.clear()
        self.kinds[0] = _INT if returns == RET_SCALAR else _NULLABLE
        for reg in range(1, 6):
            self.kinds[reg] = _UNSET
        return _CALLED

    def clear_pure(self):
        if not self.impure:
            self.emit("t.pure = False")
            self.impure = True

    def clobbered(self):
        """r1..r5 after a call the block made itself."""
        self.emit("regs[1:6] = _CLOBBERED")
        for reg in range(1, 6):
            self.kinds[reg] = _UNSET
            self.dirty.discard(reg)

    def exit(self, pc) -> str:
        if not self.scalar(0, pc):
            return _HAND
        self.leave(self.steps(self.done), f"t.pc = {pc}", "t._finish(r0)",
                   "return None")
        return _END
