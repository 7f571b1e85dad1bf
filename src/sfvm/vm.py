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

A program is decoded once, on its first run, into a table of per-pc
handler closures with operand form, immediate, jump targets and
semantics (`isa.ALU_OPS`/`COND_OPS`) bound in, much as the kernel
interpreter dispatches through a jump table.  The table is cached on
the program and holds no thread state, so threads stay plain data.

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

from dataclasses import dataclass

from . import maps as m
from .isa import (
    ALU_BASE,
    ALU_OPS,
    ARG_BUF,
    ARG_KEY,
    ARG_VALUE,
    COND_OPS,
    CTX_FIELDS,
    FRAME_REG,
    FilterProgram,
    HELPER_NAMES,
    HELPER_PROTOS,
    Helper,
    IMM_FORM,
    JUMP_BASE,
    LD_IMM64_MAP_REF,
    MapArg,
    NUM_REGS,
    Opcode,
    STACK_SIZE,
    SyscallContext,
    TAIL_CALL_PROTO,
    U64_MASK,
)
from .state import stateful

MAX_TAIL_CALLS = 32
STEP_LIMIT = 1_000_000

_UNSET = ("uninit",)
_CTX = ("ctx",)


class VmFault(Exception):
    pass


@stateful(aliased="map")
@dataclass(frozen=True)
class MapRef:
    map: object


@stateful(aliased="buf", value="off")
@dataclass(frozen=True)
class MemPtr:
    """Pointer into a stack frame or a live map value."""
    buf: bytearray
    off: int


@dataclass(frozen=True)
class WaitBlock:
    target_nr: int


@dataclass(frozen=True)
class FaultServiceBlock:
    marker: tuple  # (addr, size)


@dataclass(frozen=True)
class VmOutcome:
    raw_action: int
    steps_executed: int
    helper_calls: int
    faulted: bool = False
    fault_reason: str = ""


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
# A handler returns the next pc, or None when the run loop must look at
# the thread again (exit, park, handoff).  Its fast path takes plain
# scalars (always canonical 64-bit words, so compares need no mask); any
# other operand goes to the checked semantics, which fault exactly as
# decoding each step would.

_PARKED = object()
_HANDED_OFF = object()
_CLOBBERED = [_UNSET] * 5     # r1..r5 after a call


def _compile(program: FilterProgram) -> tuple:
    program.compiled = tuple(
        _lower(pc, ins) for pc, ins in enumerate(program.instructions))
    return program.compiled


def _faulting(reason: str):
    def fault(t, env):
        raise VmFault(reason)
    return fault


def _lower(pc: int, ins):
    op, dst, src, off, imm = ins.opcode, ins.dst, ins.src, ins.offset, ins.imm
    nxt = pc + 1
    if op in ALU_BASE:
        return _lower_alu(ALU_BASE[op], op in IMM_FORM, dst, src, imm, nxt)
    if op in JUMP_BASE:
        return _lower_jump(COND_OPS[JUMP_BASE[op]], JUMP_BASE[op],
                           op in IMM_FORM, dst, src, imm, nxt, nxt + off)
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
        return _lower_mov_imm(dst, imm & U64_MASK, nxt)
    if op == Opcode.LD_CTX:
        if CTX_FIELDS.get(off) is None:
            return _faulting("context read is not field aligned")
        if off == 0:
            def ld_nr(t, env):
                t._set(dst, t.ctx.field(0))
                return nxt
            return ld_nr

        def ld_ctx(t, env):
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


def _lower_mov_imm(dst, value, nxt):
    if dst == FRAME_REG:
        return _faulting("frame register is read-only")

    def mov_imm(t, env):
        t.regs[dst] = value
        return nxt
    return mov_imm


def _lower_alu(base, imm_form, dst, src, imm, nxt):
    fn = ALU_OPS[base]
    b = imm & U64_MASK
    if imm_form and base == "mov":
        return _lower_mov_imm(dst, b, nxt)

    def checked(t, env):
        rhs = b if imm_form else t._get(src)
        if base == "mov":
            t._set(dst, rhs)
            return nxt
        lhs = t._get(dst)
        if isinstance(lhs, MemPtr) and base in ("add", "sub"):
            if not isinstance(rhs, int):
                raise VmFault("pointer arithmetic needs a scalar offset")
            delta = rhs if rhs < (1 << 63) else rhs - (1 << 64)
            if base == "sub":
                delta = -delta
            t._set(dst, MemPtr(lhs.buf, lhs.off + delta))
        elif isinstance(lhs, int) and isinstance(rhs, int):
            t._set(dst, fn(lhs, rhs))
        else:
            raise VmFault(f"{base} on non-scalar operands")
        return nxt

    # r10 always holds the frame pointer, so only a mov into it could
    # take a fast path; it must fault instead
    if base == "mov" and dst == FRAME_REG:
        return checked
    if imm_form:
        def alu_imm(t, env):
            regs = t.regs
            a = regs[dst]
            if type(a) is not int:
                return checked(t, env)
            regs[dst] = fn(a, b)
            return nxt
        return alu_imm

    def alu_reg(t, env):
        regs = t.regs
        a, v = regs[dst], regs[src]
        if type(a) is not int or type(v) is not int:
            return checked(t, env)
        regs[dst] = fn(a, v)
        return nxt
    return alu_reg


def _lower_jump(fn, base, imm_form, dst, src, imm, nxt, taken):
    b = imm & U64_MASK

    def checked(t, env):
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

    if imm_form:
        def jump_imm(t, env):
            a = t.regs[dst]
            if type(a) is not int:
                return checked(t, env)
            return taken if fn(a, b) else nxt
        return jump_imm

    def jump_reg(t, env):
        regs = t.regs
        a, v = regs[dst], regs[src]
        if type(a) is not int or type(v) is not int:
            return checked(t, env)
        return taken if fn(a, v) else nxt
    return jump_reg
