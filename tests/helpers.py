"""Hand tools shared by the test modules: context builders, one-call
policy attachment, a small trace runner, program generators, the
reference interpreter that the fused blocks are checked against, a
reference explorer with a corpus of small races to check it against, and
a corpus of generator specs."""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import sys
from copy import copy, deepcopy
from dataclasses import replace
from importlib.resources import files
from pathlib import Path

from sfvm.asm import assemble, disassemble
from sfvm.engine import Engine, EngineConfig
from sfvm.isa import (
    ALU_BASE,
    ALU_OPS,
    ARG_BUF,
    ARG_KEY,
    ARG_VALUE,
    COND_OPS,
    CTX_FIELDS,
    HELPER_NAMES,
    HELPER_PROTOS,
    I16_MAX,
    I16_MIN,
    I64_MAX,
    I64_MIN,
    IMM_FORM,
    JUMP_BASE,
    LD_IMM64_MAP_REF,
    TAIL_CALL_PROTO,
    U64_MASK,
    FilterProgram,
    Helper,
    Instruction,
    MapArg,
    MapDecl,
    MapKind,
    Opcode,
    STACK_SIZE,
    SyscallContext,
    decode_program,
    encode_program,
)
from sfvm.maps import instantiate
from sfvm.policies import (
    gen_allow_all,
    gen_allowlist,
    gen_count_limit,
    gen_denylist,
    gen_flow_integrity,
    gen_phase_baseline,
    gen_rate_limit,
    gen_serialization,
    gen_temporal,
    gen_validation_cache,
    load_profiles,
)
from sfvm.scenarios import (
    _strip_policies,
    bundled_scenario_names,
    decision_windows_overlap,
    load_bundled_scenario,
    overlapping_schedules,
)
from sfvm.sim import (
    MAX_EXPLORE_STEPS,
    Simulator,
    explore_graph,
    explore_interleavings,
)
from sfvm.snapshot import DescriptorTable
from sfvm.trace import parse_trace
from sfvm.usermem import UserMemory
from sfvm import state, vm
from sfvm.verifier import verify
from sfvm.vm import MapRef, MemPtr, RuntimeEnv, VmFault, VmThread


def ctx(nr, *args, addr=0):
    padded = (tuple(args) + (0,) * 6)[:6]
    return SyscallContext(nr=nr, args=padded, calling_address=addr)


def bundled_descriptors() -> DescriptorTable:
    raw = json.loads((files("sfvm") / "data" / "descriptors.json")
                     .read_text())
    return DescriptorTable.from_json(raw)


def attach(engine: Engine, program, tid=None) -> int:
    """Spawn a no-new-privs task (unless given one) and install."""
    if tid is None:
        tid = engine.spawn(nnp=True)
    engine.install(tid, engine.load(tid, program))
    return tid


def probe(engine: Engine, tid: int, c: SyscallContext) -> dict:
    """One full enter/exit cycle; leaves the task between syscalls."""
    record = engine.run_syscall(tid, c)
    if record["action"] in ("allow", "log"):
        engine.syscall_exit(tid)
    else:
        engine.task(tid).denied_enter = False
    return record


def trace_text(events) -> str:
    return "\n".join(json.dumps(ev) for ev in events)


def run_trace(events, **kwargs) -> Simulator:
    sim = Simulator(parse_trace(trace_text(events)), **kwargs)
    sim.run()
    return sim


def decisions(entries, task=None, nr=None, markers=True):
    out = []
    for e in entries:
        if e["kind"] != "decision":
            continue
        if not markers and e.get("marker"):
            continue
        if task is not None and e["task"] != task:
            continue
        if nr is not None and e["nr"] != nr:
            continue
        out.append(e)
    return out


def fuzz_source(rng: random.Random) -> str:
    """Criterion 5's fuzz program: straight-line ALU and context reads
    with short forward branches, always verifiable and fault-free."""
    lines = ["section seccomp"]
    for reg in range(6):
        lines.append(f"    mov r{reg}, {rng.randint(-1000, 1000)}")
    label = 0
    body = rng.randint(8, 22)
    while body > 0:
        pick = rng.random()
        a = rng.randint(0, 5)
        if pick < 0.35:
            op = rng.choice(["add", "sub", "mul", "and", "or", "xor"])
            lines.append(f"    {op} r{a}, {rng.randint(-2**20, 2**20)}")
        elif pick < 0.55:
            op = rng.choice(["add", "sub", "mul", "and", "or", "xor"])
            lines.append(f"    {op} r{a}, r{rng.randint(0, 5)}")
        elif pick < 0.65:
            op = rng.choice(["lsh", "rsh"])
            lines.append(f"    {op} r{a}, {rng.randint(0, 63)}")
        elif pick < 0.85:
            lines.append(f"    ld_ctx r{a}, {rng.choice(sorted(CTX_FIELDS))}")
        elif body >= 3:
            # a forward branch over a couple of plain ops; both sides
            # of the branch keep running toward the same exit
            op = rng.choice(["jeq", "jne", "jgt", "jlt", "jset"])
            skip = rng.randint(1, 2)
            lines.append(f"    {op} r{a}, {rng.randint(0, 64)}, f{label}")
            for _ in range(skip):
                lines.append(f"    add r{rng.randint(0, 5)},"
                             f" {rng.randint(0, 99)}")
                body -= 1
            lines.append(f"f{label}:")
            label += 1
        body -= 1
    lines.append("    exit")
    return "\n".join(lines) + "\n"


def every_generator() -> list:
    """One or two programs from each policy generator."""
    profile = load_profiles()["httpd"]
    return [
        gen_allow_all(),
        gen_allowlist([0, 1, 2], layout="linear"),
        gen_allowlist(list(range(64)), layout="tree"),
        gen_allowlist([0, 1, 2], layout="hash"),
        gen_denylist([1, 9], layout="linear"),
        gen_denylist([1, 9], layout="hash"),
        gen_count_limit(2, 2),
        gen_count_limit(1, 2, arg_index=0, arg_value=3),
        gen_rate_limit(0, 100, 2),
        gen_serialization({25: [77], 77: [25]}),
        gen_temporal(profile),
        gen_phase_baseline(profile, "serv"),
        gen_flow_integrity([1, 2], [[None, 1], [1, 2], [2, 1]],
                           origins={2: [0x401000]}, deny="errno:3"),
        gen_validation_cache({0: {1: [8, 16]}, 2: {0: [0x1000]}}),
        gen_validation_cache({0: {1: [8, 16]}}, cached=False),
    ]


# -- the verifier soundness corpus --------------------------------------------

SOUND_MAPS = ("map arr array 8 16 4\n"
              "map tab hash 8 8 4\n"
              "map sto task_storage 8 8 4\n"
              "map progs prog_array 8 8 2\n")
USER_BASE = 0x10000         # random contexts point into [USER_BASE, +2 pages)

_BREAKS = [
    "mov r0, r{uninit}",                    # uninitialized register
    "ld_map r6, r10, -72",                  # never-written stack slot
    "st_map r10, r6, -12",                  # misaligned stack access
    "st_map r10, r6, -520",                 # stack access out of bounds
    "ld_ctx r6, 12",                        # context read off a field
    "ld_imm64 r1, map:arr\nmov r2, 0\ntail_call",   # not a program array
    "mov r1, r10\nadd r1, -8\nld_ctx r2, 16\nld_ctx r3, 24\n"
    "call safe_read_user",                  # unknown byte count
    "mov r1, r10\nadd r1, -8\nmov r2, 12\nld_ctx r3, 24\n"
    "call safe_read_user",                  # byte count not a multiple of 8
    "mov r2, r10\nadd r2, -80\nld_imm64 r1, map:tab\n"
    "call map_lookup_elem",                 # key bytes never written
    "mov r6, r10\nadd r6, r6",              # pointer plus unknown offset
    "jne r6, r10, {label}\n{label}:",       # pointer in a comparison
    "st_map r10, r6, -8\nmov r2, r10\nadd r2, -8\nld_imm64 r1, map:tab\n"
    "call map_lookup_elem\nld_map r0, r0, 0",   # no null check
    "st_map r10, r6, -8\nmov r2, r10\nadd r2, -8\nld_imm64 r1, map:tab\n"
    "call map_lookup_elem\njeq r0, 0, {label}\nld_map r0, r0, 8\n"
    "{label}:",                             # past the end of the value
]

# (before, one side of a branch, after the merge): a fault on one path
# only, or on none when a known condition skips the side that breaks it
_MERGE_BREAKS = [
    ("mov r3, 5", "call ktime_get_ns", "mov r0, r3"),      # clobbered
    ("mov r7, 1", "mov r7, r10", "st_map r10, r7, -8"),    # became a pointer
    ("call ktime_get_ns", "ld_ctx r4, 24", "mov r0, r4"),  # set on one side
    ("mov r0, 0", "st_map r10, r6, -72", "ld_map r0, r10, -72"),
    ("mov r7, 3", "mov r7, 4",                             # known per path
     "jne r7, 4, {label}\nmov r0, r5\n{label}:"),
]


class _SoundGen:
    """Builds one program out of fragments, tracking which registers hold
    scalars and which stack slots (offsets from r10) are written, and
    where paths merge keeping only what both sides have."""

    def __init__(self, rng: random.Random, tail: bool):
        self.rng = rng
        self.tail = tail
        self.lines = ["section seccomp", SOUND_MAPS.rstrip("\n")]
        self.scalars = set()
        self.slots = set()
        self.labels = 0

    def emit(self, text: str):
        self.lines.extend("    " + ln if not ln.endswith(":") else ln
                          for ln in text.split("\n"))

    def label(self) -> str:
        self.labels += 1
        return f"L{self.labels}"

    def scalar(self) -> str:
        return f"r{self.rng.choice(sorted(self.scalars))}"

    def called(self, r0_scalar=True):
        self.scalars -= {0, 1, 2, 3, 4, 5}
        if r0_scalar:
            self.scalars.add(0)

    def stack_arg(self, reg: int, off: int):
        self.emit(f"mov r{reg}, r10\nadd r{reg}, {off}")

    def spill(self, off: int):
        self.emit(f"st_map r10, {self.scalar()}, {off}")
        self.slots.add(off)

    # -- fragments: each leaves the tracked facts true on every path ----

    def alu(self):
        rng = self.rng
        dst = rng.choice([0, 6, 7, 8, 9])
        if dst not in self.scalars or rng.random() < 0.3:
            self.emit(f"mov r{dst}, {rng.randint(-50, 50)}")
        else:
            op = rng.choice(["add", "sub", "mul", "and", "or", "xor",
                             "lsh", "rsh"])
            rhs = self.scalar() if rng.random() < 0.4 \
                else str(rng.randint(0, 40))
            self.emit(f"{op} r{dst}, {rhs}")
        self.scalars.add(dst)

    def ctx(self):
        dst = self.rng.choice([6, 7, 8, 9])
        self.emit(f"ld_ctx r{dst}, {self.rng.choice(sorted(CTX_FIELDS))}")
        self.scalars.add(dst)

    def stack(self):
        if self.slots and self.rng.random() < 0.5:
            dst = self.rng.choice([6, 7, 8, 9])
            off = self.rng.choice(sorted(self.slots))
            self.emit(f"ld_map r{dst}, r10, {off}")
            self.scalars.add(dst)
        else:
            self.spill(-8 * self.rng.randint(1, 8))

    def lookup(self):
        rng = self.rng
        name, size = rng.choice([("tab", 8), ("arr", 16)])
        self.spill(-8)
        self.stack_arg(2, -8)
        self.emit(f"ld_imm64 r1, map:{name}\ncall map_lookup_elem")
        self.called(r0_scalar=False)
        out = self.label()
        self.emit(f"jeq r0, 0, {out}")
        off = 8 * rng.randrange(size // 8)
        if rng.random() < 0.5:
            self.emit(f"ld_map r0, r0, {off}")
        else:
            self.emit(f"st_map r0, {self.scalar()}, {off}\nmov r0, 1")
        self.emit(f"{out}:")

    def helper(self):
        rng = self.rng
        pick = rng.randrange(6)
        if pick == 0:
            name, value = rng.choice([("tab", 1), ("arr", 2)])
            self.spill(-8)
            for i in range(value):
                self.spill(-16 - 8 * i)
            self.stack_arg(2, -8)
            self.stack_arg(3, -8 - 8 * value)
            self.emit(f"mov r4, 0\nld_imm64 r1, map:{name}\n"
                      "call map_update_elem")
        elif pick == 1:
            self.spill(-8)
            self.stack_arg(2, -8)
            self.emit("ld_imm64 r1, map:tab\ncall map_delete_elem")
        elif pick == 2:
            self.emit("call ktime_get_ns")
        elif pick == 3:
            size = 8 * rng.randint(1, 3)
            off = -8 * rng.randint(size // 8, 8)
            name = rng.choice(["safe_read_user", "safe_read_user_str"])
            self.stack_arg(1, off)
            self.emit(f"mov r2, {size}\nld_ctx r3, {rng.choice([16, 24])}\n"
                      f"call {name}")
            self.slots |= {off + 8 * i for i in range(size // 8)}
        elif pick == 4:
            out = self.label()
            self.emit(f"ld_imm64 r1, map:sto\nmov r2, {rng.randint(0, 1)}\n"
                      f"call safe_task_storage_get\njeq r0, 0, {out}\n"
                      f"ld_map r0, r0, 0\n{out}:")
            self.called(r0_scalar=False)
            return
        else:
            self.emit(rng.choice(["ld_imm64 r1, map:sto\n"
                                  "call safe_task_storage_delete",
                                  "ld_ctx r1, 0\nmov r2, 77\n"
                                  "call wait_syscall"]))
        self.called()

    def tail_call(self):
        index = self.scalar() if self.rng.random() < 0.3 \
            else str(self.rng.randint(0, 2))
        self.emit(f"mov r2, {index}\nld_imm64 r1, map:progs\ntail_call")
        self.called()

    def branch(self, depth: int):
        rng = self.rng
        op = rng.choice(["jeq", "jne", "jgt", "jlt", "jset"])
        rhs = self.scalar() if rng.random() < 0.3 else str(rng.randint(0, 9))
        skip = self.label()
        self.emit(f"{op} {self.scalar()}, {rhs}, {skip}")
        before = (set(self.scalars), set(self.slots))
        if rng.random() < 0.2:
            self.emit(f"mov r0, {rng.randint(0, 3)}\nexit")
        else:
            self.body(depth + 1, rng.randint(1, 3))
            before = (before[0] & self.scalars, before[1] & self.slots)
        self.emit(f"{skip}:")
        self.scalars, self.slots = before

    def loop(self):
        rng = self.rng
        counter = rng.choice([6, 7, 8, 9])
        top = self.label()
        self.emit(f"mov r0, 0\nmov r{counter}, 0\n{top}:")
        self.scalars |= {0, counter}
        if rng.random() < 0.5:      # a diamond inside: paths double per turn
            bit = self.label()
            self.emit(f"jset {self.scalar()}, {1 << rng.randrange(8)}, {bit}\n"
                      f"add r0, 1\n{bit}:")
        self.emit(f"add r{counter}, 1\njlt r{counter}, {rng.randint(1, 4)},"
                  f" {top}")

    def body(self, depth: int, count: int):
        kinds = [self.alu, self.ctx, self.stack, self.lookup, self.helper]
        if self.tail:
            kinds.append(self.tail_call)
        for _ in range(count):
            pick = self.rng.random()
            if pick < 0.15 and depth < 2:
                self.branch(depth)
            elif pick < 0.22 and depth == 0:
                self.loop()
            else:
                self.rng.choice(kinds)()

    def breakage(self):
        if self.rng.random() < 0.5:
            before, side, after = self.rng.choice(_MERGE_BREAKS)
            skip = self.label()
            cond = self.rng.choice(["ld_ctx r9, 16", "mov r9, 3"])
            self.emit(f"{before}\n{cond}\njeq r9, 3, {skip}\n{side}\n"
                      f"{skip}:\n" + after.format(label=self.label()))
            self.scalars = (self.scalars - {0, 1, 2, 3, 4, 5, 7}) | {9}
            return
        # r1..r5 are never tracked as scalars; r6 always is
        self.emit(self.rng.choice(_BREAKS).format(
            uninit=self.rng.randint(1, 5), label=self.label()))

    def finish(self) -> str:
        r0 = self.scalar() if self.rng.random() < 0.3 \
            else self.rng.choice([0, 0x7FFF0000])
        self.emit(f"mov r0, {r0}\nexit")
        return "\n".join(self.lines) + "\n"


def soundness_program(rng: random.Random, tail: bool = True):
    """A program for the verifier's soundness properties, with its map
    declarations: spills and fills through r10, map lookups with a null
    check, the other helpers with stack arguments, tail calls into a
    program array, forward branches on known and unknown values, counted
    loops and looped diamonds.  About one in four is deliberately broken
    once (`_BREAKS`, `_MERGE_BREAKS`, or a loop bounded only by an
    unknown value); the rest should verify.  Returns (source, program)."""
    gen = _SoundGen(rng, tail)
    gen.emit("mov r6, 0")
    gen.scalars.add(6)
    count = rng.randint(3, 9)
    breaks_at = rng.randrange(count) if rng.random() < 0.25 else None
    for i in range(count):
        if i == breaks_at:
            if rng.random() < 0.15:
                spin = gen.label()
                gen.emit(f"ld_ctx r7, 16\n{spin}:\nadd r7, 0\n"
                         f"jne r7, 0, {spin}")
                gen.scalars.add(7)
            else:
                gen.breakage()
        gen.body(0, 1)
    source = gen.finish()
    program = assemble(source)
    if tail:
        target = soundness_program(rng, tail=False)[1]
        if verify(target).accepted:
            decls = [replace(d, initial_programs={0: target})
                     if d.kind == MapKind.PROG_ARRAY else d
                     for d in program.map_refs]
            program = replace(program, map_refs=tuple(decls))
    return source, program


def soundness_inputs(rng: random.Random, program):
    """Random maps, context, user memory and environment for one run."""
    prog_maps = instantiate(program)
    nested = [pm.get_program(i) for pm in prog_maps
              if pm.kind == MapKind.PROG_ARRAY for i in range(pm.max_entries)]
    for pmap in prog_maps + [m for entry in nested if entry for m in entry[1]]:
        if pmap.kind in (MapKind.ARRAY, MapKind.HASH):
            for _ in range(rng.randint(0, 4)):
                pmap.update(rng.randrange(6).to_bytes(8, "little"),
                            rng.randbytes(pmap.value_size))
        elif pmap.kind == MapKind.TASK_STORAGE and rng.random() < 0.5:
            pmap.storage_get(1, create=True)[:] = rng.randbytes(8)
    mem = UserMemory()
    mem.map_region(USER_BASE, 2 * 4096)
    mem.write(USER_BASE, rng.randbytes(2 * 4096))
    c = SyscallContext(
        nr=rng.choice([0, 1, 2, 77, rng.randint(-2**31, 2**31 - 1)]),
        args=tuple(rng.choice([USER_BASE + rng.randrange(8192),
                               rng.randint(0, 2**64 - 1), rng.randint(0, 9)])
                   for _ in range(6)),
        calling_address=rng.randint(0, 2**64 - 1))
    env = RuntimeEnv(clock_ns=rng.randint(0, 2**40), usermem=mem,
                     user_access_allowed=rng.random() < 0.7, leader_tid=1)
    return prog_maps, c, env


def soundness_faults(rng: random.Random, program, runs: int) -> list:
    """Fault reasons of `runs` random runs of a verified program.  Hitting
    `vm.STEP_LIMIT` after a handoff is excused: the limit counts steps
    across a tail-call chain, the verifier bounds each program alone."""
    faults = []
    for _ in range(runs):
        prog_maps, c, env = soundness_inputs(rng, program)
        thread = VmThread(program, prog_maps, c)
        if thread.run(env) != "done":
            faults.append("run did not finish")
        elif thread.outcome.faulted and not (
                thread.outcome.fault_reason == "step limit exceeded"
                and thread.tail_depth > 0):
            faults.append(thread.outcome.fault_reason)
    return faults


# -- the reference interpreter ----------------------------------------------
#
# The interpreter that the fused blocks replaced, kept as their oracle:
# one checked handler per pc, a closure with operand form, immediate,
# jump targets and semantics (`isa.ALU_OPS`/`COND_OPS`) bound in, which
# re-checks every structural rule the verifier enforces and faults with a
# reason.  So it runs programs without facts too.  `code[pc]` returns the
# next pc, or None when the run loop must look at the thread again (exit,
# park, handoff); the loop counts one step for each pc returned.

def programs_within(program) -> list:
    """`program` and every handoff target its map declarations hold."""
    out = [program]
    for decl in program.map_refs:
        for target in decl.initial_programs.values():
            out += programs_within(target)
    return out


class ReferenceThread(VmThread):
    """A `VmThread` run one instruction at a time on the checked per-pc
    handlers (`reference_lowering`), verified or not.  Its state key is a
    `VmThread`'s."""

    @staticmethod
    def _admit(program: FilterProgram):
        pass    # the checked handlers run a program without facts too

    def lowering(self, program) -> tuple:
        return reference_lowering(program.instructions)

    def run(self, env: RuntimeEnv) -> str:
        limit = vm.STEP_LIMIT
        while not self.done:
            if self.block is not None:
                return "blocked"
            code = self.lowering(self.program)
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
            except Exception as exc:    # fail closed, as `VmThread` does
                self._fault(f"{type(exc).__name__}: {exc}")
        return "done"

    # -- checked accessors ------------------------------------------------

    def _get(self, idx: int):
        v = self.regs[idx]
        if v is vm._UNSET or v == vm._UNSET:
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

    def _map(self, idx: int, kinds):
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
        VmThread._write_mem(self, MemPtr(ptr.buf, pos), data)


@functools.lru_cache(maxsize=256)
def reference_lowering(instructions: tuple) -> tuple:
    """The checked per-pc handlers of a program with `instructions`."""
    return tuple(_lower(pc, ins) for pc, ins in enumerate(instructions))


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
        if result is vm._PARKED:
            return None     # no step, no pc move: resuming re-calls
        t.helper_calls += 1
        if result is vm._HANDED_OFF:
            t.steps += 1
            return None
        t.regs[1:6] = vm._CLOBBERED
        t.regs[0] = result
        return nxt
    return call


def _with_args(body, args):
    """`body` as a function of (thread, env) that checks and fetches its
    declared arguments in register order."""
    map_reg = next((reg for reg, arg in enumerate(args, 1)
                    if isinstance(arg, MapArg)), None)
    fetch = [_arg_fetcher(reg, arg, map_reg)
             for reg, arg in enumerate(args, 1)]
    return lambda t, env: body(t, env, *[f(t) for f in fetch])


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
            t._set(dst, MemPtr(lhs.buf,
                               lhs.off + vm._pointer_delta(base, rhs)))
        elif isinstance(lhs, int) and isinstance(rhs, int):
            t._set(dst, fn(lhs, rhs))
        else:
            raise VmFault(f"{base} on non-scalar operands")
        return nxt
    return alu


def _lower_jump(base, imm_form, dst, src, imm, nxt, taken):
    fn = COND_OPS[base]
    b = imm & U64_MASK

    def jump(t, env):
        lhs = t._get(dst)
        rhs = b if imm_form else t._get(src)
        if isinstance(lhs, (MemPtr, MapRef)) or lhs == vm._CTX:
            # only the null check on a maybe-null lookup result is legal
            if base not in ("jeq", "jne") or rhs != 0 \
                    or not isinstance(lhs, MemPtr):
                raise VmFault("comparison on non-scalar operands")
            return taken if base == "jne" else nxt
        if isinstance(lhs, int) and isinstance(rhs, int):
            return taken if fn(lhs, rhs) else nxt
        raise VmFault("comparison on non-scalar operands")
    return jump


def _covers(tag: tuple, value, thread) -> bool:
    """Whether the verifier's register tag `tag` (see `verifier`) holds of
    `value`, a register of `thread`."""
    kind = tag[0]
    if kind == "X":
        return True
    if kind in ("K", "U"):
        return type(value) is int and (kind == "U" or value == tag[1])
    if kind == "S":
        return isinstance(value, vm.MemPtr) and value.buf is thread.stack \
            and value.off == STACK_SIZE + tag[1]
    if kind == "N" and type(value) is int:
        return value == 0
    if kind in ("V", "N"):
        return isinstance(value, vm.MemPtr) \
            and value.buf is not thread.stack \
            and (kind == "N" or value.off == tag[2])
    if kind == "M":
        return isinstance(value, vm.MapRef) \
            and value.map is thread.maps[tag[1]]
    return kind == "C" and value is vm._CTX


def facts_faults(rng: random.Random, program, runs: int) -> list:
    """Every state that `runs` random runs of a verified `program`, on the
    reference interpreter, reach at a pc and that the program's `facts`
    there do not cover: a register whose tag does not hold of it, or a
    slot the facts mark initialised that is not."""
    faults = []

    def checked(p, pc, handler):
        def step(t, env):
            fact = p.facts[pc]
            if fact is None:
                faults.append(f"pc {pc}: reached, but has no facts")
                return handler(t, env)
            tags, init = fact
            faults.extend(f"pc {pc}: r{reg} is {value!r}, not {tag}"
                          for reg, (tag, value) in enumerate(zip(tags, t.regs))
                          if not _covers(tag, value, t))
            if init & ~t.stack_init:
                faults.append(f"pc {pc}: slots {init & ~t.stack_init:#x} "
                              "are not initialised")
            return handler(t, env)
        return step

    lowered = {id(p): tuple(checked(p, pc, h) for pc, h in enumerate(
        reference_lowering(p.instructions))) for p in programs_within(program)}

    class Checked(ReferenceThread):
        def lowering(self, p):
            return lowered[id(p)]

    for _ in range(runs):
        prog_maps, c, env = soundness_inputs(rng, program)
        Checked(program, prog_maps, c).run(env)
    return faults


def read_registers(ins) -> tuple:
    """The registers `ins` reads as operands."""
    op = ins.opcode
    src = () if op in IMM_FORM else (ins.src,)
    if op in ALU_BASE:
        return src if ALU_BASE[op] == "mov" else (ins.dst,) + src
    if op in JUMP_BASE:
        return (ins.dst,) + src
    if op == Opcode.CALL:
        return tuple(range(1, len(HELPER_PROTOS[ins.imm][0]) + 1))
    return {Opcode.LD_MAP: (ins.src,), Opcode.ST_MAP: (ins.dst, ins.src),
            Opcode.TAIL_CALL: (1, 2), Opcode.EXIT: (0,)}.get(op, ())


def untyped_operands(program) -> list:
    """(pc, register) of each operand that a verified `program` reads at a
    reached pc whose fact joins it to X, so that the fused block reads it
    from the thread."""
    return [(pc, reg) for pc, (ins, fact) in enumerate(zip(
        program.instructions, program.facts)) if fact is not None
        for reg in read_registers(ins) if fact[0][reg][0] == "X"]


def fused_blocks(program) -> list:
    """The fused blocks in `program`'s lowering, and the places held for
    the ones not yet entered."""
    return [f for f in program.compiled or () if f is not None]


def same_verdict(a, b) -> bool:
    return (a.accepted, a.reason, a.offending_instruction) \
        == (b.accepted, b.reason, b.offending_instruction)


# -- the encoding and assembly round trips -------------------------------------

def fields_used(op: Opcode) -> set:
    """The instruction fields `op` gives a meaning to, written down apart
    from `isa.INSNS` so that tests can check the table against it."""
    name = op.name
    if name.endswith(("_IMM", "_REG")):
        used = {"dst", "imm" if name.endswith("_IMM") else "src"}
        return used | {"offset"} if name.startswith("J") else used
    return {"LD_IMM64": {"dst", "src", "imm"}, "LD_CTX": {"dst", "offset"},
            "LD_MAP": {"dst", "src", "offset"},
            "ST_MAP": {"dst", "src", "offset"},
            "JA": {"offset"}, "CALL": {"imm"}}.get(name, set())


def _random_imm(rng: random.Random) -> int:
    return rng.choice([0, 1, -1, 9, 10, I64_MIN, I64_MAX,
                       rng.randint(-100, 100), rng.randint(I64_MIN, I64_MAX)])


def decodable_program(rng: random.Random) -> FilterProgram:
    """A random program the decoder accepts, verifiable or not: every
    opcode in both forms, jump targets before, inside, at and past the
    end, `map:` references, helpers by name and by number.  Fields the
    opcode does not use stay zero."""
    maps = tuple(MapDecl(f"m{i}", rng.choice(list(MapKind)), 8, 8,
                         rng.randint(1, 4))
                 for i in range(rng.randint(0, 3)))
    n = rng.randint(1, 12)
    insns = []
    for pc in range(n):
        op = rng.choice(list(Opcode))
        used = fields_used(op)
        fields = {f: 0 for f in ("dst", "src", "offset", "imm")}
        for f in used:
            fields[f] = rng.randrange(11) if f in ("dst", "src") \
                else rng.randint(I16_MIN, I16_MAX) if f == "offset" \
                else _random_imm(rng)
        if op.name.startswith("J") and rng.random() < 0.8:
            fields["offset"] = rng.randint(-3, n + 3) - (pc + 1)
        if op is Opcode.LD_IMM64:
            fields["src"] = int(bool(maps) and rng.random() < 0.5)
            if fields["src"]:
                fields["imm"] = rng.randrange(len(maps))
        if op is Opcode.CALL and rng.random() < 0.8:
            fields["imm"] = rng.randrange(12)
        insns.append(Instruction(op, **fields))
    return FilterProgram(instructions=tuple(insns),
                         sleepable=rng.random() < 0.5, map_refs=maps)


def round_trip_faults(program: FilterProgram) -> list:
    """How `program` fails to survive encode/decode or disassemble/
    assemble: the decoded program must encode to the same bytes, and both
    copies must carry the same instructions, section and map shapes."""
    faults = []
    raw = encode_program(program)
    back = decode_program(raw)
    if encode_program(back) != raw or back.instructions \
            != program.instructions:
        faults.append("decode(encode(p)) differs from p")
    text = disassemble(program)
    try:
        again = assemble(text)
    except ValueError as exc:
        return faults + [f"disassembly does not assemble: {exc}\n{text}"]
    if again.instructions != program.instructions \
            or again.sleepable != program.sleepable \
            or _shapes(again) != _shapes(program):
        faults.append(f"assemble(disassemble(p)) differs from p\n{text}")
    return faults


def _shapes(program):
    return [(d.name, d.kind, d.key_size, d.value_size, d.max_entries)
            for d in program.map_refs]


# -- exploration oracle ------------------------------------------------------

def reference_explore(trace, config=None, descriptors=None) -> list:
    """Every schedule of `trace` as (schedule, entries) pairs, the plain
    way: a deep copy for every child, no memo, nothing stepped in place.
    `explore_interleavings` must return the same list, in the same
    order."""
    def futures(sim):
        runnable = sim.runnable_tasks()
        if not runnable:
            before = len(sim.entries)
            sim.finalize()
            return [((), sim.entries[before:])]
        out = []
        for tid in runnable:
            child = deepcopy(sim)
            before = len(child.entries)
            child.step(tid)
            head = child.entries[before:]
            out += [((tid,) + rest, head + tail)
                    for rest, tail in futures(child)]
        return out

    base = Simulator(trace, config=config, descriptors=descriptors)
    return [(list(choices), base.entries + suffix)
            for choices, suffix in futures(base)]


_LEAVES = frozenset({int, str, bytes, bool, float, type(None)})
_ALIAS = {state.SHARED: None, state.VALUE: False, state.OWNED: False,
          state.ALIASED: True}


def _numbered(t) -> bool:
    """Whether an object's identity is state: a bytearray, or an instance
    of a declared class that is neither a `Record` nor frozen."""
    if t is bytearray:
        return True
    params = getattr(t, "__dataclass_params__", None)
    return t in state.DECLARED and not issubclass(t, state.Record) \
        and not getattr(params, "frozen", False)


def reference_copy(v, memo):
    """A deep copy of `v` by the roles of `sfvm.state`, walked generically:
    the reference that the copies `state.stateful` generates per class
    must agree with."""
    t = type(v)
    if t in _LEAVES:
        return v
    done = memo.get(id(v))
    if done is not None:
        return done
    if t is tuple:
        return tuple([reference_copy(x, memo) for x in v])
    if t is list:
        out = [reference_copy(x, memo) for x in v]
    elif t is dict:
        out = {k: reference_copy(x, memo) for k, x in v.items()}
    elif t is set or t is bytearray:
        out = t(v)
    elif t in state.DECLARED:
        out = memo[id(v)] = object.__new__(t)
        for name, role in state.DECLARED[t]:
            value = getattr(v, name)
            object.__setattr__(out, name, (
                value if role == state.SHARED else
                reference_copy(value, memo) if role in _ALIAS else
                copy(value)))
        return out
    else:
        return v
    memo[id(v)] = out
    return out


def reference_key(v, seen, alias):
    """The fingerprint of `v` by the roles of `sfvm.state`, walked
    generically (`alias` None for a shared value, True for an aliased
    one): the reference that the keys `state.stateful` generates per
    class must equal, as tuples."""
    t = type(v)
    if t in _LEAVES:
        return v
    if alias is not None:
        if t is tuple or t is list:
            return tuple([reference_key(x, seen, alias) for x in v])
        if t is dict:
            return tuple([(k, reference_key(v[k], seen, alias))
                          for k in state._sorted(v)])
        if t is set:
            return tuple(state._sorted(v))
        if alias and _numbered(t):
            n = seen.get(id(v))
            if n is not None:
                return (state._REF, n)
            seen[id(v)] = n = len(seen)
            return (state._REF, n, reference_key(v, seen, False))
        if t is bytearray:
            return bytes(v)
        if t in state.DECLARED:
            return (t, *[reference_key(getattr(v, name), seen, _ALIAS[role])
                         for name, role in state.DECLARED[t]
                         if role in _ALIAS])
    return v if t.__hash__ is not None else id(v)


RACES = 60      # the seeded races that exploration is checked on


def explore_corpus() -> list:
    """(name, events, config) of every exploration that the checks at
    each branch point run on: each bundled explore scenario, with its
    policies and without, and the first `RACES` races of `race_trace`."""
    out = []
    for name in bundled_scenario_names():
        spec = load_bundled_scenario(name)
        if spec.get("mode") == "explore":
            out += [(name, spec["trace"], None),
                    (f"{name}-stripped", _strip_policies(spec["trace"]), None)]
    for seed in range(RACES):
        events, config = race_trace(random.Random(seed))
        out.append((f"race-{seed}", events, config))
    return out


def explore_branch_points(events, config, visit) -> tuple[dict, set]:
    """Explore `events`, calling `visit(sim, state_key)` at each branch
    point before any child steps (with the unspied `state_key`).  Returns
    what each visit returned, by the schedule that led to its branch
    point, and the schedules of the branch points that exploration
    keyed."""
    runnable, key = Simulator.runnable_tasks, Simulator.state_key
    visits, keyed = {}, set()

    def spied_runnable(sim):
        got = runnable(sim)
        if len(got) > 1:
            visits[tuple(sim.schedule)] = visit(sim, key)
        return got

    def spied_key(sim):
        keyed.add(tuple(sim.schedule))
        return key(sim)

    Simulator.runnable_tasks, Simulator.state_key = spied_runnable, spied_key
    try:
        explore_interleavings(parse_trace(trace_text(events)), config,
                              bundled_descriptors())
    finally:
        Simulator.runnable_tasks, Simulator.state_key = runnable, key
    return visits, keyed


RACE_PAGE = 0x8000          # stored to by the corpus, and read by write(2)
RACE_NRS = (1, 28, 101)     # write(2) snapshots 64 bytes at its arg 1


def race_trace(rng: random.Random) -> tuple[list, EngineConfig]:
    """A small race: the root (CAP_SYS_ADMIN) stores into `RACE_PAGE`,
    installs an allow_all, count_limit or serialization policy and spawns
    one or two children, processes or threads.  Then the tasks issue
    syscalls, stores and external map updates, at most 10 schedulable
    events in all.  Half the traces snapshot by write protection, so a
    thread's store stalls while a sibling's write(2) holds the page; a
    count_limit may kill, and the kill drains the victim and its
    threads."""
    a, b = rng.sample(RACE_NRS, 2)
    kind = rng.choice(("allow_all", "count_limit", "serialization"))
    if kind == "count_limit":
        policy = {"generator": kind, "nr": a, "max": rng.randrange(2),
                  "deny": rng.choice(("errno:1", "kill_process"))}
    elif kind == "serialization":
        policy = {"generator": kind, "pairs": {str(a): [b], str(b): [a]}}
    else:
        policy = {"generator": kind}
    events = [
        {"event": "spawn", "tid": 1, "nnp": True, "caps": ["CAP_SYS_ADMIN"]},
        {"event": "mem_write", "task": 1, "addr": RACE_PAGE, "value_u64": 1},
        {"event": "load", "task": 1, "handle": "h", "policy": policy},
        {"event": "install", "task": 1, "handle": "h"},
    ]
    tids = [1]
    for tid in range(2, 3 + rng.randrange(2)):
        events.append({"event": rng.choice(("spawn", "spawn_thread")),
                       "task": 1, "tid": tid})
        tids.append(tid)
    budget = 10 - (len(events) - 1)
    while budget:
        tid, what = rng.choice(tids), rng.randrange(4)
        if what < 2 and budget >= 2:
            events += [{"event": "syscall_enter", "task": tid,
                        "nr": rng.choice((a, b)),
                        "args": [5, RACE_PAGE, 64]},
                       {"event": "syscall_exit", "task": tid}]
            budget -= 2
            continue
        if what == 3:
            # a counter reset, a serialization pair rewritten, or (for
            # allow_all) an update of a map that is not there
            name, key, value, size = (
                ("partners", a, b, 16) if kind == "serialization"
                else ("counter", 0, rng.randrange(2), 8))
            events.append({"event": "map_update", "task": tid,
                           "target": rng.choice(tids), "install": 0,
                           "map": name,
                           "key_hex": key.to_bytes(8, "little").hex(),
                           "value_hex": value.to_bytes(size, "little").hex()})
        else:
            events.append({"event": "mem_write", "task": tid,
                           "addr": RACE_PAGE + 8 * rng.randrange(4),
                           "value_u64": rng.randrange(1 << 16)})
        budget -= 1
    mode = rng.choice(("copy", "write_protect"))
    return events, EngineConfig(snapshot_mode=mode)


def explore_disagreements(trace, config=None, descriptors=None,
                          max_steps=MAX_EXPLORE_STEPS) -> list:
    """How exploration departs from `reference_explore`, and how an
    explored log departs from replaying its schedule from scratch; empty
    when all agree.  The explored graph must count the reference's
    schedules and, for every pair of syscall numbers in the trace, the
    schedules that `decision_windows_overlap` finds overlapping in the
    reference's logs."""
    want = reference_explore(trace, config, descriptors)
    problems = []
    try:
        got = explore_interleavings(trace, config, descriptors,
                                    max_steps=max_steps)
        graph = explore_graph(trace, config, descriptors,
                              max_steps=max_steps)
    except Exception as exc:    # a crash is a disagreement too
        problems.append(f"raised {exc!r}")
    else:
        if got != want:
            at = next((i for i, (g, w) in enumerate(zip(got, want))
                       if g != w), min(len(got), len(want)))
            problems.append(f"{len(got)} schedules against {len(want)}, "
                            f"first apart at {at}")
        if graph.schedules != len(want):
            problems.append(f"the graph counts {graph.schedules} schedules "
                            f"against {len(want)}")
        nrs = sorted({ev["nr"] for queue in trace.queues.values()
                      for ev in queue if "nr" in ev.fields})
        for pair in itertools.combinations_with_replacement(nrs, 2):
            counted = overlapping_schedules(graph, pair)
            overlapping = sum(decision_windows_overlap(entries, pair)
                              for _, entries in want)
            if counted != overlapping:
                problems.append(f"the graph counts {counted} schedules "
                                f"overlapping {pair} against {overlapping}")
    for schedule, entries in want:
        again = Simulator(trace, config=config, descriptors=descriptors,
                          schedule=schedule).run()
        if again.entries != entries:
            problems.append(f"replaying {schedule} logs otherwise")
    return problems


def serialization_chain(calls: int) -> dict:
    """An explore scenario of a chained serialization race: task 1 loads
    and installs a filter that makes 10 and 11, and 11 and 12, exclude
    each other, then spawns tasks 2, 3 and 4, which inherit it and make
    `calls` syscalls each (an enter and an exit) of number 10, 11 and 12.
    Checks that neither pair overlaps, and that 10 and 11 do without the
    filter."""
    events = [
        {"event": "spawn", "tid": 1, "nnp": True},
        {"event": "load", "task": 1, "handle": "h",
         "policy": {"generator": "serialization",
                    "pairs": {"10": [11], "11": [10, 12], "12": [11]}}},
        {"event": "install", "task": 1, "handle": "h"},
        *({"event": "spawn", "task": 1, "tid": tid} for tid in (2, 3, 4)),
    ]
    for tid, nr in ((2, 10), (3, 11), (4, 12)):
        events += [{"event": "syscall_enter", "task": tid, "nr": nr},
                   {"event": "syscall_exit", "task": tid}] * calls
    return {"name": f"chain-3x{calls}", "mode": "explore", "max_steps": 40,
            "trace": events,
            "checks": [{"check": "no_overlap", "pair": [10, 11]},
                       {"check": "no_overlap", "pair": [11, 12]},
                       {"check": "overlap_without_policy", "pair": [10, 11]}]}


def linear_extensions(events: list) -> int:
    """The schedules of a trace whose every event takes one step, by the
    hook length formula for forests: n! over the product of the subtree
    sizes, where an event's parent is the one before it in its task's
    queue, or for a task's first event the spawn that made the task."""
    parent, last, sizes = {}, {}, {}
    for i, ev in enumerate(events):
        if "task" not in ev:
            continue            # a root, spawned before any scheduling
        sizes[i] = 1
        if ev["task"] in last:
            parent[i] = last[ev["task"]]
        last[ev["task"]] = i
        if ev["event"] in ("spawn", "spawn_thread"):
            last[ev["tid"]] = i
    for i in sorted(parent, reverse=True):      # parents come first
        sizes[parent[i]] += sizes[i]
    return math.factorial(len(sizes)) // math.prod(sizes.values())


def every_field_trace() -> list:
    """A trace in which each event kind carries each field that
    `trace.EVENTS` declares for it, and the run reads every one: restores
    by id and by blob, loads by spec and by blob, a store that races a
    write(2) snapshot, and a map update that reaches its map."""
    engine = Engine()
    admin = engine.spawn(caps=["CAP_SYS_ADMIN"])
    attach(engine, gen_count_limit(1, 2), admin)
    blob = engine.checkpoint(admin)
    return [
        {"event": "spawn", "tid": 1, "uid": 0, "caps": ["CAP_SYS_ADMIN"],
         "nnp": False, "dumpable": True},
        {"event": "spawn", "task": 1, "tid": 2, "uid": 1000, "caps": [],
         "nnp": True, "dumpable": False, "dt_ns": 10},
        {"event": "set_nnp", "task": 2, "dt_ns": 1},
        {"event": "set_dumpable", "task": 2, "value": True, "dt_ns": 1},
        {"event": "set_caps", "task": 2, "caps": ["CAP_SYS_PTRACE"],
         "dt_ns": 1},
        {"event": "load", "task": 2, "handle": "limit",
         "policy": {"generator": "count_limit", "nr": 1, "max": 1}},
        {"event": "install", "task": 2, "handle": "limit", "dt_ns": 1},
        {"event": "new_userns", "task": 2, "dt_ns": 1},
        {"event": "load", "task": 1, "handle": 0, "dt_ns": 1,
         "program_hex": encode_program(gen_count_limit(1, 2)).hex()},
        {"event": "install", "task": 1, "handle": 0},
        {"event": "spawn_thread", "task": 1, "tid": 3, "dt_ns": 1},
        {"event": "syscall_enter", "task": 1, "nr": 1,
         "args": [5, RACE_PAGE, 64], "addr": 4096, "dt_ns": 5},
        {"event": "mem_write", "task": 3, "addr": RACE_PAGE,
         "data_hex": "00ff", "dt_ns": 1},
        {"event": "syscall_exit", "task": 1, "dt_ns": 1},
        {"event": "mem_write", "task": 3, "addr": RACE_PAGE + 8,
         "value_u64": 5, "dt_ns": 1},
        {"event": "map_update", "task": 1, "target": 3, "install": 0,
         "dt_ns": 1, "map": "counter", "key_hex": "00" * 8,
         "value_hex": "00" * 8},
        {"event": "phase_marker", "task": 1, "nr": 1, "args": [5],
         "addr": 0, "dt_ns": 1},
        {"event": "checkpoint", "task": 1, "id": "c", "dt_ns": 1},
        {"event": "restore", "task": 1, "id": "c", "dt_ns": 1},
        {"event": "restore", "task": 1, "blob_hex": blob.hex()},
        {"event": "syscall_enter", "task": 2, "nr": 1, "args": [5]},
        {"event": "syscall_exit", "task": 2},
    ]


# -- generator specs ----------------------------------------------------------

BENCH_DIR = str(Path(__file__).resolve().parent.parent / "bench")
# the specs that tests/test_policies.py and demos/02_stateful_policies.py
# build, one or two of each generator
TEST_SPECS = [
    {"generator": "allow_all"},
    {"generator": "allowlist", "allowed": [1, 2], "layout": "tree"},
    {"generator": "denylist", "denied": [3]},
    {"generator": "count_limit", "nr": 7, "max": 2},
    {"generator": "rate_limit", "nr": 7, "rate": 1, "capacity": 1},
    {"generator": "temporal", "profile": "redis"},
    {"generator": "temporal",
     "profile": {"init": [[0, 3]], "serv": [[2, 4]], "marker": 9}},
    {"generator": "flow_integrity", "syscalls": [10, 20],
     "transitions": [[None, 10], [10, 20]]},
    {"generator": "serialization", "pairs": {"42": [77]}},
    {"generator": "validation_cache",
     "rules": {"7": {"0": [1]}}, "cached": False},
    {"generator": "count_limit", "nr": 250, "max": 3, "deny": "errno:1"},
    {"generator": "rate_limit", "nr": 42, "rate": 2, "capacity": 2,
     "deny": "errno:11"},
]


def specs_within(value) -> list:
    """Every generator spec nested anywhere in `value`, in order."""
    if isinstance(value, dict):
        if "generator" in value:
            return [value]
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [spec for item in value for spec in specs_within(item)]
    return []


def spec_corpus() -> list:
    """The valid generator specs of the bundled scenarios, `TEST_SPECS`,
    the exploration corpus, `every_field_trace` and the benchmark's
    workload inputs at seeds 1 and 1009, in that order."""
    out = specs_within([load_bundled_scenario(name)
                        for name in bundled_scenario_names()])
    out += TEST_SPECS
    out += specs_within([race_trace(random.Random(seed))[0]
                         for seed in range(60)])
    out += specs_within(every_field_trace())
    sys.path.insert(0, BENCH_DIR)
    try:
        import workloads
        for seed in (1, 1009):
            rng = random.Random(seed)
            out += specs_within([
                workloads.stateless_inputs(seed, False),
                workloads.stateful_inputs(seed, False),
                workloads.load_inputs(seed, False),
                [workloads.family_race(rng, i) for i in range(16)]])
    finally:
        sys.path.remove(BENCH_DIR)
    return out
