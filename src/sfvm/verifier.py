"""Static safety checker for filter programs.

A program of at most `MAX_INSTRUCTIONS` instructions is accepted only if
abstract interpretation of its control flow proves, within
`STEP_BUDGET` abstract steps, that every path:

  * reads the syscall context only in whole, naturally aligned fields,
  * calls only helpers declared in `isa.HELPER_PROTOS`, with arguments
    of the declared types,
  * keeps every jump inside the program,
  * never reads an uninitialized register or stack slot,
  * terminates at `exit` with a scalar in r0 (a `tail_call` may hand off
    earlier; its fall-through edge, taken when the target entry is
    missing, is verified too),
  * passes program-array maps, and only those, to `tail_call`
    (`isa.TAIL_CALL_PROTO`).

The abstract domain is deliberately small: registers are tracked as
unknown scalars, known constants, or typed pointers (context, frame,
map handle, map value), and stack slots carry one initialized bit per
8-byte unit.  One abstract step (`_Walker.successors`) gives every
continuation of one instruction: a branch whose condition involves an
unknown value goes both ways, a branch over known constants follows the
one real edge, which is what lets counted loops verify.

The control-flow graph is built once per program.  Code from which no
cycle can be reached is proven in one forward pass in topological order
that joins states where paths merge (after the kernel verifier's
pruning, Documentation/bpf/verifier.rst): equal tags stay, mixed scalars
become unknown, other mismatches uninitialized, and a stack slot stays
initialized only if both paths wrote it.  The pass starts at pc 0 of a
loop-free program, or where the walk below leaves a pc that can reach a
cycle for one that cannot (a loop's exit); n independent diamonds then
cost 2n steps, not 2**n paths.  Joins only lose facts, so the pass
proves only what the walk would.

Everything else is a depth-first walk of abstract paths: around loops,
and below any state the pass failed on, so every rejection, its reason
and its pc are the walk's (`_walk`).  If an abstract state repeats on
the current path the program cannot be proven terminating and is
rejected; likewise if the walk exhausts the step budget.  The pass has a
budget of its own, so the one verdict it changes is a loop-free region
too large for the walk's budget: it now verifies.  Accepted programs
execute within the budget at run time, at the price of rejecting some
terminating programs (e.g. loops bounded only by values unknown at
verification time).

Every state the pass or the walk reaches at a pc is joined into that
pc's fact, and an accepted program keeps them (`FilterProgram.facts`,
after the kernel's per-instruction `bpf_insn_aux_data`).  Since the
states reached cover every state a run can reach, so does each fact; the
interpreter writes its fused blocks from the facts and tests none of
them at run time (see `vm`).  A pc no state reached has no fact.

Pointer discipline matches the generated-policy subset rather than the
full kernel verifier: pointers may be copied and offset by known
constants, never spilled to the stack, compared (except null checks on
a map-lookup result), or returned.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .isa import (
    ALU_BASE,
    ALU_OPS,
    ARG_BUF,
    ARG_INDEX,
    ARG_KEY,
    ARG_SCALAR,
    COND_OPS,
    CTX_FIELDS,
    FilterProgram,
    HELPER_NAMES,
    HELPER_PROTOS,
    IMM_FORM,
    JUMP_BASE,
    JUMPS,
    LD_IMM64_MAP_REF,
    MapArg,
    NO_FALL_THROUGH,
    NUM_REGS,
    Opcode,
    RET_MAP_VALUE_OR_NULL,
    STACK_SIZE,
    TAIL_CALL_PROTO,
    U64_MASK,
)

MAX_INSTRUCTIONS = 100_000
STEP_BUDGET = 1_000_000

# abstract register tags
UNINIT = ("X",)
UNKNOWN = ("U",)
CTX_PTR = ("C",)


def known(v):
    return ("K", v)


def stack_ptr(off):
    return ("S", off)


def map_ref(idx):
    return ("M", idx)


def map_value(idx, off):
    return ("V", idx, off)


def null_or_value(idx):
    return ("N", idx)


_SCALARS = ("K", "U")


@dataclass
class VerifierReport:
    accepted: bool
    reason: str = ""
    offending_instruction: int | None = None
    notes: dict = field(default_factory=dict)
    abstract_steps: int = 0
    joined_states: int = 0      # region entries the joined pass proved
    walked_states: int = 0      # states the path walk expanded
    facts: dict = field(default_factory=dict, repr=False)   # see `verify`

    def to_json(self) -> dict:
        return {
            "accepted": self.accepted,
            "reason": self.reason,
            "offending_instruction": self.offending_instruction,
            "abstract_steps": self.abstract_steps,
            "joined_states": self.joined_states,
            "walked_states": self.walked_states,
            "notes": {str(k): v for k, v in sorted(self.notes.items())},
        }


class _Violation(Exception):
    def __init__(self, pc: int, reason: str):
        super().__init__(reason)
        self.pc = pc
        self.reason = reason


class _Walker:
    def __init__(self, program: FilterProgram):
        self.program = program
        self.insns = program.instructions
        self.visits: dict[int, int] = {}
        self.facts: dict = {}       # pc -> the join of every state at it
        self.joined_steps = 0
        self.joined_states = 0

    def report(self, walked, reason=None, pc=None):
        return VerifierReport(reason is None, reason or "", pc,
                              notes=dict(self.visits),
                              abstract_steps=self.joined_steps + walked,
                              joined_states=self.joined_states,
                              walked_states=walked, facts=self.facts)

    def joined_pass(self, rank, pc, state):
        """Prove (pc, state) in one pass over the acyclic region below it,
        in topological order, joining states where paths merge.  False if
        a joined state violates or the pass's budget runs out."""
        pending = {pc: state}
        heap = [(-rank[pc], pc)]
        try:
            while heap:
                _, pc = heapq.heappop(heap)
                self.joined_steps += 1
                if self.joined_steps > STEP_BUDGET:
                    return False
                for nxt, succ in self.successors(pc, pending.pop(pc)):
                    if nxt not in rank:     # falls off the program end
                        return False
                    if nxt in pending:
                        pending[nxt] = _join(pending[nxt], succ)
                    else:
                        pending[nxt] = succ
                        heapq.heappush(heap, (-rank[nxt], nxt))
        except _Violation:
            return False
        self.joined_states += 1
        return True

    # -- state helpers ------------------------------------------------

    @staticmethod
    def entry_state():
        regs = [UNINIT] * NUM_REGS
        regs[1] = CTX_PTR
        regs[10] = stack_ptr(0)
        return (tuple(regs), 0)

    def read_reg(self, pc, state, idx):
        val = state[0][idx]
        if val == UNINIT:
            raise _Violation(pc, f"read of uninitialized register r{idx}")
        return val

    @staticmethod
    def write_reg(state, idx, val):
        regs, stack_init = state
        if idx == 10:
            raise _Violation(-1, "frame register is read-only")
        new = list(regs)
        new[idx] = val
        return (tuple(new), stack_init)

    def stack_window(self, pc, total_off, size, what):
        """Slot range for a [total_off, total_off+size) stack access."""
        if total_off % 8 != 0:
            raise _Violation(pc, f"{what}: stack access not 8-byte aligned")
        if total_off < -STACK_SIZE or total_off + size > 0:
            raise _Violation(pc, f"{what}: stack access out of bounds")
        first = (STACK_SIZE + total_off) // 8
        last = (STACK_SIZE + total_off + size - 1) // 8
        return range(first, last + 1)

    # -- the abstract step --------------------------------------------

    def successors(self, pc, state):
        """All (pc, state) continuations of one instruction.

        Raises _Violation when the instruction can misbehave.
        """
        if pc < 0 or pc >= len(self.insns):
            raise _Violation(pc, "control falls off program end")
        self.visits[pc] = self.visits.get(pc, 0) + 1
        seen = self.facts.get(pc)
        self.facts[pc] = state if seen is None else _join(seen, state)
        ins = self.insns[pc]
        op = ins.opcode

        if op in ALU_BASE:
            return self._alu(pc, ins, state)
        if op in JUMP_BASE:
            return self._cond_jump(pc, ins, state)
        if op == Opcode.JA:
            return [(self._target(pc, ins.offset), state)]
        if op == Opcode.LD_IMM64:
            if ins.src == LD_IMM64_MAP_REF:
                if not 0 <= ins.imm < len(self.program.map_refs):
                    raise _Violation(pc, "reference to undeclared map")
                return [(pc + 1, self.write_reg(state, ins.dst, map_ref(ins.imm)))]
            if ins.src != 0:
                raise _Violation(pc, "bad ld_imm64 source flag")
            value = ins.imm & U64_MASK
            return [(pc + 1, self.write_reg(state, ins.dst, known(value)))]
        if op == Opcode.LD_CTX:
            width = CTX_FIELDS.get(ins.offset)
            if width is None:
                if 0 <= ins.offset < 64:
                    raise _Violation(pc, "context read is not field aligned")
                raise _Violation(pc, "context read out of bounds")
            return [(pc + 1, self.write_reg(state, ins.dst, UNKNOWN))]
        if op == Opcode.LD_MAP:
            return self._ld_map(pc, ins, state)
        if op == Opcode.ST_MAP:
            return self._st_map(pc, ins, state)
        if op in (Opcode.CALL, Opcode.TAIL_CALL):
            return self._call(pc, ins, state)
        if op == Opcode.EXIT:
            r0 = self.read_reg(pc, state, 0)
            if r0[0] not in _SCALARS:
                raise _Violation(pc, "r0 must hold a scalar at exit")
            return []
        raise _Violation(pc, f"unhandled opcode {op!r}")

    def _target(self, pc, offset):
        target = pc + 1 + offset
        if not 0 <= target < len(self.insns):
            raise _Violation(pc, "jump target out of range")
        return target

    def _alu(self, pc, ins, state):
        base = ALU_BASE[ins.opcode]
        rhs = known(ins.imm & U64_MASK) if ins.opcode in IMM_FORM \
            else self.read_reg(pc, state, ins.src)

        if base == "mov":
            return [(pc + 1, self.write_reg(state, ins.dst, rhs))]

        lhs = self.read_reg(pc, state, ins.dst)
        if lhs[0] in ("S", "V") and base in ("add", "sub"):
            if rhs[0] != "K":
                raise _Violation(pc, "pointer arithmetic with unknown offset")
            delta = rhs[1] if rhs[1] < (1 << 63) else rhs[1] - (1 << 64)
            if base == "sub":
                delta = -delta
            if lhs[0] == "S":
                return [(pc + 1, self.write_reg(state, ins.dst,
                                                stack_ptr(lhs[1] + delta)))]
            return [(pc + 1, self.write_reg(state, ins.dst,
                                            map_value(lhs[1], lhs[2] + delta)))]
        if lhs[0] not in _SCALARS or rhs[0] not in _SCALARS:
            raise _Violation(pc, f"{base} on non-scalar operands")
        if lhs[0] == "K" and rhs[0] == "K":
            return [(pc + 1, self.write_reg(state, ins.dst,
                                            known(ALU_OPS[base](lhs[1], rhs[1]))))]
        return [(pc + 1, self.write_reg(state, ins.dst, UNKNOWN))]

    def _cond_jump(self, pc, ins, state):
        base = JUMP_BASE[ins.opcode]
        lhs = self.read_reg(pc, state, ins.dst)
        rhs = known(ins.imm & U64_MASK) if ins.opcode in IMM_FORM \
            else self.read_reg(pc, state, ins.src)
        taken_pc = self._target(pc, ins.offset)

        # null-check refinement on a maybe-null map value
        if lhs[0] == "N" and rhs == known(0) and base in ("jeq", "jne"):
            as_null = self.write_reg(state, ins.dst, known(0))
            as_value = self.write_reg(state, ins.dst, map_value(lhs[1], 0))
            if base == "jeq":
                return [(pc + 1, as_value), (taken_pc, as_null)]
            return [(pc + 1, as_null), (taken_pc, as_value)]

        if lhs[0] not in _SCALARS or rhs[0] not in _SCALARS:
            raise _Violation(pc, "conditional jump on non-scalar operands")
        if lhs[0] == "K" and rhs[0] == "K":
            # known values are canonical words, as in the interpreter
            if COND_OPS[base](lhs[1], rhs[1]):
                return [(taken_pc, state)]
            return [(pc + 1, state)]
        return [(pc + 1, state), (taken_pc, state)]

    def _deref_bounds(self, pc, ins, ptr, what):
        """Validate an 8-byte access through `ptr` + ins.offset."""
        if ptr[0] == "S":
            total = ptr[1] + ins.offset
            window = self.stack_window(pc, total, 8, what)
            return ("stack", (STACK_SIZE + total) // 8, window)
        if ptr[0] == "V":
            decl = self.program.map_refs[ptr[1]]
            total = ptr[2] + ins.offset
            if total % 8 != 0:
                raise _Violation(pc, f"{what}: map value access not 8-byte aligned")
            if total < 0 or total + 8 > decl.value_size:
                raise _Violation(pc, f"{what}: map value access out of bounds")
            return ("mapval", None, None)
        if ptr[0] == "N":
            raise _Violation(pc, f"{what}: possibly-null pointer dereference")
        raise _Violation(pc, f"{what}: not a memory pointer")

    def _ld_map(self, pc, ins, state):
        ptr = self.read_reg(pc, state, ins.src)
        kind, slot, window = self._deref_bounds(pc, ins, ptr, "ld_map")
        if kind == "stack":
            _, stack_init = state
            for s in window:
                if not stack_init & (1 << s):
                    raise _Violation(pc, "read of uninitialized stack slot")
        return [(pc + 1, self.write_reg(state, ins.dst, UNKNOWN))]

    def _st_map(self, pc, ins, state):
        ptr = self.read_reg(pc, state, ins.dst)
        val = self.read_reg(pc, state, ins.src)
        if val[0] not in _SCALARS:
            raise _Violation(pc, "pointer spill to memory is not supported")
        kind, slot, window = self._deref_bounds(pc, ins, ptr, "st_map")
        regs, stack_init = state
        if kind == "stack":
            for s in window:
                stack_init |= 1 << s
        return [(pc + 1, (regs, stack_init))]

    def _call(self, pc, ins, state):
        """Check r1.. against the declared argument types.  A `tail_call`
        whose entry is missing at run time continues like a call."""
        if ins.opcode == Opcode.TAIL_CALL:
            name, (args, ret) = "tail_call", TAIL_CALL_PROTO
        else:
            name = HELPER_NAMES.get(ins.imm, ins.imm)
            if ins.imm not in HELPER_PROTOS:
                raise _Violation(pc, f"helper {name} is not in the whitelist")
            args, ret = HELPER_PROTOS[ins.imm]
        map_idx = None
        for reg, arg in enumerate(args, 1):
            if arg == ARG_BUF:
                size = self.read_reg(pc, state, reg + 1)
                if size[0] != "K":
                    raise _Violation(
                        pc, f"{name}: byte count must be a known constant")
                size = size[1]
                if size <= 0 or size % 8 != 0:
                    raise _Violation(pc, f"{name}: byte count must be a "
                                         "positive multiple of 8")
            val = self.read_reg(pc, state, reg)
            if isinstance(arg, MapArg):
                if val[0] != "M":
                    raise _Violation(
                        pc, f"{name}: r{reg} must be a map reference")
                kind = self.program.map_refs[val[1]].kind
                if kind not in arg.kinds:
                    raise _Violation(
                        pc, f"{name}: map kind {kind.name.lower()} not accepted;"
                            f" {name} requires {arg.what} map")
                map_idx = val[1]
            elif arg in (ARG_SCALAR, ARG_INDEX):
                if val[0] not in _SCALARS:
                    raise _Violation(pc, f"{name}: r{reg} must be a {arg}")
            else:   # stack bytes: the helper fills a buffer, reads the rest
                if arg != ARG_BUF:
                    decl = self.program.map_refs[map_idx]
                    size = decl.key_size if arg == ARG_KEY else decl.value_size
                if val[0] != "S":
                    raise _Violation(
                        pc, f"{name}: r{reg} must point into the stack")
                regs, stack_init = state
                for s in self.stack_window(pc, val[1], size, name):
                    if arg == ARG_BUF:
                        stack_init |= 1 << s
                    elif not stack_init & (1 << s):
                        raise _Violation(
                            pc, f"{name}: stack argument not fully initialized")
                state = (regs, stack_init)
        r0 = null_or_value(map_idx) if ret == RET_MAP_VALUE_OR_NULL \
            else UNKNOWN
        return [(pc + 1, _after_call(state, r0))]


def _after_call(state, r0):
    """r0 holds the result; r1..r5 are clobbered."""
    regs, stack_init = state
    return ((r0,) + (UNINIT,) * 5 + regs[6:], stack_init)


def _join(a, b):
    """One state covering both where two paths merge: a register keeps an
    equal tag, a scalar mix becomes unknown and any other mismatch
    uninitialized; a stack slot stays initialized only if both agree."""
    if a == b:
        return a
    regs = tuple(x if x == y else UNKNOWN
                 if x[0] in _SCALARS and y[0] in _SCALARS else UNINIT
                 for x, y in zip(a[0], b[0]))
    return (regs, a[1] & b[1])


def _acyclic_ranks(insns):
    """Rank every pc that reaches no cycle so that edges go from higher
    ranks to lower; the pcs left out can reach one.  Edges out of the
    program are dropped and left to the abstract step to reject."""
    n = len(insns)
    preds = [[] for _ in range(n)]
    outdeg = [0] * n
    for pc, ins in enumerate(insns):
        op = ins.opcode
        if op not in NO_FALL_THROUGH and pc + 1 < n:
            preds[pc + 1].append(pc)
            outdeg[pc] += 1
        if op in JUMPS and 0 <= pc + 1 + ins.offset < n:
            preds[pc + 1 + ins.offset].append(pc)
            outdeg[pc] += 1
    # peel sinks: whatever never becomes one lies on or above a cycle
    sinks = [pc for pc in range(n) if not outdeg[pc]]
    rank = {}
    while sinks:
        pc = sinks.pop()
        rank[pc] = len(rank)
        for p in preds[pc]:
            outdeg[p] -= 1
            if not outdeg[p]:
                sinks.append(p)
    return rank


def verify(program: FilterProgram) -> VerifierReport:
    """Check `program`; on acceptance its `facts` (per pc, the join of
    every abstract state reached there, or None where none was) are set,
    which makes it `verified`."""
    report = _search(program, joined=True)
    if report.accepted:
        program.facts = tuple(map(report.facts.get,
                                  range(len(program.instructions))))
    return report


def _walk(program: FilterProgram) -> VerifierReport:
    """The path walk alone: the oracle whose verdicts `verify` keeps."""
    return _search(program, joined=False)


def _search(program, joined):
    if len(program.instructions) == 0:
        return VerifierReport(False, "program is empty", None)
    if len(program.instructions) > MAX_INSTRUCTIONS:
        return VerifierReport(
            False, f"program exceeds {MAX_INSTRUCTIONS} instructions", None)
    for decl in program.map_refs:
        try:
            decl.validate()
        except ValueError as exc:
            return VerifierReport(False, f"bad map declaration: {exc}", None)

    walker = _Walker(program)
    rank = _acyclic_ranks(walker.insns) if joined else {}
    entry = (0, walker.entry_state())

    # iterative DFS: `on_path` detects abstract-state cycles, `completed`
    # memoizes subtrees already proven terminating, by the walk or by the
    # joined pass at an acyclic region's entry
    frames = [[entry, None, 0]]
    on_path = {entry}
    completed = set()
    steps = 0

    try:
        if 0 in rank and walker.joined_pass(rank, *entry):
            frames.clear()
        while frames:
            frame = frames[-1]
            (pc, state), succs, idx = frame
            if succs is None:
                steps += 1
                if steps > STEP_BUDGET:
                    raise _Violation(
                        pc, "termination not proven within step budget"
                    )
                frame[1] = succs = walker.successors(pc, state)
            if idx >= len(succs):
                frames.pop()
                on_path.discard((pc, state))
                completed.add((pc, state))
                continue
            frame[2] += 1
            nxt = succs[idx]
            if nxt in completed:
                continue
            if nxt in on_path:
                raise _Violation(
                    pc, "unbounded loop: abstract state repeats on a path"
                )
            if nxt[0] in rank and pc not in rank \
                    and walker.joined_pass(rank, *nxt):
                completed.add(nxt)
                continue
            on_path.add(nxt)
            frames.append([nxt, None, 0])
    except _Violation as v:
        return walker.report(steps, v.reason, v.pc if v.pc >= 0 else pc)
    return walker.report(steps)
