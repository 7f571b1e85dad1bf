"""Instruction set, syscall context, and the binary program format.

The filter machine is a small 64-bit register VM patterned after eBPF:

  * eleven registers r0..r10; r10 is the read-only frame pointer for a
    512-byte per-invocation stack,
  * helper calls take arguments in r1..r5 and return in r0; r1..r5 are
    clobbered by a call, r6..r9 are preserved,
  * r1 holds the syscall context at entry,
  * every instruction is a fixed 16-byte record in the on-disk format.

Filters observe a 64-byte syscall context with the classic seccomp-data
layout: nr (4 bytes), arch (4), calling address (8), six 8-byte
arguments.  `ld_ctx` is the only way to read it and must load exactly
one whole field.

Each instruction is described once, in `INSNS`, for the assembler, the
disassembler, the decoder and the verifier's control-flow graph.  ALU
mnemonics come in register and immediate forms; the assembler picks the
variant from the operand, but the two forms are distinct opcodes so the
wire format stays unambiguous.
"""

from __future__ import annotations

import operator
import re
import struct
from collections import namedtuple
from dataclasses import dataclass, field
from enum import IntEnum

PROGRAM_MAGIC = b"SFVM"
PROGRAM_VERSION = 1

STACK_SIZE = 512
NUM_REGS = 11
FRAME_REG = 10

CTX_SIZE = 64
# offset -> width of the one field that starts there
CTX_FIELDS = {0: 4, 4: 4, 8: 8, 16: 8, 24: 8, 32: 8, 40: 8, 48: 8, 56: 8}

AUDIT_ARCH_X86_64 = 0xC000003E

U64_MASK = (1 << 64) - 1

# max_entries * (key + value) bound per map: arrays are preallocated
MAX_MAP_BYTES = 1 << 20
# program-array depth bound: deeper than 32 handoffs can never run
MAX_NESTING = 32

SECTION_PLAIN = "seccomp"
SECTION_SLEEPABLE = "seccomp-sleepable"
SECTIONS = (SECTION_PLAIN, SECTION_SLEEPABLE)


class Opcode(IntEnum):
    # ALU64, register and immediate forms
    MOV_IMM = 0x01
    MOV_REG = 0x02
    ADD_IMM = 0x03
    ADD_REG = 0x04
    SUB_IMM = 0x05
    SUB_REG = 0x06
    MUL_IMM = 0x07
    MUL_REG = 0x08
    AND_IMM = 0x09
    AND_REG = 0x0A
    OR_IMM = 0x0B
    OR_REG = 0x0C
    XOR_IMM = 0x0D
    XOR_REG = 0x0E
    LSH_IMM = 0x0F
    LSH_REG = 0x10
    RSH_IMM = 0x11
    RSH_REG = 0x12
    # loads and stores
    LD_IMM64 = 0x20
    LD_CTX = 0x21
    LD_MAP = 0x22
    ST_MAP = 0x23
    # jumps; conditional compares are unsigned
    JEQ_IMM = 0x30
    JEQ_REG = 0x31
    JNE_IMM = 0x32
    JNE_REG = 0x33
    JGT_IMM = 0x34
    JGT_REG = 0x35
    JGE_IMM = 0x36
    JGE_REG = 0x37
    JLT_IMM = 0x38
    JLT_REG = 0x39
    JLE_IMM = 0x3A
    JLE_REG = 0x3B
    JSET_IMM = 0x3C
    JSET_REG = 0x3D
    JA = 0x3F
    CALL = 0x40
    TAIL_CALL = 0x41
    EXIT = 0x42


# ld_imm64 src=1 marks the immediate as an index into the program's map
# declarations rather than a literal (the eBPF pseudo-map convention)
LD_IMM64_MAP_REF = 1

# Operand kinds of the assembly syntax.  Registers fill dst, then src; a
# register-or-immediate operand fills src or imm and so picks the form.
REG = "register"
REG_OR_IMM = "register or immediate"
TARGET = "jump target"
IMM_OR_MAP = "immediate or map:"
CTX_OFF = "context offset"
MEM_OFF = "memory offset"
HELPER = "helper"
# the fields the other kinds fill; ld_imm64 keeps its map flag in src
_FIELDS = {TARGET: ("offset",), IMM_OR_MAP: ("src", "imm"),
           CTX_OFF: ("offset",), MEM_OFF: ("offset",), HELPER: ("imm",)}

# mnemonic -> (opcodes, operand kinds), immediate form first: the one
# description of every instruction, from which the rest derives
INSNS = {
    "mov": ((Opcode.MOV_IMM, Opcode.MOV_REG), (REG, REG_OR_IMM)),
    "add": ((Opcode.ADD_IMM, Opcode.ADD_REG), (REG, REG_OR_IMM)),
    "sub": ((Opcode.SUB_IMM, Opcode.SUB_REG), (REG, REG_OR_IMM)),
    "mul": ((Opcode.MUL_IMM, Opcode.MUL_REG), (REG, REG_OR_IMM)),
    "and": ((Opcode.AND_IMM, Opcode.AND_REG), (REG, REG_OR_IMM)),
    "or": ((Opcode.OR_IMM, Opcode.OR_REG), (REG, REG_OR_IMM)),
    "xor": ((Opcode.XOR_IMM, Opcode.XOR_REG), (REG, REG_OR_IMM)),
    "lsh": ((Opcode.LSH_IMM, Opcode.LSH_REG), (REG, REG_OR_IMM)),
    "rsh": ((Opcode.RSH_IMM, Opcode.RSH_REG), (REG, REG_OR_IMM)),
    "ld_imm64": ((Opcode.LD_IMM64,), (REG, IMM_OR_MAP)),
    "ld_ctx": ((Opcode.LD_CTX,), (REG, CTX_OFF)),
    "ld_map": ((Opcode.LD_MAP,), (REG, REG, MEM_OFF)),
    "st_map": ((Opcode.ST_MAP,), (REG, REG, MEM_OFF)),
    "jeq": ((Opcode.JEQ_IMM, Opcode.JEQ_REG), (REG, REG_OR_IMM, TARGET)),
    "jne": ((Opcode.JNE_IMM, Opcode.JNE_REG), (REG, REG_OR_IMM, TARGET)),
    "jgt": ((Opcode.JGT_IMM, Opcode.JGT_REG), (REG, REG_OR_IMM, TARGET)),
    "jge": ((Opcode.JGE_IMM, Opcode.JGE_REG), (REG, REG_OR_IMM, TARGET)),
    "jlt": ((Opcode.JLT_IMM, Opcode.JLT_REG), (REG, REG_OR_IMM, TARGET)),
    "jle": ((Opcode.JLE_IMM, Opcode.JLE_REG), (REG, REG_OR_IMM, TARGET)),
    "jset": ((Opcode.JSET_IMM, Opcode.JSET_REG), (REG, REG_OR_IMM, TARGET)),
    "jmp": ((Opcode.JA,), (TARGET,)),   # alias; the later ja is printed
    "ja": ((Opcode.JA,), (TARGET,)),
    "call": ((Opcode.CALL,), (HELPER,)),
    "tail_call": ((Opcode.TAIL_CALL,), ()),
    "exit": ((Opcode.EXIT,), ()),
}
# control never continues to the next instruction after these
NO_FALL_THROUGH = frozenset({Opcode.JA, Opcode.EXIT})
# opcodes whose offset is a jump target
JUMPS = frozenset(op for ops, kinds in INSNS.values() if TARGET in kinds
                  for op in ops)
# ALU and conditional-jump opcodes whose second operand is the immediate
# rather than the src register
IMM_FORM = frozenset(ops[0] for ops, kinds in INSNS.values()
                     if REG_OR_IMM in kinds)


def _reserved(op, kinds):
    used = set(("dst", "src")[:kinds.count(REG)])
    for kind in kinds:
        if kind == REG_OR_IMM:
            used.add("imm" if op in IMM_FORM else "src")
        used.update(_FIELDS.get(kind, ()))
    return tuple(f for f in ("dst", "src", "offset", "pad", "imm")
                 if f not in used)


# opcode -> its mnemonic, and the fields of its encoding that must be zero
MNEMONICS = {op: name for name, (ops, _) in INSNS.items() for op in ops}
RESERVED = {op: _reserved(op, kinds)
            for ops, kinds in INSNS.values() for op in ops}


# mnemonic -> semantics, shared by the verifier's abstract step and the
# interpreter's handler build.  ALU results are 64-bit words and shifts
# use the low 6 bits; conditions compare words as unsigned.
ALU_OPS = {
    "mov": lambda a, b: b & U64_MASK,
    "add": lambda a, b: (a + b) & U64_MASK,
    "sub": lambda a, b: (a - b) & U64_MASK,
    "mul": lambda a, b: (a * b) & U64_MASK,
    "and": lambda a, b: a & b & U64_MASK,
    "or": lambda a, b: (a | b) & U64_MASK,
    "xor": lambda a, b: (a ^ b) & U64_MASK,
    "lsh": lambda a, b: (a << (b & 63)) & U64_MASK,
    "rsh": lambda a, b: (a & U64_MASK) >> (b & 63),
}
COND_OPS = {
    "jeq": operator.eq,
    "jne": operator.ne,
    "jgt": operator.gt,
    "jge": operator.ge,
    "jlt": operator.lt,
    "jle": operator.le,
    "jset": lambda a, b: (a & b) != 0,
}


# opcode -> mnemonic, for the verifier's and the interpreter's dispatch
ALU_BASE = {op: name for name in ALU_OPS for op in INSNS[name][0]}
JUMP_BASE = {op: name for name in COND_OPS for op in INSNS[name][0]}

I16_MIN, I16_MAX = -(1 << 15), (1 << 15) - 1
I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1


class Helper(IntEnum):
    """Helper ids; values are stable and appear in the wire format.
    In the paper's terms: state management (map, task storage),
    serialization (wait), user access (safe_read_user*), kernel access
    (ktime) and program features (tail_call)."""

    MAP_LOOKUP_ELEM = 1
    MAP_UPDATE_ELEM = 2
    MAP_DELETE_ELEM = 3
    TAIL_CALL = 4
    KTIME_GET_NS = 5
    SAFE_READ_USER = 6
    SAFE_READ_USER_STR = 7
    SAFE_TASK_STORAGE_GET = 8
    SAFE_TASK_STORAGE_DELETE = 9
    WAIT_SYSCALL = 10


HELPER_NAMES = {h: h.name.lower() for h in Helper}
HELPERS_BY_NAME = {name: h for h, name in HELPER_NAMES.items()}


class MapKind(IntEnum):
    ARRAY = 1
    HASH = 2
    TASK_STORAGE = 3
    PROG_ARRAY = 4


MAP_KIND_NAMES = {k: k.name.lower() for k in MapKind}
MAP_KINDS_BY_NAME = {name: k for k, name in MAP_KIND_NAMES.items()}


# Helper contracts, after the kernel's `struct bpf_func_proto`: the type
# of each argument register r1.. and what r0 holds after the call.  The
# verifier and the interpreter both check calls against them; a helper
# without one cannot be called.  Besides maps (`MapArg`) the types are:
ARG_SCALAR = "scalar"
ARG_INDEX = "scalar index"  # into the map argument
ARG_KEY = "key"             # initialized stack bytes: a key of the map argument
ARG_VALUE = "value"         # initialized stack bytes: a value of that map
ARG_BUF = "buffer"          # stack bytes the helper fills, as many as the
                            # next argument says (a positive multiple of 8)
RET_SCALAR = "scalar"
RET_MAP_VALUE_OR_NULL = "map value or null"     # a value of the map argument


@dataclass(frozen=True)
class MapArg:
    """Argument type: a reference to a map of one of `kinds`, which
    error messages call `what`."""

    kinds: frozenset
    what: str


_ARRAY_OR_HASH = MapArg(frozenset({MapKind.ARRAY, MapKind.HASH}),
                        "an array or hash")
_TASK_STORAGE = MapArg(frozenset({MapKind.TASK_STORAGE}), "a task-storage")

# helper -> (argument types for r1.., kind of r0)
HELPER_PROTOS = {
    Helper.MAP_LOOKUP_ELEM: ((_ARRAY_OR_HASH, ARG_KEY), RET_MAP_VALUE_OR_NULL),
    Helper.MAP_UPDATE_ELEM: (
        (_ARRAY_OR_HASH, ARG_KEY, ARG_VALUE, ARG_SCALAR), RET_SCALAR),
    Helper.MAP_DELETE_ELEM: ((_ARRAY_OR_HASH, ARG_KEY), RET_SCALAR),
    Helper.KTIME_GET_NS: ((), RET_SCALAR),
    Helper.SAFE_READ_USER: ((ARG_BUF, ARG_SCALAR, ARG_SCALAR), RET_SCALAR),
    Helper.SAFE_READ_USER_STR: ((ARG_BUF, ARG_SCALAR, ARG_SCALAR), RET_SCALAR),
    Helper.SAFE_TASK_STORAGE_GET: (
        (_TASK_STORAGE, ARG_SCALAR), RET_MAP_VALUE_OR_NULL),
    Helper.SAFE_TASK_STORAGE_DELETE: ((_TASK_STORAGE,), RET_SCALAR),
    Helper.WAIT_SYSCALL: ((ARG_SCALAR, ARG_SCALAR), RET_SCALAR),
}
# the operands of the `tail_call` opcode: a program array and an index
TAIL_CALL_PROTO = (
    (MapArg(frozenset({MapKind.PROG_ARRAY}), "a program-array"), ARG_INDEX),
    RET_SCALAR)


@dataclass(frozen=True)
class SyscallContext:
    """The 64-byte record a filter inspects (seccomp-data layout)."""

    nr: int
    arch: int = AUDIT_ARCH_X86_64
    calling_address: int = 0
    args: tuple = (0, 0, 0, 0, 0, 0)

    def __post_init__(self):
        if len(self.args) != 6:
            raise ValueError("context carries exactly six arguments")

    def pack(self) -> bytes:
        return struct.pack(
            "<iI7Q",
            self.nr,
            self.arch & 0xFFFFFFFF,
            self.calling_address & U64_MASK,
            *(a & U64_MASK for a in self.args),
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "SyscallContext":
        if len(raw) != CTX_SIZE:
            raise ValueError(f"context record must be {CTX_SIZE} bytes")
        nr, arch, addr, *args = struct.unpack("<iI7Q", raw)
        return cls(nr=nr, arch=arch, calling_address=addr, args=tuple(args))

    def field(self, offset: int) -> int:
        """Value of the whole field at `offset`, zero-extended to u64."""
        if offset == 0:
            return self.nr & 0xFFFFFFFF
        if offset == 4:
            return self.arch & 0xFFFFFFFF
        if offset == 8:
            return self.calling_address & U64_MASK
        if offset in (16, 24, 32, 40, 48, 56):
            return self.args[(offset - 16) // 8] & U64_MASK
        raise ValueError(f"no context field starts at offset {offset}")


class Instruction(namedtuple("Instruction", "opcode dst src offset imm")):
    """One instruction, immutable; every field fits its encoding.

    A tuple type, because programs build and compare many of them: the
    one constructor checks the fields, and `_make` (which `_replace`
    uses) goes through it too."""

    __slots__ = ()

    def __new__(cls, opcode: Opcode, dst: int = 0, src: int = 0,
                offset: int = 0, imm: int = 0):
        if not 0 <= dst < NUM_REGS or not 0 <= src < NUM_REGS:
            raise ValueError("register index out of range (r0..r10)")
        if not I16_MIN <= offset <= I16_MAX:
            raise ValueError("offset does not fit in i16")
        if not I64_MIN <= imm <= I64_MAX:
            raise ValueError("immediate does not fit in i64")
        return tuple.__new__(cls, (opcode, dst, src, offset, imm))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


@dataclass
class MapDecl:
    """A map declared by a program.

    `initial_entries` (and `initial_programs` for prog_array maps) carry
    contents the map must start with; the text assembly syntax cannot
    express them, so they survive only through the binary format and the
    policy generators.
    """

    name: str
    kind: MapKind
    key_size: int
    value_size: int
    max_entries: int
    initial_entries: dict = field(default_factory=dict)
    initial_programs: dict = field(default_factory=dict)

    def validate(self):
        if not re.fullmatch(r"[\w.]+", self.name, re.ASCII):   # as the kernel's
            raise ValueError(f"map name {self.name!r} is not [A-Za-z0-9_.]+")
        if self.key_size <= 0 or self.value_size <= 0 or self.max_entries <= 0:
            raise ValueError(f"map {self.name}: sizes must be positive")
        if self.kind == MapKind.ARRAY and self.key_size != 8:
            raise ValueError(f"map {self.name}: array maps use 8-byte index keys")
        if self.kind == MapKind.TASK_STORAGE and self.key_size != 8:
            raise ValueError(
                f"map {self.name}: task storage uses 8-byte leader-id keys")
        if self.max_entries * (self.key_size + self.value_size) > MAX_MAP_BYTES:
            raise ValueError(f"map {self.name}: larger than {MAX_MAP_BYTES} bytes")
        for k, v in self.initial_entries.items():
            if len(k) != self.key_size or len(v) != self.value_size:
                raise ValueError(f"map {self.name}: initial entry size mismatch")
            if self.kind == MapKind.ARRAY \
                    and int.from_bytes(k, "little") >= self.max_entries:
                raise ValueError(f"map {self.name}: initial index out of range")
        if len(self.initial_entries) > self.max_entries:
            raise ValueError(f"map {self.name}: more initial entries than fit")
        if self.initial_programs and self.kind != MapKind.PROG_ARRAY:
            raise ValueError(f"map {self.name}: only prog_array maps hold programs")
        if any(not 0 <= idx < self.max_entries for idx in self.initial_programs):
            raise ValueError(f"map {self.name}: initial program index out of range")


@dataclass
class FilterProgram:
    """A filter: instructions plus the maps it references.

    `verified` is set by the verifier and `load_userns` by the engine at
    load time; both start unset.  `compiled` caches the interpreter's
    per-pc handler table, built from `instructions` on first run.
    `verdicts` memoizes the engine's outcome per syscall number for runs
    that read nothing but `nr` (see `vm.VmThread.pure`); every copy made
    with `replace` starts with an empty one.  Once loaded a program is
    immutable (both caches are functions of it): copies share it.
    """

    instructions: tuple
    sleepable: bool = False
    map_refs: tuple = ()
    verified: bool = False
    load_userns: int | None = None
    compiled: tuple | None = field(default=None, init=False, repr=False,
                                   compare=False)
    verdicts: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def section_name(self) -> str:
        return SECTION_SLEEPABLE if self.sleepable else SECTION_PLAIN

    def map_index(self, name: str) -> int:
        for i, decl in enumerate(self.map_refs):
            if decl.name == name:
                return i
        raise KeyError(name)


# ---------------------------------------------------------------------------
# binary wire format
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sHHII")
_INSN = struct.Struct("<HBBhHq")
_FLAG_SLEEPABLE = 1


class ProgramFormatError(ValueError):
    pass


def encode_program(program: FilterProgram) -> bytes:
    out = bytearray()
    flags = _FLAG_SLEEPABLE if program.sleepable else 0
    out += _HEADER.pack(
        PROGRAM_MAGIC,
        PROGRAM_VERSION,
        flags,
        len(program.instructions),
        len(program.map_refs),
    )
    for decl in program.map_refs:
        name = decl.name.encode()
        if len(name) > 255:
            raise ProgramFormatError(f"map name too long: {decl.name!r}")
        out += struct.pack("<B", len(name)) + name
        out += struct.pack(
            "<BIII", decl.kind, decl.key_size, decl.value_size, decl.max_entries
        )
        out += struct.pack("<I", len(decl.initial_entries))
        for k in sorted(decl.initial_entries):
            out += k + decl.initial_entries[k]
        out += struct.pack("<I", len(decl.initial_programs))
        for idx in sorted(decl.initial_programs):
            blob = encode_program(decl.initial_programs[idx])
            out += struct.pack("<QI", idx, len(blob)) + blob
    for ins in program.instructions:
        out += _INSN.pack(ins.opcode, ins.dst, ins.src, ins.offset, 0, ins.imm)
    return bytes(out)


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise ProgramFormatError("truncated program file")
        chunk = self.raw[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, st: struct.Struct):
        return st.unpack(self.take(st.size))


def decode_program(raw: bytes) -> FilterProgram:
    """Parse a program file; every malformation is a ProgramFormatError."""
    try:
        return _decode(raw, 0)
    except ProgramFormatError:
        raise
    except ValueError as exc:   # declarations, operands, undecodable names
        raise ProgramFormatError(str(exc)) from None


def _decode(raw: bytes, depth: int) -> FilterProgram:
    if depth > MAX_NESTING:
        raise ProgramFormatError("program arrays nested too deeply")
    rd = _Reader(raw)
    magic, version, flags, n_insns, n_maps = rd.unpack(_HEADER)
    if magic != PROGRAM_MAGIC:
        raise ProgramFormatError("bad magic; not a filter program file")
    if version != PROGRAM_VERSION:
        raise ProgramFormatError(f"unsupported program version {version}")
    decls = []
    for _ in range(n_maps):
        (name_len,) = struct.unpack("<B", rd.take(1))
        name = rd.take(name_len).decode()
        kind, key_size, value_size, max_entries = struct.unpack(
            "<BIII", rd.take(13)
        )
        try:
            kind = MapKind(kind)
        except ValueError:
            raise ProgramFormatError(f"map {name}: unknown kind {kind}") from None
        decl = MapDecl(name, kind, key_size, value_size, max_entries)
        decl.validate()     # sizes first: each entry below consumes bytes
        (n_entries,) = struct.unpack("<I", rd.take(4))
        for _ in range(n_entries):
            k = rd.take(key_size)
            decl.initial_entries[k] = rd.take(value_size)
        (n_progs,) = struct.unpack("<I", rd.take(4))
        for _ in range(n_progs):
            idx, blob_len = struct.unpack("<QI", rd.take(12))
            decl.initial_programs[idx] = _decode(rd.take(blob_len), depth + 1)
        decl.validate()
        if any(d.name == name for d in decls):     # text names maps
            raise ProgramFormatError(f"duplicate map {name!r}")
        decls.append(decl)
    insns = []
    for i in range(n_insns):
        opcode, dst, src, off, pad, imm = rd.unpack(_INSN)
        try:
            opcode = Opcode(opcode)
        except ValueError:
            raise ProgramFormatError(
                f"instruction {i}: unknown opcode 0x{opcode:x}"
            ) from None
        insns.append(Instruction(opcode, dst, src, off, imm))
        fields = {"dst": dst, "src": src, "offset": off, "pad": pad, "imm": imm}
        for name in RESERVED[opcode]:
            if fields[name]:
                raise ProgramFormatError(f"instruction {i}: {MNEMONICS[opcode]}"
                                         f" uses reserved field {name}")
        if opcode == Opcode.LD_IMM64 and src and (
                src != LD_IMM64_MAP_REF or not 0 <= imm < len(decls)):
            raise ProgramFormatError(
                f"instruction {i}: ld_imm64 src {src} imm {imm} names no map")
    if rd.pos != len(raw):
        raise ProgramFormatError("trailing bytes after program body")
    return FilterProgram(
        instructions=tuple(insns),
        sleepable=bool(flags & _FLAG_SLEEPABLE),
        map_refs=tuple(decls),
    )
