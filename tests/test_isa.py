"""Context record layout, ALU semantics, and the binary wire format."""

from __future__ import annotations

import random
import re
import struct

import pytest

from sfvm.isa import (
    ALU_OPS,
    AUDIT_ARCH_X86_64,
    COND_OPS,
    CTX_FIELDS,
    CTX_SIZE,
    FilterProgram,
    I16_MAX,
    I16_MIN,
    I64_MAX,
    I64_MIN,
    Instruction,
    MapDecl,
    MAX_MAP_BYTES,
    MAX_NESTING,
    MapKind,
    Opcode,
    PROGRAM_MAGIC,
    ProgramFormatError,
    SyscallContext,
    decode_program,
    encode_program,
)

from .helpers import every_generator

U64 = (1 << 64) - 1


# -- syscall context --------------------------------------------------------

def test_context_packs_to_seccomp_data_layout():
    c = SyscallContext(nr=59, arch=AUDIT_ARCH_X86_64,
                       calling_address=0x401000,
                       args=(1, 2, 3, 4, 5, 6))
    raw = c.pack()
    assert len(raw) == CTX_SIZE == 64
    # independent decode straight off the documented layout
    assert struct.unpack_from("<i", raw, 0)[0] == 59
    assert struct.unpack_from("<I", raw, 4)[0] == AUDIT_ARCH_X86_64
    assert struct.unpack_from("<Q", raw, 8)[0] == 0x401000
    for i in range(6):
        assert struct.unpack_from("<Q", raw, 16 + 8 * i)[0] == i + 1


def test_context_unpack_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        c = SyscallContext(nr=rng.randrange(0, 1 << 31),
                           arch=rng.randrange(0, 1 << 32),
                           calling_address=rng.randrange(0, 1 << 64),
                           args=tuple(rng.randrange(0, 1 << 64)
                                      for _ in range(6)))
        assert SyscallContext.unpack(c.pack()) == c
    with pytest.raises(ValueError):
        SyscallContext.unpack(b"\x00" * 63)


def test_context_field_offsets():
    c = SyscallContext(nr=1, arch=2, calling_address=3,
                       args=(10, 11, 12, 13, 14, 15))
    assert c.field(0) == 1
    assert c.field(4) == 2
    assert c.field(8) == 3
    for i in range(6):
        assert c.field(16 + 8 * i) == 10 + i
    for bad in (-8, 2, 5, 12, 60, 64):
        with pytest.raises(ValueError):
            c.field(bad)
    assert set(CTX_FIELDS) == {0, 4, 8, 16, 24, 32, 40, 48, 56}


def test_context_requires_six_args():
    with pytest.raises(ValueError):
        SyscallContext(nr=0, args=(1, 2, 3))


# -- ALU and condition semantics ---------------------------------------------

def test_alu_against_bigint_oracle():
    rng = random.Random(0xA150)
    ops = ["mov", "add", "sub", "mul", "and", "or", "xor", "lsh", "rsh"]
    for _ in range(2000):
        base = rng.choice(ops)
        a = rng.randrange(0, 1 << 64)
        b = rng.randrange(0, 1 << 64)
        got = ALU_OPS[base](a, b)
        if base == "mov":
            want = b
        elif base == "lsh":
            want = a << (b % 64)
        elif base == "rsh":
            want = a >> (b % 64)
        else:
            want = {"add": a + b, "sub": a - b, "mul": a * b,
                    "and": a & b, "or": a | b, "xor": a ^ b}[base]
        assert got == want & U64
        assert 0 <= got <= U64


def test_shift_counts_use_low_six_bits():
    assert ALU_OPS["lsh"](1, 64) == 1
    assert ALU_OPS["lsh"](1, 65) == 2
    assert ALU_OPS["rsh"](1 << 63, 63) == 1


def test_conditions_are_unsigned():
    big = U64          # -1 as a two's complement word
    assert COND_OPS["jgt"](big, 5)
    assert not COND_OPS["jlt"](big, 5)
    assert COND_OPS["jge"](5, 5)
    assert COND_OPS["jle"](5, 5)
    assert COND_OPS["jset"](0b1100, 0b0100)
    assert not COND_OPS["jset"](0b1100, 0b0011)


# -- instruction and map declarations ----------------------------------------

def test_instruction_field_validation():
    Instruction(Opcode.MOV_IMM, dst=10, imm=1)
    with pytest.raises(ValueError):
        Instruction(Opcode.MOV_IMM, dst=11)
    with pytest.raises(ValueError):
        Instruction(Opcode.MOV_REG, src=12)
    with pytest.raises(ValueError):
        Instruction(Opcode.JA, offset=1 << 15)
    with pytest.raises(ValueError):
        Instruction(Opcode.MOV_IMM, imm=1 << 63)


@pytest.mark.parametrize("fields,message", [
    ({"dst": 11}, "register index out of range (r0..r10)"),
    ({"src": -1}, "register index out of range (r0..r10)"),
    ({"offset": I16_MAX + 1}, "offset does not fit in i16"),
    ({"offset": I16_MIN - 1}, "offset does not fit in i16"),
    ({"imm": I64_MAX + 1}, "immediate does not fit in i64"),
    ({"imm": I64_MIN - 1}, "immediate does not fit in i64"),
])
def test_instruction_range_checks(fields, message):
    edge = {name: value - 1 if value > 0 else value + 1
            for name, value in fields.items()}
    Instruction(Opcode.MOV_IMM, **edge)     # the last value that fits
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Instruction(Opcode.MOV_IMM, **fields)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Instruction(Opcode.MOV_IMM)._replace(**fields)


@pytest.mark.parametrize("byte", [2, 3])      # dst, src
def test_decode_applies_the_register_check(byte):
    raw = bytearray(encode_program(FilterProgram(
        instructions=(Instruction(Opcode.EXIT),))))
    raw[-16 + byte] = 11
    with pytest.raises(ProgramFormatError,
                       match=r"^register index out of range \(r0\.\.r10\)$"):
        decode_program(bytes(raw))


def test_the_wire_holds_exactly_the_checked_offsets_and_immediates():
    """The encoded offset is an i16 and the immediate an i64, so the
    other two checks pass on everything decodable: their edges decode
    unchanged, and one past them cannot be encoded."""
    edges = tuple(Instruction(Opcode.JEQ_IMM, offset=off, imm=imm)
                  for off in (I16_MIN, I16_MAX) for imm in (I64_MIN, I64_MAX))
    raw = encode_program(FilterProgram(instructions=edges))
    assert decode_program(raw).instructions == edges
    with pytest.raises(struct.error):
        struct.pack("<HBBhHq", 0, 0, 0, I16_MAX + 1, 0, 0)
    with pytest.raises(struct.error):
        struct.pack("<HBBhHq", 0, 0, 0, 0, 0, I64_MAX + 1)


def test_instructions_from_every_path_are_equal_and_hash_alike():
    for program in every_generator():
        built = program.instructions
        decoded = decode_program(encode_program(program)).instructions
        direct = tuple(Instruction(*ins) for ins in built)
        named = tuple(Instruction(**ins._asdict()) for ins in built)
        assert built == decoded == direct == named
        assert [hash(i) for i in built] == [hash(i) for i in decoded] \
            == [hash(i) for i in direct]
        assert {type(i) for i in built + decoded} == {Instruction}
    assert Instruction(Opcode.EXIT) == Instruction(Opcode.EXIT, 0, 0, 0, 0)
    assert hash(Instruction(Opcode.JA, offset=-1)) \
        == hash((Opcode.JA, 0, 0, -1, 0))


def test_map_decl_validation():
    MapDecl("m", MapKind.HASH, 8, 8, 4).validate()
    with pytest.raises(ValueError):
        MapDecl("", MapKind.HASH, 8, 8, 4).validate()
    with pytest.raises(ValueError, match="name"):
        MapDecl("a b", MapKind.HASH, 8, 8, 4).validate()
    with pytest.raises(ValueError):
        MapDecl("m", MapKind.HASH, 0, 8, 4).validate()
    with pytest.raises(ValueError):
        MapDecl("m", MapKind.ARRAY, 4, 8, 4).validate()
    with pytest.raises(ValueError):
        MapDecl("m", MapKind.HASH, 8, 8, 4,
                initial_entries={b"\x00" * 4: b"\x00" * 8}).validate()
    with pytest.raises(ValueError):
        MapDecl("m", MapKind.HASH, 8, 8, 4,
                initial_programs={0: None}).validate()
    with pytest.raises(ValueError, match="leader-id"):
        MapDecl("m", MapKind.TASK_STORAGE, 1, 8, 4).validate()
    with pytest.raises(ValueError, match="out of range"):
        MapDecl("m", MapKind.ARRAY, 8, 8, 2,
                initial_entries={(2).to_bytes(8, "little"): bytes(8)}
                ).validate()
    with pytest.raises(ValueError, match="than fit"):
        MapDecl("m", MapKind.HASH, 8, 8, 1,
                initial_entries={bytes([i]) * 8: bytes(8) for i in (1, 2)}
                ).validate()


def test_map_storage_is_bounded():
    # array maps are preallocated: an untrusted size must not allocate
    MapDecl("m", MapKind.ARRAY, 8, 8, MAX_MAP_BYTES // 16).validate()
    with pytest.raises(ValueError, match="larger than"):
        MapDecl("m", MapKind.ARRAY, 8, 8, MAX_MAP_BYTES // 16 + 1).validate()
    with pytest.raises(ValueError, match="larger than"):
        MapDecl("m", MapKind.HASH, 8, 1 << 32, 1).validate()


def test_map_index_lookup():
    prog = FilterProgram(
        instructions=(Instruction(Opcode.EXIT),),
        map_refs=(MapDecl("a", MapKind.HASH, 8, 8, 1),
                  MapDecl("b", MapKind.ARRAY, 8, 8, 1)))
    assert prog.map_index("b") == 1
    with pytest.raises(KeyError):
        prog.map_index("c")


# -- wire format --------------------------------------------------------------

def _sample_program():
    inner = FilterProgram(instructions=(
        Instruction(Opcode.MOV_IMM, dst=0, imm=0x7FFF0000),
        Instruction(Opcode.EXIT),
    ))
    decls = (
        MapDecl("counts", MapKind.HASH, 8, 8, 16,
                initial_entries={(5).to_bytes(8, "little"): b"\x01" * 8}),
        MapDecl("jumps", MapKind.PROG_ARRAY, 8, 8, 4,
                initial_programs={2: inner}),
    )
    return FilterProgram(
        instructions=(
            Instruction(Opcode.LD_CTX, dst=2, offset=0),
            Instruction(Opcode.JEQ_IMM, dst=2, offset=1, imm=42),
            Instruction(Opcode.MOV_IMM, dst=0, imm=-1),
            Instruction(Opcode.EXIT),
        ),
        sleepable=True,
        map_refs=decls,
    )


def test_encode_decode_round_trip():
    prog = _sample_program()
    raw = encode_program(prog)
    assert raw[:4] == PROGRAM_MAGIC
    back = decode_program(raw)
    assert back.instructions == prog.instructions
    assert back.sleepable is True
    assert not back.verified
    assert len(back.map_refs) == 2
    assert back.map_refs[0].initial_entries == prog.map_refs[0].initial_entries
    nested = back.map_refs[1].initial_programs
    assert list(nested) == [2]
    assert nested[2].instructions == prog.map_refs[1].initial_programs[2] \
        .instructions
    # encoding is deterministic
    assert encode_program(back) == raw


def test_decode_rejects_garbage():
    raw = encode_program(_sample_program())
    with pytest.raises(ProgramFormatError):
        decode_program(b"LOLW" + raw[4:])
    with pytest.raises(ProgramFormatError):
        decode_program(raw[:10])
    with pytest.raises(ProgramFormatError):
        decode_program(raw + b"\x00")
    bad_version = bytearray(raw)
    bad_version[4] = 0xFF
    with pytest.raises(ProgramFormatError):
        decode_program(bytes(bad_version))
    decl = MapDecl("m", MapKind.HASH, 8, 8, 4)
    with pytest.raises(ProgramFormatError, match="duplicate map"):
        decode_program(encode_program(FilterProgram(
            instructions=(Instruction(Opcode.EXIT),), map_refs=(decl, decl))))


def test_decode_raises_only_format_errors():
    raw = bytearray(encode_program(FilterProgram(
        instructions=(Instruction(Opcode.EXIT),))))
    raw[-14] = 11     # dst register r11 does not exist
    with pytest.raises(ProgramFormatError, match="register"):
        decode_program(bytes(raw))
    raw = bytearray(encode_program(_sample_program()))
    name = raw.index(b"counts")
    raw[name] = 0xFF  # not UTF-8
    with pytest.raises(ProgramFormatError):
        decode_program(bytes(raw))


def test_decode_bounds_program_array_nesting():
    def nest(depth):
        prog = FilterProgram(instructions=(Instruction(Opcode.EXIT),))
        for _ in range(depth):
            decl = MapDecl("next", MapKind.PROG_ARRAY, 8, 8, 1,
                           initial_programs={0: prog})
            prog = FilterProgram(instructions=(Instruction(Opcode.EXIT),),
                                 map_refs=(decl,))
        return encode_program(prog)

    decode_program(nest(MAX_NESTING))
    with pytest.raises(ProgramFormatError, match="nested"):
        decode_program(nest(MAX_NESTING + 1))


def _handoff_past_the_end():
    """A 1-entry program array that declares its only target at index 5."""
    inner = FilterProgram(instructions=(
        Instruction(Opcode.MOV_IMM, dst=0, imm=0x7FFF0000),
        Instruction(Opcode.EXIT),
    ))
    decl = MapDecl("next", MapKind.PROG_ARRAY, 8, 8, 1,
                   initial_programs={5: inner})
    return FilterProgram(instructions=(Instruction(Opcode.EXIT),),
                         map_refs=(decl,))


def test_program_array_initial_index_must_fit():
    prog = _handoff_past_the_end()
    with pytest.raises(ValueError, match="index out of range"):
        prog.map_refs[0].validate()
    with pytest.raises(ProgramFormatError, match="index out of range"):
        decode_program(encode_program(prog))


def test_decode_rejects_unknown_opcode():
    raw = bytearray(encode_program(FilterProgram(
        instructions=(Instruction(Opcode.EXIT),))))
    raw[-16] = 0x99   # clobber the opcode byte of the only instruction
    with pytest.raises(ProgramFormatError):
        decode_program(bytes(raw))
